// Unit tests: clocks, filesystems (including one listing contract for the
// in-memory and POSIX stores, and a POSIX listing racing writes and
// deletes), background queue, Env bundles. Runs under the `tsan` ctest
// label (including the thread-sanitizer pass in check.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "env/background_queue.h"
#include "env/env.h"
#include "env/scratch.h"
#include "test_util.h"

namespace flor {
namespace {

TEST(SimClock, AdvancesOnDemand) {
  SimClock clock;
  EXPECT_EQ(clock.NowMicros(), 0u);
  clock.AdvanceMicros(1500);
  EXPECT_EQ(clock.NowMicros(), 1500u);
  EXPECT_DOUBLE_EQ(clock.NowSeconds(), 1.5e-3);
  EXPECT_TRUE(clock.is_simulated());
}

TEST(SimClock, AdvanceToNeverGoesBack) {
  SimClock clock(100);
  clock.AdvanceTo(50);
  EXPECT_EQ(clock.NowMicros(), 100u);
  clock.AdvanceTo(300);
  EXPECT_EQ(clock.NowMicros(), 300u);
}

TEST(WallClock, MonotonicAndReal) {
  WallClock clock;
  const uint64_t a = clock.NowMicros();
  clock.AdvanceMicros(2000);  // sleeps ~2 ms
  const uint64_t b = clock.NowMicros();
  EXPECT_GT(b, a);
  EXPECT_FALSE(clock.is_simulated());
}

TEST(SecondsToMicros, Rounds) {
  EXPECT_EQ(SecondsToMicros(1.0), 1000000u);
  EXPECT_EQ(SecondsToMicros(0.0000005), 1u);  // rounds up at .5
}

TEST(MemFileSystem, WriteReadRoundTrip) {
  MemFileSystem fs;
  ASSERT_TRUE(fs.WriteFile("a/b/c.txt", "hello").ok());
  auto data = fs.ReadFile("a/b/c.txt");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "hello");
  EXPECT_TRUE(fs.Exists("a/b/c.txt"));
  EXPECT_FALSE(fs.Exists("a/b/d.txt"));
}

TEST(MemFileSystem, ReadMissingIsNotFound) {
  MemFileSystem fs;
  EXPECT_TRUE(fs.ReadFile("nope").status().IsNotFound());
  EXPECT_TRUE(fs.FileSize("nope").status().IsNotFound());
  EXPECT_TRUE(fs.DeleteFile("nope").IsNotFound());
}

TEST(MemFileSystem, OverwriteReplaces) {
  MemFileSystem fs;
  ASSERT_TRUE(fs.WriteFile("x", "one").ok());
  ASSERT_TRUE(fs.WriteFile("x", "two").ok());
  EXPECT_EQ(*fs.ReadFile("x"), "two");
}

TEST(MemFileSystem, AppendCreatesAndExtends) {
  MemFileSystem fs;
  ASSERT_TRUE(fs.AppendFile("log", "a").ok());
  ASSERT_TRUE(fs.AppendFile("log", "b").ok());
  EXPECT_EQ(*fs.ReadFile("log"), "ab");
}

TEST(MemFileSystem, ListPrefixSorted) {
  MemFileSystem fs;
  ASSERT_TRUE(fs.WriteFile("run/ckpt/b", "2").ok());
  ASSERT_TRUE(fs.WriteFile("run/ckpt/a", "1").ok());
  ASSERT_TRUE(fs.WriteFile("run/logs", "x").ok());
  ASSERT_TRUE(fs.WriteFile("other", "y").ok());
  auto listed = fs.ListPrefix("run/ckpt/");
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0], "run/ckpt/a");
  EXPECT_EQ(listed[1], "run/ckpt/b");
}

TEST(MemFileSystem, TotalBytesUnder) {
  MemFileSystem fs;
  ASSERT_TRUE(fs.WriteFile("p/a", "123").ok());
  ASSERT_TRUE(fs.WriteFile("p/b", "4567").ok());
  ASSERT_TRUE(fs.WriteFile("q/c", "89").ok());
  EXPECT_EQ(fs.TotalBytesUnder("p/"), 7u);
}

TEST(MemFileSystem, CorruptByteFlipsContent) {
  MemFileSystem fs;
  ASSERT_TRUE(fs.WriteFile("f", std::string("abc")).ok());
  ASSERT_TRUE(fs.CorruptByte("f", 1).ok());
  EXPECT_NE(*fs.ReadFile("f"), "abc");
  EXPECT_TRUE(fs.CorruptByte("f", 99).code() == StatusCode::kOutOfRange);
}

using PosixFileSystemTest = testutil::ScratchDirTest;

TEST_F(PosixFileSystemTest, RoundTripUnderTempRoot) {
  PosixFileSystem fs(root());
  ASSERT_TRUE(fs.WriteFile("sub/dir/file.bin", "payload").ok());
  EXPECT_TRUE(fs.Exists("sub/dir/file.bin"));
  EXPECT_EQ(*fs.ReadFile("sub/dir/file.bin"), "payload");
  EXPECT_EQ(*fs.FileSize("sub/dir/file.bin"), 7u);
  auto listed = fs.ListPrefix("sub/");
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0], "sub/dir/file.bin");
  ASSERT_TRUE(fs.AppendFile("sub/dir/file.bin", "!").ok());
  EXPECT_EQ(*fs.ReadFile("sub/dir/file.bin"), "payload!");
  ASSERT_TRUE(fs.DeleteFile("sub/dir/file.bin").ok());
  EXPECT_FALSE(fs.Exists("sub/dir/file.bin"));
}

// The objects both filesystems hold for the listing contract: two tenants
// whose names share a prefix, a bucket mirror of one of them, checkpoint
// shards, and names that extend a directory's name without entering it.
const char* const kListingObjects[] = {
    "svc/t1/r1/manifest.tsv",     "svc/t1/r1/ckpt/shard-0/e0",
    "svc/t1/r1/ckpt/shard-1/e1",  "svc/t1/r2/manifest.tsv",
    "svc/t10/r1/manifest.tsv",    "s3/svc/t1/r1/ckpt/shard-0/e0",
    "run/ckpt/a",                 "run/ckpt/b",
    "run/ckpt.txt",               "run/ckpt2/x",
    "worker-0.result",            "worker-1.result",
    "top",
};

struct ListingCase {
  const char* prefix;
  size_t listed;  // so two filesystems agreeing on a wrong answer still fail
};

const ListingCase kListingCases[] = {
    {"", 13},
    {"svc/t1/", 4},                 // the tenant, not t10 or the mirror
    {"svc/t1", 5},                  // t10 extends the name
    {"svc/t", 5},
    {"svc/t1/r1/ckpt/shard-", 2},   // ends mid-name
    {"run/ckpt", 4},                // the directory and its name-siblings
    {"run/ckpt/", 2},
    {"svc/t2/", 0},                 // a missing directory
    {"missing/deeper/", 0},
    {"svc/t1/r1/manifest.tsv", 1},  // an object's full path
    {"run/ckpt.txt/", 0},           // an object named as a directory
    {"worker-", 2},                 // no slash: the root directory
};

TEST_F(PosixFileSystemTest, ListPrefixMatchesMemFileSystem) {
  MemFileSystem mem;
  for (const char* path : kListingObjects)
    ASSERT_TRUE(mem.WriteFile(path, path).ok());
  const std::string absolute = std::filesystem::absolute(root()).string();
  const std::string roots[] = {
      absolute, absolute + "/",
      std::filesystem::relative(absolute).string()};
  for (const std::string& posix_root : roots) {
    SCOPED_TRACE("root '" + posix_root + "'");
    ASSERT_FALSE(posix_root.empty());
    PosixFileSystem posix(posix_root);
    for (const char* path : kListingObjects)
      ASSERT_TRUE(posix.WriteFile(path, path).ok());
    for (const ListingCase& c : kListingCases) {
      SCOPED_TRACE(std::string("prefix '") + c.prefix + "'");
      const std::vector<std::string> want = mem.ListPrefix(c.prefix);
      EXPECT_EQ(want.size(), c.listed);
      EXPECT_EQ(posix.ListPrefix(c.prefix), want);
    }
  }
}

TEST_F(PosixFileSystemTest, ListingRacesWritesAndDeletes) {
  // The service lists a tenant while the GC worker deletes and the spooler
  // writes. Objects that churn during a walk may or may not show up; the
  // stable ones present throughout always do, and nothing outside the
  // prefix ever does.
  PosixFileSystem fs(root());
  const std::string prefix = "svc/t0/";
  std::vector<std::string> stable;
  for (int i = 0; i < 8; ++i) {
    stable.push_back(StrCat(prefix, "r", i, "/manifest.tsv"));
    ASSERT_TRUE(fs.WriteFile(stable.back(), "m").ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> rounds{0};
  std::thread churn([&] {
    for (int round = 0; !stop.load(); ++round) {
      for (const char* tenant : {"svc/t0/", "svc/t00/"}) {
        // Inside the stable runs' directories and beside them.
        const std::string path =
            StrCat(tenant, "r", round % 12, "/ckpt/e", round % 3);
        EXPECT_TRUE(fs.WriteFile(path, "a").ok()) << path;
        EXPECT_TRUE(fs.WriteFile(path, "bb").ok()) << path;
        if (round % 2 == 1) {
          EXPECT_TRUE(fs.DeleteFile(path).ok()) << path;
        }
      }
      rounds.store(round + 1);
    }
  });
  // The first broken promise of one listing, or "".
  auto violation = [&](const std::vector<std::string>& listed) {
    if (!std::is_sorted(listed.begin(), listed.end()))
      return std::string("unsorted");
    for (const std::string& path : listed) {
      if (!StartsWith(path, prefix)) return StrCat("outside prefix: ", path);
    }
    for (const std::string& path : stable) {
      if (!std::binary_search(listed.begin(), listed.end(), path))
        return StrCat("missing: ", path);
    }
    return std::string();
  };
  while (rounds.load() == 0) std::this_thread::yield();
  std::string failure;
  int listings = 0;
  for (; failure.empty() && (listings < 100 || rounds.load() < 100);
       ++listings) {
    failure = violation(fs.ListPrefix(prefix));
  }
  stop.store(true);
  churn.join();
  EXPECT_EQ(failure, "") << "listing " << listings;
}

TEST(BackgroundQueue, RunsJobsAndDrains) {
  BackgroundQueue queue;
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) queue.Submit([&] { ++counter; });
  queue.Drain();
  EXPECT_EQ(counter.load(), 50);
  EXPECT_EQ(queue.InFlight(), 0u);
}

TEST(BackgroundQueue, TracksMaxInFlight) {
  BackgroundQueue queue;
  for (int i = 0; i < 10; ++i) queue.Submit([] {});
  queue.Drain();
  EXPECT_GE(queue.MaxInFlight(), 1u);
}

TEST(Env, SimEnvBundlesSimServices) {
  auto env = Env::NewSimEnv(42);
  EXPECT_TRUE(env->clock()->is_simulated());
  EXPECT_NE(env->sim_clock(), nullptr);
  EXPECT_EQ(env->clock()->NowMicros(), 42u);
  EXPECT_TRUE(env->fs()->WriteFile("x", "y").ok());
}

TEST(Env, NonOwningSharedFilesystem) {
  MemFileSystem shared;
  Env a(std::make_unique<SimClock>(), &shared);
  Env b(std::make_unique<SimClock>(), &shared);
  ASSERT_TRUE(a.fs()->WriteFile("k", "v").ok());
  EXPECT_EQ(*b.fs()->ReadFile("k"), "v");
  a.clock()->AdvanceMicros(100);
  EXPECT_EQ(b.clock()->NowMicros(), 0u);  // clocks independent
}

// -------------------------------------------------------- scratch dirs ---

TEST(ScratchDir, CreatesUniqueDirsAndRemovesOnDestruction) {
  std::string first_path;
  {
    auto a = ScratchDir::Create("flor-envtest");
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    auto b = ScratchDir::Create("flor-envtest");
    ASSERT_TRUE(b.ok());
    EXPECT_NE(a->path(), b->path());
    first_path = a->path();
    PosixFileSystem fs(first_path);
    ASSERT_TRUE(fs.WriteFile("nested/file.txt", "data").ok());
    EXPECT_TRUE(fs.Exists("nested/file.txt"));
  }
  // Gone, including nested content.
  PosixFileSystem probe(first_path);
  EXPECT_FALSE(probe.Exists("nested/file.txt"));
}

TEST(ScratchDir, CreateFailureNamesTheErrno) {
  // A tag longer than any filesystem's component limit forces mkdtemp to
  // fail with ENAMETOOLONG (works even as root, unlike a permission
  // denial). The error must carry the template path and the strerror
  // text, not a bare "mkdtemp failed".
  const std::string tag(300, 'x');
  auto dir = ScratchDir::Create(tag);
  ASSERT_FALSE(dir.ok());
  EXPECT_TRUE(dir.status().code() == StatusCode::kIOError)
      << dir.status().ToString();
  const std::string msg = dir.status().ToString();
  EXPECT_NE(msg.find("mkdtemp"), std::string::npos) << msg;
  EXPECT_NE(msg.find(tag), std::string::npos) << msg;
  EXPECT_NE(msg.find(std::strerror(ENAMETOOLONG)), std::string::npos) << msg;
}

TEST(ScratchDir, KeepPreservesTheDirectory) {
  std::string path;
  {
    auto dir = ScratchDir::Create("flor-envtest-keep");
    ASSERT_TRUE(dir.ok());
    dir->set_keep(true);
    path = dir->path();
    PosixFileSystem fs(path);
    ASSERT_TRUE(fs.WriteFile("kept.txt", "still here").ok());
  }
  PosixFileSystem fs(path);
  EXPECT_EQ(*fs.ReadFile("kept.txt"), "still here");
  std::filesystem::remove_all(path);  // manual cleanup
}

}  // namespace
}  // namespace flor

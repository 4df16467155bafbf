// Unit tests: clocks, filesystems, background queue, Env bundles.

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

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

// Shared test scaffolding: scratch directories, Env construction, and
// deterministic seeding. Every suite that touches the real filesystem or
// draws randomness should come through here instead of hand-rolling setup.

#ifndef FLOR_TESTS_TEST_UTIL_H_
#define FLOR_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/store.h"
#include "common/random.h"
#include "common/status.h"
#include "env/env.h"
#include "serialize/coding.h"

namespace flor {
namespace testutil {

/// Deterministic base seed for all suites. Defaults to 42; export
/// FLOR_TEST_SEED=<n> to reproduce a failure observed under another seed.
/// `salt` derives independent streams from the same base.
inline uint64_t TestSeed(uint64_t salt = 0) {
  static const uint64_t base = [] {
    const char* s = std::getenv("FLOR_TEST_SEED");
    return s != nullptr ? std::strtoull(s, nullptr, 10) : 42ull;
  }();
  return base + salt;
}

/// Rng seeded from TestSeed(). Use distinct salts for independent streams
/// within one test so draws stay reproducible under reordering.
inline Rng SeededRng(uint64_t salt = 0) { return Rng(TestSeed(salt)); }

/// One corrupted variant of an encoding (see ForEachCorruption).
struct Corrupted {
  std::string bytes;
  /// A strict prefix of the original (a torn write or a cut stream).
  bool truncated = false;
  /// Names the variant in failure messages, e.g. "flip at byte 12".
  std::string what;
};

/// Deterministic corruption fuzzing shared by every decoder suite. Calls
/// `visit(const Corrupted&)` for every strict prefix of `encoded`, every
/// single-byte flip (each byte XORed with a seeded nonzero mask), every
/// length inflation (wherever a varint decodes, it is replaced by the
/// encodings of 2^32, 2^62 and 2^64-1, so a decoder that allocates from a
/// length or count field before checking it is caught), and `splices`
/// random splices (a random range replaced by another random range of the
/// same input). Variants equal to `encoded` are skipped. The draws come
/// from SeededRng(salt), so FLOR_TEST_SEED=<n> replays a failure.
template <typename Visit>
void ForEachCorruption(const std::string& encoded, uint64_t salt,
                       int splices, Visit&& visit) {
  Rng rng = SeededRng(salt);
  const size_t n = encoded.size();
  for (size_t cut = 0; cut < n; ++cut) {
    visit(Corrupted{encoded.substr(0, cut), true,
                    "prefix of " + std::to_string(cut) + " bytes"});
  }
  for (size_t pos = 0; pos < n; ++pos) {
    std::string flipped = encoded;
    flipped[pos] = static_cast<char>(flipped[pos] ^ (1 + rng.Uniform(255)));
    visit(Corrupted{std::move(flipped), false,
                    "flip at byte " + std::to_string(pos)});
  }
  for (size_t pos = 0; pos < n; ++pos) {
    Decoder dec(encoded.data() + pos, n - pos);
    uint64_t original = 0;
    if (!dec.GetVarint64(&original).ok()) continue;
    const size_t varint_end = n - dec.remaining();
    for (const uint64_t huge :
         {uint64_t{1} << 32, uint64_t{1} << 62, UINT64_MAX}) {
      if (huge == original) continue;
      std::string inflated = encoded.substr(0, pos);
      PutVarint64(&inflated, huge);
      inflated.append(encoded, varint_end, std::string::npos);
      visit(Corrupted{std::move(inflated), false,
                      "varint at byte " + std::to_string(pos) +
                          " inflated to " + std::to_string(huge)});
    }
  }
  for (int i = 0; i < splices && n > 0; ++i) {
    const size_t at = rng.Uniform(n);
    const size_t cut_len = rng.Uniform(n - at + 1);
    const size_t from = rng.Uniform(n);
    const size_t from_len = rng.Uniform(n - from + 1);
    std::string spliced = encoded.substr(0, at) +
                          encoded.substr(from, from_len) +
                          encoded.substr(at + cut_len);
    if (spliced == encoded) continue;
    visit(Corrupted{std::move(spliced), false,
                    "splice " + std::to_string(i) + ": [" +
                        std::to_string(at) + ", +" + std::to_string(cut_len) +
                        ") <- [" + std::to_string(from) + ", +" +
                        std::to_string(from_len) + ")"});
  }
}

/// The contract of a decoder whose framing catches any change (CRC,
/// section counts): `decode(bytes)` returns a Status, and every variant
/// from ForEachCorruption must fail with Corruption.
template <typename Decode>
void ExpectCorruptionsRejected(const std::string& encoded, uint64_t salt,
                               int splices, Decode&& decode) {
  ForEachCorruption(encoded, salt, splices, [&](const Corrupted& c) {
    const Status status = decode(c.bytes);
    EXPECT_TRUE(status.IsCorruption()) << c.what << ": " << status.ToString();
  });
}

/// Pass-through FileSystem that counts the calls reaching it: reads per
/// path, and every list call. Pins what an operation costs the store.
/// Thread-safe (the counters have their own lock; all I/O forwards to the
/// base filesystem).
class CountingFileSystem : public FileSystem {
 public:
  /// Does not own `base`.
  explicit CountingFileSystem(FileSystem* base) : base_(base) {}

  Status WriteFile(const std::string& path,
                   const std::string& data) override {
    return base_->WriteFile(path, data);
  }
  Status AppendFile(const std::string& path,
                    const std::string& data) override {
    return base_->AppendFile(path, data);
  }
  Result<std::string> ReadFile(const std::string& path) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++reads_[path];
    }
    return base_->ReadFile(path);
  }
  bool Exists(const std::string& path) const override {
    return base_->Exists(path);
  }
  Result<uint64_t> FileSize(const std::string& path) const override {
    return base_->FileSize(path);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  std::vector<std::string> ListPrefix(
      const std::string& prefix) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++lists_;
    }
    return base_->ListPrefix(prefix);
  }

  /// ReadFile calls on `path` since the last Reset.
  int64_t reads(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = reads_.find(path);
    return it == reads_.end() ? 0 : it->second;
  }
  /// ReadFile calls on any path since the last Reset.
  int64_t total_reads() const {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t n = 0;
    for (const auto& entry : reads_) n += entry.second;
    return n;
  }
  /// ListPrefix calls since the last Reset.
  int64_t lists() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lists_;
  }
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    reads_.clear();
    lists_ = 0;
  }

 private:
  FileSystem* base_;
  mutable std::mutex mu_;
  mutable std::map<std::string, int64_t> reads_;
  mutable int64_t lists_ = 0;
};

/// Read tier backed by the bucket mirror under `bucket_prefix` (no bloom
/// filters), for CheckpointStore::Open.
inline TierOptions BucketTier(std::string bucket_prefix,
                              bool rehydrate = true) {
  TierOptions tier;
  tier.bucket_prefix = std::move(bucket_prefix);
  tier.bucket_rehydrate = rehydrate;
  return tier;
}

/// The standard record/replay harness: simulated clock over a borrowed
/// (usually in-memory) filesystem.
inline Env MakeSimEnv(FileSystem* fs) {
  return Env(std::make_unique<SimClock>(), fs);
}

/// Fixture owning a unique on-disk scratch directory, wiped on setup and
/// teardown. Use `root()` for raw paths or `NewPosixEnv()` for an Env
/// rooted inside the scratch space.
class ScratchDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    // Parameterized test names contain '/'; flatten so the scratch root is
    // always a single directory under TempDir().
    std::string leaf = std::string("flor_") + info->test_suite_name() +
                       "_" + info->name();
    for (char& c : leaf) {
      if (c == '/' || c == '\\') c = '_';
    }
    root_ = (std::filesystem::path(::testing::TempDir()) / leaf).string();
    std::filesystem::remove_all(root_);
  }

  void TearDown() override { std::filesystem::remove_all(root_); }

  const std::string& root() const { return root_; }
  std::unique_ptr<Env> NewPosixEnv() const { return Env::NewPosixEnv(root_); }

 private:
  std::string root_;
};

}  // namespace testutil
}  // namespace flor

#endif  // FLOR_TESTS_TEST_UTIL_H_

// Bloom-filtered checkpoint existence checks (common/bloom.h,
// checkpoint/store.h): the filter contract (no false negatives, FPR near
// target), byte-for-byte answer identity between a bloom-enabled store and
// its filterless twin across randomized Put/Delete/rebuild histories, the
// manifest-seeded recovery path, counter accounting, and replay-level
// equivalence with the filter on. The concurrent writer/reader case runs
// under the `tsan` ctest label (FLOR_SANITIZE=thread ./scripts/check.sh).

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/store.h"
#include "common/bloom.h"
#include "common/strings.h"
#include "env/filesystem.h"
#include "exec/replay_executor.h"
#include "flor/record.h"
#include "test_util.h"
#include "workloads/programs.h"

namespace flor {
namespace {

using workloads::kProbeNone;
using workloads::MakeWorkloadFactory;
using workloads::WorkloadProfile;

CheckpointKey Key(int32_t loop_id, int64_t epoch) {
  CheckpointKey k;
  k.loop_id = loop_id;
  k.ctx = StrCat("e=", epoch);
  return k;
}

/// A local-only tier with bloom filters.
TierOptions BloomTier() {
  TierOptions tier;
  tier.bloom_filter = true;
  return tier;
}

// --- Filter-level contract -------------------------------------------------

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilter filter(4096, 0.01);
  Rng rng = testutil::SeededRng(11);
  std::vector<std::string> keys;
  keys.reserve(4096);
  for (int i = 0; i < 4096; ++i)
    keys.push_back(StrCat("L", rng.Uniform(1 << 20), "@e=", i));
  for (const auto& k : keys) filter.Add(k);
  for (const auto& k : keys) EXPECT_TRUE(filter.MayContain(k)) << k;
}

TEST(BloomFilter, FalsePositiveRateNearTarget) {
  constexpr int kKeys = 4096;
  constexpr double kTarget = 0.01;
  BloomFilter filter(kKeys, kTarget);
  for (int i = 0; i < kKeys; ++i) filter.Add(StrCat("present/", i));

  int false_positives = 0;
  constexpr int kProbes = 20000;
  for (int i = 0; i < kProbes; ++i)
    if (filter.MayContain(StrCat("absent/", i))) ++false_positives;
  const double fpr = static_cast<double>(false_positives) / kProbes;
  // The sizing math targets kTarget at exactly kKeys insertions; allow 2x
  // for the rounding of m and k plus sampling noise over 20k probes.
  EXPECT_LE(fpr, 2 * kTarget) << false_positives << " false positives";
  // A filter that never fires positive on absents would be suspicious too
  // (the probe arm is then likely broken); expect at least one at 20k.
  EXPECT_GT(filter.bit_count(), 0u);
  EXPECT_GE(filter.hash_count(), 1);
}

TEST(BloomFilter, DegenerateSizingStillWorks) {
  // 0 expected keys and out-of-range targets must clamp, not crash, and
  // must preserve no-false-negatives.
  for (double p : {1e-12, 0.5, 2.0, -1.0}) {
    BloomFilter filter(0, p);
    filter.Add("k");
    EXPECT_TRUE(filter.MayContain("k")) << "p=" << p;
  }
}

// --- Store-level answer identity ------------------------------------------

/// Applies an identical randomized Put/Delete history to a bloom-enabled
/// store and a filterless twin, then asserts both answer Exists and
/// GetBytes identically (status code AND message bytes) over present,
/// deleted, and never-written keys.
void RunTwinStoreHistory(bool with_bucket) {
  constexpr int kShards = 4;
  MemFileSystem fs_bloom;
  MemFileSystem fs_plain;
  TierOptions tier;
  if (with_bucket) {
    tier.bucket_prefix = "s3/run/ckpt";
    tier.bucket_rehydrate = false;
  }
  // An empty manifest sizes each shard's filter at the 64-key floor, which
  // the history below loads heavily enough to produce false positives.
  Manifest empty;
  empty.shard_count = kShards;
  auto plain_store = CheckpointStore::Open(&fs_plain, "run/ckpt", tier, &empty);
  tier.bloom_filter = true;
  auto bloom_store = CheckpointStore::Open(&fs_bloom, "run/ckpt", tier, &empty);

  Rng rng = testutil::SeededRng(23);
  std::set<int64_t> live;
  std::set<int64_t> deleted;
  for (int step = 0; step < 300; ++step) {
    if (!live.empty() && rng.Uniform(4) == 0) {
      // Delete a random live key from both stores.
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.Uniform(
                           static_cast<uint32_t>(live.size()))));
      const CheckpointKey k = Key(2, *it);
      ASSERT_TRUE(bloom_store->DeleteObject(k).ok());
      ASSERT_TRUE(plain_store->DeleteObject(k).ok());
      deleted.insert(*it);
      live.erase(it);
    } else {
      const int64_t epoch = rng.Uniform(512);
      const CheckpointKey k = Key(2, epoch);
      const std::string bytes = StrCat("payload-", epoch, "-", step);
      ASSERT_TRUE(bloom_store->PutBytes(k, bytes).ok());
      ASSERT_TRUE(plain_store->PutBytes(k, bytes).ok());
      live.insert(epoch);
      deleted.erase(epoch);
    }
  }

  // Probe every epoch in a range covering present, deleted, and
  // never-written keys.
  for (int64_t epoch = 0; epoch < 560; ++epoch) {
    const CheckpointKey k = Key(2, epoch);
    EXPECT_EQ(bloom_store->Exists(k), plain_store->Exists(k))
        << "epoch " << epoch;
    auto with = bloom_store->GetBytes(k);
    auto without = plain_store->GetBytes(k);
    ASSERT_EQ(with.ok(), without.ok()) << "epoch " << epoch;
    if (with.ok()) {
      EXPECT_EQ(*with, *without) << "epoch " << epoch;
    } else {
      EXPECT_EQ(with.status().ToString(), without.status().ToString())
          << "epoch " << epoch;
    }
  }
  // No false negatives: every live key exists through the filter.
  for (int64_t epoch : live) EXPECT_TRUE(bloom_store->Exists(Key(2, epoch)));
  // The filter actually worked: some never-written probes were answered
  // without touching the store (560-epoch sweep over <= ~300 distinct
  // keys guarantees plenty of definite misses at FPR 0.01).
  EXPECT_GT(bloom_store->tier_stats().bloom_skipped_probes, 0);
  EXPECT_EQ(plain_store->tier_stats().bloom_skipped_probes, 0);
}

TEST(BloomStore, AnswersIdenticalToFilterlessTwin) {
  RunTwinStoreHistory(/*with_bucket=*/false);
}

TEST(BloomStore, AnswersIdenticalToFilterlessTwinWithBucketTier) {
  RunTwinStoreHistory(/*with_bucket=*/true);
}

TEST(BloomStore, DeletedKeysDegradeToFalsePositivesNeverFalseNegatives) {
  MemFileSystem fs;
  auto store = CheckpointStore::Open(&fs, "run/ckpt", BloomTier(), nullptr, 2);
  for (int64_t e = 0; e < 32; ++e)
    ASSERT_TRUE(store->PutBytes(Key(2, e), "x").ok());
  for (int64_t e = 0; e < 16; ++e)
    ASSERT_TRUE(store->DeleteObject(Key(2, e)).ok());

  // Deleted keys: bits stay set, so the probe reaches the store, misses,
  // and is counted as a false positive — the answer itself stays correct.
  for (int64_t e = 0; e < 16; ++e) EXPECT_FALSE(store->Exists(Key(2, e)));
  EXPECT_EQ(store->tier_stats().bloom_false_positives, 16);
  EXPECT_EQ(store->tier_stats().bloom_skipped_probes, 0);
  // Remaining keys: never a false negative.
  for (int64_t e = 16; e < 32; ++e) EXPECT_TRUE(store->Exists(Key(2, e)));
}

TEST(BloomStore, SeedFromManifestServesExistingRun) {
  // The filter is in-memory only, so a store opened over a finished run
  // seeds it from the manifest. Unseeded, the filter would wrongly rule
  // every recorded key absent — this is the recovery-path contract.
  MemFileSystem fs;
  Manifest manifest;
  manifest.shard_count = 4;
  {
    CheckpointStore writer(&fs, "run/ckpt", 4);
    for (int64_t e = 0; e < 24; ++e) {
      const CheckpointKey k = Key(2, e);
      ASSERT_TRUE(writer.PutBytes(k, StrCat("ckpt-", e)).ok());
      CheckpointRecord rec;
      rec.key = k;
      rec.epoch = e;
      rec.shard = writer.ShardOf(k);
      manifest.records.push_back(rec);
    }
  }

  auto reader = CheckpointStore::Open(&fs, "run/ckpt", BloomTier(), &manifest);
  for (const auto& rec : manifest.records) {
    EXPECT_TRUE(reader->Exists(rec.key)) << rec.key.ToString();
    auto bytes = reader->GetBytes(rec.key);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(*bytes, StrCat("ckpt-", rec.epoch));
  }
  // Absent keys are mostly short-circuited without a filesystem probe.
  int64_t skipped_before = reader->tier_stats().bloom_skipped_probes;
  for (int64_t e = 1000; e < 1100; ++e) EXPECT_FALSE(reader->Exists(Key(2, e)));
  const int64_t skipped =
      reader->tier_stats().bloom_skipped_probes - skipped_before;
  EXPECT_GE(skipped, 90) << "filter short-circuited too few absent probes";
  EXPECT_EQ(skipped + reader->tier_stats().bloom_false_positives, 100);
}

// --- Replay-level equivalence ----------------------------------------------

WorkloadProfile BloomProfile() {
  WorkloadProfile p;
  p.name = "BloomT";
  p.epochs = 6;
  p.sim_epoch_seconds = 10;
  p.sim_outer_seconds = 1;
  p.sim_preamble_seconds = 2;
  p.sim_ckpt_raw_bytes = 1 << 20;
  p.ckpt_shards = 4;
  p.task_kind = data::Task::kVision;
  p.real_samples = 32;
  p.real_batch = 8;
  p.real_feature_dim = 12;
  p.real_classes = 3;
  p.real_hidden = 12;
  p.seed = testutil::TestSeed(59);
  return p;
}

TEST(BloomReplay, FilteredReplayMatchesFilterlessByteForByte) {
  MemFileSystem fs;
  {
    Env env(std::make_unique<SimClock>(), &fs);
    auto instance = MakeWorkloadFactory(BloomProfile(), kProbeNone)();
    ASSERT_TRUE(instance.ok());
    RecordOptions opts =
        workloads::DefaultRecordOptions(BloomProfile(), "run");
    RecordSession session(&env, opts);
    exec::Frame frame;
    auto rec = session.Run(instance->program.get(), &frame);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  }

  auto replay = [&fs](bool bloom) {
    ClusterPlanOptions request;
    request.run_prefix = "run";
    request.tier.bloom_filter = bloom;
    auto result =
        exec::Replay(ReplayEngine::kSimulated, &fs, request,
                     MakeWorkloadFactory(BloomProfile(), kProbeNone));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };

  MergedClusterReplay plain = replay(false);
  MergedClusterReplay filtered = replay(true);
  EXPECT_EQ(filtered.merged_logs.Serialize(), plain.merged_logs.Serialize());
  EXPECT_EQ(filtered.latency_seconds, plain.latency_seconds);
  EXPECT_EQ(filtered.skipblocks.skipped, plain.skipblocks.skipped);
  EXPECT_TRUE(filtered.deferred.ok);
  EXPECT_EQ(plain.bloom_skipped_probes, 0);
  EXPECT_GE(filtered.bloom_skipped_probes, 0);
}

// --- Concurrency (tsan label) ----------------------------------------------

TEST(BloomStore, ConcurrentWriterAndReadersAreRaceFree) {
  // One writer thread Put()ing fresh keys while reader threads hammer
  // Exists/GetBytes over the same key range: the relaxed-atomic filter
  // bits and the lock-free read path must be ThreadSanitizer-clean, and a
  // reader must never see a false negative for a key whose Put completed
  // before the reader's probe (checked post-join for every key).
  constexpr int kKeys = 512;
  constexpr int kReaders = 3;
  MemFileSystem fs;
  auto store = CheckpointStore::Open(&fs, "run/ckpt", BloomTier(), nullptr, 4);

  std::atomic<int64_t> written{0};
  std::thread writer([&] {
    for (int64_t e = 0; e < kKeys; ++e) {
      ASSERT_TRUE(store->PutBytes(Key(2, e), StrCat("v", e)).ok());
      written.store(e + 1, std::memory_order_release);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng = testutil::SeededRng(100 + static_cast<uint64_t>(r));
      for (int i = 0; i < 2000; ++i) {
        const int64_t e = rng.Uniform(kKeys + 64);  // includes absent keys
        const int64_t floor = written.load(std::memory_order_acquire);
        const bool exists = store->Exists(Key(2, e));
        // A key written before we sampled `floor` must be visible.
        if (e < floor) {
          EXPECT_TRUE(exists) << "false negative at e=" << e;
        }
        if (exists) {
          auto bytes = store->GetBytes(Key(2, e));
          if (bytes.ok()) {
            EXPECT_EQ(*bytes, StrCat("v", e));
          }
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  for (int64_t e = 0; e < kKeys; ++e)
    EXPECT_TRUE(store->Exists(Key(2, e))) << e;
}

}  // namespace
}  // namespace flor

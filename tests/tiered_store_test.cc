// Tiered checkpoint store (local shard → bucket mirror): read fall-through
// and rehydration, demotion under local GC, bucket-tier retirement with
// the manifest-first ordering contract, orphan reconciliation, and replay
// byte-parity across engines on an aggressively demoted store. Runs under
// the `tiered` ctest label (including the thread-sanitizer pass in check.sh).

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/gc.h"
#include "checkpoint/spool.h"
#include "checkpoint/store.h"
#include "common/strings.h"
#include "env/filesystem.h"
#include "exec/replay_executor.h"
#include "flor/record.h"
#include "flor/replay_plan.h"
#include "test_util.h"
#include "workloads/programs.h"

namespace flor {
namespace {

using workloads::kProbeInner;
using workloads::kProbeNone;
using workloads::MakeWorkloadFactory;
using workloads::WorkloadProfile;

/// Densely checkpointed workload so GC has a long epoch timeline.
WorkloadProfile TieredProfile(int64_t epochs = 12, int shards = 4) {
  WorkloadProfile p;
  p.name = "TierT";
  p.epochs = epochs;
  p.sim_epoch_seconds = 100;
  p.sim_outer_seconds = 2;
  p.sim_preamble_seconds = 5;
  p.sim_ckpt_raw_bytes = 1 << 20;
  p.ckpt_shards = shards;
  p.task_kind = data::Task::kVision;
  p.real_samples = 32;
  p.real_batch = 8;
  p.real_feature_dim = 12;
  p.real_classes = 3;
  p.real_hidden = 12;
  p.seed = testutil::TestSeed(31);
  return p;
}

/// Records `profile` under "run" on `fs`, spooling the bucket mirror to
/// "s3".
RecordResult RecordWithMirror(FileSystem* fs, const WorkloadProfile& profile) {
  Env env(std::make_unique<SimClock>(), fs);
  auto instance = MakeWorkloadFactory(profile, kProbeNone)();
  EXPECT_TRUE(instance.ok());
  RecordOptions opts = workloads::DefaultRecordOptions(profile, "run");
  opts.spool_prefix = "s3";
  RecordSession session(&env, opts);
  exec::Frame frame;
  auto result = session.Run(instance->program.get(), &frame);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Full byte image of everything under `prefix`.
std::map<std::string, std::string> SnapshotPrefix(const FileSystem& fs,
                                                  const std::string& prefix) {
  std::map<std::string, std::string> out;
  for (const auto& path : fs.ListPrefix(prefix)) {
    auto data = fs.ReadFile(path);
    EXPECT_TRUE(data.ok()) << path;
    out[path] = *data;
  }
  return out;
}

TEST(JoinObjectPath, NormalizesSlashes) {
  EXPECT_EQ(JoinObjectPath("s3", "run/ckpt/a"), "s3/run/ckpt/a");
  EXPECT_EQ(JoinObjectPath("s3/", "run/ckpt/a"), "s3/run/ckpt/a");
  EXPECT_EQ(JoinObjectPath("s3//", "//run/ckpt/a"), "s3/run/ckpt/a");
  EXPECT_EQ(JoinObjectPath("", "run/a"), "run/a");
  EXPECT_EQ(JoinObjectPath("s3", ""), "s3");
  EXPECT_EQ(JoinObjectPath("s3/", "/"), "s3");
}

TEST(TieredStore, ReadsFallThroughToBucketAndRehydrate) {
  MemFileSystem fs;
  CheckpointStore store(&fs, "run/ckpt", /*num_shards=*/4);
  NamedSnapshots snaps;
  snaps.emplace_back("w", ir::SnapshotValue(ir::Value::Int(7)));
  const std::string bytes = EncodeCheckpoint(snaps);

  CheckpointKey key{2, "e=3"};
  ASSERT_TRUE(store.PutBytes(key, bytes).ok());
  // Mirror to the bucket the way the spooler does, then drop the local
  // copy — the demoted state.
  ASSERT_TRUE(
      fs.WriteFile(JoinObjectPath("s3", store.PathFor(key)), bytes).ok());
  ASSERT_TRUE(store.DeleteObject(key).ok());

  // Without a bucket: a local miss is a plain NotFound.
  EXPECT_TRUE(store.GetBytes(key).status().IsNotFound());
  EXPECT_FALSE(store.Exists(key));

  // With the bucket tier, the read falls through, reports its tier, and
  // rehydrates the local shard so the next read is local again.
  auto tiered = CheckpointStore::Open(&fs, "run/ckpt",
                                      testutil::BucketTier("s3"), nullptr,
                                      /*num_shards=*/4);
  bool from_bucket = false;
  auto got = tiered->GetBytes(key, &from_bucket);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, bytes);
  EXPECT_TRUE(from_bucket);
  EXPECT_TRUE(tiered->Exists(key));
  EXPECT_EQ(tiered->tier_stats().bucket_faults, 1);
  EXPECT_EQ(tiered->tier_stats().rehydrated_objects, 1);
  EXPECT_TRUE(fs.Exists(tiered->PathFor(key)));

  auto again = tiered->GetBytes(key, &from_bucket);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(from_bucket);
  EXPECT_EQ(tiered->tier_stats().bucket_faults, 1);

  // Decoded reads go through the same tiers.
  auto decoded = tiered->Get(key);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[0].second.int_v, 7);
}

TEST(TieredStore, NoRehydrateModeLeavesLocalTierEmpty) {
  MemFileSystem fs;
  auto store = CheckpointStore::Open(
      &fs, "run/ckpt", testutil::BucketTier("b", /*rehydrate=*/false),
      nullptr);
  NamedSnapshots snaps;
  snaps.emplace_back("w", ir::SnapshotValue(ir::Value::Int(1)));
  const std::string bytes = EncodeCheckpoint(snaps);
  CheckpointKey key{1, "e=0"};
  ASSERT_TRUE(
      fs.WriteFile(JoinObjectPath("b", store->PathFor(key)), bytes).ok());

  bool from_bucket = false;
  ASSERT_TRUE(store->GetBytes(key, &from_bucket).ok());
  EXPECT_TRUE(from_bucket);
  EXPECT_FALSE(fs.Exists(store->PathFor(key)));
  EXPECT_EQ(store->tier_stats().bucket_faults, 1);
  EXPECT_EQ(store->tier_stats().rehydrated_objects, 0);
}

TEST(TieredStore, MissInBothTiersNamesKeyAndPaths) {
  MemFileSystem fs;
  auto store = CheckpointStore::Open(&fs, "run/ckpt",
                                     testutil::BucketTier("s3"), nullptr,
                                     /*num_shards=*/2);
  CheckpointKey key{4, "e=9"};
  auto got = store->GetBytes(key);
  ASSERT_TRUE(got.status().IsNotFound());
  EXPECT_NE(got.status().message().find(key.ToString()), std::string::npos)
      << got.status().ToString();
  EXPECT_NE(got.status().message().find(store->PathFor(key)),
            std::string::npos);
  EXPECT_NE(got.status().message().find(store->BucketPathFor(key)),
            std::string::npos);
}

TEST(TieredStore, TornBucketObjectIsCorruptionNeverACrash) {
  MemFileSystem fs;
  const WorkloadProfile profile = TieredProfile();
  const RecordResult rec = RecordWithMirror(&fs, profile);

  // Demote everything but the newest epoch, then tear one bucket object.
  GcPolicy policy;
  policy.keep_last_k = 1;
  auto gc = RetireRun(&fs, "run", policy, "s3");
  ASSERT_TRUE(gc.ok()) << gc.status().ToString();
  ASSERT_TRUE(gc->demoted_to_bucket);
  ASSERT_GT(gc->retired_objects, 0);

  // Tear every demoted object's bucket copy: whichever one the replay plan
  // faults in must surface Corruption.
  auto store = CheckpointStore::Open(
      &fs, "run/ckpt", testutil::BucketTier("s3", /*rehydrate=*/false),
      &rec.manifest);
  const CheckpointRecord* demoted = nullptr;
  for (const auto& r : rec.manifest.records) {
    if (fs.Exists(store->PathFor(r.key))) continue;
    demoted = &r;
    ASSERT_TRUE(fs.CorruptByte(store->BucketPathFor(r.key), 6).ok());
  }
  ASSERT_NE(demoted, nullptr);

  auto got = store->Get(demoted->key);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();

  // A full replay that needs the torn object fails with a status (never a
  // crash) — and an intact sibling still faults in fine.
  ClusterPlanOptions copts;
  copts.run_prefix = "run";
  copts.num_workers = 4;
  copts.init_mode = InitMode::kWeak;
  copts.tier.bucket_prefix = "s3";
  auto replayed = exec::Replay(ReplayEngine::kSimulated, &fs, copts,
                               MakeWorkloadFactory(profile, kProbeInner));
  ASSERT_FALSE(replayed.ok());
  EXPECT_TRUE(replayed.status().IsCorruption())
      << replayed.status().ToString();
}

TEST(TieredStore, KZeroWithBucketIsByteIdenticalNoOp) {
  MemFileSystem fs;
  const WorkloadProfile profile = TieredProfile(/*epochs=*/8, /*shards=*/2);
  RecordWithMirror(&fs, profile);
  const auto before = SnapshotPrefix(fs, "");

  GcPolicy policy;
  policy.keep_last_k = 0;
  auto report = RetireRun(&fs, "run", policy, "s3");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->retired_objects, 0);
  EXPECT_FALSE(report->manifest_rewritten);
  EXPECT_EQ(SnapshotPrefix(fs, ""), before);
}

TEST(TieredStore, DemotionSkipsUnspooledObjects) {
  // A store with a bucket attached but an empty (or partial) mirror: the
  // demotion pass must keep local copies the bucket does not hold, so no
  // record ever becomes unreadable.
  MemFileSystem fs;
  const WorkloadProfile profile = TieredProfile(/*epochs=*/8, /*shards=*/2);
  Env env(std::make_unique<SimClock>(), &fs);
  auto instance = MakeWorkloadFactory(profile, kProbeNone)();
  ASSERT_TRUE(instance.ok());
  RecordSession session(&env,
                        workloads::DefaultRecordOptions(profile, "run"));
  exec::Frame frame;
  auto rec = session.Run(instance->program.get(), &frame);
  ASSERT_TRUE(rec.ok());

  const auto before = SnapshotPrefix(fs, "run/ckpt/");
  GcPolicy policy;
  policy.keep_last_k = 1;
  auto report = RetireRun(&fs, "run", policy, "s3-empty");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->demoted_to_bucket);
  EXPECT_EQ(report->retired_objects, 0);
  EXPECT_GT(report->skipped_unspooled, 0);
  EXPECT_EQ(SnapshotPrefix(fs, "run/ckpt/"), before);
}

TEST(TieredStore, ReplayIsByteIdenticalToPreDemotionOnBothEngines) {
  // The acceptance bar: a store demoted to keep_last_k=1 with a populated
  // bucket mirror replays green and byte-identical to the pre-GC replay,
  // on the simulated and threaded engines (the process engine's parity
  // run lives in process_executor_test.cc).
  MemFileSystem fs;
  const WorkloadProfile profile = TieredProfile();
  RecordWithMirror(&fs, profile);

  auto factory = MakeWorkloadFactory(profile, kProbeInner);
  ClusterPlanOptions copts;
  copts.run_prefix = "run";
  copts.num_workers = 4;
  copts.init_mode = InitMode::kWeak;
  auto before = exec::Replay(ReplayEngine::kSimulated, &fs, copts, factory);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(before->deferred.ok);
  EXPECT_EQ(before->bucket_faults, 0);

  GcPolicy policy;
  policy.keep_last_k = 1;
  auto gc = RetireRun(&fs, "run", policy, "s3");
  ASSERT_TRUE(gc.ok());
  ASSERT_TRUE(gc->demoted_to_bucket);
  ASSERT_GT(gc->retired_objects, 0);

  copts.tier.bucket_prefix = "s3";
  copts.tier.bucket_rehydrate = false;
  auto sim_after = exec::Replay(ReplayEngine::kSimulated, &fs, copts, factory);
  ASSERT_TRUE(sim_after.ok()) << sim_after.status().ToString();
  EXPECT_TRUE(sim_after->deferred.ok);
  EXPECT_GT(sim_after->bucket_faults, 0);
  EXPECT_EQ(sim_after->merged_logs.Serialize(),
            before->merged_logs.Serialize());

  exec::ReplayExecutorOptions xopts;
  xopts.run_prefix = "run";
  xopts.num_threads = 4;
  xopts.num_partitions = 4;
  xopts.init_mode = InitMode::kWeak;
  xopts.tier.bucket_prefix = "s3";
  auto real_after = exec::ReplayExecutor(&fs, xopts).Run(factory);
  ASSERT_TRUE(real_after.ok()) << real_after.status().ToString();
  EXPECT_TRUE(real_after->deferred.ok);
  EXPECT_GT(real_after->bucket_faults, 0);
  EXPECT_EQ(real_after->merged_logs.Serialize(),
            before->merged_logs.Serialize());

  // The threaded engine ran with rehydration on: faulted objects are back
  // on the local shard, so a bucket-less replay works again.
  copts.tier.bucket_prefix.clear();
  auto rehydrated = exec::Replay(ReplayEngine::kSimulated, &fs, copts, factory);
  ASSERT_TRUE(rehydrated.ok()) << rehydrated.status().ToString();
  EXPECT_TRUE(rehydrated->deferred.ok);
  EXPECT_EQ(rehydrated->merged_logs.Serialize(),
            before->merged_logs.Serialize());

  // Aggressive GC with the replay pointed at an empty bucket prefix still
  // fails cleanly, naming both probed tiers.
  MemFileSystem fs2;
  RecordWithMirror(&fs2, profile);
  auto gc2 = RetireRun(&fs2, "run", policy, "s3");
  ASSERT_TRUE(gc2.ok());
  ClusterPlanOptions no_bucket;
  no_bucket.run_prefix = "run";
  no_bucket.num_workers = 4;
  no_bucket.init_mode = InitMode::kWeak;
  no_bucket.tier.bucket_prefix = "nosuch-bucket";
  auto missing = exec::Replay(ReplayEngine::kSimulated, &fs2, no_bucket,
                              factory);
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound())
      << missing.status().ToString();
  EXPECT_NE(missing.status().message().find("missing in both tiers"),
            std::string::npos)
      << missing.status().ToString();
}

TEST(TieredStore, BucketFaultInRacesConcurrentLocalDemotion) {
  // Readers fault demoted objects back in (rehydration writes under their
  // store's shard writer lock) while a GC thread demotes local copies of
  // the same run through a store of its own, as the connection's GC and a
  // replay do. Every read must return intact bytes; the worst race outcome
  // is a resurrected local copy, i.e. an orphan for the sweep.
  MemFileSystem fs;
  const WorkloadProfile profile = TieredProfile(/*epochs=*/10, /*shards=*/4);
  const RecordResult rec = RecordWithMirror(&fs, profile);
  ASSERT_GT(rec.manifest.records.size(), 6u);

  auto store = CheckpointStore::Open(&fs, "run/ckpt",
                                     testutil::BucketTier("s3"),
                                     &rec.manifest);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> read_failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&store, &rec, &stop, &read_failures] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (const auto& r : rec.manifest.records) {
          auto got = store->Get(r.key);
          if (!got.ok()) read_failures.fetch_add(1);
        }
      }
    });
  }

  GcPolicy policy;
  policy.keep_last_k = 1;
  for (int round = 0; round < 8; ++round) {
    auto report = RetireRun(&fs, "run", policy, "s3");
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->demoted_to_bucket);
    EXPECT_EQ(report->failed_deletes, 0);
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(read_failures.load(), 0);
  // Reads may have rehydrated demoted objects mid-demotion; the sweep
  // reclaims those resurrected orphans... which here are still referenced
  // by the (intact) manifest, so reconciliation deletes nothing.
  auto sweep = ReconcileRun(&fs, "run", "s3");
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  EXPECT_TRUE(sweep->ok());
  EXPECT_EQ(sweep->local_orphans, 0);
  EXPECT_EQ(sweep->bucket_orphans, 0);
}

TEST(TieredStore, BucketRetirementIsManifestFirstAndHonorsPins) {
  MemFileSystem fs;
  const WorkloadProfile profile = TieredProfile();
  const RecordResult rec = RecordWithMirror(&fs, profile);
  const size_t records_before = rec.manifest.records.size();
  ASSERT_GT(records_before, 4u);

  // Demote aggressively first — bucket GC must reclaim lingering local
  // copies too, so leave K(local) > K'(bucket) to create some.
  GcPolicy local;
  local.keep_last_k = 3;
  auto demo = RetireRun(&fs, "run", local, "s3");
  ASSERT_TRUE(demo.ok());
  ASSERT_TRUE(demo->demoted_to_bucket);

  // Pin one old epoch-level epoch; retire the bucket down to K'=1.
  auto store = CheckpointStore::Open(&fs, "run/ckpt",
                                     testutil::BucketTier("s3"),
                                     &rec.manifest);
  std::set<int64_t> epochs;
  for (const auto& r : rec.manifest.records)
    if (r.epoch >= 0) epochs.insert(r.epoch);
  const int64_t pinned_epoch = *epochs.begin();
  GcPolicy policy;
  policy.keep_last_k = 1;
  policy.pinned_epochs = {pinned_epoch};

  auto report = RetireBucketRun(&fs, "run", "s3", policy);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->manifest_rewritten);
  EXPECT_FALSE(report->demoted_to_bucket);
  EXPECT_TRUE(report->ok());
  EXPECT_GT(report->retired_objects, 0);
  EXPECT_LT(static_cast<size_t>(report->surviving_records), records_before);

  // The persisted manifest holds the pass's survivors, every surviving
  // record is readable through the tiers, every retired record is gone
  // from both, and the pinned epoch survived.
  auto persisted_bytes = fs.ReadFile("run/manifest.tsv");
  ASSERT_TRUE(persisted_bytes.ok());
  auto persisted = Manifest::Deserialize(*persisted_bytes);
  ASSERT_TRUE(persisted.ok());
  ASSERT_EQ(static_cast<int64_t>(persisted->records.size()),
            report->surviving_records);
  std::set<std::string> surviving;
  bool pinned_survived = false;
  for (const auto& r : persisted->records) {
    surviving.insert(r.key.ToString());
    EXPECT_TRUE(store->Exists(r.key)) << r.key.ToString();
    if (r.epoch == pinned_epoch) pinned_survived = true;
  }
  EXPECT_TRUE(pinned_survived);
  for (const auto& r : rec.manifest.records) {
    if (surviving.count(r.key.ToString())) continue;
    EXPECT_FALSE(fs.Exists(store->PathFor(r.key))) << r.key.ToString();
    EXPECT_FALSE(fs.Exists(store->BucketPathFor(r.key)))
        << r.key.ToString();
  }

  // Requires the bucket tier: a pass without one is rejected.
  auto bad = RetireBucketRun(&fs, "run", "", policy);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument)
      << bad.status().ToString();

  // A manifest-persist failure retires nothing from either tier.
  MemFileSystem base2;
  FaultInjectionFileSystem faulty(&base2);
  RecordWithMirror(&faulty, profile);
  const auto before_fail = SnapshotPrefix(base2, "");
  faulty.InjectWriteFailures(1, "manifest.tsv");
  GcPolicy aggressive;
  aggressive.keep_last_k = 1;
  auto failed = RetireBucketRun(&faulty, "run", "s3", aggressive);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(SnapshotPrefix(base2, ""), before_fail);
}

TEST(TieredStore, ReconcileRunReclaimsBothTiers) {
  MemFileSystem fs;
  const WorkloadProfile profile = TieredProfile(/*epochs=*/10, /*shards=*/4);
  const RecordResult rec = RecordWithMirror(&fs, profile);

  auto store = CheckpointStore::Open(&fs, "run/ckpt",
                                     testutil::BucketTier("s3"),
                                     &rec.manifest);

  // Manufacture orphans the way real passes leak them: retire some epochs
  // from the bucket with every delete failing — the manifest prune lands,
  // all the objects stay behind as unreferenced bytes.
  FaultInjectionFileSystem faulty(&fs);
  faulty.InjectDeleteFailures(1 << 20);
  GcPolicy policy;
  policy.keep_last_k = 2;
  auto leaked = RetireBucketRun(&faulty, "run", "s3", policy);
  ASSERT_TRUE(leaked.ok()) << leaked.status().ToString();
  EXPECT_TRUE(leaked->manifest_rewritten);
  EXPECT_GT(leaked->failed_deletes, 0);
  faulty.InjectDeleteFailures(0);
  auto pruned = ReadManifest(&fs, "run");
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  const Manifest& manifest = *pruned;

  const int64_t expected_local = [&] {
    int64_t n = 0;
    std::set<std::string> surviving;
    for (const auto& r : manifest.records)
      surviving.insert(r.key.ToString());
    for (const auto& r : rec.manifest.records) {
      if (surviving.count(r.key.ToString())) continue;
      if (fs.Exists(store->PathFor(r.key))) ++n;
    }
    return n;
  }();

  auto sweep = ReconcileRun(&fs, "run", "s3");
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  EXPECT_TRUE(sweep->ok());
  EXPECT_EQ(sweep->local_orphans, expected_local);
  EXPECT_GT(sweep->bucket_orphans, 0);
  EXPECT_GT(sweep->orphan_bytes, 0u);

  // Post-sweep: both tiers hold exactly the referenced objects, and the
  // run still replays green from the pruned manifest.
  EXPECT_EQ(fs.ListPrefix("run/ckpt/").size() +
                fs.ListPrefix("s3/run/ckpt/").size(),
            manifest.records.size() * 2);
  for (const auto& r : manifest.records) {
    EXPECT_TRUE(fs.Exists(store->PathFor(r.key))) << r.key.ToString();
    EXPECT_TRUE(fs.Exists(store->BucketPathFor(r.key)))
        << r.key.ToString();
  }
  auto idempotent = ReconcileRun(&fs, "run", "s3");
  ASSERT_TRUE(idempotent.ok()) << idempotent.status().ToString();
  EXPECT_EQ(idempotent->local_orphans, 0);
  EXPECT_EQ(idempotent->bucket_orphans, 0);

  ClusterPlanOptions copts;
  copts.run_prefix = "run";
  copts.num_workers = 4;
  copts.init_mode = InitMode::kWeak;
  copts.tier.bucket_prefix = "s3";
  auto replayed = exec::Replay(ReplayEngine::kSimulated, &fs, copts,
                               MakeWorkloadFactory(profile, kProbeInner));
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_TRUE(replayed->deferred.ok);
}

}  // namespace
}  // namespace flor

// Shard-aware checkpoint GC (checkpoint/gc.h): keep-last-K-per-loop
// planning, manifest-first atomicity, shard-local deletes, pinned replay
// plans, delete-failure orphans, and the end-to-end record→spool→retire
// lifecycle of a RecordSession followed by RetireRun — including byte
// parity of both replay engines on a retired store.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
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

/// Densely checkpointed workload (cheap checkpoints vs epoch cost) so the
/// GC has a long epoch timeline to retire from.
WorkloadProfile GcProfile(int64_t epochs = 12, int shards = 4) {
  WorkloadProfile p;
  p.name = "GcT";
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
  p.seed = testutil::TestSeed(29);
  return p;
}

/// Records `profile` onto `fs` under "run"; returns the record result.
RecordResult RecordOnto(FileSystem* fs, const WorkloadProfile& profile,
                        const std::string& spool_prefix = "") {
  Env env(std::make_unique<SimClock>(), fs);
  auto instance = MakeWorkloadFactory(profile, kProbeNone)();
  EXPECT_TRUE(instance.ok());
  RecordOptions opts = workloads::DefaultRecordOptions(profile, "run");
  opts.spool_prefix = spool_prefix;
  RecordSession session(&env, opts);
  exec::Frame frame;
  auto result = session.Run(instance->program.get(), &frame);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Distinct checkpointed epochs per loop id, from a manifest.
std::map<int32_t, std::vector<int64_t>> EpochsByLoop(const Manifest& m) {
  std::map<int32_t, std::vector<int64_t>> out;
  std::set<int32_t> loops;
  for (const auto& rec : m.records) loops.insert(rec.key.loop_id);
  for (int32_t id : loops) out[id] = m.EpochsWithCheckpoint(id);
  return out;
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

TEST(PlanRetirement, KeepsLastKPerLoopAndPinnedEpochs) {
  Manifest m;
  m.shard_count = 2;
  // Loop 2 at epochs 0..4, loop 5 at epochs 1,3, one epoch-less record.
  for (int64_t e = 0; e < 5; ++e) {
    CheckpointRecord rec;
    rec.key = {2, StrCat("e=", e)};
    rec.epoch = e;
    rec.shard = static_cast<int>(e % 2);
    m.records.push_back(rec);
  }
  for (int64_t e : {1, 3}) {
    CheckpointRecord rec;
    rec.key = {5, StrCat("e=", e)};
    rec.epoch = e;
    m.records.push_back(rec);
  }
  CheckpointRecord top;
  top.key = {9, ""};
  top.epoch = -1;
  m.records.push_back(top);

  GcPolicy policy;
  policy.keep_last_k = 2;
  policy.pinned_epochs = {0};
  const std::vector<size_t> retired = PlanRetirement(m, policy);
  // Loop 2 keeps {3, 4} (recency) + {0} (pinned) -> retires e=1, e=2
  // (indices 1, 2); loop 5 keeps both of its epochs; the epoch-less record
  // is eternal.
  EXPECT_EQ(retired, (std::vector<size_t>{1, 2}));

  // K = 0 plans nothing, unconditionally.
  policy.keep_last_k = 0;
  EXPECT_TRUE(PlanRetirement(m, policy).empty());
}

TEST(PlanRetirement, PinsScopePerLoopNestedRecordsRetire) {
  // Pins come from PlannedRestoreEpochs and protect the checkpoints worker
  // init restores — the *epoch-level* records (single-segment "e=N" ctx).
  // Nested-loop records (ctx "e=N/i=M") are never init-restore targets:
  // restoring an epoch-level loop skips its body, so nested loops are not
  // entered during init. They must retire by recency even at pinned
  // epochs — pinning them in every loop's keep-set kept them forever.
  Manifest m;
  // Epoch-level loop 2 and nested loop 7, both at epochs 0..5.
  for (int64_t e = 0; e < 6; ++e) {
    CheckpointRecord epoch_level;
    epoch_level.key = {2, StrCat("e=", e)};
    epoch_level.epoch = e;
    m.records.push_back(epoch_level);
    CheckpointRecord nested;
    nested.key = {7, StrCat("e=", e, "/i=1")};
    nested.epoch = e;
    m.records.push_back(nested);
  }

  GcPolicy policy;
  policy.keep_last_k = 1;
  policy.pinned_epochs = {0, 2};
  const std::vector<size_t> retired = PlanRetirement(m, policy);

  std::set<std::string> retired_keys;
  for (size_t idx : retired)
    retired_keys.insert(m.records[idx].key.ToString());
  // Epoch-level loop 2: keeps e=5 (recency) and e=0, e=2 (pins).
  EXPECT_EQ(retired_keys.count(CheckpointKey{2, "e=5"}.ToString()), 0u);
  EXPECT_EQ(retired_keys.count(CheckpointKey{2, "e=0"}.ToString()), 0u);
  EXPECT_EQ(retired_keys.count(CheckpointKey{2, "e=2"}.ToString()), 0u);
  EXPECT_EQ(retired_keys.count(CheckpointKey{2, "e=1"}.ToString()), 1u);
  // Nested loop 7: keeps only e=5 — the pinned epochs retire with the
  // rest of its timeline.
  EXPECT_EQ(retired_keys.count(
                CheckpointKey{7, "e=5/i=1"}.ToString()), 0u);
  EXPECT_EQ(retired_keys.count(
                CheckpointKey{7, "e=0/i=1"}.ToString()), 1u);
  EXPECT_EQ(retired_keys.count(
                CheckpointKey{7, "e=2/i=1"}.ToString()), 1u);
  // 12 records, kept: 3 epoch-level + 1 nested.
  EXPECT_EQ(retired.size(), 8u);
}

TEST(CheckpointGc, KeepLastKRetiresOldEpochsShardLocally) {
  MemFileSystem fs;
  const WorkloadProfile profile = GcProfile();
  const RecordResult rec = RecordOnto(&fs, profile);
  const auto before = EpochsByLoop(rec.manifest);
  const size_t objects_before = fs.ListPrefix("run/ckpt/").size();
  ASSERT_GT(objects_before, 0u);

  GcPolicy policy;
  policy.keep_last_k = 2;
  auto report = RetireRun(&fs, "run", policy);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->manifest_rewritten);
  EXPECT_TRUE(report->ok());
  EXPECT_GT(report->retired_objects, 0);
  EXPECT_GT(report->retired_bytes, 0u);

  auto manifest_bytes = fs.ReadFile("run/manifest.tsv");
  ASSERT_TRUE(manifest_bytes.ok());
  auto after_manifest = Manifest::Deserialize(*manifest_bytes);
  ASSERT_TRUE(after_manifest.ok());
  EXPECT_EQ(static_cast<int64_t>(after_manifest->records.size()),
            report->surviving_records);

  // Each loop keeps exactly its last two epochs.
  const auto after = EpochsByLoop(*after_manifest);
  for (const auto& [loop_id, epochs] : before) {
    const size_t keep = std::min<size_t>(2, epochs.size());
    std::vector<int64_t> expect(epochs.end() - keep, epochs.end());
    ASSERT_TRUE(after.count(loop_id)) << "loop " << loop_id;
    EXPECT_EQ(after.at(loop_id), expect) << "loop " << loop_id;
  }

  // Store consistency: every surviving record's object exists; the object
  // count dropped by exactly the retired count.
  CheckpointStore store(&fs, "run/ckpt", after_manifest->shard_count);
  for (const auto& r : after_manifest->records)
    EXPECT_TRUE(store.Exists(r.key)) << r.key.ToString();
  EXPECT_EQ(fs.ListPrefix("run/ckpt/").size(),
            objects_before - static_cast<size_t>(report->retired_objects));

  // Idempotence: the survivors are already the last K epochs, so a second
  // pass is a no-op.
  auto again = RetireRun(&fs, "run", policy);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->manifest_rewritten);
  EXPECT_EQ(again->retired_objects, 0);
}

TEST(CheckpointGc, RetiredManifestKeepsCheckpointNames) {
  // Retention rewrites the manifest; the names each loop's checkpoints
  // hold survive it, so a replay of the retired run still plans weak init
  // where it is exact.
  MemFileSystem fs;
  const RecordResult rec = RecordOnto(&fs, GcProfile());
  ASSERT_FALSE(rec.manifest.checkpoint_names.empty());

  GcPolicy policy;
  policy.keep_last_k = 2;
  auto report = RetireRun(&fs, "run", policy);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->manifest_rewritten);
  auto after = ReadManifest(&fs, "run");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->checkpoint_names, rec.manifest.checkpoint_names);
}

TEST(CheckpointGc, DisabledRetentionIsByteIdenticalNoOp) {
  MemFileSystem fs;
  RecordOnto(&fs, GcProfile(/*epochs=*/8, /*shards=*/1));
  const auto before = SnapshotPrefix(fs, "run/");

  GcPolicy policy;  // keep_last_k = 0
  auto report = RetireRun(&fs, "run", policy);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->manifest_rewritten);
  EXPECT_EQ(report->retired_objects, 0);
  // Shard-1, GC disabled: every run artifact byte-identical, including the
  // legacy-format manifest.
  EXPECT_EQ(SnapshotPrefix(fs, "run/"), before);
}

TEST(CheckpointGc, ReplayEnginesByteIdenticalOnRetiredStore) {
  MemFileSystem fs;
  const WorkloadProfile profile = GcProfile(/*epochs=*/12, /*shards=*/4);
  RecordOnto(&fs, profile);

  GcPolicy policy;
  policy.keep_last_k = 4;
  auto report = RetireRun(&fs, "run", policy);
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report->retired_objects, 0);

  // Simulated engine on the retired store.
  ClusterPlanOptions copts;
  copts.run_prefix = "run";
  copts.num_workers = 4;
  copts.init_mode = InitMode::kWeak;
  auto sim_result = exec::Replay(ReplayEngine::kSimulated, &fs, copts,
                                 MakeWorkloadFactory(profile, kProbeInner));
  ASSERT_TRUE(sim_result.ok()) << sim_result.status().ToString();
  EXPECT_TRUE(sim_result->deferred.ok)
      << (sim_result->deferred.anomalies.empty()
              ? ""
              : sim_result->deferred.anomalies[0]);

  // Real engine across thread counts: byte-identical to itself and to the
  // simulated engine.
  std::string baseline;
  for (int threads : {1, 2, 4}) {
    exec::ReplayExecutorOptions xopts;
    xopts.run_prefix = "run";
    xopts.num_threads = threads;
    xopts.num_partitions = 4;
    xopts.init_mode = InitMode::kWeak;
    exec::ReplayExecutor executor(&fs, xopts);
    auto result = executor.Run(MakeWorkloadFactory(profile, kProbeInner));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->deferred.ok);
    const std::string merged = result->merged_logs.Serialize();
    if (threads == 1) {
      baseline = merged;
      EXPECT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(merged, baseline) << threads << " threads";
    }
  }
  EXPECT_EQ(baseline, sim_result->merged_logs.Serialize());
}

TEST(CheckpointGc, PinnedReplayPlanSurvivesAggressiveRetention) {
  MemFileSystem fs;
  const WorkloadProfile profile = GcProfile(/*epochs=*/12, /*shards=*/4);
  const RecordResult rec = RecordOnto(&fs, profile);
  const auto epochs_before = EpochsByLoop(rec.manifest);
  auto factory = MakeWorkloadFactory(profile, kProbeInner);

  // Plan a 4-way replay and run it before any retention: the baseline.
  ClusterPlanOptions plan_opts;
  plan_opts.run_prefix = "run";
  plan_opts.num_workers = 4;
  plan_opts.init_mode = InitMode::kWeak;
  auto pinned = PlannedRestoreEpochs(factory, &fs, plan_opts);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  ASSERT_FALSE(pinned->empty());

  exec::ReplayExecutorOptions xopts;
  xopts.run_prefix = "run";
  xopts.num_threads = 4;
  xopts.num_partitions = 4;
  xopts.init_mode = InitMode::kWeak;
  auto before = exec::ReplayExecutor(&fs, xopts).Run(factory);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(before->deferred.ok);

  // Aggressive retention with the plan's restore epochs pinned.
  GcPolicy policy;
  policy.keep_last_k = 1;
  policy.pinned_epochs = *pinned;
  auto report = RetireRun(&fs, "run", policy);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->retired_objects, 0);

  // Every checkpoint the plan restores from is still present, for every
  // loop that had it before retention.
  auto manifest_bytes = fs.ReadFile("run/manifest.tsv");
  ASSERT_TRUE(manifest_bytes.ok());
  auto manifest = Manifest::Deserialize(*manifest_bytes);
  ASSERT_TRUE(manifest.ok());
  const auto epochs_after = EpochsByLoop(*manifest);
  for (int64_t e : *pinned) {
    for (const auto& [loop_id, epochs] : epochs_before) {
      if (!std::binary_search(epochs.begin(), epochs.end(), e)) continue;
      const std::vector<int64_t>& surviving = epochs_after.at(loop_id);
      EXPECT_TRUE(std::binary_search(surviving.begin(), surviving.end(), e))
          << "loop " << loop_id << " lost pinned epoch " << e;
    }
  }

  // The same 4-way replay still runs green after retention, and its merged
  // log is byte-identical to the pre-retention run.
  auto after = exec::ReplayExecutor(&fs, xopts).Run(factory);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after->deferred.ok);
  EXPECT_EQ(after->workers_used, before->workers_used);
  EXPECT_EQ(after->merged_logs.Serialize(), before->merged_logs.Serialize());
}

TEST(CheckpointGc, DeleteFailuresLeakOrphansNeverBreakReplay) {
  MemFileSystem base;
  FaultInjectionFileSystem fs(&base);
  const WorkloadProfile profile = GcProfile(/*epochs=*/10, /*shards=*/4);
  RecordOnto(&fs, profile);
  const size_t objects_before = base.ListPrefix("run/ckpt/").size();

  fs.InjectDeleteFailures(2, "run/ckpt");
  GcPolicy policy;
  policy.keep_last_k = 1;
  auto report = RetireRun(&fs, "run", policy);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->manifest_rewritten);
  EXPECT_EQ(report->failed_deletes, 2);
  EXPECT_FALSE(report->ok());

  // The failed deletes leaked orphans: present on disk, absent from the
  // manifest.
  EXPECT_EQ(base.ListPrefix("run/ckpt/").size(),
            objects_before - static_cast<size_t>(report->retired_objects));
  auto manifest_bytes = base.ReadFile("run/manifest.tsv");
  ASSERT_TRUE(manifest_bytes.ok());
  auto manifest = Manifest::Deserialize(*manifest_bytes);
  ASSERT_TRUE(manifest.ok());
  CheckpointStore store(&base, "run/ckpt", manifest->shard_count);
  size_t referenced = 0;
  for (const auto& r : manifest->records) {
    EXPECT_TRUE(store.Exists(r.key));
    ++referenced;
  }
  EXPECT_LT(referenced, base.ListPrefix("run/ckpt/").size());

  // Replay ignores orphans: still green on the real engine.
  exec::ReplayExecutorOptions xopts;
  xopts.run_prefix = "run";
  xopts.num_threads = 2;
  xopts.num_partitions = 2;
  xopts.init_mode = InitMode::kWeak;
  auto result = exec::ReplayExecutor(&base, xopts)
                    .Run(MakeWorkloadFactory(profile, kProbeInner));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->deferred.ok);
}

TEST(CheckpointGc, RecordSessionLifecycleSpoolsThenDemotes) {
  // The full pipeline: record + spool-as-you-materialize through
  // RecordSession, then keep-last-K retirement of the finished run. With
  // the spool mirror named as the run's bucket tier, the GC *demotes*:
  // local copies of old epochs are deleted, the manifest stays complete,
  // and replay faults demoted checkpoints back in from the bucket.
  MemFileSystem fs;
  const WorkloadProfile profile = GcProfile(/*epochs=*/12, /*shards=*/4);
  const RecordResult rec = RecordOnto(&fs, profile, /*spool_prefix=*/"s3");
  GcPolicy policy;
  policy.keep_last_k = 2;
  auto gc = RetireRun(&fs, "run", policy, "s3");
  ASSERT_TRUE(gc.ok()) << gc.status().ToString();

  // Spooling covered every materialized checkpoint. Demotion keeps the
  // manifest complete, so the record count equals the spool count.
  EXPECT_TRUE(rec.spool_report.ok()) << rec.spool_report.first_error;
  EXPECT_EQ(rec.spool_report.objects,
            static_cast<int64_t>(rec.manifest.records.size()));

  // The GC demoted: local deletes only, no manifest rewrite, and every
  // demoted object had already been spooled (the record's drain lands
  // every copy before it returns).
  EXPECT_TRUE(gc->demoted_to_bucket);
  EXPECT_FALSE(gc->manifest_rewritten);
  EXPECT_GT(gc->retired_objects, 0);
  EXPECT_EQ(gc->skipped_unspooled, 0);
  EXPECT_TRUE(gc->ok());

  // The bucket is the durable archive: it mirrors every spooled object
  // byte-for-byte, including ones demotion deleted locally.
  size_t bucket_objects = 0;
  for (const auto& path : fs.ListPrefix("s3/run/ckpt/")) {
    ++bucket_objects;
    const std::string local = path.substr(3);  // strip "s3/"
    if (fs.Exists(local)) {
      auto bucket = fs.ReadFile(path);
      auto local_data = fs.ReadFile(local);
      ASSERT_TRUE(bucket.ok() && local_data.ok());
      EXPECT_EQ(*bucket, *local_data) << path;
    }
  }
  EXPECT_EQ(static_cast<int64_t>(bucket_objects), rec.spool_report.objects);

  // Locally, only records.size() - retired objects remain, at most the
  // two newest epochs per loop; through the tiers, every manifest record
  // is still readable.
  EXPECT_EQ(fs.ListPrefix("run/ckpt/").size(),
            rec.manifest.records.size() -
                static_cast<size_t>(gc->retired_objects));
  CheckpointStore local_only(&fs, "run/ckpt", rec.manifest.shard_count);
  std::map<int32_t, std::set<int64_t>> local_epochs;
  for (const auto& r : rec.manifest.records) {
    if (r.epoch >= 0 && local_only.Exists(r.key))
      local_epochs[r.key.loop_id].insert(r.epoch);
  }
  for (const auto& [loop_id, epochs] : local_epochs)
    EXPECT_LE(epochs.size(), 2u) << "loop " << loop_id;
  auto tiered = CheckpointStore::Open(
      &fs, "run/ckpt", testutil::BucketTier("s3", /*rehydrate=*/false),
      &rec.manifest);
  for (const auto& r : rec.manifest.records)
    EXPECT_TRUE(tiered->Exists(r.key)) << r.key.ToString();

  // And the demoted run replays green, byte-identically on both engines,
  // faulting old epochs in from the bucket.
  ClusterPlanOptions copts;
  copts.run_prefix = "run";
  copts.num_workers = 4;
  copts.init_mode = InitMode::kWeak;
  copts.tier.bucket_prefix = "s3";
  copts.tier.bucket_rehydrate = false;
  auto sim_result = exec::Replay(ReplayEngine::kSimulated, &fs, copts,
                                 MakeWorkloadFactory(profile, kProbeInner));
  ASSERT_TRUE(sim_result.ok()) << sim_result.status().ToString();
  EXPECT_TRUE(sim_result->deferred.ok);
  EXPECT_GT(sim_result->bucket_faults, 0);

  exec::ReplayExecutorOptions xopts;
  xopts.run_prefix = "run";
  xopts.num_threads = 4;
  xopts.num_partitions = 4;
  xopts.init_mode = InitMode::kWeak;
  xopts.tier.bucket_prefix = "s3";
  xopts.tier.bucket_rehydrate = false;
  auto real_result = exec::ReplayExecutor(&fs, xopts)
                         .Run(MakeWorkloadFactory(profile, kProbeInner));
  ASSERT_TRUE(real_result.ok()) << real_result.status().ToString();
  EXPECT_TRUE(real_result->deferred.ok);
  EXPECT_EQ(real_result->bucket_faults, sim_result->bucket_faults);
  EXPECT_EQ(real_result->merged_logs.Serialize(),
            sim_result->merged_logs.Serialize());
}

TEST(CheckpointGc, ManifestPersistFailureRetiresNothing) {
  MemFileSystem base;
  FaultInjectionFileSystem fs(&base);
  const WorkloadProfile profile = GcProfile(/*epochs=*/8, /*shards=*/2);
  RecordOnto(&fs, profile);
  const auto before = SnapshotPrefix(base, "run/");

  fs.InjectWriteFailures(1, "manifest.tsv");
  GcPolicy policy;
  policy.keep_last_k = 1;
  auto report = RetireRun(&fs, "run", policy);
  EXPECT_FALSE(report.ok());
  // Manifest-first ordering: if the pruned manifest cannot land, nothing
  // is deleted and the run is untouched.
  EXPECT_EQ(SnapshotPrefix(base, "run/"), before);
}

}  // namespace
}  // namespace flor

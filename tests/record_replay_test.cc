// End-to-end record/replay integration tests on a miniature workload.

#include <gtest/gtest.h>

#include "flor/deferred_check.h"
#include "flor/record.h"
#include "flor/replay.h"
#include "ir/builder.h"
#include "test_util.h"
#include "workloads/programs.h"

namespace flor {
namespace {

using workloads::kProbeInner;
using workloads::kProbeNone;
using workloads::kProbeOuter;
using workloads::MakeWorkloadFactory;
using workloads::WorkloadProfile;
using workloads::WorkloadRuntime;

WorkloadProfile TinyProfile() {
  WorkloadProfile p;
  p.name = "Tiny";
  p.benchmark = "test";
  p.task = "classification";
  p.model = "MLP";
  p.dataset = "synthetic";
  p.epochs = 6;
  p.sim_epoch_seconds = 10;
  p.sim_outer_seconds = 1;
  p.sim_preamble_seconds = 2;
  p.sim_ckpt_raw_bytes = 1 << 20;  // 1 MB: cheap, so checkpointing is dense
  p.task_kind = data::Task::kVision;
  p.real_samples = 32;
  p.real_batch = 8;
  p.real_feature_dim = 16;
  p.real_classes = 3;
  p.real_hidden = 16;
  p.seed = testutil::TestSeed(77);
  return p;
}

/// Runs record for the tiny workload into `env` under "run"; returns the
/// record result and (via out-param) the final model fingerprint.
RecordResult RecordTiny(Env* env, uint64_t* final_fingerprint,
                        bool adaptive_enabled = true) {
  auto factory = MakeWorkloadFactory(TinyProfile(), kProbeNone);
  auto instance = factory();
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();

  RecordOptions opts = workloads::DefaultRecordOptions(TinyProfile(), "run");
  opts.adaptive.enabled = adaptive_enabled;
  RecordSession session(env, opts);
  exec::Frame frame;
  auto result = session.Run(instance->program.get(), &frame);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  auto* rt = static_cast<WorkloadRuntime*>(instance->context.get());
  if (final_fingerprint) *final_fingerprint = rt->net->StateFingerprint();
  return std::move(result).value();
}

/// The deferred check of one replay worker's logs against the record's.
DeferredCheckReport CheckAgainstRecord(const RecordResult& rec,
                                       const ReplayResult& replay) {
  return DeferredCheck(rec.logs.entries(), replay.logs.WorkEntries(),
                       replay.probes.probe_stmt_uids);
}

TEST(Record, MaterializesDenseCheckpoints) {
  auto env = Env::NewSimEnv();
  uint64_t fp = 0;
  RecordResult rec = RecordTiny(env.get(), &fp);

  // The training loop ran once per epoch and (cheap checkpoints) was
  // memoized every time.
  EXPECT_EQ(rec.skipblocks.executed, 6);
  EXPECT_EQ(rec.skipblocks.materialized, 6);
  EXPECT_EQ(rec.manifest.records.size(), 6u);
  // Epoch indices parsed from contexts.
  auto epochs = rec.manifest.EpochsWithCheckpoint(2);
  ASSERT_EQ(epochs.size(), 6u);
  EXPECT_EQ(epochs.front(), 0);
  EXPECT_EQ(epochs.back(), 5);
  // Artifacts persisted.
  EXPECT_TRUE(env->fs()->Exists("run/source.py"));
  EXPECT_TRUE(env->fs()->Exists("run/logs.tsv"));
  EXPECT_TRUE(env->fs()->Exists("run/manifest.tsv"));
  // Per-batch loss + per-epoch test_acc + final norm.
  EXPECT_EQ(rec.logs.size(), 6u * 4u + 6u + 1u);
}

TEST(Record, ManifestNamesWhatTheCheckpointsHold) {
  // The training loop's changeset {optimizer}, augmented at run time with
  // the model it steps and the scheduler that drives it.
  auto env = Env::NewSimEnv();
  RecordResult rec = RecordTiny(env.get(), nullptr);
  const std::map<int32_t, std::vector<std::string>> expect{
      {2, {"net", "optimizer", "scheduler"}}};
  EXPECT_EQ(rec.manifest.checkpoint_names, expect);
  auto persisted = ReadManifest(env->fs(), "run");
  ASSERT_TRUE(persisted.ok()) << persisted.status().ToString();
  EXPECT_EQ(persisted->checkpoint_names, expect);
}

TEST(Record, RunWithoutSkipBlockWritesTheManifestWithoutNames) {
  // No SkipBlock, so no checkpoint and no names line: the manifest bytes
  // are the format that predates the names.
  ir::ProgramBuilder b;
  b.CallAssign({"x"}, "init", {}, [](exec::Frame* f) {
    f->Set("x", ir::Value::Int(0));
    return Status::OK();
  });
  b.BeginLoop("e", 3);
  b.CallAssign({"x"}, "inc", {"x"}, [](exec::Frame* f) {
    f->Set("x", ir::Value::Int(f->At("x").AsInt() + 1));
    return Status::OK();
  });
  b.EndLoop();
  auto program = b.Build();

  auto env = Env::NewSimEnv();
  RecordOptions opts;
  opts.run_prefix = "run";
  opts.workload = "plain";
  RecordSession session(env.get(), opts);
  exec::Frame frame;
  auto rec = session.Run(program.get(), &frame);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  auto bytes = env->fs()->ReadFile("run/manifest.tsv");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes,
            "workload\tplain\n"
            "record_runtime\t0\n"
            "vanilla_runtime\t0\n"
            "c_estimate\t1\n");
}

TEST(Record, CheckpointedNameWithTabOrNewlineOrEmptyIsRejectedBeforeAnyWrite) {
  // Each checkpointed name is a field of the manifest's tab-separated
  // names line, so the record refuses the program before writing anything.
  for (const std::string bad : {"bad\tname", "bad\nname", ""}) {
    ir::ProgramBuilder b;
    b.CallAssign({bad}, "init", {}, nullptr);
    b.BeginLoop("e", 2);
    b.BeginLoop("i", 2);
    b.MethodCall(bad, "update", {}, nullptr);
    b.EndLoop();
    b.EndLoop();
    auto program = b.Build();

    MemFileSystem fs;
    Env env = testutil::MakeSimEnv(&fs);
    RecordOptions opts;
    opts.run_prefix = "run";
    RecordSession session(&env, opts);
    exec::Frame frame;
    auto rec = session.Run(program.get(), &frame);
    ASSERT_FALSE(rec.ok());
    EXPECT_EQ(rec.status().code(), StatusCode::kInvalidArgument)
        << rec.status().ToString();
    EXPECT_TRUE(fs.ListPrefix("").empty());
  }
}

TEST(Record, RuntimeMatchesSimulatedCosts) {
  auto env = Env::NewSimEnv();
  RecordResult rec = RecordTiny(env.get(), nullptr);
  const double vanilla = TinyProfile().VanillaSeconds();  // 2 + 6*11 = 68
  EXPECT_GE(rec.runtime_seconds, vanilla);
  // Overhead is bounded by the tolerance for this cheap-checkpoint case.
  EXPECT_LE(rec.runtime_seconds, vanilla * 1.067);
}

TEST(Replay, NoProbesSkipsEverythingAndMatchesState) {
  auto env = Env::NewSimEnv();
  uint64_t recorded_fp = 0;
  RecordResult rec = RecordTiny(env.get(), &recorded_fp);

  // Keep the replayed instance's context, which owns its model.
  std::shared_ptr<void> context;
  auto factory = [&context]() -> Result<ProgramInstance> {
    auto instance = MakeWorkloadFactory(TinyProfile(), kProbeNone)();
    if (instance.ok()) context = instance->context;
    return instance;
  };

  ClusterPlanOptions request;
  request.run_prefix = "run";
  auto result = ReplayPartition(factory, env->fs(), request, /*worker_id=*/0,
                                /*simulated_clock=*/true);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_FALSE(result->probes.any());
  EXPECT_EQ(result->skipblocks.skipped, 6);
  EXPECT_EQ(result->skipblocks.executed, 0);
  const DeferredCheckReport deferred = CheckAgainstRecord(rec, *result);
  EXPECT_TRUE(deferred.ok)
      << (deferred.anomalies.empty() ? "" : deferred.anomalies[0]);

  // Restoring the memoized loops reproduces the recorded final model state
  // bit-exactly.
  auto* rt = static_cast<WorkloadRuntime*>(context.get());
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->net->StateFingerprint(), recorded_fp);

  // Partial replay is much faster than the record run on simulated time.
  EXPECT_LT(result->runtime_seconds, rec.runtime_seconds / 4);
}

TEST(Replay, OuterProbeProducesHindsightLogsWithoutReexecution) {
  auto env = Env::NewSimEnv();
  RecordResult rec = RecordTiny(env.get(), nullptr);

  ClusterPlanOptions request;
  request.run_prefix = "run";
  auto result = ReplayPartition(MakeWorkloadFactory(TinyProfile(), kProbeOuter),
                                env->fs(), request, /*worker_id=*/0,
                                /*simulated_clock=*/true);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_TRUE(result->probes.any());
  // The probe is outside the training loop, so all loops still skip.
  EXPECT_EQ(result->skipblocks.skipped, 6);
  EXPECT_EQ(result->skipblocks.executed, 0);
  // One hindsight entry per epoch.
  ASSERT_EQ(result->probe_entries.size(), 6u);
  EXPECT_EQ(result->probe_entries[0].label, "weight_norm");
  EXPECT_TRUE(CheckAgainstRecord(rec, *result).ok);
}

TEST(Replay, InnerProbeForcesReexecutionAndMatchesRecordLogs) {
  auto env = Env::NewSimEnv();
  RecordResult rec = RecordTiny(env.get(), nullptr);

  ClusterPlanOptions request;
  request.run_prefix = "run";
  auto result = ReplayPartition(MakeWorkloadFactory(TinyProfile(), kProbeInner),
                                env->fs(), request, /*worker_id=*/0,
                                /*simulated_clock=*/true);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Probed training loops must re-execute.
  EXPECT_EQ(result->skipblocks.executed, 6);
  EXPECT_EQ(result->skipblocks.skipped, 0);
  // grad_norm per batch per epoch.
  EXPECT_EQ(result->probe_entries.size(), 6u * 4u);
  // Re-executed training reproduces the recorded loss values bit-exactly —
  // this is the deferred correctness check passing with real content.
  const DeferredCheckReport deferred = CheckAgainstRecord(rec, *result);
  EXPECT_TRUE(deferred.ok)
      << (deferred.anomalies.empty() ? "" : deferred.anomalies[0]);
  EXPECT_GT(deferred.entries_compared, 0);
  // Full re-execution costs about as much as training did.
  EXPECT_GT(result->runtime_seconds, rec.runtime_seconds * 0.8);
}

TEST(Replay, NonLogEditIsRejected) {
  auto env = Env::NewSimEnv();
  RecordTiny(env.get(), nullptr);

  // Build a variant whose (non-log) structure differs: different epochs.
  WorkloadProfile altered = TinyProfile();
  altered.epochs = 7;

  ClusterPlanOptions request;
  request.run_prefix = "run";
  auto result = ReplayPartition(MakeWorkloadFactory(altered, kProbeNone),
                                env->fs(), request, /*worker_id=*/0,
                                /*simulated_clock=*/true);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(Replay, WorkerSegmentReplaysItsPartitionOnly) {
  auto env = Env::NewSimEnv();
  RecordResult rec = RecordTiny(env.get(), nullptr);

  ClusterPlanOptions request;
  request.run_prefix = "run";
  request.num_workers = 3;
  auto result = ReplayPartition(MakeWorkloadFactory(TinyProfile(), kProbeInner),
                                env->fs(), request, /*worker_id=*/1,
                                /*simulated_clock=*/true);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->active_workers, 3);
  EXPECT_EQ(result->work_begin, 2);
  EXPECT_EQ(result->work_end, 4);
  // Work entries only cover epochs 2..3.
  for (const auto& e : result->logs.WorkEntries()) {
    if (e.context.empty()) continue;
    EXPECT_TRUE(e.context.find("e=2") == 0 || e.context.find("e=3") == 0)
        << e.context;
  }
  EXPECT_TRUE(CheckAgainstRecord(rec, *result).ok);
}

TEST(Replay, SamplingReplayRandomAccessesEpochs) {
  auto env = Env::NewSimEnv();
  RecordResult rec = RecordTiny(env.get(), nullptr);

  ClusterPlanOptions request;
  request.run_prefix = "run";
  request.sample_epochs = {1, 4};
  auto result = ReplayPartition(MakeWorkloadFactory(TinyProfile(), kProbeInner),
                                env->fs(), request, /*worker_id=*/0,
                                /*simulated_clock=*/true);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Two sampled epochs re-executed, two init restores (epochs 0 and 3).
  EXPECT_EQ(result->skipblocks.executed, 2);
  EXPECT_EQ(result->skipblocks.skipped, 2);
  const DeferredCheckReport deferred = CheckAgainstRecord(rec, *result);
  EXPECT_TRUE(deferred.ok)
      << (deferred.anomalies.empty() ? "" : deferred.anomalies[0]);
  std::set<std::string> contexts;
  for (const auto& e : result->logs.WorkEntries())
    if (!e.context.empty())
      contexts.insert(e.context.substr(0, e.context.find('/')));
  EXPECT_EQ(contexts, (std::set<std::string>{"e=1", "e=4"}));
}

TEST(Replay, RestoreAccountingMovesTogether) {
  // Regression: RestoreSkipBlock used to guard the restore-latency
  // accumulation on result_ but bump the restores counter through the same
  // pointer unconditionally — the two could only ever diverge by crashing.
  // The invariant is now checked once up front: one restore per skipped
  // block, and (no bucket configured) zero bucket faults.
  auto env = Env::NewSimEnv();
  RecordTiny(env.get(), nullptr);

  ClusterPlanOptions request;
  request.run_prefix = "run";
  auto result = ReplayPartition(MakeWorkloadFactory(TinyProfile(), kProbeNone),
                                env->fs(), request, /*worker_id=*/0,
                                /*simulated_clock=*/true);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->skipblocks.restores, result->skipblocks.skipped);
  EXPECT_GT(result->skipblocks.restores, 0);
  EXPECT_EQ(result->bucket_faults, 0);
}

}  // namespace
}  // namespace flor

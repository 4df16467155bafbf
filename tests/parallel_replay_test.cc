// Hindsight parallelism: cluster replay engine tests (paper §5.4).

#include <gtest/gtest.h>

#include "common/strings.h"
#include "exec/replay_executor.h"
#include "flor/record.h"
#include "ir/builder.h"
#include "sim/cluster.h"
#include "sim/cost_model.h"
#include "test_util.h"
#include "workloads/programs.h"

namespace flor {
namespace {

using workloads::kProbeInner;
using workloads::kProbeNone;
using workloads::kProbeOuter;
using workloads::MakeWorkloadFactory;
using workloads::WorkloadProfile;

WorkloadProfile ParProfile(int64_t epochs = 12) {
  WorkloadProfile p;
  p.name = "Par";
  p.epochs = epochs;
  p.sim_epoch_seconds = 100;
  p.sim_outer_seconds = 2;
  p.sim_preamble_seconds = 5;
  p.sim_ckpt_raw_bytes = 8 << 20;
  p.task_kind = data::Task::kVision;
  p.real_samples = 32;
  p.real_batch = 8;
  p.real_feature_dim = 12;
  p.real_classes = 3;
  p.real_hidden = 12;
  p.seed = testutil::TestSeed(99);
  return p;
}

/// Records the workload onto `fs` under "run"; returns record runtime.
double RecordOnto(FileSystem* fs, const WorkloadProfile& profile) {
  Env env(std::make_unique<SimClock>(), fs);
  auto instance = MakeWorkloadFactory(profile, kProbeNone)();
  EXPECT_TRUE(instance.ok());
  RecordOptions opts = workloads::DefaultRecordOptions(profile, "run");
  RecordSession session(&env, opts);
  exec::Frame frame;
  auto result = session.Run(instance->program.get(), &frame);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->runtime_seconds;
}

TEST(ClusterReplay, InnerProbeScalesAcrossWorkers) {
  MemFileSystem fs;
  const WorkloadProfile profile = ParProfile();
  const double record_seconds = RecordOnto(&fs, profile);

  ClusterPlanOptions copts;
  copts.run_prefix = "run";
  copts.num_workers = 4;
  copts.costs = sim::PaperPlatformCosts();

  auto factory = MakeWorkloadFactory(profile, kProbeInner);
  auto result = exec::Replay(ReplayEngine::kSimulated, &fs, copts, factory);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->workers_used, 4);
  // 12 epochs over 4 workers => 3 epochs each; near-ideal parallelism.
  const double ideal = record_seconds / 4;
  EXPECT_LT(result->latency_seconds, ideal * 1.35);
  EXPECT_GT(result->latency_seconds, ideal * 0.7);
  // Every epoch's probe output is present exactly once in merged logs.
  EXPECT_EQ(result->probe_entries.size(),
            static_cast<size_t>(profile.epochs) * 4u);
  EXPECT_TRUE(result->deferred.ok)
      << (result->deferred.anomalies.empty()
              ? ""
              : result->deferred.anomalies[0]);
}

TEST(ClusterReplay, WeakAndStrongInitAgree) {
  MemFileSystem fs;
  const WorkloadProfile profile = ParProfile();
  RecordOnto(&fs, profile);

  auto factory = MakeWorkloadFactory(profile, kProbeInner);
  ClusterPlanOptions copts;
  copts.run_prefix = "run";
  copts.num_workers = 4;
  copts.costs = sim::PaperPlatformCosts();

  copts.init_mode = InitMode::kStrong;
  auto strong = exec::Replay(ReplayEngine::kSimulated, &fs, copts, factory);
  ASSERT_TRUE(strong.ok());
  copts.init_mode = InitMode::kWeak;
  auto weak = exec::Replay(ReplayEngine::kSimulated, &fs, copts, factory);
  ASSERT_TRUE(weak.ok());

  EXPECT_TRUE(strong->deferred.ok);
  EXPECT_TRUE(weak->deferred.ok);
  EXPECT_EQ(strong->effective_init, InitMode::kStrong);
  EXPECT_EQ(weak->effective_init, InitMode::kWeak);
  // "the difference between weak and strong initialization is negligible"
  EXPECT_NEAR(weak->latency_seconds, strong->latency_seconds,
              strong->latency_seconds * 0.15);
  // Identical hindsight output.
  ASSERT_EQ(weak->probe_entries.size(), strong->probe_entries.size());
  for (size_t i = 0; i < weak->probe_entries.size(); ++i)
    EXPECT_EQ(weak->probe_entries[i].text, strong->probe_entries[i].text);
}

TEST(ClusterReplay, SpeedupBoundedByLoadBalanceCeiling) {
  MemFileSystem fs;
  // 10 epochs over 4 workers -> max 3 epochs per worker -> <= 10/3 speedup.
  const WorkloadProfile profile = ParProfile(10);
  const double record_seconds = RecordOnto(&fs, profile);

  ClusterPlanOptions copts;
  copts.run_prefix = "run";
  copts.num_workers = 4;
  copts.costs = sim::PaperPlatformCosts();
  auto result = exec::Replay(ReplayEngine::kSimulated, &fs, copts,
                             MakeWorkloadFactory(profile, kProbeInner));
  ASSERT_TRUE(result.ok());
  const double speedup = record_seconds / result->latency_seconds;
  EXPECT_LE(speedup, 10.0 / 3.0 + 0.01);
  EXPECT_GT(speedup, 10.0 / 3.0 * 0.75);
}

TEST(ClusterReplay, MoreWorkersThanEpochsUsesEpochCount) {
  MemFileSystem fs;
  const WorkloadProfile profile = ParProfile(3);
  RecordOnto(&fs, profile);

  ClusterPlanOptions copts;
  copts.run_prefix = "run";
  copts.num_workers = 8;  // 8 GPUs for 3 epochs
  copts.costs = sim::PaperPlatformCosts();
  auto result = exec::Replay(ReplayEngine::kSimulated, &fs, copts,
                             MakeWorkloadFactory(profile, kProbeInner));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->workers_used, 3);
  EXPECT_TRUE(result->deferred.ok);
}

TEST(ClusterReplay, OuterProbeIsCheapAndParallel) {
  MemFileSystem fs;
  const WorkloadProfile profile = ParProfile();
  const double record_seconds = RecordOnto(&fs, profile);

  ClusterPlanOptions copts;
  copts.run_prefix = "run";
  copts.num_workers = 4;
  copts.costs = sim::PaperPlatformCosts();
  auto result = exec::Replay(ReplayEngine::kSimulated, &fs, copts,
                             MakeWorkloadFactory(profile, kProbeOuter));
  ASSERT_TRUE(result.ok());
  // Partial replay: all training loops restored, not executed.
  EXPECT_EQ(result->skipblocks.executed, 0);
  EXPECT_GT(result->skipblocks.skipped, 0);
  EXPECT_LT(result->latency_seconds, record_seconds / 20);
  EXPECT_EQ(result->probe_entries.size(),
            static_cast<size_t>(profile.epochs));
  EXPECT_TRUE(result->deferred.ok);
}

TEST(ClusterReplay, MachinePricingCoversBusyWorkers) {
  MemFileSystem fs;
  const WorkloadProfile profile = ParProfile();
  RecordOnto(&fs, profile);

  ClusterPlanOptions copts;
  copts.run_prefix = "run";
  copts.num_workers = 4;
  copts.costs = sim::PaperPlatformCosts();
  auto result = exec::Replay(ReplayEngine::kSimulated, &fs, copts,
                             MakeWorkloadFactory(profile, kProbeInner));
  ASSERT_TRUE(result.ok());
  const std::vector<sim::MachineUsage> usage =
      sim::PriceCluster(sim::kP3_8xLarge, result->worker_seconds);
  ASSERT_EQ(usage.size(), 1u);
  EXPECT_NEAR(usage[0].cost_dollars,
              sim::InstanceCost(sim::kP3_8xLarge, result->latency_seconds),
              1e-9);
  EXPECT_GT(sim::TotalClusterCost(usage), 0);
}

// The simulated engine's modelled numbers for one recorded run, bit for
// bit: worker count, every worker's seconds, latency and the P3.8xLarge
// bill at G = 1, 3, 4 and 8, under the default request, which plans weak
// init for the workload program: each worker after the first restores one
// epoch before its segment. They do not depend on the test seed.
TEST(ClusterReplay, SimulatedNumbersArePinned) {
  MemFileSystem fs;
  const WorkloadProfile profile = ParProfile();
  RecordOnto(&fs, profile);

  struct Pin {
    int workers;
    int workers_used;
    std::vector<double> worker_seconds;
    double latency_seconds;
    double bill_dollars;
  };
  const Pin pins[] = {
      {1, 1, {0x1.334p+10}, 0x1.334p+10, 0x1.0b6e2eb1c432dp+2},
      {3,
       3,
       {0x1.9dp+8, 0x1.9f11f3519bd4p+8, 0x1.9f11f3519bd4p+8},
       0x1.9f11f3519bd4p+8,
       0x1.6946eb8a9dc05p+0},
      {4,
       4,
       {0x1.37p+8, 0x1.3911f3519bd4p+8, 0x1.3911f3519bd4p+8,
        0x1.3911f3519bd4p+8},
       0x1.3911f3519bd4p+8,
       0x1.107f09085d08dp+0},
      {8,
       6,
       {0x1.a2p+7, 0x1.a623e6a337a8p+7, 0x1.a623e6a337a8p+7,
        0x1.a623e6a337a8p+7, 0x1.a623e6a337a8p+7, 0x1.a623e6a337a8p+7},
       0x1.a623e6a337a8p+7,
       0x1.6f6e4d0c38a2ap+0},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.workers);
    ClusterPlanOptions copts;
    copts.run_prefix = "run";
    copts.num_workers = pin.workers;
    copts.costs = sim::PaperPlatformCosts();
    auto result = exec::Replay(ReplayEngine::kSimulated, &fs, copts,
                               MakeWorkloadFactory(profile, kProbeInner));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->workers_used, pin.workers_used);
    EXPECT_EQ(result->worker_seconds, pin.worker_seconds);
    EXPECT_EQ(result->latency_seconds, pin.latency_seconds);
    EXPECT_EQ(sim::TotalClusterCost(
                  sim::PriceCluster(sim::kP3_8xLarge, result->worker_seconds)),
              pin.bill_dollars);
  }
}

// --- A carried variable that no checkpoint holds.

/// A training script whose main loop carries `best = max(best, test_acc)`
/// and logs best every epoch. Its state is two scalars: w, which the
/// training loop (the SkipBlock) shrinks each batch, and best, which no
/// checkpoint holds. test_acc falls every epoch, so best stays at epoch
/// 0's value, and a worker that starts later with the preamble's best
/// logs other values.
ProgramFactory BestFactory(int64_t epochs) {
  return [epochs]() -> Result<ProgramInstance> {
    ir::ProgramBuilder b;
    b.CallAssign({"w"}, "init", {}, [](exec::Frame* f) {
      f->Set("w", ir::Value::Float(1.0f));
      return Status::OK();
    });
    b.CallAssign({"best"}, "zero", {}, [](exec::Frame* f) {
      f->Set("best", ir::Value::Float(0.0f));
      return Status::OK();
    });
    b.BeginLoop("e", epochs);
    {
      b.BeginLoop("i", 4);
      b.CallAssign({"w"}, "step", {"w"}, [](exec::Frame* f) {
         f->Set("w", ir::Value::Float(f->At("w").AsFloat() * 0.9f));
         return Status::OK();
       }).Cost(1.0);
      b.EndLoop();
      b.CallAssign({"test_acc"}, "evaluate", {"w"}, [](exec::Frame* f) {
        f->Set("test_acc", ir::Value::Float(f->At("w").AsFloat()));
        return Status::OK();
      });
      b.CallAssign({"best"}, "max", {"best", "test_acc"},
                   [](exec::Frame* f) {
                     f->Set("best", ir::Value::Float(std::max(
                                        f->At("best").AsFloat(),
                                        f->At("test_acc").AsFloat())));
                     return Status::OK();
                   });
      b.Log("best",
            [](exec::Frame* f) {
              return StrFormat("%.6f", f->At("best").AsFloat());
            },
            {"best"});
    }
    b.EndLoop();
    ProgramInstance instance;
    instance.program = b.Build();
    return instance;
  };
}

/// Records `factory` into `env`'s filesystem under "run". A sparse record
/// prices a checkpoint at about 1 s against 4 s of training loop, so the
/// adaptive controller checkpoints sparsely (the RTE regime); a dense one
/// turns adaptive checkpointing off, so every epoch is checkpointed.
Result<RecordResult> RecordBest(Env* env, const ProgramFactory& factory,
                                bool sparse) {
  RecordOptions opts;
  opts.run_prefix = "run";
  if (sparse) {
    opts.materializer.costs = sim::PaperPlatformCosts();
    opts.nominal_checkpoint_bytes = 165'000'000;
  } else {
    opts.adaptive.enabled = false;
  }
  FLOR_ASSIGN_OR_RETURN(ProgramInstance instance, factory());
  RecordSession session(env, opts);
  exec::Frame frame;
  return session.Run(instance.program.get(), &frame);
}

TEST(ClusterReplay, SparseRecordOfCarriedStateReplaysFromEpochZero) {
  constexpr int64_t kEpochs = 8;
  const ProgramFactory factory = BestFactory(kEpochs);
  MemFileSystem fs;
  Env env(std::make_unique<SimClock>(), &fs);
  {
    auto rec = RecordBest(&env, factory, /*sparse=*/true);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ASSERT_GT(rec->manifest.records.size(), 0u);
    ASSERT_LT(rec->manifest.records.size(),
              static_cast<size_t>(kEpochs - 1));
    ASSERT_EQ(rec->manifest.checkpoint_names.size(), 1u);
    EXPECT_EQ(rec->manifest.checkpoint_names.begin()->second,
              (std::vector<std::string>{"w"}));
  }
  std::string vanilla;
  {
    auto instance = factory();
    ASSERT_TRUE(instance.ok());
    exec::Frame frame;
    auto run = VanillaRun(&env, instance->program.get(), &frame);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    vanilla = run->logs.Serialize();
  }

  // The default request: weak init is not exact, and strong init cannot
  // start after epoch 0 on a sparse record, so one worker replays it all.
  ClusterPlanOptions request;
  request.run_prefix = "run";
  request.num_workers = 2;
  for (ReplayEngine engine :
       {ReplayEngine::kSimulated, ReplayEngine::kThreads}) {
    auto replay = exec::Replay(engine, &fs, request, factory);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_EQ(replay->workers_used, 1);
    EXPECT_EQ(replay->effective_init, InitMode::kStrong);
    EXPECT_TRUE(replay->deferred.ok);
    EXPECT_EQ(replay->merged_logs.Serialize(), vanilla);
  }

  // An explicit weak request is honoured: two workers, and the second
  // logs best from the preamble's value, which the deferred check flags.
  request.init_mode = InitMode::kWeak;
  auto weak = exec::Replay(ReplayEngine::kSimulated, &fs, request, factory);
  ASSERT_TRUE(weak.ok()) << weak.status().ToString();
  EXPECT_EQ(weak->workers_used, 2);
  EXPECT_EQ(weak->effective_init, InitMode::kWeak);
  EXPECT_FALSE(weak->deferred.ok);
  EXPECT_NE(weak->merged_logs.Serialize(), vanilla);
}

// A sampling request resolves its init mode as a partitioned one does.
// Weak init of epoch 5 restores w but starts best from the preamble's 0,
// so on a dense record the sample plans strong: epochs 0-4 restore in
// init, and 5-6 skip their training loop from its checkpoint.
TEST(ClusterReplay, SamplingADenseRecordOfCarriedStatePlansStrong) {
  constexpr int64_t kEpochs = 8;
  const ProgramFactory factory = BestFactory(kEpochs);
  MemFileSystem fs;
  {
    Env env(std::make_unique<SimClock>(), &fs);
    auto rec = RecordBest(&env, factory, /*sparse=*/false);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ASSERT_EQ(rec->manifest.records.size(), static_cast<size_t>(kEpochs));
  }

  ClusterPlanOptions request;
  request.run_prefix = "run";
  request.sample_epochs = {5, 6};
  for (ReplayEngine engine :
       {ReplayEngine::kSimulated, ReplayEngine::kThreads}) {
    auto replay = exec::Replay(engine, &fs, request, factory);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_EQ(replay->effective_init, InitMode::kStrong);
    EXPECT_EQ(replay->skipblocks.restores, 7);
    EXPECT_TRUE(replay->deferred.ok)
        << (replay->deferred.anomalies.empty()
                ? ""
                : replay->deferred.anomalies[0]);
  }
  auto pinned = PlannedRestoreEpochs(factory, &fs, request);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(*pinned, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

// On a sparse record, sampling epochs 4-5 of the same program has no
// exact plan: weak init is not exact, and strong init lacks epoch 0's
// checkpoint. The planner refuses the request before any worker runs.
TEST(ClusterReplay, SamplingASparseRecordOfCarriedStateIsRefused) {
  constexpr int64_t kEpochs = 8;
  const ProgramFactory factory = BestFactory(kEpochs);
  MemFileSystem fs;
  {
    Env env(std::make_unique<SimClock>(), &fs);
    auto rec = RecordBest(&env, factory, /*sparse=*/true);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ASSERT_EQ(rec->manifest.EpochsWithCheckpoint(2),
              (std::vector<int64_t>{3, 7}));
  }

  ClusterPlanOptions request;
  request.run_prefix = "run";
  request.sample_epochs = {4, 5};
  for (ReplayEngine engine :
       {ReplayEngine::kSimulated, ReplayEngine::kThreads}) {
    auto replay = exec::Replay(engine, &fs, request, factory);
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.status().code(), StatusCode::kFailedPrecondition)
        << replay.status().ToString();
    EXPECT_NE(replay.status().message().find("epoch 0 "), std::string::npos)
        << replay.status().ToString();
    EXPECT_EQ(replay.status().message().find("replay worker"),
              std::string::npos)
        << replay.status().ToString();
  }
}

TEST(ReplayMerger, RejectsWorkersThatRanDifferentPlans) {
  // Every worker reports the plan it ran; a merge of workers that planned
  // differently would splice partitions of two different plans.
  ReplayResult base;
  base.effective_init = InitMode::kWeak;
  base.partition_segments = 6;
  base.active_workers = 3;
  for (int field = 0; field < 3; ++field) {
    ReplayResult odd = base;
    if (field == 0) odd.effective_init = InitMode::kStrong;
    if (field == 1) odd.partition_segments = 5;
    if (field == 2) odd.active_workers = 2;
    ReplayMerger merger;
    merger.Add(0, base);
    merger.Add(1, base);
    merger.Add(2, odd);
    MemFileSystem fs;  // holds no record logs: Finish fails before them
    auto merged = merger.Finish(&fs, "run");
    ASSERT_FALSE(merged.ok()) << field;
    EXPECT_EQ(merged.status().code(), StatusCode::kInternal)
        << merged.status().ToString();
  }
}

}  // namespace
}  // namespace flor

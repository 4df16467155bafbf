// Hindsight parallelism: cluster replay engine tests (paper §5.4).

#include <gtest/gtest.h>

#include "exec/replay_executor.h"
#include "flor/record.h"
#include "sim/cluster.h"
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
// bill at G = 1, 3, 4 and 8. They do not depend on the test seed.
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
       {0x1.9dp+8, 0x1.a547cd466f501p+8, 0x1.ad8f9a8cdea03p+8},
       0x1.ad8f9a8cdea03p+8,
       0x1.75e3cd61a0989p+0},
      {4,
       4,
       {0x1.37p+8, 0x1.3d35d9f4d37c1p+8, 0x1.436bb3e9a6f82p+8,
        0x1.49a18dde7a743p+8},
       0x1.49a18dde7a743p+8,
       0x1.1ee92fb4f2923p+0},
      {8,
       6,
       {0x1.a2p+7, 0x1.aa47cd466f501p+7, 0x1.b28f9a8cdea03p+7,
        0x1.bad767d34df05p+7, 0x1.c31f3519bd406p+7, 0x1.cb6702602c908p+7},
       0x1.cb6702602c908p+7,
       0x1.88a810ba3e532p+0},
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

}  // namespace
}  // namespace flor

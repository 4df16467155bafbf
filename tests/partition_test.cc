// Unit + property tests: main-loop iterator partitioning, strong/weak
// initialization plans, and plans of sampled epochs (paper §5.4, §8).

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "flor/partition.h"

namespace flor {
namespace {

std::vector<int64_t> DenseCkpts(int64_t epochs) {
  std::vector<int64_t> out(static_cast<size_t>(epochs));
  std::iota(out.begin(), out.end(), 0);
  return out;
}

/// Work segments must tile [0, epochs) exactly once, in order.
void CheckTiling(const PartitionPlan& plan, int64_t epochs) {
  int64_t next = 0;
  for (const auto& wp : plan.workers) {
    EXPECT_EQ(wp.work_begin, next);
    EXPECT_GT(wp.work_end, wp.work_begin);
    next = wp.work_end;
  }
  EXPECT_EQ(next, epochs);
}

TEST(Partition, DenseStrongBalanced) {
  auto plan = PartitionMainLoop(12, 4, InitMode::kStrong, DenseCkpts(12));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->mode, InitMode::kStrong);
  ASSERT_EQ(plan->workers.size(), 4u);
  CheckTiling(*plan, 12);
  EXPECT_EQ(plan->max_worker_epochs, 3);
  // Strong init: worker w has exactly work_begin init iterations.
  for (const auto& wp : plan->workers) {
    int64_t init_count = 0;
    for (const auto& it : wp.iters)
      if (it.mode == exec::IterMode::kInit) ++init_count;
    EXPECT_EQ(init_count, wp.work_begin);
  }
}

TEST(Partition, DenseWeakHasSingleInitIteration) {
  auto plan = PartitionMainLoop(12, 4, InitMode::kWeak, DenseCkpts(12));
  ASSERT_TRUE(plan.ok());
  for (const auto& wp : plan->workers) {
    int64_t init_count = 0;
    for (const auto& it : wp.iters)
      if (it.mode == exec::IterMode::kInit) {
        ++init_count;
        EXPECT_EQ(it.index, wp.work_begin - 1);
      }
    EXPECT_EQ(init_count, wp.work_begin > 0 ? 1 : 0);
  }
}

TEST(Partition, SparseFallsBackToWeak) {
  // Checkpoints only at epochs 33, 66, ..., 198 (the RTE pattern).
  std::vector<int64_t> ckpts{33, 66, 99, 132, 165, 198};
  ASSERT_FALSE(DenseCheckpoints(200, ckpts));
  // A strong request falls back to weak where weak init is exact (§5.4.2).
  const InitMode mode =
      ResolveInitMode(InitMode::kStrong, /*weak_exact=*/true,
                      /*dense=*/false);
  EXPECT_EQ(mode, InitMode::kWeak);
  auto plan = PartitionMainLoop(200, 4, mode, ckpts);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->mode, InitMode::kWeak);
  // 7 candidate segments: starts {0,34,67,100,133,166,199}.
  EXPECT_EQ(plan->segments, 7);
  CheckTiling(*plan, 200);
  // 4 GPUs on segments {34,33,33,33,33,33,1}: the optimal contiguous
  // grouping caps the largest share at 66 epochs — 66/200 = 33%, the
  // paper's "at best 2/6 = 33% replay time" for sparse workloads.
  EXPECT_EQ(plan->max_worker_epochs, 66);
}

TEST(Partition, SparseStrongPlansOnePartitionFromEpochZero) {
  // Strong init would restore epochs no checkpoint holds, so where weak
  // init is not exact a sparse record replays on one worker from epoch 0,
  // which restores nothing before its work.
  std::vector<int64_t> ckpts{33, 66, 99, 132, 165, 198};
  for (InitMode requested : {InitMode::kStrong, InitMode::kAuto}) {
    const InitMode mode =
        ResolveInitMode(requested, /*weak_exact=*/false, /*dense=*/false);
    EXPECT_EQ(mode, InitMode::kStrong);
    auto plan = PartitionMainLoop(200, 4, mode, ckpts);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan->mode, InitMode::kStrong);
    EXPECT_EQ(plan->segments, 1);
    ASSERT_EQ(plan->workers.size(), 1u);
    EXPECT_EQ(plan->workers[0].work_begin, 0);
    EXPECT_EQ(plan->workers[0].work_end, 200);
    for (const auto& it : plan->workers[0].iters)
      EXPECT_EQ(it.mode, exec::IterMode::kWork);
  }
}

TEST(Partition, ResolveInitModeHonoursExplicitRequests) {
  for (bool dense : {false, true}) {
    for (bool exact : {false, true}) {
      EXPECT_EQ(ResolveInitMode(InitMode::kWeak, exact, dense),
                InitMode::kWeak);
      EXPECT_EQ(ResolveInitMode(InitMode::kAuto, exact, dense),
                exact ? InitMode::kWeak : InitMode::kStrong);
    }
    EXPECT_EQ(ResolveInitMode(InitMode::kStrong, false, dense),
              InitMode::kStrong);
  }
  EXPECT_EQ(ResolveInitMode(InitMode::kStrong, true, /*dense=*/true),
            InitMode::kStrong);
  EXPECT_FALSE(PartitionMainLoop(12, 4, InitMode::kAuto, DenseCkpts(12))
                   .ok());
}

TEST(Partition, SegmentBoundariesOnlyAtCheckpoints) {
  std::vector<int64_t> ckpts{9, 19};
  auto plan = PartitionMainLoop(30, 3, InitMode::kWeak, ckpts);
  ASSERT_TRUE(plan.ok());
  std::set<int64_t> valid_starts{0, 10, 20};
  for (const auto& wp : plan->workers)
    EXPECT_TRUE(valid_starts.count(wp.work_begin)) << wp.work_begin;
}

TEST(Partition, NoCheckpointsMeansOneSegment) {
  auto plan = PartitionMainLoop(50, 8, InitMode::kStrong, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->segments, 1);
  ASSERT_EQ(plan->workers.size(), 1u);
  EXPECT_EQ(plan->workers[0].work_begin, 0);
  EXPECT_EQ(plan->workers[0].work_end, 50);
}

TEST(Partition, MoreWorkersThanEpochs) {
  auto plan = PartitionMainLoop(3, 16, InitMode::kWeak, DenseCkpts(3));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->workers.size(), 3u);
  CheckTiling(*plan, 3);
}

TEST(Partition, InvalidArgumentsRejected) {
  EXPECT_FALSE(PartitionMainLoop(0, 4, InitMode::kWeak, {}).ok());
  EXPECT_FALSE(PartitionMainLoop(10, 0, InitMode::kWeak, {}).ok());
}

TEST(Partition, Fig13LoadBalanceCeiling) {
  // 200 epochs over 16 workers: the largest share must be 13 epochs
  // (paper: "balancing 200 epochs over 16 parallel workers results in each
  // worker doing up to 13 epochs of work").
  auto plan = PartitionMainLoop(200, 16, InitMode::kWeak, DenseCkpts(200));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->workers.size(), 16u);
  EXPECT_EQ(plan->max_worker_epochs, 13);
}

TEST(SamplePlan, WeakInitBeforeEachJump) {
  auto plan = PlanWorker(20, {5, 6, 12}, InitMode::kWeak, DenseCkpts(20));
  ASSERT_TRUE(plan.ok());
  // init 4, work 5, work 6 (contiguous, no re-init), init 11, work 12.
  ASSERT_EQ(plan->iters.size(), 5u);
  EXPECT_EQ(plan->iters[0].index, 4);
  EXPECT_EQ(plan->iters[0].mode, exec::IterMode::kInit);
  EXPECT_EQ(plan->iters[1].index, 5);
  EXPECT_EQ(plan->iters[2].index, 6);
  EXPECT_EQ(plan->iters[2].mode, exec::IterMode::kWork);
  EXPECT_EQ(plan->iters[3].index, 11);
  EXPECT_EQ(plan->iters[3].mode, exec::IterMode::kInit);
  EXPECT_EQ(plan->iters[4].index, 12);
}

TEST(SamplePlan, EpochZeroNeedsNoInit) {
  auto plan = PlanWorker(10, {0}, InitMode::kWeak, DenseCkpts(10));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->iters.size(), 1u);
  EXPECT_EQ(plan->iters[0].mode, exec::IterMode::kWork);
}

TEST(SamplePlan, MissingCheckpointRejected) {
  EXPECT_FALSE(PlanWorker(10, {5}, InitMode::kWeak, {}).ok());
  EXPECT_FALSE(PlanWorker(10, {50}, InitMode::kWeak, DenseCkpts(10)).ok());
}

TEST(SamplePlan, DeduplicatesAndSorts) {
  auto plan = PlanWorker(10, {7, 3, 7}, InitMode::kWeak, DenseCkpts(10));
  ASSERT_TRUE(plan.ok());
  // init 2, work 3, init 6, work 7.
  ASSERT_EQ(plan->iters.size(), 4u);
  EXPECT_EQ(plan->iters[1].index, 3);
  EXPECT_EQ(plan->iters[3].index, 7);
}

TEST(SamplePlan, StrongInitRestoresEveryEpochNotYetRun) {
  auto plan = PlanWorker(20, {5, 6, 12}, InitMode::kStrong, DenseCkpts(20));
  ASSERT_TRUE(plan.ok());
  // init 0-4, work 5-6, init 7-11, work 12.
  std::vector<std::pair<int64_t, exec::IterMode>> expected;
  auto add = [&expected](int64_t first, int64_t last, exec::IterMode mode) {
    for (int64_t e = first; e <= last; ++e) expected.push_back({e, mode});
  };
  add(0, 4, exec::IterMode::kInit);
  add(5, 6, exec::IterMode::kWork);
  add(7, 11, exec::IterMode::kInit);
  add(12, 12, exec::IterMode::kWork);
  std::vector<std::pair<int64_t, exec::IterMode>> got;
  for (const auto& it : plan->iters) got.push_back({it.index, it.mode});
  EXPECT_EQ(got, expected);
  EXPECT_EQ(plan->work_begin, 5);
  EXPECT_EQ(plan->work_end, 13);
}

TEST(SamplePlan, StrongInitNamesTheMissingCheckpoint) {
  // Checkpoints at 3 and 7 only: strong init of epoch 4 needs epoch 0.
  auto plan = PlanWorker(8, {4, 5}, InitMode::kStrong, {3, 7});
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(plan.status().message().find("epoch 0 "), std::string::npos)
      << plan.status().ToString();
  // Weak init of the same epochs needs only epoch 3.
  EXPECT_TRUE(PlanWorker(8, {4, 5}, InitMode::kWeak, {3, 7}).ok());
}

TEST(SamplePlan, AutoModeIsResolvedFirst) {
  auto plan = PlanWorker(10, {3}, InitMode::kAuto, DenseCkpts(10));
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

/// Property sweep: arbitrary (epochs, workers, checkpoint spacing) — plans
/// always tile the range, respect boundaries, and balance within one
/// segment size of optimal.
class PartitionSweep : public ::testing::TestWithParam<
                           std::tuple<int64_t, int, int, int>> {};

TEST_P(PartitionSweep, TilesAndBalances) {
  auto [epochs, workers, spacing, mode_i] = GetParam();
  std::vector<int64_t> ckpts;
  for (int64_t e = spacing - 1; e < epochs; e += spacing) ckpts.push_back(e);
  const InitMode mode = mode_i ? InitMode::kStrong : InitMode::kWeak;
  auto plan = PartitionMainLoop(epochs, workers, mode, ckpts);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  CheckTiling(*plan, epochs);
  // No worker exceeds max_worker_epochs.
  for (const auto& wp : plan->workers)
    EXPECT_LE(wp.work_epochs(), plan->max_worker_epochs);
  // Max share is at least the ideal share (ceil over usable segments).
  const int64_t used = static_cast<int64_t>(plan->workers.size());
  EXPECT_GE(plan->max_worker_epochs * used, epochs);
  // Init iterations precede work iterations and stay in range.
  for (const auto& wp : plan->workers) {
    bool seen_work = false;
    for (const auto& it : wp.iters) {
      EXPECT_GE(it.index, 0);
      EXPECT_LT(it.index, epochs);
      if (it.mode == exec::IterMode::kWork) {
        seen_work = true;
      } else {
        EXPECT_FALSE(seen_work) << "init after work";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionSweep,
    ::testing::Combine(::testing::Values<int64_t>(1, 7, 80, 200),
                       ::testing::Values(1, 3, 4, 16),
                       ::testing::Values(1, 5, 33),
                       ::testing::Values(0, 1)));

}  // namespace
}  // namespace flor

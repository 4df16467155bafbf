// Unit tests: the adaptive checkpointing controller and its invariants
// (paper §5.3, Eqs. 1-4).

#include <gtest/gtest.h>

#include <cmath>

#include "checkpoint/materializer.h"
#include "flor/adaptive.h"

namespace flor {
namespace {

constexpr double kEps = 1.0 / 15.0;

AdaptiveOptions DefaultOpts() {
  AdaptiveOptions opts;
  opts.enabled = true;
  opts.epsilon = kEps;
  return opts;
}

TEST(Adaptive, CheapCheckpointsMaterializeEveryTime) {
  AdaptiveController ctrl(DefaultOpts());
  // Mi/Ci = 0.001 << eps: dense checkpointing (the Cifr/RsNt regime).
  for (int i = 0; i < 50; ++i)
    EXPECT_TRUE(ctrl.ShouldMaterialize(1, 10.0, 0.01));
  EXPECT_EQ(ctrl.checkpoints(1), 50);
  EXPECT_EQ(ctrl.executions(1), 50);
}

TEST(Adaptive, ExpensiveCheckpointsBecomePeriodic) {
  AdaptiveController ctrl(DefaultOpts());
  // Mi/Ci = 2.2: the RTE regime. Expect ~ n*eps/2.2 checkpoints.
  int materialized = 0;
  for (int i = 0; i < 200; ++i)
    if (ctrl.ShouldMaterialize(2, 11.1, 24.4)) ++materialized;
  EXPECT_EQ(materialized, ctrl.checkpoints(2));
  EXPECT_GE(materialized, 5);
  EXPECT_LE(materialized, 7);  // paper: 6 checkpoints for RTE
}

TEST(Adaptive, DisabledAlwaysMaterializes) {
  AdaptiveOptions opts = DefaultOpts();
  opts.enabled = false;
  AdaptiveController ctrl(opts);
  for (int i = 0; i < 20; ++i)
    EXPECT_TRUE(ctrl.ShouldMaterialize(1, 1.0, 100.0));
  EXPECT_EQ(ctrl.checkpoints(1), 20);
}

TEST(Adaptive, ZeroComputeNeverMaterializes) {
  AdaptiveController ctrl(DefaultOpts());
  EXPECT_FALSE(ctrl.ShouldMaterialize(1, 0.0, 1.0));
}

TEST(Adaptive, RecordOverheadInvariantHolds) {
  // Eq. 1: ki * Mi < ni * eps * Ci for every decision trace prefix.
  AdaptiveController ctrl(DefaultOpts());
  const double ci = 10.0, mi = 9.0;  // ratio 0.9, far above eps
  for (int i = 0; i < 500; ++i) ctrl.ShouldMaterialize(1, ci, mi);
  const double ki = static_cast<double>(ctrl.checkpoints(1));
  const double ni = static_cast<double>(ctrl.executions(1));
  EXPECT_LT(ki * mi, ni * kEps * ci + mi + 1e-9)
      << "Record Overhead invariant violated";
}

TEST(Adaptive, ReplayLatencyInvariantHolds) {
  // Eq. 3: Mi + Ri < (ni/ki) Ci with Ri = c*Mi, whenever ki > 0.
  AdaptiveController ctrl(DefaultOpts());
  const double ci = 10.0, mi = 22.0, c = kRestoreFactor;
  for (int i = 0; i < 300; ++i) ctrl.ShouldMaterialize(1, ci, mi);
  const double ki = static_cast<double>(ctrl.checkpoints(1));
  ASSERT_GT(ki, 0);
  const double ni = static_cast<double>(ctrl.executions(1));
  EXPECT_LT(mi + c * mi, ni / ki * ci) << "Replay Latency invariant violated";
}

TEST(Adaptive, TraceRecordsDecisions) {
  AdaptiveController ctrl(DefaultOpts());
  ctrl.ShouldMaterialize(3, 5.0, 0.01);
  ctrl.ShouldMaterialize(3, 5.0, 100.0);
  ASSERT_EQ(ctrl.trace().size(), 2u);
  EXPECT_TRUE(ctrl.trace()[0].materialize);
  EXPECT_FALSE(ctrl.trace()[1].materialize);
  EXPECT_EQ(ctrl.trace()[1].ni, 2);
  EXPECT_EQ(ctrl.trace()[1].ki, 1);
  EXPECT_NEAR(ctrl.trace()[1].ratio, 20.0, 1e-9);
}

TEST(Adaptive, CRefinement) {
  // c is the paper's refined restore factor (§5.3.2) from the first decision
  // on, and no decision re-estimates it: every threshold is ni/(ki+1) times
  // the same bound 1/(1+kRestoreFactor).
  EXPECT_DOUBLE_EQ(kRestoreFactor, 1.38);
  const double c_bound = 1.0 / (1.0 + kRestoreFactor);
  AdaptiveOptions opts = DefaultOpts();
  opts.epsilon = 1.0;
  AdaptiveController ctrl(opts);
  // Ratio 0.45 lies between 1/(1+1.38) and the 1/(1+1) = 0.5 of an
  // unrefined c = 1, so the first decision declines.
  EXPECT_FALSE(ctrl.ShouldMaterialize(1, 100.0, 45.0));
  const double mis[] = {45.0, 10.0, 80.0, 30.0, 45.0, 5.0, 60.0};
  for (double mi : mis) ctrl.ShouldMaterialize(1, 100.0, mi);
  ASSERT_EQ(ctrl.trace().size(), 8u);
  for (const AdaptiveDecision& d : ctrl.trace()) {
    EXPECT_NEAR(d.threshold * static_cast<double>(d.ki + 1) /
                    static_cast<double>(d.ni),
                c_bound, 1e-12)
        << "decision ni=" << d.ni;
  }
}

TEST(Adaptive, LargerCBindsTighterThanEpsilon) {
  // c = kRestoreFactor = 1.38, so the bound is min(1/(1+c), eps) with
  // 1/(1+c) ≈ 0.42: at eps = 1 the c term binds, at the default eps not.
  const double c_bound = 1.0 / (1.0 + kRestoreFactor);
  EXPECT_NEAR(c_bound, 0.42, 0.001);
  AdaptiveOptions opts = DefaultOpts();
  opts.epsilon = 1.0;
  AdaptiveController eps_one(opts);
  EXPECT_TRUE(eps_one.ShouldMaterialize(1, 100.0, 41.0));   // 0.41 < 0.42
  EXPECT_FALSE(eps_one.ShouldMaterialize(2, 100.0, 43.0));  // 0.43 > 0.42
  EXPECT_DOUBLE_EQ(eps_one.trace()[0].threshold, c_bound);
  AdaptiveController eps_default(DefaultOpts());
  EXPECT_FALSE(eps_default.ShouldMaterialize(1, 100.0, 41.0));
  EXPECT_DOUBLE_EQ(eps_default.trace()[0].threshold, kEps);
}

TEST(Adaptive, IndependentPerLoopState) {
  AdaptiveController ctrl(DefaultOpts());
  ctrl.ShouldMaterialize(1, 10.0, 0.01);
  ctrl.ShouldMaterialize(2, 10.0, 100.0);
  EXPECT_EQ(ctrl.checkpoints(1), 1);
  EXPECT_EQ(ctrl.checkpoints(2), 0);
  EXPECT_EQ(ctrl.executions(1), 1);
  EXPECT_EQ(ctrl.executions(2), 1);
  EXPECT_EQ(ctrl.executions(3), 0);
}

/// Property sweep: for any (Mi/Ci) ratio and epoch count, both invariants
/// hold over the whole decision trace.
class AdaptiveInvariantSweep
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(AdaptiveInvariantSweep, JointInvariantImpliesBothBounds) {
  auto [ratio, epochs] = GetParam();
  AdaptiveController ctrl(DefaultOpts());
  const double ci = 10.0;
  const double mi = ratio * ci;
  for (int i = 0; i < epochs; ++i) ctrl.ShouldMaterialize(1, ci, mi);
  const double ki = static_cast<double>(ctrl.checkpoints(1));
  const double ni = static_cast<double>(ctrl.executions(1));
  // Eq. 1 (allow the one-decision slack inherent in testing post-hoc).
  EXPECT_LE(ki * mi, ni * kEps * ci + mi + 1e-9);
  if (ki > 0) {
    // Eq. 3 with c = kRestoreFactor.
    EXPECT_LT(mi + kRestoreFactor * mi, ni / ki * ci + mi + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RatiosAndLengths, AdaptiveInvariantSweep,
    ::testing::Combine(::testing::Values(0.001, 0.05, 0.5, 1.0, 2.2, 10.0),
                       ::testing::Values(10, 80, 200, 1000)));

}  // namespace
}  // namespace flor

// Unit tests: cloud cost model and cluster pricing.

#include <gtest/gtest.h>

#include "sim/cluster.h"
#include "sim/cost_model.h"

namespace flor {
namespace sim {
namespace {

TEST(CostModel, InstanceRates) {
  // On-demand rates from the paper's platform (§6, Fig. 14).
  EXPECT_EQ(kP3_2xLarge.gpus, 1);
  EXPECT_DOUBLE_EQ(kP3_2xLarge.dollars_per_hour, 3.06);
  EXPECT_EQ(kP3_8xLarge.gpus, 4);
  EXPECT_DOUBLE_EQ(kP3_8xLarge.dollars_per_hour, 12.24);
  // 4-GPU machine = 4x the 1-GPU machine's price on this family.
  EXPECT_NEAR(kP3_8xLarge.dollars_per_hour / kP3_2xLarge.dollars_per_hour,
              4.0, 1e-9);
}

TEST(CostModel, InstanceCostProRated) {
  EXPECT_DOUBLE_EQ(InstanceCost(kP3_2xLarge, 3600), 3.06);
  EXPECT_DOUBLE_EQ(InstanceCost(kP3_2xLarge, 1800), 1.53);
  EXPECT_DOUBLE_EQ(InstanceCost(kP3_8xLarge, 0), 0.0);
}

TEST(CostModel, PaperPlatformRatios) {
  MaterializerCosts costs = PaperPlatformCosts();
  // Serialization 4.3x I/O (§5.1); restore factor c = 1.38 (§5.3.2).
  EXPECT_NEAR(costs.io_bps / costs.serialize_bps, 4.3, 1e-9);
  EXPECT_DOUBLE_EQ(costs.restore_factor, 1.38);
  // EBS 7 Gbps = 875 MB/s.
  EXPECT_DOUBLE_EQ(costs.io_bps, 875e6);
}

TEST(Cluster, PriceClusterAssignsWorkersInOrder) {
  // 6 workers: first 4 on machine 0, last 2 on machine 1.
  std::vector<double> workers{100, 200, 150, 50, 300, 250};
  auto usage = PriceCluster(kP3_8xLarge, workers);
  ASSERT_EQ(usage.size(), 2u);
  EXPECT_DOUBLE_EQ(usage[0].busy_seconds, 200);  // max of first four
  EXPECT_DOUBLE_EQ(usage[1].busy_seconds, 300);  // max of last two
  EXPECT_DOUBLE_EQ(usage[0].cost_dollars,
                   InstanceCost(kP3_8xLarge, 200));
  EXPECT_DOUBLE_EQ(TotalClusterCost(usage),
                   usage[0].cost_dollars + usage[1].cost_dollars);
}

TEST(Cluster, IdleMachinesAreFree) {
  // One busy worker on machine 0; machine 1 holds only an idle worker.
  std::vector<double> workers{100, 0, 0, 0, 0};
  auto usage = PriceCluster(kP3_8xLarge, workers);
  ASSERT_EQ(usage.size(), 1u);  // idle machines not billed
  EXPECT_EQ(usage[0].machine_id, 0);
}

TEST(Cluster, SerialVsParallelCostNearParity) {
  // The Fig. 14 arithmetic: G workers at T/G on G/4 machines of 4 GPUs
  // costs the same as one GPU at T, when the per-GPU rate matches.
  const double total_seconds = 8 * 3600;
  const double serial_cost = InstanceCost(kP3_2xLarge, total_seconds);
  std::vector<double> workers(8, total_seconds / 8);
  const double parallel_cost =
      TotalClusterCost(PriceCluster(kP3_8xLarge, workers));
  EXPECT_NEAR(parallel_cost, serial_cost, 1e-9);
}

}  // namespace
}  // namespace sim
}  // namespace flor

#include "sim/cluster.h"

#include <algorithm>

namespace flor {
namespace sim {

std::vector<MachineUsage> PriceCluster(
    const Ec2Instance& instance, const std::vector<double>& worker_seconds) {
  std::vector<MachineUsage> usage;
  const size_t per_machine = static_cast<size_t>(std::max(1, instance.gpus));
  for (size_t begin = 0; begin < worker_seconds.size();
       begin += per_machine) {
    MachineUsage mu;
    mu.machine_id = static_cast<int>(begin / per_machine);
    const size_t end = std::min(begin + per_machine, worker_seconds.size());
    for (size_t w = begin; w < end; ++w)
      mu.busy_seconds = std::max(mu.busy_seconds, worker_seconds[w]);
    mu.cost_dollars = InstanceCost(instance, mu.busy_seconds);
    if (mu.busy_seconds > 0) usage.push_back(mu);
  }
  return usage;
}

double TotalClusterCost(const std::vector<MachineUsage>& usage) {
  double total = 0;
  for (const auto& mu : usage) total += mu.cost_dollars;
  return total;
}

}  // namespace sim
}  // namespace flor

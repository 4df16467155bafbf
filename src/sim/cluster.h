// Cluster billing for parallel replay (paper §6, Fig. 14): a replay's
// workers fill GPU machines of one instance type in order, and each
// machine is billed for its busiest worker.

#ifndef FLOR_SIM_CLUSTER_H_
#define FLOR_SIM_CLUSTER_H_

#include <vector>

#include "sim/cost_model.h"

namespace flor {
namespace sim {

/// Per-machine accounting after a parallel replay.
struct MachineUsage {
  int machine_id = 0;
  double busy_seconds = 0;  ///< wall time = max over its workers
  double cost_dollars = 0;
};

/// Prices `worker_seconds` (a replay's MergedClusterReplay::worker_seconds)
/// on ceil(workers / instance.gpus) machines of type `instance`: workers
/// fill machines in order, and each machine is billed for its busy span.
/// Machines with no busy worker are free and are left out.
std::vector<MachineUsage> PriceCluster(const Ec2Instance& instance,
                                       const std::vector<double>&
                                           worker_seconds);

/// Total dollars across machines.
double TotalClusterCost(const std::vector<MachineUsage>& usage);

}  // namespace sim
}  // namespace flor

#endif  // FLOR_SIM_CLUSTER_H_

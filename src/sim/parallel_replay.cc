#include "sim/parallel_replay.h"

#include <algorithm>

#include "common/strings.h"
#include "flor/replay_plan.h"

namespace flor {
namespace sim {

Result<ClusterReplayResult> ClusterReplay(const ProgramFactory& factory,
                                          FileSystem* shared_fs,
                                          const ClusterPlanOptions& plan,
                                          const Ec2Instance& instance) {
  if (instance.gpus < 1) {
    return Status::InvalidArgument(
        StrCat("simulated replay: instance gpus must be >= 1, got ",
               instance.gpus));
  }
  FLOR_ASSIGN_OR_RETURN(const int active,
                        PlanActiveWorkers(factory, shared_fs, plan));

  // Workers are fully independent; on this single simulated host they run
  // sequentially while each accrues time on its own simulated clock.
  ReplayMerger merger;
  for (int w = 0; w < active; ++w) {
    auto env = std::make_unique<Env>(std::make_unique<SimClock>(),
                                     shared_fs);
    FLOR_ASSIGN_OR_RETURN(ProgramInstance program, factory());
    ReplaySession session(env.get(), WorkerReplayOptions(plan, w));
    exec::Frame frame;
    FLOR_ASSIGN_OR_RETURN(ReplayResult wres,
                          session.Run(program.program.get(), &frame));
    merger.Add(w, std::move(wres));
  }
  ClusterReplayResult result;
  FLOR_ASSIGN_OR_RETURN(static_cast<MergedClusterReplay&>(result),
                        merger.Finish(shared_fs, plan.run_prefix));

  // Simulated-cluster extras: machine billing.
  Cluster cluster;
  cluster.instance = instance;
  const int workers = std::max(1, plan.num_workers);
  cluster.num_machines = (workers + instance.gpus - 1) / instance.gpus;
  result.machine_usage = PriceCluster(cluster, result.worker_seconds);
  result.total_cost_dollars = TotalClusterCost(result.machine_usage);
  return result;
}

}  // namespace sim
}  // namespace flor

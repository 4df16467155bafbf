// Deterministic *simulated* parallel-replay engine (paper §5.4.3, §5.4.4).
//
// Launches one ReplaySession per GPU worker. Workers are fully independent
// — no coordination or communication, exactly as in the paper — so on this
// simulated host they execute sequentially while each accrues time on its
// own simulated clock. Replay latency is the max over workers (plus
// nothing: there is no merge barrier in Flor; log partitions are
// concatenated by key order).
//
// Partition planning and log merging are shared with the real thread-pool
// engine (exec/replay_executor.h) via flor/replay_plan.h, so both engines
// produce byte-identical merged logs; this engine adds paper-scale latency
// modeling and cluster billing on top.
//
// The merged work-segment logs are deferred-checked against the record
// logs, so partitioned replay correctness is verified for real on every
// engine run.

#ifndef FLOR_SIM_PARALLEL_REPLAY_H_
#define FLOR_SIM_PARALLEL_REPLAY_H_

#include "env/filesystem.h"
#include "flor/replay.h"
#include "flor/replay_plan.h"
#include "sim/cluster.h"

namespace flor {
namespace sim {

/// Aggregate outcome of a cluster replay: the engine-agnostic merge
/// (latency, merged logs, deferred check — flor/replay_plan.h) plus
/// simulated-cluster billing.
struct ClusterReplayResult : MergedClusterReplay {
  /// Machine billing.
  std::vector<MachineUsage> machine_usage;
  double total_cost_dollars = 0;
};

/// Runs a parallel replay of the record run at `plan.run_prefix` (stored
/// on `shared_fs`) with G = `plan.num_workers` workers, billed as
/// ceil(G / instance.gpus) machines of type `instance` (idle machines are
/// not billed). `factory` rebuilds the *current* (possibly probed) program
/// for each worker.
Result<ClusterReplayResult> ClusterReplay(const ProgramFactory& factory,
                                          FileSystem* shared_fs,
                                          const ClusterPlanOptions& plan,
                                          const Ec2Instance& instance);

}  // namespace sim
}  // namespace flor

#endif  // FLOR_SIM_PARALLEL_REPLAY_H_

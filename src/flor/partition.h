// Iterator partitioning for hindsight parallelism (paper §5.4.1).
//
// The Flor generator splits the main loop's iterations across G workers.
// Partition boundaries must fall where a worker can reconstruct its start
// state: epoch e is a valid start iff e == 0 or epoch e-1 has Loop End
// Checkpoints for every skippable epoch loop. Densely checkpointed
// workloads partition anywhere; sparsely checkpointed ones (RTE/CoLA under
// adaptive checkpointing) are limited to the checkpointed epochs — which is
// why those workloads bottom out at 2/6 of vanilla replay time on 4 GPUs
// (Fig. 10).
//
// Initialization modes (§5.4.2):
//   * strong — iterate every epoch before the work segment in init mode,
//     restoring each from its checkpoint (correctness follows from loop
//     memoization). It needs a checkpoint at every earlier epoch, so on
//     sparse checkpoints it plans one partition from epoch 0.
//   * weak — jump straight to epoch (start-1) and restore only it. Exact
//     when the main-loop body meets analysis/weak_init.h's condition.
//   * auto — the default request: weak where weak init is exact, strong
//     otherwise (ResolveInitMode).
// One function, PlanWorker, lays out a worker's iterations in the resolved
// mode over any set of epochs: a partition's contiguous segment, or the
// sampled epochs that search random-accesses (§8).

#ifndef FLOR_FLOR_PARTITION_H_
#define FLOR_FLOR_PARTITION_H_

#include <vector>

#include "common/status.h"
#include "exec/interpreter.h"

namespace flor {

/// Worker start-state reconstruction strategy. A plan's mode, and so a
/// replay's effective_init, is always kStrong or kWeak; kAuto is only ever
/// requested.
enum class InitMode : uint8_t { kStrong = 0, kWeak = 1, kAuto = 2 };

const char* InitModeName(InitMode m);

/// True when every epoch that precedes another has a checkpoint, so a
/// partition may start anywhere.
bool DenseCheckpoints(int64_t epochs, const std::vector<int64_t>& ckpt_epochs);

/// The mode a replay request plans with. kWeak is honoured. kAuto plans
/// weak when `weak_exact` and strong otherwise. kStrong is honoured, except
/// on sparse checkpoints (`dense` false) where weak init is exact: there it
/// plans weak, as the paper's sparse workloads replay (§5.4.2).
InitMode ResolveInitMode(InitMode requested, bool weak_exact, bool dense);

/// One worker's share of the main loop.
struct WorkerPlan {
  int worker_id = 0;
  int64_t work_begin = 0;  ///< first epoch of the work segment
  int64_t work_end = 0;    ///< one past the last epoch
  /// Full planned iteration sequence (init iterations then work).
  std::vector<exec::PlannedIter> iters;

  int64_t work_epochs() const { return work_end - work_begin; }
};

/// A full partitioning of the main loop.
struct PartitionPlan {
  InitMode mode = InitMode::kStrong;
  std::vector<WorkerPlan> workers;
  /// Number of candidate segments (partitioning granularity; equals the
  /// epoch count when checkpointing is dense).
  int64_t segments = 0;
  /// Epochs of the largest work segment (load-balance ceiling: max speedup
  /// = epochs / max_segment_epochs, the paper's 200/13 example).
  int64_t max_worker_epochs = 0;
};

/// Partitions `epochs` main-loop iterations over `num_workers` workers
/// with `mode`, kStrong or kWeak (resolve kAuto first), and plans each
/// worker's segment with PlanWorker. `ckpt_epochs` lists epochs whose end
/// state is checkpointed (sorted). kStrong on sparse checkpoints plans one
/// partition from epoch 0, which restores nothing before its work.
Result<PartitionPlan> PartitionMainLoop(int64_t epochs, int num_workers,
                                        InitMode mode,
                                        const std::vector<int64_t>&
                                            ckpt_epochs);

/// Plans one worker's iterations: work iterations over the `work` epochs
/// (any set, deduplicated and sorted; paper §8's random access when not
/// contiguous), each preceded by the init iterations that rebuild its
/// start state in `mode`, kStrong or kWeak (kAuto is InvalidArgument).
/// Weak restores epoch k-1 before each jump to k; strong restores every
/// epoch the worker has not yet run. Each restored epoch needs a
/// checkpoint in `ckpt_epochs`, else FailedPrecondition naming it. With
/// `init_restores` false (the main-loop body holds no SkipBlock) an init
/// iteration restores nothing and re-executes its epoch, so it needs none.
Result<WorkerPlan> PlanWorker(int64_t epochs, std::vector<int64_t> work,
                              InitMode mode,
                              const std::vector<int64_t>& ckpt_epochs,
                              bool init_restores = true);

}  // namespace flor

#endif  // FLOR_FLOR_PARTITION_H_

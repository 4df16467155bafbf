// The replay engines (paper §5.4, Fig. 10/13/14) behind exec::Replay, the
// one call that replays a recorded run in partitions.
//
// Every engine plans partitions with PlanActiveWorkers, replays each one
// with ReplayPartition and merges with ReplayMerger (flor/replay_plan.h),
// so the merged replay log is byte-identical across engines and partition
// counts. The engines differ in clocks and isolation:
//   * kSimulated runs the thread engine's plan -> pool -> merge core on one
//     thread, each partition on a fresh SimClock: deterministic,
//     paper-scale latency (sim::PriceCluster bills its worker_seconds);
//   * kThreads runs the same core with one wall-clock thread per
//     partition (ReplayExecutor spells it with a pool size of its own);
//   * kProcesses forks one worker process per partition
//     (ProcessReplayExecutor, exec/process_executor.h).
//
// Worker sessions never synchronize with each other (hindsight replay is
// embarrassingly parallel): each builds its own program instance, owns its
// own clock and log stream, and only shares the read-only record artifacts
// through the FileSystem. The coordinating thread merges partitions after
// all workers join. Under kSimulated and kThreads a failing partition fails
// the replay with its own status code and the prefix "replay worker <w>: ";
// the pool has run every partition by then, so the simulated engine's
// partitions after the failing one still ran.

#ifndef FLOR_EXEC_REPLAY_EXECUTOR_H_
#define FLOR_EXEC_REPLAY_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "flor/replay_plan.h"

namespace flor {

/// Which engine runs a replay (exec::Replay). All three produce
/// byte-identical merged logs; they differ in clocks and isolation.
enum class ReplayEngine {
  kSimulated,  ///< partitions in order on one thread, simulated clocks
  kThreads,    ///< one wall-clock thread per partition
  kProcesses,  ///< fork-per-partition scheduler, true isolation
};

namespace exec {

/// Minimal work-stealing task pool. Task indices are dealt round-robin to
/// per-thread deques; a thread pops its own deque from the front and, when
/// empty, steals from the back of a victim's deque. Blocks until all tasks
/// complete. Tasks must not block on each other.
class WorkStealingPool {
 public:
  struct Stats {
    int64_t tasks_run = 0;
    /// Tasks executed by a thread other than the one they were dealt to.
    int64_t steals = 0;
  };

  /// Runs all `tasks` on `num_threads` threads (inline when either count
  /// is <= 1).
  static Stats Run(int num_threads,
                   const std::vector<std::function<void()>>& tasks);
};

/// Replays the run `request` names in request.num_workers partitions on
/// `engine`, against `fs` (thread-safe, and readable from forked children
/// for kProcesses; see exec/process_executor.h). `factory` rebuilds the
/// current (possibly probed) program once per partition, possibly
/// concurrently. kProcesses runs with ProcessReplayExecutorOptions'
/// defaults.
Result<MergedClusterReplay> Replay(ReplayEngine engine, FileSystem* fs,
                                   const ClusterPlanOptions& request,
                                   const ProgramFactory& factory);

/// Thread-engine configuration in its long-standing spelling: the fields
/// of the replay request (ClusterPlanOptions, with G spelled
/// `num_partitions`) plus the pool size.
struct ReplayExecutorOptions {
  std::string run_prefix = "run";
  /// Worker threads in the pool.
  int num_threads = 4;
  /// Log partitions (the paper's G). 0 = one per thread. May exceed
  /// num_threads: threads then steal the surplus partitions.
  int num_partitions = 0;
  /// As ClusterPlanOptions::init_mode: weak where it is exact, strong
  /// otherwise, unless a mode is requested explicitly.
  InitMode init_mode = InitMode::kAuto;
  std::vector<int64_t> sample_epochs;
  TierOptions tier;
};

/// Outcome of a real parallel replay: the engine-agnostic merge (latency,
/// wall time, merged logs — byte-identical across thread counts and
/// engines — deferred check; flor/replay_plan.h) plus pool-side
/// measurements.
struct ReplayExecutorResult : MergedClusterReplay {
  int threads_used = 0;
  /// Partitions executed by a thread they were not dealt to.
  int64_t steals = 0;
};

/// The thread engine with a pool size of its own: exec::Replay's
/// kThreads on `num_threads` threads, which steal partitions when G
/// exceeds them. Single-use per Run call; the executor itself holds no
/// per-run state.
class ReplayExecutor {
 public:
  /// Does not own `shared_fs`, which must be thread-safe (all flor
  /// FileSystem implementations are).
  ReplayExecutor(FileSystem* shared_fs, const ReplayExecutorOptions& options);

  /// Plans partitions, replays them on the pool, merges, deferred-checks.
  /// `factory` is invoked once per worker, on the worker's thread; it must
  /// be safe to call concurrently (workload factories build fresh,
  /// disjoint instances).
  Result<ReplayExecutorResult> Run(const ProgramFactory& factory);

 private:
  FileSystem* fs_;
  ClusterPlanOptions request_;
  int num_threads_;
};

}  // namespace exec
}  // namespace flor

#endif  // FLOR_EXEC_REPLAY_EXECUTOR_H_

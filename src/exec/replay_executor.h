// Real thread-pool parallel replay engine (paper §5.4, Fig. 10/13 — the
// measured counterpart of sim::ClusterReplay).
//
// The executor runs one ReplaySession per log partition on N worker
// threads, work-stealing over the partitions, against a shared thread-safe
// FileSystem and the wall clock. Partition planning and log merging are the
// exact same code the simulated engine uses (flor/replay_plan.h), so the
// merged replay log is byte-identical to a single-thread run and to the
// simulated engine — only the latency is measured instead of modeled.
//
// Worker sessions never synchronize with each other (hindsight replay is
// embarrassingly parallel): each builds its own program instance, owns its
// own clock and log stream, and only shares the read-only record artifacts
// through the FileSystem. The coordinating thread merges partitions after
// all workers join.

#ifndef FLOR_EXEC_REPLAY_EXECUTOR_H_
#define FLOR_EXEC_REPLAY_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "flor/replay_plan.h"

namespace flor {
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
  InitMode init_mode = InitMode::kStrong;
  MaterializerCosts costs;
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

/// Runs partitioned hindsight replay on a real thread pool. Single-use per
/// Run call; the executor itself holds no per-run state.
class ReplayExecutor {
 public:
  /// Does not own `shared_fs`, which must be thread-safe (all flor
  /// FileSystem implementations are).
  ReplayExecutor(FileSystem* shared_fs, const ReplayExecutorOptions& options);
  /// Replays `request` (G = request.num_workers partitions) on a pool of
  /// `num_threads` threads.
  ReplayExecutor(FileSystem* shared_fs, ClusterPlanOptions request,
                 int num_threads);

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

// Process-level parallel replay engine (the paper's flashback deployment:
// one replay process per GPU/partition).
//
// exec::Replay's kProcesses engine (exec/replay_executor.h). Beside the
// simulated and thread engines, which run partitions on a thread pool in
// one address space, this one forks a worker *process* per partition for
// true isolation: a worker that segfaults, leaks, or is OOM-killed takes
// down only its partition, exactly like a lost GPU node in the paper's
// cluster runs. This class adds the scheduler knobs and statistics that
// exec::Replay leaves at their defaults.
//
// The executor is a small cluster scheduler, not a fork-all barrier: a
// bounded pool of at most `max_concurrent_children` worker processes runs
// at once, queued partitions are forked as slots free up (so G partitions
// replay on fewer slots, just slower — the elastic scale-out shape), and a
// partition whose worker *dies* (killed by a signal, or unable to commit
// its result file) is automatically re-forked up to `max_attempts` times.
// Every attempt writes to its own attempt-suffixed result/error file name,
// so a torn attempt-1 file can never shadow a clean attempt-2 fragment.
// At most one attempt per partition is alive at a time.
//
// Protocol: the parent plans partitions (the same PlanActiveWorkers every
// engine uses) and forks worker processes as described above. Each child
// runs ReplayPartition, every engine's worker body, against the shared
// record artifacts and writes its merged-log fragment plus per-worker
// stats to a length-prefixed, CRC-framed result file
// (serialize/sections.h) in a posix scratch directory — atomically, so a
// child killed mid-write leaves either nothing or a torn file that fails
// to parse, never a silently mergeable garbage fragment. The parent reaps
// children as they exit (EINTR-safe waitpid(-1)), maps death (nonzero exit or signal) into retry-or-fail per
// partition without touching surviving fragments, decodes committed
// fragments (flor::DecodeWorkerResult) in completion order, and merges
// them via the same ReplayMerger as the other two engines — merging is
// order-insensitive, so the merged replay log is byte-identical to both
// no matter how out-of-order partitions complete or how often they retry.
//
// The shared FileSystem must be readable in the children: PosixFileSystem
// shares the on-disk record run across processes; MemFileSystem works too
// because fork() snapshots it copy-on-write (the record artifacts are
// read-only during replay). Results always travel through the scratch
// directory, never through memory.

#ifndef FLOR_EXEC_PROCESS_EXECUTOR_H_
#define FLOR_EXEC_PROCESS_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "flor/replay_plan.h"

namespace flor {
namespace exec {

/// Process-engine configuration: the replay request (one worker process
/// replays each of its `num_workers` partitions) plus scheduler knobs.
struct ProcessReplayExecutorOptions : ClusterPlanOptions {
  /// Directory for worker result files. Empty: a fresh mkdtemp scratch
  /// directory, removed after the run. Non-empty: used as-is (created if
  /// missing, stale worker files cleared, left in place afterwards) so
  /// tests and post-mortems can inspect surviving fragments.
  std::string scratch_dir;

  /// Scheduler pool size: at most this many worker processes are alive at
  /// once; partitions beyond it queue and fork as slots free up. <= 0
  /// (the default) means min(active partitions, hardware_concurrency).
  /// Benches replaying device-bound partitions (one slot per modeled GPU)
  /// should pin this to the partition count explicitly.
  int max_concurrent_children = 0;
  /// Fork budget per partition. A worker that dies by signal or cannot
  /// commit its result file is re-forked until its partition commits or
  /// the budget is exhausted; 1 restores the original fail-fast behavior.
  /// A replay that fails *cleanly* inside the child (a Status carried
  /// back through the framed error file) is deterministic and is never
  /// retried.
  int max_attempts = 2;

  /// Test-only fault-injection hooks, invoked inside the forked child
  /// with the worker id and the 1-based attempt number.
  /// `before_session` runs before the child's ReplayPartition,
  /// `before_result_write` after the replay but before the result file
  /// is committed — a hook that kills the process at either point models
  /// a worker lost mid-partition.
  std::function<void(int worker_id, int attempt)> child_before_session{};
  std::function<void(int worker_id, int attempt)> child_before_result_write{};
};

/// Outcome of a process-level replay: the engine-agnostic merge plus
/// scheduler statistics.
struct ProcessReplayExecutorResult : MergedClusterReplay {
  /// Effective scheduler pool size (after defaulting).
  int pool_size = 0;
  /// Worker processes forked in total, including retries (==
  /// workers_used when nothing died).
  int total_forks = 0;
  /// Most worker processes alive at any instant (never exceeds
  /// pool_size).
  int max_observed_children = 0;
  /// Partitions that needed a re-fork after a worker death.
  int retried_partitions = 0;
  /// Forks per partition, indexed by worker id.
  std::vector<int> partition_attempts;
};

/// Runs partitioned hindsight replay on forked worker processes. Single-
/// use per Run call; the executor itself holds no per-run state. Fork
/// happens on the calling thread. Run reaps with waitpid(-1), so
/// concurrent Runs in one process (the wire server's handler threads)
/// take turns: each holds a process-wide lock from its planning to its
/// merge, and each still schedules its own pool. Other code in the
/// process must not call waitpid(-1) while a Run is live (statuses of
/// unrelated children reaped here are discarded).
class ProcessReplayExecutor {
 public:
  /// Does not own `shared_fs` (see file comment for cross-process
  /// visibility requirements).
  ProcessReplayExecutor(FileSystem* shared_fs,
                        ProcessReplayExecutorOptions options);

  /// Plans partitions, schedules worker processes over the bounded pool
  /// (retrying dead workers up to the attempt budget), merges, deferred-
  /// checks. When a partition exhausts its attempts the error names each
  /// dead partition and its cause; surviving result files are left intact
  /// in the scratch directory (an auto-created scratch dir is preserved
  /// on failure and named in the error message).
  Result<ProcessReplayExecutorResult> Run(const ProgramFactory& factory);

  /// Scratch-relative result file a worker commits. Attempt 1 keeps the
  /// legacy name ("worker-<id>.res"); retries get attempt-suffixed names
  /// ("worker-<id>.attempt-<n>.res") so no torn earlier attempt can
  /// shadow a clean later one.
  static std::string ResultFileName(int worker_id, int attempt = 1);
  /// Scratch-relative error file a worker leaves when its replay fails
  /// cleanly ("worker-<id>.err", attempt-suffixed like ResultFileName).
  static std::string ErrorFileName(int worker_id, int attempt = 1);

 private:
  FileSystem* fs_;
  ProcessReplayExecutorOptions options_;
};

}  // namespace exec
}  // namespace flor

#endif  // FLOR_EXEC_PROCESS_EXECUTOR_H_

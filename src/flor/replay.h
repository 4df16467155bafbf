// Flor replay (paper §3.2, §5.4): the replay request and one worker.
//
// A replay runs the *current* program version (which may contain hindsight
// logging statements) against a finished record run. ReplayPartition runs
// one worker:
//   1. diff current source vs recorded source → probe report,
//   2. plan the main loop with PlanPartitions (flor/replay_plan.h): the
//      worker's partition segment, or the sampled epochs of an
//      iteration-sampling replay (paper §8),
//   3. execute: init iterations restore SkipBlock state from checkpoints;
//      work iterations skip unprobed memoized loops (partial replay) and
//      re-execute probed ones (producing the hindsight logs).
// The deferred correctness check runs once, over the merged logs of all
// workers (ReplayMerger, flor/replay_plan.h).

#ifndef FLOR_FLOR_REPLAY_H_
#define FLOR_FLOR_REPLAY_H_

#include <memory>
#include <string>
#include <vector>

#include "checkpoint/store.h"
#include "env/env.h"
#include "exec/interpreter.h"
#include "flor/partition.h"
#include "flor/skipblock.h"
#include "ir/diff.h"

namespace flor {

/// The replay request: everything needed to plan worker partitions of a
/// recorded run (flor/replay_plan.h) and to open each worker's store. Every
/// engine, every worker and the service Session::Replay consume this one
/// struct; the engines add only their own execution knobs.
struct ClusterPlanOptions {
  std::string run_prefix = "run";
  /// Requested log partitions (the paper's G). The effective worker count
  /// can be lower when the main loop is short or checkpoints are sparse.
  int num_workers = 1;
  /// Requested worker-initialization mode (§5.4.2). The default, kAuto,
  /// plans weak init where it is exact for the program and the run's
  /// checkpointed names (analysis/weak_init.h) and strong otherwise; an
  /// explicit kStrong or kWeak is honoured (ResolveInitMode).
  InitMode init_mode = InitMode::kAuto;
  /// Non-empty selects iteration-sampling replay over these main-loop
  /// epochs on a single worker instead of contiguous partitions.
  std::vector<int64_t> sample_epochs;
  /// Read tier of every worker's store (bucket fall-through, bloom).
  TierOptions tier;
};

/// Outcome of one worker's replay.
struct ReplayResult {
  double runtime_seconds = 0;
  /// Complete log stream (including init-mode entries).
  exec::LogStream logs;
  SkipBlockStats skipblocks;
  ir::ProbeReport probes;
  /// The mode this worker's plan resolved to: kStrong or kWeak.
  InitMode effective_init = InitMode::kStrong;
  /// Partitioning granularity of the plan this worker came from.
  int64_t partition_segments = 0;
  /// Number of workers the plan actually uses (<= num_workers).
  int active_workers = 0;
  int64_t work_begin = -1;
  int64_t work_end = -1;
  /// Convenience: the hindsight (probe) log entries this worker produced.
  std::vector<exec::LogEntry> probe_entries;
  /// Restores served by the bucket tier (local store miss, bucket hit).
  int64_t bucket_faults = 0;
  /// Store lookups the bloom filter answered definite-miss without
  /// touching a shard (0 when the request's tier.bloom_filter is off).
  int64_t bloom_skipped_probes = 0;
};

/// Replays partition `worker_id` of `request`: builds a fresh program
/// instance with `factory` and replays it against `fs`, on a fresh
/// SimClock when `simulated_clock` is set and on the wall clock otherwise.
/// A worker past the plan's last partition runs no main-loop iteration.
/// Every engine's worker body, and the only way to run a replay worker.
Result<ReplayResult> ReplayPartition(const ProgramFactory& factory,
                                     FileSystem* fs,
                                     const ClusterPlanOptions& request,
                                     int worker_id, bool simulated_clock);

/// Convenience single-call vanilla re-execution of a program (no Flor
/// speedups) used as the baseline in latency comparisons. Returns the run
/// time and the produced logs.
struct VanillaRunResult {
  double runtime_seconds = 0;
  exec::LogStream logs;
};
Result<VanillaRunResult> VanillaRun(Env* env, ir::Program* program,
                                    exec::Frame* frame);

}  // namespace flor

#endif  // FLOR_FLOR_REPLAY_H_

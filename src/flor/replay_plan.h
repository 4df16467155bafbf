// Shared core of partitioned hindsight replay: planning and log merging.
//
// Every engine behind exec::Replay (exec/replay_executor.h) plans with
// PlanActiveWorkers, replays each partition with ReplayPartition
// (flor/replay.h) and merges with ReplayMerger, so the merged replay logs
// are byte-identical across engines and partition counts. The engines
// differ only in where ReplayPartition runs: on a pool thread, on a
// simulated or the wall clock, or in a forked worker process.
// PlanActiveWorkers, PlannedRestoreEpochs and every worker plan with
// PlanPartitions, so the plan, the GC pins and the workers agree.
//
// Checkpoint-store sharding is invisible at this layer by design: each
// worker reads the shard count from the record manifest and routes object
// reads itself, so partition planning and log merging are identical for
// flat and sharded stores.

#ifndef FLOR_FLOR_REPLAY_PLAN_H_
#define FLOR_FLOR_REPLAY_PLAN_H_

#include <string>
#include <utility>
#include <vector>

#include "env/filesystem.h"
#include "flor/deferred_check.h"
#include "flor/replay.h"

namespace flor {

// ClusterPlanOptions, the replay request every engine consumes, is declared
// in flor/replay.h next to ReplayPartition, the worker that runs it.

/// Plans the `epochs` main-loop iterations of `program` (instrumented, with
/// a main loop) for `request` against the run's `manifest`:
///   * boundaries: the epochs at which every SkipBlock of the main-loop
///     body has a checkpoint;
///   * init mode: ResolveInitMode of the request, with weak init's
///     exactness from analysis::AnalyzeWeakInit over the manifest's
///     checkpoint names, so planning reads no checkpoint;
///   * partition: PartitionMainLoop, or for a sampling request one worker
///     over the sampled epochs (PlanWorker), with one segment per planned
///     iteration. A sampling request resolves its mode the same way, so it
///     plans strong where weak init is not exact, and fails where strong
///     init lacks a checkpoint.
Result<PartitionPlan> PlanPartitions(ir::Program* program, int64_t epochs,
                                     const Manifest& manifest,
                                     const ClusterPlanOptions& request);

/// Plans how many replay workers a replay needs, without executing
/// anything. A one-worker partitioned request needs one; any other builds
/// a fresh instance, instruments it, reads the record manifest from `fs`
/// and plans the main loop, so a sampling request that cannot be planned
/// fails before any worker runs. Falls back to `options.num_workers` (one
/// worker for sampling) when the main-loop trip count is not statically
/// known (surplus workers then plan themselves empty at run time).
Result<int> PlanActiveWorkers(const ProgramFactory& factory,
                              const FileSystem* fs,
                              const ClusterPlanOptions& options);

/// Main-loop epochs whose checkpoints the replay planned by `options` will
/// restore during worker initialization (weak init: the epoch before each
/// worker's segment, or before each jump between sampled epochs; strong
/// init: every epoch a worker has not run before its work; an auto request
/// follows the mode it resolves to), as a sorted, deduplicated list.
/// Retention pins these (GcPolicy::pinned_epochs) so a replay planned
/// before a GC pass still finds every checkpoint it restores — the
/// GC-side half of "no engine ever observes a retired epoch it was planned
/// against". Fails when the main-loop trip count is not statically known
/// (such plans are made at run time and cannot be pinned ahead of a GC).
Result<std::vector<int64_t>> PlannedRestoreEpochs(
    const ProgramFactory& factory, const FileSystem* fs,
    const ClusterPlanOptions& options);

/// Engine-agnostic aggregate of a partitioned replay.
struct MergedClusterReplay {
  /// Max over worker runtimes (no merge barrier in Flor; partitions are
  /// concatenated by worker order).
  double latency_seconds = 0;
  /// Measured wall-clock time of the whole replay (plan + workers +
  /// merge) from the coordinator's side, under every engine (the
  /// simulated engine's latency_seconds is modeled).
  double wall_seconds = 0;
  std::vector<double> worker_seconds;
  int workers_used = 0;
  int64_t partition_segments = 0;
  InitMode effective_init = InitMode::kStrong;
  /// Work-segment log entries of all workers, in partition order.
  exec::LogStream merged_logs;
  std::vector<exec::LogEntry> probe_entries;
  DeferredCheckReport deferred;
  SkipBlockStats skipblocks;
  /// Total restores served by the bucket tier across workers.
  int64_t bucket_faults = 0;
  /// Total store lookups the workers' bloom filters short-circuited.
  int64_t bloom_skipped_probes = 0;
};

/// Encodes one worker's ReplayResult for out-of-process transport — the
/// fork-per-partition engine (exec/process_executor.h) has each child
/// write this to a CRC-framed result file (serialize/sections.h) and the
/// parent decode it back into the exact ReplayResult an in-process worker
/// would have handed the merger. The round trip is lossless: doubles
/// travel as hexfloat, log fragments via LogStream's line encoding.
std::string EncodeWorkerResult(const ReplayResult& result);

/// Inverse of EncodeWorkerResult. Truncated or mutated bytes fail with
/// Corruption — a successfully decoded result is safe to merge.
Result<ReplayResult> DecodeWorkerResult(const std::string& data);

/// Accumulates per-worker ReplayResults (in any completion order), then
/// merges logs in worker order and runs the merged deferred check against
/// the record logs. Thread-compatible: callers serialize Add/Finish (every
/// engine adds results from the coordinating thread after workers join).
/// Results may come from in-process workers or be decoded from another
/// process's result file (DecodeWorkerResult) — the merge is identical.
/// Every worker reports the plan it ran (effective_init,
/// partition_segments, active_workers); Finish fails with Internal when
/// two workers disagree.
class ReplayMerger {
 public:
  void Add(int worker_id, ReplayResult result);

  /// Merges and deferred-checks. `fs` supplies the record logs under
  /// `run_prefix`. Single-use.
  Result<MergedClusterReplay> Finish(const FileSystem* fs,
                                     const std::string& run_prefix);

 private:
  std::vector<std::pair<int, ReplayResult>> workers_;
};

}  // namespace flor

#endif  // FLOR_FLOR_REPLAY_PLAN_H_

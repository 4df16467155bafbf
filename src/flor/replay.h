// ReplaySession — Flor replay (paper §3.2, §5.4).
//
// A replay runs the *current* program version (which may contain hindsight
// logging statements) against a finished record run:
//   1. diff current source vs recorded source → probe report,
//   2. plan the main loop: full range for a lone worker, a partition
//      segment for parallel workers, or an arbitrary epoch sample
//      (iteration-sampling replay, paper §8),
//   3. execute: init iterations restore SkipBlock state from checkpoints;
//      work iterations skip unprobed memoized loops (partial replay) and
//      re-execute probed ones (producing the hindsight logs),
//   4. deferred correctness check: this worker's log partition must match
//      the record logs modulo probe output.

#ifndef FLOR_FLOR_REPLAY_H_
#define FLOR_FLOR_REPLAY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checkpoint/materializer.h"
#include "checkpoint/store.h"
#include "env/env.h"
#include "exec/interpreter.h"
#include "flor/deferred_check.h"
#include "flor/partition.h"
#include "flor/probe.h"
#include "flor/skipblock.h"
#include "ir/diff.h"

namespace flor {

/// The replay request: everything needed to plan worker partitions of a
/// recorded run (flor/replay_plan.h) and to open each worker's store. Every
/// engine, the per-worker ReplayOptions and the service Session::Replay
/// consume this one struct and add only their own execution knobs.
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
  /// Cost model for restore pricing (only charged under simulated clocks).
  MaterializerCosts costs;
  /// Non-empty selects iteration-sampling replay over these main-loop
  /// epochs on a single worker instead of contiguous partitions.
  std::vector<int64_t> sample_epochs;
  /// Read tier of every worker's store (bucket fall-through, bloom).
  TierOptions tier;
};

/// One worker's replay configuration: the request plus its identity.
struct ReplayOptions : ClusterPlanOptions {
  /// This worker's identity within a parallel replay (PID in Fig. 8).
  int worker_id = 0;
  /// Skip the deferred log check (used when a caller merges worker logs and
  /// checks once).
  bool run_deferred_check = true;
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
  DeferredCheckReport deferred;
  /// Convenience: the hindsight (probe) log entries this worker produced.
  std::vector<exec::LogEntry> probe_entries;
  double restore_seconds = 0;
  /// Mean observed restore/materialize ratio (refines c, §5.3.2).
  double observed_c = 0;
  /// Restores served by the bucket tier (local store miss, bucket hit).
  int64_t bucket_faults = 0;
  /// Store lookups the bloom filter answered definite-miss without
  /// touching a shard (0 when ReplayOptions::tier.bloom_filter is off).
  int64_t bloom_skipped_probes = 0;
};

/// Executes one replay worker. Single-use.
class ReplaySession : public exec::ExecHooks {
 public:
  ReplaySession(Env* env, ReplayOptions options);

  Result<ReplayResult> Run(ir::Program* current_program, exec::Frame* frame);

  // --- ExecHooks (SkipBlock parameterization for replay) ---
  Result<exec::LoopAction> OnSkipBlockEnter(ir::Loop* loop,
                                            const std::string& ctx,
                                            bool init_mode,
                                            exec::Frame* frame) override;
  Status OnSkipBlockExit(ir::Loop* loop, const std::string& ctx,
                         exec::Frame* frame,
                         double compute_seconds) override;
  Result<std::optional<exec::MainLoopPlan>> PlanMainLoop(
      ir::Loop* loop, int64_t trip_count, exec::Frame* frame) override;

 private:
  /// Restores a loop execution's side effects from its checkpoint.
  Status RestoreSkipBlock(ir::Loop* loop, const CheckpointKey& key,
                          exec::Frame* frame);

  Env* env_;
  ReplayOptions options_;
  RunPaths paths_;
  /// Opened in Run(): the manifest's shard count decides the store layout,
  /// so replay reads are shard-aware without probing (and pre-sharding
  /// runs keep replaying as 1 shard).
  OpenedRun run_;

  ir::Program* program_ = nullptr;
  exec::LogStream record_logs_;
  std::map<std::string, const CheckpointRecord*> records_by_key_;
  std::set<int32_t> probed_transitive_;
  ReplayResult* result_ = nullptr;  // live during Run

  double restore_ratio_sum_ = 0;
  int64_t restore_ratio_count_ = 0;
};

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

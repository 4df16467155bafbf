// RecordSession — Flor record (paper §3.1, §5).
//
// Running a program under a RecordSession is the C++ analog of executing an
// `import flor` training script:
//   1. the program is instrumented (SkipBlocks around eligible loops),
//   2. the rendered source is saved (the probe-diff baseline),
//   3. execution proceeds; at every wrapped-loop exit the adaptive
//      controller tests the Joint Invariant, and accepted checkpoints are
//      snapshotted on the training thread and materialized in the
//      background,
//   4. the log stream and the checkpoint manifest, with the names each
//      SkipBlock's checkpoints hold, are persisted.
//
// The background lifecycle continues past materialization when configured:
// with RecordOptions::spool_prefix set, the materializer's durability ack
// copies each checkpoint to the bucket (spool-as-you-materialize, the
// paper's background spooler, §6.2; checkpoint/spool.h). A record never
// retires checkpoints: keep-last-K retention is a pass over the finished
// run (RetireRun in checkpoint/gc.h; the service schedules one after each
// record), and with the spool prefix as its bucket tier it demotes — local
// copies go, the manifest stays complete, and replay configured with the
// same bucket prefix faults old epochs back in.

#ifndef FLOR_FLOR_RECORD_H_
#define FLOR_FLOR_RECORD_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checkpoint/materializer.h"
#include "checkpoint/spool.h"
#include "checkpoint/store.h"
#include "env/env.h"
#include "exec/interpreter.h"
#include "flor/adaptive.h"
#include "flor/instrument.h"
#include "flor/skipblock.h"

namespace flor {

/// Record configuration.
struct RecordOptions {
  /// Filesystem prefix for this run's artifacts.
  std::string run_prefix = "run";
  /// Workload name stored in the manifest (informational). Run rejects a
  /// name holding a tab or a newline with InvalidArgument.
  std::string workload;
  /// Shard count of the run's checkpoint store (recorded in the manifest
  /// so replay finds objects without probing). 1 = legacy flat layout.
  int ckpt_shards = 1;
  /// The session installs its own durability ack as on_durable.
  MaterializerOptions materializer;
  AdaptiveOptions adaptive;
  /// Non-empty enables spool-as-you-materialize: each checkpoint is copied
  /// to "<spool_prefix>/<object path>" (prefix "s3" mirrors run/ckpt/...
  /// under s3/run/ckpt/...) by its durability ack, one SpoolBytes of the
  /// encoded bytes per acknowledged checkpoint, on the thread that
  /// delivers the ack, with no read of the local object. The
  /// copies of a group-commit slot land when the slot closes, and the
  /// last slot's inside the end-of-run drain. The copies are totalled in
  /// RecordResult::spool_report; a failed copy is counted there and never
  /// fails the run.
  std::string spool_prefix;
  /// Nominal (paper-scale) raw bytes per checkpoint for the simulated cost
  /// model; 0 = use actual snapshot sizes.
  uint64_t nominal_checkpoint_bytes = 0;
};

/// Outcome of a record run.
struct RecordResult {
  /// Wall (or simulated) time of the run through the end-of-run drain.
  /// With a spool prefix on a wall clock this includes the bucket copies
  /// still pending at the drain: the last group-commit slot's.
  double runtime_seconds = 0;
  SkipBlockStats skipblocks;
  exec::LogStream logs;
  Manifest manifest;
  InstrumentReport instrument;
  /// Training-thread materialization cost (the record overhead numerator).
  double materialize_main_seconds = 0;
  double materialize_stall_seconds = 0;
  /// Group-commit slot accounting (materializer.group_commit_window): how
  /// many durability syncs the run paid and how many checkpoints shared
  /// each. At window 1, slots == joins == syncs (one sync per checkpoint).
  GroupCommitStats group_commit;
  std::vector<AdaptiveDecision> adaptive_trace;
  /// Outcome of this run's bucket copies (all-zero when spooling is
  /// disabled).
  SpoolReport spool_report;
};

/// Executes one program under Flor record. Single-use.
class RecordSession : public exec::ExecHooks {
 public:
  /// Does not own `env`.
  RecordSession(Env* env, RecordOptions options);

  /// Instruments, executes, persists. `frame` starts empty; the program's
  /// preamble populates it.
  Result<RecordResult> Run(ir::Program* program, exec::Frame* frame);

  // --- ExecHooks (SkipBlock parameterization for record execution) ---
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
  Env* env_;
  RecordOptions options_;
  RunPaths paths_;
  std::unique_ptr<CheckpointStore> store_;
  /// What the durability ack writes: each acknowledged checkpoint's stored
  /// size, by key, and the outcome of its bucket copy. Acks arrive one at
  /// a time (from the materializer's single worker, or the training
  /// thread) and Run reads these only after the drain. Declared before
  /// materializer_, whose destructor drains and can still deliver acks.
  std::map<std::string, uint64_t> acked_bytes_;
  SpoolReport spool_report_;
  std::unique_ptr<Materializer> materializer_;
  AdaptiveController adaptive_;
  Manifest manifest_;
  SkipBlockStats stats_;
};

}  // namespace flor

#endif  // FLOR_FLOR_RECORD_H_

#include "flor/replay.h"

#include <map>
#include <memory>
#include <optional>
#include <set>

#include "checkpoint/materializer.h"
#include "common/logging.h"
#include "common/strings.h"
#include "flor/instrument.h"
#include "flor/probe.h"
#include "flor/replay_plan.h"

namespace flor {

namespace {

/// Executes one replay worker: the interpreter hooks that plan the main
/// loop (PlanPartitions) and restore or re-execute each SkipBlock.
/// Single-use; ReplayPartition is its only caller.
class ReplaySession : public exec::ExecHooks {
 public:
  ReplaySession(Env* env, ClusterPlanOptions request, int worker_id)
      : env_(env), request_(std::move(request)), worker_id_(worker_id) {}

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
  Status RestoreSkipBlock(ir::Loop* loop, const CheckpointRecord& rec,
                          exec::Frame* frame);

  Env* env_;
  const ClusterPlanOptions request_;
  const int worker_id_;
  /// Opened in Run(): the manifest's shard count decides the store layout,
  /// so replay reads are shard-aware without probing (and pre-sharding
  /// runs keep replaying as 1 shard).
  OpenedRun run_;

  ir::Program* program_ = nullptr;
  std::map<std::string, const CheckpointRecord*> records_by_key_;
  std::set<int32_t> probed_transitive_;
  ReplayResult* result_ = nullptr;  // live during Run
};

Result<ReplayResult> ReplaySession::Run(ir::Program* current_program,
                                        exec::Frame* frame) {
  ReplayResult result;
  result_ = &result;
  program_ = current_program;

  // Replay instruments the current version the same way record did; the
  // analysis only reads surface patterns, and log statements contribute no
  // side effects, so wrapped loops and changesets match the record run.
  InstrumentProgram(current_program);

  FLOR_ASSIGN_OR_RETURN(
      std::string recorded_source,
      env_->fs()->ReadFile(RunPaths(request_.run_prefix).Source()));
  FLOR_ASSIGN_OR_RETURN(result.probes,
                        ir::DiffForProbes(recorded_source,
                                          *current_program));
  probed_transitive_ =
      TransitivelyProbedLoops(*current_program, result.probes);

  // The manifest decides the shard layout; OpenRun builds the store with
  // the whole tier (bucket, bloom sized and seeded from the manifest), the
  // same way GC and the service Connection open a finished run.
  FLOR_ASSIGN_OR_RETURN(run_,
                        OpenRun(env_->fs(), request_.run_prefix,
                                request_.tier));
  for (const auto& rec : run_.manifest.records)
    records_by_key_[rec.key.ToString()] = &rec;

  exec::Interpreter interp(env_, &result.logs, this);
  const double start = env_->clock()->NowSeconds();
  FLOR_RETURN_IF_ERROR(interp.Run(current_program, frame));
  result.runtime_seconds = env_->clock()->NowSeconds() - start;

  result.bloom_skipped_probes = run_.store->tier_stats().bloom_skipped_probes;

  for (const auto& e : result.logs.WorkEntries()) {
    if (result.probes.probe_stmt_uids.count(e.stmt_uid))
      result.probe_entries.push_back(e);
  }
  result_ = nullptr;
  return result;
}

Status ReplaySession::RestoreSkipBlock(ir::Loop* loop,
                                       const CheckpointRecord& rec,
                                       exec::Frame* frame) {
  // result_ is only non-null while Run() is live, and RestoreSkipBlock is
  // only reached through the interpreter Run() drives.
  FLOR_CHECK(result_ != nullptr)
      << "RestoreSkipBlock outside a live ReplaySession::Run";
  bool from_bucket = false;
  FLOR_ASSIGN_OR_RETURN(std::string bytes,
                        run_.store->GetBytes(rec.key, &from_bucket));
  FLOR_RETURN_IF_ERROR(RestoreCheckpoint(
      bytes, [&](const std::string& name) -> Result<ir::Value*> {
        if (!frame->Has(name)) {
          return Status::ReplayAnomaly(
              StrCat("checkpoint of L", loop->id(), " restores variable '",
                     name, "' which is unbound on replay"));
        }
        return frame->Mutable(name);
      }));
  if (from_bucket) ++result_->bucket_faults;

  // Charge the restore latency (Ri) under a simulated clock. A
  // bucket-served restore pays the slower bucket read throughput.
  if (env_->clock()->is_simulated()) {
    const uint64_t nominal =
        rec.nominal_raw_bytes ? rec.nominal_raw_bytes : rec.raw_bytes;
    env_->clock()->AdvanceMicros(SecondsToMicros(
        from_bucket ? BucketRestoreSeconds(nominal) : RestoreSeconds(nominal)));
  }
  ++result_->skipblocks.restores;
  return Status::OK();
}

Result<exec::LoopAction> ReplaySession::OnSkipBlockEnter(
    ir::Loop* loop, const std::string& ctx, bool init_mode,
    exec::Frame* frame) {
  const CheckpointKey key{loop->id(), ctx};
  const auto it = records_by_key_.find(key.ToString());
  const CheckpointRecord* rec =
      it != records_by_key_.end() ? it->second : nullptr;

  if (init_mode) {
    // Replay initialization: SkipBlocks always restore; a missing
    // checkpoint here means the partition plan was invalid.
    if (rec == nullptr) {
      return Status::FailedPrecondition(
          StrCat("initialization needs checkpoint ", key.ToString(),
                 " which was not materialized on record"));
    }
    FLOR_RETURN_IF_ERROR(RestoreSkipBlock(loop, *rec, frame));
    ++result_->skipblocks.skipped;
    return exec::LoopAction::kSkip;
  }

  // Replay execution: a probed loop must re-execute to produce the
  // hindsight logs; an unprobed memoized loop is skipped.
  if (probed_transitive_.count(loop->id())) {
    ++result_->skipblocks.executed;
    return exec::LoopAction::kExecute;
  }
  if (rec != nullptr) {
    FLOR_RETURN_IF_ERROR(RestoreSkipBlock(loop, *rec, frame));
    ++result_->skipblocks.skipped;
    return exec::LoopAction::kSkip;
  }
  ++result_->skipblocks.executed;
  return exec::LoopAction::kExecute;
}

Status ReplaySession::OnSkipBlockExit(ir::Loop*, const std::string&,
                                      exec::Frame*, double) {
  // Replay never re-materializes.
  return Status::OK();
}

Result<std::optional<exec::MainLoopPlan>> ReplaySession::PlanMainLoop(
    ir::Loop*, int64_t trip_count, exec::Frame*) {
  FLOR_ASSIGN_OR_RETURN(
      PartitionPlan plan,
      PlanPartitions(program_, trip_count, run_.manifest, request_));
  result_->effective_init = plan.mode;
  result_->partition_segments = plan.segments;
  result_->active_workers = static_cast<int>(plan.workers.size());
  exec::MainLoopPlan out;
  if (worker_id_ >= static_cast<int>(plan.workers.size())) {
    // More workers than segments: this worker has nothing to do.
    result_->work_begin = result_->work_end = 0;
    out.covers_final_epoch = false;
    return std::optional<exec::MainLoopPlan>(std::move(out));
  }
  WorkerPlan& wp = plan.workers[static_cast<size_t>(worker_id_)];
  result_->work_begin = wp.work_begin;
  result_->work_end = wp.work_end;
  out.covers_final_epoch = wp.work_end == trip_count;
  out.iters = std::move(wp.iters);
  return std::optional<exec::MainLoopPlan>(std::move(out));
}

}  // namespace

Result<ReplayResult> ReplayPartition(const ProgramFactory& factory,
                                     FileSystem* fs,
                                     const ClusterPlanOptions& request,
                                     int worker_id, bool simulated_clock) {
  std::unique_ptr<Clock> clock;
  if (simulated_clock) {
    clock = std::make_unique<SimClock>();
  } else {
    clock = std::make_unique<WallClock>();
  }
  Env env(std::move(clock), fs);
  FLOR_ASSIGN_OR_RETURN(ProgramInstance instance, factory());
  ReplaySession session(&env, request, worker_id);
  exec::Frame frame;
  return session.Run(instance.program.get(), &frame);
}

Result<VanillaRunResult> VanillaRun(Env* env, ir::Program* program,
                                    exec::Frame* frame) {
  VanillaRunResult result;
  exec::Interpreter interp(env, &result.logs, nullptr);
  const double start = env->clock()->NowSeconds();
  FLOR_RETURN_IF_ERROR(interp.Run(program, frame));
  result.runtime_seconds = env->clock()->NowSeconds() - start;
  return result;
}

}  // namespace flor

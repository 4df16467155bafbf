#include "flor/record.h"

#include "analysis/augment.h"
#include "common/strings.h"

namespace flor {

RecordSession::RecordSession(Env* env, RecordOptions options)
    : env_(env), options_(std::move(options)), paths_(options_.run_prefix),
      adaptive_(options_.adaptive) {
  // The spool mirror doubles as the store's bucket tier: end-of-run GC
  // then demotes (deletes local copies, keeps the manifest) instead of
  // retiring outright, and replay configured with the same bucket prefix
  // faults demoted checkpoints back in.
  TierOptions tier;
  tier.bucket_prefix = options_.spool_prefix;
  store_ = CheckpointStore::Open(env_->fs(), paths_.CkptPrefix(), tier,
                                 nullptr, options_.ckpt_shards);
  if (!options_.spool_prefix.empty()) {
    // Spool-as-you-materialize: the materializer hands each durably stored
    // checkpoint to the spooler's shard-local batch. In wall mode this
    // runs on the materializer's worker thread, and a full spool queue
    // (max_queued_batches) backpressures that worker — and, through the
    // materializer's own bounded in-flight depth, eventually the training
    // thread — instead of buffering unboundedly. A service Connection
    // injects its shared queue through shared_spool; a standalone session
    // owns a private one.
    if (options_.shared_spool == nullptr) {
      spool_ = std::make_unique<SpoolQueue>(env_->fs(), store_->num_shards(),
                                            options_.spool);
    }
    SpoolQueue* spool =
        options_.shared_spool != nullptr ? options_.shared_spool
                                         : spool_.get();
    options_.materializer.on_durable = [this, spool](const CheckpointKey& key,
                                                     uint64_t stored_bytes) {
      const std::string src = store_->PathFor(key);
      spool->Enqueue(store_->ShardOf(key), src, store_->BucketPathFor(key),
                     stored_bytes);
    };
  }
  materializer_ = std::make_unique<Materializer>(env_, options_.materializer);
}

namespace {

// Per-shard spool delta across one session's run: a shared queue's
// counters are cumulative over every session it served, so a session
// reports what moved on its watch. first_error is kept only when it
// appeared during this window (error count grew).
SpoolReport SpoolReportDelta(const SpoolReport& after,
                             const SpoolReport& before) {
  SpoolReport d;
  d.objects = after.objects - before.objects;
  d.bytes = after.bytes - before.bytes;
  d.batches = after.batches - before.batches;
  d.retries = after.retries - before.retries;
  d.failed_objects = after.failed_objects - before.failed_objects;
  d.monthly_cost_dollars =
      after.monthly_cost_dollars - before.monthly_cost_dollars;
  if (d.failed_objects > 0 || d.retries > 0) d.first_error = after.first_error;
  return d;
}

}  // namespace

Result<RecordResult> RecordSession::Run(ir::Program* program,
                                        exec::Frame* frame) {
  // The manifest is a tab-separated line format: a workload name holding
  // either separator would persist a manifest that no reader parses.
  if (options_.workload.find_first_of("\t\n") != std::string::npos) {
    return Status::InvalidArgument(
        "workload name contains a tab or a newline");
  }
  RecordResult result;
  SpoolQueue* spool =
      !options_.spool_prefix.empty()
          ? (options_.shared_spool != nullptr ? options_.shared_spool
                                              : spool_.get())
          : nullptr;
  std::vector<SpoolReport> spool_baseline;
  if (spool != nullptr) {
    if (spool->num_shards() != store_->num_shards()) {
      return Status::InvalidArgument(
          StrCat("shared spool has ", spool->num_shards(),
                 " shard(s) but the run's checkpoint store has ",
                 store_->num_shards()));
    }
    for (int shard = 0; shard < spool->num_shards(); ++shard)
      spool_baseline.push_back(spool->ShardReport(shard));
  }
  result.instrument = InstrumentProgram(program);

  // Save the source before executing — this is the version replay diffs
  // against ("Flor stores a copy of the code", §3.1).
  FLOR_RETURN_IF_ERROR(
      env_->fs()->WriteFile(paths_.Source(), program->RenderSource()));

  manifest_.workload = options_.workload;
  manifest_.vanilla_runtime_seconds = options_.vanilla_runtime_seconds;
  manifest_.shard_count = store_->num_shards();

  exec::Interpreter interp(env_, &result.logs, this);
  const double start = env_->clock()->NowSeconds();
  FLOR_RETURN_IF_ERROR(interp.Run(program, frame));
  // The end-of-run join with background children counts toward runtime.
  materializer_->Drain();
  result.runtime_seconds = env_->clock()->NowSeconds() - start;

  // Spooling is a background tail (the paper's spooler outlives training):
  // drain it after the runtime measurement, so enabling it never shows up
  // as record overhead.
  if (spool != nullptr) {
    spool->Drain();
    for (int shard = 0; shard < spool->num_shards(); ++shard)
      result.spool_shard_reports.push_back(SpoolReportDelta(
          spool->ShardReport(shard),
          spool_baseline[static_cast<size_t>(shard)]));
    result.spool_report = AggregateSpoolReports(result.spool_shard_reports);
  }

  // Persist logs + manifest.
  for (ir::Loop* loop : program->AllLoops()) {
    const int64_t ni = adaptive_.executions(loop->id());
    if (ni > 0) manifest_.loop_executions[loop->id()] = ni;
  }
  manifest_.record_runtime_seconds = result.runtime_seconds;
  manifest_.c_estimate = adaptive_.c();
  FLOR_RETURN_IF_ERROR(
      env_->fs()->WriteFile(paths_.Logs(), result.logs.Serialize()));
  FLOR_RETURN_IF_ERROR(
      env_->fs()->WriteFile(paths_.Manifest(), manifest_.Serialize()));

  // Retirement closes the lifecycle: the full manifest is durable above.
  // With a spool mirror the store has a bucket tier attached, so this pass
  // *demotes* — local copies of old epochs are deleted, the manifest stays
  // complete, and replay faults them back in from the bucket. Without one
  // it prunes outright (atomic manifest rewrite first, shard-local deletes
  // after), so replay plans only ever see surviving epochs.
  if (options_.gc.keep_last_k > 0) {
    FLOR_ASSIGN_OR_RETURN(
        result.gc_report,
        RetireCheckpoints(store_.get(), &manifest_, paths_.Manifest(),
                          options_.gc));
  }

  result.skipblocks = stats_;
  result.manifest = manifest_;
  result.materialize_main_seconds = materializer_->total_main_thread_seconds();
  result.materialize_stall_seconds = materializer_->total_stall_seconds();
  result.group_commit = materializer_->group_commit_stats();
  result.adaptive_trace = adaptive_.trace();
  return result;
}

Result<exec::LoopAction> RecordSession::OnSkipBlockEnter(
    ir::Loop*, const std::string&, bool, exec::Frame*) {
  // Record execution always runs the enclosed loop.
  return exec::LoopAction::kExecute;
}

Status RecordSession::OnSkipBlockExit(ir::Loop* loop, const std::string& ctx,
                                      exec::Frame* frame,
                                      double compute_seconds) {
  ++stats_.executed;

  // Joint Invariant test comes first: "loops are tested after executing,
  // but before materialization" (§5.3.3).
  const uint64_t nominal = options_.nominal_checkpoint_bytes;
  double mi_estimate;
  if (nominal > 0) {
    mi_estimate = options_.materializer.costs.MaterializeSeconds(nominal);
  } else {
    // Estimate from the (cheaply computable) snapshot size of the changeset
    // variables currently in the frame.
    uint64_t bytes = 0;
    for (const auto& name : loop->analysis().changeset) {
      auto v = frame->Get(name);
      if (v.ok()) bytes += ir::SnapshotValue(*v).ApproxBytes();
    }
    mi_estimate = options_.materializer.costs.MaterializeSeconds(bytes);
  }
  if (!adaptive_.ShouldMaterialize(loop->id(), compute_seconds,
                                   mi_estimate)) {
    return Status::OK();
  }

  // Runtime changeset augmentation with library knowledge (§5.2.1): find
  // optimizers/schedulers in the changeset and pull in their referents.
  const std::vector<std::string> augmented =
      analysis::AugmentChangeset(*frame, loop->analysis().changeset);

  // Snapshot on the training thread (the COW copy), then hand off.
  NamedSnapshots snaps;
  for (const auto& name : augmented) {
    auto v = frame->Get(name);
    if (!v.ok()) {
      return Status::FailedPrecondition(
          StrCat("changeset variable '", name,
                 "' unbound at Loop End Checkpoint of L", loop->id()));
    }
    snaps.emplace_back(name, ir::SnapshotValue(*v));
  }

  CheckpointKey key{loop->id(), ctx};
  FLOR_ASSIGN_OR_RETURN(
      MaterializeReceipt receipt,
      materializer_->Materialize(store_.get(), key, std::move(snaps),
                                 nominal));
  ++stats_.materialized;

  CheckpointRecord rec;
  rec.key = key;
  rec.epoch = key.EpochIndex();
  rec.raw_bytes = receipt.raw_bytes;
  rec.stored_bytes = receipt.stored_bytes;
  rec.nominal_raw_bytes = nominal;
  rec.materialize_seconds =
      receipt.background_seconds > 0
          ? receipt.background_seconds
          : options_.materializer.costs.MaterializeSeconds(
                nominal ? nominal : receipt.raw_bytes);
  rec.shard = store_->ShardOf(key);
  manifest_.records.push_back(std::move(rec));
  return Status::OK();
}

Result<std::optional<exec::MainLoopPlan>> RecordSession::PlanMainLoop(
    ir::Loop*, int64_t, exec::Frame*) {
  // Record runs the full range; no generator re-planning.
  return std::optional<exec::MainLoopPlan>();
}

}  // namespace flor

#include "flor/record.h"

#include <algorithm>
#include <iterator>

#include "analysis/augment.h"
#include "common/strings.h"

namespace flor {

namespace {

/// Each checkpointed name is a field of the manifest's tab-separated
/// `ckpt_names` line, so it must be non-empty and hold no separator.
Status CheckCheckpointNames(int32_t loop_id,
                            const std::vector<std::string>& names) {
  for (const auto& name : names) {
    if (name.empty() || name.find_first_of("\t\n") != std::string::npos) {
      return Status::InvalidArgument(
          StrCat("a checkpointed name of L", loop_id,
                 " is empty or contains a tab or a newline"));
    }
  }
  return Status::OK();
}

}  // namespace

RecordSession::RecordSession(Env* env, RecordOptions options)
    : env_(env), options_(std::move(options)), paths_(options_.run_prefix),
      adaptive_(options_.adaptive) {
  // The spool mirror is the store's bucket tier: the ack copies each
  // checkpoint to its BucketPathFor.
  TierOptions tier;
  tier.bucket_prefix = options_.spool_prefix;
  store_ = CheckpointStore::Open(env_->fs(), paths_.CkptPrefix(), tier,
                                 nullptr, options_.ckpt_shards);
  // The durability ack sizes the checkpoint's manifest record and, with a
  // spool prefix, writes its bucket copy from the encoded bytes it carries
  // (spool-as-you-materialize). It runs after the checkpoint's
  // group-commit slot closes, so the mirror only ever holds acknowledged
  // checkpoints.
  options_.materializer.on_durable = [this](const CheckpointKey& key,
                                            const std::string& bytes) {
    acked_bytes_[key.ToString()] = bytes.size();
    if (options_.spool_prefix.empty()) return;
    SpoolBytes(store_->fs(), bytes, store_->BucketPathFor(key),
               &spool_report_);
  };
  materializer_ = std::make_unique<Materializer>(env_, options_.materializer);
}

Result<RecordResult> RecordSession::Run(ir::Program* program,
                                        exec::Frame* frame) {
  // The manifest is a tab-separated line format: a workload name holding
  // either separator would persist a manifest that no reader parses.
  if (options_.workload.find_first_of("\t\n") != std::string::npos) {
    return Status::InvalidArgument(
        "workload name contains a tab or a newline");
  }
  RecordResult result;
  result.instrument = InstrumentProgram(program);
  // The same holds for the names checkpoints hold. The static changesets
  // are checked before any write; names that augmentation adds from the
  // frame, before their loop's first checkpoint.
  for (const ir::Loop* loop : program->AllLoops()) {
    if (loop->analysis().instrumented) {
      FLOR_RETURN_IF_ERROR(
          CheckCheckpointNames(loop->id(), loop->analysis().changeset));
    }
  }

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
  // The end-of-run join with background children counts toward runtime,
  // and so do the bucket copies its last acks make. A checkpoint whose
  // background write failed was never acknowledged: the run fails here,
  // before any log or manifest names it, as a crashed run would.
  FLOR_RETURN_IF_ERROR(materializer_->Drain());
  result.runtime_seconds = env_->clock()->NowSeconds() - start;

  // Every checkpoint has been acknowledged, with its stored size.
  for (CheckpointRecord& rec : manifest_.records)
    rec.stored_bytes = acked_bytes_[rec.key.ToString()];
  result.spool_report = spool_report_;

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
  FLOR_RETURN_IF_ERROR(CheckCheckpointNames(loop->id(), augmented));

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
  rec.nominal_raw_bytes = nominal;
  rec.materialize_seconds =
      receipt.background_seconds > 0
          ? receipt.background_seconds
          : options_.materializer.costs.MaterializeSeconds(
                nominal ? nominal : receipt.raw_bytes);
  rec.shard = store_->ShardOf(key);
  manifest_.records.push_back(std::move(rec));

  // The manifest names what every checkpoint of the loop holds: replay
  // planning decides weak init's exactness from these names alone.
  auto [names, first] =
      manifest_.checkpoint_names.emplace(loop->id(), augmented);
  if (!first) {
    std::vector<std::string> common;
    std::set_intersection(names->second.begin(), names->second.end(),
                          augmented.begin(), augmented.end(),
                          std::back_inserter(common));
    names->second = std::move(common);
  }
  return Status::OK();
}

Result<std::optional<exec::MainLoopPlan>> RecordSession::PlanMainLoop(
    ir::Loop*, int64_t, exec::Frame*) {
  // Record runs the full range; no generator re-planning.
  return std::optional<exec::MainLoopPlan>();
}

}  // namespace flor

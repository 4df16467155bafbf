#include "checkpoint/materializer.h"

#include <algorithm>

namespace flor {

namespace {

/// State objects per checkpoint batch (the paper's 5000); only the
/// per-object strategy (IPC-Plasma) is sensitive to it.
constexpr double kObjectsPerBatch = 5000;

}  // namespace

const char* MaterializeStrategyName(MaterializeStrategy s) {
  switch (s) {
    case MaterializeStrategy::kBaseline:
      return "Baseline";
    case MaterializeStrategy::kIpcQueue:
      return "IPC-Queue";
    case MaterializeStrategy::kIpcPlasma:
      return "IPC-Plasma";
    case MaterializeStrategy::kFork:
      return "Fork";
  }
  return "?";
}

Materializer::Materializer(Env* env, MaterializerOptions options)
    : env_(env), options_(options) {
  if (options_.group_commit_window < 1) options_.group_commit_window = 1;
}

Materializer::~Materializer() { Drain(); }

void Materializer::NotifyDurable(const CheckpointKey& key,
                                 std::string bytes) {
  std::unique_lock<std::mutex> lock(gc_mu_);
  gc_slot_.emplace_back(key, std::move(bytes));
  ++gc_stats_.joins;
  if (static_cast<int>(gc_slot_.size()) >= options_.group_commit_window)
    CloseSlot(std::move(lock));
}

void Materializer::FlushGroupCommitSlot() {
  std::unique_lock<std::mutex> lock(gc_mu_);
  if (!gc_slot_.empty()) CloseSlot(std::move(lock));
}

void Materializer::CloseSlot(std::unique_lock<std::mutex> lock) {
  std::vector<std::pair<CheckpointKey, std::string>> closed;
  closed.swap(gc_slot_);
  ++gc_stats_.slots;
  ++gc_stats_.syncs;
  gc_stats_.max_slot_joins = std::max(gc_stats_.max_slot_joins,
                                      static_cast<int64_t>(closed.size()));
  lock.unlock();
  // Deliver outside the slot lock: on_durable may copy the checkpoint to
  // the bucket, and a slow delivery must not wedge other joiners.
  if (options_.on_durable) {
    for (const auto& [k, bytes] : closed) options_.on_durable(k, bytes);
  }
}

GroupCommitStats Materializer::group_commit_stats() const {
  std::lock_guard<std::mutex> lock(gc_mu_);
  return gc_stats_;
}

std::pair<double, double> Materializer::AccountSim(uint64_t nominal_bytes,
                                                   double* bg_seconds) {
  const double bytes = static_cast<double>(nominal_bytes);
  const double ser = bytes / kSerializeBps;
  const double io = bytes / kIoBps;
  // Durability sync, amortized over the group-commit slot: the slot leader
  // pays one durable_notify_seconds and the window's checkpoints share it.
  // The durable *ack* gates the training thread in every strategy — a
  // checkpoint is not committed until the sync acknowledges, regardless of
  // which side performed the store write — so the amortized share lands on
  // the main-thread leg. (Charging it to the background worker would hide
  // it entirely: bg time only surfaces through backpressure stalls.) This
  // is exactly the cost group commit exists to amortize. 0 by default —
  // identical to the pre-group-commit model.
  const double notify = options_.durable_notify_seconds /
                        static_cast<double>(options_.group_commit_window);

  double main_s = 0;
  double bg_s = 0;
  switch (options_.strategy) {
    case MaterializeStrategy::kBaseline:
      main_s = ser + io;
      bg_s = 0;
      break;
    case MaterializeStrategy::kIpcQueue:
      main_s = ser;
      bg_s = io;
      break;
    case MaterializeStrategy::kIpcPlasma:
      main_s = bytes / kPlasmaCopyBps +
               kPlasmaPerObjectSeconds * kObjectsPerBatch;
      bg_s = io;
      break;
    case MaterializeStrategy::kFork:
      main_s = bytes / kSnapshotBps + kForkBatchOverheadSeconds;
      bg_s = ser + io;
      break;
  }
  main_s += notify;
  *bg_seconds = bg_s;

  double stall_s = 0;
  if (bg_s > 0) {
    double now = env_->clock()->NowSeconds();
    // Retire completed jobs.
    while (!inflight_completions_.empty() &&
           inflight_completions_.front() <= now) {
      inflight_completions_.pop_front();
    }
    // Backpressure: the checkpoint buffer is full — the training thread
    // stalls until the oldest background job retires.
    if (static_cast<int>(inflight_completions_.size()) >=
        kMaxInFlightMaterializations) {
      const double wake = inflight_completions_.front();
      stall_s = std::max(0.0, wake - now);
      now = wake;
      inflight_completions_.pop_front();
    }
    // Enqueue the new background job on the single background worker.
    const double start = std::max(now + main_s, bg_busy_until_);
    const double done = start + bg_s;
    bg_busy_until_ = done;
    inflight_completions_.push_back(done);
  }
  return {main_s + stall_s, stall_s};
}

Result<MaterializeReceipt> Materializer::Materialize(
    CheckpointStore* store, const CheckpointKey& key, NamedSnapshots snaps,
    uint64_t nominal_raw_bytes) {
  MaterializeReceipt receipt;
  receipt.raw_bytes = SnapshotsRawBytes(snaps);
  const uint64_t nominal =
      nominal_raw_bytes ? nominal_raw_bytes : receipt.raw_bytes;

  if (env_->clock()->is_simulated()) {
    // Real serialize + write (synchronously, correctness path), simulated
    // time (cost model path).
    std::string bytes = EncodeCheckpoint(snaps);
    FLOR_RETURN_IF_ERROR(store->PutBytes(key, bytes));
    NotifyDurable(key, std::move(bytes));

    double bg_s = 0;
    auto [main_s, stall_s] = AccountSim(nominal, &bg_s);
    env_->clock()->AdvanceMicros(SecondsToMicros(main_s));
    receipt.main_thread_seconds = main_s;
    receipt.stall_seconds = stall_s;
    receipt.background_seconds = bg_s;
  } else {
    // Wall mode: measure the blocking portion for real.
    const double start = env_->clock()->NowSeconds();
    if (options_.strategy == MaterializeStrategy::kBaseline) {
      std::string bytes = EncodeCheckpoint(snaps);
      FLOR_RETURN_IF_ERROR(store->PutBytes(key, bytes));
      NotifyDurable(key, std::move(bytes));
      receipt.main_thread_seconds = env_->clock()->NowSeconds() - start;
      receipt.background_seconds = 0;
    } else {
      // The snapshot deep-copy happened in the caller (SnapshotValue); the
      // remaining blocking work is handing the batch to the worker.
      if (!queue_) queue_ = std::make_unique<BackgroundQueue>();
      // Backpressure: block only until a slot frees, like the sim model's
      // stall-until-oldest-child-retires (a full Drain would serialize
      // the training thread behind every queued checkpoint).
      queue_->WaitUntilInFlightBelow(kMaxInFlightMaterializations);
      auto shared = std::make_shared<NamedSnapshots>(std::move(snaps));
      // `this` outlives the job: the destructor drains the queue before
      // any member is torn down. NotifyDurable is internally locked.
      queue_->Submit([this, shared, store, key]() mutable {
        std::string bytes = EncodeCheckpoint(*shared);
        shared.reset();
        const Status s = store->PutBytes(key, bytes);
        if (!s.ok()) {
          // Unacknowledged: Drain reports it, so the run fails instead of
          // indexing a checkpoint that never landed.
          if (background_status_.ok()) background_status_ = s;
          return;
        }
        // The slot keeps the encoded bytes for the ack, which mirrors the
        // checkpoint from them instead of reading the object back.
        NotifyDurable(key, std::move(bytes));
      });
      receipt.main_thread_seconds = env_->clock()->NowSeconds() - start;
      receipt.background_seconds = MaterializeSeconds(nominal);
    }
  }

  total_main_seconds_ += receipt.main_thread_seconds;
  total_stall_seconds_ += receipt.stall_seconds;
  return receipt;
}

Status Materializer::Drain() {
  if (queue_) queue_->Drain();
  // All store writes have landed; deliver the partial slot so every acked
  // checkpoint's notification has fired before Drain returns (the record
  // session mirrors and then persists the manifest on that guarantee).
  FlushGroupCommitSlot();
  if (env_->clock()->is_simulated() && !inflight_completions_.empty()) {
    const double last = inflight_completions_.back();
    const double now = env_->clock()->NowSeconds();
    if (last > now)
      env_->clock()->AdvanceMicros(SecondsToMicros(last - now));
    inflight_completions_.clear();
  }
  return background_status_;
}

}  // namespace flor

// Background materialization (paper §5.1, Fig. 5).
//
// "To materialize a record checkpoint, the main process forks and then
//  immediately resumes model training; the child process serializes the
//  checkpoint, writes it to disk, and then terminates."
//
// Four strategies are modeled, matching Fig. 5's comparison. What differs
// is *which phases block the training thread*:
//
//   strategy     main thread                      background
//   ----------   ------------------------------   -------------------
//   kBaseline    serialize + write                (nothing)
//   kIpcQueue    serialize (IPC requires it)      write
//   kIpcPlasma   shared-memory copy (arrays only) write
//   kFork        COW snapshot + fork overhead     serialize + write
//
// The materializer always performs the real serialize/compress/write (state
// correctness is never simulated). Time is accounted two ways:
//   * SimClock env: phase durations come from the paper platform's rates
//     (the constants below) applied to the checkpoint's *nominal* byte
//     size, charged to the simulated clock; background work occupies a
//     simulated single worker with bounded in-flight depth (the paper
//     batches to keep ≤ ~2 live children), and the main thread stalls when
//     the buffer is full — this is what makes fine-tuning workloads blow up
//     without adaptive checkpointing (Fig 7).
//   * WallClock env: phases run for real; blocking portions are measured,
//     background work goes through a BackgroundQueue.

#ifndef FLOR_CHECKPOINT_MATERIALIZER_H_
#define FLOR_CHECKPOINT_MATERIALIZER_H_

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/store.h"
#include "env/background_queue.h"
#include "env/env.h"

namespace flor {

/// Materialization strategy (Fig. 5 legend).
enum class MaterializeStrategy : uint8_t {
  kBaseline = 0,   ///< "cloudpickle": serialize + write on main thread
  kIpcQueue = 1,   ///< multiprocessing queue: serialize main, write bg
  kIpcPlasma = 2,  ///< Apache Plasma: shm copy main, write bg (arrays only)
  kFork = 3,       ///< fork + COW: snapshot main, serialize + write bg
};

const char* MaterializeStrategyName(MaterializeStrategy s);

/// The simulated-time cost model: the paper's platform (§5.1/§6), EBS at
/// 7 Gbps, serialization 4.3x the I/O cost, memcpy-speed snapshots, and the
/// restore factor c = 1.38 measured on it (§5.3.2). Every simulated record
/// and replay prices its phases with these rates.
inline constexpr double kSnapshotBps = 4.0e9;   ///< COW page-copy / memcpy
inline constexpr double kIoBps = 875e6;         ///< EBS 7 Gbps
inline constexpr double kSerializeBps = kIoBps / 4.3;  ///< 4.3x I/O cost
inline constexpr double kForkBatchOverheadSeconds = 0.004;  ///< per batch
inline constexpr double kPlasmaCopyBps = 3.0e9;  ///< shm copy below memcpy
inline constexpr double kPlasmaPerObjectSeconds = 5e-7;  ///< object table
inline constexpr double kRestoreFactor = 1.38;  ///< c: Ri = c * Mi
/// Bucket reads run at S3 GET throughput (~2.1 Gbps, same order as the
/// paper's spool pricing platform) instead of EBS.
inline constexpr double kS3ReadBps = 262.5e6;

/// Mi: full background materialization time for `bytes`.
inline double MaterializeSeconds(uint64_t bytes) {
  return static_cast<double>(bytes) / kSerializeBps +
         static_cast<double>(bytes) / kIoBps;
}

/// Ri = c * Mi.
inline double RestoreSeconds(uint64_t bytes) {
  return kRestoreFactor * MaterializeSeconds(bytes);
}

/// Ri for a restore served by the bucket tier: the serialize leg is
/// unchanged, the I/O leg runs at bucket read throughput.
inline double BucketRestoreSeconds(uint64_t bytes) {
  return kRestoreFactor * (static_cast<double>(bytes) / kSerializeBps +
                           static_cast<double>(bytes) / kS3ReadBps);
}

/// Group-commit slot accounting across a materializer's lifetime.
struct GroupCommitStats {
  int64_t slots = 0;           ///< slots closed (incl. the drain flush)
  int64_t joins = 0;           ///< checkpoints that joined a slot
  int64_t syncs = 0;           ///< durable syncs paid (one per slot)
  int64_t max_slot_joins = 0;  ///< largest slot delivered

  double JoinsPerSlot() const {
    return slots > 0 ? static_cast<double>(joins) /
                           static_cast<double>(slots)
                     : 0;
  }
};

/// Timing outcome of one Materialize call.
struct MaterializeReceipt {
  double main_thread_seconds = 0;  ///< blocked training-thread time
  double stall_seconds = 0;        ///< part of main time due to backpressure
  double background_seconds = 0;   ///< bg serialize/write duration (Mi part)
  uint64_t raw_bytes = 0;          ///< actual snapshot size
};

/// Background jobs in flight before the training thread stalls ("we have
/// never seen more than two live children").
inline constexpr int kMaxInFlightMaterializations = 2;

/// Options for the materializer.
struct MaterializerOptions {
  MaterializeStrategy strategy = MaterializeStrategy::kFork;
  /// Group-commit slot size: durable notifications are batched until a slot
  /// holds this many checkpoints, then delivered together behind one
  /// amortized sync (the slot leader pays durable_notify_seconds, followers
  /// piggyback). 1 (the default) delivers each notification immediately —
  /// byte-identical to the per-checkpoint path. End-of-run Drain() flushes
  /// a partial slot, so no acked checkpoint's notification is ever lost.
  int group_commit_window = 1;
  /// Cost of making one checkpoint's durability *visible*, the fsync (or
  /// bucket round trip) behind each durable notification, in simulated
  /// seconds. 0 (the default) models buffered writes; production-rate
  /// benches set an fsync-scale value. The ack gates the training thread in
  /// every strategy, so the charge lands on the main-thread leg, amortized
  /// as durable_notify_seconds / group_commit_window per checkpoint: one
  /// sync per closed slot, piggybacked by the slot's followers (WiredTiger
  /// log-slot style).
  double durable_notify_seconds = 0.0;
  /// The durability ack: invoked once per checkpoint whose bytes are in
  /// the store (PutBytes returned OK), after its group-commit slot closes,
  /// with the encoded bytes that were stored (their size is the stored
  /// size). The slot holds each checkpoint's encoded buffer until its ack
  /// fires, so a window of W holds at most W buffers. The ack runs inline
  /// on the training thread under a simulated clock or the Baseline
  /// strategy, on the background worker otherwise, and never for a failed
  /// write. It must not call back into the materializer. The record
  /// session takes each checkpoint's stored size from it and, with a
  /// spool prefix, writes the bucket copy from those bytes, so the record
  /// path reads nothing back.
  std::function<void(const CheckpointKey& key, const std::string& bytes)>
      on_durable;
};

/// Serializes + writes checkpoints, off the training thread when the
/// strategy allows. Thread-compatible: used from the single training thread.
class Materializer {
 public:
  /// Does not own `env`. Uses env->clock() for accounting; in wall mode a
  /// real background worker is spun up lazily.
  Materializer(Env* env, MaterializerOptions options);
  ~Materializer();

  /// Stores `snaps` under `key` in `store`. `nominal_raw_bytes` scales the
  /// simulated costs (0 = use the actual snapshot size).
  Result<MaterializeReceipt> Materialize(CheckpointStore* store,
                                         const CheckpointKey& key,
                                         NamedSnapshots snaps,
                                         uint64_t nominal_raw_bytes);

  /// Blocks until all background work has completed and every ack has
  /// been delivered. In sim mode, advances the clock to the last
  /// completion (end-of-run join, like waiting for forked children).
  /// Returns the first background store write that failed (OK if none):
  /// that checkpoint was never acknowledged.
  Status Drain();

  /// Totals across all Materialize calls.
  double total_main_thread_seconds() const { return total_main_seconds_; }
  double total_stall_seconds() const { return total_stall_seconds_; }

  /// Slot accounting. Stable after Drain(); safe to call concurrently with
  /// background notifications (internally locked).
  GroupCommitStats group_commit_stats() const;

  const MaterializerOptions& options() const { return options_; }

 private:
  /// Simulated-time accounting; returns (main_seconds, stall_seconds).
  std::pair<double, double> AccountSim(uint64_t nominal_bytes,
                                       double* bg_seconds);

  /// Group-commit entry point for one durably stored checkpoint and its
  /// encoded bytes: joins the open slot and closes it (CloseSlot) when it
  /// reaches group_commit_window. Called inline on the training thread
  /// (sim / Baseline) or on the background worker (wall mode).
  void NotifyDurable(const CheckpointKey& key, std::string bytes);

  /// Closes a partial slot at end of run (one more amortized sync when
  /// non-empty). Drain() calls this after the queue join, preserving the
  /// "every acked checkpoint's notification fired before Drain returns"
  /// contract the record session relies on.
  void FlushGroupCommitSlot();

  /// Closes the open slot under `lock` (held on gc_mu_): counts one slot
  /// and its sync, then releases the lock and delivers the slot's
  /// on_durable notifications in store order (outside the lock, so a slow
  /// delivery, such as a bucket copy, never holds it) and frees their
  /// buffers.
  void CloseSlot(std::unique_lock<std::mutex> lock);

  Env* env_;
  MaterializerOptions options_;

  /// Open group-commit slot (keys + encoded bytes in store order) and its
  /// stats.
  mutable std::mutex gc_mu_;
  std::vector<std::pair<CheckpointKey, std::string>> gc_slot_;
  GroupCommitStats gc_stats_;

  // Sim-mode background ledger: completion times (seconds) of in-flight
  // jobs, and when the single background worker frees up.
  std::deque<double> inflight_completions_;
  double bg_busy_until_ = 0;

  // Wall-mode worker, and the first store write it failed (written only
  // by the worker; read by Drain once the queue is idle).
  std::unique_ptr<BackgroundQueue> queue_;
  Status background_status_;

  double total_main_seconds_ = 0;
  double total_stall_seconds_ = 0;
};

}  // namespace flor

#endif  // FLOR_CHECKPOINT_MATERIALIZER_H_

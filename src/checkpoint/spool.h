// Checkpoint spooling to cloud object storage (paper §6.2, Table 4).
//
// "The checkpoints materialized by Flor record were compressed by a
//  background process, before being spooled to an S3 bucket."
//
// The spooler copies checkpoint objects from a local prefix to an "s3/"
// prefix on the same FileSystem (the MemFileSystem doubles as the simulated
// bucket) and prices the result at S3 standard-storage rates.
//
// SpoolQueue is the production path: objects are grouped into size-bounded
// batches per shard, each batch runs as one background job on a
// BackgroundQueue worker (the paper's single background child), transient
// write failures are retried per object, and the outcome is reported per
// shard. Because every object lands with one atomic WriteFile, a failed or
// killed batch never un-spools objects that already copied — shard-local
// progress is monotone.

#ifndef FLOR_CHECKPOINT_SPOOL_H_
#define FLOR_CHECKPOINT_SPOOL_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "checkpoint/store.h"
#include "common/status.h"
#include "env/background_queue.h"
#include "env/filesystem.h"

namespace flor {

/// Outcome of spooling (one shard's, or aggregated).
struct SpoolReport {
  int64_t objects = 0;         ///< objects successfully copied
  uint64_t bytes = 0;          ///< bytes successfully copied
  int64_t batches = 0;         ///< spool jobs executed
  int64_t retries = 0;         ///< failed write attempts that were retried
  int64_t failed_objects = 0;  ///< objects abandoned after max attempts
  double monthly_cost_dollars = 0;
  std::string first_error;     ///< first failure message (diagnostics)

  bool ok() const { return failed_objects == 0; }
};

/// Sums reports (per-shard -> store-wide); keeps the first error seen.
SpoolReport AggregateSpoolReports(const std::vector<SpoolReport>& reports);

/// S3 standard storage price used throughout the benches ($/GB/month).
inline constexpr double kS3DollarsPerGBMonth = 0.023;

/// Monthly cost of storing `bytes` at S3 standard rates.
double S3MonthlyCost(uint64_t bytes);

/// Spool batching/retry knobs.
struct SpoolOptions {
  /// A shard's pending batch flushes once it holds this many bytes...
  uint64_t max_batch_bytes = 8ull << 20;
  /// ...or this many objects, whichever comes first.
  int64_t max_batch_objects = 64;
  /// Write attempts per object before it is abandoned (>= 1).
  int max_attempts = 3;
  /// Backpressure: producers block once this many batch jobs are queued
  /// behind the background worker (0 disables the bound).
  size_t max_queued_batches = 8;
};

/// Asynchronous batched spooler. Enqueue() is thread-safe (per-shard
/// locking, same discipline as the sharded CheckpointStore); batches
/// execute on a single background worker. Reports are stable after
/// Drain().
class SpoolQueue {
 public:
  /// Does not own `fs`. `num_shards` sizes the per-shard batching/report
  /// state (use 1 for unsharded spools).
  SpoolQueue(FileSystem* fs, int num_shards, SpoolOptions options = {});

  /// Drains outstanding batches.
  ~SpoolQueue();

  SpoolQueue(const SpoolQueue&) = delete;
  SpoolQueue& operator=(const SpoolQueue&) = delete;

  /// Adds one object copy (src_path -> dst_path) to `shard`'s pending
  /// batch, flushing the batch as a background job when it exceeds the
  /// configured bounds. `size_hint` skips the size stat when the caller
  /// already knows the object size.
  void Enqueue(int shard, std::string src_path, std::string dst_path,
               uint64_t size_hint = 0);

  /// Submits every shard's partial batch (without waiting).
  void Flush();

  /// Flush() + blocks until all submitted batches have run.
  void Drain();

  /// One shard's report. Call after Drain() for final numbers.
  SpoolReport ShardReport(int shard) const;

  /// Aggregate over all shards.
  SpoolReport TotalReport() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Item {
    std::string src;
    std::string dst;
    uint64_t size = 0;
  };
  struct ShardState {
    mutable std::mutex mu;
    std::vector<Item> pending;
    uint64_t pending_bytes = 0;
    SpoolReport report;
  };

  /// Moves `shard`'s pending items out (under its lock) and submits them
  /// as one batch job.
  void FlushShard(int shard);

  /// Submits one batch to the background worker, blocking while
  /// max_queued_batches jobs are already in flight (hard bound).
  void SubmitBatch(int shard, std::vector<Item> batch);

  /// Executes one batch on the background worker.
  void RunBatch(int shard, std::vector<Item> items);

  FileSystem* fs_;
  SpoolOptions options_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  /// Serializes the wait-for-slot + Submit pair so max_queued_batches is
  /// a hard bound under concurrent flushers.
  std::mutex submit_mu_;
  BackgroundQueue queue_;
};

/// Spools every object of `store` (all shards, layout preserved) under
/// `dst_prefix`, synchronously: enqueue + drain. Failures are carried in
/// the report (`ok()` / `failed_objects`), not as a Status — partial
/// progress is real and already priced.
SpoolReport SpoolStore(const CheckpointStore& store,
                       const std::string& dst_prefix,
                       const SpoolOptions& options = SpoolOptions());

}  // namespace flor

#endif  // FLOR_CHECKPOINT_SPOOL_H_

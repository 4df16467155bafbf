// Checkpoint spooling to cloud object storage (paper §6.2, Table 4).
//
// "The checkpoints materialized by Flor record were compressed by a
//  background process, before being spooled to an S3 bucket."
//
// The spooler copies checkpoint objects from a local prefix to an "s3/"
// prefix on the same FileSystem (the MemFileSystem doubles as the simulated
// bucket) and prices the result at S3 standard-storage rates.
//
// SpoolBytes is the one bucket write: a record session calls it from the
// materializer's durability ack, once per acknowledged checkpoint, with
// the encoded bytes the ack carries, so the copy runs on whichever thread
// delivers the ack (the materializer's worker, or the training thread),
// reads nothing back, and the mirror only ever holds acknowledged
// checkpoints. SpoolObject reads an object and writes it the same way;
// SpoolStore mirrors a whole store with it in a synchronous loop. Every
// object lands with one atomic WriteFile, so a failed or killed spool
// never un-spools objects that already copied: shard-local progress is
// monotone.

#ifndef FLOR_CHECKPOINT_SPOOL_H_
#define FLOR_CHECKPOINT_SPOOL_H_

#include <string>

#include "checkpoint/store.h"
#include "env/filesystem.h"

namespace flor {

/// Outcome of spooling, totalled over every copy into it (a record
/// run's acks, or one SpoolStore pass).
struct SpoolReport {
  int64_t objects = 0;         ///< objects successfully copied
  uint64_t bytes = 0;          ///< bytes successfully copied
  int64_t batches = 0;         ///< copies attempted (one per object)
  int64_t retries = 0;         ///< failed write attempts that were retried
  int64_t failed_objects = 0;  ///< objects abandoned after max attempts
  double monthly_cost_dollars = 0;
  std::string first_error;     ///< first failure message (diagnostics)

  bool ok() const { return failed_objects == 0; }
};

/// S3 standard storage price used throughout the benches ($/GB/month).
inline constexpr double kS3DollarsPerGBMonth = 0.023;

/// Monthly cost of storing `bytes` at S3 standard rates.
double S3MonthlyCost(uint64_t bytes);

/// Bucket write attempts per object before it is abandoned.
inline constexpr int kSpoolMaxAttempts = 3;

/// Writes `bytes` to `dst` on `fs` with one atomic WriteFile, attempted up
/// to kSpoolMaxAttempts times. The outcome is added to `*report` (an
/// exhausted write counts in failed_objects and first_error) rather than
/// returned: partial progress is real and already priced. Not thread-safe
/// on `*report`.
void SpoolBytes(FileSystem* fs, const std::string& bytes,
                const std::string& dst, SpoolReport* report);

/// Copies the object at `src` to `dst` on `fs`: one read, then SpoolBytes.
/// A missing or unreadable source counts as a failed object.
void SpoolObject(FileSystem* fs, const std::string& src,
                 const std::string& dst, SpoolReport* report);

/// Spools every object of `store` (all shards, layout preserved) under
/// `dst_prefix`, one SpoolObject after another. Failures are carried in
/// the report (`ok()` / `failed_objects`), not as a Status.
SpoolReport SpoolStore(const CheckpointStore& store,
                       const std::string& dst_prefix);

}  // namespace flor

#endif  // FLOR_CHECKPOINT_SPOOL_H_

// Shard-aware checkpoint retirement (the tail of the paper's background
// lifecycle: record → materialize → spool → retire).
//
// A long record run accumulates one Loop End Checkpoint per accepted loop
// execution; replay only ever needs a recent suffix of them (a worker
// restores from the newest boundary at or before its partition start). The
// GC retires everything older under a keep-last-K-per-loop policy:
//
//   * planning is manifest-only — the manifest already records every
//     object's loop, epoch, and shard, so retirement never lists or scans
//     the store;
//   * the pruned manifest is persisted FIRST (one atomic WriteFile), so a
//     reader planning a replay at any instant sees either the old complete
//     index or the new pruned one — never a plan that references a deleted
//     object;
//   * object deletes then proceed shard by shard through the store's
//     per-shard writer locks. A crash mid-delete leaves orphaned objects
//     (bytes the manifest no longer references), which are harmless to
//     replay and reclaimed by the next GC's orphan accounting — it never
//     leaves a manifest record without its object.
//
// Epochs a live replay plan restores from can be pinned
// (GcPolicy::pinned_epochs, typically from flor::PlannedRestoreEpochs) so
// retention never deletes a checkpoint a planned-but-not-yet-run replay
// needs. Pins protect *epoch-level* records only (ctx is a single "e=N"
// segment): worker init restores the epoch-level loops and skips their
// bodies, so nested-loop checkpoints are never init-restore targets and
// retire by recency alone.
//
// With a bucket tier named (the run's spool mirror), retirement is
// *tiered*:
//
//   * RetireRun demotes — it deletes only the local copy of each retired
//     object (after verifying the bucket mirror holds it) and leaves the
//     manifest intact, because the record is still readable through the
//     bucket fall-through. Unspooled objects are skipped, so demotion
//     never makes a record unreadable.
//   * RetireBucketRun is the final-tier GC (keep-newest-K', pins
//     honored): it follows the same manifest-first ordering contract —
//     prune + persist the manifest atomically, then delete the bucket
//     object and any lingering local copy.
//   * ReconcileRun is the off-hot-path sweep reclaiming the orphans both
//     passes leak by design on failed deletes (and the ones rehydration
//     resurrects when it races local GC). Run it between sessions, not
//     concurrently with a record run: a mid-materialize object is not yet
//     in the manifest and would be swept as an orphan.
//
// Every pass takes a run prefix and opens the run with OpenRun
// (checkpoint/store.h), so it always prunes the manifest that sits beside
// the store it deletes from; each retiring pass takes a GcPolicy of its
// own tier. Record and replay never retire: a caller runs a pass on a
// finished run (the service's background GC does so after each record),
// and scripts/check.sh keeps this header out of the rest of src/.

#ifndef FLOR_CHECKPOINT_GC_H_
#define FLOR_CHECKPOINT_GC_H_

#include <string>
#include <vector>

#include "checkpoint/store.h"
#include "env/filesystem.h"

namespace flor {

/// Retention policy for one tier of a run's checkpoint store. The local
/// tier (RetireRun) and the bucket tier (RetireBucketRun) each take one,
/// so local K and bucket K' are tuned independently (K' >= K keeps the
/// bucket a superset of the local tier).
struct GcPolicy {
  /// Keep the checkpoints of the K most recent epochs per loop; 0 disables
  /// retirement entirely (the GC is then a guaranteed no-op: no manifest
  /// rewrite, no deletes, byte-identical store).
  int64_t keep_last_k = 0;
  /// Main-loop epochs that must survive regardless of recency — the epochs
  /// a concurrently planned replay will restore from (sorted or not; the
  /// GC treats it as a set). Protects epoch-level records (single-segment
  /// ctx) at those epochs; nested-loop records are not init-restore
  /// targets and retire by recency regardless of pins.
  std::vector<int64_t> pinned_epochs;
};

/// Outcome of one retirement pass, totalled over the run's shards.
struct GcReport {
  int64_t retired_objects = 0;  ///< objects deleted
  uint64_t retired_bytes = 0;   ///< their stored (on-disk) bytes
  /// Deletes that failed (flaky store): the object is already unreferenced
  /// by the manifest, so it is a leaked orphan, not a correctness problem.
  int64_t failed_deletes = 0;
  /// Objects the manifest referenced but the store no longer had (e.g. a
  /// prior GC's delete landed but its crash lost nothing else).
  int64_t already_absent = 0;
  /// Demotion only: retired records whose local copy was kept because the
  /// bucket mirror does not hold them yet (not spooled, or the spool
  /// failed). Demotion never makes a record unreadable.
  int64_t skipped_unspooled = 0;
  int64_t surviving_records = 0;    ///< manifest records after the pass
  bool manifest_rewritten = false;  ///< false when nothing retired
  /// True when the pass demoted (bucket tier attached: local deletes only,
  /// manifest intact) rather than retired outright.
  bool demoted_to_bucket = false;

  /// True when every planned delete landed (orphan-free pass).
  bool ok() const { return failed_deletes == 0; }
};

/// Outcome of one ReconcileRun sweep, totalled over both tiers' shards.
struct ReconcileReport {
  int64_t local_orphans = 0;   ///< unreferenced local objects deleted
  int64_t bucket_orphans = 0;  ///< unreferenced bucket objects deleted
  uint64_t orphan_bytes = 0;   ///< their bytes, both tiers
  int64_t failed_deletes = 0;  ///< orphans that survived (still orphans)

  bool ok() const { return failed_deletes == 0; }
};

/// Pure planning: indices into `manifest.records` that `policy` retires,
/// in record order. Keeps, per loop: the K most recent distinct epochs,
/// every pinned epoch on epoch-level records (single-segment ctx — the
/// only records init-mode restores), and every record without an epoch
/// index (top-level loops, ctx-less checkpoints — they are not part of
/// the epoch timeline).
std::vector<size_t> PlanRetirement(const Manifest& manifest,
                                   const GcPolicy& policy);

/// Retires checkpoints of the run at `run_prefix`, opened with OpenRun
/// (its manifest, and its store with the manifest's shard count and, when
/// `bucket_prefix` is non-empty, that bucket tier).
///
/// Without a bucket tier: prunes the manifest, persists it atomically at
/// the run's manifest path, then deletes the retired objects shard by
/// shard. Delete failures do not fail the pass (see
/// GcReport::failed_deletes); only an open or manifest persist failure
/// returns non-OK (nothing is deleted in that case).
///
/// With a bucket tier: *demotes* instead — deletes only the local copies
/// of retired objects whose bucket mirror copy exists
/// (GcReport::skipped_unspooled counts the rest) and leaves the manifest
/// untouched, since every record stays readable through the bucket
/// fall-through. Final-tier reclamation is RetireBucketRun.
///
/// With `policy.keep_last_k == 0` this is a guaranteed no-op either way.
Result<GcReport> RetireRun(FileSystem* fs, const std::string& run_prefix,
                           const GcPolicy& policy,
                           const std::string& bucket_prefix = "");

/// Final-tier retirement of the run at `run_prefix` with the bucket tier
/// at `bucket_prefix` (an empty prefix is InvalidArgument): prunes the
/// manifest of records older than the newest K' epochs per loop (pins
/// honored, same planner as the local tier) and persists it FIRST — the
/// same ordering contract as local GC — then deletes each retired
/// record's bucket object and any lingering local copy through the
/// per-shard writer locks. Per record: a hard delete failure on either
/// tier counts as failed_deletes (the orphan sweep reclaims it); both
/// tiers already gone counts as already_absent; otherwise retired.
Result<GcReport> RetireBucketRun(FileSystem* fs, const std::string& run_prefix,
                                 const std::string& bucket_prefix,
                                 const GcPolicy& policy);

/// Off-hot-path orphan sweep of the run at `run_prefix`: diffs its
/// manifest against ListPrefix of every shard (local tier and, when
/// `bucket_prefix` is non-empty, bucket tier) and deletes unreferenced
/// objects through the per-shard writer locks. Reclaims what retirement
/// leaks by design on failed deletes or crashes, what rehydration
/// resurrects when it races local GC, and the temp files a crashed write
/// leaves beside an object in either tier. Must not run concurrently with
/// a record session (mid-materialize objects are not in the manifest yet).
Result<ReconcileReport> ReconcileRun(FileSystem* fs,
                                     const std::string& run_prefix,
                                     const std::string& bucket_prefix = "");

}  // namespace flor

#endif  // FLOR_CHECKPOINT_GC_H_

#include "checkpoint/gc.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>

namespace flor {

namespace {

/// True when `rec` is an epoch-level checkpoint — its ctx is a single
/// "e=N" segment, i.e. a direct child of the main loop. Init-mode restore
/// only ever targets these (restoring an epoch-level loop *skips* its
/// body, so deeper nested loops are never entered during init), which is
/// why epoch pins protect exactly this class of records.
bool IsEpochLevel(const CheckpointRecord& rec) {
  return rec.key.ctx.find('/') == std::string::npos;
}

/// The records at `retire`, shard by shard (manifest order within a
/// shard) — the order every pass deletes in. Planning is manifest-only:
/// the store is never listed or scanned.
std::vector<CheckpointRecord> RetiredByShard(
    const Manifest& manifest, const std::vector<size_t>& retire) {
  std::vector<CheckpointRecord> retired;
  retired.reserve(retire.size());
  for (size_t idx : retire) retired.push_back(manifest.records[idx]);
  std::stable_sort(retired.begin(), retired.end(),
                   [](const CheckpointRecord& a, const CheckpointRecord& b) {
                     return a.shard < b.shard;
                   });
  return retired;
}

/// Prunes the retire set from the run's manifest and persists it FIRST,
/// at the manifest path beside the store: from this atomic write on, no
/// replay plan can reference a retired epoch. If the persist fails, the
/// caller deletes nothing.
Status PersistPrunedManifest(FileSystem* fs, const std::string& run_prefix,
                             const std::vector<size_t>& retire,
                             Manifest* manifest, GcReport* report) {
  const std::set<size_t> retire_set(retire.begin(), retire.end());
  std::vector<CheckpointRecord> pruned;
  pruned.reserve(manifest->records.size() - retire.size());
  for (size_t i = 0; i < manifest->records.size(); ++i) {
    if (!retire_set.count(i)) pruned.push_back(manifest->records[i]);
  }
  manifest->records = std::move(pruned);
  FLOR_RETURN_IF_ERROR(
      fs->WriteFile(RunPaths(run_prefix).Manifest(), manifest->Serialize()));
  report->manifest_rewritten = true;
  report->surviving_records = static_cast<int64_t>(manifest->records.size());
  return Status::OK();
}

/// Counts one local delete of `rec`: reclaimed, already gone, or failed
/// (an orphan for the reconciliation sweep).
void CountDelete(const Status& s, const CheckpointRecord& rec,
                 GcReport* report) {
  if (s.ok()) {
    ++report->retired_objects;
    report->retired_bytes += rec.stored_bytes;
  } else if (s.IsNotFound()) {
    ++report->already_absent;
  } else {
    ++report->failed_deletes;
  }
}

/// Opens a finished run for a between-sessions maintenance pass: the
/// bucket tier (when named) is what makes the pass tiered.
Result<OpenedRun> OpenRunForGc(FileSystem* fs, const std::string& run_prefix,
                               const std::string& bucket_prefix) {
  TierOptions tier;
  tier.bucket_prefix = bucket_prefix;
  return OpenRun(fs, run_prefix, tier);
}

}  // namespace

std::vector<size_t> PlanRetirement(const Manifest& manifest,
                                   const GcPolicy& policy) {
  std::vector<size_t> retire;
  if (policy.keep_last_k <= 0) return retire;

  const std::set<int64_t> pinned(policy.pinned_epochs.begin(),
                                 policy.pinned_epochs.end());

  // Distinct epoch timeline per loop (nested loops checkpoint several ctx
  // levels per epoch; recency is per *epoch*, not per record).
  std::map<int32_t, std::set<int64_t>> epochs_by_loop;
  for (const auto& rec : manifest.records) {
    if (rec.epoch >= 0) epochs_by_loop[rec.key.loop_id].insert(rec.epoch);
  }

  // Keep set per loop: the K most recent epochs. Pins are applied per
  // record below — only to epoch-level records, the init-restore targets;
  // pinning them into every loop's keep-set here would keep nested-loop
  // checkpoints at pinned epochs forever.
  std::map<int32_t, std::set<int64_t>> keep_by_loop;
  for (const auto& [loop_id, epochs] : epochs_by_loop) {
    std::set<int64_t>& keep = keep_by_loop[loop_id];
    auto it = epochs.rbegin();
    for (int64_t k = 0; k < policy.keep_last_k && it != epochs.rend();
         ++k, ++it) {
      keep.insert(*it);
    }
  }

  for (size_t i = 0; i < manifest.records.size(); ++i) {
    const CheckpointRecord& rec = manifest.records[i];
    if (rec.epoch < 0) continue;  // not on the epoch timeline: eternal
    if (keep_by_loop[rec.key.loop_id].count(rec.epoch)) continue;
    if (IsEpochLevel(rec) && pinned.count(rec.epoch)) continue;
    retire.push_back(i);
  }
  return retire;
}

Result<GcReport> RetireRun(FileSystem* fs, const std::string& run_prefix,
                           const GcPolicy& policy,
                           const std::string& bucket_prefix) {
  FLOR_ASSIGN_OR_RETURN(OpenedRun run,
                        OpenRunForGc(fs, run_prefix, bucket_prefix));
  CheckpointStore* store = run.store.get();
  GcReport report;
  report.surviving_records = static_cast<int64_t>(run.manifest.records.size());

  const std::vector<size_t> retire = PlanRetirement(run.manifest, policy);
  // Guaranteed no-op: no manifest rewrite, no deletes, store untouched.
  if (retire.empty()) return report;

  const std::vector<CheckpointRecord> retired =
      RetiredByShard(run.manifest, retire);

  if (store->has_bucket()) {
    // Demotion: the bucket mirror keeps every retired record readable, so
    // the manifest stays intact and only local copies are reclaimed.
    // Objects the bucket does not hold (unspooled, or the spool failed)
    // are skipped — demotion never makes a record unreadable.
    report.demoted_to_bucket = true;
    for (const CheckpointRecord& rec : retired) {
      if (!fs->Exists(store->BucketPathFor(rec.key))) {
        ++report.skipped_unspooled;
        continue;
      }
      CountDelete(store->DeleteObject(rec.key), rec, &report);
    }
    return report;
  }

  FLOR_RETURN_IF_ERROR(PersistPrunedManifest(fs, run_prefix, retire,
                                             &run.manifest, &report));

  // Delete the retired objects shard by shard. Each delete goes through
  // the shard's writer lock, so a concurrent materializer on another shard
  // never contends with retirement here. Failures leak an orphan (the
  // manifest already dropped the record) — reported, never fatal.
  for (const CheckpointRecord& rec : retired)
    CountDelete(store->DeleteObject(rec.key), rec, &report);
  return report;
}

Result<GcReport> RetireBucketRun(FileSystem* fs, const std::string& run_prefix,
                                 const std::string& bucket_prefix,
                                 const GcPolicy& policy) {
  if (bucket_prefix.empty()) {
    return Status::InvalidArgument(
        "bucket retirement requires a bucket prefix");
  }
  FLOR_ASSIGN_OR_RETURN(OpenedRun run,
                        OpenRunForGc(fs, run_prefix, bucket_prefix));
  CheckpointStore* store = run.store.get();
  GcReport report;
  report.surviving_records = static_cast<int64_t>(run.manifest.records.size());

  const std::vector<size_t> retire = PlanRetirement(run.manifest, policy);
  if (retire.empty()) return report;

  const std::vector<CheckpointRecord> retired =
      RetiredByShard(run.manifest, retire);

  // Same ordering contract as the local tier: the pruned manifest lands
  // first (one atomic WriteFile), deletes follow. A crash mid-delete
  // leaves orphans in either tier, never a dangling record.
  FLOR_RETURN_IF_ERROR(PersistPrunedManifest(fs, run_prefix, retire,
                                             &run.manifest, &report));

  // Per record, reclaim both tiers: the bucket object and any local copy
  // demotion has not yet removed. A hard failure on either tier leaks an
  // orphan for the reconciliation sweep; both tiers already gone means a
  // prior pass (or crash) got here first.
  for (const CheckpointRecord& rec : retired) {
    Status bucket =
        store->DeleteShardPath(rec.shard, store->BucketPathFor(rec.key));
    Status local = store->DeleteObject(rec.key);
    if ((!bucket.ok() && !bucket.IsNotFound()) ||
        (!local.ok() && !local.IsNotFound())) {
      ++report.failed_deletes;
    } else if (bucket.IsNotFound() && local.IsNotFound()) {
      ++report.already_absent;
    } else {
      ++report.retired_objects;
      report.retired_bytes += rec.stored_bytes;
    }
  }
  return report;
}

Result<ReconcileReport> ReconcileRun(FileSystem* fs,
                                     const std::string& run_prefix,
                                     const std::string& bucket_prefix) {
  FLOR_ASSIGN_OR_RETURN(OpenedRun run,
                        OpenRunForGc(fs, run_prefix, bucket_prefix));
  CheckpointStore* store = run.store.get();
  ReconcileReport report;

  // Every path a manifest record is allowed to occupy, in either tier.
  std::unordered_set<std::string> referenced;
  referenced.reserve(run.manifest.records.size() * 2);
  for (const auto& rec : run.manifest.records) {
    referenced.insert(store->PathFor(rec.key));
    if (store->has_bucket()) referenced.insert(store->BucketPathFor(rec.key));
  }

  // Shard prefixes partition both namespaces, so per-shard listings cover
  // every object exactly once.
  for (int shard = 0; shard < store->num_shards(); ++shard) {
    auto sweep = [&](const std::string& prefix, int64_t* orphans) {
      for (const std::string& path : fs->ListPrefix(prefix + "/")) {
        if (referenced.count(path)) continue;
        auto size = fs->FileSize(path);
        if (!store->DeleteShardPath(shard, path).ok()) {
          ++report.failed_deletes;
          continue;
        }
        ++*orphans;
        if (size.ok()) report.orphan_bytes += *size;
      }
    };
    sweep(store->ShardPrefix(shard), &report.local_orphans);
    if (store->has_bucket())
      sweep(store->BucketShardPrefix(shard), &report.bucket_orphans);
  }
  return report;
}

}  // namespace flor

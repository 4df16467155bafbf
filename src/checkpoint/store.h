// Checkpoint store, record manifest, and the layout of a recorded run.
//
// The store is a facade over per-shard object stores: a ShardRouter places
// each checkpoint key deterministically on one of N shard prefixes, and
// each shard serializes its own writers with a private lock, so the
// background materializer and multi-worker replay engines stop contending
// on one namespace. A single-shard store (the default) lays objects out
// exactly like the pre-sharding flat namespace, so old record runs keep
// replaying. A store's read tier (bucket fall-through, bloom filters) is
// fixed when it is built (CheckpointStore::Open). The manifest is the
// record-session index replay needs: which loop executions have
// checkpoints, their sizes and shard placement, and the names each
// SkipBlock's checkpoints hold.
//
// A record run lives under a filesystem prefix (RunPaths):
//   <prefix>/source.py     rendered program source (probe-diff baseline)
//   <prefix>/logs.tsv      record log stream
//   <prefix>/manifest.tsv  checkpoint index
//   <prefix>/ckpt/...      Loop End Checkpoints
// Every reader of a finished run goes through ReadManifest or OpenRun, so
// replay workers, the planner, retention and the service all see the
// manifest and the tiered store that record wrote.

#ifndef FLOR_CHECKPOINT_STORE_H_
#define FLOR_CHECKPOINT_STORE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "checkpoint/shard.h"
#include "common/bloom.h"
#include "env/filesystem.h"

namespace flor {

/// Joins an object-store prefix and a relative path with exactly one '/',
/// regardless of trailing slashes on `prefix` or leading slashes on `rel`.
/// Every bucket/spool path in the system goes through this helper so the
/// local shard layout and its bucket mirror stay byte-identical.
std::string JoinObjectPath(const std::string& prefix,
                           const std::string& rel);

/// One materialized checkpoint, as recorded in the manifest.
struct CheckpointRecord {
  CheckpointKey key;
  int64_t epoch = -1;             ///< main-loop iteration index, -1 if n/a
  uint64_t raw_bytes = 0;         ///< uncompressed snapshot bytes (actual)
  uint64_t stored_bytes = 0;      ///< on-disk bytes (actual)
  uint64_t nominal_raw_bytes = 0; ///< profile-scaled raw size (sim)
  double materialize_seconds = 0; ///< background serialize+write time
  int shard = 0;                  ///< shard prefix holding the object
};

/// Record-session index.
struct Manifest {
  std::string workload;
  double record_runtime_seconds = 0;  ///< wall/sim time of the record run
  /// Shard count of the run's checkpoint store. Manifests written before
  /// sharding carry no shard fields and deserialize as shard count 1.
  int shard_count = 1;
  /// Per SkipBlock loop that materialized: the names its checkpoints hold,
  /// the augmented changeset record snapshotted (loop id -> names). Replay
  /// planning reads weak init's exactness from these, so it reads no
  /// checkpoint; a loop without an entry, as in manifests written before
  /// these lines, plans strong.
  std::map<int32_t, std::vector<std::string>> checkpoint_names;
  std::vector<CheckpointRecord> records;

  /// Sorted main-loop epochs that have a checkpoint for `loop_id`.
  std::vector<int64_t> EpochsWithCheckpoint(int32_t loop_id) const;

  /// Sum of stored_bytes.
  uint64_t TotalStoredBytes() const;
  /// Sum of nominal_raw_bytes (falls back to raw_bytes when nominal is 0).
  uint64_t TotalNominalBytes() const;

  /// Writes the `workload` and `record_runtime` lines, a `shards` line
  /// when shard_count is not 1, one `ckpt_names` line per checkpoint_names
  /// entry (loop id, then one field per name) and one `ckpt` line per
  /// record. At shard count 1 the `ckpt` lines carry no shard column, as
  /// in the pre-sharding format.
  std::string Serialize() const;

  /// Strict parse: any malformed, truncated, or non-numeric field returns
  /// Status::Corruption — never a crash or a silently defaulted value.
  /// The lines older records wrote that nothing reads are validated the
  /// same way and then dropped.
  static Result<Manifest> Deserialize(const std::string& data);
};

/// Path helpers for a record run rooted at `prefix`.
struct RunPaths {
  std::string prefix;

  explicit RunPaths(std::string p) : prefix(std::move(p)) {}

  std::string Source() const { return prefix + "/source.py"; }
  std::string Logs() const { return prefix + "/logs.tsv"; }
  std::string Manifest() const { return prefix + "/manifest.tsv"; }
  std::string CkptPrefix() const { return prefix + "/ckpt"; }
};

/// Read-side accounting for the bucket tier and the bloom accelerator.
struct TierStats {
  int64_t bucket_faults = 0;        ///< reads served from the bucket
  int64_t rehydrated_objects = 0;   ///< bucket reads written back locally
  int64_t rehydrate_failures = 0;   ///< write-backs that failed (non-fatal)
  /// Lookups the bloom filter answered definite-miss without touching any
  /// tier (Exists / GetBytes / Get short-circuits).
  int64_t bloom_skipped_probes = 0;
  /// Lookups the filter passed as maybe-present that turned out NotFound in
  /// every tier. Observed FPR over absent keys is
  /// false_positives / (false_positives + skipped_probes).
  int64_t bloom_false_positives = 0;
};

/// Read-tier selection, held as a `tier` member by the replay request
/// (ClusterPlanOptions), the thread engine's options and the service
/// ConnectionOptions: which bucket mirror, if any, backs local misses, and
/// whether the store fronts its shards with manifest-seeded bloom filters.
struct TierOptions {
  /// Bucket tier of the run's checkpoint store (the spool mirror prefix).
  /// Non-empty makes reads survive aggressive local GC: a local miss falls
  /// through to the bucket instead of failing. Empty: local tier only.
  std::string bucket_prefix;
  /// Write bucket fault-ins back to the local shard (under its writer
  /// lock) so repeated reads stay fast.
  bool bucket_rehydrate = true;
  /// Attach per-shard bloom filters to the store, seeded from the record
  /// manifest, so existence checks on absent keys answer definite-miss
  /// without probing any tier (target false-positive rate 1%). Off by
  /// default: the filterless store is the pinned-byte-identical baseline.
  bool bloom_filter = false;
};

/// Filesystem-backed checkpoint storage: a facade routing each key onto one
/// of `num_shards` per-shard stores under a common prefix, with an optional
/// read-through bucket tier mirroring the same shard layout (the mirror
/// SpoolStore / the record session's durability ack write).
///
/// Thread-safe: writes serialize per shard (not globally), reads go
/// straight to the (thread-safe) FileSystem without taking shard locks, so
/// concurrent replay workers never contend with each other or with the
/// background materializer unless they hit the same shard's writer. A
/// bucket fault-in that re-hydrates the local shard takes that shard's
/// writer lock, like any other write. The store counts reads by tier
/// (tier_stats) but not writes: a run's manifest records what it wrote.
class CheckpointStore {
 public:
  /// A local-tier store: no bucket, no bloom filters. Does not own `fs`.
  /// Typical prefix: "run1/ckpt". `num_shards` == 1 reproduces the legacy
  /// flat layout.
  CheckpointStore(FileSystem* fs, std::string prefix, int num_shards = 1);

  /// The sanctioned way to build a store: its whole read tier is fixed
  /// here and never changes afterwards.
  ///   * Shard count from `manifest` when provided, so the layout always
  ///     matches what record wrote; `num_shards` is only consulted when
  ///     `manifest` is null (a store for a run still being written).
  ///   * With tier.bucket_prefix set, reads that miss locally fall through
  ///     to the mirror of this store's layout under that prefix (objects
  ///     live at JoinObjectPath(bucket_prefix, PathFor(key))). With
  ///     tier.bucket_rehydrate, a bucket read is written back to the local
  ///     shard under its writer lock; a write-back racing local GC merely
  ///     resurrects an orphan, which the reconciliation sweep reclaims.
  ///   * With tier.bloom_filter, one filter per shard lets Exists and
  ///     Get/GetBytes answer definite-miss without probing any tier. Each
  ///     filter is sized for the manifest's records per shard (at least
  ///     64 keys; 4096 without a manifest) and seeded from them, because
  ///     the filter is in-memory only; PutBytes adds the keys it writes.
  ///     Deletes leave bits set, so a deleted key degrades to a (counted)
  ///     false positive, never a false negative.
  /// scripts/check.sh lints src/ against direct construction so new code
  /// cannot drift from the tier configuration.
  static std::unique_ptr<CheckpointStore> Open(FileSystem* fs,
                                               const std::string& prefix,
                                               const TierOptions& tier,
                                               const Manifest* manifest,
                                               int num_shards = 1);

  bool has_bucket() const { return !bucket_prefix_.empty(); }
  const std::string& bucket_prefix() const { return bucket_prefix_; }
  bool bloom_enabled() const { return !filters_.empty(); }

  /// Writes encoded checkpoint bytes for `key` on its shard.
  Status PutBytes(const CheckpointKey& key, const std::string& bytes);

  /// Reads `key`, falling through to the bucket tier on a local NotFound.
  /// A miss in *both* tiers returns NotFound naming the key and the paths
  /// probed. `from_bucket`, when non-null, reports which tier served the
  /// read.
  Result<std::string> GetBytes(const CheckpointKey& key,
                               bool* from_bucket = nullptr) const;

  /// Decoded convenience read (same tier fall-through as GetBytes). Under
  /// src/, only src/checkpoint/ calls it (scripts/check.sh lints this):
  /// replay restores GetBytes' buffer with RestoreCheckpoint.
  Result<NamedSnapshots> Get(const CheckpointKey& key,
                             bool* from_bucket = nullptr) const;

  /// True when `key` is readable through *any* tier.
  bool Exists(const CheckpointKey& key) const;

  /// Deletes `key`'s object on its shard (same per-shard writer lock as
  /// PutBytes — retirement never races a materializer on the same shard).
  /// NotFound when the object is already gone. Local tier only: the bucket
  /// copy, if any, is untouched.
  Status DeleteObject(const CheckpointKey& key);

  /// Deletes an arbitrary object path belonging to `shard` (local or
  /// bucket tier) under that shard's writer lock. This is the reclamation
  /// primitive for GC and orphan sweeps, which delete by listed path
  /// rather than by key.
  Status DeleteShardPath(int shard, const std::string& path);

  /// Total bytes currently stored across all shards (local tier).
  uint64_t TotalBytes() const;

  /// Shard index `key` routes to.
  int ShardOf(const CheckpointKey& key) const {
    return router_.ShardOf(key);
  }

  /// Object path for `key` (shard-aware).
  std::string PathFor(const CheckpointKey& key) const {
    return router_.PathFor(prefix_, key);
  }

  /// Filesystem prefix of one shard.
  std::string ShardPrefix(int shard) const {
    return router_.ShardPrefix(prefix_, shard);
  }

  /// Bucket-tier object path for `key` (requires has_bucket()).
  std::string BucketPathFor(const CheckpointKey& key) const {
    return JoinObjectPath(bucket_prefix_, PathFor(key));
  }

  /// Bucket-tier prefix of one shard (requires has_bucket()).
  std::string BucketShardPrefix(int shard) const {
    return JoinObjectPath(bucket_prefix_, ShardPrefix(shard));
  }

  /// Snapshot of bucket-tier read counters.
  TierStats tier_stats() const;

  int num_shards() const { return router_.num_shards(); }
  const ShardRouter& router() const { return router_; }
  const std::string& prefix() const { return prefix_; }
  FileSystem* fs() const { return fs_; }

 private:
  FileSystem* fs_;
  std::string prefix_;
  ShardRouter router_;
  /// One writer lock per shard, indexed by shard. Each scopes write-side
  /// critical sections to its shard so writers on distinct shards proceed
  /// in parallel.
  mutable std::vector<std::mutex> shard_mu_;

  /// True when the bloom filter rules `key` definitely absent (and counts
  /// the skipped probe); false when filtering is off or the key may exist.
  bool BloomRulesAbsent(const CheckpointKey& key) const;

  /// Bucket tier. Empty prefix means no bucket attached. Counters are
  /// atomics so the read path stays lock-free.
  std::string bucket_prefix_;
  bool rehydrate_on_fault_ = true;
  mutable std::atomic<int64_t> bucket_faults_{0};
  mutable std::atomic<int64_t> rehydrated_objects_{0};
  mutable std::atomic<int64_t> rehydrate_failures_{0};

  /// Per-shard bloom filters; empty unless the tier enabled them.
  /// Filter bits are internally atomic, so the lock-free read path stays
  /// lock-free.
  std::vector<std::unique_ptr<BloomFilter>> filters_;
  mutable std::atomic<int64_t> bloom_skipped_probes_{0};
  mutable std::atomic<int64_t> bloom_false_positives_{0};
};

/// Reads and parses the manifest of the run at `run_prefix`: NotFound when
/// the run has none, Corruption when it does not parse.
Result<Manifest> ReadManifest(const FileSystem* fs,
                              const std::string& run_prefix);

/// A finished run opened for reading: its manifest and the store over its
/// checkpoints, built with the manifest's shard layout.
struct OpenedRun {
  Manifest manifest;
  std::unique_ptr<CheckpointStore> store;
};

/// Reads the manifest of the run at `run_prefix` (ReadManifest's errors),
/// then opens its checkpoint store through CheckpointStore::Open with
/// `tier`. Every store over a finished run comes from here.
Result<OpenedRun> OpenRun(FileSystem* fs, const std::string& run_prefix,
                          const TierOptions& tier);

}  // namespace flor

#endif  // FLOR_CHECKPOINT_STORE_H_

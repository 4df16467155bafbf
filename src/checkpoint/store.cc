#include "checkpoint/store.h"

#include <algorithm>

// Manifest::Deserialize parses numeric fields with the strict helpers in
// common/strings.h (whole field consumed, non-empty, in range): the
// permissive strto* defaults (garbage parses as 0) would silently turn a
// truncated manifest into a plausible-looking empty one.
#include "common/strings.h"

namespace flor {

namespace {

/// Target false-positive rate of every store's bloom filters.
constexpr double kBloomTargetFpr = 0.01;

}  // namespace

std::string JoinObjectPath(const std::string& prefix,
                           const std::string& rel) {
  std::string out = prefix;
  while (!out.empty() && out.back() == '/') out.pop_back();
  size_t start = 0;
  while (start < rel.size() && rel[start] == '/') ++start;
  if (out.empty()) return rel.substr(start);
  if (start >= rel.size()) return out;
  out += '/';
  out.append(rel, start, std::string::npos);
  return out;
}

std::vector<int64_t> Manifest::EpochsWithCheckpoint(int32_t loop_id) const {
  std::vector<int64_t> out;
  for (const auto& rec : records)
    if (rec.key.loop_id == loop_id && rec.epoch >= 0)
      out.push_back(rec.epoch);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

uint64_t Manifest::TotalStoredBytes() const {
  uint64_t total = 0;
  for (const auto& rec : records) total += rec.stored_bytes;
  return total;
}

uint64_t Manifest::TotalNominalBytes() const {
  uint64_t total = 0;
  for (const auto& rec : records)
    total += rec.nominal_raw_bytes ? rec.nominal_raw_bytes : rec.raw_bytes;
  return total;
}

std::string Manifest::Serialize() const {
  const bool sharded = shard_count != 1;
  std::string out;
  out += StrCat("workload\t", workload, "\n");
  out += StrFormat("record_runtime\t%.9g\n", record_runtime_seconds);
  out += StrFormat("vanilla_runtime\t%.9g\n", vanilla_runtime_seconds);
  out += StrFormat("c_estimate\t%.9g\n", c_estimate);
  if (sharded) out += StrCat("shards\t", shard_count, "\n");
  for (const auto& [loop_id, n] : loop_executions)
    out += StrCat("loop_exec\t", loop_id, "\t", n, "\n");
  for (const auto& [loop_id, names] : checkpoint_names) {
    out += StrCat("ckpt_names\t", loop_id);
    for (const auto& name : names) out += StrCat("\t", name);
    out += "\n";
  }
  for (const auto& rec : records) {
    out += StrCat("ckpt\t", rec.key.loop_id, "\t", rec.key.ctx, "\t",
                  rec.epoch, "\t", rec.raw_bytes, "\t", rec.stored_bytes,
                  "\t", rec.nominal_raw_bytes, "\t",
                  StrFormat("%.9g", rec.materialize_seconds));
    if (sharded) out += StrCat("\t", rec.shard);
    out += "\n";
  }
  return out;
}

Result<Manifest> Manifest::Deserialize(const std::string& data) {
  Manifest m;
  for (const auto& line : StrSplit(data, '\n')) {
    if (line.empty()) continue;
    auto fields = StrSplit(line, '\t');
    const std::string& tag = fields[0];
    bool ok = false;
    if (tag == "workload" && fields.size() == 2) {
      m.workload = fields[1];
      ok = true;
    } else if (tag == "record_runtime" && fields.size() == 2) {
      ok = ParseF64(fields[1], &m.record_runtime_seconds);
    } else if (tag == "vanilla_runtime" && fields.size() == 2) {
      ok = ParseF64(fields[1], &m.vanilla_runtime_seconds);
    } else if (tag == "c_estimate" && fields.size() == 2) {
      ok = ParseF64(fields[1], &m.c_estimate);
    } else if (tag == "shards" && fields.size() == 2) {
      int64_t n = 0;
      ok = ParseI64(fields[1], &n) && n >= 1 && n <= 1 << 20;
      if (ok) m.shard_count = static_cast<int>(n);
    } else if (tag == "loop_exec" && fields.size() == 3) {
      int32_t loop_id = 0;
      int64_t n = 0;
      ok = ParseI32(fields[1], &loop_id) && ParseI64(fields[2], &n);
      if (ok) m.loop_executions[loop_id] = n;
    } else if (tag == "ckpt_names" && fields.size() >= 2) {
      // One line per loop, and no empty name: a line cut at a separator
      // must not parse as a shorter list.
      int32_t loop_id = 0;
      ok = ParseI32(fields[1], &loop_id) &&
           !m.checkpoint_names.count(loop_id);
      for (size_t i = 2; ok && i < fields.size(); ++i) ok = !fields[i].empty();
      if (ok) {
        m.checkpoint_names[loop_id].assign(fields.begin() + 2, fields.end());
      }
    } else if (tag == "ckpt" &&
               (fields.size() == 8 || fields.size() == 9)) {
      // 8 fields: pre-sharding format (shard implicitly 0); 9 fields adds
      // the shard column.
      CheckpointRecord rec;
      ok = ParseI32(fields[1], &rec.key.loop_id) &&
           ParseI64(fields[3], &rec.epoch) &&
           ParseU64(fields[4], &rec.raw_bytes) &&
           ParseU64(fields[5], &rec.stored_bytes) &&
           ParseU64(fields[6], &rec.nominal_raw_bytes) &&
           ParseF64(fields[7], &rec.materialize_seconds);
      rec.key.ctx = fields[2];
      if (ok && fields.size() == 9) {
        // Bound before narrowing: an out-of-int-range value must be
        // Corruption, not a silent wrap past the shard-count check.
        int64_t shard = 0;
        ok = ParseI64(fields[8], &shard) && shard >= 0 && shard <= 1 << 20;
        if (ok) rec.shard = static_cast<int>(shard);
      }
      if (ok) m.records.push_back(std::move(rec));
    }
    if (!ok)
      return Status::Corruption("malformed manifest line: " + line);
  }
  // Cross-field validation: every record's shard must fit the shard count
  // (an out-of-range shard means the manifest was stitched or truncated).
  for (const auto& rec : m.records) {
    if (rec.shard >= m.shard_count) {
      return Status::Corruption(
          StrCat("checkpoint ", rec.key.ToString(), " on shard ", rec.shard,
                 " but manifest declares ", m.shard_count, " shard(s)"));
    }
  }
  return m;
}

CheckpointStore::CheckpointStore(FileSystem* fs, std::string prefix,
                                 int num_shards)
    : fs_(fs),
      prefix_(std::move(prefix)),
      router_(num_shards),
      shard_mu_(static_cast<size_t>(router_.num_shards())) {}

std::unique_ptr<CheckpointStore> CheckpointStore::Open(
    FileSystem* fs, const std::string& prefix, const TierOptions& tier,
    const Manifest* manifest, int num_shards) {
  const int shards = manifest != nullptr ? manifest->shard_count : num_shards;
  auto store = std::make_unique<CheckpointStore>(fs, prefix, shards);
  store->bucket_prefix_ = tier.bucket_prefix;
  store->rehydrate_on_fault_ = tier.bucket_rehydrate;
  if (!tier.bloom_filter) return store;
  // Seed from the same records replay plans against — the rebuild-on-open
  // story. A run still being written has no manifest yet: PutBytes
  // populates its filters as objects land.
  const int64_t keys_per_shard =
      manifest == nullptr
          ? 4096
          : std::max<int64_t>(
                64, static_cast<int64_t>(manifest->records.size()) /
                            store->num_shards() +
                        1);
  for (int s = 0; s < store->num_shards(); ++s) {
    store->filters_.push_back(std::make_unique<BloomFilter>(
        keys_per_shard, kBloomTargetFpr));
  }
  if (manifest != nullptr) {
    for (const auto& rec : manifest->records)
      store->filters_[static_cast<size_t>(store->ShardOf(rec.key))]->Add(
          rec.key.ToString());
  }
  return store;
}

Status CheckpointStore::PutBytes(const CheckpointKey& key,
                                 const std::string& bytes) {
  const int shard_idx = router_.ShardOf(key);
  std::lock_guard<std::mutex> lock(shard_mu_[static_cast<size_t>(shard_idx)]);
  FLOR_RETURN_IF_ERROR(fs_->WriteFile(PathFor(key), bytes));
  // Publish to the bloom filter only after the write landed: a reader that
  // sees the bit set before the object exists would merely probe and miss
  // (a false positive), but the reverse order could skip a real object.
  if (bloom_enabled())
    filters_[static_cast<size_t>(shard_idx)]->Add(key.ToString());
  return Status::OK();
}

bool CheckpointStore::BloomRulesAbsent(const CheckpointKey& key) const {
  if (!bloom_enabled()) return false;
  if (filters_[static_cast<size_t>(router_.ShardOf(key))]->MayContain(
          key.ToString())) {
    return false;
  }
  bloom_skipped_probes_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Result<std::string> CheckpointStore::GetBytes(const CheckpointKey& key,
                                              bool* from_bucket) const {
  if (from_bucket) *from_bucket = false;
  const std::string local_path = PathFor(key);
  if (BloomRulesAbsent(key)) {
    // Definite miss: answer NotFound without touching any tier, with the
    // exact bytes the filterless probe would have returned — the both-tier
    // message is built from the same unprobed paths, and the single-tier
    // case reproduces the filesystems' uniform "no such file" NotFound
    // (both MemFileSystem and the POSIX backend use this shape), so
    // callers matching on messages cannot tell the filter was consulted.
    if (has_bucket()) {
      return Status::NotFound(
          StrCat("checkpoint ", key.ToString(), " missing in both tiers (",
                 local_path, ", ", BucketPathFor(key), ")"));
    }
    return Status::NotFound(StrCat("no such file: ", local_path));
  }
  auto local = fs_->ReadFile(local_path);
  if (local.ok() || !local.status().IsNotFound() || !has_bucket()) {
    if (!local.ok() && local.status().IsNotFound() && bloom_enabled())
      bloom_false_positives_.fetch_add(1, std::memory_order_relaxed);
    return local;
  }

  // Local miss with a bucket attached: fall through to the mirror. Any
  // bucket error other than NotFound (torn object, IO) propagates as-is;
  // a miss in both tiers is reported against the key with both probed
  // paths, so aggressive-GC-without-spool failures are diagnosable.
  const std::string bucket_path = BucketPathFor(key);
  auto remote = fs_->ReadFile(bucket_path);
  if (!remote.ok()) {
    if (!remote.status().IsNotFound()) return remote;
    if (bloom_enabled())
      bloom_false_positives_.fetch_add(1, std::memory_order_relaxed);
    return Status::NotFound(
        StrCat("checkpoint ", key.ToString(), " missing in both tiers (",
               local_path, ", ", bucket_path, ")"));
  }
  bucket_faults_.fetch_add(1, std::memory_order_relaxed);
  if (from_bucket) *from_bucket = true;

  if (rehydrate_on_fault_) {
    // Write-back under the shard's writer lock, like any other write to
    // the shard. Failure is non-fatal: the read already succeeded.
    std::lock_guard<std::mutex> lock(
        shard_mu_[static_cast<size_t>(router_.ShardOf(key))]);
    if (fs_->WriteFile(local_path, *remote).ok())
      rehydrated_objects_.fetch_add(1, std::memory_order_relaxed);
    else
      rehydrate_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  return remote;
}

Result<NamedSnapshots> CheckpointStore::Get(const CheckpointKey& key,
                                            bool* from_bucket) const {
  FLOR_ASSIGN_OR_RETURN(std::string bytes, GetBytes(key, from_bucket));
  return DecodeCheckpoint(bytes);
}

bool CheckpointStore::Exists(const CheckpointKey& key) const {
  if (BloomRulesAbsent(key)) return false;
  if (fs_->Exists(PathFor(key))) return true;
  if (has_bucket() && fs_->Exists(BucketPathFor(key))) return true;
  if (bloom_enabled())
    bloom_false_positives_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

Status CheckpointStore::DeleteObject(const CheckpointKey& key) {
  std::lock_guard<std::mutex> lock(
      shard_mu_[static_cast<size_t>(router_.ShardOf(key))]);
  return fs_->DeleteFile(PathFor(key));
}

Status CheckpointStore::DeleteShardPath(int shard, const std::string& path) {
  if (shard < 0 || shard >= router_.num_shards())
    return Status::InvalidArgument(
        StrCat("shard ", shard, " out of range for ", router_.num_shards(),
               " shard(s)"));
  std::lock_guard<std::mutex> lock(shard_mu_[static_cast<size_t>(shard)]);
  return fs_->DeleteFile(path);
}

uint64_t CheckpointStore::TotalBytes() const {
  // Shard prefixes partition the store's namespace, so summing the root
  // prefix covers every shard (and, at shard count 1, exactly the legacy
  // flat layout).
  return fs_->TotalBytesUnder(prefix_ + "/");
}

TierStats CheckpointStore::tier_stats() const {
  TierStats stats;
  stats.bucket_faults = bucket_faults_.load(std::memory_order_relaxed);
  stats.rehydrated_objects =
      rehydrated_objects_.load(std::memory_order_relaxed);
  stats.rehydrate_failures =
      rehydrate_failures_.load(std::memory_order_relaxed);
  stats.bloom_skipped_probes =
      bloom_skipped_probes_.load(std::memory_order_relaxed);
  stats.bloom_false_positives =
      bloom_false_positives_.load(std::memory_order_relaxed);
  return stats;
}

Result<Manifest> ReadManifest(const FileSystem* fs,
                              const std::string& run_prefix) {
  FLOR_ASSIGN_OR_RETURN(std::string bytes,
                        fs->ReadFile(RunPaths(run_prefix).Manifest()));
  return Manifest::Deserialize(bytes);
}

Result<OpenedRun> OpenRun(FileSystem* fs, const std::string& run_prefix,
                          const TierOptions& tier) {
  OpenedRun run;
  FLOR_ASSIGN_OR_RETURN(run.manifest, ReadManifest(fs, run_prefix));
  run.store = CheckpointStore::Open(fs, RunPaths(run_prefix).CkptPrefix(),
                                    tier, &run.manifest);
  return run;
}

}  // namespace flor

#include "checkpoint/spool.h"

namespace flor {

double S3MonthlyCost(uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0) *
         kS3DollarsPerGBMonth;
}

namespace {

void CountFailure(const Status& status, SpoolReport* report) {
  ++report->failed_objects;
  if (report->first_error.empty()) report->first_error = status.ToString();
}

}  // namespace

void SpoolBytes(FileSystem* fs, const std::string& bytes,
                const std::string& dst, SpoolReport* report) {
  ++report->batches;
  Status last;
  for (int attempt = 0; attempt < kSpoolMaxAttempts; ++attempt) {
    // One atomic WriteFile per attempt: a retry replaces nothing partial.
    last = fs->WriteFile(dst, bytes);
    if (last.ok()) {
      ++report->objects;
      report->bytes += bytes.size();
      report->monthly_cost_dollars = S3MonthlyCost(report->bytes);
      return;
    }
    if (attempt + 1 < kSpoolMaxAttempts) ++report->retries;
  }
  CountFailure(last, report);
}

void SpoolObject(FileSystem* fs, const std::string& src,
                 const std::string& dst, SpoolReport* report) {
  auto data = fs->ReadFile(src);
  if (!data.ok()) {
    ++report->batches;
    CountFailure(data.status(), report);
    return;
  }
  SpoolBytes(fs, *data, dst, report);
}

SpoolReport SpoolStore(const CheckpointStore& store,
                       const std::string& dst_prefix) {
  SpoolReport report;
  const std::string base = store.prefix() + "/";
  for (int shard = 0; shard < store.num_shards(); ++shard) {
    for (const auto& path :
         store.fs()->ListPrefix(store.ShardPrefix(shard) + "/")) {
      // Preserve the shard layout under the destination: the bucket
      // mirrors the store, so a shard-aware reader finds objects the same
      // way on either side. JoinObjectPath normalizes slashes, so a
      // destination with or without a trailing slash yields one layout.
      const std::string rel = path.substr(base.size());
      SpoolObject(store.fs(), path, JoinObjectPath(dst_prefix, rel), &report);
    }
  }
  return report;
}

}  // namespace flor

#include "checkpoint/spool.h"

namespace flor {

double S3MonthlyCost(uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0) *
         kS3DollarsPerGBMonth;
}

void SpoolObject(FileSystem* fs, const std::string& src,
                 const std::string& dst, SpoolReport* report) {
  ++report->batches;
  auto data = fs->ReadFile(src);
  Status last = data.status();
  if (data.ok()) {
    for (int attempt = 0; attempt < kSpoolMaxAttempts; ++attempt) {
      // One atomic WriteFile per attempt: a retry replaces nothing partial.
      last = fs->WriteFile(dst, *data);
      if (last.ok()) {
        ++report->objects;
        report->bytes += data->size();
        report->monthly_cost_dollars = S3MonthlyCost(report->bytes);
        return;
      }
      if (attempt + 1 < kSpoolMaxAttempts) ++report->retries;
    }
  }
  ++report->failed_objects;
  if (report->first_error.empty()) report->first_error = last.ToString();
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

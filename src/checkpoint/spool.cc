#include "checkpoint/spool.h"

#include <utility>

namespace flor {

double S3MonthlyCost(uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0) *
         kS3DollarsPerGBMonth;
}

SpoolReport AggregateSpoolReports(const std::vector<SpoolReport>& reports) {
  SpoolReport total;
  for (const auto& r : reports) {
    total.objects += r.objects;
    total.bytes += r.bytes;
    total.batches += r.batches;
    total.retries += r.retries;
    total.failed_objects += r.failed_objects;
    if (total.first_error.empty()) total.first_error = r.first_error;
  }
  total.monthly_cost_dollars = S3MonthlyCost(total.bytes);
  return total;
}

SpoolQueue::SpoolQueue(FileSystem* fs, int num_shards, SpoolOptions options)
    : fs_(fs), options_(options) {
  if (num_shards < 1) num_shards = 1;
  if (options_.max_attempts < 1) options_.max_attempts = 1;
  if (options_.max_batch_objects < 1) options_.max_batch_objects = 1;
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s)
    shards_.push_back(std::make_unique<ShardState>());
}

SpoolQueue::~SpoolQueue() { Drain(); }

void SpoolQueue::Enqueue(int shard, std::string src_path,
                         std::string dst_path, uint64_t size_hint) {
  ShardState& s = *shards_[static_cast<size_t>(shard)];
  uint64_t size = size_hint;
  if (size == 0) {
    auto sz = fs_->FileSize(src_path);
    // A missing source surfaces when the batch runs; size 0 just means the
    // byte bound won't trip early for it.
    if (sz.ok()) size = *sz;
  }
  std::vector<Item> batch;
  {
    // The batch is taken in the same critical section as the bound
    // decision, so concurrent enqueuers on one shard can never grow a
    // batch past the configured bounds before it flushes.
    std::lock_guard<std::mutex> lock(s.mu);
    s.pending.push_back(Item{std::move(src_path), std::move(dst_path), size});
    s.pending_bytes += size;
    if (s.pending_bytes >= options_.max_batch_bytes ||
        static_cast<int64_t>(s.pending.size()) >=
            options_.max_batch_objects) {
      batch.swap(s.pending);
      s.pending_bytes = 0;
    }
  }
  if (!batch.empty()) SubmitBatch(shard, std::move(batch));
}

void SpoolQueue::FlushShard(int shard) {
  ShardState& s = *shards_[static_cast<size_t>(shard)];
  std::vector<Item> batch;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.pending.empty()) return;
    batch.swap(s.pending);
    s.pending_bytes = 0;
  }
  SubmitBatch(shard, std::move(batch));
}

void SpoolQueue::SubmitBatch(int shard, std::vector<Item> batch) {
  // Bounded queue: don't let flushes pile unboundedly behind the worker.
  // submit_mu_ makes the bound hard — without it, concurrent flushers
  // could all observe a free slot and overshoot by (producers - 1).
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  queue_.WaitUntilInFlightBelow(options_.max_queued_batches);
  queue_.Submit([this, shard, items = std::move(batch)]() mutable {
    RunBatch(shard, std::move(items));
  });
}

void SpoolQueue::RunBatch(int shard, std::vector<Item> items) {
  // Local tallies first: the shard report is only touched once, under its
  // lock, after the I/O is done.
  SpoolReport delta;
  delta.batches = 1;
  for (const Item& item : items) {
    auto data = fs_->ReadFile(item.src);
    if (!data.ok()) {
      ++delta.failed_objects;
      if (delta.first_error.empty())
        delta.first_error = data.status().ToString();
      continue;
    }
    Status last;
    bool written = false;
    for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
      // Each object is one atomic WriteFile: a retry replaces nothing
      // partial, and objects spooled earlier in the batch stay spooled no
      // matter how this one fares.
      last = fs_->WriteFile(item.dst, *data);
      if (last.ok()) {
        written = true;
        break;
      }
      if (attempt + 1 < options_.max_attempts) ++delta.retries;
    }
    if (written) {
      ++delta.objects;
      delta.bytes += data->size();
    } else {
      ++delta.failed_objects;
      if (delta.first_error.empty()) delta.first_error = last.ToString();
    }
  }

  ShardState& s = *shards_[static_cast<size_t>(shard)];
  std::lock_guard<std::mutex> lock(s.mu);
  s.report.objects += delta.objects;
  s.report.bytes += delta.bytes;
  s.report.batches += delta.batches;
  s.report.retries += delta.retries;
  s.report.failed_objects += delta.failed_objects;
  if (s.report.first_error.empty())
    s.report.first_error = delta.first_error;
}

void SpoolQueue::Flush() {
  for (int shard = 0; shard < num_shards(); ++shard) FlushShard(shard);
}

void SpoolQueue::Drain() {
  Flush();
  queue_.Drain();
}

SpoolReport SpoolQueue::ShardReport(int shard) const {
  const ShardState& s = *shards_[static_cast<size_t>(shard)];
  std::lock_guard<std::mutex> lock(s.mu);
  SpoolReport report = s.report;
  report.monthly_cost_dollars = S3MonthlyCost(report.bytes);
  return report;
}

SpoolReport SpoolQueue::TotalReport() const {
  std::vector<SpoolReport> per_shard;
  per_shard.reserve(shards_.size());
  for (int shard = 0; shard < num_shards(); ++shard)
    per_shard.push_back(ShardReport(shard));
  return AggregateSpoolReports(per_shard);
}

SpoolReport SpoolStore(const CheckpointStore& store,
                       const std::string& dst_prefix,
                       const SpoolOptions& options) {
  SpoolQueue queue(store.fs(), store.num_shards(), options);
  const std::string base = store.prefix() + "/";
  for (int shard = 0; shard < store.num_shards(); ++shard) {
    for (const auto& path :
         store.fs()->ListPrefix(store.ShardPrefix(shard) + "/")) {
      // Preserve the shard layout under the destination: the bucket
      // mirrors the store, so a shard-aware reader finds objects the same
      // way on either side. JoinObjectPath normalizes slashes, so a
      // destination with or without a trailing slash yields one layout.
      const std::string rel = path.substr(base.size());
      queue.Enqueue(shard, path, JoinObjectPath(dst_prefix, rel));
    }
  }
  queue.Drain();
  return queue.TotalReport();
}

}  // namespace flor

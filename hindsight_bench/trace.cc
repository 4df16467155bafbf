#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "common/strings.h"

namespace hbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer* Tracer::Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    local = buffers_.back().get();
    local->tid = static_cast<int>(buffers_.size());
  }
  return local;
}

uint64_t Tracer::Begin(const char* name, int64_t request) {
  if (!enabled()) return 0;
  ThreadBuffer* buf = Local();
  uint64_t parent = iteration_id_.load();
  int64_t parent_request = iteration_request_.load();
  if (!buf->open.empty()) {
    const Span& p = buf->spans[buf->open.back()];
    parent = p.id;
    parent_request = p.request;
  }
  const uint64_t id = next_id_.fetch_add(1);
  buf->open.push_back(buf->spans.size());
  buf->spans.push_back(Span{name, NowSeconds(), 0, id, parent,
                            request >= 0 ? request : parent_request});
  return id;
}

void Tracer::End(uint64_t id) {
  if (id == 0) return;
  ThreadBuffer* buf = Local();
  if (buf->open.empty() || buf->spans[buf->open.back()].id != id) return;
  buf->spans[buf->open.back()].end = NowSeconds();
  buf->open.pop_back();
}

void Tracer::set_iteration(uint64_t span_id, int64_t request) {
  iteration_id_.store(span_id);
  iteration_request_.store(request);
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> kids;
  for (const auto& buf : buffers_) {
    for (const Span& s : buf->spans) {
      if (s.end > 0) kids[s.parent].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, double> self;
  for (const auto& buf : buffers_) {
    for (const Span& s : buf->spans) {
      if (s.end <= 0) continue;
      // Union of the children's intervals, clipped to this span: parallel
      // children (replay workers, materializer writes) may overlap.
      double covered = 0;
      auto it = kids.find(s.id);
      if (it != kids.end()) {
        std::vector<std::pair<double, double>> iv = it->second;
        std::sort(iv.begin(), iv.end());
        double cur_start = 0, cur_end = -1;
        for (auto [a, b] : iv) {
          a = std::max(a, s.start);
          b = std::min(b, s.end);
          if (b <= a) continue;
          if (a > cur_end) {
            if (cur_end > cur_start) covered += cur_end - cur_start;
            cur_start = a;
            cur_end = b;
          } else {
            cur_end = std::max(cur_end, b);
          }
        }
        if (cur_end > cur_start) covered += cur_end - cur_start;
      }
      self[s.name] += (s.end - s.start) - covered;
    }
  }
  return self;
}

flor::Status Tracer::WriteChromeTrace(const std::string& path) const {
  const std::map<std::string, double> self = SelfSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  double origin = 0;
  bool first = true;
  for (const auto& buf : buffers_) {
    for (const Span& s : buf->spans) {
      if (first || s.start < origin) origin = s.start;
      first = false;
    }
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return flor::Status::IOError("cannot open trace file " + path);
  out << "{\"displayTimeUnit\": \"ms\",\n \"traceEvents\": [\n";
  bool sep = false;
  for (const auto& buf : buffers_) {
    for (const Span& s : buf->spans) {
      if (s.end <= 0) continue;
      out << (sep ? ",\n" : "")
          << flor::StrFormat(
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %lld}}",
                 s.name, buf->tid, (s.start - origin) * 1e6,
                 (s.end - s.start) * 1e6,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.request));
      sep = true;
    }
  }
  out << "\n ],\n \"selfSeconds\": {";
  sep = false;
  for (const auto& [name, secs] : self) {
    out << (sep ? ", " : "") << "\"" << name << "\": "
        << flor::StrFormat("%.6f", secs);
    sep = true;
  }
  out << "}\n}\n";
  return out ? flor::Status::OK()
             : flor::Status::IOError("short write to " + path);
}

// ------------------------------------------------------ TimedFileSystem --

TimedFileSystem::Counters TimedFileSystem::Counters::Minus(
    const Counters& b) const {
  Counters d;
  d.write_calls = write_calls - b.write_calls;
  for (int t = 0; t < 3; ++t) d.write_bytes[t] = write_bytes[t] - b.write_bytes[t];
  d.write_busy_s = write_busy_s - b.write_busy_s;
  d.read_calls = read_calls - b.read_calls;
  d.read_bytes = read_bytes - b.read_bytes;
  d.read_busy_s = read_busy_s - b.read_busy_s;
  d.list_calls = list_calls - b.list_calls;
  d.list_busy_s = list_busy_s - b.list_busy_s;
  d.delete_calls = delete_calls - b.delete_calls;
  return d;
}

TimedFileSystem::TimedFileSystem(flor::FileSystem* base,
                                 std::string bucket_prefix)
    : base_(base), bucket_prefix_(std::move(bucket_prefix) + "/") {}

TimedFileSystem::Counters TimedFileSystem::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

TimedFileSystem::Tier TimedFileSystem::TierOf(const std::string& path) const {
  if (flor::StartsWith(path, bucket_prefix_)) return kBucket;
  if (path.find("/ckpt/") != std::string::npos) return kCkpt;
  return kMeta;
}

void TimedFileSystem::AddWrite(const std::string& path, size_t bytes,
                               double busy) {
  if (!counting_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.write_calls;
  counters_.write_bytes[TierOf(path)] += static_cast<int64_t>(bytes);
  counters_.write_busy_s += busy;
}

void TimedFileSystem::AddRead(size_t bytes, double busy) const {
  if (!counting_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.read_calls;
  counters_.read_bytes += static_cast<int64_t>(bytes);
  counters_.read_busy_s += busy;
}

flor::Status TimedFileSystem::WriteFile(const std::string& path,
                                        const std::string& data) {
  ScopedSpan span("fs.write");
  const double start = NowSeconds();
  flor::Status s = base_->WriteFile(path, data);
  AddWrite(path, data.size(), NowSeconds() - start);
  return s;
}

flor::Status TimedFileSystem::AppendFile(const std::string& path,
                                         const std::string& data) {
  ScopedSpan span("fs.append");
  const double start = NowSeconds();
  flor::Status s = base_->AppendFile(path, data);
  AddWrite(path, data.size(), NowSeconds() - start);
  return s;
}

flor::Result<std::string> TimedFileSystem::ReadFile(
    const std::string& path) const {
  ScopedSpan span("fs.read");
  const double start = NowSeconds();
  flor::Result<std::string> r = base_->ReadFile(path);
  AddRead(r.ok() ? r->size() : 0, NowSeconds() - start);
  return r;
}

bool TimedFileSystem::Exists(const std::string& path) const {
  ScopedSpan span("fs.exists");
  const double start = NowSeconds();
  const bool exists = base_->Exists(path);
  AddRead(0, NowSeconds() - start);
  return exists;
}

flor::Result<uint64_t> TimedFileSystem::FileSize(
    const std::string& path) const {
  ScopedSpan span("fs.size");
  const double start = NowSeconds();
  flor::Result<uint64_t> r = base_->FileSize(path);
  AddRead(0, NowSeconds() - start);
  return r;
}

flor::Status TimedFileSystem::DeleteFile(const std::string& path) {
  ScopedSpan span("fs.delete");
  flor::Status s = base_->DeleteFile(path);
  if (counting_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.delete_calls;
  }
  return s;
}

std::vector<std::string> TimedFileSystem::ListPrefix(
    const std::string& prefix) const {
  ScopedSpan span("fs.list");
  const double start = NowSeconds();
  std::vector<std::string> out = base_->ListPrefix(prefix);
  if (counting_.load(std::memory_order_relaxed)) {
    const double busy = NowSeconds() - start;
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.list_calls;
    counters_.list_busy_s += busy;
  }
  return out;
}

}  // namespace hbench

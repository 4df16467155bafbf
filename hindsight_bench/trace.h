// Bench-local tracing for bench_hindsight.
//
// Spans are recorded only from the benchmark's own files, around the calls
// it makes into each layer: the benchmark's own operations, and every
// FileSystem call through TimedFileSystem (which also arrives on
// program-owned threads: the materializer, the spooler, replay workers and
// server handlers). A span's parent is the span open on the same thread; a
// span opened on a thread with no open span is parented to the current
// workload-iteration span. Spans go into per-thread buffers (no lock on the
// hot path) and are written once, at exit, as Chrome-trace JSON.

#ifndef FLOR_HINDSIGHT_BENCH_TRACE_H_
#define FLOR_HINDSIGHT_BENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "env/filesystem.h"

namespace hbench {

/// steady_clock seconds.
double NowSeconds();

class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its id, or 0 when tracing
  /// is off. `request` < 0 inherits the parent's request id.
  uint64_t Begin(const char* name, int64_t request);
  /// Closes the innermost open span of the calling thread, which must be
  /// `id`.
  void End(uint64_t id);

  /// The parent of spans opened on threads with no open span.
  void set_iteration(uint64_t span_id, int64_t request);

  /// Writes every recorded span as Chrome-trace JSON ("X" events, with the
  /// span id, parent and request id in args), plus each span name's total
  /// self time. Call after every thread that recorded spans has been
  /// joined.
  flor::Status WriteChromeTrace(const std::string& path) const;

 private:
  /// Total self time (span minus the part its children cover) per span
  /// name. Same precondition as WriteChromeTrace.
  std::map<std::string, double> SelfSeconds() const;

  struct Span {
    const char* name;
    double start;
    double end;
    uint64_t id;
    uint64_t parent;
    int64_t request;
  };
  struct ThreadBuffer {
    int tid = 0;
    std::vector<Span> spans;
    std::vector<size_t> open;  ///< indices into spans
  };

  ThreadBuffer* Local();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> iteration_id_{0};
  std::atomic<int64_t> iteration_request_{-1};
  mutable std::mutex mu_;  ///< guards buffers_ (registration only)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span on the calling thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t request = -1)
      : id_(Tracer::Get().Begin(name, request)) {}
  ~ScopedSpan() { Tracer::Get().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  uint64_t id_;
};

/// FileSystem decorator that counts and times every call, by storage tier
/// (`ckpt`: local checkpoint objects; `bucket`: the spool mirror; `meta`:
/// logs, manifests, sources), and opens an fs.* span per call while
/// tracing is on. Counting is off until set_counting(true).
class TimedFileSystem : public flor::FileSystem {
 public:
  enum Tier { kCkpt = 0, kBucket = 1, kMeta = 2 };

  struct Counters {
    int64_t write_calls = 0;
    int64_t write_bytes[3] = {0, 0, 0};
    double write_busy_s = 0;
    int64_t read_calls = 0;
    int64_t read_bytes = 0;
    double read_busy_s = 0;
    int64_t list_calls = 0;
    double list_busy_s = 0;
    int64_t delete_calls = 0;

    Counters Minus(const Counters& before) const;
  };

  /// Does not own `base`. Paths under `bucket_prefix` are the bucket tier.
  TimedFileSystem(flor::FileSystem* base, std::string bucket_prefix);

  void set_counting(bool on) { counting_.store(on); }
  Counters Snapshot() const;

  flor::Status WriteFile(const std::string& path,
                         const std::string& data) override;
  flor::Status AppendFile(const std::string& path,
                          const std::string& data) override;
  flor::Result<std::string> ReadFile(const std::string& path) const override;
  bool Exists(const std::string& path) const override;
  flor::Result<uint64_t> FileSize(const std::string& path) const override;
  flor::Status DeleteFile(const std::string& path) override;
  std::vector<std::string> ListPrefix(
      const std::string& prefix) const override;

 private:
  Tier TierOf(const std::string& path) const;
  void AddWrite(const std::string& path, size_t bytes, double busy);
  void AddRead(size_t bytes, double busy) const;

  flor::FileSystem* base_;
  std::string bucket_prefix_;
  std::atomic<bool> counting_{false};
  mutable std::mutex mu_;  ///< guards counters_
  mutable Counters counters_;
};

}  // namespace hbench

#endif  // FLOR_HINDSIGHT_BENCH_TRACE_H_

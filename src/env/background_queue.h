// Background work queue — the C++ analog of the paper's fork()-based
// background materialization (§5.1).
//
// In Python, Flor forks a child process per checkpoint batch so that
// serialization + I/O run off the training thread with copy-on-write
// concurrency. Here the equivalent is: the caller snapshots state (the COW
// analog, charged to the main thread), then enqueues a job; a worker thread
// performs serialization and I/O.
//
// The queue also keeps a count of in-flight jobs so tests can verify the
// paper's observation that batching keeps at most ~2 live children.

#ifndef FLOR_ENV_BACKGROUND_QUEUE_H_
#define FLOR_ENV_BACKGROUND_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

namespace flor {

/// Single-worker FIFO job queue with drain support.
class BackgroundQueue {
 public:
  BackgroundQueue();
  ~BackgroundQueue();

  BackgroundQueue(const BackgroundQueue&) = delete;
  BackgroundQueue& operator=(const BackgroundQueue&) = delete;

  /// Enqueues a job; returns immediately.
  void Submit(std::function<void()> job);

  /// Blocks until all previously submitted jobs have completed.
  void Drain();

  /// Blocks until fewer than `n` jobs are in flight — bounded-queue
  /// backpressure for producers (the materializer caps how many checkpoint
  /// jobs it keeps queued behind the single worker). `n` == 0 returns
  /// immediately.
  void WaitUntilInFlightBelow(size_t n);

  /// Jobs submitted but not yet finished.
  size_t InFlight() const;

  /// High-water mark of InFlight() over the queue's lifetime.
  size_t MaxInFlight() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable drained_cv_;
  std::deque<std::function<void()>> jobs_;
  size_t in_flight_ = 0;
  size_t max_in_flight_ = 0;
  bool shutdown_ = false;
  std::thread worker_;
};

}  // namespace flor

#endif  // FLOR_ENV_BACKGROUND_QUEUE_H_

#include "exec/replay_executor.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <thread>

#include "common/strings.h"
#include "exec/process_executor.h"

namespace flor {
namespace exec {

namespace {

/// One per-thread task deque: owner pops the front, thieves pop the back.
struct TaskDeque {
  std::mutex mu;
  std::deque<size_t> tasks;

  bool PopFront(size_t* out) {
    std::lock_guard<std::mutex> lock(mu);
    if (tasks.empty()) return false;
    *out = tasks.front();
    tasks.pop_front();
    return true;
  }
  bool PopBack(size_t* out) {
    std::lock_guard<std::mutex> lock(mu);
    if (tasks.empty()) return false;
    *out = tasks.back();
    tasks.pop_back();
    return true;
  }
};

}  // namespace

WorkStealingPool::Stats WorkStealingPool::Run(
    int num_threads, const std::vector<std::function<void()>>& tasks) {
  Stats stats;
  if (num_threads <= 1 || tasks.size() <= 1) {
    for (const auto& task : tasks) task();
    stats.tasks_run = static_cast<int64_t>(tasks.size());
    return stats;
  }

  const int threads = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(num_threads), tasks.size()));
  std::vector<TaskDeque> deques(static_cast<size_t>(threads));
  // Deal task indices round-robin so a 1-thread pool and the sequential
  // path visit partitions in the same order.
  for (size_t i = 0; i < tasks.size(); ++i)
    deques[i % static_cast<size_t>(threads)].tasks.push_back(i);

  std::atomic<int64_t> steals(0);

  auto worker = [&](int self) {
    for (;;) {
      size_t task_index = 0;
      bool found = deques[static_cast<size_t>(self)].PopFront(&task_index);
      if (!found) {
        for (int v = 1; v < threads && !found; ++v) {
          const int victim = (self + v) % threads;
          found = deques[static_cast<size_t>(victim)].PopBack(&task_index);
        }
        if (found) steals.fetch_add(1, std::memory_order_relaxed);
      }
      // Tasks never spawn tasks, so once every deque is empty the only
      // unfinished work is already running on other threads: retire.
      if (!found) return;
      tasks[task_index]();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (auto& t : pool) t.join();

  stats.tasks_run = static_cast<int64_t>(tasks.size());
  stats.steals = steals.load();
  return stats;
}

namespace {

/// The simulated and thread engines: plan, replay one task per partition
/// on the pool, merge. Every worker owns its clock, program instance and
/// log stream; the only shared object is the (thread-safe) filesystem.
Result<ReplayExecutorResult> RunOnPool(FileSystem* fs,
                                       const ClusterPlanOptions& request,
                                       const ProgramFactory& factory,
                                       int num_threads,
                                       bool simulated_clock) {
  const WallClock clock;
  const double wall_start = clock.NowSeconds();
  FLOR_ASSIGN_OR_RETURN(const int active,
                        PlanActiveWorkers(factory, fs, request));

  std::vector<Result<ReplayResult>> slots(
      static_cast<size_t>(active), Status::Internal("worker never ran"));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<size_t>(active));
  for (int w = 0; w < active; ++w) {
    tasks.push_back([&, w] {
      slots[static_cast<size_t>(w)] =
          ReplayPartition(factory, fs, request, w, simulated_clock);
    });
  }

  const WorkStealingPool::Stats pool_stats =
      WorkStealingPool::Run(num_threads, tasks);

  ReplayMerger merger;
  for (int w = 0; w < active; ++w) {
    Result<ReplayResult>& slot = slots[static_cast<size_t>(w)];
    if (!slot.ok()) {
      return Status(slot.status().code(),
                    StrCat("replay worker ", w, ": ",
                           slot.status().message()));
    }
    merger.Add(w, std::move(slot).value());
  }
  ReplayExecutorResult result;
  FLOR_ASSIGN_OR_RETURN(static_cast<MergedClusterReplay&>(result),
                        merger.Finish(fs, request.run_prefix));
  result.threads_used = std::min(num_threads, active);
  result.steals = pool_stats.steals;
  result.wall_seconds = clock.NowSeconds() - wall_start;
  return result;
}

}  // namespace

Result<MergedClusterReplay> Replay(ReplayEngine engine, FileSystem* fs,
                                   const ClusterPlanOptions& request,
                                   const ProgramFactory& factory) {
  MergedClusterReplay out;
  if (engine == ReplayEngine::kProcesses) {
    ProcessReplayExecutor executor(
        fs, ProcessReplayExecutorOptions{request, /*scratch_dir=*/""});
    FLOR_ASSIGN_OR_RETURN(out, executor.Run(factory));
  } else {
    const bool simulated = engine == ReplayEngine::kSimulated;
    FLOR_ASSIGN_OR_RETURN(
        out, RunOnPool(fs, request, factory,
                       simulated ? 1 : request.num_workers, simulated));
  }
  return out;
}

ReplayExecutor::ReplayExecutor(FileSystem* shared_fs,
                               const ReplayExecutorOptions& options)
    : fs_(shared_fs),
      request_{options.run_prefix,
               options.num_partitions > 0 ? options.num_partitions
                                          : options.num_threads,
               options.init_mode, options.costs, options.sample_epochs,
               options.tier},
      num_threads_(options.num_threads) {}

Result<ReplayExecutorResult> ReplayExecutor::Run(
    const ProgramFactory& factory) {
  return RunOnPool(fs_, request_, factory, num_threads_,
                   /*simulated_clock=*/false);
}

}  // namespace exec
}  // namespace flor

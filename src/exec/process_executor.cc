#include "exec/process_executor.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "env/scratch.h"
#include "serialize/sections.h"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <string.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace flor {
namespace exec {

ProcessReplayExecutor::ProcessReplayExecutor(
    FileSystem* shared_fs, ProcessReplayExecutorOptions options)
    : fs_(shared_fs), options_(std::move(options)) {}

std::string ProcessReplayExecutor::ResultFileName(int worker_id,
                                                  int attempt) {
  if (attempt <= 1) return StrCat("worker-", worker_id, ".res");
  return StrCat("worker-", worker_id, ".attempt-", attempt, ".res");
}

std::string ProcessReplayExecutor::ErrorFileName(int worker_id,
                                                 int attempt) {
  if (attempt <= 1) return StrCat("worker-", worker_id, ".err");
  return StrCat("worker-", worker_id, ".attempt-", attempt, ".err");
}

#if defined(__unix__) || defined(__APPLE__)

namespace {

/// Child exit codes past the session: the parent maps them back to
/// partition-level diagnoses. 0 = result file committed.
constexpr int kChildReplayFailed = 12;  // error file has the Status
constexpr int kChildWriteFailed = 13;   // could not commit result/error

/// Held by a run from its planning to its merge, so concurrent runs in one
/// process take turns: each reaps with waitpid(-1), which would take (and
/// discard) another run's children, and a fork while another run is
/// mid-work hands the child every lock that run holds.
std::mutex run_mu;

/// EINTR-safe waitpid: a signal delivered to the coordinator must never
/// diagnose a healthy partition as dead.
pid_t WaitPidRetry(pid_t pid, int* wstatus, int flags) {
  for (;;) {
    const pid_t got = waitpid(pid, wstatus, flags);
    if (got >= 0 || errno != EINTR) return got;
  }
}

/// The failed Status a child left in its error file (a sectioned message
/// holding EncodeStatus's two sections).
Status ReadErrorFile(const PosixFileSystem& scratch_fs,
                     const std::string& name) {
  auto bytes = scratch_fs.ReadFile(name);
  if (!bytes.ok())
    return Status::Internal("replay failed (error file missing)");
  auto sections = DecodeSections(kResultTag, *bytes);
  Status cause;
  if (!sections.ok() || sections->size() != 2 ||
      !DecodeStatus(*sections, &cause).ok() || cause.ok()) {
    return Status::Corruption("worker error file is torn");
  }
  return cause;
}

/// Child-side worker body. Never returns into the parent's code: commits
/// a result (or error) file and _exit()s, skipping atexit handlers and
/// the parent's buffered state.
[[noreturn]] void RunChild(int worker_id, int attempt, FileSystem* shared_fs,
                           const ProgramFactory& factory,
                           const ProcessReplayExecutorOptions& options,
                           const std::string& scratch_path) {
  PosixFileSystem scratch_fs(scratch_path);
  if (options.child_before_session)
    options.child_before_session(worker_id, attempt);

  Result<ReplayResult> result =
      ReplayPartition(factory, shared_fs, options, worker_id,
                      /*simulated_clock=*/false);

  if (options.child_before_result_write)
    options.child_before_result_write(worker_id, attempt);

  if (result.ok()) {
    const Status wrote = scratch_fs.WriteFile(
        ProcessReplayExecutor::ResultFileName(worker_id, attempt),
        EncodeWorkerResult(*result));
    _exit(wrote.ok() ? 0 : kChildWriteFailed);
  }
  const Status wrote = scratch_fs.WriteFile(
      ProcessReplayExecutor::ErrorFileName(worker_id, attempt),
      EncodeSections(kResultTag, EncodeStatus(result.status())));
  _exit(wrote.ok() ? kChildReplayFailed : kChildWriteFailed);
}

}  // namespace

Result<ProcessReplayExecutorResult> ProcessReplayExecutor::Run(
    const ProgramFactory& factory) {
  std::lock_guard<std::mutex> run_lock(run_mu);
  const WallClock clock;
  const double wall_start = clock.NowSeconds();
  FLOR_ASSIGN_OR_RETURN(const int active,
                        PlanActiveWorkers(factory, fs_, options_));

  const int max_attempts = std::max(1, options_.max_attempts);
  int pool = options_.max_concurrent_children;
  if (pool <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    pool = std::min(active, static_cast<int>(hw > 0 ? hw : 1));
  }
  pool = std::max(1, pool);

  std::optional<ScratchDir> owned_scratch;
  std::string scratch_path = options_.scratch_dir;
  if (scratch_path.empty()) {
    FLOR_ASSIGN_OR_RETURN(ScratchDir scratch,
                          ScratchDir::Create("flor-procreplay"));
    scratch_path = scratch.path();
    owned_scratch.emplace(std::move(scratch));
  }
  PosixFileSystem scratch_fs(scratch_path);
  // A caller-supplied scratch directory may hold a previous run's files —
  // possibly from a run with *more* partitions or more attempts than this
  // one — and a stale fragment must never pass for this run's. Clear by
  // listing, not by iterating this run's worker ids.
  for (const std::string& stale : scratch_fs.ListPrefix("worker-"))
    (void)scratch_fs.DeleteFile(stale);

  // ---- scheduler state ----------------------------------------------
  struct LiveAttempt {
    int worker = 0;
    int attempt = 0;
  };
  std::map<pid_t, LiveAttempt> running;
  std::deque<int> ready;  // partitions awaiting a pool slot
  for (int w = 0; w < active; ++w) ready.push_back(w);

  std::vector<int> forks_per_partition(static_cast<size_t>(active), 0);
  std::vector<Status> partition_error(static_cast<size_t>(active),
                                      Status::OK());
  std::vector<bool> partition_failed(static_cast<size_t>(active), false);
  std::vector<bool> death_retried(static_cast<size_t>(active), false);
  int completed = 0;  // partitions committed or failed for good
  int total_forks = 0;
  int max_children = 0;
  ReplayMerger merger;

  // Tear down every live child (fork/waitpid failure paths), EINTR-safe.
  const auto kill_and_reap_all = [&] {
    for (const auto& entry : running) (void)kill(entry.first, SIGKILL);
    for (const auto& entry : running) {
      int ignored = 0;
      (void)WaitPidRetry(entry.first, &ignored, 0);
    }
    running.clear();
  };
  const auto fork_attempt = [&](int w) -> Status {
    const int attempt = ++forks_per_partition[static_cast<size_t>(w)];
    // Flush stdio so children do not replay the parent's buffered output
    // on their own streams.
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0)
      return Status::IOError(
          StrCat("fork failed for replay partition ", w));
    if (pid == 0)
      RunChild(w, attempt, fs_, factory, options_, scratch_path);
    running.emplace(pid, LiveAttempt{w, attempt});
    ++total_forks;
    max_children = std::max(max_children, static_cast<int>(running.size()));
    return Status::OK();
  };
  const auto record_failure = [&](int w, Status status) {
    partition_failed[static_cast<size_t>(w)] = true;
    partition_error[static_cast<size_t>(w)] = std::move(status);
    ++completed;
  };

  // ---- scheduling loop ----------------------------------------------
  // Fill free pool slots, reap one child (in whatever order children
  // finish), map its exit to commit/retry/fail — until every partition is
  // terminal. At most one attempt per partition is alive at a time.
  // Surviving result files are read but never rewritten, so a partial
  // failure leaves the healthy fragments on disk for inspection or
  // re-merge.
  Status scheduler_error = Status::OK();
  while (completed < active) {
    while (!ready.empty() && static_cast<int>(running.size()) < pool) {
      const int w = ready.front();
      ready.pop_front();
      scheduler_error = fork_attempt(w);
      if (!scheduler_error.ok()) break;
    }
    if (!scheduler_error.ok()) break;

    if (running.empty()) {
      scheduler_error =
          Status::Internal("process replay scheduler stalled");
      break;
    }
    int wstatus = 0;
    const pid_t pid = WaitPidRetry(-1, &wstatus, 0);
    if (pid < 0) {
      scheduler_error = Status::Internal(
          StrCat("waitpid failed: ", strerror(errno)));
      break;
    }
    const auto it = running.find(pid);
    if (it == running.end()) continue;  // not one of ours; status discarded
    const LiveAttempt la = it->second;
    running.erase(it);
    const int w = la.worker;

    if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) {
      // The attempt committed a result file.
      auto result_bytes = scratch_fs.ReadFile(ResultFileName(w, la.attempt));
      if (!result_bytes.ok()) {
        record_failure(w, Status(result_bytes.status().code(),
                                 "result file unreadable: " +
                                     result_bytes.status().message()));
        continue;
      }
      auto decoded = DecodeWorkerResult(*result_bytes);
      if (!decoded.ok()) {
        record_failure(w, Status(decoded.status().code(),
                                 "result file: " +
                                     decoded.status().message()));
        continue;
      }
      ++completed;
      merger.Add(w, std::move(*decoded));
      continue;
    }

    // The attempt did not commit: diagnose, then retry or fail. Worker
    // *death* (signal, or a result that could not be committed) is
    // retryable — the SIGKILL suites prove surviving fragments stay
    // intact, so re-forking just the dead partition is safe. A replay
    // that failed cleanly inside the child is deterministic: retrying
    // would fail identically.
    Status cause = Status::OK();
    bool retryable = false;
    if (WIFSIGNALED(wstatus)) {
      const int sig = WTERMSIG(wstatus);
      const char* name = strsignal(sig);
      cause = Status::Aborted(StrCat("worker process killed by signal ",
                                     sig, " (",
                                     name != nullptr ? name : "?", ")"));
      retryable = true;
    } else {
      const int code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
      if (code == kChildReplayFailed) {
        cause = ReadErrorFile(scratch_fs, ErrorFileName(w, la.attempt));
      } else {
        cause = Status::Aborted(StrCat(
            "worker process exited with status ", code,
            code == kChildWriteFailed ? " (result write failed)" : ""));
        retryable = (code == kChildWriteFailed);
      }
    }
    if (retryable &&
        forks_per_partition[static_cast<size_t>(w)] < max_attempts) {
      death_retried[static_cast<size_t>(w)] = true;
      ready.push_back(w);
      continue;
    }
    if (forks_per_partition[static_cast<size_t>(w)] > 1) {
      cause = Status(cause.code(),
                     StrCat(cause.message(), " (",
                            forks_per_partition[static_cast<size_t>(w)],
                            " attempts)"));
    }
    record_failure(w, std::move(cause));
  }

  // Reap every child still alive when the scheduler itself failed.
  kill_and_reap_all();
  if (!scheduler_error.ok()) return scheduler_error;

  if (std::find(partition_failed.begin(), partition_failed.end(), true) !=
      partition_failed.end()) {
    // Keep the fragments inspectable: an auto-created scratch dir is
    // preserved (and named) instead of being removed on this return.
    if (owned_scratch) owned_scratch->set_keep(true);
    std::vector<std::string> failures;
    Status first_failure = Status::OK();
    for (int w = 0; w < active; ++w) {
      if (!partition_failed[static_cast<size_t>(w)]) continue;
      const Status& status = partition_error[static_cast<size_t>(w)];
      failures.push_back(StrCat("partition ", w, "/", active, ": ",
                                status.message()));
      if (first_failure.ok()) first_failure = status;
    }
    return Status(first_failure.code(),
                  StrCat("process replay: ", StrJoin(failures, "; "),
                         " [surviving fragments in ", scratch_path, "]"));
  }

  ProcessReplayExecutorResult result;
  FLOR_ASSIGN_OR_RETURN(static_cast<MergedClusterReplay&>(result),
                        merger.Finish(fs_, options_.run_prefix));
  result.pool_size = pool;
  result.total_forks = total_forks;
  result.max_observed_children = max_children;
  for (const bool retried : death_retried)
    result.retried_partitions += retried ? 1 : 0;
  result.partition_attempts = std::move(forks_per_partition);
  result.wall_seconds = clock.NowSeconds() - wall_start;
  return result;
}

#else  // !(__unix__ || __APPLE__)

Result<ProcessReplayExecutorResult> ProcessReplayExecutor::Run(
    const ProgramFactory&) {
  return Status::NotSupported(
      "ProcessReplayExecutor requires fork(); use exec::ReplayExecutor");
}

#endif

}  // namespace exec
}  // namespace flor

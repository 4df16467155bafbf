// Search replay — the paper's §8 "Partial Replay: Search and Approximation".
//
// "For our example, we want to find the iteration where convergence begins,
//  and look forward enough to be confident the pattern is permanent. By
//  analogy to query processing, Flor is currently sequentially scanning the
//  past; we want to augment it with techniques for searching... Random
//  access to loop iterations enables Flor to schedule the order of
//  traversal (e.g. for binary search)."
//
// `SearchReplay` binary-searches the main-loop epochs of a finished record
// run for the first epoch satisfying a user predicate over that epoch's
// hindsight log output. Each probe of an epoch is one single-epoch sampling
// replay: one ReplayPartition worker, whose logs ReplayMerger checks
// against the record's (flor/replay_plan.h). So the total work is
// O(log E) epoch re-executions instead of a full scan.

#ifndef FLOR_FLOR_SEARCH_H_
#define FLOR_FLOR_SEARCH_H_

#include <functional>
#include <string>
#include <vector>

#include "env/env.h"
#include "exec/log_stream.h"
#include "flor/skipblock.h"

namespace flor {

/// Judges whether the searched-for condition holds at one epoch, given the
/// work-segment log entries that epoch produced on replay (record-time logs
/// plus hindsight probe output). The predicate must be monotone over epochs
/// (false ... false true ... true) for binary search to be meaningful —
/// "convergence begins and the pattern is permanent".
using EpochPredicate =
    std::function<Result<bool>(int64_t epoch,
                               const std::vector<exec::LogEntry>& entries)>;

/// Search configuration.
struct SearchOptions {
  std::string run_prefix = "run";
  /// Confirm this many epochs after the found frontier also satisfy the
  /// predicate ("look forward enough to be confident the pattern is
  /// permanent"). 0 disables confirmation.
  int64_t confirm_epochs = 0;
};

/// Outcome of a search replay.
struct SearchResult {
  /// First epoch where the predicate holds; -1 if it never holds.
  int64_t found_epoch = -1;
  /// Epochs actually re-executed (the probe schedule).
  std::vector<int64_t> probed_epochs;
  /// Total simulated replay latency across probes (sum; probes could also
  /// run in parallel — they are independent sampling replays).
  double total_latency_seconds = 0;
  /// True if the confirmation window also satisfied the predicate.
  bool confirmed = true;
};

/// Binary-searches the record run at `options.run_prefix` (on `env`'s
/// filesystem) for the first epoch satisfying `predicate`. `factory` builds
/// the (possibly probed) program version whose logs the predicate reads.
/// The epochs searched are the main loop's static trip count: a program
/// whose main loop has a dynamic one fails with FailedPrecondition before
/// any probe.
Result<SearchResult> SearchReplay(Env* env, const ProgramFactory& factory,
                                  const EpochPredicate& predicate,
                                  const SearchOptions& options);

}  // namespace flor

#endif  // FLOR_FLOR_SEARCH_H_

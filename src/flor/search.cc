#include "flor/search.h"

#include "common/strings.h"
#include "flor/replay_plan.h"

namespace flor {

namespace {

/// Replays exactly one epoch (sampling replay) on one worker, checks its
/// logs against the record's, and evaluates the predicate on the epoch's
/// work entries.
Result<bool> ProbeEpoch(Env* env, const ProgramFactory& factory,
                        const EpochPredicate& predicate, int64_t epoch,
                        const SearchOptions& options,
                        SearchResult* result) {
  ClusterPlanOptions request;
  request.run_prefix = options.run_prefix;
  request.sample_epochs = {epoch};
  request.costs = options.costs;
  FLOR_ASSIGN_OR_RETURN(
      ReplayResult worker,
      ReplayPartition(factory, env->fs(), request, /*worker_id=*/0,
                      env->clock()->is_simulated()));
  ReplayMerger merger;
  merger.Add(0, std::move(worker));
  FLOR_ASSIGN_OR_RETURN(MergedClusterReplay rr,
                        merger.Finish(env->fs(), options.run_prefix));
  FLOR_RETURN_IF_ERROR(rr.deferred.ToStatus());
  result->probed_epochs.push_back(epoch);
  result->total_latency_seconds += rr.latency_seconds;
  // Only entries from the sampled epoch's context.
  std::vector<exec::LogEntry> entries;
  const std::string prefix = StrCat("e=", epoch);
  for (const auto& e : rr.merged_logs.entries()) {
    if (e.context == prefix ||
        StartsWith(e.context, prefix + "/")) {
      entries.push_back(e);
    }
  }
  return predicate(epoch, entries);
}

}  // namespace

Result<SearchResult> SearchReplay(Env* env, const ProgramFactory& factory,
                                  const EpochPredicate& predicate,
                                  const SearchOptions& options) {
  // Discover the epoch count from the recorded manifest's loop executions.
  FLOR_ASSIGN_OR_RETURN(Manifest manifest,
                        ReadManifest(env->fs(), options.run_prefix));
  int64_t epochs = 0;
  for (const auto& [loop_id, ni] : manifest.loop_executions)
    epochs = std::max(epochs, ni);
  if (epochs == 0)
    return Status::FailedPrecondition(
        "record run has no loop executions to search");

  SearchResult result;

  // Binary search for the false→true frontier. First check the last epoch:
  // if the condition never holds, report -1 after O(1) probes.
  FLOR_ASSIGN_OR_RETURN(bool last_holds,
                        ProbeEpoch(env, factory, predicate, epochs - 1,
                                   options, &result));
  if (!last_holds) {
    result.found_epoch = -1;
    return result;
  }

  int64_t lo = 0, hi = epochs - 1;  // invariant: predicate(hi) == true
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    FLOR_ASSIGN_OR_RETURN(bool holds, ProbeEpoch(env, factory, predicate,
                                                 mid, options, &result));
    if (holds) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  result.found_epoch = hi;

  // Look forward to confirm the pattern is permanent.
  for (int64_t e = hi + 1;
       e < std::min(epochs, hi + 1 + options.confirm_epochs); ++e) {
    FLOR_ASSIGN_OR_RETURN(bool holds, ProbeEpoch(env, factory, predicate, e,
                                                 options, &result));
    if (!holds) result.confirmed = false;
  }
  return result;
}

}  // namespace flor

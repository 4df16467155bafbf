// Queries across projects and versions — the paper's §8 third direction.
//
// "We believe hindsight logging could support querying the past of multiple
//  versions of a model, or even multiple different models. For example, we
//  might be looking for past Flor logs from colleagues that show the
//  'exploding/vanishing gradient' pattern."
//
// This module provides the log-side half of that vision: a registry of
// record runs on a filesystem, typed metric-series extraction from their
// logs, and cross-run pattern queries (including an exploding/vanishing
// detector matching the paper's example). The replay-side half — injecting
// a probe into *many* runs — composes from exec::Replay, one run at a
// time, given each run's program factory.

#ifndef FLOR_FLOR_QUERY_H_
#define FLOR_FLOR_QUERY_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "env/filesystem.h"
#include "exec/log_stream.h"

namespace flor {

/// One discovered record run.
struct RunInfo {
  std::string prefix;    ///< filesystem prefix of the run
  std::string workload;  ///< manifest's workload name
  double record_runtime_seconds = 0;
  int64_t checkpoints = 0;
};

/// Scans `root` for record runs (directories containing a manifest).
Result<std::vector<RunInfo>> ListRuns(const FileSystem* fs,
                                      const std::string& root);

/// Extracts the numeric series of `label` from a run's record logs, in log
/// order. Non-numeric texts fail with InvalidArgument.
Result<std::vector<double>> MetricSeries(const FileSystem* fs,
                                         const std::string& run_prefix,
                                         const std::string& label);

/// Predicate over a run's full record log stream.
using RunPredicate =
    std::function<Result<bool>(const RunInfo& run,
                               const std::vector<exec::LogEntry>& logs)>;

/// Returns the runs under `root` whose record logs satisfy `predicate`.
Result<std::vector<RunInfo>> FindRuns(const FileSystem* fs,
                                      const std::string& root,
                                      const RunPredicate& predicate);

/// The paper's worked example: does the series first explode (a value at
/// least `explode_factor` × its start) and later vanish (a value at most
/// `vanish_factor` × its peak)?
bool ShowsExplodingVanishingPattern(const std::vector<double>& series,
                                    double explode_factor = 10.0,
                                    double vanish_factor = 0.01);

}  // namespace flor

#endif  // FLOR_FLOR_QUERY_H_

// Deferred correctness checks (paper §5.2.2).
//
// Flor's side-effect analysis is efficient but unsafe; the mitigation is to
// compare user-observable state between record and replay: "at the end of
// replay, we run diff, and warn the user if the replay logs differ from the
// record logs in any way other than the statements added for hindsight
// logging."
//
// The comparison must tolerate what replay legitimately omits:
//   * log entries from skipped (memoized) loop executions,
//   * entries outside a worker's replayed segment,
//   * init-mode output (excluded by the caller via WorkEntries()),
//   * output of the probe statements themselves.
// So the check is: every non-probe replay entry must pair off, in order,
// with a distinct record entry of the same (label, iteration context), and
// the two must have the same text. Labels identify a logged quantity
// because a probe shifts the uids of later statements; uids only mark the
// probe statements whose output is skipped. Any divergence in logged
// *values* — the fingerprint of training characteristics the paper relies
// on — fails the check.

#ifndef FLOR_FLOR_DEFERRED_CHECK_H_
#define FLOR_FLOR_DEFERRED_CHECK_H_

#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/log_stream.h"

namespace flor {

/// Outcome of a deferred check.
struct DeferredCheckReport {
  bool ok = true;
  int64_t entries_compared = 0;
  /// Human-readable descriptions of the first few anomalies.
  std::vector<std::string> anomalies;

  /// OK, or ReplayAnomaly with the first anomaly message.
  Status ToStatus() const;
};

/// Compares a replay log (work entries only) against the record log.
/// `probe_uids` identifies hindsight statements whose output is expected to
/// be new.
DeferredCheckReport DeferredCheck(const std::vector<exec::LogEntry>& record,
                                  const std::vector<exec::LogEntry>& replay,
                                  const std::set<int32_t>& probe_uids);

}  // namespace flor

#endif  // FLOR_FLOR_DEFERRED_CHECK_H_

#include "flor/adaptive.h"

#include <algorithm>
#include <limits>

#include "checkpoint/materializer.h"

namespace flor {

AdaptiveController::AdaptiveController(AdaptiveOptions options)
    : options_(options) {}

bool AdaptiveController::ShouldMaterialize(int32_t loop_id,
                                           double compute_seconds,
                                           double materialize_seconds) {
  LoopState& state = loops_[loop_id];
  ++state.ni;

  AdaptiveDecision d;
  d.loop_id = loop_id;
  d.ni = state.ni;
  d.ki = state.ki;
  d.ci = compute_seconds;
  d.mi = materialize_seconds;

  if (!options_.enabled) {
    d.materialize = true;
    d.ratio = compute_seconds > 0 ? materialize_seconds / compute_seconds : 0;
    d.threshold = 0;
    trace_.push_back(d);
    ++state.ki;
    return true;
  }

  // Joint Invariant (Eq. 4). Degenerate compute times (Ci == 0 can happen
  // for empty loops on a simulated clock) are treated as failing the test —
  // a zero-cost loop is never worth checkpointing.
  const double bound =
      std::min(1.0 / (1.0 + kRestoreFactor), options_.epsilon);
  const double threshold =
      static_cast<double>(state.ni) / static_cast<double>(state.ki + 1) *
      bound;
  const double ratio = compute_seconds > 0
                           ? materialize_seconds / compute_seconds
                           : std::numeric_limits<double>::infinity();
  d.ratio = ratio;
  d.threshold = threshold;
  d.materialize = ratio < threshold;
  trace_.push_back(d);
  if (d.materialize) ++state.ki;
  return d.materialize;
}

int64_t AdaptiveController::executions(int32_t loop_id) const {
  auto it = loops_.find(loop_id);
  return it == loops_.end() ? 0 : it->second.ni;
}

int64_t AdaptiveController::checkpoints(int32_t loop_id) const {
  auto it = loops_.find(loop_id);
  return it == loops_.end() ? 0 : it->second.ki;
}

}  // namespace flor

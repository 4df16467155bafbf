// Adaptive checkpointing (paper §5.3).
//
// After each execution of a wrapped loop — and before materializing its
// checkpoint — the controller tests the Joint Invariant (Eq. 4):
//
//     Mi / Ci  <  ni / (ki + 1) * min( 1/(1+c), ε )
//
// which simultaneously enforces the Record Overhead invariant (Eq. 1,
// ki·Mi < ni·ε·Ci) and the Replay Latency invariant (Eq. 3,
// Mi + Ri < (ni/ki)·Ci with Ri = c·Mi). Loops with cheap checkpoints
// relative to compute get memoized every execution; fine-tuning loops with
// enormous checkpoints and short epochs get periodic/sparse checkpointing,
// which is exactly what caps RTE/CoLA overhead in Fig. 7.
//
// The scaling factor c (restore/materialize time ratio) is the paper's
// measured average across Table 3 workloads, kRestoreFactor = 1.38
// (checkpoint/materializer.h), the same c the simulated replay prices Ri
// with. It binds only when ε > 1/(1+c) ≈ 0.42.

#ifndef FLOR_FLOR_ADAPTIVE_H_
#define FLOR_FLOR_ADAPTIVE_H_

#include <cstdint>
#include <map>
#include <vector>

namespace flor {

/// Controller configuration.
struct AdaptiveOptions {
  /// When false, every loop execution is materialized (the
  /// adaptivity-disabled ablation of Fig. 7).
  bool enabled = true;
  /// ε — user-specifiable record-overhead tolerance. Paper: 1/15 = 6.67%,
  /// "asking that we only memoize loops whose computation times are at
  /// least 15× larger than the expected materialization times."
  double epsilon = 1.0 / 15.0;
};

/// One decision, kept for tests/benches to audit the invariants.
struct AdaptiveDecision {
  int32_t loop_id = 0;
  int64_t ni = 0;      ///< executions so far (including this one)
  int64_t ki = 0;      ///< checkpoints before this decision
  double ci = 0;       ///< compute-time sample (seconds)
  double mi = 0;       ///< materialization estimate (seconds)
  double ratio = 0;    ///< Mi / Ci
  double threshold = 0;
  bool materialize = false;
};

/// Per-loop adaptive checkpointing state machine.
class AdaptiveController {
 public:
  explicit AdaptiveController(AdaptiveOptions options);

  /// Tests the Joint Invariant for one finished loop execution. Increments
  /// ni; increments ki when returning true. `compute_seconds` is this
  /// execution's Ci sample; `materialize_seconds` the Mi estimate.
  bool ShouldMaterialize(int32_t loop_id, double compute_seconds,
                         double materialize_seconds);

  int64_t executions(int32_t loop_id) const;
  int64_t checkpoints(int32_t loop_id) const;

  const std::vector<AdaptiveDecision>& trace() const { return trace_; }
  const AdaptiveOptions& options() const { return options_; }

 private:
  struct LoopState {
    int64_t ni = 0;
    int64_t ki = 0;
  };

  AdaptiveOptions options_;
  std::map<int32_t, LoopState> loops_;
  std::vector<AdaptiveDecision> trace_;
};

}  // namespace flor

#endif  // FLOR_FLOR_ADAPTIVE_H_

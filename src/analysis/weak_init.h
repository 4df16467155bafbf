// When weak initialization is exact (paper §5.4.2).
//
// A weak-initialized replay worker that starts at epoch s runs one init
// iteration, epoch s-1, and then its work: it never runs epochs 0..s-2.
// The init iteration restores every SkipBlock of the main-loop body from
// its checkpoint and executes the other statements. Weak init is exact
// when that iteration leaves every variable the next iteration reads
// before writing (the carried set) as the record left it.
//
// The pass walks the main-loop body in the order an init iteration runs
// it, holding each variable the body writes fresh or stale:
//   * before the walk every body-written variable is stale: the worker
//     skipped the epochs that wrote it;
//   * a SkipBlock makes the names its checkpoint holds fresh, and its other
//     writes (loop-scoped temporaries) stale, since a restore leaves them
//     unwritten;
//   * a statement's writes (targets, method receivers and opaque-call
//     arguments, as in Table 1) become fresh when every body-written
//     variable it reads is fresh, and stale otherwise;
//   * a loop that is not a SkipBlock leaves all its writes stale.
// Weak init is exact when every carried variable ends the walk fresh.
// Variables the body never writes keep the preamble's values under either
// mode. Like the side-effect analysis, the pass trusts surface patterns;
// the deferred checks catch what they hide.

#ifndef FLOR_ANALYSIS_WEAK_INIT_H_
#define FLOR_ANALYSIS_WEAK_INIT_H_

#include <map>
#include <string>
#include <vector>

#include "ir/program.h"

namespace flor {
namespace analysis {

/// Outcome of the pass over one main loop.
struct WeakInitReport {
  bool exact = false;
  /// Body-written variables an iteration can read before writing them,
  /// sorted. Empty when a SkipBlock's checkpointed names are unknown.
  std::vector<std::string> carried;
};

/// Decides whether weak init is exact for `main_loop`, whose loops must
/// already be instrumented (flor::InstrumentProgram).
/// `checkpoint_names` maps each SkipBlock's loop id to the names its
/// checkpoint holds (Manifest::checkpoint_names); a SkipBlock missing
/// from it makes weak init not exact.
WeakInitReport AnalyzeWeakInit(
    const ir::Loop& main_loop,
    const std::map<int32_t, std::vector<std::string>>& checkpoint_names);

}  // namespace analysis
}  // namespace flor

#endif  // FLOR_ANALYSIS_WEAK_INIT_H_

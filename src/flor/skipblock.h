// Shared record/replay SkipBlock bookkeeping types. The layout of a record
// run (RunPaths) lives with its manifest in checkpoint/store.h.

#ifndef FLOR_FLOR_SKIPBLOCK_H_
#define FLOR_FLOR_SKIPBLOCK_H_

#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "ir/program.h"

namespace flor {

/// Per-run SkipBlock activity counters (diagnostics surfaced in results).
struct SkipBlockStats {
  int64_t executed = 0;   ///< wrapped loops run to completion
  int64_t skipped = 0;    ///< wrapped loops restored from checkpoints
  int64_t restores = 0;   ///< checkpoint loads (== skipped, kept separate
                          ///< for future multi-checkpoint restores)
  int64_t materialized = 0;
};

/// One freshly built, runnable copy of a training script: the program
/// structure plus an opaque context that owns whatever the semantic
/// callbacks capture (models, optimizers, datasets). The preamble
/// statements allocate into the context at run time, so every replay worker
/// reconstructs its objects "from the beginning", exactly like re-running
/// `python train.py` (§5.4.2).
struct ProgramInstance {
  std::unique_ptr<ir::Program> program;
  std::shared_ptr<void> context;
};

/// Rebuildable training script. Calling the factory twice must produce
/// structurally identical programs (same loop ids and statement renderings)
/// — the determinism version diffing and checkpoint keying rely on.
using ProgramFactory = std::function<Result<ProgramInstance>()>;

}  // namespace flor

#endif  // FLOR_FLOR_SKIPBLOCK_H_

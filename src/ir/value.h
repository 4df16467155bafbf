// Runtime values of the training-script IR.
//
// A `Value` is what a frame variable holds: a scalar, a tensor, or a
// *reference* to a stateful library object (module / optimizer / scheduler /
// data loader / RNG). Reference values mirror Python semantics: assignment
// copies the reference, and library calls mutate the referent in place —
// which is exactly the behaviour Flor's side-effect analysis reasons about.
//
// `ValueSnapshot` is the deep-copied state image a Loop End Checkpoint
// stores. Taking a snapshot is a memcpy-bound operation performed on the
// main thread (the analog of fork()'s copy-on-write page copies, §5.1);
// serializing a snapshot to bytes happens later, in the background
// materializer. Restoring goes the other way without a copy of its own:
// module parameters and optimizer state are decoded straight into the
// live tensors (as torch's load_state_dict copies into live parameters),
// and every other value is moved out of the decoded snapshot.

#ifndef FLOR_IR_VALUE_H_
#define FLOR_IR_VALUE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "data/loader.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "nn/scheduler.h"
#include "tensor/tensor.h"

namespace flor {
namespace ir {

enum class ValueKind : uint8_t {
  kNone = 0,
  kInt = 1,
  kFloat = 2,
  kBool = 3,
  kStr = 4,
  kTensor = 5,
  kModule = 6,
  kOptimizer = 7,
  kScheduler = 8,
  kLoader = 9,
  kRng = 10,
};

const char* ValueKindName(ValueKind k);

/// A frame variable's contents. Copyable; reference kinds copy the pointer
/// (Python reference semantics), tensors share storage on copy.
class Value {
 public:
  Value() : kind_(ValueKind::kNone) {}

  static Value Int(int64_t v);
  static Value Float(double v);
  static Value Bool(bool v);
  static Value Str(std::string v);
  static Value FromTensor(Tensor t);
  static Value ModuleRef(nn::Module* m);
  static Value OptimizerRef(nn::Optimizer* o);
  static Value SchedulerRef(nn::LrScheduler* s);
  static Value LoaderRef(const data::DataLoader* l);
  static Value RngRef(Rng* r);

  ValueKind kind() const { return kind_; }
  bool is_none() const { return kind_ == ValueKind::kNone; }

  /// Typed accessors. Preconditions: matching kind.
  int64_t AsInt() const;
  double AsFloat() const;
  bool AsBool() const;
  const std::string& AsStr() const;
  const Tensor& AsTensor() const;
  Tensor& MutableTensor();
  nn::Module* AsModule() const;
  nn::Optimizer* AsOptimizer() const;
  nn::LrScheduler* AsScheduler() const;
  const data::DataLoader* AsLoader() const;
  Rng* AsRng() const;

  /// Content hash used by deferred checks and tests. For reference kinds
  /// this hashes the *referent's* state, not the pointer.
  uint64_t Fingerprint() const;

  /// Short human-readable form for logs.
  std::string ToString() const;

 private:
  ValueKind kind_;
  int64_t int_ = 0;
  double float_ = 0;
  bool bool_ = false;
  std::string str_;
  Tensor tensor_;
  nn::Module* module_ = nullptr;
  nn::Optimizer* optimizer_ = nullptr;
  nn::LrScheduler* scheduler_ = nullptr;
  const data::DataLoader* loader_ = nullptr;
  Rng* rng_ = nullptr;
};

/// Deep state image of one Value, cheap to take (memcpy-bound), restorable
/// into a live Value. Reference kinds snapshot the referent's mutable state.
struct ValueSnapshot {
  ValueKind kind = ValueKind::kNone;

  // Scalar payloads.
  int64_t int_v = 0;
  double float_v = 0;
  bool bool_v = false;
  std::string str_v;

  // Tensor payload (deep clone).
  Tensor tensor_v;

  // Module payload: named parameter values.
  std::vector<std::pair<std::string, Tensor>> params;

  // Optimizer payload.
  std::string opt_kind;
  float opt_lr = 0;
  int64_t opt_steps = 0;
  std::vector<Tensor> opt_state;

  // Scheduler payload.
  std::string sched_kind;
  int64_t sched_epoch = 0;

  // RNG payload.
  uint64_t rng_state[4] = {0, 0, 0, 0};

  /// Bytes of state captured — drives the materialization cost model.
  uint64_t ApproxBytes() const;
};

/// Deep-copies the state behind `v`. Loader references snapshot to nothing
/// (loaders are deterministic pure functions of (seed, epoch, batch); see
/// data/loader.h).
ValueSnapshot SnapshotValue(const Value& v);

/// Restores `snap` into `live`, moving its tensors into place. For
/// reference kinds, `live` must reference an object of compatible structure
/// (same parameter names, dtypes and shapes etc.): replay re-runs the
/// program preamble, so structures always match unless the user edited
/// non-log code — which the version diff rejects up front. A module
/// parameter or optimizer state tensor that DecodeSnapshot already wrote
/// into the live storage keeps that storage; a plain tensor variable is
/// rebound to the snapshot's tensor, never written through, so another
/// Value that shared the old tensor keeps the old contents.
Status RestoreValue(ValueSnapshot&& snap, Value* live);

}  // namespace ir
}  // namespace flor

#endif  // FLOR_IR_VALUE_H_

// Optimizers — the narrow interface through which the training library
// mutates the model (paper §5.2.1, library-knowledge fact (a): "the model
// may be updated via the optimizer").
//
// Optimizers hold *references* to the parameters of a model; calling Step()
// mutates the model in place. The runtime changeset augmentation
// (analysis/augment.cc) discovers this mutation by asking the optimizer for
// its target module. Optimizer internal state (momentum / Adam moments) is
// itself part of a Loop End Checkpoint: ir::SnapshotValue captures it
// through StateTensors() and ir::RestoreValue writes it back.

#ifndef FLOR_NN_OPTIMIZER_H_
#define FLOR_NN_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/module.h"

namespace flor {
namespace nn {

/// Base optimizer over a module's parameters.
class Optimizer {
 public:
  /// Does not own `model`; the model must outlive the optimizer.
  Optimizer(Module* model, float lr) : model_(model), lr_(lr) {}
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update from current gradients; skips frozen parameters.
  virtual Status Step() = 0;

  /// Identifier used in checkpoints ("sgd", "adam", "adamw").
  virtual std::string Kind() const = 0;

  /// Internal state tensors (momentum buffers etc.) in a stable order,
  /// exposed for checkpointing.
  virtual std::vector<Tensor*> StateTensors() = 0;

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }

  /// The module this optimizer mutates — the hook used by changeset
  /// augmentation.
  Module* model() const { return model_; }

  /// Steps taken so far.
  int64_t step_count() const { return step_count_; }
  void set_step_count(int64_t n) { step_count_ = n; }

  /// Hash over lr, step count, and all state tensors.
  uint64_t StateFingerprint();

 protected:
  Module* model_;
  float lr_;
  int64_t step_count_ = 0;
};

/// SGD with optional momentum and decoupled weight decay.
///
/// Weight decay is the regularization knob Alice disables in the paper's
/// §2.1 debugging scenario.
class Sgd : public Optimizer {
 public:
  Sgd(Module* model, float lr, float momentum = 0.0f,
      float weight_decay = 0.0f);

  Status Step() override;
  std::string Kind() const override { return "sgd"; }
  std::vector<Tensor*> StateTensors() override;

  float weight_decay() const { return weight_decay_; }
  void set_weight_decay(float wd) { weight_decay_ = wd; }

 private:
  float momentum_;
  float weight_decay_;
  std::vector<Tensor> velocity_;  // parallel to model_->Parameters()
};

/// Adam / AdamW (decoupled weight decay when `adamw` is true).
class Adam : public Optimizer {
 public:
  Adam(Module* model, float lr, float beta1 = 0.9f, float beta2 = 0.999f,
       float eps = 1e-8f, float weight_decay = 0.0f, bool adamw = false);

  Status Step() override;
  std::string Kind() const override { return adamw_ ? "adamw" : "adam"; }
  std::vector<Tensor*> StateTensors() override;

 private:
  float beta1_, beta2_, eps_, weight_decay_;
  bool adamw_;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace nn
}  // namespace flor

#endif  // FLOR_NN_OPTIMIZER_H_

// Unit tests: layers (incl. gradient checks), losses, optimizers,
// schedulers, and model state round trips through the checkpoint path
// (ir::SnapshotValue -> EncodeCheckpoint -> RestoreCheckpoint).

#include <gtest/gtest.h>

#include <cmath>

#include "checkpoint/checkpoint.h"
#include "ir/value.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/scheduler.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace flor {
namespace nn {
namespace {

/// Central-difference gradient check of dLoss/dParam for one parameter
/// element, where loss = sum(Forward(x)).
void CheckParamGradient(Module* layer, const Tensor& x, Parameter* param,
                        int64_t elem, float tol = 2e-2f) {
  layer->ZeroGrad();
  auto y = layer->Forward(x);
  ASSERT_TRUE(y.ok()) << y.status().ToString();
  Tensor ones(y->shape());
  ops::Fill(&ones, 1.0f);
  ASSERT_TRUE(layer->Backward(ones).ok());
  const float analytic = param->grad.at(elem);

  const float eps = 1e-3f;
  const float saved = param->value.at(elem);
  param->value.f32()[elem] = saved + eps;
  float plus = ops::Sum(*layer->Forward(x));
  param->value.f32()[elem] = saved - eps;
  float minus = ops::Sum(*layer->Forward(x));
  param->value.f32()[elem] = saved;
  const float numeric = (plus - minus) / (2 * eps);
  EXPECT_NEAR(analytic, numeric,
              tol * std::max(1.0f, std::fabs(numeric)));
}

TEST(Linear, ForwardShapeAndBias) {
  Rng rng = testutil::SeededRng(1);
  Linear fc("fc", 3, 2, &rng);
  ops::Fill(&fc.weight().value, 0.0f);
  fc.bias().value.f32()[0] = 1.5f;
  fc.bias().value.f32()[1] = -2.0f;
  Tensor x(Shape{4, 3});
  auto y = fc.Forward(x);
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(y->shape(), (Shape{4, 2}));
  EXPECT_EQ(y->at(0), 1.5f);
  EXPECT_EQ(y->at(1), -2.0f);
}

TEST(Linear, RejectsWrongInput) {
  Rng rng = testutil::SeededRng(1);
  Linear fc("fc", 3, 2, &rng);
  EXPECT_FALSE(fc.Forward(Tensor(Shape{4, 5})).ok());
}

TEST(Linear, GradientCheck) {
  Rng rng = testutil::SeededRng(2);
  Linear fc("fc", 4, 3, &rng);
  Tensor x(Shape{2, 4});
  ops::RandNormal(&x, &rng);
  CheckParamGradient(&fc, x, &fc.weight(), 0);
  CheckParamGradient(&fc, x, &fc.weight(), 7);
  CheckParamGradient(&fc, x, &fc.bias(), 1);
}

TEST(Conv2d, GradientCheck) {
  Rng rng = testutil::SeededRng(3);
  Conv2d conv("conv", 2, 3, 3, 1, &rng);
  Tensor x(Shape{1, 2, 5, 5});
  ops::RandNormal(&x, &rng);
  Parameter* kernel = conv.LocalParameters()[0];
  CheckParamGradient(&conv, x, kernel, 0);
  CheckParamGradient(&conv, x, kernel, 11);
}

TEST(Embedding, LookupAndGrad) {
  Rng rng = testutil::SeededRng(4);
  Embedding emb("emb", 10, 4, &rng);
  Tensor ids(Shape{2, 3}, std::vector<int64_t>{0, 1, 2, 3, 4, 5});
  auto y = emb.Forward(ids);
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(y->shape(), (Shape{2, 12}));
  // Row 0 of output begins with table row 0.
  Parameter* table = emb.LocalParameters()[0];
  EXPECT_EQ(y->at(0), table->value.at(0));

  emb.ZeroGrad();
  Tensor g(y->shape());
  ops::Fill(&g, 1.0f);
  ASSERT_TRUE(emb.Backward(g).ok());
  // Token 0 used once => its grad row is all ones; token 9 unused => zero.
  EXPECT_EQ(table->grad.at(0), 1.0f);
  EXPECT_EQ(table->grad.at(9 * 4), 0.0f);
}

TEST(Embedding, RejectsOutOfVocab) {
  Rng rng = testutil::SeededRng(4);
  Embedding emb("emb", 4, 2, &rng);
  Tensor ids(Shape{1, 1}, std::vector<int64_t>{7});
  EXPECT_FALSE(emb.Forward(ids).ok());
}

TEST(LayerNorm, NormalizesRows) {
  LayerNorm ln("ln", 8);
  Rng rng = testutil::SeededRng(5);
  Tensor x(Shape{3, 8});
  ops::RandNormal(&x, &rng, 5.0f);
  auto y = ln.Forward(x);
  ASSERT_TRUE(y.ok());
  for (int64_t r = 0; r < 3; ++r) {
    double mean = 0, var = 0;
    for (int64_t c = 0; c < 8; ++c) mean += y->at(r * 8 + c);
    mean /= 8;
    for (int64_t c = 0; c < 8; ++c) {
      double d = y->at(r * 8 + c) - mean;
      var += d * d;
    }
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(LayerNorm, GradientCheck) {
  LayerNorm ln("ln", 6);
  Rng rng = testutil::SeededRng(6);
  Tensor x(Shape{2, 6});
  ops::RandNormal(&x, &rng);
  auto params = ln.LocalParameters();
  CheckParamGradient(&ln, x, params[0], 2);  // gain
  CheckParamGradient(&ln, x, params[1], 3);  // bias
}

TEST(Dropout, DeterministicWithSeededRng) {
  Rng r1 = testutil::SeededRng(7), r2 = testutil::SeededRng(7);
  Dropout d1("d", 0.5f, &r1), d2("d", 0.5f, &r2);
  Tensor x(Shape{64});
  ops::Fill(&x, 1.0f);
  auto y1 = d1.Forward(x);
  auto y2 = d2.Forward(x);
  ASSERT_TRUE(y1.ok());
  EXPECT_TRUE(y1->Equals(*y2));
  // Eval mode is the identity.
  d1.set_training(false);
  EXPECT_TRUE((*d1.Forward(x)).Equals(x));
}

TEST(Sequential, ComposesAndCollectsParams) {
  Rng rng = testutil::SeededRng(8);
  auto mlp = BuildMlp("mlp", {4, 8, 2}, &rng);
  EXPECT_EQ(mlp->Parameters().size(), 4u);  // 2 Linear layers x (W, b)
  EXPECT_EQ(mlp->ParameterCount(), 4 * 8 + 8 + 8 * 2 + 2);
  Tensor x(Shape{3, 4});
  auto y = mlp->Forward(x);
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(y->shape(), (Shape{3, 2}));
}

TEST(Module, FreezeMatching) {
  Rng rng = testutil::SeededRng(9);
  auto mlp = BuildMlp("mlp", {4, 8, 2}, &rng);
  const int frozen = mlp->FreezeMatching(".fc0");
  EXPECT_EQ(frozen, 2);  // weight + bias of first layer
  int count = 0;
  for (auto* p : mlp->Parameters())
    if (p->frozen) ++count;
  EXPECT_EQ(count, 2);
}

TEST(Loss, SoftmaxCrossEntropyGradSumsToZeroPerRow) {
  Rng rng = testutil::SeededRng(10);
  Tensor logits(Shape{4, 5});
  ops::RandNormal(&logits, &rng);
  Tensor labels(Shape{4}, std::vector<int64_t>{0, 1, 2, 3});
  auto lr = SoftmaxCrossEntropy(logits, labels);
  ASSERT_TRUE(lr.ok());
  EXPECT_GT(lr->loss, 0.0f);
  for (int64_t r = 0; r < 4; ++r) {
    float sum = 0;
    for (int64_t c = 0; c < 5; ++c) sum += lr->grad_logits.at(r * 5 + c);
    EXPECT_NEAR(sum, 0.0f, 1e-5f);
  }
}

TEST(Loss, MseKnownValue) {
  Tensor pred(Shape{2}, std::vector<float>{1, 3});
  Tensor target(Shape{2}, std::vector<float>{1, 1});
  auto lr = MseLoss(pred, target);
  ASSERT_TRUE(lr.ok());
  EXPECT_NEAR(lr->loss, 2.0f, 1e-6f);       // (0 + 4) / 2
  EXPECT_NEAR(lr->grad_logits.at(1), 2.0f, 1e-6f);  // 2*(3-1)/2
}

TEST(Sgd, DescendsQuadratic) {
  // Minimize sum((w - 3)^2) via handmade grads.
  Rng rng = testutil::SeededRng(11);
  Linear fc("fc", 1, 1, &rng);
  Sgd sgd(&fc, 0.1f);
  for (int step = 0; step < 100; ++step) {
    fc.ZeroGrad();
    const float w = fc.weight().value.at(0);
    fc.weight().grad.f32()[0] = 2 * (w - 3.0f);
    ASSERT_TRUE(sgd.Step().ok());
  }
  EXPECT_NEAR(fc.weight().value.at(0), 3.0f, 1e-3f);
  EXPECT_EQ(sgd.step_count(), 100);
}

TEST(Sgd, RespectsFrozenParameters) {
  Rng rng = testutil::SeededRng(12);
  Linear fc("fc", 2, 2, &rng);
  fc.weight().frozen = true;
  const Tensor before = fc.weight().value.Clone();
  ops::Fill(&fc.weight().grad, 1.0f);
  ops::Fill(&fc.bias().grad, 1.0f);
  Sgd sgd(&fc, 0.5f);
  ASSERT_TRUE(sgd.Step().ok());
  EXPECT_TRUE(fc.weight().value.Equals(before));
  EXPECT_NE(fc.bias().value.at(0), 0.0f);
}

TEST(Sgd, MomentumAccelerates) {
  Rng rng = testutil::SeededRng(13);
  Linear a("a", 1, 1, &rng), b("b", 1, 1, &rng);
  ops::Fill(&a.weight().value, 10.0f);
  ops::Fill(&b.weight().value, 10.0f);
  Sgd plain(&a, 0.01f, 0.0f);
  Sgd momentum(&b, 0.01f, 0.9f);
  for (int i = 0; i < 20; ++i) {
    ops::Fill(&a.weight().grad, 1.0f);
    ops::Fill(&b.weight().grad, 1.0f);
    ASSERT_TRUE(plain.Step().ok());
    ASSERT_TRUE(momentum.Step().ok());
  }
  EXPECT_LT(b.weight().value.at(0), a.weight().value.at(0));
}

TEST(Adam, DescendsQuadratic) {
  Rng rng = testutil::SeededRng(14);
  Linear fc("fc", 1, 1, &rng);
  ops::Fill(&fc.weight().value, -4.0f);
  Adam adam(&fc, 0.1f);
  for (int step = 0; step < 300; ++step) {
    fc.ZeroGrad();
    const float w = fc.weight().value.at(0);
    fc.weight().grad.f32()[0] = 2 * (w - 1.0f);
    ASSERT_TRUE(adam.Step().ok());
  }
  EXPECT_NEAR(fc.weight().value.at(0), 1.0f, 0.05f);
}

TEST(Adam, AdamWDecaysWeights) {
  Rng rng = testutil::SeededRng(15);
  Linear fc("fc", 1, 1, &rng);
  ops::Fill(&fc.weight().value, 5.0f);
  ops::Fill(&fc.bias().value, 5.0f);
  Adam adamw(&fc, 0.0f, 0.9f, 0.999f, 1e-8f, /*wd=*/0.1f, /*adamw=*/true);
  // lr=0 disables the gradient path... but AdamW couples wd with lr, so use
  // a tiny lr and zero grads: only decay acts.
  adamw.set_lr(0.1f);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(adamw.Step().ok());
  EXPECT_LT(fc.weight().value.at(0), 5.0f);
}

TEST(Scheduler, StepLrHalves) {
  Rng rng = testutil::SeededRng(16);
  Linear fc("fc", 1, 1, &rng);
  Sgd sgd(&fc, 1.0f);
  StepLr sched(&sgd, 2, 0.5f);
  sched.Step();  // epoch 1
  EXPECT_FLOAT_EQ(sgd.lr(), 1.0f);
  sched.Step();  // epoch 2
  EXPECT_FLOAT_EQ(sgd.lr(), 0.5f);
  sched.Step();
  sched.Step();  // epoch 4
  EXPECT_FLOAT_EQ(sgd.lr(), 0.25f);
}

TEST(Scheduler, CosineDecaysToMin) {
  Rng rng = testutil::SeededRng(17);
  Linear fc("fc", 1, 1, &rng);
  Sgd sgd(&fc, 1.0f);
  CosineLr sched(&sgd, 10, 0.0f);
  float prev = 2.0f;
  for (int e = 0; e < 10; ++e) {
    sched.Step();
    EXPECT_LT(sgd.lr(), prev);
    prev = sgd.lr();
  }
  EXPECT_NEAR(sgd.lr(), 0.0f, 1e-5f);
}

TEST(Scheduler, CyclicOscillates) {
  Rng rng = testutil::SeededRng(18);
  Linear fc("fc", 1, 1, &rng);
  Sgd sgd(&fc, 0.1f);
  CyclicLr sched(&sgd, 1.0f, 4);
  sched.Step();
  sched.Step();  // peak of triangle
  EXPECT_NEAR(sgd.lr(), 1.0f, 1e-5f);
  sched.Step();
  sched.Step();  // back to base
  EXPECT_NEAR(sgd.lr(), 0.1f, 1e-5f);
}

/// Carries `from`'s state through the checkpoint path — snapshot, encode,
/// then RestoreCheckpoint straight into the object `into` references, the
/// way replay restores a SkipBlock.
Status RestoreThroughCheckpoint(const ir::Value& from, ir::Value into) {
  NamedSnapshots snaps;
  snaps.emplace_back("state", ir::SnapshotValue(from));
  return RestoreCheckpoint(
      EncodeCheckpoint(snaps),
      [&into](const std::string&) -> Result<ir::Value*> { return &into; });
}

TEST(Serialize, ModuleStateRoundTrip) {
  Rng rng = testutil::SeededRng(19);
  auto src = BuildMlp("mlp", {4, 6, 2}, &rng);
  Rng rng2 = testutil::SeededRng(20);  // different init
  auto dst = BuildMlp("mlp", {4, 6, 2}, &rng2);
  EXPECT_NE(src->StateFingerprint(), dst->StateFingerprint());

  ASSERT_TRUE(RestoreThroughCheckpoint(ir::Value::ModuleRef(src.get()),
                                       ir::Value::ModuleRef(dst.get()))
                  .ok());
  EXPECT_EQ(src->StateFingerprint(), dst->StateFingerprint());
}

TEST(Serialize, ModuleStructureMismatchRejected) {
  Rng rng = testutil::SeededRng(21);
  auto src = BuildMlp("mlp", {4, 6, 2}, &rng);
  auto other = BuildMlp("mlp", {4, 8, 2}, &rng);
  EXPECT_TRUE(RestoreThroughCheckpoint(ir::Value::ModuleRef(src.get()),
                                       ir::Value::ModuleRef(other.get()))
                  .IsCorruption());
}

TEST(Serialize, OptimizerStateRoundTrip) {
  Rng rng = testutil::SeededRng(22);
  Linear fc("fc", 3, 3, &rng);
  Adam src(&fc, 0.01f);
  ops::Fill(&fc.weight().grad, 0.5f);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(src.Step().ok());

  Adam dst(&fc, 0.5f);
  ASSERT_TRUE(RestoreThroughCheckpoint(ir::Value::OptimizerRef(&src),
                                       ir::Value::OptimizerRef(&dst))
                  .ok());
  EXPECT_EQ(dst.step_count(), 3);
  EXPECT_FLOAT_EQ(dst.lr(), 0.01f);
  EXPECT_EQ(src.StateFingerprint(), dst.StateFingerprint());
}

TEST(Serialize, OptimizerKindMismatchRejected) {
  Rng rng = testutil::SeededRng(23);
  Linear fc("fc", 2, 2, &rng);
  Sgd sgd(&fc, 0.1f);
  Adam adam(&fc, 0.1f);
  EXPECT_TRUE(RestoreThroughCheckpoint(ir::Value::OptimizerRef(&sgd),
                                       ir::Value::OptimizerRef(&adam))
                  .IsCorruption());
}

TEST(Serialize, SchedulerStateRoundTrip) {
  Rng rng = testutil::SeededRng(24);
  Linear fc("fc", 2, 2, &rng);
  Sgd sgd(&fc, 1.0f);
  StepLr src(&sgd, 3, 0.1f);
  src.Step();
  src.Step();
  StepLr dst(&sgd, 3, 0.1f);
  ASSERT_TRUE(RestoreThroughCheckpoint(ir::Value::SchedulerRef(&src),
                                       ir::Value::SchedulerRef(&dst))
                  .ok());
  EXPECT_EQ(dst.epoch(), 2);
}

TEST(TrainingLoop, MlpLearnsSyntheticTask) {
  // Real end-to-end learning: loss must drop substantially.
  Rng rng = testutil::SeededRng(25);
  auto mlp = BuildMlp("mlp", {8, 16, 3}, &rng);
  Sgd sgd(mlp.get(), 0.1f, 0.9f);

  Tensor x(Shape{30, 8});
  std::vector<int64_t> labels_v(30);
  for (int64_t i = 0; i < 30; ++i) {
    labels_v[static_cast<size_t>(i)] = i % 3;
    for (int64_t j = 0; j < 8; ++j)
      x.f32()[i * 8 + j] = static_cast<float>((i % 3) - 1) *
                               std::sin(static_cast<float>(j + 1)) +
                           0.1f * static_cast<float>(rng.NextGaussian());
  }
  Tensor labels(Shape{30}, std::move(labels_v));

  float first_loss = 0, last_loss = 0;
  for (int step = 0; step < 60; ++step) {
    mlp->ZeroGrad();
    auto logits = mlp->Forward(x);
    ASSERT_TRUE(logits.ok());
    auto lr = SoftmaxCrossEntropy(*logits, labels);
    ASSERT_TRUE(lr.ok());
    if (step == 0) first_loss = lr->loss;
    last_loss = lr->loss;
    ASSERT_TRUE(mlp->Backward(lr->grad_logits).ok());
    ASSERT_TRUE(sgd.Step().ok());
  }
  EXPECT_LT(last_loss, first_loss * 0.5f);
}

}  // namespace
}  // namespace nn
}  // namespace flor

// Unit tests: shapes, tensors, ops, tensor serialization.

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "test_util.h"

namespace flor {
namespace {

TEST(Shape, NumelAndStrides) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.numel(), 24);
  auto strides = s.Strides();
  EXPECT_EQ(strides, (std::vector<int64_t>{12, 4, 1}));
  EXPECT_EQ(s.ToString(), "[2, 3, 4]");
  EXPECT_EQ(Shape{}.numel(), 1);  // scalar
}

TEST(Tensor, ZeroInitialized) {
  Tensor t(Shape{3, 3});
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.at(i), 0.0f);
  EXPECT_EQ(t.byte_size(), 36u);
}

TEST(Tensor, CopyIsShallowCloneIsDeep) {
  Tensor a(Shape{4}, std::vector<float>{1, 2, 3, 4});
  Tensor b = a;           // shares storage (Python reference semantics)
  Tensor c = a.Clone();   // fresh storage
  EXPECT_TRUE(a.SharesStorageWith(b));
  EXPECT_FALSE(a.SharesStorageWith(c));
  a.f32()[0] = 99;
  EXPECT_EQ(b.at(0), 99.0f);
  EXPECT_EQ(c.at(0), 1.0f);
}

TEST(Tensor, I64Tensors) {
  Tensor t(Shape{3}, std::vector<int64_t>{-1, 0, 7});
  EXPECT_EQ(t.dtype(), DType::kI64);
  EXPECT_EQ(t.at_i64(0), -1);
  EXPECT_EQ(t.byte_size(), 24u);
}

TEST(Tensor, FingerprintSensitive) {
  Tensor a(Shape{4}, std::vector<float>{1, 2, 3, 4});
  Tensor b = a.Clone();
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.f32()[3] += 1e-6f;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  // Shape participates: same data, different shape.
  Tensor c(Shape{2, 2}, std::vector<float>{1, 2, 3, 4});
  EXPECT_NE(a.Fingerprint(), c.Fingerprint());
}

TEST(Tensor, EqualsAndAllClose) {
  Tensor a(Shape{2}, std::vector<float>{1.0f, 2.0f});
  Tensor b(Shape{2}, std::vector<float>{1.0f, 2.000001f});
  EXPECT_FALSE(a.Equals(b));
  EXPECT_TRUE(a.AllClose(b, 1e-5f));
  EXPECT_FALSE(a.AllClose(b, 1e-8f));
}

TEST(Ops, FillAndScale) {
  Tensor t(Shape{5});
  ops::Fill(&t, 2.0f);
  ops::Scale(&t, 3.0f);
  EXPECT_EQ(ops::Sum(t), 30.0f);
}

TEST(Ops, RandDeterministic) {
  Tensor a(Shape{64}), b(Shape{64});
  Rng r1 = testutil::SeededRng(5), r2 = testutil::SeededRng(5);
  ops::RandNormal(&a, &r1);
  ops::RandNormal(&b, &r2);
  EXPECT_TRUE(a.Equals(b));
}

TEST(Ops, ElementwiseAndShapeErrors) {
  Tensor a(Shape{2}, std::vector<float>{1, 2});
  Tensor b(Shape{2}, std::vector<float>{10, 20});
  EXPECT_EQ((*ops::Add(a, b)).at(1), 22.0f);
  EXPECT_EQ((*ops::Sub(b, a)).at(0), 9.0f);
  EXPECT_EQ((*ops::Mul(a, b)).at(1), 40.0f);
  Tensor c(Shape{3});
  EXPECT_FALSE(ops::Add(a, c).ok());
}

TEST(Ops, Axpy) {
  Tensor x(Shape{3}, std::vector<float>{1, 1, 1});
  Tensor y(Shape{3}, std::vector<float>{1, 2, 3});
  ASSERT_TRUE(ops::Axpy(2.0f, x, &y).ok());
  EXPECT_EQ(y.at(0), 3.0f);
  EXPECT_EQ(y.at(2), 5.0f);
}

TEST(Ops, MatMulKnown) {
  Tensor a(Shape{2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  auto c = ops::MatMul(a, b);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->shape(), (Shape{2, 2}));
  EXPECT_EQ(c->at(0), 58.0f);
  EXPECT_EQ(c->at(1), 64.0f);
  EXPECT_EQ(c->at(2), 139.0f);
  EXPECT_EQ(c->at(3), 154.0f);
}

TEST(Ops, MatMulDimMismatch) {
  Tensor a(Shape{2, 3});
  Tensor b(Shape{2, 2});
  EXPECT_FALSE(ops::MatMul(a, b).ok());
}

TEST(Ops, Transpose2D) {
  Tensor a(Shape{2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  auto t = ops::Transpose2D(a);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->shape(), (Shape{3, 2}));
  EXPECT_EQ(t->at(0), 1.0f);
  EXPECT_EQ(t->at(1), 4.0f);
}

TEST(Ops, ReluAndBackward) {
  Tensor x(Shape{4}, std::vector<float>{-1, 0, 2, -3});
  Tensor y = ops::Relu(x);
  EXPECT_EQ(y.at(0), 0.0f);
  EXPECT_EQ(y.at(2), 2.0f);
  Tensor g(Shape{4}, std::vector<float>{1, 1, 1, 1});
  Tensor gx = ops::ReluBackward(x, g);
  EXPECT_EQ(gx.at(0), 0.0f);
  EXPECT_EQ(gx.at(2), 1.0f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Tensor x(Shape{2, 3}, std::vector<float>{1, 2, 3, -1, 0, 1});
  auto p = ops::SoftmaxRows(x);
  ASSERT_TRUE(p.ok());
  for (int64_t r = 0; r < 2; ++r) {
    float sum = 0;
    for (int64_t c = 0; c < 3; ++c) sum += p->at(r * 3 + c);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  // Monotone in logits.
  EXPECT_GT(p->at(2), p->at(1));
}

TEST(Ops, NllAndAccuracy) {
  Tensor logits(Shape{2, 2}, std::vector<float>{5, -5, -5, 5});
  Tensor labels(Shape{2}, std::vector<int64_t>{0, 1});
  auto probs = ops::SoftmaxRows(logits);
  ASSERT_TRUE(probs.ok());
  auto loss = ops::NllLoss(*probs, labels);
  ASSERT_TRUE(loss.ok());
  EXPECT_LT(*loss, 0.01f);
  auto acc = ops::Accuracy(logits, labels);
  ASSERT_TRUE(acc.ok());
  EXPECT_EQ(*acc, 1.0f);
  Tensor bad_labels(Shape{2}, std::vector<int64_t>{1, 0});
  EXPECT_EQ(*ops::Accuracy(logits, bad_labels), 0.0f);
}

TEST(Ops, LabelOutOfRangeRejected) {
  Tensor probs(Shape{1, 2}, std::vector<float>{0.5f, 0.5f});
  Tensor labels(Shape{1}, std::vector<int64_t>{5});
  EXPECT_FALSE(ops::NllLoss(probs, labels).ok());
}

TEST(Ops, Norms) {
  Tensor t(Shape{2}, std::vector<float>{3, 4});
  EXPECT_NEAR(ops::L2Norm(t), 5.0f, 1e-6f);
  EXPECT_EQ(ops::Max(t), 4.0f);
  EXPECT_EQ(ops::Mean(t), 3.5f);
}

TEST(Ops, Conv2DIdentityKernel) {
  // 1x1x3x3 input, 1x1x1x1 kernel of value 2 => output doubled.
  Tensor input(Shape{1, 1, 3, 3},
               std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor kernel(Shape{1, 1, 1, 1}, std::vector<float>{2});
  auto out = ops::Conv2D(input, kernel, 0);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{1, 1, 3, 3}));
  EXPECT_EQ(out->at(4), 10.0f);
}

TEST(Ops, Conv2DPaddingAndShape) {
  Tensor input(Shape{2, 3, 8, 8});
  Tensor kernel(Shape{4, 3, 3, 3});
  auto out = ops::Conv2D(input, kernel, 1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{2, 4, 8, 8}));
  // Channel mismatch rejected.
  Tensor bad_kernel(Shape{4, 2, 3, 3});
  EXPECT_FALSE(ops::Conv2D(input, bad_kernel, 1).ok());
}

TEST(Ops, ArangeAndArgmax) {
  Tensor r = ops::ArangeI64(4);
  EXPECT_EQ(r.at_i64(3), 3);
  Tensor x(Shape{2, 3}, std::vector<float>{0, 5, 1, 9, 2, 3});
  auto am = ops::ArgmaxRows(x);
  ASSERT_TRUE(am.ok());
  EXPECT_EQ(am->at_i64(0), 1);
  EXPECT_EQ(am->at_i64(1), 0);
}

class TensorSerializeRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, DType>> {};

TEST_P(TensorSerializeRoundTrip, BitExact) {
  auto [rank, dtype] = GetParam();
  std::vector<int64_t> dims;
  for (int i = 0; i < rank; ++i) dims.push_back(2 + i);
  Tensor t(Shape(dims), dtype);
  Rng rng(static_cast<uint64_t>(rank) * 7 + static_cast<uint64_t>(dtype));
  if (dtype == DType::kF32) {
    ops::RandNormal(&t, &rng);
  } else {
    for (int64_t i = 0; i < t.numel(); ++i)
      t.i64()[i] = static_cast<int64_t>(rng.Next());
  }
  auto back = TensorFromBytes(TensorToBytes(t));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->Equals(t));
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndDtypes, TensorSerializeRoundTrip,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(DType::kF32, DType::kI64)));

TEST(TensorSerialize, CorruptionRejected) {
  Tensor t(Shape{8});
  std::string bytes = TensorToBytes(t);
  bytes.resize(bytes.size() - 4);  // truncate data
  EXPECT_FALSE(TensorFromBytes(bytes).ok());
  std::string bad_dtype = TensorToBytes(t);
  bad_dtype[0] = 9;
  EXPECT_FALSE(TensorFromBytes(bad_dtype).ok());
}

/// A tensor header — dtype, rank, dims — with no data behind it.
std::string TensorHeader(std::initializer_list<uint64_t> dims) {
  std::string bytes(1, static_cast<char>(DType::kF32));
  PutVarint64(&bytes, dims.size());
  for (uint64_t d : dims) PutVarint64(&bytes, d);
  return bytes;
}

TEST(TensorSerialize, OverflowingAndHugeDimsRejectedBeforeAllocating) {
  const uint64_t k32 = uint64_t{1} << 32;
  const uint64_t k62 = uint64_t{1} << 62;
  for (const std::string& bytes : {
           TensorHeader({k32, k32}),   // numel wraps to 0: a bogus empty
           TensorHeader({k62}),        // byte count wraps to 0
           TensorHeader({0, k62, k62}),  // empty, but strides overflow
           TensorHeader({UINT64_MAX}),   // above INT64_MAX
           TensorHeader({uint64_t{1} << 40}),  // fits, but no data
       }) {
    auto got = TensorFromBytes(bytes);
    ASSERT_FALSE(got.ok());
    EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
  }
  // A zero dim with sane neighbours is still a valid empty tensor.
  auto empty = TensorFromBytes(TensorHeader({0, 7}));
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty->numel(), 0);
}

}  // namespace
}  // namespace flor

// Unit tests: IR values/snapshots, statements, programs, builder, and the
// probe-detecting version diff.

#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/diff.h"
#include "ir/value.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/scheduler.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace flor {
namespace ir {
namespace {

TEST(Value, ScalarKinds) {
  EXPECT_EQ(Value::Int(7).AsInt(), 7);
  EXPECT_DOUBLE_EQ(Value::Float(2.5).AsFloat(), 2.5);
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::Str("hi").AsStr(), "hi");
  EXPECT_TRUE(Value().is_none());
}

TEST(Value, FingerprintTracksReferentState) {
  Rng rng = testutil::SeededRng(1);
  nn::Linear fc("fc", 2, 2, &rng);
  Value v = Value::ModuleRef(&fc);
  const uint64_t before = v.Fingerprint();
  fc.weight().value.f32()[0] += 1.0f;
  EXPECT_NE(v.Fingerprint(), before);
}

TEST(Value, ToStringForms) {
  EXPECT_EQ(Value::Int(3).ToString(), "3");
  EXPECT_EQ(Value::Bool(false).ToString(), "False");
  EXPECT_EQ(Value().ToString(), "None");
}

TEST(Snapshot, ScalarRoundTrip) {
  Value live = Value::Int(1);
  ValueSnapshot snap = SnapshotValue(Value::Int(42));
  ASSERT_TRUE(RestoreValue(std::move(snap), &live).ok());
  EXPECT_EQ(live.AsInt(), 42);
}

TEST(Snapshot, TensorIsDeepCopy) {
  Tensor t(Shape{3}, std::vector<float>{1, 2, 3});
  Value v = Value::FromTensor(t);
  ValueSnapshot snap = SnapshotValue(v);
  t.f32()[0] = 99;  // mutate after snapshot
  Value live = Value::FromTensor(Tensor(Shape{3}));
  ASSERT_TRUE(RestoreValue(std::move(snap), &live).ok());
  EXPECT_EQ(live.AsTensor().at(0), 1.0f);
}

TEST(Snapshot, ModuleRestoreInPlace) {
  Rng rng = testutil::SeededRng(2);
  nn::Linear fc("fc", 3, 3, &rng);
  Value v = Value::ModuleRef(&fc);
  ValueSnapshot snap = SnapshotValue(v);
  const uint64_t saved_fp = fc.StateFingerprint();
  ops::Fill(&fc.weight().value, 0.0f);  // clobber
  EXPECT_NE(fc.StateFingerprint(), saved_fp);
  ASSERT_TRUE(RestoreValue(std::move(snap), &v).ok());
  EXPECT_EQ(fc.StateFingerprint(), saved_fp);
}

TEST(Snapshot, OptimizerRestoreIncludesMomentsAndLr) {
  Rng rng = testutil::SeededRng(3);
  nn::Linear fc("fc", 2, 2, &rng);
  nn::Adam adam(&fc, 0.01f);
  ops::Fill(&fc.weight().grad, 1.0f);
  ASSERT_TRUE(adam.Step().ok());
  Value v = Value::OptimizerRef(&adam);
  ValueSnapshot snap = SnapshotValue(v);
  const uint64_t saved = adam.StateFingerprint();
  ASSERT_TRUE(adam.Step().ok());
  adam.set_lr(0.5f);
  EXPECT_NE(adam.StateFingerprint(), saved);
  ASSERT_TRUE(RestoreValue(std::move(snap), &v).ok());
  EXPECT_EQ(adam.StateFingerprint(), saved);
  EXPECT_EQ(adam.step_count(), 1);
}

TEST(Snapshot, RngStateRoundTrip) {
  Rng rng = testutil::SeededRng(4);
  rng.Next();
  Value v = Value::RngRef(&rng);
  ValueSnapshot snap = SnapshotValue(v);
  const uint64_t next = rng.Next();  // advance past snapshot
  ASSERT_TRUE(RestoreValue(std::move(snap), &v).ok());
  EXPECT_EQ(rng.Next(), next);  // stream rewound
}

TEST(Snapshot, KindMismatchRejected) {
  ValueSnapshot snap = SnapshotValue(Value::Int(1));
  Rng rng = testutil::SeededRng(5);
  nn::Linear fc("fc", 2, 2, &rng);
  Value live = Value::ModuleRef(&fc);
  EXPECT_TRUE(RestoreValue(std::move(snap), &live).IsCorruption());
}

TEST(Snapshot, ApproxBytesScalesWithState) {
  Rng rng = testutil::SeededRng(6);
  nn::Linear small("s", 2, 2, &rng);
  nn::Linear big("b", 64, 64, &rng);
  EXPECT_GT(SnapshotValue(Value::ModuleRef(&big)).ApproxBytes(),
            SnapshotValue(Value::ModuleRef(&small)).ApproxBytes());
}

TEST(Stmt, RenderForms) {
  Stmt s;
  s.pattern = StmtPattern::kMethodAssign;
  s.targets = {"preds"};
  s.receiver = "net";
  s.callee = "forward";
  s.reads = {"batch"};
  EXPECT_EQ(s.Render(), "preds = net.forward(batch)");

  s.pattern = StmtPattern::kCallAssign;
  EXPECT_EQ(s.Render(), "preds = forward(batch)");

  s.pattern = StmtPattern::kAssign;
  s.reads = {"x", "y"};
  s.targets = {"a", "b"};
  EXPECT_EQ(s.Render(), "a, b = x, y");

  s.pattern = StmtPattern::kMethodCall;
  s.receiver = "optimizer";
  s.callee = "step";
  s.reads = {};
  EXPECT_EQ(s.Render(), "optimizer.step()");

  s.pattern = StmtPattern::kOpaqueCall;
  s.callee = "save";
  s.reads = {"net"};
  EXPECT_EQ(s.Render(), "save(net)");

  s.pattern = StmtPattern::kLog;
  s.log_label = "loss";
  s.reads = {"loss"};
  EXPECT_EQ(s.Render(), "flor.log(\"loss\", loss)");
}

std::unique_ptr<Program> SampleProgram(bool with_probe) {
  ProgramBuilder b;
  b.CallAssign({"net"}, "build_model", {}, nullptr);
  b.CallAssign({"optimizer"}, "make_optimizer", {"net"}, nullptr);
  b.BeginLoop("e", 4);
  b.BeginLoopVar("i", "num_batches");
  b.MethodCall("optimizer", "step", {}, nullptr);
  if (with_probe) {
    b.Log("grad_norm", [](exec::Frame*) { return std::string("1"); },
          {"net"});
  }
  b.EndLoop();
  b.Log("acc", [](exec::Frame*) { return std::string("0.5"); },
        {"test_acc"});
  b.EndLoop();
  return b.Build();
}

TEST(Builder, AssignsStableIdsInOrder) {
  auto p1 = SampleProgram(false);
  auto p2 = SampleProgram(false);
  EXPECT_EQ(p1->RenderSource(), p2->RenderSource());
  auto loops = p1->AllLoops();
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_EQ(loops[0]->id(), 1);
  EXPECT_EQ(loops[1]->id(), 2);
  EXPECT_EQ(p1->MainLoop(), loops[0]);
  EXPECT_EQ(p1->FindLoop(2), loops[1]);
  EXPECT_EQ(p1->FindLoop(9), nullptr);
}

TEST(Builder, CostAttachesToLastStmt) {
  ProgramBuilder b;
  b.CallAssign({"x"}, "f", {}, nullptr).Cost(3.5);
  auto p = b.Build();
  EXPECT_DOUBLE_EQ(p->top().nodes[0].stmt->sim_cost_seconds, 3.5);
}

TEST(Program, RenderSourceShape) {
  auto p = SampleProgram(false);
  const std::string src = p->RenderSource();
  EXPECT_NE(src.find("import flor"), std::string::npos);
  EXPECT_NE(src.find("for e in range(4):  # L1"), std::string::npos);
  EXPECT_NE(src.find("for i in range(num_batches):  # L2"),
            std::string::npos);
  EXPECT_NE(src.find("    optimizer.step()"), std::string::npos);
}

TEST(Diff, IdenticalVersionsHaveNoProbes) {
  auto recorded = SampleProgram(false);
  auto current = SampleProgram(false);
  auto report = DiffForProbes(recorded->RenderSource(), *current);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->any());
}

TEST(Diff, DetectsInsertedProbeInNestedLoop) {
  auto recorded = SampleProgram(false);
  auto current = SampleProgram(true);
  auto report = DiffForProbes(recorded->RenderSource(), *current);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->any());
  EXPECT_EQ(report->probed_loops, (std::set<int32_t>{2}));
  EXPECT_EQ(report->probe_stmt_uids.size(), 1u);
  EXPECT_FALSE(report->preamble_probed);
}

TEST(Diff, DetectsPreambleProbe) {
  auto recorded = SampleProgram(false);
  ProgramBuilder b;
  b.CallAssign({"net"}, "build_model", {}, nullptr);
  b.Log("init_norm", [](exec::Frame*) { return std::string("0"); },
        {"net"});
  b.CallAssign({"optimizer"}, "make_optimizer", {"net"}, nullptr);
  b.BeginLoop("e", 4);
  b.BeginLoopVar("i", "num_batches");
  b.MethodCall("optimizer", "step", {}, nullptr);
  b.EndLoop();
  b.Log("acc", [](exec::Frame*) { return std::string("0.5"); },
        {"test_acc"});
  b.EndLoop();
  auto current = b.Build();
  auto report = DiffForProbes(recorded->RenderSource(), *current);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->preamble_probed);
}

TEST(Diff, RejectsModifiedStatement) {
  auto recorded = SampleProgram(false);
  ProgramBuilder b;
  b.CallAssign({"net"}, "build_other_model", {}, nullptr);  // changed callee
  b.CallAssign({"optimizer"}, "make_optimizer", {"net"}, nullptr);
  b.BeginLoop("e", 4);
  b.BeginLoopVar("i", "num_batches");
  b.MethodCall("optimizer", "step", {}, nullptr);
  b.EndLoop();
  b.Log("acc", [](exec::Frame*) { return std::string("0.5"); },
        {"test_acc"});
  b.EndLoop();
  auto current = b.Build();
  auto report = DiffForProbes(recorded->RenderSource(), *current);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(Diff, RejectsDeletedStatement) {
  auto recorded = SampleProgram(false);
  ProgramBuilder b;
  b.CallAssign({"net"}, "build_model", {}, nullptr);
  // make_optimizer deleted
  b.BeginLoop("e", 4);
  b.BeginLoopVar("i", "num_batches");
  b.MethodCall("optimizer", "step", {}, nullptr);
  b.EndLoop();
  b.Log("acc", [](exec::Frame*) { return std::string("0.5"); },
        {"test_acc"});
  b.EndLoop();
  auto current = b.Build();
  EXPECT_FALSE(DiffForProbes(recorded->RenderSource(), *current).ok());
}

TEST(Diff, RejectsChangedLoopStructure) {
  auto recorded = SampleProgram(false);
  ProgramBuilder b;
  b.CallAssign({"net"}, "build_model", {}, nullptr);
  b.CallAssign({"optimizer"}, "make_optimizer", {"net"}, nullptr);
  b.BeginLoop("e", 5);  // different trip count
  b.BeginLoopVar("i", "num_batches");
  b.MethodCall("optimizer", "step", {}, nullptr);
  b.EndLoop();
  b.Log("acc", [](exec::Frame*) { return std::string("0.5"); },
        {"test_acc"});
  b.EndLoop();
  auto current = b.Build();
  EXPECT_FALSE(DiffForProbes(recorded->RenderSource(), *current).ok());
}

TEST(Diff, OriginalLogStatementsMatchAcrossVersions) {
  // Record-time logs (the "acc" log) are not probes.
  auto recorded = SampleProgram(true);
  auto current = SampleProgram(true);
  auto report = DiffForProbes(recorded->RenderSource(), *current);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->any());
}

}  // namespace
}  // namespace ir
}  // namespace flor

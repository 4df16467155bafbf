// Unit tests: Table-1 rule matching, loop side-effect analysis with
// loop-scoped filtering, instrumentation policy, runtime augmentation, and
// when weak initialization is exact.

#include <gtest/gtest.h>

#include "analysis/augment.h"
#include "analysis/changeset.h"
#include "analysis/side_effect.h"
#include "analysis/weak_init.h"
#include "flor/instrument.h"
#include "ir/builder.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "test_util.h"
#include "nn/scheduler.h"
#include "workloads/programs.h"
#include "workloads/profiles.h"

namespace flor {
namespace analysis {
namespace {

ir::Stmt MakeStmt(ir::StmtPattern pattern,
                  std::vector<std::string> targets = {},
                  std::string receiver = "", std::string callee = "f",
                  std::vector<std::string> reads = {}) {
  ir::Stmt s;
  s.pattern = pattern;
  s.targets = std::move(targets);
  s.receiver = std::move(receiver);
  s.callee = std::move(callee);
  s.reads = std::move(reads);
  return s;
}

TEST(Rules, Rule1MethodAssignAddsReceiverAndTargets) {
  auto s = MakeStmt(ir::StmtPattern::kMethodAssign, {"a", "b"}, "obj",
                    "method");
  auto out = ApplyRules(s, {});
  EXPECT_EQ(out.rule, 1);
  EXPECT_FALSE(out.refuse);
  EXPECT_EQ(out.delta, (std::vector<std::string>{"obj", "a", "b"}));
}

TEST(Rules, Rule2CallAssignAddsTargets) {
  auto s = MakeStmt(ir::StmtPattern::kCallAssign, {"v"});
  auto out = ApplyRules(s, {});
  EXPECT_EQ(out.rule, 2);
  EXPECT_EQ(out.delta, (std::vector<std::string>{"v"}));
}

TEST(Rules, Rule3AssignAddsTargets) {
  auto s = MakeStmt(ir::StmtPattern::kAssign, {"x", "y"});
  auto out = ApplyRules(s, {});
  EXPECT_EQ(out.rule, 3);
  EXPECT_EQ(out.delta, (std::vector<std::string>{"x", "y"}));
}

TEST(Rules, Rule4MethodCallAddsReceiver) {
  auto s = MakeStmt(ir::StmtPattern::kMethodCall, {}, "optimizer", "step");
  auto out = ApplyRules(s, {});
  EXPECT_EQ(out.rule, 4);
  EXPECT_EQ(out.delta, (std::vector<std::string>{"optimizer"}));
}

TEST(Rules, Rule5OpaqueCallRefuses) {
  auto s = MakeStmt(ir::StmtPattern::kOpaqueCall);
  auto out = ApplyRules(s, {});
  EXPECT_EQ(out.rule, 5);
  EXPECT_TRUE(out.refuse);
}

TEST(Rules, Rule0PrecedesWhenTargetAlreadyModified) {
  // Any assignment form whose target is already in the changeset refuses.
  for (auto pattern :
       {ir::StmtPattern::kAssign, ir::StmtPattern::kCallAssign,
        ir::StmtPattern::kMethodAssign}) {
    auto s = MakeStmt(pattern, {"x"}, "obj", "m");
    auto out = ApplyRules(s, {"x"});
    EXPECT_EQ(out.rule, 0) << ir::StmtPatternName(pattern);
    EXPECT_TRUE(out.refuse);
  }
}

TEST(Rules, LogActivatesNoRule) {
  ir::Stmt s;
  s.pattern = ir::StmtPattern::kLog;
  s.log_label = "loss";
  auto out = ApplyRules(s, {"loss"});
  EXPECT_EQ(out.rule, -1);
  EXPECT_FALSE(out.refuse);
  EXPECT_TRUE(out.delta.empty());
}

/// The paper's Fig. 6 training loop, as close as the IR allows.
std::unique_ptr<ir::Program> PaperExampleProgram() {
  ir::ProgramBuilder b;
  b.CallAssign({"trainloader"}, "make_loader", {}, nullptr);
  b.CallAssign({"num_batches"}, "len", {"trainloader"}, nullptr);
  b.CallAssign({"net"}, "build_model", {}, nullptr);
  b.CallAssign({"optimizer"}, "make_optimizer", {"net"}, nullptr);
  b.CallAssign({"scheduler"}, "make_scheduler", {"optimizer"}, nullptr);
  b.BeginLoop("e", 10);  // main loop (L1)
  {
    b.BeginLoopVar("i", "num_batches");  // training loop (L2)
    {
      b.MethodCall("optimizer", "zero_grad", {}, nullptr);
      b.CallAssign({"batch", "labels"}, "fetch_batch",
                   {"trainloader", "e", "i"}, nullptr);
      b.CallAssign({"preds"}, "forward", {"net", "batch"}, nullptr);
      b.CallAssign({"loss", "grad"}, "criterion", {"preds", "labels"},
                   nullptr);
      b.MethodCall("grad", "backward", {"net"}, nullptr);
      b.MethodCall("optimizer", "step", {}, nullptr);
      b.Log("loss", nullptr, {"loss"});
    }
    b.EndLoop();
    b.MethodCall("scheduler", "step", {}, nullptr);
    b.CallAssign({"test_acc"}, "evaluate", {"net", "e"}, nullptr);
    b.OpaqueCall("save_checkpoint", {"net"}, nullptr);  // rule 5
  }
  b.EndLoop();
  return b.Build();
}

TEST(SideEffect, PaperExampleChangesets) {
  auto program = PaperExampleProgram();
  AnalyzeProgram(program.get());

  ir::Loop* main_loop = program->FindLoop(1);
  ir::Loop* train_loop = program->FindLoop(2);
  ASSERT_NE(main_loop, nullptr);
  ASSERT_NE(train_loop, nullptr);

  // Training loop: eligible; changeset is exactly {optimizer} after the
  // loop-scoped filter drops batch/labels/preds/loss/grad (paper §5.2.1).
  EXPECT_TRUE(train_loop->analysis().refusal.empty());
  EXPECT_EQ(train_loop->analysis().changeset,
            (std::vector<std::string>{"optimizer"}));
  EXPECT_EQ(train_loop->analysis().filtered,
            (std::vector<std::string>{"batch", "grad", "labels", "loss",
                                      "preds"}));

  // Main loop: refused due to the rule-5 save_checkpoint call.
  EXPECT_FALSE(main_loop->analysis().refusal.empty());
  EXPECT_NE(main_loop->analysis().refusal.find("rule 5"),
            std::string::npos);
}

TEST(SideEffect, Rule0RefusesLoop) {
  ir::ProgramBuilder b;
  b.CallAssign({"acc"}, "init", {}, nullptr);
  b.BeginLoop("i", 5);
  b.CallAssign({"acc"}, "f", {"acc"}, nullptr);   // acc enters changeset
  b.Assign({"acc"}, {"acc"}, nullptr);            // reassign: rule 0
  b.EndLoop();
  auto program = b.Build();
  AnalyzeProgram(program.get());
  auto* loop = program->FindLoop(1);
  EXPECT_NE(loop->analysis().refusal.find("rule 0"), std::string::npos);
}

TEST(SideEffect, NestedRefusalPropagates) {
  ir::ProgramBuilder b;
  b.BeginLoop("e", 3);
  b.BeginLoop("i", 3);
  b.OpaqueCall("mystery", {}, nullptr);
  b.EndLoop();
  b.EndLoop();
  auto program = b.Build();
  AnalyzeProgram(program.get());
  EXPECT_NE(program->FindLoop(1)->analysis().refusal.find("nested loop"),
            std::string::npos);
  EXPECT_NE(program->FindLoop(2)->analysis().refusal.find("rule 5"),
            std::string::npos);
}

TEST(SideEffect, NestedChangesetMergesIntoParent) {
  ir::ProgramBuilder b;
  b.CallAssign({"model"}, "build", {}, nullptr);
  b.BeginLoop("e", 3);
  b.BeginLoop("i", 3);
  b.MethodCall("model", "update", {}, nullptr);
  b.EndLoop();
  b.EndLoop();
  auto program = b.Build();
  AnalyzeProgram(program.get());
  // Outer loop's changeset includes the nested loop's effect on model.
  EXPECT_EQ(program->FindLoop(1)->analysis().changeset,
            (std::vector<std::string>{"model"}));
  // The nested iteration variable does not leak.
  for (const auto& v : program->FindLoop(1)->analysis().changeset)
    EXPECT_NE(v, "i");
}

TEST(SideEffect, LoopScopedReceiverFiltered) {
  ir::ProgramBuilder b;
  b.BeginLoop("i", 3);
  b.CallAssign({"tmp_obj"}, "make", {}, nullptr);
  b.MethodCall("tmp_obj", "mutate", {}, nullptr);
  b.EndLoop();
  auto program = b.Build();
  AnalyzeProgram(program.get());
  auto& a = program->FindLoop(1)->analysis();
  EXPECT_TRUE(a.changeset.empty());
  EXPECT_EQ(a.filtered, (std::vector<std::string>{"tmp_obj"}));
}

TEST(Instrument, PolicyWrapsTrainingLoopOnly) {
  auto program = PaperExampleProgram();
  InstrumentReport report = InstrumentProgram(program.get());
  EXPECT_EQ(report.loops_total, 2);
  EXPECT_EQ(report.loops_instrumented, 1);
  EXPECT_FALSE(program->FindLoop(1)->analysis().instrumented);  // main
  EXPECT_TRUE(program->FindLoop(2)->analysis().instrumented);   // training
  // Main-loop refusal reason mentions the generator.
  bool main_refused = false;
  for (const auto& [id, reason] : report.refusals)
    if (id == 1) main_refused = true;
  EXPECT_TRUE(main_refused);
}

TEST(Instrument, SkippableEpochLoops) {
  auto program = PaperExampleProgram();
  InstrumentProgram(program.get());
  auto loops = SkippableEpochLoops(program.get());
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0]->id(), 2);
}

TEST(Augment, OptimizerPullsModelAndScheduler) {
  Rng rng = testutil::SeededRng(1);
  nn::Linear net("net", 2, 2, &rng);
  nn::Sgd opt(&net, 0.1f);
  nn::StepLr sched(&opt, 2, 0.5f);

  exec::Frame frame;
  frame.Set("net", ir::Value::ModuleRef(&net));
  frame.Set("optimizer", ir::Value::OptimizerRef(&opt));
  frame.Set("scheduler", ir::Value::SchedulerRef(&sched));
  frame.Set("unrelated", ir::Value::Int(3));

  auto augmented = AugmentChangeset(frame, {"optimizer"});
  EXPECT_EQ(augmented, (std::vector<std::string>{"net", "optimizer",
                                                 "scheduler"}));
}

TEST(Augment, SchedulerPullsOptimizerTransitively) {
  Rng rng = testutil::SeededRng(2);
  nn::Linear net("net", 2, 2, &rng);
  nn::Adam opt(&net, 0.1f);
  nn::CosineLr sched(&opt, 10);

  exec::Frame frame;
  frame.Set("model", ir::Value::ModuleRef(&net));
  frame.Set("opt", ir::Value::OptimizerRef(&opt));
  frame.Set("sched", ir::Value::SchedulerRef(&sched));

  auto augmented = AugmentChangeset(frame, {"sched"});
  // sched -> opt -> model (fixpoint).
  EXPECT_EQ(augmented,
            (std::vector<std::string>{"model", "opt", "sched"}));
}

TEST(Augment, AliasesAllIncluded) {
  Rng rng = testutil::SeededRng(3);
  nn::Linear net("net", 2, 2, &rng);
  nn::Sgd opt(&net, 0.1f);
  exec::Frame frame;
  frame.Set("net", ir::Value::ModuleRef(&net));
  frame.Set("model_alias", ir::Value::ModuleRef(&net));
  frame.Set("optimizer", ir::Value::OptimizerRef(&opt));
  auto augmented = AugmentChangeset(frame, {"optimizer"});
  EXPECT_EQ(augmented, (std::vector<std::string>{"model_alias", "net",
                                                 "optimizer"}));
}

TEST(Augment, NonReferenceChangesetUnchanged) {
  exec::Frame frame;
  frame.Set("x", ir::Value::Int(1));
  auto augmented = AugmentChangeset(frame, {"x", "unbound"});
  EXPECT_EQ(augmented, (std::vector<std::string>{"unbound", "x"}));
}

// --- When weak initialization is exact (analysis/weak_init.h).

using CheckpointNames = std::map<int32_t, std::vector<std::string>>;

/// The names the workload program's training loop checkpoints: its
/// changeset {optimizer}, augmented with net and scheduler.
CheckpointNames WorkloadNames(ir::Program* program) {
  const std::vector<ir::Loop*> loops = SkippableEpochLoops(program);
  EXPECT_EQ(loops.size(), 1u);
  return {{loops[0]->id(), {"net", "optimizer", "scheduler"}}};
}

std::unique_ptr<ir::Program> WorkloadProgram(uint32_t probes) {
  auto profile = workloads::WorkloadByName("RsNt");
  EXPECT_TRUE(profile.ok());
  auto instance = workloads::MakeWorkloadFactory(*profile, probes)();
  EXPECT_TRUE(instance.ok());
  InstrumentProgram(instance->program.get());
  return std::move(instance->program);
}

TEST(WeakInit, WorkloadProgramIsExact) {
  for (uint32_t probes : {workloads::kProbeNone, workloads::kProbeOuter,
                          workloads::kProbeInner}) {
    auto program = WorkloadProgram(probes);
    const WeakInitReport report =
        AnalyzeWeakInit(*program->MainLoop(), WorkloadNames(program.get()));
    EXPECT_TRUE(report.exact) << probes;
    EXPECT_EQ(report.carried, (std::vector<std::string>{
                                  "net", "optimizer", "scheduler"}));
  }
}

TEST(WeakInit, WrittenBeforeReadIsNotCarried) {
  // test_acc is assigned by evaluate() before the log reads it, every
  // iteration; the loop-scoped temporaries are assigned before they are
  // read too.
  auto program = WorkloadProgram(workloads::kProbeOuter);
  const WeakInitReport report =
      AnalyzeWeakInit(*program->MainLoop(), WorkloadNames(program.get()));
  for (const char* local : {"test_acc", "batch", "preds", "loss", "i"}) {
    EXPECT_EQ(std::count(report.carried.begin(), report.carried.end(),
                         local),
              0)
        << local;
  }
}

/// The paper's example program, plus `best = max(best, test_acc)` and a
/// log of best in the main-loop body.
std::unique_ptr<ir::Program> BestProgram() {
  ir::ProgramBuilder b;
  b.CallAssign({"net"}, "build_model", {}, nullptr);
  b.CallAssign({"optimizer"}, "make_optimizer", {"net"}, nullptr);
  b.CallAssign({"scheduler"}, "make_scheduler", {"optimizer"}, nullptr);
  b.CallAssign({"best"}, "zero", {}, nullptr);
  b.BeginLoop("e", 10);
  {
    b.BeginLoop("i", 4);
    {
      b.CallAssign({"loss"}, "forward", {"net", "i"}, nullptr);
      b.MethodCall("optimizer", "step", {}, nullptr);
    }
    b.EndLoop();
    b.MethodCall("scheduler", "step", {}, nullptr);
    b.CallAssign({"test_acc"}, "evaluate", {"net", "e"}, nullptr);
    b.CallAssign({"best"}, "max", {"best", "test_acc"}, nullptr);
    b.Log("best", nullptr, {"best"});
  }
  b.EndLoop();
  auto program = b.Build();
  InstrumentProgram(program.get());
  return program;
}

TEST(WeakInit, CarriedStateNoCheckpointHoldsIsNotExact) {
  auto program = BestProgram();
  const WeakInitReport report =
      AnalyzeWeakInit(*program->MainLoop(), WorkloadNames(program.get()));
  EXPECT_FALSE(report.exact);
  EXPECT_EQ(report.carried, (std::vector<std::string>{
                                "best", "net", "optimizer", "scheduler"}));
  // With best checkpointed too, the same walk is exact.
  CheckpointNames with_best = WorkloadNames(program.get());
  with_best.begin()->second.push_back("best");
  EXPECT_TRUE(AnalyzeWeakInit(*program->MainLoop(), with_best).exact);
}

TEST(WeakInit, ARestoreAfterTheReadIsNotExact) {
  // Both carried variables are checkpointed, but `a = g(b)` reads b before
  // the second SkipBlock restores it: the init iteration recomputes a from
  // the preamble's b, and the record's a came from epoch s-2's b.
  ir::ProgramBuilder b;
  b.CallAssign({"a"}, "init", {}, nullptr);
  b.CallAssign({"b"}, "init", {}, nullptr);
  b.BeginLoop("e", 10);
  {
    b.BeginLoop("i", 3);  // SkipBlock holding a
    b.MethodCall("a", "update", {}, nullptr);
    b.EndLoop();
    b.CallAssign({"a"}, "g", {"b"}, nullptr);
    b.BeginLoop("j", 3);  // SkipBlock holding b
    b.MethodCall("b", "update", {}, nullptr);
    b.EndLoop();
  }
  b.EndLoop();
  auto program = b.Build();
  InstrumentProgram(program.get());
  const std::vector<ir::Loop*> loops = SkippableEpochLoops(program.get());
  ASSERT_EQ(loops.size(), 2u);
  const CheckpointNames names{{loops[0]->id(), {"a"}},
                              {loops[1]->id(), {"b"}}};

  const WeakInitReport report = AnalyzeWeakInit(*program->MainLoop(), names);
  EXPECT_EQ(report.carried, (std::vector<std::string>{"a", "b"}));
  EXPECT_FALSE(report.exact);
}

TEST(WeakInit, OpaqueCallArgumentsAreWrites) {
  // history is read by an opaque call, which may mutate it: it is carried
  // and no checkpoint restores it. Read by a rule-2 call instead, it is
  // never written, so it keeps the preamble's value under either mode.
  for (bool opaque : {true, false}) {
    ir::ProgramBuilder b;
    b.CallAssign({"net"}, "build_model", {}, nullptr);
    b.CallAssign({"optimizer"}, "make_optimizer", {"net"}, nullptr);
    b.CallAssign({"history"}, "make_history", {}, nullptr);
    b.BeginLoop("e", 10);
    {
      b.BeginLoop("i", 4);
      b.MethodCall("optimizer", "step", {}, nullptr);
      b.EndLoop();
      b.CallAssign({"test_acc"}, "evaluate", {"net", "e"}, nullptr);
      if (opaque) {
        b.OpaqueCall("append", {"history", "test_acc"}, nullptr);
      } else {
        b.CallAssign({"n"}, "len", {"history", "test_acc"}, nullptr);
      }
    }
    b.EndLoop();
    auto program = b.Build();
    InstrumentProgram(program.get());
    const CheckpointNames names{
        {SkippableEpochLoops(program.get())[0]->id(), {"net", "optimizer"}}};

    const WeakInitReport report =
        AnalyzeWeakInit(*program->MainLoop(), names);
    EXPECT_EQ(report.exact, !opaque) << opaque;
    EXPECT_EQ(std::count(report.carried.begin(), report.carried.end(),
                         "history"),
              opaque ? 1 : 0);
  }
}

TEST(WeakInit, SkipBlockWithoutNamesIsNotExact) {
  // A manifest written before the names lines existed, or a loop that
  // never checkpointed: nothing says what a restore makes fresh.
  auto program = WorkloadProgram(workloads::kProbeOuter);
  EXPECT_FALSE(AnalyzeWeakInit(*program->MainLoop(), {}).exact);
  EXPECT_FALSE(
      AnalyzeWeakInit(*program->MainLoop(), {{99, {"net"}}}).exact);
}

TEST(WeakInit, LoopOutsideASkipBlockLeavesItsWritesStale) {
  // A refused inner loop runs in the init iteration; the pass does not
  // trust what it computes, so a carried variable it writes stays stale.
  ir::ProgramBuilder b;
  b.CallAssign({"net"}, "build_model", {}, nullptr);
  b.CallAssign({"optimizer"}, "make_optimizer", {"net"}, nullptr);
  b.BeginLoop("e", 10);
  {
    b.BeginLoop("i", 4);
    b.MethodCall("optimizer", "step", {}, nullptr);
    b.EndLoop();
    b.BeginLoop("k", 2);  // refused: rule 5
    b.OpaqueCall("calibrate", {"net"}, nullptr);
    b.EndLoop();
  }
  b.EndLoop();
  auto program = b.Build();
  InstrumentProgram(program.get());
  const std::vector<ir::Loop*> loops = SkippableEpochLoops(program.get());
  ASSERT_EQ(loops.size(), 1u);
  const WeakInitReport report = AnalyzeWeakInit(
      *program->MainLoop(), {{loops[0]->id(), {"net", "optimizer"}}});
  EXPECT_FALSE(report.exact);
  EXPECT_EQ(report.carried, (std::vector<std::string>{"net", "optimizer"}));
}

}  // namespace
}  // namespace analysis
}  // namespace flor

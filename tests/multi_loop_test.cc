// Structural generality tests: programs with several skippable loops per
// epoch, deeper loop nesting, and record/replay on a real (posix)
// filesystem.

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/strings.h"
#include "exec/replay_executor.h"
#include "flor/record.h"
#include "ir/builder.h"
#include "test_util.h"

namespace flor {
namespace {

using exec::Frame;

/// A script whose main loop contains TWO instrumented loops — a training
/// loop and a validation loop — each mutating its own accumulator. This
/// exercises the partition-boundary intersection across skippable loops
/// (CheckpointBoundaryEpochs in flor/replay_plan.cc).
Result<ProgramInstance> TwoLoopProgram(bool probe_valid) {
  // All state lives in frame variables, so the declared changesets are the
  // whole truth (contrast property_test.cc's HiddenSideEffectProgram).
  ir::ProgramBuilder b;
  b.Assign({"t"}, {"0"}, [](Frame* f) {
    f->Set("t", ir::Value::Float(0));
    return Status::OK();
  });
  b.Assign({"v"}, {"0"}, [](Frame* f) {
    f->Set("v", ir::Value::Float(0));
    return Status::OK();
  });
  b.BeginLoop("e", 6);
  {
    b.BeginLoop("i", 3);  // training loop (L2)
    {
      b.CallAssign({"t"}, "train_step", {"t", "e", "i"}, [](Frame* f) {
         const double t =
             f->At("t").AsFloat() + 1 + f->At("e").AsInt() * 0.1;
         f->Set("t", ir::Value::Float(t));
         return Status::OK();
       }).Cost(5.0);
    }
    b.EndLoop();
    b.BeginLoop("j", 2);  // validation loop (L3)
    {
      b.CallAssign({"v"}, "valid_step", {"v", "t"}, [](Frame* f) {
         const double v =
             f->At("v").AsFloat() + f->At("t").AsFloat() * 0.01;
         f->Set("v", ir::Value::Float(v));
         return Status::OK();
       }).Cost(1.0);
      if (probe_valid) {
        b.Log("v_probe", [](Frame* f) {
          return StrFormat("%.6f", f->At("v").AsFloat());
        });
      }
    }
    b.EndLoop();
    b.Log("t", [](Frame* f) {
      return StrFormat("%.6f", f->At("t").AsFloat());
    });
    b.Log("v", [](Frame* f) {
      return StrFormat("%.6f", f->At("v").AsFloat());
    });
  }
  b.EndLoop();
  ProgramInstance out;
  out.program = b.Build();
  return out;
}

TEST(MultiLoop, BothLoopsInstrumentedAndCheckpointed) {
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  auto instance = TwoLoopProgram(false);
  ASSERT_TRUE(instance.ok());
  RecordOptions opts;
  opts.run_prefix = "run";
  RecordSession session(&env, opts);
  Frame frame;
  auto result = session.Run(instance->program.get(), &frame);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->instrument.loops_instrumented, 2);
  // 6 epochs x 2 loops.
  EXPECT_EQ(result->manifest.records.size(), 12u);
  EXPECT_EQ(result->manifest.EpochsWithCheckpoint(2).size(), 6u);
  EXPECT_EQ(result->manifest.EpochsWithCheckpoint(3).size(), 6u);
}

TEST(MultiLoop, ProbingOneLoopSkipsTheOther) {
  MemFileSystem fs;
  {
    Env env = testutil::MakeSimEnv(&fs);
    auto instance = TwoLoopProgram(false);
    ASSERT_TRUE(instance.ok());
    RecordOptions opts;
    opts.run_prefix = "run";
    RecordSession session(&env, opts);
    Frame frame;
    ASSERT_TRUE(session.Run(instance->program.get(), &frame).ok());
  }
  ClusterPlanOptions request;
  request.run_prefix = "run";
  auto result = exec::Replay(ReplayEngine::kSimulated, &fs, request, [] {
    return TwoLoopProgram(true);  // probe only the validation loop
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Training loops all skipped (6), validation loops all executed (6).
  EXPECT_EQ(result->skipblocks.skipped, 6);
  EXPECT_EQ(result->skipblocks.executed, 6);
  EXPECT_EQ(result->probe_entries.size(), 6u * 2u);
  EXPECT_TRUE(result->deferred.ok)
      << (result->deferred.anomalies.empty()
              ? ""
              : result->deferred.anomalies[0]);
}

TEST(MultiLoop, ParallelReplayIntersectsBoundaries) {
  MemFileSystem fs;
  {
    Env env = testutil::MakeSimEnv(&fs);
    auto instance = TwoLoopProgram(false);
    ASSERT_TRUE(instance.ok());
    RecordOptions opts;
    opts.run_prefix = "run";
    RecordSession session(&env, opts);
    Frame frame;
    ASSERT_TRUE(session.Run(instance->program.get(), &frame).ok());
  }
  ClusterPlanOptions copts;
  copts.run_prefix = "run";
  copts.num_workers = 4;  // 4 workers over 6 epochs
  auto result = exec::Replay(ReplayEngine::kSimulated, &fs, copts,
                             [] { return TwoLoopProgram(true); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // 6 epochs balance optimally onto 3 workers (2-2-2); a 4th would not
  // reduce the maximum share, so the partitioner does not use it.
  EXPECT_EQ(result->workers_used, 3);
  EXPECT_TRUE(result->deferred.ok)
      << (result->deferred.anomalies.empty()
              ? ""
              : result->deferred.anomalies[0]);
  EXPECT_EQ(result->probe_entries.size(), 6u * 2u);
}

/// Three-deep nesting: the epoch loop contains a batch loop which contains
/// a micro-batch (gradient-accumulation) loop. Checkpoint keys carry the
/// full nested context ("e=1/i=2").
Result<ProgramInstance> DeepNestProgram() {
  auto ctx = std::make_shared<double>(0.0);
  ir::ProgramBuilder b;
  b.Assign({"acc"}, {"0"}, [ctx](Frame* f) {
    *ctx = 0;
    f->Set("acc", ir::Value::Float(0));
    return Status::OK();
  });
  b.BeginLoop("e", 3);
  {
    b.BeginLoop("i", 2);
    {
      b.BeginLoop("m", 4);  // micro-batch loop (L3), nested two deep
      {
        b.CallAssign({"acc"}, "micro_step", {"acc", "e", "i", "m"},
                     [ctx](Frame* f) {
                       *ctx += 0.5 + f->At("m").AsInt() * 0.25;
                       f->Set("acc", ir::Value::Float(*ctx));
                       return Status::OK();
                     })
            .Cost(2.0);
      }
      b.EndLoop();
    }
    b.EndLoop();
    b.Log("acc", [](Frame* f) {
      return StrFormat("%.6f", f->At("acc").AsFloat());
    });
  }
  b.EndLoop();
  ProgramInstance out;
  out.program = b.Build();
  out.context = ctx;
  return out;
}

TEST(DeepNest, NestedContextsKeyCheckpoints) {
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  auto instance = DeepNestProgram();
  ASSERT_TRUE(instance.ok());
  RecordOptions opts;
  opts.run_prefix = "run";
  RecordSession session(&env, opts);
  Frame frame;
  auto result = session.Run(instance->program.get(), &frame);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Both the batch loop (per epoch) and the micro loop (per epoch x batch)
  // are instrumented: 3 + 3*2 checkpoints.
  EXPECT_EQ(result->instrument.loops_instrumented, 2);
  EXPECT_EQ(result->manifest.records.size(), 3u + 6u);
  bool saw_nested_key = false;
  for (const auto& rec : result->manifest.records)
    if (rec.key.ctx == "e=1/i=0") saw_nested_key = true;
  EXPECT_TRUE(saw_nested_key);
}

TEST(DeepNest, ReplaySkipsAtTheOutermostSkippableLevel) {
  MemFileSystem fs;
  {
    Env env = testutil::MakeSimEnv(&fs);
    auto instance = DeepNestProgram();
    ASSERT_TRUE(instance.ok());
    RecordOptions opts;
    opts.run_prefix = "run";
    RecordSession session(&env, opts);
    Frame frame;
    ASSERT_TRUE(session.Run(instance->program.get(), &frame).ok());
  }
  ClusterPlanOptions request;
  request.run_prefix = "run";
  auto result = exec::Replay(ReplayEngine::kSimulated, &fs, request,
                             [] { return DeepNestProgram(); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The batch loop (direct child of main) skips; its nested micro loops
  // are never reached.
  EXPECT_EQ(result->skipblocks.skipped, 3);
  EXPECT_EQ(result->skipblocks.executed, 0);
  EXPECT_TRUE(result->deferred.ok);
  ASSERT_FALSE(result->merged_logs.entries().empty());
  const exec::LogEntry& last = result->merged_logs.entries().back();
  EXPECT_EQ(last.label, "acc");
  EXPECT_NEAR(std::strtod(last.text.c_str(), nullptr),
              3 * 2 * (4 * 0.5 + 0.25 * 6), 1e-4);
}

using PosixEndToEnd = testutil::ScratchDirTest;

TEST_F(PosixEndToEnd, RecordReplayOnRealDisk) {
  {
    auto env = NewPosixEnv();
    auto instance = TwoLoopProgram(false);
    ASSERT_TRUE(instance.ok());
    RecordOptions opts;
    opts.run_prefix = "run";
    // Real wall-clock loop bodies run in microseconds, so the Joint
    // Invariant would (correctly) checkpoint sparsely; force density so
    // the partitioned replay below has boundaries everywhere.
    opts.adaptive.enabled = false;
    RecordSession session(env.get(), opts);
    Frame frame;
    auto result = session.Run(instance->program.get(), &frame);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->manifest.records.size(), 12u);
  }
  {
    auto env = NewPosixEnv();
    ClusterPlanOptions request;
    request.run_prefix = "run";
    auto result = exec::Replay(ReplayEngine::kThreads, env->fs(), request,
                               [] { return TwoLoopProgram(true); });
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->deferred.ok)
        << (result->deferred.anomalies.empty()
                ? ""
                : result->deferred.anomalies[0]);
    EXPECT_EQ(result->probe_entries.size(), 12u);
  }
}

}  // namespace
}  // namespace flor

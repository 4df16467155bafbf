// Property suites across the whole record/replay stack (DESIGN.md §6):
//   * loop memoization correctness over a family of program shapes,
//   * partitioned replay ≡ sequential replay for any worker count,
//   * the unsafe-analysis failure modes (hidden side effects, unmanaged
//     RNG) are caught by the deferred checks,
//   * refused (rule-5) loops still replay correctly by re-execution.

#include <gtest/gtest.h>

#include "common/strings.h"
#include "exec/replay_executor.h"
#include "flor/record.h"
#include "ir/builder.h"
#include "flor/replay.h"
#include "test_util.h"
#include "workloads/programs.h"

namespace flor {
namespace {

using exec::Frame;
using workloads::kProbeInner;
using workloads::kProbeNone;
using workloads::kProbeOuter;
using workloads::MakeWorkloadFactory;
using workloads::WorkloadProfile;
using workloads::WorkloadRuntime;

WorkloadProfile ShapedProfile(int64_t epochs, int64_t samples,
                              int64_t batch, uint64_t seed) {
  WorkloadProfile p;
  p.name = "Prop";
  p.epochs = epochs;
  p.sim_epoch_seconds = 10;
  p.sim_outer_seconds = 1;
  p.sim_preamble_seconds = 1;
  p.sim_ckpt_raw_bytes = 1 << 20;
  p.task_kind = data::Task::kVision;
  p.real_samples = samples;
  p.real_batch = batch;
  p.real_feature_dim = 12;
  p.real_classes = 3;
  p.real_hidden = 12;
  p.seed = seed;
  return p;
}

uint64_t RecordAndFingerprint(FileSystem* fs, const WorkloadProfile& p) {
  Env env = testutil::MakeSimEnv(fs);
  auto instance = MakeWorkloadFactory(p, kProbeNone)();
  EXPECT_TRUE(instance.ok());
  RecordOptions opts = workloads::DefaultRecordOptions(p, "run");
  RecordSession session(&env, opts);
  Frame frame;
  auto result = session.Run(instance->program.get(), &frame);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return static_cast<WorkloadRuntime*>(instance->context.get())
      ->net->StateFingerprint();
}

// ---------------------------------------------------------------------
// Property 1: restoring Loop End Checkpoints ≡ executing the loops, over a
// sweep of program shapes.
class MemoizationSweep : public ::testing::TestWithParam<
                             std::tuple<int64_t, int64_t, uint64_t>> {};

TEST_P(MemoizationSweep, ReplayReproducesRecordedState) {
  auto [epochs, batches, seed] = GetParam();
  const WorkloadProfile p =
      ShapedProfile(epochs, batches * 8, 8, seed);
  MemFileSystem fs;
  const uint64_t recorded = RecordAndFingerprint(&fs, p);

  // Keep the replayed instance's context, which owns its model.
  std::shared_ptr<void> context;
  auto factory = [&context, &p]() -> Result<ProgramInstance> {
    auto instance = MakeWorkloadFactory(p, kProbeNone)();
    if (instance.ok()) context = instance->context;
    return instance;
  };
  ClusterPlanOptions request;
  request.run_prefix = "run";
  auto result = exec::Replay(ReplayEngine::kSimulated, &fs, request, factory);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->deferred.ok);
  EXPECT_EQ(result->skipblocks.executed, 0);
  auto* rt = static_cast<WorkloadRuntime*>(context.get());
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->net->StateFingerprint(), recorded);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MemoizationSweep,
    ::testing::Combine(::testing::Values<int64_t>(1, 3, 9),
                       ::testing::Values<int64_t>(1, 4),
                       ::testing::Values<uint64_t>(7, 1234)));

// ---------------------------------------------------------------------
// Property 2: partitioned replay produces exactly the sequential replay's
// hindsight output, for any worker count and probe placement.
class PartitionEquivalence
    : public ::testing::TestWithParam<std::tuple<int, uint32_t>> {};

TEST_P(PartitionEquivalence, MergedOutputMatchesSequential) {
  auto [gpus, probes] = GetParam();
  const WorkloadProfile p = ShapedProfile(8, 32, 8, 55);
  MemFileSystem fs;
  RecordAndFingerprint(&fs, p);

  auto factory = MakeWorkloadFactory(p, probes);

  // Sequential reference (one worker).
  std::vector<std::string> sequential;
  {
    ClusterPlanOptions request;
    request.run_prefix = "run";
    auto result =
        exec::Replay(ReplayEngine::kSimulated, &fs, request, factory);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->deferred.ok);
    for (const auto& e : result->probe_entries)
      sequential.push_back(e.context + ":" + e.label + "=" + e.text);
  }

  // Partitioned run.
  ClusterPlanOptions copts;
  copts.run_prefix = "run";
  copts.num_workers = gpus;
  auto result = exec::Replay(ReplayEngine::kSimulated, &fs, copts, factory);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->deferred.ok)
      << (result->deferred.anomalies.empty()
              ? ""
              : result->deferred.anomalies[0]);
  std::vector<std::string> merged;
  for (const auto& e : result->probe_entries)
    merged.push_back(e.context + ":" + e.label + "=" + e.text);
  EXPECT_EQ(merged, sequential);
}

INSTANTIATE_TEST_SUITE_P(
    WorkersAndProbes, PartitionEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values<uint32_t>(
                           workloads::kProbeNone, workloads::kProbeOuter,
                           workloads::kProbeInner,
                           workloads::kProbeOuter |
                               workloads::kProbeInner)));

// ---------------------------------------------------------------------
// Property 3: a statement whose semantics mutate more than its surface
// pattern admits (Python dynamism) produces a replay anomaly that the
// deferred check catches (paper §5.2.2).

struct HiddenState {
  double acc = 0;
};

Result<ProgramInstance> HiddenSideEffectProgram(bool log_hidden) {
  auto ctx = std::make_shared<HiddenState>();
  ir::ProgramBuilder b;
  b.Assign({"x"}, {"0"}, [ctx](Frame* f) {
    ctx->acc = 0;
    f->Set("x", ir::Value::Float(0));
    return Status::OK();
  });
  b.BeginLoop("e", 4);
  {
    b.BeginLoop("i", 2);
    {
      // Surface pattern says "x = f(x)": changeset {x}. The callback ALSO
      // accumulates into hidden context state the analysis cannot see.
      b.CallAssign({"x"}, "f", {"x"}, [ctx](Frame* f) {
         const double x = f->At("x").AsFloat() + 1;
         ctx->acc += x;  // hidden side effect
         f->Set("x", ir::Value::Float(x));
         return Status::OK();
       }).Cost(1.0);  // nonzero Ci so the controller checkpoints
    }
    b.EndLoop();
    if (log_hidden) {
      b.Log("hidden_acc", [ctx](Frame*) {
        return StrFormat("%.3f", ctx->acc);
      });
    }
    b.Log("x", [](Frame* f) {
      return StrFormat("%.3f", f->At("x").AsFloat());
    });
  }
  b.EndLoop();
  ProgramInstance instance;
  instance.program = b.Build();
  instance.context = ctx;
  return instance;
}

TEST(DeferredChecks, HiddenSideEffectCaught) {
  MemFileSystem fs;
  {
    Env env = testutil::MakeSimEnv(&fs);
    auto instance = HiddenSideEffectProgram(true);
    ASSERT_TRUE(instance.ok());
    RecordOptions opts;
    opts.run_prefix = "run";
    RecordSession session(&env, opts);
    Frame frame;
    ASSERT_TRUE(session.Run(instance->program.get(), &frame).ok());
  }
  // Replay with a worker segment that skips epochs 0-1 via init restore:
  // the checkpoint restores x but not the hidden accumulator, so the
  // logged hidden_acc diverges — and the deferred check must flag it.
  ClusterPlanOptions request;
  request.run_prefix = "run";
  request.num_workers = 2;
  request.init_mode = InitMode::kWeak;
  auto result = exec::Replay(ReplayEngine::kSimulated, &fs, request,
                             [] { return HiddenSideEffectProgram(true); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->deferred.ok)
      << "hidden side effect escaped the deferred check";
  EXPECT_FALSE(result->deferred.anomalies.empty());
  EXPECT_TRUE(result->deferred.ToStatus().IsReplayAnomaly());
}

TEST(DeferredChecks, SameProgramWithoutHiddenLogPasses) {
  // If the hidden state is never observable in logs, replay output agrees
  // with record output (the anomaly is invisible — matching the paper's
  // fingerprint argument: divergence shows up via logged metrics).
  MemFileSystem fs;
  {
    Env env = testutil::MakeSimEnv(&fs);
    auto instance = HiddenSideEffectProgram(false);
    ASSERT_TRUE(instance.ok());
    RecordOptions opts;
    opts.run_prefix = "run";
    RecordSession session(&env, opts);
    Frame frame;
    ASSERT_TRUE(session.Run(instance->program.get(), &frame).ok());
  }
  ClusterPlanOptions request;
  request.run_prefix = "run";
  request.num_workers = 2;
  request.init_mode = InitMode::kWeak;
  auto result = exec::Replay(ReplayEngine::kSimulated, &fs, request,
                             [] { return HiddenSideEffectProgram(false); });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->deferred.ok);
}

// ---------------------------------------------------------------------
// Property 4: RNG state driving in-loop randomness must be visible to the
// analysis (an explicit rng method call puts it in the changeset); then
// sampled re-execution reproduces recorded randomness bit-exactly.

Result<ProgramInstance> RngProgram(bool rng_in_changeset,
                                   bool probed = false) {
  struct Ctx {
    Rng rng{testutil::TestSeed(424242)};
  };
  auto ctx = std::make_shared<Ctx>();
  ir::ProgramBuilder b;
  b.Assign({"rng"}, {"seed"}, [ctx](Frame* f) {
    ctx->rng = Rng(testutil::TestSeed(424242));
    f->Set("rng", ir::Value::RngRef(&ctx->rng));
    return Status::OK();
  });
  b.Assign({"noise"}, {"0"}, [](Frame* f) {
    f->Set("noise", ir::Value::Float(0));
    return Status::OK();
  });
  b.BeginLoop("e", 4);
  {
    b.BeginLoop("i", 3);
    {
      if (rng_in_changeset) {
        // "rng.tick()" — rule 4 puts rng into the changeset, so its stream
        // position is checkpointed and restored.
        b.MethodCall("rng", "tick", {}, [](Frame*) { return Status::OK(); });
      }
      b.CallAssign({"noise"}, "draw", {"rng"}, [](Frame* f) {
         const double draw = f->At("rng").AsRng()->NextDouble();
         f->Set("noise", ir::Value::Float(draw));
         return Status::OK();
       }).Cost(1.0);  // nonzero Ci so the controller checkpoints
      if (probed) {
        // Hindsight probe inside the inner loop: forces the sampled epoch
        // to *re-execute* (a skipped loop would trivially match).
        b.Log("probe_noise", [](Frame* f) {
          return StrFormat("%.12f", f->At("noise").AsFloat());
        });
      }
    }
    b.EndLoop();
    b.Log("noise", [](Frame* f) {
      return StrFormat("%.12f", f->At("noise").AsFloat());
    });
  }
  b.EndLoop();
  ProgramInstance instance;
  instance.program = b.Build();
  instance.context = ctx;
  return instance;
}

/// Same program with the hindsight probe enabled.
Result<ProgramInstance> ProbedRngProgram(bool rng_in_changeset) {
  return RngProgram(rng_in_changeset, /*probed=*/true);
}

void RecordProgram(FileSystem* fs, const ProgramFactory& factory) {
  Env env = testutil::MakeSimEnv(fs);
  auto instance = factory();
  ASSERT_TRUE(instance.ok());
  RecordOptions opts;
  opts.run_prefix = "run";
  RecordSession session(&env, opts);
  Frame frame;
  ASSERT_TRUE(session.Run(instance->program.get(), &frame).ok());
}

TEST(DeferredChecks, RngInChangesetReplaysExactly) {
  MemFileSystem fs;
  RecordProgram(&fs, [] { return RngProgram(true); });
  ClusterPlanOptions request;
  request.run_prefix = "run";
  request.sample_epochs = {2};  // random-access epoch 2: re-executes it
  auto result = exec::Replay(ReplayEngine::kSimulated, &fs, request,
                             [] { return ProbedRngProgram(true); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->deferred.ok)
      << (result->deferred.anomalies.empty()
              ? ""
              : result->deferred.anomalies[0]);
}

TEST(DeferredChecks, RngMissedFromChangesetCaught) {
  MemFileSystem fs;
  RecordProgram(&fs, [] { return RngProgram(false); });
  ClusterPlanOptions request;
  request.run_prefix = "run";
  request.sample_epochs = {2};
  auto result = exec::Replay(ReplayEngine::kSimulated, &fs, request,
                             [] { return ProbedRngProgram(false); });
  ASSERT_TRUE(result.ok());
  // The re-executed epoch draws from an unrestored stream: caught.
  EXPECT_FALSE(result->deferred.ok);
}

// ---------------------------------------------------------------------
// Property 5: a loop refused by the analysis (rule 5 in its body) is never
// memoized, and replay still reproduces record by re-executing it.

using testutil::RefusedLoopProgram;

TEST(RefusedLoops, ReplayReexecutesAndMatches) {
  MemFileSystem fs;
  RecordProgram(&fs, [] { return RefusedLoopProgram(); });

  ClusterPlanOptions request;
  request.run_prefix = "run";
  auto result = exec::Replay(ReplayEngine::kSimulated, &fs, request,
                             [] { return RefusedLoopProgram(); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Nothing was instrumented, so nothing was skipped — but the logs match.
  EXPECT_EQ(result->skipblocks.skipped, 0);
  EXPECT_TRUE(result->deferred.ok);
  ASSERT_FALSE(result->merged_logs.entries().empty());
  const exec::LogEntry& last = result->merged_logs.entries().back();
  EXPECT_EQ(last.label, "total");
  EXPECT_EQ(last.text, "6.0");
}

TEST(RefusedLoops, SamplingReexecutesInitEpochs) {
  // No SkipBlock in the main-loop body, so the record holds no checkpoint:
  // an init iteration restores nothing and re-executes its epoch, which
  // makes strong init exact without one.
  MemFileSystem fs;
  RecordProgram(&fs, [] { return RefusedLoopProgram(); });

  ClusterPlanOptions request;
  request.run_prefix = "run";
  request.sample_epochs = {2};
  auto result = exec::Replay(ReplayEngine::kSimulated, &fs, request,
                             [] { return RefusedLoopProgram(); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->effective_init, InitMode::kStrong);
  EXPECT_EQ(result->skipblocks.restores, 0);
  EXPECT_TRUE(result->deferred.ok);
  ASSERT_EQ(result->merged_logs.entries().size(), 1u);
  const exec::LogEntry& work = result->merged_logs.entries().front();
  EXPECT_EQ(work.context, "e=2");
  EXPECT_EQ(work.label, "total");
  EXPECT_EQ(work.text, "6.0");
}

TEST(RefusedLoops, NoCheckpointsMaterialized) {
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  auto instance = RefusedLoopProgram();
  ASSERT_TRUE(instance.ok());
  RecordOptions opts;
  opts.run_prefix = "run";
  RecordSession session(&env, opts);
  Frame frame;
  auto result = session.Run(instance->program.get(), &frame);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->manifest.records.size(), 0u);
  EXPECT_EQ(result->instrument.loops_instrumented, 0);
}

}  // namespace
}  // namespace flor

// Tests for the §8 future-work features: binary-search replay and
// cross-run log queries.

#include <gtest/gtest.h>

#include "common/strings.h"
#include "flor/query.h"
#include "flor/record.h"
#include "flor/search.h"
#include "ir/builder.h"
#include "test_util.h"
#include "workloads/programs.h"

namespace flor {
namespace {

using workloads::kProbeInner;
using workloads::kProbeNone;
using workloads::MakeWorkloadFactory;
using workloads::WorkloadProfile;

WorkloadProfile SearchProfile(int64_t epochs = 16) {
  WorkloadProfile p;
  p.name = "Search";
  p.epochs = epochs;
  p.sim_epoch_seconds = 50;
  p.sim_outer_seconds = 1;
  p.sim_preamble_seconds = 2;
  p.sim_ckpt_raw_bytes = 1 << 20;
  p.task_kind = data::Task::kVision;
  p.real_samples = 32;
  p.real_batch = 8;
  p.real_feature_dim = 12;
  p.real_classes = 3;
  p.real_hidden = 12;
  p.seed = testutil::TestSeed(4242);
  return p;
}

void RecordInto(FileSystem* fs, const WorkloadProfile& p,
                const std::string& prefix) {
  Env env(std::make_unique<SimClock>(), fs);
  auto instance = MakeWorkloadFactory(p, kProbeNone)();
  ASSERT_TRUE(instance.ok());
  RecordOptions opts = workloads::DefaultRecordOptions(p, prefix);
  RecordSession session(&env, opts);
  exec::Frame frame;
  auto result = session.Run(instance->program.get(), &frame);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

/// Predicate over the epoch index itself — a deterministic monotone
/// frontier lets us verify the search schedule exactly.
EpochPredicate FrontierAt(int64_t frontier) {
  return [frontier](int64_t epoch, const std::vector<exec::LogEntry>&)
             -> Result<bool> { return epoch >= frontier; };
}

TEST(SearchReplay, FindsFrontierInLogProbes) {
  const WorkloadProfile p = SearchProfile(16);
  MemFileSystem fs;
  RecordInto(&fs, p, "run");

  Env env = testutil::MakeSimEnv(&fs);
  SearchOptions opts;
  opts.run_prefix = "run";
  auto factory = MakeWorkloadFactory(p, kProbeInner);
  auto result = SearchReplay(&env, factory, FrontierAt(11), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->found_epoch, 11);
  // Binary search: O(log 16) + the initial last-epoch check.
  EXPECT_LE(result->probed_epochs.size(), 6u);
}

TEST(SearchReplay, NeverHoldsReturnsMinusOneAfterOneProbe) {
  const WorkloadProfile p = SearchProfile(16);
  MemFileSystem fs;
  RecordInto(&fs, p, "run");
  Env env = testutil::MakeSimEnv(&fs);
  SearchOptions opts;
  opts.run_prefix = "run";
  auto factory = MakeWorkloadFactory(p, kProbeInner);
  auto result = SearchReplay(
      &env, factory,
      [](int64_t, const std::vector<exec::LogEntry>&) -> Result<bool> {
        return false;
      },
      opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->found_epoch, -1);
  EXPECT_EQ(result->probed_epochs.size(), 1u);  // only the last epoch
}

TEST(SearchReplay, HoldsEverywhereFindsEpochZero) {
  const WorkloadProfile p = SearchProfile(8);
  MemFileSystem fs;
  RecordInto(&fs, p, "run");
  Env env = testutil::MakeSimEnv(&fs);
  SearchOptions opts;
  opts.run_prefix = "run";
  auto factory = MakeWorkloadFactory(p, kProbeInner);
  auto result = SearchReplay(&env, factory, FrontierAt(0), opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->found_epoch, 0);
}

TEST(SearchReplay, PredicateSeesEpochEntriesOnly) {
  const WorkloadProfile p = SearchProfile(8);
  MemFileSystem fs;
  RecordInto(&fs, p, "run");
  Env env = testutil::MakeSimEnv(&fs);
  SearchOptions opts;
  opts.run_prefix = "run";
  auto factory = MakeWorkloadFactory(p, kProbeInner);
  auto result = SearchReplay(
      &env, factory,
      [](int64_t epoch,
         const std::vector<exec::LogEntry>& entries) -> Result<bool> {
        // Every entry must come from the probed epoch's context, and the
        // hindsight grad_norm probe output must be present.
        bool saw_probe = false;
        for (const auto& e : entries) {
          EXPECT_EQ(e.context.find(StrCat("e=", epoch)), 0u) << e.context;
          if (e.label == "grad_norm") saw_probe = true;
        }
        EXPECT_TRUE(saw_probe);
        return epoch >= 5;
      },
      opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->found_epoch, 5);
}

TEST(SearchReplay, ConfirmationWindowRuns) {
  const WorkloadProfile p = SearchProfile(16);
  MemFileSystem fs;
  RecordInto(&fs, p, "run");
  Env env = testutil::MakeSimEnv(&fs);
  SearchOptions opts;
  opts.run_prefix = "run";
  opts.confirm_epochs = 2;
  auto factory = MakeWorkloadFactory(p, kProbeInner);
  auto result = SearchReplay(&env, factory, FrontierAt(6), opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->found_epoch, 6);
  EXPECT_TRUE(result->confirmed);
  // The confirmation window (epochs 7 and 8) was probed last.
  ASSERT_GE(result->probed_epochs.size(), 2u);
  const auto n = result->probed_epochs.size();
  EXPECT_EQ(result->probed_epochs[n - 2], 7);
  EXPECT_EQ(result->probed_epochs[n - 1], 8);
}

TEST(SearchReplay, CheaperThanFullReplayForLargeRuns) {
  const WorkloadProfile p = SearchProfile(64);
  MemFileSystem fs;
  RecordInto(&fs, p, "run");
  Env env = testutil::MakeSimEnv(&fs);
  SearchOptions opts;
  opts.run_prefix = "run";
  auto factory = MakeWorkloadFactory(p, kProbeInner);
  auto result = SearchReplay(&env, factory, FrontierAt(40), opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->found_epoch, 40);
  // <= 8 single-epoch probes vs a 64-epoch full re-execution.
  EXPECT_LT(result->total_latency_seconds, p.VanillaSeconds() / 4);
}

TEST(SearchReplay, SearchesAMainLoopWithoutSkipBlocks) {
  // The epoch count comes from the main loop's trip count, and with no
  // SkipBlock to restore, each probe re-executes the epochs before the
  // one it samples.
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  {
    auto instance = testutil::RefusedLoopProgram();
    ASSERT_TRUE(instance.ok());
    RecordOptions ropts;
    ropts.run_prefix = "run";
    RecordSession session(&env, ropts);
    exec::Frame frame;
    ASSERT_TRUE(session.Run(instance->program.get(), &frame).ok());
  }

  SearchOptions opts;
  opts.run_prefix = "run";
  auto result = SearchReplay(
      &env, [] { return testutil::RefusedLoopProgram(); },
      [](int64_t, const std::vector<exec::LogEntry>& entries)
          -> Result<bool> {
        double total = 0;
        if (entries.size() != 1 || !ParseF64(entries[0].text, &total))
          return Status::Internal("expected one logged total");
        return total >= 4.0;
      },
      opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->found_epoch, 1);
  EXPECT_EQ(result->probed_epochs, (std::vector<int64_t>{2, 1, 0}));
}

TEST(SearchReplay, DynamicMainLoopIsRefusedBeforeAnyProbe) {
  // A main loop over a frame variable has no static epoch count. The
  // innermost SkipBlock runs 3 times per epoch, so a count of SkipBlock
  // executions is no epoch count either: the search is refused before any
  // probe.
  auto program = [] {
    ir::ProgramBuilder b;
    b.CallAssign({"epochs", "w"}, "init", {}, [](exec::Frame* f) {
      f->Set("epochs", ir::Value::Int(4));
      f->Set("w", ir::Value::Int(0));
      return Status::OK();
    });
    b.BeginLoopVar("e", "epochs");
    b.BeginLoop("j", 3);
    b.BeginLoop("i", 2);
    b.MethodCall("w", "update", {}, [](exec::Frame* f) {
       f->Set("w", ir::Value::Int(f->At("w").AsInt() + 1));
       return Status::OK();
     }).Cost(1.0);
    b.EndLoop();
    b.EndLoop();
    b.Log("w", [](exec::Frame* f) { return StrCat(f->At("w").AsInt()); });
    b.EndLoop();
    ProgramInstance instance;
    instance.program = b.Build();
    return Result<ProgramInstance>(std::move(instance));
  };
  MemFileSystem mem;
  testutil::CountingFileSystem fs(&mem);
  Env env = testutil::MakeSimEnv(&fs);
  {
    auto instance = program();
    ASSERT_TRUE(instance.ok());
    RecordOptions ropts;
    ropts.run_prefix = "run";
    RecordSession session(&env, ropts);
    exec::Frame frame;
    auto rec = session.Run(instance->program.get(), &frame);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ASSERT_FALSE(rec->manifest.records.empty());
  }

  fs.Reset();
  SearchOptions opts;
  opts.run_prefix = "run";
  auto result = SearchReplay(&env, program, FrontierAt(1), opts);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
      << result.status().ToString();
  // Nothing read at all: no checkpoint, and not the manifest either.
  EXPECT_EQ(fs.total_reads(), 0);
}

TEST(Query, ListRunsFindsAllManifests) {
  MemFileSystem fs;
  RecordInto(&fs, SearchProfile(4), "projects/a/run1");
  RecordInto(&fs, SearchProfile(4), "projects/a/run2");
  RecordInto(&fs, SearchProfile(4), "projects/b/run1");
  auto runs = ListRuns(&fs, "projects");
  ASSERT_TRUE(runs.ok());
  ASSERT_EQ(runs->size(), 3u);
  EXPECT_EQ((*runs)[0].prefix, "projects/a/run1");
  EXPECT_EQ((*runs)[0].workload, "Search");
  EXPECT_GT((*runs)[0].checkpoints, 0);
}

TEST(Query, MetricSeriesExtractsNumbers) {
  MemFileSystem fs;
  const WorkloadProfile p = SearchProfile(4);
  RecordInto(&fs, p, "run");
  auto series = MetricSeries(&fs, "run", "test_acc");
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  EXPECT_EQ(series->size(), 4u);  // one per epoch
  for (double v : *series) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  auto losses = MetricSeries(&fs, "run", "loss");
  ASSERT_TRUE(losses.ok());
  EXPECT_EQ(losses->size(), 4u * 4u);  // per batch
  EXPECT_TRUE(MetricSeries(&fs, "run", "nope")->empty());
}

TEST(Query, MetricSeriesRejectsTextsThatAreNotOneNumber) {
  // The whole text must be one number: a unit suffix or a second value
  // is InvalidArgument, not the number in front of it.
  for (const std::string bad : {"0.5ms", "0.25 0.75", "", "loss"}) {
    MemFileSystem fs;
    exec::LogStream logs;
    logs.Append({1, "e=0", false, "loss", "0.5"});
    logs.Append({1, "e=1", false, "loss", bad});
    ASSERT_TRUE(fs.WriteFile("run/logs.tsv", logs.Serialize()).ok());
    auto series = MetricSeries(&fs, "run", "loss");
    EXPECT_EQ(series.status().code(), StatusCode::kInvalidArgument)
        << "'" << bad << "'";
  }
}

TEST(Query, FindRunsByPredicate) {
  MemFileSystem fs;
  RecordInto(&fs, SearchProfile(4), "runs/short");
  RecordInto(&fs, SearchProfile(8), "runs/long");
  auto found = FindRuns(
      &fs, "runs",
      [](const RunInfo&,
         const std::vector<exec::LogEntry>& logs) -> Result<bool> {
        int epochs = 0;
        for (const auto& e : logs)
          if (e.label == "test_acc") ++epochs;
        return epochs >= 8;
      });
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found->size(), 1u);
  EXPECT_EQ((*found)[0].prefix, "runs/long");
}

TEST(Query, ExplodingVanishingPattern) {
  // The paper's §8 example pattern detector.
  EXPECT_TRUE(ShowsExplodingVanishingPattern(
      {1.0, 5.0, 60.0, 200.0, 3.0, 0.5, 0.001}));
  // Explodes but never vanishes.
  EXPECT_FALSE(ShowsExplodingVanishingPattern({1.0, 50.0, 100.0, 90.0}));
  // Decays without exploding.
  EXPECT_FALSE(ShowsExplodingVanishingPattern({1.0, 0.5, 0.1, 0.0001}));
  // Degenerate inputs.
  EXPECT_FALSE(ShowsExplodingVanishingPattern({}));
  EXPECT_FALSE(ShowsExplodingVanishingPattern({0.0, 100.0, 0.0}));
}

}  // namespace
}  // namespace flor

// Real thread-pool replay engine tests: determinism across thread counts,
// agreement with the simulated engine, deferred-check parity, skewed
// partitions, and the work-stealing pool itself.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "exec/replay_executor.h"
#include "flor/record.h"
#include "test_util.h"
#include "workloads/programs.h"

namespace flor {
namespace {

using workloads::kProbeInner;
using workloads::kProbeNone;
using workloads::MakeWorkloadFactory;
using workloads::WorkloadProfile;

WorkloadProfile ExecProfile(int64_t epochs = 12) {
  WorkloadProfile p;
  p.name = "ExecT";
  p.epochs = epochs;
  p.sim_epoch_seconds = 100;
  p.sim_outer_seconds = 2;
  p.sim_preamble_seconds = 5;
  p.sim_ckpt_raw_bytes = 1 << 20;  // cheap: dense checkpoints
  p.task_kind = data::Task::kVision;
  p.real_samples = 32;
  p.real_batch = 8;
  p.real_feature_dim = 12;
  p.real_classes = 3;
  p.real_hidden = 12;
  p.seed = testutil::TestSeed(11);
  return p;
}

/// Records the workload onto `fs` under "run" (simulated clock: adaptive
/// decisions and manifest costs are modeled; state is real).
void RecordOnto(FileSystem* fs, const WorkloadProfile& profile) {
  Env env(std::make_unique<SimClock>(), fs);
  auto instance = MakeWorkloadFactory(profile, kProbeNone)();
  ASSERT_TRUE(instance.ok());
  RecordOptions opts = workloads::DefaultRecordOptions(profile, "run");
  RecordSession session(&env, opts);
  exec::Frame frame;
  auto result = session.Run(instance->program.get(), &frame);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

Result<exec::ReplayExecutorResult> RunExecutor(FileSystem* fs,
                                               const WorkloadProfile& p,
                                               int threads,
                                               int partitions = 4) {
  exec::ReplayExecutorOptions xopts;
  xopts.run_prefix = "run";
  xopts.num_threads = threads;
  xopts.num_partitions = partitions;
  xopts.init_mode = InitMode::kWeak;
  exec::ReplayExecutor executor(fs, xopts);
  return executor.Run(MakeWorkloadFactory(p, kProbeInner));
}

TEST(ReplayExecutor, MergedLogsByteIdenticalAcrossThreadCounts) {
  MemFileSystem fs;
  const WorkloadProfile profile = ExecProfile();
  RecordOnto(&fs, profile);

  std::string baseline;
  exec::LogStream baseline_stream;
  for (int threads : {1, 2, 4, 8}) {
    auto result = RunExecutor(&fs, profile, threads);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->deferred.ok)
        << threads << " threads: "
        << (result->deferred.anomalies.empty()
                ? ""
                : result->deferred.anomalies[0]);
    EXPECT_EQ(result->workers_used, 4);
    EXPECT_EQ(result->threads_used, std::min(threads, 4));
    const std::string merged = result->merged_logs.Serialize();
    if (threads == 1) {
      baseline = merged;
      baseline_stream = result->merged_logs;
      EXPECT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(merged, baseline) << "divergence at " << threads
                                  << " threads";
    }
  }
}

TEST(ReplayExecutor, AgreesWithSimulatedEngineByteForByte) {
  MemFileSystem fs;
  const WorkloadProfile profile = ExecProfile();
  RecordOnto(&fs, profile);

  // Simulated engine on the paper's 4-GPU machine.
  ClusterPlanOptions copts;
  copts.run_prefix = "run";
  copts.num_workers = 4;
  copts.init_mode = InitMode::kWeak;
  auto sim_result = exec::Replay(ReplayEngine::kSimulated, &fs, copts,
                                 MakeWorkloadFactory(profile, kProbeInner));
  ASSERT_TRUE(sim_result.ok()) << sim_result.status().ToString();

  // Real engine, same G=4 partitioning.
  auto real_result = RunExecutor(&fs, profile, /*threads=*/4);
  ASSERT_TRUE(real_result.ok()) << real_result.status().ToString();

  EXPECT_EQ(real_result->merged_logs.Serialize(),
            sim_result->merged_logs.Serialize());
  EXPECT_EQ(real_result->workers_used, sim_result->workers_used);
  EXPECT_EQ(real_result->partition_segments,
            sim_result->partition_segments);
  EXPECT_EQ(real_result->effective_init, sim_result->effective_init);
  // Deferred checks agree entry-for-entry.
  EXPECT_EQ(real_result->deferred.ok, sim_result->deferred.ok);
  EXPECT_EQ(real_result->deferred.entries_compared,
            sim_result->deferred.entries_compared);
  // Identical hindsight output.
  ASSERT_EQ(real_result->probe_entries.size(),
            sim_result->probe_entries.size());
  for (size_t i = 0; i < real_result->probe_entries.size(); ++i)
    EXPECT_EQ(real_result->probe_entries[i], sim_result->probe_entries[i]);
  // Same SkipBlock activity.
  EXPECT_EQ(real_result->skipblocks.executed,
            sim_result->skipblocks.executed);
  EXPECT_EQ(real_result->skipblocks.skipped,
            sim_result->skipblocks.skipped);
}

TEST(ReplayExecutor, ShardedStoreKeepsByteIdentityAcrossEnginesAndThreads) {
  // Record onto a 4-shard checkpoint store (manifest carries the shard
  // count; replay routes reads through it). Sharding moves objects, never
  // bytes: both engines and every thread count must merge the same logs
  // as the flat-store baseline workload shape.
  MemFileSystem fs;
  WorkloadProfile profile = ExecProfile();
  profile.ckpt_shards = 4;
  RecordOnto(&fs, profile);

  // The record run really sharded the object layout.
  EXPECT_FALSE(fs.ListPrefix("run/ckpt/shard-").empty());

  ClusterPlanOptions copts;
  copts.run_prefix = "run";
  copts.num_workers = 4;
  copts.init_mode = InitMode::kWeak;
  auto sim_result = exec::Replay(ReplayEngine::kSimulated, &fs, copts,
                                 MakeWorkloadFactory(profile, kProbeInner));
  ASSERT_TRUE(sim_result.ok()) << sim_result.status().ToString();
  EXPECT_TRUE(sim_result->deferred.ok);

  std::string baseline;
  for (int threads : {1, 2, 4}) {
    auto result = RunExecutor(&fs, profile, threads);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->deferred.ok);
    const std::string merged = result->merged_logs.Serialize();
    if (threads == 1) {
      baseline = merged;
      EXPECT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(merged, baseline) << threads << " threads";
    }
  }
  // Engine-vs-engine parity holds on the sharded store too.
  EXPECT_EQ(baseline, sim_result->merged_logs.Serialize());
}

TEST(ReplayExecutor, StrongInitMatchesWeakInit) {
  MemFileSystem fs;
  const WorkloadProfile profile = ExecProfile();
  RecordOnto(&fs, profile);

  exec::ReplayExecutorOptions xopts;
  xopts.run_prefix = "run";
  xopts.num_threads = 4;
  xopts.num_partitions = 4;
  auto factory = MakeWorkloadFactory(profile, kProbeInner);

  xopts.init_mode = InitMode::kStrong;
  auto strong = exec::ReplayExecutor(&fs, xopts).Run(factory);
  ASSERT_TRUE(strong.ok()) << strong.status().ToString();
  xopts.init_mode = InitMode::kWeak;
  auto weak = exec::ReplayExecutor(&fs, xopts).Run(factory);
  ASSERT_TRUE(weak.ok()) << weak.status().ToString();

  EXPECT_TRUE(strong->deferred.ok);
  EXPECT_TRUE(weak->deferred.ok);
  EXPECT_EQ(strong->effective_init, InitMode::kStrong);
  EXPECT_EQ(weak->effective_init, InitMode::kWeak);
  EXPECT_EQ(strong->merged_logs.Serialize(), weak->merged_logs.Serialize());
}

TEST(ReplayExecutor, SkewedPartitionsStress) {
  MemFileSystem fs;
  // Sparse checkpoints: an expensive checkpoint relative to epoch compute
  // (Mi/Ci well above epsilon) makes the adaptive controller periodic (the
  // RTE regime), so partition boundaries are few and the resulting
  // segments are skewed.
  WorkloadProfile profile = ExecProfile(18);
  profile.sim_ckpt_raw_bytes = 4ull << 30;
  RecordOnto(&fs, profile);

  std::string baseline;
  for (int threads : {1, 2, 4}) {
    // More requested partitions than boundary epochs exist: the planner
    // clamps, and the surviving segments have unequal epoch counts.
    auto result = RunExecutor(&fs, profile, threads, /*partitions=*/8);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->deferred.ok)
        << (result->deferred.anomalies.empty()
                ? ""
                : result->deferred.anomalies[0]);
    // Sparse checkpointing limited the partitioning.
    EXPECT_LT(result->workers_used, 8);
    EXPECT_GE(result->workers_used, 2);
    const std::string merged = result->merged_logs.Serialize();
    if (threads == 1) {
      baseline = merged;
    } else {
      EXPECT_EQ(merged, baseline);
    }
  }
}

TEST(ReplayExecutor, MorePartitionsThanThreadsCompletesAll) {
  MemFileSystem fs;
  const WorkloadProfile profile = ExecProfile(12);
  RecordOnto(&fs, profile);

  auto fewer = RunExecutor(&fs, profile, /*threads=*/2, /*partitions=*/6);
  ASSERT_TRUE(fewer.ok()) << fewer.status().ToString();
  EXPECT_EQ(fewer->workers_used, 6);
  EXPECT_EQ(fewer->threads_used, 2);
  ASSERT_EQ(fewer->worker_seconds.size(), 6u);
  for (double s : fewer->worker_seconds) EXPECT_GT(s, 0);
  EXPECT_TRUE(fewer->deferred.ok);

  auto one = RunExecutor(&fs, profile, /*threads=*/1, /*partitions=*/6);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->merged_logs.Serialize(), fewer->merged_logs.Serialize());
}

TEST(ReplayExecutor, SamplingReplayRunsSingleWorker) {
  MemFileSystem fs;
  const WorkloadProfile profile = ExecProfile(12);
  RecordOnto(&fs, profile);

  exec::ReplayExecutorOptions xopts;
  xopts.run_prefix = "run";
  xopts.num_threads = 4;
  xopts.sample_epochs = {3, 7};
  exec::ReplayExecutor executor(&fs, xopts);
  auto result = executor.Run(MakeWorkloadFactory(profile, kProbeInner));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->worker_seconds.size(), 1u);
  EXPECT_TRUE(result->deferred.ok);
  // Probe output for exactly the sampled epochs' batches.
  EXPECT_EQ(result->probe_entries.size(), 2u * 4u);
}

TEST(ReplayExecutor, MissingRecordRunFailsCleanly) {
  MemFileSystem fs;  // nothing recorded
  const WorkloadProfile profile = ExecProfile();
  auto result = RunExecutor(&fs, profile, 2);
  EXPECT_FALSE(result.ok());
}

// ---------------------------------------------------------------- pool ---

TEST(WorkStealingPool, RunsEveryTaskExactlyOnce) {
  std::vector<std::atomic<int>> counts(64);
  for (auto& c : counts) c = 0;
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < counts.size(); ++i)
    tasks.push_back([&counts, i] { counts[i].fetch_add(1); });
  auto stats = exec::WorkStealingPool::Run(4, tasks);
  EXPECT_EQ(stats.tasks_run, 64);
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(WorkStealingPool, InlineWhenSingleThreaded) {
  int calls = 0;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 5; ++i) tasks.push_back([&calls] { ++calls; });
  auto stats = exec::WorkStealingPool::Run(1, tasks);
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(stats.tasks_run, 5);
  EXPECT_EQ(stats.steals, 0);
}

TEST(WorkStealingPool, StealsFromBlockedThread) {
  // Thread 0's first task blocks until every other task has run. Those
  // tasks were dealt round-robin to both deques, so thread 1 must steal
  // thread 0's share for the gate to open — stealing is forced, not just
  // possible.
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  const int kOthers = 7;
  std::vector<std::function<void()>> tasks;
  tasks.push_back([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == kOthers; });
  });
  for (int i = 0; i < kOthers; ++i) {
    tasks.push_back([&] {
      std::lock_guard<std::mutex> lock(mu);
      ++done;
      cv.notify_all();
    });
  }
  auto stats = exec::WorkStealingPool::Run(2, tasks);
  EXPECT_EQ(stats.tasks_run, 8);
  // Thread 0 held tasks {0, 2, 4, 6} and was blocked inside task 0; tasks
  // 2/4/6 can only have run via steals.
  EXPECT_GE(stats.steals, 3);
}

}  // namespace
}  // namespace flor

// Process-level replay engine tests: three-engine byte identity (simulated
// vs thread pool vs forked processes) over the shared plan, skewed
// partitions, sampling, partition-level failure reporting, and the
// corruption-safety of the CRC-framed worker result files.

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/gc.h"
#include "env/scratch.h"
#include "exec/process_executor.h"
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

WorkloadProfile ProcProfile(int64_t epochs = 12) {
  WorkloadProfile p;
  p.name = "ProcT";
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
  p.seed = testutil::TestSeed(29);
  return p;
}

void RecordOnto(FileSystem* fs, const WorkloadProfile& profile) {
  Env env(std::make_unique<SimClock>(), fs);
  auto instance = MakeWorkloadFactory(profile, kProbeNone)();
  ASSERT_TRUE(instance.ok());
  RecordSession session(&env,
                        workloads::DefaultRecordOptions(profile, "run"));
  exec::Frame frame;
  auto result = session.Run(instance->program.get(), &frame);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

Result<exec::ProcessReplayExecutorResult> RunProcesses(
    FileSystem* fs, const WorkloadProfile& p, int partitions,
    exec::ProcessReplayExecutorOptions opts = {}) {
  opts.run_prefix = "run";
  opts.num_workers = partitions;
  opts.init_mode = InitMode::kWeak;
  exec::ProcessReplayExecutor executor(fs, opts);
  return executor.Run(MakeWorkloadFactory(p, kProbeInner));
}

Result<exec::ReplayExecutorResult> RunThreads(FileSystem* fs,
                                              const WorkloadProfile& p,
                                              int threads, int partitions) {
  exec::ReplayExecutorOptions xopts;
  xopts.run_prefix = "run";
  xopts.num_threads = threads;
  xopts.num_partitions = partitions;
  xopts.init_mode = InitMode::kWeak;
  exec::ReplayExecutor executor(fs, xopts);
  return executor.Run(MakeWorkloadFactory(p, kProbeInner));
}

class ProcessReplayTest : public testutil::ScratchDirTest {};

TEST_F(ProcessReplayTest, ThreeEngineByteIdentityAcrossPartitionCounts) {
  PosixFileSystem fs(root());
  const WorkloadProfile profile = ProcProfile();
  RecordOnto(&fs, profile);

  // Engine 1: simulated cluster (the paper-scale model), G=4.
  ClusterPlanOptions copts;
  copts.run_prefix = "run";
  copts.num_workers = 4;
  copts.init_mode = InitMode::kWeak;
  auto sim_result = exec::Replay(ReplayEngine::kSimulated, &fs, copts,
                                 MakeWorkloadFactory(profile, kProbeInner));
  ASSERT_TRUE(sim_result.ok()) << sim_result.status().ToString();
  ASSERT_TRUE(sim_result->deferred.ok);
  const std::string baseline = sim_result->merged_logs.Serialize();
  ASSERT_FALSE(baseline.empty());

  // Engines 2 and 3 must merge the exact same bytes at every partition
  // count (merging concatenates partitions in epoch order, so G is
  // invisible in the merged stream).
  for (int partitions : {1, 2, 4, 8}) {
    auto threaded = RunThreads(&fs, profile, partitions, partitions);
    ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
    EXPECT_TRUE(threaded->deferred.ok);
    EXPECT_EQ(threaded->merged_logs.Serialize(), baseline)
        << "thread engine diverges at G=" << partitions;

    auto proc = RunProcesses(&fs, profile, partitions);
    ASSERT_TRUE(proc.ok()) << proc.status().ToString();
    EXPECT_TRUE(proc->deferred.ok)
        << (proc->deferred.anomalies.empty() ? ""
                                             : proc->deferred.anomalies[0]);
    EXPECT_EQ(proc->merged_logs.Serialize(), baseline)
        << "process engine diverges at G=" << partitions;
    EXPECT_EQ(proc->workers_used, threaded->workers_used);
    EXPECT_GT(proc->wall_seconds, 0);
    EXPECT_EQ(proc->total_forks, proc->workers_used);
    EXPECT_LE(proc->max_observed_children, proc->pool_size);
    EXPECT_EQ(proc->retried_partitions, 0);

    // Full-stats parity with the thread engine, not just the log bytes:
    // the result files carried everything across the process boundary.
    EXPECT_EQ(proc->partition_segments, threaded->partition_segments);
    EXPECT_EQ(proc->effective_init, threaded->effective_init);
    EXPECT_EQ(proc->deferred.entries_compared,
              threaded->deferred.entries_compared);
    EXPECT_EQ(proc->skipblocks.executed, threaded->skipblocks.executed);
    EXPECT_EQ(proc->skipblocks.skipped, threaded->skipblocks.skipped);
    EXPECT_EQ(proc->skipblocks.restores, threaded->skipblocks.restores);
    ASSERT_EQ(proc->probe_entries.size(), threaded->probe_entries.size());
    for (size_t i = 0; i < proc->probe_entries.size(); ++i)
      EXPECT_EQ(proc->probe_entries[i], threaded->probe_entries[i]);
    ASSERT_EQ(proc->worker_seconds.size(), threaded->worker_seconds.size());
  }

  // The invariant must also survive the scheduler: G=8 partitions over a
  // pool smaller than G complete out of order relative to fork order, and
  // the merged bytes must not move.
  for (int pool : {2, 3}) {
    exec::ProcessReplayExecutorOptions popts;
    popts.max_concurrent_children = pool;
    auto proc = RunProcesses(&fs, profile, /*partitions=*/8, popts);
    ASSERT_TRUE(proc.ok()) << proc.status().ToString();
    EXPECT_TRUE(proc->deferred.ok);
    EXPECT_EQ(proc->merged_logs.Serialize(), baseline)
        << "process engine diverges at G=8 pool=" << pool;
    EXPECT_EQ(proc->pool_size, pool);
    EXPECT_LE(proc->max_observed_children, pool);
  }

  // ...and retried partitions: a worker SIGKILLed on its first attempt is
  // re-forked, and the attempt-2 fragment merges to the same bytes.
  exec::ProcessReplayExecutorOptions retry_opts;
  retry_opts.max_concurrent_children = 2;
  retry_opts.child_before_session = [](int worker_id, int attempt) {
    if (worker_id == 5 && attempt == 1) raise(SIGKILL);
  };
  auto retried = RunProcesses(&fs, profile, /*partitions=*/8, retry_opts);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_TRUE(retried->deferred.ok);
  EXPECT_EQ(retried->merged_logs.Serialize(), baseline)
      << "process engine diverges after a retried partition";
  EXPECT_EQ(retried->retried_partitions, 1);
  EXPECT_EQ(retried->total_forks, retried->workers_used + 1);
  ASSERT_EQ(retried->partition_attempts.size(),
            static_cast<size_t>(retried->workers_used));
  EXPECT_EQ(retried->partition_attempts[5], 2);
}

TEST_F(ProcessReplayTest, ThreeEngineByteIdentityOnDemotedStore) {
  // A store GC'd down to keep_last_k=1 with a populated bucket mirror must
  // replay green and byte-identical across all three engines, every one
  // faulting retired checkpoints back from the bucket.
  PosixFileSystem fs(root());
  const WorkloadProfile profile = ProcProfile();
  {
    Env env(std::make_unique<SimClock>(), &fs);
    auto instance = MakeWorkloadFactory(profile, kProbeNone)();
    ASSERT_TRUE(instance.ok());
    RecordOptions opts = workloads::DefaultRecordOptions(profile, "run");
    opts.spool_prefix = "s3";
    RecordSession session(&env, opts);
    exec::Frame frame;
    auto recorded = session.Run(instance->program.get(), &frame);
    ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  }

  // Pre-GC baseline, no bucket involvement.
  ClusterPlanOptions copts;
  copts.run_prefix = "run";
  copts.num_workers = 4;
  copts.init_mode = InitMode::kWeak;
  auto before = exec::Replay(ReplayEngine::kSimulated, &fs, copts,
                             MakeWorkloadFactory(profile, kProbeInner));
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(before->deferred.ok);
  const std::string baseline = before->merged_logs.Serialize();

  GcPolicy policy;
  policy.keep_last_k = 1;
  auto gc = RetireRun(&fs, "run", policy, "s3");
  ASSERT_TRUE(gc.ok()) << gc.status().ToString();
  ASSERT_TRUE(gc->demoted_to_bucket);
  ASSERT_GT(gc->retired_objects, 0);

  // Rehydration off everywhere so the store stays demoted between engines
  // and each one observes the same fault set.
  copts.tier.bucket_prefix = "s3";
  copts.tier.bucket_rehydrate = false;
  auto sim_result = exec::Replay(ReplayEngine::kSimulated, &fs, copts,
                                 MakeWorkloadFactory(profile, kProbeInner));
  ASSERT_TRUE(sim_result.ok()) << sim_result.status().ToString();
  EXPECT_TRUE(sim_result->deferred.ok);
  EXPECT_GT(sim_result->bucket_faults, 0);
  EXPECT_EQ(sim_result->merged_logs.Serialize(), baseline);

  exec::ReplayExecutorOptions xopts;
  xopts.run_prefix = "run";
  xopts.num_threads = 4;
  xopts.num_partitions = 4;
  xopts.init_mode = InitMode::kWeak;
  xopts.tier.bucket_prefix = "s3";
  xopts.tier.bucket_rehydrate = false;
  auto threaded = exec::ReplayExecutor(&fs, xopts)
                      .Run(MakeWorkloadFactory(profile, kProbeInner));
  ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
  EXPECT_TRUE(threaded->deferred.ok);
  EXPECT_GT(threaded->bucket_faults, 0);
  EXPECT_EQ(threaded->merged_logs.Serialize(), baseline);

  exec::ProcessReplayExecutorOptions popts;
  popts.tier.bucket_prefix = "s3";
  popts.tier.bucket_rehydrate = false;
  auto proc = RunProcesses(&fs, profile, /*partitions=*/4, popts);
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();
  EXPECT_TRUE(proc->deferred.ok)
      << (proc->deferred.anomalies.empty() ? ""
                                           : proc->deferred.anomalies[0]);
  EXPECT_EQ(proc->merged_logs.Serialize(), baseline);
  // The fault count crossed the process boundary through the framed
  // result files and matches the same-plan thread engine exactly.
  EXPECT_EQ(proc->bucket_faults, threaded->bucket_faults);
}

TEST_F(ProcessReplayTest, SkewedPartitionsStress) {
  PosixFileSystem fs(root());
  // Expensive checkpoints make the adaptive controller sparse (the RTE
  // regime): fewer boundary epochs than requested partitions, so the
  // planner clamps and the surviving segments are skewed.
  WorkloadProfile profile = ProcProfile(18);
  profile.sim_ckpt_raw_bytes = 4ull << 30;
  RecordOnto(&fs, profile);

  auto threaded = RunThreads(&fs, profile, /*threads=*/2, /*partitions=*/8);
  ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();

  auto proc = RunProcesses(&fs, profile, /*partitions=*/8);
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();
  EXPECT_TRUE(proc->deferred.ok)
      << (proc->deferred.anomalies.empty() ? ""
                                           : proc->deferred.anomalies[0]);
  EXPECT_LT(proc->workers_used, 8);
  EXPECT_GE(proc->workers_used, 2);
  EXPECT_EQ(proc->workers_used, threaded->workers_used);
  EXPECT_EQ(proc->merged_logs.Serialize(),
            threaded->merged_logs.Serialize());
}

TEST_F(ProcessReplayTest, SamplingReplayRunsSingleProcess) {
  PosixFileSystem fs(root());
  const WorkloadProfile profile = ProcProfile(12);
  RecordOnto(&fs, profile);

  exec::ProcessReplayExecutorOptions popts;
  popts.sample_epochs = {3, 7};
  auto proc = RunProcesses(&fs, profile, /*partitions=*/4, popts);
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();
  EXPECT_EQ(proc->workers_used, 1);
  EXPECT_EQ(proc->worker_seconds.size(), 1u);
  EXPECT_TRUE(proc->deferred.ok);
  // Probe output for exactly the sampled epochs' batches.
  EXPECT_EQ(proc->probe_entries.size(), 2u * 4u);

  exec::ReplayExecutorOptions xopts;
  xopts.run_prefix = "run";
  xopts.num_threads = 4;
  xopts.sample_epochs = {3, 7};
  xopts.init_mode = InitMode::kWeak;
  auto threaded = exec::ReplayExecutor(&fs, xopts)
                      .Run(MakeWorkloadFactory(profile, kProbeInner));
  ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
  EXPECT_EQ(proc->merged_logs.Serialize(),
            threaded->merged_logs.Serialize());
}

TEST_F(ProcessReplayTest, MemFileSystemRecordReplaysViaForkSnapshot) {
  // The benches record into a MemFileSystem; children read the record
  // artifacts through fork's copy-on-write snapshot while results travel
  // through the posix scratch directory.
  MemFileSystem fs;
  const WorkloadProfile profile = ProcProfile();
  {
    Env env(std::make_unique<SimClock>(), &fs);
    auto instance = MakeWorkloadFactory(profile, kProbeNone)();
    ASSERT_TRUE(instance.ok());
    RecordSession session(&env,
                          workloads::DefaultRecordOptions(profile, "run"));
    exec::Frame frame;
    auto recorded = session.Run(instance->program.get(), &frame);
    ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  }

  auto proc = RunProcesses(&fs, profile, /*partitions=*/4);
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();
  EXPECT_TRUE(proc->deferred.ok);

  auto threaded = RunThreads(&fs, profile, /*threads=*/4, /*partitions=*/4);
  ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
  EXPECT_EQ(proc->merged_logs.Serialize(),
            threaded->merged_logs.Serialize());
}

TEST_F(ProcessReplayTest, ReportsExactlyWhichPartitionDied) {
  PosixFileSystem fs(root());
  const WorkloadProfile profile = ProcProfile();
  RecordOnto(&fs, profile);

  const std::string scratch = root() + "/scratch";
  exec::ProcessReplayExecutorOptions popts;
  popts.scratch_dir = scratch;
  // max_attempts=1 is the pre-scheduler contract, preserved verbatim: no
  // retry, the dead partition fails the replay by name.
  popts.max_attempts = 1;
  popts.child_before_session = [](int worker_id, int) {
    if (worker_id == 1) raise(SIGKILL);  // a worker lost mid-partition
  };
  auto failed = RunProcesses(&fs, profile, /*partitions=*/4, popts);
  ASSERT_FALSE(failed.ok());
  const std::string msg = failed.status().message();
  EXPECT_NE(msg.find("partition 1/4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("signal 9"), std::string::npos) << msg;
  // Only the dead partition is reported...
  EXPECT_EQ(msg.find("partition 0"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("partition 2"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("partition 3"), std::string::npos) << msg;

  // ...and the surviving workers' fragments are intact on disk: present,
  // CRC-clean, and decodable into non-empty log fragments.
  PosixFileSystem scratch_fs(scratch);
  for (int w : {0, 2, 3}) {
    auto bytes = scratch_fs.ReadFile(
        exec::ProcessReplayExecutor::ResultFileName(w));
    ASSERT_TRUE(bytes.ok()) << "worker " << w;
    auto decoded = DecodeWorkerResult(*bytes);
    ASSERT_TRUE(decoded.ok())
        << "worker " << w << ": " << decoded.status().ToString();
    EXPECT_GT(decoded->logs.size(), 0u) << "worker " << w;
  }
  EXPECT_FALSE(scratch_fs.Exists(
      exec::ProcessReplayExecutor::ResultFileName(1)));

  // Rerunning the same plan without the fault replays green.
  exec::ProcessReplayExecutorOptions clean;
  clean.scratch_dir = scratch;
  auto rerun = RunProcesses(&fs, profile, /*partitions=*/4, clean);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_TRUE(rerun->deferred.ok);
}

TEST_F(ProcessReplayTest, AutoScratchIsPreservedOnPartitionFailure) {
  // With no caller-supplied scratch_dir, the executor mkdtemps its own —
  // normally removed after the run, but on a partition failure it must be
  // preserved (and named in the error) so the surviving fragments stay
  // inspectable.
  PosixFileSystem fs(root());
  const WorkloadProfile profile = ProcProfile();
  RecordOnto(&fs, profile);

  exec::ProcessReplayExecutorOptions popts;  // scratch_dir empty
  popts.max_attempts = 1;
  popts.child_before_session = [](int worker_id, int) {
    if (worker_id == 1) raise(SIGKILL);
  };
  auto failed = RunProcesses(&fs, profile, /*partitions=*/4, popts);
  ASSERT_FALSE(failed.ok());
  const std::string msg = failed.status().message();
  const std::string marker = "[surviving fragments in ";
  const size_t at = msg.find(marker);
  ASSERT_NE(at, std::string::npos) << msg;
  const size_t end = msg.find(']', at);
  ASSERT_NE(end, std::string::npos) << msg;
  const std::string scratch =
      msg.substr(at + marker.size(), end - at - marker.size());

  PosixFileSystem scratch_fs(scratch);
  for (int w : {0, 2, 3}) {
    auto bytes = scratch_fs.ReadFile(
        exec::ProcessReplayExecutor::ResultFileName(w));
    ASSERT_TRUE(bytes.ok()) << "worker " << w << " in " << scratch;
    EXPECT_TRUE(DecodeWorkerResult(*bytes).ok()) << "worker " << w;
  }
  std::filesystem::remove_all(scratch);  // manual cleanup of the keep
}

TEST_F(ProcessReplayTest, ChildReplayFailureReturnsPartitionStatus) {
  PosixFileSystem fs(root());
  const WorkloadProfile profile = ProcProfile();
  RecordOnto(&fs, profile);

  // Single-worker (sampling) plan whose child deletes the record logs and
  // manifest before replaying: the worker fails inside the child, on the
  // manifest, and the status must cross the process boundary through the
  // framed error file.
  const std::string run_root = root();
  exec::ProcessReplayExecutorOptions popts;
  popts.sample_epochs = {3};
  // Default max_attempts: a *clean* replay failure is deterministic and
  // must not be retried even with retry budget left.
  popts.child_before_session = [run_root](int, int) {
    PosixFileSystem child_fs(run_root);
    (void)child_fs.DeleteFile("run/logs.tsv");
    (void)child_fs.DeleteFile("run/manifest.tsv");
  };
  auto failed = RunProcesses(&fs, profile, /*partitions=*/1, popts);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("partition 0/1"),
            std::string::npos)
      << failed.status().ToString();
  EXPECT_TRUE(failed.status().IsNotFound()) << failed.status().ToString();
}

TEST_F(ProcessReplayTest, StaleScratchFilesNeverPassForFreshResults) {
  PosixFileSystem fs(root());
  const WorkloadProfile profile = ProcProfile();
  RecordOnto(&fs, profile);

  // Seed the caller-supplied scratch dir with plausible-looking garbage at
  // every worker path; the run must clear it and still merge correctly.
  const std::string scratch = root() + "/scratch";
  PosixFileSystem scratch_fs(scratch);
  for (int w = 0; w < 4; ++w) {
    ASSERT_TRUE(scratch_fs
                    .WriteFile(
                        exec::ProcessReplayExecutor::ResultFileName(w),
                        "stale garbage from a previous run")
                    .ok());
  }
  exec::ProcessReplayExecutorOptions popts;
  popts.scratch_dir = scratch;
  auto proc = RunProcesses(&fs, profile, /*partitions=*/4, popts);
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();
  EXPECT_TRUE(proc->deferred.ok);

  auto threaded = RunThreads(&fs, profile, /*threads=*/4, /*partitions=*/4);
  ASSERT_TRUE(threaded.ok());
  EXPECT_EQ(proc->merged_logs.Serialize(),
            threaded->merged_logs.Serialize());
}

// ------------------------------------------------- scheduler behavior ---

TEST_F(ProcessReplayTest, SigkilledPartitionIsRetriedAndReplaySucceeds) {
  PosixFileSystem fs(root());
  const WorkloadProfile profile = ProcProfile();
  RecordOnto(&fs, profile);

  const std::string scratch = root() + "/scratch";
  exec::ProcessReplayExecutorOptions popts;  // default max_attempts = 2
  popts.scratch_dir = scratch;
  popts.max_concurrent_children = 2;
  popts.child_before_session = [](int worker_id, int attempt) {
    if (worker_id == 1 && attempt == 1) raise(SIGKILL);
  };
  auto proc = RunProcesses(&fs, profile, /*partitions=*/4, popts);
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();
  EXPECT_TRUE(proc->deferred.ok);
  EXPECT_EQ(proc->retried_partitions, 1);
  EXPECT_EQ(proc->total_forks, proc->workers_used + 1);
  ASSERT_EQ(proc->partition_attempts.size(), 4u);
  EXPECT_EQ(proc->partition_attempts[1], 2);

  // The dead attempt committed nothing at its name; the retry committed
  // at the attempt-2 name.
  PosixFileSystem scratch_fs(scratch);
  EXPECT_FALSE(scratch_fs.Exists(
      exec::ProcessReplayExecutor::ResultFileName(1, 1)));
  auto bytes = scratch_fs.ReadFile(
      exec::ProcessReplayExecutor::ResultFileName(1, 2));
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(DecodeWorkerResult(*bytes).ok());

  auto threaded = RunThreads(&fs, profile, /*threads=*/4, /*partitions=*/4);
  ASSERT_TRUE(threaded.ok());
  EXPECT_EQ(proc->merged_logs.Serialize(),
            threaded->merged_logs.Serialize());
}

TEST_F(ProcessReplayTest, RetriesExhaustedFailsNamingAttempts) {
  PosixFileSystem fs(root());
  const WorkloadProfile profile = ProcProfile();
  RecordOnto(&fs, profile);

  const std::string scratch = root() + "/scratch";
  exec::ProcessReplayExecutorOptions popts;
  popts.scratch_dir = scratch;
  popts.max_attempts = 2;
  popts.child_before_session = [](int worker_id, int) {
    if (worker_id == 1) raise(SIGKILL);  // every attempt dies
  };
  auto failed = RunProcesses(&fs, profile, /*partitions=*/4, popts);
  ASSERT_FALSE(failed.ok());
  const std::string msg = failed.status().message();
  EXPECT_NE(msg.find("partition 1/4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("signal 9"), std::string::npos) << msg;
  EXPECT_NE(msg.find("2 attempts"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("partition 0"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("partition 2"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("partition 3"), std::string::npos) << msg;

  // Survivors are intact despite two rounds of carnage on partition 1.
  PosixFileSystem scratch_fs(scratch);
  for (int w : {0, 2, 3}) {
    auto bytes = scratch_fs.ReadFile(
        exec::ProcessReplayExecutor::ResultFileName(w));
    ASSERT_TRUE(bytes.ok()) << "worker " << w;
    EXPECT_TRUE(DecodeWorkerResult(*bytes).ok()) << "worker " << w;
  }
}

namespace capstats {

// Cross-process concurrency high-water mark, updated by every child under
// an exclusive flock on "<scratch>/cap-stats" ("<started> <max>"). A
// child is concurrent from fork until its committed result file becomes
// visible (children _exit immediately after committing, and the parent
// only reuses the slot after reaping that exit), so
// `started - committed_results_visible` bounds the number of live
// siblings from above at the instant of the update.
constexpr char kFile[] = "cap-stats";

void Bump(const std::string& scratch, int partitions) {
  const std::string path = scratch + "/" + kFile;
  const int fd = open(path.c_str(), O_CREAT | O_RDWR, 0644);
  if (fd < 0) _exit(97);
  if (flock(fd, LOCK_EX) != 0) _exit(97);
  char buf[64] = {0};
  int started = 0, high_water = 0;
  if (pread(fd, buf, sizeof(buf) - 1, 0) > 0)
    sscanf(buf, "%d %d", &started, &high_water);  // NOLINT(runtime/printf)
  ++started;
  PosixFileSystem scratch_fs(scratch);
  int committed = 0;
  for (int w = 0; w < partitions; ++w) {
    if (scratch_fs.Exists(exec::ProcessReplayExecutor::ResultFileName(w)))
      ++committed;
  }
  high_water = std::max(high_water, started - committed);
  const int n = snprintf(buf, sizeof(buf), "%d %d", started, high_water);
  if (pwrite(fd, buf, static_cast<size_t>(n), 0) != n) _exit(97);
  close(fd);  // releases the lock
}

void Read(const std::string& scratch, int* started, int* high_water) {
  PosixFileSystem scratch_fs(scratch);
  auto bytes = scratch_fs.ReadFile(kFile);
  ASSERT_TRUE(bytes.ok());
  ASSERT_EQ(sscanf(bytes->c_str(), "%d %d", started, high_water), 2);
}

}  // namespace capstats

TEST_F(ProcessReplayTest, ConcurrentChildrenNeverExceedPoolCap) {
  PosixFileSystem fs(root());
  const WorkloadProfile profile = ProcProfile();
  RecordOnto(&fs, profile);

  const std::string scratch = root() + "/scratch";
  const int kPartitions = 8;
  const int kPool = 2;
  exec::ProcessReplayExecutorOptions popts;
  popts.scratch_dir = scratch;
  popts.max_concurrent_children = kPool;
  popts.child_before_session = [scratch](int, int) {
    capstats::Bump(scratch, kPartitions);
  };
  auto proc = RunProcesses(&fs, profile, kPartitions, popts);
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();
  // The planner may clamp below the requested G; what matters is that the
  // active count exceeds the pool so the scheduler actually queues.
  EXPECT_GT(proc->workers_used, kPool);
  EXPECT_EQ(proc->pool_size, kPool);
  EXPECT_LE(proc->max_observed_children, kPool);

  int started = 0, high_water = 0;
  capstats::Read(scratch, &started, &high_water);
  EXPECT_EQ(started, proc->workers_used);  // every partition ran once
  EXPECT_GE(high_water, 1);
  EXPECT_LE(high_water, kPool) << "pool cap breached";
}

// The wire server runs one handler thread per client, so two `procs`
// replays can be live in one process at once. Each must reap only the
// workers it forked: a run that reaped the other's children failed with
// ECHILD and then SIGKILLed pids it no longer owned.
TEST_F(ProcessReplayTest, ConcurrentReplaysReapOnlyTheirOwnWorkers) {
  PosixFileSystem fs(root());
  const WorkloadProfile profile = ProcProfile();
  RecordOnto(&fs, profile);
  auto sequential = RunProcesses(&fs, profile, /*partitions=*/4);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  const std::string baseline = sequential->merged_logs.Serialize();

  constexpr int kRounds = 5;
  constexpr int kCallers = 2;
  // A forked child inherits every lock another thread holds at the fork,
  // the allocator's included, and the ASan runtime's allocator does not
  // release them in the child. So each caller builds its request before
  // `ready` and frees nothing before `finished`: a fork only ever meets
  // the other caller parked on the engine's run lock or at a barrier.
  const auto arrive_and_wait = [](std::atomic<int>* barrier) {
    barrier->fetch_add(1);
    while (barrier->load() < kCallers) std::this_thread::yield();
  };
  int failed_rounds = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::optional<Result<exec::ProcessReplayExecutorResult>>>
        results(kCallers);
    std::atomic<int> ready{0};
    std::atomic<int> finished{0};
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int t = 0; t < kCallers; ++t) {
      callers.emplace_back([&, t] {
        exec::ProcessReplayExecutorOptions opts;
        opts.run_prefix = "run";
        opts.num_workers = 4;
        opts.init_mode = InitMode::kWeak;
        exec::ProcessReplayExecutor executor(&fs, opts);
        const ProgramFactory factory =
            MakeWorkloadFactory(profile, kProbeInner);
        arrive_and_wait(&ready);
        auto result = executor.Run(factory);
        arrive_and_wait(&finished);
        results[static_cast<size_t>(t)].emplace(std::move(result));
      });
    }
    for (std::thread& caller : callers) caller.join();

    bool round_ok = true;
    for (const auto& slot : results) {
      ASSERT_TRUE(slot.has_value());
      const auto& result = *slot;
      if (!result.ok()) {
        round_ok = false;
        ADD_FAILURE() << "round " << round << ": "
                      << result.status().ToString();
        continue;
      }
      EXPECT_TRUE(result->deferred.ok);
      EXPECT_EQ(result->merged_logs.Serialize(), baseline);
      EXPECT_EQ(result->total_forks, result->workers_used);
    }
    if (!round_ok) ++failed_rounds;
  }
  EXPECT_EQ(failed_rounds, 0) << failed_rounds << " of " << kRounds
                              << " rounds failed";
}

TEST_F(ProcessReplayTest, ShrinkingPartitionCountClearsAllStaleScratch) {
  PosixFileSystem fs(root());
  const WorkloadProfile profile = ProcProfile();
  RecordOnto(&fs, profile);

  // First run: G=4 with a retried partition, so the caller-owned scratch
  // holds worker-0..3 results *plus* an attempt-suffixed fragment.
  const std::string scratch = root() + "/scratch";
  exec::ProcessReplayExecutorOptions popts;
  popts.scratch_dir = scratch;
  popts.child_before_session = [](int worker_id, int attempt) {
    if (worker_id == 3 && attempt == 1) raise(SIGKILL);
  };
  auto first = RunProcesses(&fs, profile, /*partitions=*/4, popts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  PosixFileSystem scratch_fs(scratch);
  ASSERT_TRUE(scratch_fs.Exists(
      exec::ProcessReplayExecutor::ResultFileName(3, 2)));

  // Second run shrinks to G=2: every stale file from the wider run —
  // including ids past the new active count and attempt-suffixed names
  // the per-id clearing loop used to miss — must be gone afterwards.
  exec::ProcessReplayExecutorOptions narrow;
  narrow.scratch_dir = scratch;
  auto second = RunProcesses(&fs, profile, /*partitions=*/2, narrow);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->deferred.ok);
  EXPECT_FALSE(scratch_fs.Exists(
      exec::ProcessReplayExecutor::ResultFileName(2)));
  EXPECT_FALSE(scratch_fs.Exists(
      exec::ProcessReplayExecutor::ResultFileName(3)));
  EXPECT_FALSE(scratch_fs.Exists(
      exec::ProcessReplayExecutor::ResultFileName(3, 2)));

  auto threaded = RunThreads(&fs, profile, /*threads=*/2, /*partitions=*/2);
  ASSERT_TRUE(threaded.ok());
  EXPECT_EQ(second->merged_logs.Serialize(),
            threaded->merged_logs.Serialize());
}

// ------------------------------------------- result-file corruption ---

TEST_F(ProcessReplayTest, WorkerResultRoundTripsExactly) {
  PosixFileSystem fs(root());
  const WorkloadProfile profile = ProcProfile();
  RecordOnto(&fs, profile);

  const std::string scratch = root() + "/scratch";
  exec::ProcessReplayExecutorOptions popts;
  popts.scratch_dir = scratch;
  auto proc = RunProcesses(&fs, profile, /*partitions=*/2, popts);
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();

  PosixFileSystem scratch_fs(scratch);
  for (int w = 0; w < 2; ++w) {
    auto bytes = scratch_fs.ReadFile(
        exec::ProcessReplayExecutor::ResultFileName(w));
    ASSERT_TRUE(bytes.ok());
    auto decoded = DecodeWorkerResult(*bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    // Re-encoding the decoded result reproduces the file bit-exactly —
    // the codec loses nothing (doubles travel as hexfloat).
    EXPECT_EQ(EncodeWorkerResult(*decoded), *bytes) << "worker " << w;
  }
}

TEST_F(ProcessReplayTest, TruncatedOrMutatedResultFileNeverParses) {
  // Property test mirroring the manifest fuzz suite: any truncation or
  // byte mutation of a real worker result file must yield Corruption —
  // never a crash, and never a silently decoded garbage fragment.
  PosixFileSystem fs(root());
  const WorkloadProfile profile = ProcProfile(6);
  RecordOnto(&fs, profile);

  const std::string scratch = root() + "/scratch";
  exec::ProcessReplayExecutorOptions popts;
  popts.scratch_dir = scratch;
  auto proc = RunProcesses(&fs, profile, /*partitions=*/2, popts);
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();

  PosixFileSystem scratch_fs(scratch);
  auto bytes = scratch_fs.ReadFile(
      exec::ProcessReplayExecutor::ResultFileName(0));
  ASSERT_TRUE(bytes.ok());
  const std::string& full = *bytes;
  ASSERT_TRUE(DecodeWorkerResult(full).ok());

  testutil::ExpectCorruptionsRejected(
      full, /*salt=*/53, /*splices=*/200, [](const std::string& bytes) {
        return DecodeWorkerResult(bytes).status();
      });
  // A missing result file is NotFound, not Corruption.
  auto missing = scratch_fs.ReadFile("worker-9.res");
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
}

// --- The default request plans weak init where it is exact.

TEST_F(ProcessReplayTest, DefaultRequestPlansWeakInitWhereItIsExact) {
  // The replay_partial shape at test size: 6 dense epochs, a probe outside
  // the training loop (every training loop is restored), G = 3.
  PosixFileSystem fs(root());
  const WorkloadProfile profile = ProcProfile(/*epochs=*/6);
  RecordOnto(&fs, profile);
  const ProgramFactory factory =
      MakeWorkloadFactory(profile, workloads::kProbeOuter);

  ClusterPlanOptions automatic;  // the default init mode
  automatic.run_prefix = "run";
  automatic.num_workers = 3;
  ClusterPlanOptions strong = automatic;
  strong.init_mode = InitMode::kStrong;

  // GC pins what the plan restores before each worker's segment.
  auto pins = PlannedRestoreEpochs(factory, &fs, automatic);
  ASSERT_TRUE(pins.ok()) << pins.status().ToString();
  EXPECT_EQ(*pins, (std::vector<int64_t>{1, 3}));
  pins = PlannedRestoreEpochs(factory, &fs, strong);
  ASSERT_TRUE(pins.ok()) << pins.status().ToString();
  EXPECT_EQ(*pins, (std::vector<int64_t>{0, 1, 2, 3}));

  for (ReplayEngine engine : {ReplayEngine::kSimulated,
                              ReplayEngine::kThreads,
                              ReplayEngine::kProcesses}) {
    SCOPED_TRACE(static_cast<int>(engine));
    auto s = exec::Replay(engine, &fs, strong, factory);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    EXPECT_TRUE(s->deferred.ok);
    EXPECT_EQ(s->effective_init, InitMode::kStrong);
    EXPECT_EQ(s->skipblocks.restores, 12);  // 2 + 4 + 6

    auto a = exec::Replay(engine, &fs, automatic, factory);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_TRUE(a->deferred.ok);
    EXPECT_EQ(a->effective_init, InitMode::kWeak);
    EXPECT_EQ(a->skipblocks.restores, 8);  // 2 + 3 + 3
    EXPECT_EQ(a->workers_used, 3);
    EXPECT_EQ(a->merged_logs.Serialize(), s->merged_logs.Serialize());
  }

  // The thread engine's own spelling defaults the same way.
  exec::ReplayExecutorOptions xopts;
  xopts.run_prefix = "run";
  xopts.num_threads = 3;
  auto threaded = exec::ReplayExecutor(&fs, xopts).Run(factory);
  ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
  EXPECT_EQ(threaded->effective_init, InitMode::kWeak);
  EXPECT_EQ(threaded->skipblocks.restores, 8);
}

// --- A manifest that an older record wrote.

TEST_F(ProcessReplayTest, ManifestWithRetiredLinesReplaysAndRetiresAway) {
  // Older records also wrote vanilla_runtime, c_estimate and loop_exec
  // lines, which nothing reads. Spliced into a fresh record's manifest,
  // they change no engine's replay, and the next retirement drops them.
  PosixFileSystem fs(root());
  const WorkloadProfile profile = ProcProfile(/*epochs=*/6);
  RecordOnto(&fs, profile);
  const ProgramFactory factory = MakeWorkloadFactory(profile, kProbeInner);
  ClusterPlanOptions request;
  request.run_prefix = "run";
  request.num_workers = 2;
  const std::vector<ReplayEngine> engines = {
      ReplayEngine::kSimulated, ReplayEngine::kThreads,
      ReplayEngine::kProcesses};
  std::vector<std::string> fresh;
  for (ReplayEngine engine : engines) {
    auto r = exec::Replay(engine, &fs, request, factory);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    fresh.push_back(r->merged_logs.Serialize());
  }

  const std::string path = RunPaths("run").Manifest();
  const std::vector<std::string> retired = {"vanilla_runtime", "c_estimate",
                                            "loop_exec"};
  auto manifest = fs.ReadFile(path);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  for (const auto& tag : retired)
    EXPECT_EQ(manifest->find(tag), std::string::npos) << tag;
  // Where older records wrote them: right after the record runtime.
  std::string old_format = *manifest;
  const size_t at = old_format.find('\n', old_format.find("record_runtime"));
  old_format.insert(at + 1,
                    "vanilla_runtime\t707\nc_estimate\t1\nloop_exec\t2\t6\n");
  ASSERT_TRUE(fs.WriteFile(path, old_format).ok());

  for (size_t i = 0; i < engines.size(); ++i) {
    SCOPED_TRACE(static_cast<int>(engines[i]));
    auto r = exec::Replay(engines[i], &fs, request, factory);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->deferred.ok);
    EXPECT_EQ(r->merged_logs.Serialize(), fresh[i]);
  }

  GcPolicy policy;
  policy.keep_last_k = 3;
  auto gc = RetireRun(&fs, "run", policy);
  ASSERT_TRUE(gc.ok()) << gc.status().ToString();
  EXPECT_TRUE(gc->manifest_rewritten);
  auto rewritten = fs.ReadFile(path);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  for (const auto& tag : retired)
    EXPECT_EQ(rewritten->find(tag), std::string::npos) << tag;
}

TEST_F(ProcessReplayTest, MissingRecordRunFailsCleanly) {
  PosixFileSystem fs(root());  // nothing recorded
  const WorkloadProfile profile = ProcProfile();
  auto result = RunProcesses(&fs, profile, /*partitions=*/2);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace flor

#endif  // __unix__ || __APPLE__

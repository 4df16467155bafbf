// Crash consistency of background materialization (ROADMAP open item).
//
// The paper's Fork strategy writes checkpoints from a forked child while
// the parent trains on. If that child dies mid-write (OOM-killed, node
// preempted), the parent-side store must never serve a half-written
// checkpoint as a good one: it either sees the complete object or cleanly
// detects the torn state (NotFound under atomic rename; Corruption via the
// frame checksum for in-place writes).
//
// These tests fork a real child process, SIGKILL it at a controlled point
// mid-write (the child signals progress over a pipe and then parks), and
// assert the parent-visible outcome.

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <functional>

#include "checkpoint/checkpoint.h"
#include "checkpoint/gc.h"
#include "checkpoint/spool.h"
#include "checkpoint/store.h"
#include "common/strings.h"
#include "env/filesystem.h"
#include "exec/process_executor.h"
#include "exec/replay_executor.h"
#include "flor/record.h"
#include "serialize/sections.h"
#include "test_util.h"
#include "workloads/programs.h"

namespace flor {
namespace {

/// A deterministic multi-kilobyte checkpoint payload.
NamedSnapshots TestSnapshots() {
  Rng rng = testutil::SeededRng(83);
  Tensor weights(Shape({64, 32}));
  float* w = weights.f32();
  for (int64_t i = 0; i < weights.numel(); ++i)
    w[i] = static_cast<float>(rng.NextGaussian());
  NamedSnapshots snaps;
  snaps.emplace_back("net",
                     ir::SnapshotValue(ir::Value::FromTensor(weights)));
  snaps.emplace_back("step", ir::SnapshotValue(ir::Value::Int(1234)));
  return snaps;
}

class CrashConsistencyTest : public testutil::ScratchDirTest {
 protected:
  /// Forks a child that runs `child_fn(fs)`, writes one progress byte to a
  /// pipe when mid-write, and parks. The parent SIGKILLs it at that point.
  /// Returns false if the child finished instead of parking (setup bug).
  void KillChildMidWrite(
      const std::function<void(PosixFileSystem*, int wfd)>& child_fn) {
    int pipefd[2];
    ASSERT_EQ(pipe(pipefd), 0);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: never return into gtest.
      close(pipefd[0]);
      PosixFileSystem fs(root());
      child_fn(&fs, pipefd[1]);
      _exit(0);
    }
    close(pipefd[1]);
    char byte = 0;
    // Wait for the child to report "mid-write".
    ASSERT_EQ(read(pipefd[0], &byte, 1), 1);
    close(pipefd[0]);
    ASSERT_EQ(kill(pid, SIGKILL), 0);
    int wstatus = 0;
    ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus));
    ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);
  }
};

TEST_F(CrashConsistencyTest, AtomicWriteKilledMidRenamePathLeavesNoObject) {
  // Child goes through the store (PosixFileSystem::WriteFile = temp file +
  // rename): killed before the rename, the final path must simply not
  // exist — a torn temp file is invisible to readers.
  const CheckpointKey key{2, "e=5"};
  const std::string bytes = EncodeCheckpoint(TestSnapshots());
  ASSERT_GT(bytes.size(), 64u);

  KillChildMidWrite([&](PosixFileSystem* fs, int wfd) {
    CheckpointStore store(fs, "run/ckpt");
    // Stage the temp file the way WriteFile does, but park before the
    // rename (the moment a real child dies when the node is lost between
    // write() and rename()).
    const std::string partial = bytes.substr(0, bytes.size() / 2);
    Status s = fs->AppendFile("run/ckpt-staging.tmp", partial);
    (void)s;
    char one = 1;
    (void)!write(wfd, &one, 1);
    pause();  // parked mid-write; parent SIGKILLs
  });

  PosixFileSystem fs(root());
  CheckpointStore store(&fs, "run/ckpt");
  EXPECT_FALSE(store.Exists(key));
  auto got = store.Get(key);
  EXPECT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsNotFound()) << got.status().ToString();
}

TEST_F(CrashConsistencyTest, TornInPlaceWriteIsDetectedByChecksum) {
  // Child bypasses the atomic rename and writes the object in place (the
  // append path — what a naive spooler would do), dying halfway. The
  // parent must detect the torn frame, not decode garbage.
  const CheckpointKey key{2, "e=5"};
  const std::string bytes = EncodeCheckpoint(TestSnapshots());

  KillChildMidWrite([&](PosixFileSystem* fs, int wfd) {
    CheckpointStore store(fs, "run/ckpt");
    // First half of the real object, written directly to the final path
    // (the store lays objects out as <prefix>/<key>.ckpt).
    const std::string half = bytes.substr(0, bytes.size() / 2);
    Status s =
        fs->AppendFile("run/ckpt/" + key.ToString() + ".ckpt", half);
    (void)s;
    char one = 1;
    (void)!write(wfd, &one, 1);
    pause();
  });

  PosixFileSystem fs(root());
  CheckpointStore store(&fs, "run/ckpt");
  ASSERT_TRUE(store.Exists(key));  // the torn object is present...
  auto got = store.Get(key);       // ...but never decodes as valid
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
}

TEST_F(CrashConsistencyTest, CompletedChildWriteSurvivesKill) {
  // Control: the child completes the materialization before dying; the
  // parent store then serves the full checkpoint, bit-exact.
  const CheckpointKey key{2, "e=5"};
  const NamedSnapshots snaps = TestSnapshots();
  const std::string bytes = EncodeCheckpoint(snaps);

  KillChildMidWrite([&](PosixFileSystem* fs, int wfd) {
    CheckpointStore store(fs, "run/ckpt");
    Status s = store.PutBytes(key, bytes);
    char one = static_cast<char>(s.ok() ? 1 : 2);
    (void)!write(wfd, &one, 1);
    pause();
  });

  PosixFileSystem fs(root());
  CheckpointStore store(&fs, "run/ckpt");
  auto got = store.Get(key);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), snaps.size());
  for (size_t i = 0; i < snaps.size(); ++i) {
    EXPECT_EQ((*got)[i].first, snaps[i].first);
  }
  // Byte-exact round trip of the stored object.
  auto raw = store.GetBytes(key);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(*raw, bytes);
}

/// Delegating FileSystem that parks the process (after signaling `wfd`)
/// on the `park_at`-th WriteFile under `watch_prefix` — before the write
/// lands, so the parent SIGKILLs a writer at a deterministic point: the
/// earlier writes are complete, the parked one never exists.
class ParkOnWriteFileSystem : public FileSystem {
 public:
  ParkOnWriteFileSystem(FileSystem* base, std::string watch_prefix,
                        int park_at, int wfd)
      : base_(base), watch_prefix_(std::move(watch_prefix)),
        park_at_(park_at), wfd_(wfd) {}

  Status WriteFile(const std::string& path, const std::string& data)
      override {
    if (path.rfind(watch_prefix_, 0) == 0 && ++writes_ == park_at_) {
      char one = 1;
      (void)!write(wfd_, &one, 1);
      pause();  // parked before the write; parent SIGKILLs
    }
    return base_->WriteFile(path, data);
  }
  Status AppendFile(const std::string& path, const std::string& data)
      override {
    return base_->AppendFile(path, data);
  }
  Result<std::string> ReadFile(const std::string& path) const override {
    return base_->ReadFile(path);
  }
  bool Exists(const std::string& path) const override {
    return base_->Exists(path);
  }
  Result<uint64_t> FileSize(const std::string& path) const override {
    return base_->FileSize(path);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  std::vector<std::string> ListPrefix(
      const std::string& prefix) const override {
    return base_->ListPrefix(prefix);
  }

 private:
  FileSystem* base_;
  std::string watch_prefix_;
  int writes_ = 0;
  int park_at_;
  int wfd_;
};

TEST_F(CrashConsistencyTest, KilledMidBatchedSpoolKeepsShardLocalAtomicity) {
  // The spooler child dies (SIGKILL) partway through mirroring a sharded
  // store to the bucket, parked on its 7th bucket write. Shard-local
  // atomicity: every object that made it to the bucket is complete and
  // decodes bit-exact (WriteFile is atomic per object), with no torn
  // object anywhere — a shard is a prefix of fully-spooled objects plus
  // absent ones.
  const int kShards = 4;
  const int kObjects = 16;
  const int kParkAt = 7;
  const std::string bytes = EncodeCheckpoint(TestSnapshots());

  // Parent stages the sharded store first, so it knows the full layout.
  {
    PosixFileSystem fs(root());
    CheckpointStore store(&fs, "run/ckpt", kShards);
    for (int e = 0; e < kObjects; ++e)
      ASSERT_TRUE(store.PutBytes(CheckpointKey{2, StrCat("e=", e)},
                                 bytes).ok());
  }

  KillChildMidWrite([&](PosixFileSystem* fs, int wfd) {
    ParkOnWriteFileSystem parked(fs, "s3/", kParkAt, wfd);
    CheckpointStore store(&parked, "run/ckpt", kShards);
    SpoolReport report = SpoolStore(store, "s3/run/ckpt");
    (void)report;  // never reached: the 7th bucket write parks
  });

  PosixFileSystem fs(root());
  CheckpointStore store(&fs, "run/ckpt", kShards);
  int spooled = 0;
  for (int e = 0; e < kObjects; ++e) {
    const CheckpointKey key{2, StrCat("e=", e)};
    const std::string dst = "s3/" + store.PathFor(key);
    if (!fs.Exists(dst)) continue;  // not reached before the kill
    ++spooled;
    // Present implies complete and bit-exact — never torn.
    auto got = fs.ReadFile(dst);
    ASSERT_TRUE(got.ok()) << dst;
    EXPECT_EQ(*got, bytes) << dst;
    auto decoded = DecodeCheckpoint(*got);
    EXPECT_TRUE(decoded.ok()) << dst << ": "
                              << decoded.status().ToString();
  }
  EXPECT_EQ(spooled, kParkAt - 1);
  // What must never exist is a torn object at a *final* path.
  int final_paths = 0;
  for (const auto& path : fs.ListPrefix("s3/")) {
    if (path.find(".tmp.") != std::string::npos) continue;  // staging
    ++final_paths;
    auto data = fs.ReadFile(path);
    ASSERT_TRUE(data.ok()) << path;
    EXPECT_TRUE(DecodeCheckpoint(*data).ok()) << path;
  }
  EXPECT_EQ(final_paths, kParkAt - 1);
  // The local store is untouched by the crashed spooler.
  EXPECT_EQ(fs.TotalBytesUnder("run/ckpt/"),
            static_cast<uint64_t>(kObjects) * bytes.size());
}

/// Delegating FileSystem that parks the process (after signaling `wfd`)
/// on the `park_at`-th DeleteFile call — the hook that lets the parent
/// SIGKILL a GC child genuinely mid-retirement, with some deletes landed
/// and some not.
class ParkOnDeleteFileSystem : public FileSystem {
 public:
  ParkOnDeleteFileSystem(FileSystem* base, int park_at, int wfd)
      : base_(base), park_at_(park_at), wfd_(wfd) {}

  Status WriteFile(const std::string& path, const std::string& data)
      override {
    return base_->WriteFile(path, data);
  }
  Status AppendFile(const std::string& path, const std::string& data)
      override {
    return base_->AppendFile(path, data);
  }
  Result<std::string> ReadFile(const std::string& path) const override {
    return base_->ReadFile(path);
  }
  bool Exists(const std::string& path) const override {
    return base_->Exists(path);
  }
  Result<uint64_t> FileSize(const std::string& path) const override {
    return base_->FileSize(path);
  }
  Status DeleteFile(const std::string& path) override {
    if (++deletes_ == park_at_) {
      char one = 1;
      (void)!write(wfd_, &one, 1);
      pause();  // parked mid-GC; parent SIGKILLs
    }
    return base_->DeleteFile(path);
  }
  std::vector<std::string> ListPrefix(
      const std::string& prefix) const override {
    return base_->ListPrefix(prefix);
  }

 private:
  FileSystem* base_;
  int deletes_ = 0;
  int park_at_;
  int wfd_;
};

TEST_F(CrashConsistencyTest, KilledMidGcLeavesReplayableStore) {
  // Retirement's crash contract: the pruned manifest lands first (one
  // atomic WriteFile), deletes follow shard by shard — so a GC process
  // SIGKILLed between deletes leaves (a) a manifest that parses, (b) an
  // object present for every record it references, and (c) a run that
  // still replays green and byte-identically on both engines. Retired-but-
  // undeleted objects are mere orphans.
  workloads::WorkloadProfile profile;
  profile.name = "CrashGc";
  profile.epochs = 10;
  profile.sim_epoch_seconds = 100;
  profile.sim_outer_seconds = 2;
  profile.sim_preamble_seconds = 5;
  profile.sim_ckpt_raw_bytes = 1 << 20;  // cheap: dense checkpoints
  profile.ckpt_shards = 4;
  profile.task_kind = data::Task::kVision;
  profile.real_samples = 32;
  profile.real_batch = 8;
  profile.real_feature_dim = 12;
  profile.real_classes = 3;
  profile.real_hidden = 12;
  profile.seed = testutil::TestSeed(47);

  // Parent stages a real record run on disk.
  {
    PosixFileSystem fs(root());
    Env env(std::make_unique<SimClock>(), &fs);
    auto instance =
        workloads::MakeWorkloadFactory(profile, workloads::kProbeNone)();
    ASSERT_TRUE(instance.ok());
    RecordSession session(
        &env, workloads::DefaultRecordOptions(profile, "run"));
    exec::Frame frame;
    auto result = session.Run(instance->program.get(), &frame);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GT(result->manifest.records.size(), 4u);
  }

  const size_t objects_before = [&] {
    PosixFileSystem fs(root());
    return fs.ListPrefix("run/ckpt/").size();
  }();

  KillChildMidWrite([&](PosixFileSystem* fs, int wfd) {
    // Park on the third delete: the pruned manifest is durable and some
    // (but not all) retired objects are gone when the SIGKILL lands.
    ParkOnDeleteFileSystem parked(fs, /*park_at=*/3, wfd);
    GcPolicy policy;
    policy.keep_last_k = 1;
    auto report = RetireRun(&parked, "run", policy);
    (void)report;
  });

  PosixFileSystem fs(root());
  // (a) The manifest parses — the rewrite was atomic.
  auto manifest_bytes = fs.ReadFile("run/manifest.tsv");
  ASSERT_TRUE(manifest_bytes.ok());
  auto manifest = Manifest::Deserialize(*manifest_bytes);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();

  // (b) Every referenced object is present and decodes bit-exact; the
  // interrupted deletes left orphans (more objects than records), never
  // a dangling record.
  CheckpointStore store(&fs, "run/ckpt", manifest->shard_count);
  for (const auto& rec : manifest->records) {
    auto got = store.Get(rec.key);
    EXPECT_TRUE(got.ok()) << rec.key.ToString() << ": "
                          << got.status().ToString();
  }
  const size_t objects_after = fs.ListPrefix("run/ckpt/").size();
  EXPECT_LT(objects_after, objects_before);           // some deletes landed
  EXPECT_GT(objects_after, manifest->records.size());  // orphans remain

  // (c) Both engines replay the crashed-GC store green, byte-identically.
  auto factory =
      workloads::MakeWorkloadFactory(profile, workloads::kProbeInner);
  ClusterPlanOptions copts;
  copts.run_prefix = "run";
  copts.num_workers = 4;
  copts.init_mode = InitMode::kWeak;
  auto sim_result = exec::Replay(ReplayEngine::kSimulated, &fs, copts, factory);
  ASSERT_TRUE(sim_result.ok()) << sim_result.status().ToString();
  EXPECT_TRUE(sim_result->deferred.ok);

  exec::ReplayExecutorOptions xopts;
  xopts.run_prefix = "run";
  xopts.num_threads = 2;
  xopts.num_partitions = 2;
  xopts.init_mode = InitMode::kWeak;
  auto real_result = exec::ReplayExecutor(&fs, xopts).Run(factory);
  ASSERT_TRUE(real_result.ok()) << real_result.status().ToString();
  EXPECT_TRUE(real_result->deferred.ok);
  EXPECT_EQ(real_result->merged_logs.Serialize(),
            sim_result->merged_logs.Serialize());
}

TEST_F(CrashConsistencyTest, KilledMidBucketRetirementKeepsTiersReadable) {
  // Bucket-tier GC inherits the manifest-first crash contract: a process
  // SIGKILLed between the (atomic, already-landed) manifest prune and the
  // two-tier deletes leaves (a) a manifest that parses, (b) every record
  // it references readable through the tiers, (c) a run that replays green
  // with the bucket attached — the half-deleted epochs are orphans in
  // either tier, which the reconciliation sweep then reclaims exactly.
  workloads::WorkloadProfile profile;
  profile.name = "CrashBkt";
  profile.epochs = 10;
  profile.sim_epoch_seconds = 100;
  profile.sim_outer_seconds = 2;
  profile.sim_preamble_seconds = 5;
  profile.sim_ckpt_raw_bytes = 1 << 20;  // cheap: dense checkpoints
  profile.ckpt_shards = 4;
  profile.task_kind = data::Task::kVision;
  profile.real_samples = 32;
  profile.real_batch = 8;
  profile.real_feature_dim = 12;
  profile.real_classes = 3;
  profile.real_hidden = 12;
  profile.seed = testutil::TestSeed(53);

  // Parent stages a record run with its spool mirror on disk.
  {
    PosixFileSystem fs(root());
    Env env(std::make_unique<SimClock>(), &fs);
    auto instance =
        workloads::MakeWorkloadFactory(profile, workloads::kProbeNone)();
    ASSERT_TRUE(instance.ok());
    RecordOptions opts = workloads::DefaultRecordOptions(profile, "run");
    opts.spool_prefix = "s3";
    RecordSession session(&env, opts);
    exec::Frame frame;
    auto result = session.Run(instance->program.get(), &frame);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GT(result->manifest.records.size(), 4u);
    ASSERT_TRUE(result->spool_report.ok());
  }

  const size_t objects_before = [&] {
    PosixFileSystem fs(root());
    return fs.ListPrefix("run/ckpt/").size() +
           fs.ListPrefix("s3/run/ckpt/").size();
  }();

  KillChildMidWrite([&](PosixFileSystem* fs, int wfd) {
    // Park on the third delete: the pruned manifest is durable, a record
    // or two is half-reclaimed (bucket copy gone, local copy not, or vice
    // versa) when the SIGKILL lands.
    ParkOnDeleteFileSystem parked(fs, /*park_at=*/3, wfd);
    GcPolicy policy;
    policy.keep_last_k = 2;
    auto report = RetireBucketRun(&parked, "run", "s3", policy);
    (void)report;
  });

  PosixFileSystem fs(root());
  // (a) The manifest parses and was pruned.
  auto manifest_bytes = fs.ReadFile("run/manifest.tsv");
  ASSERT_TRUE(manifest_bytes.ok());
  auto manifest = Manifest::Deserialize(*manifest_bytes);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();

  // (b) Every referenced record reads through the tiers; the interrupted
  // deletes left orphans behind (more objects than two tiers' worth of
  // records), never a dangling record.
  auto store = CheckpointStore::Open(&fs, "run/ckpt",
                                     testutil::BucketTier("s3"), &*manifest);
  for (const auto& rec : manifest->records) {
    auto got = store->Get(rec.key);
    EXPECT_TRUE(got.ok()) << rec.key.ToString() << ": "
                          << got.status().ToString();
  }
  const auto count_objects = [&fs] {
    return fs.ListPrefix("run/ckpt/").size() +
           fs.ListPrefix("s3/run/ckpt/").size();
  };
  EXPECT_LT(count_objects(), objects_before);  // some deletes landed
  EXPECT_GT(count_objects(), manifest->records.size() * 2);  // orphans

  // (c) The crashed-GC run replays green with the bucket attached.
  auto factory =
      workloads::MakeWorkloadFactory(profile, workloads::kProbeInner);
  ClusterPlanOptions copts;
  copts.run_prefix = "run";
  copts.num_workers = 4;
  copts.init_mode = InitMode::kWeak;
  copts.tier.bucket_prefix = "s3";
  auto sim_result = exec::Replay(ReplayEngine::kSimulated, &fs, copts, factory);
  ASSERT_TRUE(sim_result.ok()) << sim_result.status().ToString();
  EXPECT_TRUE(sim_result->deferred.ok);

  // The sweep reclaims exactly the leftovers: afterwards each tier holds
  // one object per referenced record, and a rerun of the same bucket GC
  // completes as a no-op.
  auto sweep = ReconcileRun(&fs, "run", "s3");
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  EXPECT_TRUE(sweep->ok());
  EXPECT_GT(sweep->local_orphans + sweep->bucket_orphans, 0);
  EXPECT_EQ(count_objects(), manifest->records.size() * 2);

  GcPolicy policy;
  policy.keep_last_k = 2;
  auto rerun = RetireBucketRun(&fs, "run", "s3", policy);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(rerun->retired_objects, 0);
  EXPECT_EQ(count_objects(), manifest->records.size() * 2);
}

TEST_F(CrashConsistencyTest, KilledMidGroupCommitSlotLosesNoAckedCheckpoint) {
  // Group commit batches durable *notifications*, not durability: a record
  // process SIGKILLed mid-slot (kill lands during the 6th checkpoint write
  // at window 4 — slot one delivered, the 5th checkpoint durable but its
  // ack still batched in the open slot) must leave
  //   (a) no torn object at any final path (every checkpoint on disk
  //       decodes bit-exact),
  //   (b) the spool mirror holding only *acked* checkpoints (the open
  //       slot's acks never ran, so its members were never copied), each
  //       byte-identical to its local object,
  //   (c) no manifest (the run never completed — a half-written index
  //       would be worse than none), and
  //   (d) a re-record over the same prefix that completes green with a
  //       parseable manifest and every record readable.
  workloads::WorkloadProfile profile;
  profile.name = "CrashGrpCmt";
  profile.epochs = 10;
  profile.sim_epoch_seconds = 100;
  profile.sim_outer_seconds = 2;
  profile.sim_preamble_seconds = 5;
  profile.sim_ckpt_raw_bytes = 1 << 20;  // cheap: dense checkpoints
  profile.ckpt_shards = 4;
  profile.task_kind = data::Task::kVision;
  profile.real_samples = 32;
  profile.real_batch = 8;
  profile.real_feature_dim = 12;
  profile.real_classes = 3;
  profile.real_hidden = 12;
  profile.seed = testutil::TestSeed(71);

  constexpr int kWindow = 4;
  KillChildMidWrite([&](PosixFileSystem* fs, int wfd) {
    // Park on the 6th checkpoint-object write: epochs 0-4 durable (0-3
    // acked as slot one, 4 batched in the open slot), epoch 5 mid-write.
    ParkOnWriteFileSystem parked(fs, "run/ckpt/", /*park_at=*/6, wfd);
    Env env(std::make_unique<SimClock>(), &parked);
    auto instance =
        workloads::MakeWorkloadFactory(profile, workloads::kProbeNone)();
    if (!instance.ok()) _exit(3);
    RecordOptions opts = workloads::DefaultRecordOptions(profile, "run");
    opts.adaptive.enabled = false;  // dense: one checkpoint per epoch
    opts.spool_prefix = "s3";
    opts.materializer.group_commit_window = kWindow;
    RecordSession session(&env, opts);
    exec::Frame frame;
    auto result = session.Run(instance->program.get(), &frame);
    (void)result;
  });

  PosixFileSystem fs(root());
  CheckpointStore store(&fs, "run/ckpt", profile.ckpt_shards);

  // (a) Exactly the five pre-kill checkpoints landed, none torn.
  int durable = 0;
  for (int64_t e = 0; e < profile.epochs; ++e) {
    const CheckpointKey key{2, StrCat("e=", e)};
    if (!store.Exists(key)) continue;
    ++durable;
    EXPECT_LT(e, 5) << "epoch " << e << " written after the kill point";
    auto got = store.Get(key);
    EXPECT_TRUE(got.ok()) << key.ToString() << ": "
                          << got.status().ToString();
  }
  EXPECT_EQ(durable, 5);

  // (b) The mirror holds only acked (slot-one, epochs 0-3) checkpoints,
  // each complete and byte-identical to its local object. The open slot's
  // epoch-4 ack was still batched: it must not have been spooled.
  for (const auto& path : fs.ListPrefix("s3/run/ckpt/")) {
    if (path.find(".tmp.") != std::string::npos) continue;  // staging
    const std::string local = path.substr(3);  // strip "s3/"
    auto mirrored = fs.ReadFile(path);
    auto local_data = fs.ReadFile(local);
    ASSERT_TRUE(mirrored.ok()) << path;
    ASSERT_TRUE(local_data.ok()) << local;
    EXPECT_EQ(*mirrored, *local_data) << path;
    EXPECT_TRUE(DecodeCheckpoint(*mirrored).ok()) << path;
  }
  const std::string unacked = "s3/" + store.PathFor(CheckpointKey{2, "e=4"});
  EXPECT_FALSE(fs.Exists(unacked))
      << "open-slot checkpoint was spooled before its slot closed";

  // (c) The run never completed, so no index claims it did.
  EXPECT_FALSE(fs.Exists("run/manifest.tsv"));

  // (d) Re-recording over the crashed prefix completes green: manifest
  // parses and every record it references is readable.
  {
    Env env(std::make_unique<SimClock>(), &fs);
    auto instance =
        workloads::MakeWorkloadFactory(profile, workloads::kProbeNone)();
    ASSERT_TRUE(instance.ok());
    RecordOptions opts = workloads::DefaultRecordOptions(profile, "run");
    opts.adaptive.enabled = false;
    opts.spool_prefix = "s3";
    opts.materializer.group_commit_window = kWindow;
    RecordSession session(&env, opts);
    exec::Frame frame;
    auto result = session.Run(instance->program.get(), &frame);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  auto manifest_bytes = fs.ReadFile("run/manifest.tsv");
  ASSERT_TRUE(manifest_bytes.ok());
  auto manifest = Manifest::Deserialize(*manifest_bytes);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->records.size(), static_cast<size_t>(profile.epochs));
  CheckpointStore recovered(&fs, "run/ckpt", manifest->shard_count);
  for (const auto& rec : manifest->records) {
    auto got = recovered.Get(rec.key);
    EXPECT_TRUE(got.ok()) << rec.key.ToString() << ": "
                          << got.status().ToString();
  }
}

TEST_F(CrashConsistencyTest, ReplayWorkerKilledMidPartitionIsRecoverable) {
  // The process engine's crash contract: a replay worker SIGKILLed mid-
  // partition — here after tearing a half-written frame into its result
  // file's *final* path, the worst-case torn state — must surface as a
  // partition-level error naming exactly that partition; the torn frame
  // must fail to parse rather than merge as garbage; and rerunning the
  // same plan must replay green, byte-identical to the simulated engine.
  workloads::WorkloadProfile profile;
  profile.name = "CrashProc";
  profile.epochs = 12;
  profile.sim_epoch_seconds = 100;
  profile.sim_outer_seconds = 2;
  profile.sim_preamble_seconds = 5;
  profile.sim_ckpt_raw_bytes = 1 << 20;  // cheap: dense checkpoints
  profile.task_kind = data::Task::kVision;
  profile.real_samples = 32;
  profile.real_batch = 8;
  profile.real_feature_dim = 12;
  profile.real_classes = 3;
  profile.real_hidden = 12;
  profile.seed = testutil::TestSeed(59);

  PosixFileSystem fs(root());
  {
    Env env(std::make_unique<SimClock>(), &fs);
    auto instance =
        workloads::MakeWorkloadFactory(profile, workloads::kProbeNone)();
    ASSERT_TRUE(instance.ok());
    RecordSession session(
        &env, workloads::DefaultRecordOptions(profile, "run"));
    exec::Frame frame;
    auto result = session.Run(instance->program.get(), &frame);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  auto factory =
      workloads::MakeWorkloadFactory(profile, workloads::kProbeInner);
  const std::string scratch = root() + "/proc-scratch";

  exec::ProcessReplayExecutorOptions popts;
  popts.run_prefix = "run";
  popts.num_workers = 4;
  popts.init_mode = InitMode::kWeak;
  popts.scratch_dir = scratch;
  // Pre-scheduler fail-fast contract, preserved verbatim at
  // max_attempts=1; KilledMidResultWriteIsRetriedToSuccess below covers
  // the retrying default.
  popts.max_attempts = 1;
  popts.child_before_result_write = [scratch](int worker_id, int) {
    if (worker_id != 1) return;
    // The kill lands while the worker is writing its fragment to the
    // final path (the in-place shape a naive writer would have): stage
    // half of a framed result, then die.
    PosixFileSystem child_fs(scratch);
    const std::string bytes =
        EncodeSections(kResultTag, {"half", "written", "fragment"});
    (void)child_fs.AppendFile(
        exec::ProcessReplayExecutor::ResultFileName(1),
        bytes.substr(0, bytes.size() / 2));
    raise(SIGKILL);
  };
  auto failed = exec::ProcessReplayExecutor(&fs, popts).Run(factory);
  ASSERT_FALSE(failed.ok());
  const std::string msg = failed.status().message();
  EXPECT_NE(msg.find("partition 1/4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("signal 9"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("partition 0"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("partition 2"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("partition 3"), std::string::npos) << msg;

  // The torn result frame is present but never parses — Corruption, not
  // a silently merged garbage fragment.
  PosixFileSystem scratch_fs(scratch);
  ASSERT_TRUE(scratch_fs.Exists(
      exec::ProcessReplayExecutor::ResultFileName(1)));
  auto torn_bytes =
      scratch_fs.ReadFile(exec::ProcessReplayExecutor::ResultFileName(1));
  ASSERT_TRUE(torn_bytes.ok());
  auto torn = DecodeSections(kResultTag, *torn_bytes);
  ASSERT_FALSE(torn.ok());
  EXPECT_TRUE(torn.status().IsCorruption()) << torn.status().ToString();
  // Surviving fragments are intact and decodable.
  for (int w : {0, 2, 3}) {
    auto bytes = scratch_fs.ReadFile(
        exec::ProcessReplayExecutor::ResultFileName(w));
    ASSERT_TRUE(bytes.ok()) << "worker " << w;
    EXPECT_TRUE(DecodeWorkerResult(*bytes).ok()) << "worker " << w;
  }

  // Rerunning the same plan replays green and byte-identical to the
  // simulated engine — the crash left no durable damage.
  exec::ProcessReplayExecutorOptions clean = popts;
  clean.child_before_result_write = nullptr;
  auto rerun = exec::ProcessReplayExecutor(&fs, clean).Run(factory);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_TRUE(rerun->deferred.ok);

  ClusterPlanOptions copts;
  copts.run_prefix = "run";
  copts.num_workers = 4;
  copts.init_mode = InitMode::kWeak;
  auto sim_result = exec::Replay(ReplayEngine::kSimulated, &fs, copts, factory);
  ASSERT_TRUE(sim_result.ok()) << sim_result.status().ToString();
  EXPECT_TRUE(sim_result->deferred.ok);
  EXPECT_EQ(rerun->merged_logs.Serialize(),
            sim_result->merged_logs.Serialize());
}

TEST_F(CrashConsistencyTest, KilledMidResultWriteIsRetriedToSuccess) {
  // The scheduler's recovery contract: the same worst-case loss as above —
  // a worker SIGKILLed after tearing half a frame into its attempt-1
  // result path — but with the default retry budget, the scheduler
  // re-forks the partition, the clean attempt-2 fragment commits under its
  // own attempt-suffixed name (the torn attempt-1 file cannot shadow it),
  // and the replay completes byte-identical to the simulated engine.
  workloads::WorkloadProfile profile;
  profile.name = "CrashProcRetry";
  profile.epochs = 12;
  profile.sim_epoch_seconds = 100;
  profile.sim_outer_seconds = 2;
  profile.sim_preamble_seconds = 5;
  profile.sim_ckpt_raw_bytes = 1 << 20;  // cheap: dense checkpoints
  profile.task_kind = data::Task::kVision;
  profile.real_samples = 32;
  profile.real_batch = 8;
  profile.real_feature_dim = 12;
  profile.real_classes = 3;
  profile.real_hidden = 12;
  profile.seed = testutil::TestSeed(61);

  PosixFileSystem fs(root());
  {
    Env env(std::make_unique<SimClock>(), &fs);
    auto instance =
        workloads::MakeWorkloadFactory(profile, workloads::kProbeNone)();
    ASSERT_TRUE(instance.ok());
    RecordSession session(
        &env, workloads::DefaultRecordOptions(profile, "run"));
    exec::Frame frame;
    auto result = session.Run(instance->program.get(), &frame);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  auto factory =
      workloads::MakeWorkloadFactory(profile, workloads::kProbeInner);
  const std::string scratch = root() + "/proc-scratch";

  exec::ProcessReplayExecutorOptions popts;  // default max_attempts = 2
  popts.run_prefix = "run";
  popts.num_workers = 4;
  popts.init_mode = InitMode::kWeak;
  popts.scratch_dir = scratch;
  popts.child_before_result_write = [scratch](int worker_id, int attempt) {
    if (worker_id != 1 || attempt != 1) return;
    PosixFileSystem child_fs(scratch);
    const std::string bytes =
        EncodeSections(kResultTag, {"half", "written", "fragment"});
    (void)child_fs.AppendFile(
        exec::ProcessReplayExecutor::ResultFileName(1, 1),
        bytes.substr(0, bytes.size() / 2));
    raise(SIGKILL);
  };
  auto result = exec::ProcessReplayExecutor(&fs, popts).Run(factory);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->deferred.ok);
  EXPECT_EQ(result->retried_partitions, 1);
  ASSERT_EQ(result->partition_attempts.size(), 4u);
  EXPECT_EQ(result->partition_attempts[1], 2);

  // The torn attempt-1 file is still on disk and still refuses to parse;
  // the committed fragment lives at the attempt-2 name.
  PosixFileSystem scratch_fs(scratch);
  auto torn_bytes = scratch_fs.ReadFile(
      exec::ProcessReplayExecutor::ResultFileName(1, 1));
  ASSERT_TRUE(torn_bytes.ok());
  auto torn = DecodeSections(kResultTag, *torn_bytes);
  ASSERT_FALSE(torn.ok());
  EXPECT_TRUE(torn.status().IsCorruption()) << torn.status().ToString();
  auto committed = scratch_fs.ReadFile(
      exec::ProcessReplayExecutor::ResultFileName(1, 2));
  ASSERT_TRUE(committed.ok());
  EXPECT_TRUE(DecodeWorkerResult(*committed).ok());

  ClusterPlanOptions copts;
  copts.run_prefix = "run";
  copts.num_workers = 4;
  copts.init_mode = InitMode::kWeak;
  auto sim_result = exec::Replay(ReplayEngine::kSimulated, &fs, copts, factory);
  ASSERT_TRUE(sim_result.ok()) << sim_result.status().ToString();
  EXPECT_TRUE(sim_result->deferred.ok);
  EXPECT_EQ(result->merged_logs.Serialize(),
            sim_result->merged_logs.Serialize());
}

}  // namespace
}  // namespace flor

#endif  // __unix__ || __APPLE__

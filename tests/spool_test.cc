// The spool mirror: SpoolObject / SpoolStore copies, retry and failure
// paths, one report over a sharded store, the concurrent
// materialize-while-spool interaction with the sharded CheckpointStore, and
// the record session's ack-driven mirror (each acknowledged checkpoint
// copied to the bucket by the materializer's durability ack) with the
// run-level contracts of that ack: a failed background write fails the
// record, and every manifest record is sized by its ack. This suite carries
// the `tsan` ctest label — FLOR_SANITIZE=thread ./scripts/check.sh runs it
// under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>

#include "checkpoint/gc.h"
#include "checkpoint/materializer.h"
#include "checkpoint/spool.h"
#include "checkpoint/store.h"
#include "common/strings.h"
#include "env/background_queue.h"
#include "env/filesystem.h"
#include "flor/record.h"
#include "test_util.h"
#include "workloads/programs.h"

namespace flor {
namespace {

/// Writes `n` checkpoint-like objects through a store with `shards`
/// shards; returns the store's total byte count.
uint64_t FillStore(CheckpointStore* store, int n, size_t object_bytes) {
  for (int i = 0; i < n; ++i) {
    const CheckpointKey key{2, StrCat("e=", i)};
    const std::string payload(object_bytes, static_cast<char>('a' + i % 26));
    EXPECT_TRUE(store->PutBytes(key, payload).ok());
  }
  return store->TotalBytes();
}

TEST(SpoolMirror, ShardedCopiesTotalInOneReport) {
  MemFileSystem fs;
  CheckpointStore store(&fs, "run/ckpt", /*num_shards=*/4);
  const uint64_t local = FillStore(&store, 32, 64);

  SpoolReport total;
  int shards_with_objects = 0;
  for (int shard = 0; shard < store.num_shards(); ++shard) {
    const auto paths = fs.ListPrefix(store.ShardPrefix(shard) + "/");
    if (!paths.empty()) ++shards_with_objects;
    for (const auto& path : paths)
      SpoolObject(&fs, path, "s3/" + path, &total);
  }
  // CRC32C placement spreads 32 keys over more than one of 4 shards.
  EXPECT_GT(shards_with_objects, 1);

  EXPECT_TRUE(total.ok());
  EXPECT_EQ(total.objects, 32);
  EXPECT_EQ(total.bytes, local);
  EXPECT_DOUBLE_EQ(total.monthly_cost_dollars, S3MonthlyCost(local));

  // The whole-store loop lands the same totals: 10 objects of 100 bytes.
  CheckpointStore flat(&fs, "flat/ckpt");
  FillStore(&flat, 10, 100);
  SpoolReport by_store = SpoolStore(flat, "s3/flat/ckpt");
  EXPECT_TRUE(by_store.ok());
  EXPECT_EQ(by_store.objects, 10);
  EXPECT_EQ(by_store.bytes, 1000u);
}

TEST(SpoolMirror, ShardedStoreLayoutPreservedInBucket) {
  MemFileSystem fs;
  CheckpointStore store(&fs, "run/ckpt", /*num_shards=*/4);
  FillStore(&store, 12, 50);

  SpoolReport report = SpoolStore(store, "s3/run/ckpt");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.objects, 12);

  // Every local object exists at the mirrored path under the bucket.
  for (const auto& path : fs.ListPrefix("run/ckpt/")) {
    const std::string mirrored = "s3/" + path;
    EXPECT_TRUE(fs.Exists(mirrored)) << mirrored;
  }
  EXPECT_EQ(fs.TotalBytesUnder("s3/run/ckpt/"), store.TotalBytes());
}

TEST(SpoolMirror, SpoolStoreMirrorLayoutIgnoresDestinationSlashes) {
  // The bucket tier reads objects at JoinObjectPath(bucket_prefix,
  // PathFor(key)), so a spool that shifts keys by a slash strands every
  // demoted checkpoint: stray trailing slashes on the destination must
  // land a byte-identical mirror layout.
  MemFileSystem fs;
  CheckpointStore store(&fs, "run/ckpt", /*num_shards=*/4);
  FillStore(&store, 12, 50);

  SpoolReport by_store = SpoolStore(store, "mirror/a/run/ckpt");
  ASSERT_TRUE(by_store.ok());

  /// Byte image under `prefix`, keyed by path relative to it.
  auto image = [&fs](const std::string& prefix) {
    std::map<std::string, std::string> out;
    for (const auto& path : fs.ListPrefix(prefix)) {
      auto data = fs.ReadFile(path);
      EXPECT_TRUE(data.ok()) << path;
      out[path.substr(prefix.size())] = *data;
    }
    return out;
  };
  const auto want = image("mirror/a/");
  ASSERT_EQ(want.size(), 12u);

  const struct {
    const char* dst;
    const char* out;
  } kVariants[] = {
      {"mirror/b/run/ckpt/", "mirror/b/"},
      {"mirror/c/run/ckpt//", "mirror/c/"},
  };
  for (const auto& v : kVariants) {
    SpoolReport report = SpoolStore(store, v.dst);
    ASSERT_TRUE(report.ok()) << report.first_error;
    EXPECT_EQ(report.objects, 12) << v.dst;
    EXPECT_EQ(image(v.out), want) << v.dst;
  }
}

TEST(SpoolMirror, TransientWriteFailuresAreRetried) {
  MemFileSystem base;
  FaultInjectionFileSystem fs(&base);
  CheckpointStore store(&fs, "run/ckpt");
  FillStore(&store, 5, 80);

  // Two consecutive bucket-write failures, three attempts allowed: the
  // spool must recover without losing an object.
  static_assert(kSpoolMaxAttempts == 3);
  fs.InjectWriteFailures(2, "s3/");
  SpoolReport report = SpoolStore(store, "s3/run/ckpt");
  EXPECT_TRUE(report.ok()) << report.first_error;
  EXPECT_EQ(report.objects, 5);
  EXPECT_EQ(report.retries, 2);
  EXPECT_EQ(report.failed_objects, 0);
  EXPECT_EQ(base.TotalBytesUnder("s3/run/ckpt/"), store.TotalBytes());
}

TEST(SpoolMirror, ExhaustedRetriesSurfaceFailedReportWithoutLosingObjects) {
  MemFileSystem base;
  FaultInjectionFileSystem fs(&base);
  CheckpointStore store(&fs, "run/ckpt");
  FillStore(&store, 6, 80);

  // One object's destination fails persistently (its key string appears
  // only in its own path); everything else must still spool.
  fs.InjectWriteFailures(1000, "s3/run/ckpt/L2@e=3");
  SpoolReport report = SpoolStore(store, "s3/run/ckpt");

  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.failed_objects, 1);
  EXPECT_EQ(report.objects, 5);
  EXPECT_EQ(report.retries, 2);  // two re-attempts before giving up
  EXPECT_FALSE(report.first_error.empty());
  // Already-spooled objects stay spooled; only the poisoned one is absent.
  EXPECT_FALSE(base.Exists("s3/run/ckpt/L2@e=3.ckpt"));
  for (int i = 0; i < 6; ++i) {
    if (i == 3) continue;
    EXPECT_TRUE(base.Exists(StrCat("s3/run/ckpt/L2@e=", i, ".ckpt"))) << i;
  }
}

TEST(SpoolMirror, MissingSourceCountsAsFailedObject) {
  MemFileSystem fs;
  SpoolReport report;
  SpoolObject(&fs, "run/ckpt/ghost.ckpt", "s3/ghost.ckpt", &report);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.failed_objects, 1);
  EXPECT_EQ(report.objects, 0);
}

TEST(SpoolMirror, ConcurrentMaterializeWhileSpooling) {
  // The production overlap: a wall-clock materializer keeps writing new
  // checkpoints into a sharded store while the spooler drains existing
  // objects to the bucket. Distinct per-shard locks and the thread-safe
  // filesystem must keep both sides consistent (TSAN-checked in CI).
  MemFileSystem fs;
  CheckpointStore store(&fs, "run/ckpt", /*num_shards=*/4);
  const int kPre = 24;
  FillStore(&store, kPre, 256);

  Env wall_env(std::make_unique<WallClock>(), &fs);
  MaterializerOptions mopts;
  mopts.strategy = MaterializeStrategy::kFork;
  Materializer materializer(&wall_env, mopts);

  SpoolReport report;
  std::atomic<bool> done{false};
  std::thread spooler([&] {
    report = SpoolStore(store, "s3/run/ckpt");
    done.store(true);
  });

  // Materialize more checkpoints into the same store meanwhile.
  const int kNew = 8;
  for (int i = 0; i < kNew; ++i) {
    NamedSnapshots snaps;
    snaps.emplace_back("step", ir::SnapshotValue(ir::Value::Int(i)));
    auto receipt = materializer.Materialize(
        &store, CheckpointKey{7, StrCat("e=", i)}, std::move(snaps), 0);
    ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  }
  materializer.Drain();
  spooler.join();
  ASSERT_TRUE(done.load());

  // The spooler copied exactly the pre-existing objects (its listing ran
  // before/while the writer added more — either way each listed object
  // must have landed), and the store now holds both generations.
  EXPECT_TRUE(report.ok()) << report.first_error;
  EXPECT_GE(report.objects, kPre);
  EXPECT_EQ(fs.ListPrefix("run/ckpt/").size(),
            static_cast<size_t>(kPre + kNew));
}

TEST(SpoolMirror, RecordSessionSpoolsAsYouMaterializesOnWallClock) {
  // The full production overlap, driven entirely by RecordSession: a
  // wall-clock Fork materializer lands checkpoints from its background
  // worker, and each durable checkpoint is copied to the bucket by its
  // ack on that worker (Materializer on_durable -> SpoolObject) while the
  // training thread keeps snapshotting into the same store. TSAN-checked
  // in CI via the `tsan` label.
  MemFileSystem fs;
  Env env(std::make_unique<WallClock>(), &fs);

  workloads::WorkloadProfile profile;
  profile.name = "SpoolRec";
  profile.epochs = 10;
  profile.sim_ckpt_raw_bytes = 1 << 20;  // cheap: dense checkpoints
  profile.ckpt_shards = 4;
  profile.task_kind = data::Task::kVision;
  profile.real_samples = 32;
  profile.real_batch = 8;
  profile.real_feature_dim = 12;
  profile.real_classes = 3;
  profile.real_hidden = 12;
  profile.seed = testutil::TestSeed(61);

  auto instance =
      workloads::MakeWorkloadFactory(profile, workloads::kProbeNone)();
  ASSERT_TRUE(instance.ok());
  RecordOptions opts = workloads::DefaultRecordOptions(profile, "run");
  opts.materializer.strategy = MaterializeStrategy::kFork;
  // Real wall-clock compute is microseconds against a modeled multi-ms
  // materialization, so the Joint Invariant would reject everything;
  // disable it — this test is about the spool pipeline, not the policy.
  opts.adaptive.enabled = false;
  opts.spool_prefix = "s3";
  RecordSession session(&env, opts);
  exec::Frame frame;
  auto result = session.Run(instance->program.get(), &frame);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Every materialized checkpoint was spooled, without any bench-side
  // spool calls.
  EXPECT_TRUE(result->spool_report.ok()) << result->spool_report.first_error;
  EXPECT_EQ(result->spool_report.objects,
            static_cast<int64_t>(result->manifest.records.size()));
  EXPECT_GT(result->spool_report.batches, 1);

  // The bucket mirrors the store byte-for-byte at the mirrored paths.
  CheckpointStore store(&fs, "run/ckpt", profile.ckpt_shards);
  for (const auto& rec : result->manifest.records) {
    const std::string local = store.PathFor(rec.key);
    auto local_data = fs.ReadFile(local);
    auto bucket_data = fs.ReadFile("s3/" + local);
    ASSERT_TRUE(local_data.ok()) << local;
    ASSERT_TRUE(bucket_data.ok()) << "s3/" << local;
    EXPECT_EQ(*bucket_data, *local_data) << local;
  }
  EXPECT_EQ(fs.TotalBytesUnder("s3/run/ckpt/"),
            fs.TotalBytesUnder("run/ckpt/"));
}

TEST(BackgroundQueue, WaitUntilInFlightBelowBoundsProducers) {
  BackgroundQueue queue;
  std::atomic<int> running{0};
  std::atomic<int> max_seen{0};
  for (int i = 0; i < 16; ++i) {
    queue.WaitUntilInFlightBelow(3);
    EXPECT_LT(queue.InFlight(), 3u);
    queue.Submit([&] {
      const int now = ++running;
      int prev = max_seen.load();
      while (prev < now && !max_seen.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      --running;
    });
  }
  queue.Drain();
  EXPECT_EQ(queue.InFlight(), 0u);
  EXPECT_LE(max_seen.load(), 1);  // single worker: never truly parallel
}

// --- Group-commit durability (Materializer::NotifyDurable) -----------------

/// Dense sim workload: adaptive off, so every epoch materializes and the
/// checkpoint count is deterministic.
workloads::WorkloadProfile GroupCommitProfile() {
  workloads::WorkloadProfile p;
  p.name = "GrpCmt";
  p.epochs = 10;
  p.sim_epoch_seconds = 10;
  p.sim_outer_seconds = 1;
  p.sim_preamble_seconds = 2;
  p.sim_ckpt_raw_bytes = 1 << 20;
  p.ckpt_shards = 4;
  p.task_kind = data::Task::kVision;
  p.real_samples = 32;
  p.real_batch = 8;
  p.real_feature_dim = 12;
  p.real_classes = 3;
  p.real_hidden = 12;
  p.seed = testutil::TestSeed(67);
  return p;
}

RecordResult RecordGroupCommit(FileSystem* fs, int window,
                               double notify_seconds) {
  Env env(std::make_unique<SimClock>(), fs);
  auto instance = workloads::MakeWorkloadFactory(GroupCommitProfile(),
                                                 workloads::kProbeNone)();
  EXPECT_TRUE(instance.ok());
  RecordOptions opts =
      workloads::DefaultRecordOptions(GroupCommitProfile(), "run");
  opts.adaptive.enabled = false;
  opts.spool_prefix = "s3";
  opts.materializer.group_commit_window = window;
  opts.materializer.costs.durable_notify_seconds = notify_seconds;
  RecordSession session(&env, opts);
  exec::Frame frame;
  auto result = session.Run(instance->program.get(), &frame);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(GroupCommit, WindowEightByteIdenticalToWindowOneWhenNotifyIsFree) {
  // With a free sync (the default cost), batching notifications must not
  // change a single byte of any artifact — manifest, logs, checkpoint
  // objects, or the spooled bucket mirror — only the slot accounting.
  MemFileSystem fs_w1;
  MemFileSystem fs_w8;
  RecordResult w1 = RecordGroupCommit(&fs_w1, 1, 0.0);
  RecordResult w8 = RecordGroupCommit(&fs_w8, 8, 0.0);

  std::map<std::string, std::string> image_w1;
  for (const auto& path : fs_w1.ListPrefix("")) {
    auto data = fs_w1.ReadFile(path);
    ASSERT_TRUE(data.ok()) << path;
    image_w1[path] = *data;
  }
  std::map<std::string, std::string> image_w8;
  for (const auto& path : fs_w8.ListPrefix("")) {
    auto data = fs_w8.ReadFile(path);
    ASSERT_TRUE(data.ok()) << path;
    image_w8[path] = *data;
  }
  EXPECT_EQ(image_w8, image_w1);
  EXPECT_EQ(w8.runtime_seconds, w1.runtime_seconds);

  // Same notifications, different batching.
  EXPECT_EQ(w1.group_commit.joins, 10);
  EXPECT_EQ(w8.group_commit.joins, 10);
  EXPECT_EQ(w1.group_commit.slots, w1.group_commit.joins);
  EXPECT_EQ(w1.group_commit.syncs, w1.group_commit.joins);
  EXPECT_EQ(w1.group_commit.max_slot_joins, 1);
  // 10 joins at window 8: one full slot + the drain flush of the partial.
  EXPECT_EQ(w8.group_commit.slots, 2);
  EXPECT_EQ(w8.group_commit.syncs, 2);
  EXPECT_EQ(w8.group_commit.max_slot_joins, 8);
  EXPECT_EQ(w8.spool_report.objects, w1.spool_report.objects);
}

TEST(GroupCommit, SlotAccountingAndDeliveryOrder) {
  auto env = Env::NewSimEnv();
  MaterializerOptions opts;
  opts.strategy = MaterializeStrategy::kFork;
  opts.group_commit_window = 3;
  std::vector<std::string> delivered;
  opts.on_durable = [&delivered](const CheckpointKey& key,
                                 const std::string& bytes) {
    EXPECT_GT(bytes.size(), 0u);
    delivered.push_back(key.ToString());
  };
  Materializer mat(env.get(), opts);
  CheckpointStore store(env->fs(), "ck");

  NamedSnapshots snaps;
  snaps.emplace_back("count", ir::SnapshotValue(ir::Value::Int(42)));
  for (int e = 0; e < 7; ++e) {
    auto receipt = mat.Materialize(&store, CheckpointKey{1, StrCat("e=", e)},
                                   snaps, 1 << 20);
    ASSERT_TRUE(receipt.ok());
  }
  // Two full slots closed; the 7th join sits in the open slot.
  GroupCommitStats mid = mat.group_commit_stats();
  EXPECT_EQ(mid.joins, 7);
  EXPECT_EQ(mid.slots, 2);
  EXPECT_EQ(mid.syncs, 2);
  ASSERT_EQ(delivered.size(), 6u);

  mat.Drain();  // flushes the partial slot: nothing acked is ever lost
  GroupCommitStats done = mat.group_commit_stats();
  EXPECT_EQ(done.joins, 7);
  EXPECT_EQ(done.slots, 3);
  EXPECT_EQ(done.syncs, 3);
  EXPECT_EQ(done.max_slot_joins, 3);
  EXPECT_DOUBLE_EQ(done.JoinsPerSlot(), 7.0 / 3.0);
  // Notifications arrive in store order across slot boundaries.
  ASSERT_EQ(delivered.size(), 7u);
  for (int e = 0; e < 7; ++e)
    EXPECT_EQ(delivered[static_cast<size_t>(e)], StrCat("L1@e=", e));
}

TEST(GroupCommit, SimNotifyCostIsAmortizedByWindow) {
  // A nonzero durable sync charges the training thread notify/window per
  // checkpoint: window 1 pays it in full, window 8 amortizes it ~8x.
  MemFileSystem fs_free;
  MemFileSystem fs_w1;
  MemFileSystem fs_w8;
  RecordResult free_run = RecordGroupCommit(&fs_free, 1, 0.0);
  RecordResult w1 = RecordGroupCommit(&fs_w1, 1, 0.5);
  RecordResult w8 = RecordGroupCommit(&fs_w8, 8, 0.5);

  EXPECT_GT(w1.runtime_seconds, w8.runtime_seconds);
  EXPECT_GT(w8.runtime_seconds, free_run.runtime_seconds);
  // 10 checkpoints: the full tax is 10 * 0.5s; amortized, 10 * 0.5/8.
  EXPECT_NEAR(w1.runtime_seconds - free_run.runtime_seconds, 10 * 0.5,
              1e-6);
  EXPECT_NEAR(w8.runtime_seconds - free_run.runtime_seconds,
              10 * 0.5 / 8, 1e-6);
}

// --- The durability ack on a wall clock ------------------------------------

/// Records GroupCommitProfile() over `fs` under a wall clock with the Fork
/// strategy and every epoch materialized, so each checkpoint is written
/// and acknowledged on the materializer's worker. An empty `spool_prefix`
/// records without a bucket mirror.
Result<RecordResult> RecordOnWallClock(FileSystem* fs,
                                       const std::string& spool_prefix) {
  Env env(std::make_unique<WallClock>(), fs);
  auto instance = workloads::MakeWorkloadFactory(GroupCommitProfile(),
                                                 workloads::kProbeNone)();
  if (!instance.ok()) return instance.status();
  RecordOptions opts =
      workloads::DefaultRecordOptions(GroupCommitProfile(), "run");
  opts.materializer.strategy = MaterializeStrategy::kFork;
  opts.adaptive.enabled = false;
  opts.spool_prefix = spool_prefix;
  RecordSession session(&env, opts);
  exec::Frame frame;
  return session.Run(instance->program.get(), &frame);
}

TEST(RecordAck, FailedBackgroundWriteFailsTheRecordAndWritesNoManifest) {
  // The first checkpoint's background write fails. It is never
  // acknowledged, so the run must fail like a crashed one, before any
  // manifest names a checkpoint that never landed.
  MemFileSystem base;
  FaultInjectionFileSystem fs(&base);
  fs.InjectWriteFailures(1, "run/ckpt/");
  auto result = RecordOnWallClock(&fs, "");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError)
      << result.status().ToString();
  EXPECT_EQ(fs.failures_injected(), 1);
  EXPECT_FALSE(base.Exists("run/manifest.tsv"));
}

TEST(RecordAck, StoredBytesMatchEachObjectOnWallClock) {
  // Background writes finish after Materialize returns; each manifest
  // record still carries its object's stored size, taken from its ack.
  MemFileSystem fs;
  auto result = RecordOnWallClock(&fs, "");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->manifest.records.size(), 10u);
  CheckpointStore store(&fs, "run/ckpt", result->manifest.shard_count);
  for (const auto& rec : result->manifest.records) {
    auto size = fs.FileSize(store.PathFor(rec.key));
    ASSERT_TRUE(size.ok()) << rec.key.ToString();
    EXPECT_EQ(rec.stored_bytes, *size) << rec.key.ToString();
  }
  auto persisted = ReadManifest(&fs, "run");
  ASSERT_TRUE(persisted.ok()) << persisted.status().ToString();
  EXPECT_EQ(persisted->TotalStoredBytes(), fs.TotalBytesUnder("run/ckpt/"));
}

TEST(SpoolMirror, RecordRetriesTransientBucketWritesOnWallClock) {
  // The first two bucket writes fail; the acks' copies retry them, and the
  // run ends with a complete, byte-identical mirror.
  MemFileSystem base;
  FaultInjectionFileSystem fs(&base);
  fs.InjectWriteFailures(2, "s3/");
  auto result = RecordOnWallClock(&fs, "s3");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->spool_report.ok()) << result->spool_report.first_error;
  EXPECT_EQ(result->spool_report.retries, 2);
  EXPECT_EQ(result->spool_report.objects,
            static_cast<int64_t>(result->manifest.records.size()));

  CheckpointStore store(&base, "run/ckpt", result->manifest.shard_count);
  for (const auto& rec : result->manifest.records) {
    const std::string local = store.PathFor(rec.key);
    auto local_data = base.ReadFile(local);
    auto bucket_data = base.ReadFile("s3/" + local);
    ASSERT_TRUE(local_data.ok()) << local;
    ASSERT_TRUE(bucket_data.ok()) << "s3/" << local;
    EXPECT_EQ(*bucket_data, *local_data) << local;
  }
  EXPECT_EQ(base.TotalBytesUnder("s3/run/ckpt/"),
            base.TotalBytesUnder("run/ckpt/"));
}

TEST(SpoolMirror, RecordMirrorsFromTheAckedBytesWithoutReadingBack) {
  // The durability ack carries each checkpoint's encoded bytes, and the
  // bucket copy is written from them: the record reads no object back,
  // and each bucket copy equals its local object byte for byte.
  MemFileSystem base;
  testutil::CountingFileSystem fs(&base);
  auto result = RecordOnWallClock(&fs, "s3");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(fs.total_reads(), 0);
  EXPECT_TRUE(result->spool_report.ok()) << result->spool_report.first_error;
  EXPECT_EQ(result->spool_report.objects,
            static_cast<int64_t>(result->manifest.records.size()));
  EXPECT_EQ(result->spool_report.bytes, result->manifest.TotalStoredBytes());

  CheckpointStore store(&base, "run/ckpt", result->manifest.shard_count);
  for (const auto& rec : result->manifest.records) {
    const std::string local = store.PathFor(rec.key);
    auto local_data = base.ReadFile(local);
    auto bucket_data = base.ReadFile("s3/" + local);
    ASSERT_TRUE(local_data.ok()) << local;
    ASSERT_TRUE(bucket_data.ok()) << "s3/" << local;
    EXPECT_EQ(*bucket_data, *local_data) << local;
  }
}

TEST(SpoolMirror, RecordSurvivesABucketThatRefusesOneKey) {
  // Every bucket write of one key fails. The copy is counted as failed and
  // the run still succeeds with a complete manifest; demoting the run to
  // keep-last-1 afterwards must then keep that key's only copy local.
  MemFileSystem base;
  FaultInjectionFileSystem fs(&base);
  CheckpointStore local(&base, "run/ckpt", GroupCommitProfile().ckpt_shards);
  const CheckpointKey poisoned{2, "e=3"};
  const std::string bucket_path =
      JoinObjectPath("s3", local.PathFor(poisoned));
  fs.InjectWriteFailures(1000, bucket_path);
  auto result = RecordOnWallClock(&fs, "s3");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_FALSE(result->spool_report.ok());
  EXPECT_EQ(result->spool_report.failed_objects, 1);
  EXPECT_EQ(result->spool_report.retries, 2);
  EXPECT_EQ(result->spool_report.objects, 9);
  EXPECT_FALSE(base.Exists(bucket_path));

  ASSERT_EQ(result->manifest.records.size(), 10u);
  auto persisted = ReadManifest(&base, "run");
  ASSERT_TRUE(persisted.ok()) << persisted.status().ToString();
  EXPECT_EQ(persisted->records.size(), 10u);

  GcPolicy policy;
  policy.keep_last_k = 1;
  auto gc = RetireRun(&fs, "run", policy, "s3");
  ASSERT_TRUE(gc.ok()) << gc.status().ToString();
  EXPECT_TRUE(gc->demoted_to_bucket);
  EXPECT_EQ(gc->skipped_unspooled, 1);
  EXPECT_TRUE(local.Exists(poisoned));
  // Every record stays readable: the poisoned key locally, the demoted
  // ones through the bucket tier.
  TierOptions tier;
  tier.bucket_prefix = "s3";
  auto opened = OpenRun(&base, "run", tier);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  for (const auto& rec : result->manifest.records) {
    EXPECT_TRUE(opened->store->Get(rec.key).ok()) << rec.key.ToString();
  }
}

}  // namespace
}  // namespace flor

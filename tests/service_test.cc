// Connection/Session service front-end: tenant-namespace isolation through
// every tier (local shards, bucket fall-through, bloom fast path),
// byte-identity of the service path against the one-shot entry points on
// all three replay engines, admission control over concurrent recorders,
// concurrent sessions racing the background GC worker, per-run spool
// accounting, namespace validation, the options-dedup static guards, and
// the pinned process-worker wire format — plus the fair-admission gate
// (per-tenant quotas, starved-wait histogram), per-tenant stats slices,
// the tenant-attributed GC failure ring, graceful drain via
// Connection::Close, and a two-tenant query on a real POSIX store. Runs
// under the `service` ctest label (including the thread-sanitizer pass in
// check.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "checkpoint/gc.h"
#include "common/strings.h"
#include "env/filesystem.h"
#include "exec/process_executor.h"
#include "exec/replay_executor.h"
#include "flor/record.h"
#include "flor/replay_plan.h"
#include "service/service.h"
#include "test_util.h"
#include "workloads/programs.h"

namespace flor {
namespace {

using workloads::kProbeInner;
using workloads::kProbeNone;
using workloads::MakeWorkloadFactory;
using workloads::WorkloadProfile;

// --- Options-dedup guards: the process-engine options are the one
// --- replay request plus their own knobs, and every tier carrier
// --- holds the one TierOptions aggregate, so a new tier knob flows to all
// --- of them or none.
static_assert(
    std::is_base_of_v<ClusterPlanOptions, exec::ProcessReplayExecutorOptions>,
    "ProcessReplayExecutorOptions must extend the replay request");
static_assert(std::is_same_v<decltype(ClusterPlanOptions::tier), TierOptions>,
              "the replay request must carry the shared TierOptions");
static_assert(
    std::is_same_v<decltype(exec::ReplayExecutorOptions::tier), TierOptions>,
    "ReplayExecutorOptions must carry the shared TierOptions");
static_assert(std::is_same_v<decltype(ConnectionOptions::tier), TierOptions>,
              "ConnectionOptions must carry the shared TierOptions");

/// Densely checkpointed sim workload (the tiered-test shape) so GC and
/// partitioned replay have a long epoch timeline.
WorkloadProfile ServiceProfile(int64_t epochs = 12, int shards = 4) {
  WorkloadProfile p;
  p.name = "SvcT";
  p.epochs = epochs;
  p.sim_epoch_seconds = 100;
  p.sim_outer_seconds = 2;
  p.sim_preamble_seconds = 5;
  p.sim_ckpt_raw_bytes = 1 << 20;
  p.ckpt_shards = shards;
  p.task_kind = data::Task::kVision;
  p.real_samples = 32;
  p.real_batch = 8;
  p.real_feature_dim = 12;
  p.real_classes = 3;
  p.real_hidden = 12;
  p.seed = testutil::TestSeed(47);
  return p;
}

/// The per-call slice of a one-shot RecordOptions — what a service caller
/// passes per Record (the store/tier/GC layer lives on the Connection).
SessionRecordOptions SessionRecordFrom(const RecordOptions& o) {
  SessionRecordOptions s;
  s.workload = o.workload;
  s.materializer = o.materializer;
  s.adaptive = o.adaptive;
  s.nominal_checkpoint_bytes = o.nominal_checkpoint_bytes;
  s.vanilla_runtime_seconds = o.vanilla_runtime_seconds;
  return s;
}

/// Full byte image of everything under `prefix`.
std::map<std::string, std::string> SnapshotPrefix(const FileSystem& fs,
                                                  const std::string& prefix) {
  std::map<std::string, std::string> out;
  for (const auto& path : fs.ListPrefix(prefix)) {
    auto data = fs.ReadFile(path);
    EXPECT_TRUE(data.ok()) << path;
    if (data.ok()) out[path] = *data;
  }
  return out;
}

ConnectionOptions TieredConnectionOptions(const WorkloadProfile& profile) {
  ConnectionOptions copts;
  copts.root = "svc";
  copts.ckpt_shards = profile.ckpt_shards;
  copts.tier.bucket_prefix = "s3";
  return copts;
}

TEST(ServiceTest, SessionPathByteIdenticalToOneShotEntryPoints) {
  const WorkloadProfile profile = ServiceProfile();
  const std::string prefix = "svc/alice/r1";

  // Service path: record + three-engine replay through one Connection.
  MemFileSystem fs_svc;
  Env env_svc = testutil::MakeSimEnv(&fs_svc);
  auto conn = Connection::Open(&env_svc, TieredConnectionOptions(profile));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  auto session = (*conn)->OpenSession("alice");
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  const RecordOptions ropts = workloads::DefaultRecordOptions(profile, "");
  auto rec = (*session)->Record("r1", MakeWorkloadFactory(profile, kProbeNone),
                                SessionRecordFrom(ropts));
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  (*conn)->DrainBackground();

  // One-shot path: same run prefix, same spool mirror.
  MemFileSystem fs_direct;
  Env env_direct = testutil::MakeSimEnv(&fs_direct);
  RecordOptions direct_opts = workloads::DefaultRecordOptions(profile, prefix);
  direct_opts.spool_prefix = "s3";
  {
    auto instance = MakeWorkloadFactory(profile, kProbeNone)();
    ASSERT_TRUE(instance.ok());
    RecordSession one_shot(&env_direct, direct_opts);
    exec::Frame frame;
    auto direct_rec = one_shot.Run(instance->program.get(), &frame);
    ASSERT_TRUE(direct_rec.ok()) << direct_rec.status().ToString();
    EXPECT_EQ(rec->manifest.records.size(),
              direct_rec->manifest.records.size());
  }

  // Record artifacts and the bucket mirror are byte-identical between the
  // service path (connection-owned tier) and the one-shot path
  // (session-owned store).
  EXPECT_EQ(SnapshotPrefix(fs_svc, "svc"), SnapshotPrefix(fs_direct, "svc"));
  EXPECT_EQ(SnapshotPrefix(fs_svc, "s3"), SnapshotPrefix(fs_direct, "s3"));

  // Replay through the session on all three engines; all merged logs must
  // be byte-identical to a direct exec::Replay(kSimulated) of the one-shot
  // run.
  const ProgramFactory probed = MakeWorkloadFactory(profile, kProbeInner);
  ClusterPlanOptions sim_opts;
  sim_opts.run_prefix = prefix;
  sim_opts.num_workers = 2;
  sim_opts.tier.bucket_prefix = "s3";
  auto direct_replay =
      exec::Replay(ReplayEngine::kSimulated, &fs_direct, sim_opts, probed);
  ASSERT_TRUE(direct_replay.ok()) << direct_replay.status().ToString();
  ASSERT_TRUE(direct_replay->deferred.ok);
  const std::string golden_logs = direct_replay->merged_logs.Serialize();

  for (ReplayEngine engine :
       {ReplayEngine::kSimulated, ReplayEngine::kThreads,
        ReplayEngine::kProcesses}) {
    SessionReplayOptions sopts;
    sopts.engine = engine;
    sopts.workers = 2;
    auto replay = (*session)->Replay("r1", probed, sopts);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_TRUE(replay->deferred.ok);
    EXPECT_EQ(replay->merged_logs.Serialize(), golden_logs)
        << "engine " << static_cast<int>(engine);
    EXPECT_EQ(replay->workers_used, 2) << static_cast<int>(engine);
  }

  const ConnectionStats stats = (*conn)->stats();
  EXPECT_EQ(stats.sessions_opened, 1);
  EXPECT_EQ(stats.records_completed, 1);
  EXPECT_EQ(stats.replays_completed, 3);
}

TEST(ServiceTest, TenantsAreInvisibleToEachOtherThroughEveryTier) {
  // Bloom filters ON: Exists takes the bloom fast path; demotion below
  // forces the bucket fall-through path too.
  const WorkloadProfile long_profile = ServiceProfile(/*epochs=*/12);
  WorkloadProfile short_profile = ServiceProfile(/*epochs=*/6);

  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  ConnectionOptions copts = TieredConnectionOptions(long_profile);
  copts.tier.bloom_filter = true;
  copts.gc.keep_last_k = 1;  // background demotion after each record
  auto conn = Connection::Open(&env, copts);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  auto alice = (*conn)->OpenSession("alice");
  auto bob = (*conn)->OpenSession("bob");
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());

  auto alice_rec =
      (*alice)->Record("exp", MakeWorkloadFactory(long_profile, kProbeNone),
                       SessionRecordFrom(workloads::DefaultRecordOptions(
                           long_profile, "")));
  ASSERT_TRUE(alice_rec.ok()) << alice_rec.status().ToString();
  auto bob_rec =
      (*bob)->Record("exp", MakeWorkloadFactory(short_profile, kProbeNone),
                     SessionRecordFrom(workloads::DefaultRecordOptions(
                         short_profile, "")));
  ASSERT_TRUE(bob_rec.ok()) << bob_rec.status().ToString();
  (*conn)->DrainBackground();  // demotion done: locals pruned to K=1

  // Query surface: each tenant lists exactly its own run, under its own
  // prefix.
  auto alice_runs = (*alice)->Query();
  auto bob_runs = (*bob)->Query();
  ASSERT_TRUE(alice_runs.ok());
  ASSERT_TRUE(bob_runs.ok());
  ASSERT_EQ(alice_runs->size(), 1u);
  ASSERT_EQ(bob_runs->size(), 1u);
  EXPECT_EQ((*alice_runs)[0].prefix, "svc/alice/exp");
  EXPECT_EQ((*bob_runs)[0].prefix, "svc/bob/exp");

  // Alice recorded more epochs than bob: her newest checkpoint key does
  // not exist in bob's run of the same name. After demotion the alice
  // probe is served through the bucket fall-through; the bob probe is a
  // bloom-fast-path definite miss (or a counted false positive that still
  // probes and misses) — never a hit on alice's object.
  ASSERT_FALSE(alice_rec->manifest.records.empty());
  const CheckpointKey alice_key = alice_rec->manifest.records.back().key;
  auto alice_sees = (*alice)->Exists("exp", alice_key);
  ASSERT_TRUE(alice_sees.ok()) << alice_sees.status().ToString();
  EXPECT_TRUE(*alice_sees);
  auto bob_sees = (*bob)->Exists("exp", alice_key);
  ASSERT_TRUE(bob_sees.ok()) << bob_sees.status().ToString();
  EXPECT_FALSE(*bob_sees);

  // A run bob never recorded is NotFound for him even though alice has it
  // — and he cannot reach hers by name escape.
  EXPECT_FALSE((*bob)->MetricSeries("other", "loss").ok());
  auto escape = (*bob)->Exists("../alice", alice_key);
  EXPECT_FALSE(escape.ok());
  EXPECT_TRUE(escape.status().code() == StatusCode::kInvalidArgument)
      << escape.status().ToString();
}

/// Records runs "a" and "b" for tenants t1 and t10 on a connection over
/// `fs` with the hindsight benchmark's service shape (bucket mirror, bloom
/// filters, keep-last-1 demotion), drains background work, and stores each
/// tenant's query listing in `runs`.
void RecordAndQueryTwoTenants(
    FileSystem* fs, std::map<std::string, std::vector<RunInfo>>* runs) {
  const WorkloadProfile profile = ServiceProfile(/*epochs=*/4);
  Env env = testutil::MakeSimEnv(fs);
  ConnectionOptions copts = TieredConnectionOptions(profile);
  copts.tier.bloom_filter = true;
  copts.gc.keep_last_k = 1;
  auto conn = Connection::Open(&env, copts);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  const SessionRecordOptions sropts =
      SessionRecordFrom(workloads::DefaultRecordOptions(profile, ""));
  std::map<std::string, std::unique_ptr<Session>> sessions;
  for (const char* tenant : {"t1", "t10"}) {
    auto session = (*conn)->OpenSession(tenant);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (const char* run : {"a", "b"}) {
      auto rec = (*session)->Record(
          run, MakeWorkloadFactory(profile, kProbeNone), sropts);
      ASSERT_TRUE(rec.ok()) << tenant << "/" << run << ": "
                            << rec.status().ToString();
    }
    sessions[tenant] = std::move(*session);
  }
  (*conn)->DrainBackground();
  for (const auto& [tenant, session] : sessions) {
    auto listed = session->Query();
    ASSERT_TRUE(listed.ok()) << listed.status().ToString();
    (*runs)[tenant] = std::move(*listed);
  }
}

using ServicePosixTest = testutil::ScratchDirTest;

TEST_F(ServicePosixTest, TenantQueryOnPosixStoreMatchesMemFileSystem) {
  // The benchmark's query path on a real store, where a listing walks
  // directories: t10's name extends t1's and the bucket mirror holds
  // copies of both, yet each tenant's query lists exactly its own runs.
  std::map<std::string, std::vector<RunInfo>> mem_runs, posix_runs;
  MemFileSystem mem;
  ASSERT_NO_FATAL_FAILURE(RecordAndQueryTwoTenants(&mem, &mem_runs));
  PosixFileSystem posix(root());
  ASSERT_NO_FATAL_FAILURE(RecordAndQueryTwoTenants(&posix, &posix_runs));
  ASSERT_FALSE(posix.ListPrefix("s3/svc/t10/").empty());

  for (const char* tenant : {"t1", "t10"}) {
    SCOPED_TRACE(tenant);
    const std::vector<RunInfo>& want = mem_runs[tenant];
    const std::vector<RunInfo>& got = posix_runs[tenant];
    ASSERT_EQ(want.size(), 2u);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].prefix,
                StrCat("svc/", tenant, "/", i == 0 ? "a" : "b"));
      EXPECT_EQ(got[i].prefix, want[i].prefix);
      EXPECT_EQ(got[i].workload, want[i].workload);
      EXPECT_EQ(got[i].checkpoints, want[i].checkpoints);
      EXPECT_GT(got[i].checkpoints, 0);
    }
  }
}

TEST_F(ServicePosixTest, OverlongExistsProbeIsAbsentAndTheNextProbeWorks) {
  // A wire `exists` request puts the client's ctx into the checkpoint's
  // file name. Without bloom filters the probe reaches the POSIX store,
  // where a name longer than a directory entry must read as absent rather
  // than throw out of the session (and the server thread serving it).
  const WorkloadProfile profile = ServiceProfile(/*epochs=*/4);
  PosixFileSystem fs(root());
  Env env = testutil::MakeSimEnv(&fs);
  ConnectionOptions copts;
  copts.root = "svc";
  // One shard keeps every object in the run's ckpt/ directory, so the
  // probe's directory exists and its name reaches the length check.
  copts.ckpt_shards = 1;
  ASSERT_FALSE(copts.tier.bloom_filter);
  auto conn = Connection::Open(&env, copts);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  auto session = (*conn)->OpenSession("t0");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto rec = (*session)->Record(
      "r", MakeWorkloadFactory(profile, kProbeNone),
      SessionRecordFrom(workloads::DefaultRecordOptions(profile, "")));
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_FALSE(rec->manifest.records.empty());

  const CheckpointKey real = rec->manifest.records.back().key;
  const CheckpointKey overlong{real.loop_id, std::string(300, 'e')};
  Result<bool> absent = false;
  EXPECT_NO_THROW(absent = (*session)->Exists("r", overlong));
  ASSERT_TRUE(absent.ok()) << absent.status().ToString();
  EXPECT_FALSE(*absent);
  auto present = (*session)->Exists("r", real);
  ASSERT_TRUE(present.ok()) << present.status().ToString();
  EXPECT_TRUE(*present);
}

TEST(ServiceTest, AdmissionControlBoundsConcurrentRecorders) {
  // Wall-clock connection: two recorder threads, one admission slot. The
  // second thread starts only once the first is observably inside its
  // record, so it must wait on the gate.
  WorkloadProfile profile = ServiceProfile(/*epochs=*/4);
  profile.wall_batch_seconds = 0.01;

  MemFileSystem fs;
  Env env(std::make_unique<WallClock>(), &fs);
  ConnectionOptions copts = TieredConnectionOptions(profile);
  copts.max_concurrent_records = 1;
  auto conn = Connection::Open(&env, copts);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  const SessionRecordOptions sropts =
      SessionRecordFrom(workloads::DefaultRecordOptions(profile, ""));
  auto record_one = [&](const std::string& tenant) {
    auto session = (*conn)->OpenSession(tenant);
    ASSERT_TRUE(session.ok());
    auto rec = (*session)->Record("r", MakeWorkloadFactory(profile, kProbeNone),
                                  sropts);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  };

  std::thread first([&] { record_one("t0"); });
  while ((*conn)->stats().active_records < 1) std::this_thread::yield();
  std::thread second([&] { record_one("t1"); });
  first.join();
  second.join();
  (*conn)->DrainBackground();

  const ConnectionStats stats = (*conn)->stats();
  EXPECT_EQ(stats.records_completed, 2);
  EXPECT_EQ(stats.max_observed_records, 1);
  EXPECT_GE(stats.admission_waits, 1);
  EXPECT_EQ(stats.active_records, 0);
}

TEST(ServiceTest, ConcurrentSessionsRaceBackgroundGc) {
  // Three tenant threads record, query, and replay through one connection
  // while its background worker demotes each finished run to the bucket
  // tier (keep-last-1). Demotion keeps manifests intact, so every replay
  // — racing GC or after it — must produce the same merged logs.
  const WorkloadProfile profile = ServiceProfile();

  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  ConnectionOptions copts = TieredConnectionOptions(profile);
  copts.tier.bloom_filter = true;
  copts.gc.keep_last_k = 1;
  auto conn = Connection::Open(&env, copts);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  const SessionRecordOptions sropts =
      SessionRecordFrom(workloads::DefaultRecordOptions(profile, ""));
  const ProgramFactory record_factory =
      MakeWorkloadFactory(profile, kProbeNone);
  const ProgramFactory probed = MakeWorkloadFactory(profile, kProbeInner);

  constexpr int kTenants = 3;
  std::vector<std::string> merged(kTenants);
  std::vector<std::thread> threads;
  threads.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      auto session = (*conn)->OpenSession(StrCat("tenant", t));
      ASSERT_TRUE(session.ok());
      auto rec = (*session)->Record("run", record_factory, sropts);
      ASSERT_TRUE(rec.ok()) << rec.status().ToString();
      // Race the query surface and a threaded replay against the
      // background demotion of this run (and the other tenants' work).
      for (int i = 0; i < 3; ++i) {
        auto runs = (*session)->Query();
        ASSERT_TRUE(runs.ok());
        EXPECT_EQ(runs->size(), 1u);
        auto exists =
            (*session)->Exists("run", rec->manifest.records.front().key);
        ASSERT_TRUE(exists.ok()) << exists.status().ToString();
        EXPECT_TRUE(*exists);  // demoted at worst — bucket keeps it live
      }
      SessionReplayOptions sopts;
      sopts.engine = ReplayEngine::kThreads;
      sopts.workers = 2;
      auto replay = (*session)->Replay("run", probed, sopts);
      ASSERT_TRUE(replay.ok()) << replay.status().ToString();
      EXPECT_TRUE(replay->deferred.ok);
      merged[static_cast<size_t>(t)] = replay->merged_logs.Serialize();
    });
  }
  for (auto& th : threads) th.join();
  (*conn)->DrainBackground();

  // Identical workloads => identical merged logs per tenant, racing GC or
  // not; and a quiescent post-GC replay agrees too.
  for (int t = 1; t < kTenants; ++t) EXPECT_EQ(merged[0], merged[t]);
  auto session = (*conn)->OpenSession("tenant0");
  ASSERT_TRUE(session.ok());
  SessionReplayOptions sopts;
  sopts.engine = ReplayEngine::kSimulated;
  sopts.workers = 2;
  auto after_gc = (*session)->Replay("run", probed, sopts);
  ASSERT_TRUE(after_gc.ok()) << after_gc.status().ToString();
  EXPECT_EQ(after_gc->merged_logs.Serialize(), merged[0]);

  const ConnectionStats stats = (*conn)->stats();
  EXPECT_EQ(stats.records_completed, kTenants);
  EXPECT_EQ(stats.gc_passes, kTenants);
  EXPECT_EQ(stats.gc_failures, 0) << stats.last_gc_error;
}

TEST(ServiceTest, SharedSpoolReportsPerSessionDeltas) {
  const WorkloadProfile profile = ServiceProfile(/*epochs=*/6);
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  auto conn = Connection::Open(&env, TieredConnectionOptions(profile));
  ASSERT_TRUE(conn.ok());
  auto session = (*conn)->OpenSession("alice");
  ASSERT_TRUE(session.ok());

  const SessionRecordOptions sropts =
      SessionRecordFrom(workloads::DefaultRecordOptions(profile, ""));
  const ProgramFactory factory = MakeWorkloadFactory(profile, kProbeNone);
  auto rec1 = (*session)->Record("r1", factory, sropts);
  ASSERT_TRUE(rec1.ok()) << rec1.status().ToString();
  auto rec2 = (*session)->Record("r2", factory, sropts);
  ASSERT_TRUE(rec2.ok()) << rec2.status().ToString();

  // Each session's report covers its own run; the tenant's spool total is
  // the sum.
  EXPECT_EQ(rec1->spool_report.objects,
            static_cast<int64_t>(rec1->manifest.records.size()));
  EXPECT_EQ(rec2->spool_report.objects,
            static_cast<int64_t>(rec2->manifest.records.size()));
  EXPECT_EQ((*conn)->stats().tenants.at("alice").spool_objects,
            rec1->spool_report.objects + rec2->spool_report.objects);
}

TEST(ServiceTest, ConcurrentWallClockRecordsReportOnlyTheirOwnSpool) {
  // Two tenants record at once on a wall clock, with different epoch
  // counts: each run's copies happen on its own materializer's worker, and
  // each report counts exactly its own run's checkpoints and bytes.
  MemFileSystem fs;
  Env env(std::make_unique<WallClock>(), &fs);
  auto conn = Connection::Open(&env, TieredConnectionOptions(ServiceProfile()));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  const int64_t kEpochs[] = {4, 7};
  Result<SessionRecordResult> recs[2] = {Status::Internal("not run"),
                                         Status::Internal("not run")};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      const WorkloadProfile profile = ServiceProfile(kEpochs[t]);
      SessionRecordOptions sropts =
          SessionRecordFrom(workloads::DefaultRecordOptions(profile, ""));
      sropts.adaptive.enabled = false;  // every epoch materializes
      auto session = (*conn)->OpenSession(StrCat("tenant", t));
      ASSERT_TRUE(session.ok());
      recs[t] = (*session)->Record("r1",
                                   MakeWorkloadFactory(profile, kProbeNone),
                                   sropts);
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < 2; ++t) {
    ASSERT_TRUE(recs[t].ok()) << recs[t].status().ToString();
    const SessionRecordResult& rec = *recs[t];
    ASSERT_EQ(static_cast<int64_t>(rec.manifest.records.size()), kEpochs[t]);
    const std::string ckpt = StrCat("svc/tenant", t, "/r1/ckpt/");
    EXPECT_TRUE(rec.spool_report.ok()) << rec.spool_report.first_error;
    EXPECT_EQ(rec.spool_report.objects, kEpochs[t]);
    EXPECT_EQ(rec.spool_report.bytes, fs.TotalBytesUnder(ckpt));
    EXPECT_EQ(fs.TotalBytesUnder("s3/" + ckpt), fs.TotalBytesUnder(ckpt));
    EXPECT_EQ((*conn)->stats().tenants.at(StrCat("tenant", t)).spool_objects,
              kEpochs[t]);
  }
}

TEST(ServiceTest, NamespaceValidationRejectsEscapes) {
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  auto conn = Connection::Open(&env, ConnectionOptions());
  ASSERT_TRUE(conn.ok());

  for (const char* bad : {"", ".", "..", "a/b", "a\\b", "a b", "/abs"}) {
    auto s = (*conn)->OpenSession(bad);
    EXPECT_FALSE(s.ok()) << "tenant '" << bad << "'";
    EXPECT_TRUE(s.status().code() == StatusCode::kInvalidArgument) << s.status().ToString();
  }
  auto session = (*conn)->OpenSession("ok-1.2_b");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (const char* bad : {"", "..", "x/y", "../peer"}) {
    auto p = (*session)->RunPrefix(bad);
    EXPECT_FALSE(p.ok()) << "run '" << bad << "'";
  }
  auto p = (*session)->RunPrefix("run-1");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, "flor/ok-1.2_b/run-1");
}

TEST(ServiceTest, ConnectionValidatesOptions) {
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);

  ConnectionOptions bad_shards;
  bad_shards.ckpt_shards = 0;
  EXPECT_FALSE(Connection::Open(&env, bad_shards).ok());

  ConnectionOptions bad_root;
  bad_root.root = "";
  EXPECT_FALSE(Connection::Open(&env, bad_root).ok());

  ConnectionOptions colliding;
  colliding.root = "svc";
  colliding.tier.bucket_prefix = "svc";
  EXPECT_FALSE(Connection::Open(&env, colliding).ok());

  ConnectionOptions negative_admission;
  negative_admission.max_concurrent_records = -1;
  EXPECT_FALSE(Connection::Open(&env, negative_admission).ok());
}

TEST(ServiceTest, MaintenanceRequiresQuiescence) {
  const WorkloadProfile profile = ServiceProfile(/*epochs=*/6);
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  auto conn = Connection::Open(&env, TieredConnectionOptions(profile));
  ASSERT_TRUE(conn.ok());
  auto session = (*conn)->OpenSession("alice");
  ASSERT_TRUE(session.ok());
  auto rec = (*session)->Record(
      "r1", MakeWorkloadFactory(profile, kProbeNone),
      SessionRecordFrom(workloads::DefaultRecordOptions(profile, "")));
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  (*conn)->DrainBackground();

  GcPolicy policy;
  policy.keep_last_k = 1;
  auto bucket_gc = (*conn)->RetireBucket("alice", "r1", policy);
  ASSERT_TRUE(bucket_gc.ok()) << bucket_gc.status().ToString();
  auto sweep = (*conn)->Reconcile("alice", "r1");
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
}

// --- Wire-format guard: the options dedup (TierOptions bases) must not
// --- move a byte of the process-worker result encoding. Golden captured
// --- from the pre-refactor encoder; a change here is a wire break for
// --- mixed-version parent/child fleets.
TEST(ServiceTest, WorkerResultWireFormatIsPinned) {
  ReplayResult r;
  r.runtime_seconds = 1.5;
  r.restore_seconds = 0.25;
  r.observed_c = 0.625;
  r.effective_init = InitMode::kWeak;
  r.partition_segments = 8;
  r.active_workers = 4;
  r.work_begin = 2;
  r.work_end = 4;
  r.skipblocks.executed = 3;
  r.skipblocks.skipped = 5;
  r.skipblocks.restores = 2;
  r.skipblocks.materialized = 1;
  r.bucket_faults = 7;
  r.bloom_skipped_probes = 9;
  r.probes.preamble_probed = true;
  r.probes.probed_loops = {2, 5};
  r.probes.probe_stmt_uids = {11, 13};
  exec::LogEntry e1;
  e1.stmt_uid = 11;
  e1.context = "e=2/i=0";
  e1.init_mode = false;
  e1.label = "loss";
  e1.text = "0.125";
  r.logs.Append(e1);
  exec::LogEntry e2;
  e2.stmt_uid = 13;
  e2.context = "e=3";
  e2.init_mode = true;
  e2.label = "grad_norm";
  e2.text = "2.5";
  r.logs.Append(e2);
  r.probe_entries = {e1};

  const char* kGoldenHex =
      "8b7fd9a50a666c6f7272657331093539ca4d31870272756e74696d655f7365636f6e"
      "6473093078312e38702b300a726573746f72655f7365636f6e647309307831702d32"
      "0a6f627365727665645f63093078312e34702d310a6566666563746976655f696e69"
      "7409310a706172746974696f6e5f7365676d656e747309380a6163746976655f776f"
      "726b65727309340a776f726b5f626567696e09320a776f726b5f656e6409340a7362"
      "5f657865637574656409330a73625f736b697070656409350a73625f726573746f72"
      "657309320a73625f6d6174657269616c697a656409310a6275636b65745f6661756c"
      "747309370a626c6f6f6d5f736b69707065645f70726f62657309390a707265616d62"
      "6c655f70726f62656409310ac6369e332f313109653d322f693d300930096c6f7373"
      "09302e3132350a313309653d33093109677261645f6e6f726d09322e350a57744858"
      "18313109653d322f693d300930096c6f737309302e3132350aad4cb6330631310a31"
      "330a2862fbc804320a350a";
  std::string golden;
  for (const char* p = kGoldenHex; p[0] != '\0' && p[1] != '\0'; p += 2) {
    auto nibble = [](char c) {
      return c <= '9' ? c - '0' : c - 'a' + 10;
    };
    golden.push_back(
        static_cast<char>((nibble(p[0]) << 4) | nibble(p[1])));
  }

  EXPECT_EQ(EncodeWorkerResult(r), golden);

  auto decoded = DecodeWorkerResult(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->runtime_seconds, 1.5);
  EXPECT_EQ(decoded->bucket_faults, 7);
  EXPECT_EQ(decoded->bloom_skipped_probes, 9);
  EXPECT_EQ(decoded->logs.Serialize(), r.logs.Serialize());
}

// --- Fairness, per-tenant accounting, the GC failure ring, and graceful
// --- drain (the admission-gate starvation fix).

TEST(ServiceTest, NamespaceSegmentLengthIsCapped) {
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  auto conn = Connection::Open(&env, ConnectionOptions());
  ASSERT_TRUE(conn.ok());

  const std::string at_limit(kMaxNamespaceSegmentBytes, 'a');
  auto ok_session = (*conn)->OpenSession(at_limit);
  EXPECT_TRUE(ok_session.ok()) << ok_session.status().ToString();

  const std::string over(kMaxNamespaceSegmentBytes + 1, 'a');
  auto rejected = (*conn)->OpenSession(over);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().code() == StatusCode::kInvalidArgument)
      << rejected.status().ToString();
  // The message names the offending size and the limit — an operator
  // should not have to count the bytes themselves.
  EXPECT_NE(rejected.status().ToString().find(
                StrCat(kMaxNamespaceSegmentBytes + 1, " bytes")),
            std::string::npos)
      << rejected.status().ToString();
  EXPECT_NE(rejected.status().ToString().find(
                StrCat("limit is ", kMaxNamespaceSegmentBytes)),
            std::string::npos)
      << rejected.status().ToString();

  // Run names go through the same validation.
  auto session = (*conn)->OpenSession("alice");
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE((*session)->RunPrefix(over).ok());
  EXPECT_TRUE((*session)->RunPrefix(at_limit).ok());
}

TEST(ServiceTest, StarvedWaitBucketEdges) {
  EXPECT_EQ(StarvedWaitBucket(0), 0);
  EXPECT_EQ(StarvedWaitBucket(0.0009), 0);
  EXPECT_EQ(StarvedWaitBucket(0.005), 1);
  EXPECT_EQ(StarvedWaitBucket(0.05), 2);
  EXPECT_EQ(StarvedWaitBucket(0.5), 3);
  EXPECT_EQ(StarvedWaitBucket(5.0), 4);
  EXPECT_EQ(StarvedWaitBucket(10.0), 5);
  EXPECT_EQ(StarvedWaitBucket(1e9), kStarvedWaitBucketCount - 1);
}

TEST(ServiceTest, FairAdmissionBoundsBurstTenantToQuota) {
  // The starvation regression: a burst tenant fires three concurrent
  // records at a two-slot gate with a one-per-tenant quota. Under fair
  // admission the burst tenant can never hold more than its quota, so a
  // steady tenant arriving behind the burst still gets the other slot —
  // the fifo gate would have let the burst queue-jump it indefinitely.
  WorkloadProfile profile = ServiceProfile(/*epochs=*/4);
  profile.wall_batch_seconds = 0.01;

  MemFileSystem fs;
  Env env(std::make_unique<WallClock>(), &fs);
  ConnectionOptions copts = TieredConnectionOptions(profile);
  copts.max_concurrent_records = 2;
  copts.max_records_per_tenant = 1;
  auto conn = Connection::Open(&env, copts);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  const SessionRecordOptions sropts =
      SessionRecordFrom(workloads::DefaultRecordOptions(profile, ""));
  const ProgramFactory factory = MakeWorkloadFactory(profile, kProbeNone);
  auto record_one = [&](const std::string& tenant, const std::string& run) {
    auto session = (*conn)->OpenSession(tenant);
    ASSERT_TRUE(session.ok());
    auto rec = (*session)->Record(run, factory, sropts);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  };

  std::thread burst1([&] { record_one("burst", "r1"); });
  while ((*conn)->stats().active_records < 1) std::this_thread::yield();
  std::thread burst2([&] { record_one("burst", "r2"); });
  std::thread burst3([&] { record_one("burst", "r3"); });
  std::thread steady([&] { record_one("steady", "r1"); });
  burst1.join();
  burst2.join();
  burst3.join();
  steady.join();
  (*conn)->DrainBackground();

  const ConnectionStats stats = (*conn)->stats();
  EXPECT_EQ(stats.records_completed, 4);
  EXPECT_LE(stats.max_observed_records, 2);
  EXPECT_EQ(stats.active_records, 0);

  const TenantStats& burst = stats.tenants.at("burst");
  const TenantStats& steady_stats = stats.tenants.at("steady");
  // The quota held: the burst tenant never ran two records at once, no
  // matter how many it had queued.
  EXPECT_EQ(burst.max_observed_records, 1);
  EXPECT_EQ(burst.records_completed, 3);
  EXPECT_GE(burst.admission_waits, 2);  // r2 and r3 had to queue
  EXPECT_EQ(steady_stats.records_completed, 1);
  EXPECT_LE(steady_stats.max_observed_records, 1);

  // Every blocked call landed exactly one histogram count, and the wait
  // totals are consistent with the worst single wait.
  for (const auto& entry : stats.tenants) {
    const TenantStats& t = entry.second;
    int64_t hist_total = 0;
    for (int64_t c : t.starved_wait_hist) hist_total += c;
    EXPECT_EQ(hist_total, t.admission_waits) << entry.first;
    EXPECT_GE(t.admission_wait_seconds, t.max_admission_wait_seconds)
        << entry.first;
  }
}

TEST(ServiceTest, GcFailureRingAttributesTenants) {
  // Two tenants' background retirements both fail (a flaky object store
  // refusing deletes). Both failures must stay observable — the old
  // last_gc_error-only surface let the second overwrite the first.
  const WorkloadProfile profile = ServiceProfile(/*epochs=*/6);
  MemFileSystem base;
  FaultInjectionFileSystem fs(&base);
  Env env = testutil::MakeSimEnv(&fs);
  ConnectionOptions copts = TieredConnectionOptions(profile);
  copts.gc.keep_last_k = 1;
  auto conn = Connection::Open(&env, copts);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  const SessionRecordOptions sropts =
      SessionRecordFrom(workloads::DefaultRecordOptions(profile, ""));
  const ProgramFactory factory = MakeWorkloadFactory(profile, kProbeNone);

  // The record path only writes; deletes happen exclusively in the GC
  // worker, so arming the injector now deterministically fails every
  // retirement delete without touching the runs themselves.
  fs.InjectDeleteFailures(1 << 20, "");
  for (const char* tenant : {"alice", "bob"}) {
    auto session = (*conn)->OpenSession(tenant);
    ASSERT_TRUE(session.ok());
    auto rec = (*session)->Record("run", factory, sropts);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  }
  (*conn)->DrainBackground();

  const ConnectionStats stats = (*conn)->stats();
  EXPECT_EQ(stats.gc_passes, 0);
  EXPECT_EQ(stats.gc_failures, 2);
  EXPECT_EQ(stats.tenants.at("alice").gc_failures, 1);
  EXPECT_EQ(stats.tenants.at("bob").gc_failures, 1);
  EXPECT_FALSE(stats.last_gc_error.empty());

  // Both tenants' failures ride the ring, each attributed and carrying
  // the orphan diagnosis.
  ASSERT_EQ(stats.recent_gc_errors.size(), 2u);
  std::vector<std::string> tenants;
  for (const GcFailure& f : stats.recent_gc_errors) {
    tenants.push_back(f.tenant);
    EXPECT_EQ(f.run, "run");
    EXPECT_NE(f.error.find("delete(s) failed"), std::string::npos)
        << f.error;
  }
  std::sort(tenants.begin(), tenants.end());
  EXPECT_EQ(tenants, (std::vector<std::string>{"alice", "bob"}));
}

TEST(ServiceTest, PerTenantStatsAttributeTraffic) {
  // One tenant's spool, read-tier, GC, and query traffic lands on its
  // TenantStats slice — and only there.
  const WorkloadProfile profile = ServiceProfile();
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  ConnectionOptions copts = TieredConnectionOptions(profile);
  copts.tier.bloom_filter = true;
  copts.gc.keep_last_k = 1;  // demote after record: replay faults buckets
  auto conn = Connection::Open(&env, copts);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  auto alice = (*conn)->OpenSession("alice");
  auto bob = (*conn)->OpenSession("bob");
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());

  const SessionRecordOptions sropts =
      SessionRecordFrom(workloads::DefaultRecordOptions(profile, ""));
  auto rec =
      (*alice)->Record("r1", MakeWorkloadFactory(profile, kProbeNone), sropts);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->admission_wait_seconds, 0);  // gate unlimited: no wait
  (*conn)->DrainBackground();  // demotion done

  {
    const ConnectionStats stats = (*conn)->stats();
    const TenantStats& a = stats.tenants.at("alice");
    EXPECT_EQ(a.records_completed, 1);
    EXPECT_EQ(a.spool_objects, rec->spool_report.objects);
    EXPECT_EQ(a.spool_bytes, static_cast<int64_t>(rec->spool_report.bytes));
    EXPECT_GT(a.spool_bytes, 0);
    EXPECT_EQ(a.gc_passes, 1);
    EXPECT_EQ(a.gc_failures, 0);
  }

  SessionReplayOptions sopts;
  sopts.engine = ReplayEngine::kThreads;
  sopts.workers = 2;
  auto replay =
      (*alice)->Replay("r1", MakeWorkloadFactory(profile, kProbeInner), sopts);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_GT(replay->bucket_faults, 0);  // demoted epochs fault back in
  {
    const ConnectionStats stats = (*conn)->stats();
    const TenantStats& a = stats.tenants.at("alice");
    EXPECT_EQ(a.replays_completed, 1);
    EXPECT_EQ(a.bucket_faults, replay->bucket_faults);
    EXPECT_EQ(a.bloom_skipped_probes, replay->bloom_skipped_probes);
  }

  // The query surface counts per tenant: two Query calls and an Exists
  // probe for alice, none of it visible on bob.
  ASSERT_TRUE((*alice)->Query().ok());
  ASSERT_TRUE((*alice)->Query().ok());
  ASSERT_FALSE(rec->manifest.records.empty());
  auto exists = (*alice)->Exists("r1", rec->manifest.records.front().key);
  ASSERT_TRUE(exists.ok()) << exists.status().ToString();
  EXPECT_TRUE(*exists);

  const ConnectionStats stats = (*conn)->stats();
  EXPECT_EQ(stats.tenants.at("alice").queries_served, 3);
  const TenantStats& b = stats.tenants.at("bob");
  EXPECT_EQ(b.sessions_opened, 1);
  EXPECT_EQ(b.records_completed, 0);
  EXPECT_EQ(b.queries_served, 0);
  EXPECT_EQ(b.spool_bytes, 0);
  EXPECT_EQ(b.bucket_faults, 0);
}

TEST(ServiceTest, CloseRefusesNewWorkAndUnblocksWaiters) {
  // Graceful drain: Close stops admitting, a Record blocked on the
  // admission gate fails with Unavailable instead of hanging, in-flight
  // work finishes, and Close is idempotent.
  WorkloadProfile profile = ServiceProfile(/*epochs=*/6);
  profile.wall_batch_seconds = 0.02;

  MemFileSystem fs;
  Env env(std::make_unique<WallClock>(), &fs);
  ConnectionOptions copts = TieredConnectionOptions(profile);
  copts.max_concurrent_records = 1;
  auto conn = Connection::Open(&env, copts);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  const SessionRecordOptions sropts =
      SessionRecordFrom(workloads::DefaultRecordOptions(profile, ""));
  const ProgramFactory factory = MakeWorkloadFactory(profile, kProbeNone);

  auto holder = (*conn)->OpenSession("holder");
  auto waiter = (*conn)->OpenSession("waiter");
  ASSERT_TRUE(holder.ok());
  ASSERT_TRUE(waiter.ok());

  Status holder_status, waiter_status;
  std::thread holder_thread([&] {
    holder_status = (*holder)->Record("r", factory, sropts).status();
  });
  while ((*conn)->stats().active_records < 1) std::this_thread::yield();
  std::thread waiter_thread([&] {
    waiter_status = (*waiter)->Record("r", factory, sropts).status();
  });
  // Give the waiter a moment to reach the gate (either way it must come
  // back Unavailable: refused at BeginOp or woken out of the wait ring).
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  ASSERT_TRUE((*conn)->Close().ok());
  EXPECT_TRUE((*conn)->closed());
  holder_thread.join();
  waiter_thread.join();

  // The in-flight record was allowed to finish; the queued one was not.
  EXPECT_TRUE(holder_status.ok()) << holder_status.ToString();
  EXPECT_TRUE(waiter_status.code() == StatusCode::kUnavailable)
      << waiter_status.ToString();

  // Closed means closed: sessions (new or existing) are refused.
  auto late = (*conn)->OpenSession("late");
  EXPECT_TRUE(late.status().code() == StatusCode::kUnavailable)
      << late.status().ToString();
  auto query = (*holder)->Query();
  EXPECT_TRUE(query.status().code() == StatusCode::kUnavailable)
      << query.status().ToString();
  EXPECT_TRUE((*conn)->Close().ok());  // idempotent

  const ConnectionStats stats = (*conn)->stats();
  EXPECT_EQ(stats.records_completed, 1);
  EXPECT_EQ(stats.active_records, 0);
}

/// Each connection total equals the sum of its per-tenant slices.
void ExpectTotalsAreTenantSums(const ConnectionStats& s) {
  TenantStats sum;
  for (const auto& entry : s.tenants) {
    const TenantStats& t = entry.second;
    sum.sessions_opened += t.sessions_opened;
    sum.records_completed += t.records_completed;
    sum.replays_completed += t.replays_completed;
    sum.queries_served += t.queries_served;
    sum.admission_waits += t.admission_waits;
    sum.active_records += t.active_records;
    sum.gc_passes += t.gc_passes;
    sum.gc_failures += t.gc_failures;
  }
  EXPECT_EQ(s.sessions_opened, sum.sessions_opened);
  EXPECT_EQ(s.records_completed, sum.records_completed);
  EXPECT_EQ(s.replays_completed, sum.replays_completed);
  EXPECT_EQ(s.queries_served, sum.queries_served);
  EXPECT_EQ(s.admission_waits, sum.admission_waits);
  EXPECT_EQ(s.active_records, sum.active_records);
  EXPECT_EQ(s.gc_passes, sum.gc_passes);
  EXPECT_EQ(s.gc_failures, sum.gc_failures);
}

TEST(ServiceTest, EachTotalIsItsTenantSum) {
  // Three tenants record, replay, query and probe concurrently through a
  // one-slot gate while the background worker demotes their runs; a
  // poller samples the stats throughout.
  const WorkloadProfile profile = ServiceProfile(/*epochs=*/6);
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  ConnectionOptions copts = TieredConnectionOptions(profile);
  copts.tier.bloom_filter = true;
  copts.gc.keep_last_k = 1;
  copts.max_concurrent_records = 1;
  auto conn = Connection::Open(&env, copts);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  const SessionRecordOptions sropts =
      SessionRecordFrom(workloads::DefaultRecordOptions(profile, ""));
  const ProgramFactory factory = MakeWorkloadFactory(profile, kProbeNone);
  const ProgramFactory probed = MakeWorkloadFactory(profile, kProbeInner);

  constexpr int kTenants = 3;
  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load()) ExpectTotalsAreTenantSums((*conn)->stats());
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      auto session = (*conn)->OpenSession(StrCat("tenant", t));
      ASSERT_TRUE(session.ok());
      for (const char* run : {"r1", "r2"}) {
        auto rec = (*session)->Record(run, factory, sropts);
        ASSERT_TRUE(rec.ok()) << rec.status().ToString();
        ASSERT_TRUE((*session)->Query().ok());
        auto exists =
            (*session)->Exists(run, rec->manifest.records.front().key);
        ASSERT_TRUE(exists.ok()) << exists.status().ToString();
      }
      SessionReplayOptions sopts;
      sopts.engine = ReplayEngine::kThreads;
      sopts.workers = 2;
      auto replay = (*session)->Replay("r1", probed, sopts);
      ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    });
  }
  for (auto& th : threads) th.join();
  (*conn)->DrainBackground();
  done.store(true);
  poller.join();

  const ConnectionStats stats = (*conn)->stats();
  ExpectTotalsAreTenantSums(stats);
  EXPECT_EQ(stats.sessions_opened, kTenants);
  EXPECT_EQ(stats.records_completed, 2 * kTenants);
  EXPECT_EQ(stats.replays_completed, kTenants);
  EXPECT_EQ(stats.queries_served, 4 * kTenants);
  EXPECT_EQ(stats.active_records, 0);
  EXPECT_EQ(stats.gc_passes, 2 * kTenants);
  EXPECT_EQ(stats.gc_failures, 0) << stats.last_gc_error;
  EXPECT_EQ(stats.max_observed_records, 1);
}

TEST(ServiceTest, WorkloadNameWithTabOrNewlineIsRejectedBeforeAnyWrite) {
  // The manifest is a tab-separated line format: a workload name holding a
  // tab or a newline would persist a manifest that no reader parses, and
  // every later Query of the tenant would fail on it.
  const WorkloadProfile profile = ServiceProfile(/*epochs=*/6);
  MemFileSystem fs;
  Env env = testutil::MakeSimEnv(&fs);
  auto conn = Connection::Open(&env, TieredConnectionOptions(profile));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  auto session = (*conn)->OpenSession("alice");
  ASSERT_TRUE(session.ok());

  const ProgramFactory factory = MakeWorkloadFactory(profile, kProbeNone);
  SessionRecordOptions sropts =
      SessionRecordFrom(workloads::DefaultRecordOptions(profile, ""));
  auto good = (*session)->Record("good", factory, sropts);
  ASSERT_TRUE(good.ok()) << good.status().ToString();

  for (const char* name : {"bad\tname", "bad\nname"}) {
    sropts.workload = name;
    auto bad = (*session)->Record("bad", factory, sropts);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument)
        << bad.status().ToString();
    (*conn)->DrainBackground();
    EXPECT_TRUE(fs.ListPrefix("svc/alice/bad/").empty());
    EXPECT_TRUE(fs.ListPrefix("s3/svc/alice/bad/").empty());
  }

  auto runs = (*session)->Query();
  ASSERT_TRUE(runs.ok()) << runs.status().ToString();
  ASSERT_EQ(runs->size(), 1u);
  EXPECT_EQ(runs->front().prefix, "svc/alice/good");
  EXPECT_EQ(runs->front().workload, profile.name);
}

// --- What opening a run costs the store: a 4-shard connection with a
// --- bucket tier and bloom filters, counted at the filesystem.

/// Records run "r1" for tenant "alice" on a 4-shard tiered, bloom-filtered
/// connection over `fs`, then drains the background work.
std::unique_ptr<Connection> OpenCountedConnection(Env* env,
                                                  RecordResult* rec) {
  const WorkloadProfile profile = ServiceProfile();
  ConnectionOptions copts = TieredConnectionOptions(profile);
  copts.tier.bloom_filter = true;
  auto conn = Connection::Open(env, copts);
  EXPECT_TRUE(conn.ok()) << conn.status().ToString();
  auto session = (*conn)->OpenSession("alice");
  EXPECT_TRUE(session.ok());
  auto recorded = (*session)->Record(
      "r1", MakeWorkloadFactory(profile, kProbeNone),
      SessionRecordFrom(workloads::DefaultRecordOptions(profile, "")));
  EXPECT_TRUE(recorded.ok()) << recorded.status().ToString();
  *rec = *recorded;
  (*conn)->DrainBackground();
  return std::move(conn).value();
}

TEST(ServiceTest, ExistsReadsOnlyTheManifest) {
  MemFileSystem base;
  testutil::CountingFileSystem fs(&base);
  Env env = testutil::MakeSimEnv(&fs);
  RecordResult rec;
  auto conn = OpenCountedConnection(&env, &rec);
  ASSERT_EQ(rec.manifest.shard_count, 4);
  ASSERT_FALSE(rec.manifest.records.empty());
  auto session = conn->OpenSession("alice");
  ASSERT_TRUE(session.ok());

  fs.Reset();
  auto exists = (*session)->Exists("r1", rec.manifest.records.front().key);
  ASSERT_TRUE(exists.ok()) << exists.status().ToString();
  EXPECT_TRUE(*exists);
  EXPECT_EQ(fs.reads("svc/alice/r1/manifest.tsv"), 1);
  EXPECT_EQ(fs.total_reads(), 1);
  EXPECT_EQ(fs.lists(), 0);
}

TEST(ServiceTest, ThreadReplayReadsEachRunFileAPinnedNumberOfTimes) {
  MemFileSystem base;
  testutil::CountingFileSystem fs(&base);
  Env env = testutil::MakeSimEnv(&fs);
  RecordResult rec;
  auto conn = OpenCountedConnection(&env, &rec);
  auto session = conn->OpenSession("alice");
  ASSERT_TRUE(session.ok());

  // The plan reads the manifest once; each of the three workers reads the
  // source and the manifest; the merger reads the record logs once.
  // Nothing lists the store.
  fs.Reset();
  SessionReplayOptions sopts;
  sopts.engine = ReplayEngine::kThreads;
  sopts.workers = 3;
  auto replay = (*session)->Replay(
      "r1", MakeWorkloadFactory(ServiceProfile(), kProbeInner), sopts);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->workers_used, 3);
  EXPECT_TRUE(replay->deferred.ok);
  EXPECT_EQ(fs.reads("svc/alice/r1/manifest.tsv"), 4);
  EXPECT_EQ(fs.reads("svc/alice/r1/logs.tsv"), 1);
  EXPECT_EQ(fs.reads("svc/alice/r1/source.py"), 3);
  EXPECT_EQ(fs.lists(), 0);
}

TEST(ServiceTest, CloseDeadlineExpiryAborts) {
  WorkloadProfile profile = ServiceProfile(/*epochs=*/8);
  profile.wall_batch_seconds = 0.02;

  MemFileSystem fs;
  Env env(std::make_unique<WallClock>(), &fs);
  auto conn = Connection::Open(&env, TieredConnectionOptions(profile));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  auto session = (*conn)->OpenSession("slow");
  ASSERT_TRUE(session.ok());

  const SessionRecordOptions sropts =
      SessionRecordFrom(workloads::DefaultRecordOptions(profile, ""));
  Status record_status;
  std::thread recorder([&] {
    record_status =
        (*session)
            ->Record("r", MakeWorkloadFactory(profile, kProbeNone), sropts)
            .status();
  });
  while ((*conn)->stats().active_records < 1) std::this_thread::yield();

  // The record takes >= 320ms of modeled batches; a 1ms deadline expires
  // first. The connection stays closed, the straggler finishes, and a
  // second Close completes the drain.
  const Status expired = (*conn)->Close(/*deadline_seconds=*/0.001);
  EXPECT_TRUE(expired.code() == StatusCode::kAborted) << expired.ToString();
  EXPECT_NE(expired.ToString().find("still in flight"), std::string::npos)
      << expired.ToString();
  EXPECT_TRUE((*conn)->closed());

  recorder.join();
  EXPECT_TRUE(record_status.ok()) << record_status.ToString();
  EXPECT_TRUE((*conn)->Close().ok());
}

}  // namespace
}  // namespace flor

// Service front-end under mixed multi-tenant load: N session threads share
// one flor::Connection (bucket tier, bloom filters, background GC) and
// each runs a full tenant lifecycle — record a run, hammer the query
// surface (ListRuns + Exists through the tiers), then a thread-engine
// replay. Reports aggregate session throughput and the
// query-path latency distribution as the session count sweeps.
//
// Expected shape: sessions/sec grows with the session count until the
// record sessions saturate the host's cores (each record runs a real
// training loop with a wall-clock per-batch device cost), while query
// p50/p99 stays flat — queries are read-only prefix scans and never
// contend on the admission gate or the GC worker. Set BENCH_JSON=<path>
// to capture `stage: "service_mixed"` rows.
//
// A second stage measures admission fairness: one burst tenant floods a
// two-slot gate with back-to-back records while steady tenants each want a
// single slot. The burst tenant is quota-capped to one slot and freed
// slots hand off round-robin, so a steady tenant's wait is bounded by
// roughly one record duration. Captured as a `stage: "skewed_mix"` row.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "service/service.h"

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double>* sorted_in_place, double p) {
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  if (sorted_in_place->empty()) return 0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_in_place->size() - 1) + 0.5);
  return (*sorted_in_place)[std::min(idx, sorted_in_place->size() - 1)];
}

}  // namespace

int main() {
  using namespace flor;

  bench::BenchJson json("service_mixed");

  // The standard real-engine workload shape: dense checkpoints, wall-clock
  // per-batch device cost so concurrent recorders contend like GPU jobs.
  workloads::WorkloadProfile profile = bench::ExecutorWorkload();
  profile.name = "SvcMix";
  profile.epochs = bench::SmokeMode() ? 4 : 8;

  const int queries_per_session = bench::SmokeIters(50, 10);
  std::vector<int> session_counts =
      bench::SmokeMode() ? std::vector<int>{2, 4}
                         : std::vector<int>{1, 2, 4, 8};

  std::printf("Service mixed load: record + query + replay lifecycles on "
              "one shared Connection.\n\n");
  std::printf("%9s %10s %13s %12s %12s %10s\n", "sessions", "wall",
              "sessions/s", "query p50", "query p99", "gc passes");
  bench::Hr();

  for (int sessions : session_counts) {
    MemFileSystem fs;
    Env env(std::make_unique<WallClock>(), &fs);

    ConnectionOptions copts;
    copts.root = "svc";
    copts.ckpt_shards = profile.ckpt_shards;
    copts.tier.bucket_prefix = "s3";
    copts.tier.bloom_filter = true;
    copts.gc.keep_last_k = 1;  // background demotion races the readers
    auto conn = Connection::Open(&env, copts);
    FLOR_CHECK(conn.ok()) << conn.status().ToString();

    const SessionRecordOptions record_opts = [&] {
      RecordOptions defaults = workloads::DefaultRecordOptions(profile, "");
      SessionRecordOptions s;
      s.workload = defaults.workload;
      s.materializer = defaults.materializer;
      s.adaptive = defaults.adaptive;
      // Deterministic checkpoint density: under a wall clock the adaptive
      // controller keys off real measured overhead and may materialize
      // nothing for a workload this small, leaving replay un-partitionable.
      s.adaptive.enabled = false;
      s.nominal_checkpoint_bytes = defaults.nominal_checkpoint_bytes;
      s.vanilla_runtime_seconds = defaults.vanilla_runtime_seconds;
      return s;
    }();
    const ProgramFactory record_factory =
        workloads::MakeWorkloadFactory(profile, workloads::kProbeNone);
    const ProgramFactory probed_factory =
        workloads::MakeWorkloadFactory(profile, workloads::kProbeInner);

    std::mutex latencies_mu;
    std::vector<double> query_latencies;
    query_latencies.reserve(
        static_cast<size_t>(sessions * queries_per_session));

    const double start = NowSeconds();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(sessions));
    for (int t = 0; t < sessions; ++t) {
      threads.emplace_back([&, t] {
        auto session = (*conn)->OpenSession(StrCat("tenant", t));
        FLOR_CHECK(session.ok()) << session.status().ToString();
        auto rec = (*session)->Record("run", record_factory, record_opts);
        FLOR_CHECK(rec.ok()) << rec.status().ToString();
        FLOR_CHECK(!rec->manifest.records.empty());

        std::vector<double> local;
        local.reserve(static_cast<size_t>(queries_per_session));
        const CheckpointKey key = rec->manifest.records.front().key;
        for (int q = 0; q < queries_per_session; ++q) {
          const double q_start = NowSeconds();
          auto runs = (*session)->Query();
          FLOR_CHECK(runs.ok()) << runs.status().ToString();
          auto exists = (*session)->Exists("run", key);
          FLOR_CHECK(exists.ok()) << exists.status().ToString();
          FLOR_CHECK(*exists);
          local.push_back(NowSeconds() - q_start);
        }

        SessionReplayOptions ropts;
        ropts.engine = ReplayEngine::kThreads;
        ropts.workers = 2;
        auto replay = (*session)->Replay("run", probed_factory, ropts);
        FLOR_CHECK(replay.ok()) << replay.status().ToString();
        FLOR_CHECK(replay->deferred.ok);

        std::lock_guard<std::mutex> lock(latencies_mu);
        query_latencies.insert(query_latencies.end(), local.begin(),
                               local.end());
      });
    }
    for (auto& th : threads) th.join();
    (*conn)->DrainBackground();
    const double wall = NowSeconds() - start;

    const ConnectionStats stats = (*conn)->stats();
    FLOR_CHECK(stats.records_completed == sessions);
    FLOR_CHECK(stats.gc_failures == 0) << stats.last_gc_error;

    const double sessions_per_sec = sessions / wall;
    const double p50 = Percentile(&query_latencies, 0.50);
    const double p99 = Percentile(&query_latencies, 0.99);

    std::printf("%9d %10s %13.2f %12s %12s %10lld\n", sessions,
                HumanSeconds(wall).c_str(), sessions_per_sec,
                HumanSeconds(p50).c_str(), HumanSeconds(p99).c_str(),
                static_cast<long long>(stats.gc_passes));

    json.Row()
        .Field("stage", "service_mixed")
        .Field("concurrent_sessions", sessions)
        .Field("queries_per_session", queries_per_session)
        .Field("records_completed", stats.records_completed)
        .Field("replays_completed", stats.replays_completed)
        .Field("queries_served", stats.queries_served)
        .Field("gc_passes", stats.gc_passes)
        .Field("wall_seconds", wall)
        .Field("sessions_per_sec", sessions_per_sec)
        .Field("query_p50_seconds", p50)
        .Field("query_p99_seconds", p99);
  }

  std::printf("\nQueries are read-only prefix scans: p99 should stay flat "
              "as sessions are added,\nwhile the wall time per sweep grows "
              "with recorder contention for cores.\n");

  // ---- Skewed tenant mix: burst-vs-steady admission fairness. ----
  const int burst_threads = bench::SmokeMode() ? 3 : 4;
  const int burst_runs_each = bench::SmokeMode() ? 2 : 4;
  const int steady_tenants = bench::SmokeMode() ? 2 : 4;

  std::printf("\nSkewed tenant mix: %d burst recorder(s) x %d run(s) "
              "flooding a 2-slot gate vs %d steady tenants.\n\n",
              burst_threads, burst_runs_each, steady_tenants);
  std::printf("%9s %10s %13s %13s %13s\n", "gate", "wall", "steady p50",
              "steady p99", "burst peak");
  bench::Hr();

  {
    MemFileSystem fs;
    Env env(std::make_unique<WallClock>(), &fs);

    ConnectionOptions copts;
    copts.root = "svc";
    copts.ckpt_shards = profile.ckpt_shards;
    copts.tier.bucket_prefix = "s3";
    copts.max_concurrent_records = 2;
    copts.max_records_per_tenant = 1;
    auto conn = Connection::Open(&env, copts);
    FLOR_CHECK(conn.ok()) << conn.status().ToString();

    const SessionRecordOptions record_opts = [&] {
      RecordOptions defaults = workloads::DefaultRecordOptions(profile, "");
      SessionRecordOptions s;
      s.workload = defaults.workload;
      s.materializer = defaults.materializer;
      s.adaptive = defaults.adaptive;
      s.adaptive.enabled = false;
      s.nominal_checkpoint_bytes = defaults.nominal_checkpoint_bytes;
      s.vanilla_runtime_seconds = defaults.vanilla_runtime_seconds;
      return s;
    }();
    const ProgramFactory record_factory =
        workloads::MakeWorkloadFactory(profile, workloads::kProbeNone);

    std::mutex waits_mu;
    std::vector<double> steady_waits;
    steady_waits.reserve(static_cast<size_t>(steady_tenants));

    const double start = NowSeconds();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(burst_threads + steady_tenants));
    for (int t = 0; t < burst_threads; ++t) {
      threads.emplace_back([&, t] {
        auto session = (*conn)->OpenSession("burst");
        FLOR_CHECK(session.ok()) << session.status().ToString();
        for (int r = 0; r < burst_runs_each; ++r) {
          auto rec = (*session)->Record(StrCat("b", t, "-", r),
                                        record_factory, record_opts);
          FLOR_CHECK(rec.ok()) << rec.status().ToString();
        }
      });
    }
    // Let the burst saturate the gate before the steady tenants arrive —
    // the starvation-prone arrival order. The burst tenant's quota caps it
    // at one running record, so one is saturation.
    while ((*conn)->stats().active_records < 1) {
      std::this_thread::yield();
    }
    for (int t = 0; t < steady_tenants; ++t) {
      threads.emplace_back([&, t] {
        auto session = (*conn)->OpenSession(StrCat("steady", t));
        FLOR_CHECK(session.ok()) << session.status().ToString();
        auto rec = (*session)->Record("run", record_factory, record_opts);
        FLOR_CHECK(rec.ok()) << rec.status().ToString();
        std::lock_guard<std::mutex> lock(waits_mu);
        steady_waits.push_back(rec->admission_wait_seconds);
      });
    }
    for (auto& th : threads) th.join();
    (*conn)->DrainBackground();
    const double wall = NowSeconds() - start;

    const ConnectionStats stats = (*conn)->stats();
    FLOR_CHECK(stats.records_completed ==
               burst_threads * burst_runs_each + steady_tenants);
    const int burst_peak = stats.tenants.at("burst").max_observed_records;
    FLOR_CHECK(burst_peak == 1);  // quota held

    const double p50 = Percentile(&steady_waits, 0.50);
    const double p99 = Percentile(&steady_waits, 0.99);
    const char* gate = "fair";
    std::printf("%9s %10s %13s %13s %13d\n", gate,
                HumanSeconds(wall).c_str(), HumanSeconds(p50).c_str(),
                HumanSeconds(p99).c_str(), burst_peak);

    json.Row()
        .Field("stage", "skewed_mix")
        .Field("gate", gate)
        .Field("burst_threads", burst_threads)
        .Field("burst_runs_each", burst_runs_each)
        .Field("steady_tenants", steady_tenants)
        .Field("wall_seconds", wall)
        .Field("steady_wait_p50_seconds", p50)
        .Field("steady_wait_p99_seconds", p99);
  }

  std::printf("\nThe gate quota-caps the burst tenant and hands freed "
              "slots round-robin:\nsteady-tenant admission p99 stays at "
              "about one record duration.\n");
  return 0;
}

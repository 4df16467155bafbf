// Figure 14 — cost comparison for performing the same amount of work
// serially vs. in parallel, plus the tiered-retention cost/latency
// frontier that the local->bucket checkpoint store opens up.
//
// Part 1 (the paper's figure): serial on one P3.2xLarge (1 GPU) vs the
// partitioned replay on N P3.8xLarge machines (4 GPUs each). "Parallel
// executions take less time but run on more expensive hardware"; because
// Flor's parallelism is nearly ideal, the dollar costs come out almost
// equal while wall-clock time drops ~Nx.
//
// Part 2 (tiered frontier): sweep local keep-last-K (demotion to the
// bucket mirror) x bucket keep-last-K' (final-tier retirement). Each
// point records with spool-as-you-materialize, applies both retention
// tiers, then replays through the tiered store with rehydration off so
// every bucket fault is visible. Reported per point: bytes held on each
// tier, the S3 monthly bill for the bucket tier, replay latency (bucket
// restores are charged at s3_read_bps by the cost model), bucket fault
// count, and cluster cost — the storage-vs-replay-latency trade-off an
// operator tunes K/K' against. Merged replay logs must stay
// byte-identical to the unretired baseline at every point.

#include <cstdio>

#include "bench_util.h"
#include "checkpoint/gc.h"
#include "checkpoint/spool.h"

int main() {
  using namespace flor;

  bench::BenchJson json("fig14_cost");

  std::printf("Figure 14: Cost of the same work, serial (P3.2xLarge) vs "
              "parallel (N x P3.8xLarge).\n\n");
  std::printf("%-10s %12s %10s %12s %10s %8s\n", "Workload", "serial",
              "cost", "parallel", "cost", "ratio");
  bench::Hr();

  // The paper's figure uses the long-running training workloads; machine
  // count is hyphenated on the x-axis labels.
  struct Case {
    const char* name;
    int machines;
  };
  std::vector<Case> cases = {{"RsNt", 4}, {"Wiki", 3}, {"ImgN", 2},
                             {"RnnT", 2}};
  if (bench::SmokeMode()) cases.resize(1);

  for (const auto& c : cases) {
    auto profile_or = workloads::WorkloadByName(c.name);
    FLOR_CHECK(profile_or.ok());
    const auto& profile = *profile_or;

    MemFileSystem fs;
    bench::RunRecord(&fs, profile, "run");
    const double vanilla =
        bench::RunVanilla(&fs, profile, workloads::kProbeInner);
    const double serial_cost = sim::InstanceCost(sim::kP3_2xLarge, vanilla);

    ClusterPlanOptions copts;
    copts.run_prefix = "run";
    copts.num_workers = 4 * c.machines;
    copts.init_mode = InitMode::kWeak;
    copts.costs = sim::PaperPlatformCosts();
    auto result = exec::Replay(
        ReplayEngine::kSimulated, &fs, copts,
        workloads::MakeWorkloadFactory(profile, workloads::kProbeInner));
    FLOR_CHECK(result.ok()) << result.status().ToString();
    FLOR_CHECK(result->deferred.ok);
    const double parallel_cost = sim::TotalClusterCost(
        sim::PriceCluster(sim::kP3_8xLarge, result->worker_seconds));

    std::printf("%-6s-%-3d %12s %10s %12s %10s %7.2fx\n", c.name,
                c.machines, HumanSeconds(vanilla).c_str(),
                HumanDollars(serial_cost).c_str(),
                HumanSeconds(result->latency_seconds).c_str(),
                HumanDollars(parallel_cost).c_str(),
                parallel_cost / serial_cost);
    json.Row()
        .Field("stage", "serial_vs_parallel")
        .Field("workload", c.name)
        .Field("machines", c.machines)
        .Field("serial_seconds", vanilla)
        .Field("serial_cost_dollars", serial_cost)
        .Field("parallel_seconds", result->latency_seconds)
        .Field("parallel_cost_dollars", parallel_cost);
  }
  bench::Hr();
  std::printf("Paper shape: parallel replay costs about the same as serial "
              "(near-ideal\nparallelism) while cutting wall-clock time by "
              "roughly the worker count; the\nmarginal cost of parallelism "
              "stays under a few dollars.\n");

  // --- Part 2: tiered-retention frontier -------------------------------
  // One workload, swept over local K x bucket K'. K=0 keeps every
  // checkpoint local (no demotion, zero faults); K>0 demotes all but the
  // newest K epochs to the bucket, so replay restores fault back in over
  // the modeled S3 link. K'>0 additionally prunes the manifest to the
  // newest K' epochs, shrinking both tiers at the price of fewer restore
  // boundaries (more re-execution).
  const Case frontier_case = cases.front();
  auto frontier_profile_or = workloads::WorkloadByName(frontier_case.name);
  FLOR_CHECK(frontier_profile_or.ok());
  const auto& frontier_profile = *frontier_profile_or;

  std::vector<int64_t> local_ks = {0, 1, 2};
  const std::vector<int64_t> bucket_ks = {0, 4};
  if (bench::SmokeMode()) local_ks = {0, 1};

  std::printf("\nTiered retention frontier (%s-%d, bucket fall-through, "
              "rehydration off):\n\n", frontier_case.name,
              frontier_case.machines);
  std::printf("%4s %4s %10s %10s %10s %12s %7s %10s\n", "K", "K'", "local",
              "bucket", "S3/mo", "latency", "faults", "cost");
  bench::Hr();

  std::string baseline_logs;  // merged logs of the K=0, K'=0 point
  double baseline_latency = 0;
  for (int64_t local_k : local_ks) {
    for (int64_t bucket_k : bucket_ks) {
      MemFileSystem fs;
      Env env(std::make_unique<SimClock>(), &fs);
      auto instance = workloads::MakeWorkloadFactory(
          frontier_profile, workloads::kProbeNone)();
      FLOR_CHECK(instance.ok()) << instance.status().ToString();
      RecordOptions opts =
          workloads::DefaultRecordOptions(frontier_profile, "run");
      opts.spool_prefix = "s3";  // bucket mirror, spooled as materialized
      RecordSession session(&env, opts);
      exec::Frame frame;
      auto recorded = session.Run(instance->program.get(), &frame);
      FLOR_CHECK(recorded.ok()) << recorded.status().ToString();

      // Demote the finished run to the newest K local epochs per loop.
      GcPolicy lpolicy;
      lpolicy.keep_last_k = local_k;
      auto demoted = RetireRun(&fs, "run", lpolicy, "s3");
      FLOR_CHECK(demoted.ok()) << demoted.status().ToString();

      if (bucket_k > 0) {
        GcPolicy bpolicy;
        bpolicy.keep_last_k = bucket_k;
        auto pruned = RetireBucketRun(&fs, "run", "s3", bpolicy);
        FLOR_CHECK(pruned.ok()) << pruned.status().ToString();
        FLOR_CHECK(pruned->ok());
      }

      // Tier footprints at paper scale: nominal per-checkpoint size x
      // objects held, the same convention as the Table 4 bench (the tiny
      // test-model snapshots themselves are a few KB).
      const uint64_t nominal = frontier_profile.NominalStoredBytes();
      const uint64_t local_bytes =
          nominal * fs.ListPrefix("run/ckpt/").size();
      const uint64_t bucket_bytes =
          nominal * fs.ListPrefix("s3/run/ckpt/").size();
      const double s3_monthly = S3MonthlyCost(bucket_bytes);

      ClusterPlanOptions copts;
      copts.run_prefix = "run";
      copts.num_workers = 4 * frontier_case.machines;
      copts.init_mode = InitMode::kWeak;
      copts.costs = sim::PaperPlatformCosts();
      copts.tier.bucket_prefix = "s3";
      // Rehydration off: every bucket restore stays visible.
      copts.tier.bucket_rehydrate = false;
      auto replay = exec::Replay(
          ReplayEngine::kSimulated, &fs, copts,
          workloads::MakeWorkloadFactory(frontier_profile,
                                         workloads::kProbeInner));
      FLOR_CHECK(replay.ok()) << replay.status().ToString();
      FLOR_CHECK(replay->deferred.ok);
      const double cluster_cost = sim::TotalClusterCost(
          sim::PriceCluster(sim::kP3_8xLarge, replay->worker_seconds));

      // Retention must never change what hindsight replay computes: every
      // point's merged logs are byte-identical to the unretired baseline.
      const std::string logs = replay->merged_logs.Serialize();
      if (local_k == 0 && bucket_k == 0) {
        baseline_logs = logs;
        baseline_latency = replay->latency_seconds;
      }
      FLOR_CHECK(logs == baseline_logs);

      if (local_k == 0) {
        // Nothing was demoted; surviving records all have local copies.
        FLOR_CHECK(replay->bucket_faults == 0);
      } else if (bucket_k == 0) {
        // Dense manifest, local tier pruned to K epochs: restores below
        // the local horizon must fault in from the bucket.
        FLOR_CHECK(replay->bucket_faults > 0);
      }
      if (replay->bucket_faults > 0) {
        // Faulted restores are charged at the S3 read link; the frontier
        // never beats the all-local baseline on latency.
        FLOR_CHECK(replay->latency_seconds >= baseline_latency - 1e-9);
      }

      std::printf("%4lld %4lld %10s %10s %10s %12s %7lld %10s\n",
                  static_cast<long long>(local_k),
                  static_cast<long long>(bucket_k),
                  HumanBytes(local_bytes).c_str(),
                  HumanBytes(bucket_bytes).c_str(),
                  HumanDollars(s3_monthly).c_str(),
                  HumanSeconds(replay->latency_seconds).c_str(),
                  static_cast<long long>(replay->bucket_faults),
                  HumanDollars(cluster_cost).c_str());
      json.Row()
          .Field("stage", "tiered_frontier")
          .Field("workload", frontier_case.name)
          .Field("machines", frontier_case.machines)
          .Field("local_keep_k", local_k)
          .Field("bucket_keep_k", bucket_k)
          .Field("local_bytes", static_cast<int64_t>(local_bytes))
          .Field("bucket_bytes", static_cast<int64_t>(bucket_bytes))
          .Field("s3_monthly_cost_dollars", s3_monthly)
          .Field("bucket_faults", replay->bucket_faults)
          .Field("latency_seconds", replay->latency_seconds)
          .Field("cluster_cost_dollars", cluster_cost);
    }
  }
  bench::Hr();
  std::printf("Demotion (K) trades local disk for replay latency at equal "
              "durability; bucket\nretirement (K') caps the S3 bill at the "
              "price of fewer restore boundaries.\nMerged replay logs stay "
              "byte-identical at every point.\n");
  return 0;
}

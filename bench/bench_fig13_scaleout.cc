// Figure 13 — replay time using GPUs from multiple P3.8xLarge machines, on
// experiment RsNt (chosen because it has 200 epochs to parallelize).
//
// Expected shape: near-ideal speedup as machines are added, with the gap to
// ideal explained by load balancing: 200 epochs over 16 workers means some
// worker does ceil(200/16) = 13 epochs, capping speedup at 200/13 = 15.38x.
//
// A second section sweeps the *real* thread-pool engine over worker-thread
// counts on the standard executor workload: same partition planner, wall
// clock instead of simulated clocks. A third sweeps the process engine
// (fork per partition — the paper's per-GPU deployment) over the same
// curve, byte-checked against the thread engine. Set BENCH_JSON=<path> to
// capture all curves as JSON rows.

#include <cstdio>

#include "bench_util.h"
#include "exec/process_executor.h"
#include "exec/replay_executor.h"

int main() {
  using namespace flor;

  bench::BenchJson json("fig13_scaleout");

  auto profile_or = workloads::WorkloadByName("RsNt");
  FLOR_CHECK(profile_or.ok());
  const auto& profile = *profile_or;

  MemFileSystem fs;
  bench::RunRecord(&fs, profile, "run");
  const double vanilla =
      bench::RunVanilla(&fs, profile, workloads::kProbeInner);
  auto factory =
      workloads::MakeWorkloadFactory(profile, workloads::kProbeInner);

  std::printf("Figure 13: RsNt replay scale-out over P3.8xLarge machines "
              "(4 GPUs each).\n\n");
  std::printf("vanilla re-execution: %s\n\n",
              HumanSeconds(vanilla).c_str());
  std::printf("-- simulated engine --\n");
  std::printf("%9s %6s %12s %9s %9s %12s\n", "machines", "GPUs", "replay",
              "speedup", "ideal", "ceiling");
  bench::Hr();

  const int max_machines = bench::SmokeIters(4, 1);
  for (int machines = 1; machines <= max_machines; ++machines) {
    ClusterPlanOptions copts;
    copts.run_prefix = "run";
    copts.num_workers = 4 * machines;
    copts.init_mode = InitMode::kWeak;  // the paper's Fig. 13 uses weak
    auto result = exec::Replay(ReplayEngine::kSimulated, &fs, copts, factory);
    FLOR_CHECK(result.ok()) << result.status().ToString();
    FLOR_CHECK(result->deferred.ok);

    const int gpus = machines * 4;
    const double speedup = vanilla / result->latency_seconds;
    const double ceiling =
        static_cast<double>(profile.epochs) /
        ((profile.epochs + gpus - 1) / gpus);  // epochs / ceil(E/G)
    std::printf("%9d %6d %12s %8.2fx %8.2fx %11.2fx\n", machines, gpus,
                HumanSeconds(result->latency_seconds).c_str(), speedup,
                static_cast<double>(gpus), ceiling);
    json.Row()
        .Field("engine", "sim")
        .Field("workload", profile.name)
        .Field("machines", machines)
        .Field("gpus", gpus)
        .Field("replay_seconds", result->latency_seconds)
        .Field("speedup_vs_vanilla", speedup)
        .Field("load_balance_ceiling", ceiling);
  }
  bench::Hr();
  std::printf("Paper shape: near-ideal scaling; at 16 GPUs the max "
              "achievable speedup is\n200/13 = 15.38x due to load "
              "balancing.\n");

  // ------------------------------------------------------- real engine --
  const workloads::WorkloadProfile real_profile = bench::ExecutorWorkload();
  MemFileSystem real_fs;
  bench::RunRecord(&real_fs, real_profile, "run");
  auto real_factory =
      workloads::MakeWorkloadFactory(real_profile, workloads::kProbeInner);

  std::printf("\n-- real engine (thread pool, wall clock; workload %s, "
              "%lld epochs, one partition per thread) --\n",
              real_profile.name.c_str(),
              static_cast<long long>(real_profile.epochs));
  std::printf("%8s %6s %12s %9s %9s\n", "threads", "parts", "wall",
              "speedup", "ideal");
  bench::Hr();

  double one_thread_wall = 0;
  std::string thread_logs;
  const int max_threads = bench::SmokeIters(8, 2);
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    exec::ReplayExecutorOptions xopts;
    xopts.run_prefix = "run";
    xopts.num_threads = threads;
    xopts.num_partitions = threads;  // scale-out: G grows with the pool
    xopts.init_mode = InitMode::kWeak;
    exec::ReplayExecutor executor(&real_fs, xopts);
    auto result = executor.Run(real_factory);
    FLOR_CHECK(result.ok()) << result.status().ToString();
    FLOR_CHECK(result->deferred.ok);

    if (threads == 1) {
      one_thread_wall = result->wall_seconds;
      thread_logs = result->merged_logs.Serialize();
    }
    const double speedup = one_thread_wall / result->wall_seconds;
    std::printf("%8d %6d %12s %8.2fx %8.2fx\n", threads,
                result->workers_used,
                HumanSeconds(result->wall_seconds).c_str(), speedup,
                static_cast<double>(threads));
    json.Row()
        .Field("engine", "real")
        .Field("workload", real_profile.name)
        .Field("threads", threads)
        .Field("partitions", result->workers_used)
        .Field("wall_seconds", result->wall_seconds)
        .Field("speedup_vs_1_thread", speedup);
  }
  bench::Hr();
  std::printf("The real curve is the measured analog of the simulated one: "
              "same planner and\nmerge, wall-clock timing.\n");

  // ---------------------------------------------------- process engine --
  std::printf("\n-- process engine (fork per partition, wall clock; same "
              "workload) --\n");
  std::printf("%8s %6s %12s %9s %9s\n", "procs", "parts", "wall",
              "speedup", "ideal");
  bench::Hr();

  double one_proc_wall = 0;
  for (int procs = 1; procs <= max_threads; procs *= 2) {
    exec::ProcessReplayExecutorOptions popts;
    popts.run_prefix = "run";
    popts.num_workers = procs;  // scale-out: one process per partition
    // One pool slot per partition (a cluster node per modeled GPU); the
    // elastic sweep below is where the pool shrinks under G.
    popts.max_concurrent_children = procs;
    popts.init_mode = InitMode::kWeak;
    exec::ProcessReplayExecutor executor(&real_fs, popts);
    auto result = executor.Run(real_factory);
    FLOR_CHECK(result.ok()) << result.status().ToString();
    FLOR_CHECK(result->deferred.ok);
    FLOR_CHECK(result->merged_logs.Serialize() == thread_logs)
        << "process engine diverges from thread engine at " << procs
        << " processes";

    if (procs == 1) one_proc_wall = result->wall_seconds;
    const double speedup = one_proc_wall / result->wall_seconds;
    std::printf("%8d %6d %12s %8.2fx %8.2fx\n", procs,
                result->workers_used,
                HumanSeconds(result->wall_seconds).c_str(), speedup,
                static_cast<double>(procs));
    json.Row()
        .Field("engine", "proc")
        .Field("workload", real_profile.name)
        .Field("processes", procs)
        .Field("partitions", result->workers_used)
        .Field("wall_seconds", result->wall_seconds)
        .Field("speedup_vs_1_process", speedup)
        .Field("merged_logs_match_thread_engine", true);
  }
  bench::Hr();
  std::printf("The process curve adds true isolation to the same measured "
              "overlap: fork-per-\npartition, byte-identical merged logs, "
              "children reaped as they finish.\n");

  // ---------------------------------------- elastic pool (pool < G) --
  // The cluster-shaped question: G partitions but fewer worker slots than
  // partitions — the scheduler queues partitions and re-forks as slots
  // free up, trading wall time for footprint. Merged bytes stay pinned to
  // the thread engine at every pool size.
  const int elastic_parts = max_threads;  // 8 full, 2 smoke
  std::printf("\n-- process engine, elastic pool (G=%d partitions over "
              "fewer worker slots) --\n", elastic_parts);
  std::printf("%8s %6s %12s %9s %7s\n", "pool", "parts", "wall",
              "vs full", "forks");
  bench::Hr();

  double full_pool_wall = 0;
  for (int pool : {8, 4, 2}) {
    if (pool > elastic_parts) continue;  // smoke trims the sweep
    exec::ProcessReplayExecutorOptions popts;
    popts.run_prefix = "run";
    popts.num_workers = elastic_parts;
    popts.max_concurrent_children = pool;
    popts.init_mode = InitMode::kWeak;
    exec::ProcessReplayExecutor executor(&real_fs, popts);
    auto result = executor.Run(real_factory);
    FLOR_CHECK(result.ok()) << result.status().ToString();
    FLOR_CHECK(result->deferred.ok);
    FLOR_CHECK(result->merged_logs.Serialize() == thread_logs)
        << "process engine diverges from thread engine at G="
        << elastic_parts << " pool=" << pool;
    FLOR_CHECK(result->max_observed_children <= pool);

    if (full_pool_wall == 0) full_pool_wall = result->wall_seconds;
    const double slowdown = result->wall_seconds / full_pool_wall;
    std::printf("%8d %6d %12s %8.2fx %7d\n", pool, result->workers_used,
                HumanSeconds(result->wall_seconds).c_str(), slowdown,
                result->total_forks);
    json.Row()
        .Field("engine", "proc")
        .Field("stage", "elastic_pool")
        .Field("workload", real_profile.name)
        .Field("partitions", result->workers_used)
        .Field("pool", pool)
        .Field("wall_seconds", result->wall_seconds)
        .Field("total_forks", result->total_forks)
        .Field("slowdown_fraction_vs_full_pool", slowdown)
        .Field("merged_logs_match_thread_engine", true);
  }
  bench::Hr();
  std::printf("Fewer slots than partitions still completes — the replay "
              "degrades in wall time\ninstead of failing, the elastic "
              "scale-out story behind retry-on-worker-death.\n");
  return 0;
}

// Figure 10 — parallel replay time of entire model training jobs, as a
// fraction of a vanilla re-execution, on 4 GPUs (one P3.8xLarge), for weak
// and strong initialization, and for the default request (auto: weak where
// it is exact, strong otherwise).
//
// The hindsight probe sits in the inner training loop, so nothing can be
// skipped: this measures pure hindsight parallelism. Expected shape: the
// densely checkpointed workloads approach the ideal 1/4 line; RTE & CoLA
// are limited by their sparse (adaptive) checkpoints to a handful of
// partitions, so 4 GPUs can at best reach (max segment / epochs) of vanilla
// time (paper: 2/6 = 33%).
//
// Three engines run:
//   * simulated (exec::Replay(kSimulated)) — paper-scale latencies on
//     per-worker simulated clocks;
//   * real (exec::ReplayExecutor) — the same partition plan on an actual
//     thread pool, measured with the wall clock, 4 partitions at 1/2/4
//     threads. The merged multi-thread log is verified byte-identical to
//     the 1-thread log on every run;
//   * proc (exec::ProcessReplayExecutor) — the same plan again, one forked
//     worker process per partition (the paper's per-GPU deployment shape),
//     same wall_batch_seconds device-time model, merged log verified
//     byte-identical to the thread engine.
//
// Set BENCH_JSON=<path> to capture all sections as JSON rows.

#include <cstdio>

#include "bench_util.h"
#include "exec/process_executor.h"
#include "exec/replay_executor.h"

int main() {
  using namespace flor;
  using bench::Pct;

  bench::BenchJson json("fig10_parallel_replay");

  std::printf("Figure 10: Parallel replay time as fraction of a vanilla "
              "re-execution (4 GPUs).\n\n");
  std::printf("-- simulated engine (per-worker simulated clocks) --\n");
  std::printf("%-5s %12s %12s %10s %10s %10s %6s\n", "Name", "vanilla",
              "weak", "strong", "auto", "fraction", "parts");
  bench::Hr();

  for (const auto& profile : bench::BenchWorkloads()) {
    MemFileSystem fs;
    bench::RunRecord(&fs, profile, "run");
    // Vanilla re-execution performs the same work and logs the same amount
    // of data (i.e. runs the probed program), without Flor speedups.
    const double vanilla =
        bench::RunVanilla(&fs, profile, workloads::kProbeInner);

    auto factory =
        workloads::MakeWorkloadFactory(profile, workloads::kProbeInner);

    const InitMode requested[3] = {InitMode::kWeak, InitMode::kStrong,
                                   InitMode::kAuto};
    double latencies[3] = {0, 0, 0};
    int64_t segments = 0;
    InitMode effective[3] = {};
    std::string merged[3];
    for (int m = 0; m < 3; ++m) {
      ClusterPlanOptions copts;
      copts.run_prefix = "run";
      copts.num_workers = 4;
      copts.init_mode = requested[m];
      auto result = exec::Replay(ReplayEngine::kSimulated, &fs, copts, factory);
      FLOR_CHECK(result.ok()) << result.status().ToString();
      FLOR_CHECK(result->deferred.ok)
          << profile.name << ": "
          << (result->deferred.anomalies.empty()
                  ? ""
                  : result->deferred.anomalies[0]);
      latencies[m] = result->latency_seconds;
      segments = result->partition_segments;
      effective[m] = result->effective_init;
      merged[m] = result->merged_logs.Serialize();
    }
    FLOR_CHECK(merged[2] == merged[1])
        << profile.name << ": auto init's merged logs differ from strong's";

    std::printf("%-5s %12s %12s %10s %10s %10s %6lld%s\n",
                profile.name.c_str(), HumanSeconds(vanilla).c_str(),
                HumanSeconds(latencies[0]).c_str(),
                HumanSeconds(latencies[1]).c_str(),
                HumanSeconds(latencies[2]).c_str(),
                Pct(latencies[0] / vanilla).c_str(),
                static_cast<long long>(segments),
                effective[1] == InitMode::kWeak ? " (weak-only)" : "");
    json.Row()
        .Field("engine", "sim")
        .Field("workload", profile.name)
        .Field("vanilla_seconds", vanilla)
        .Field("weak_seconds", latencies[0])
        .Field("strong_seconds", latencies[1])
        .Field("auto_seconds", latencies[2])
        .Field("auto_init", InitModeName(effective[2]))
        .Field("fraction_of_vanilla", latencies[0] / vanilla)
        .Field("partition_segments", segments)
        .Field("strong_fell_back_to_weak",
               effective[1] == InitMode::kWeak);
  }
  bench::Hr();
  std::printf("ideal on 4 GPUs: 25.00%%. Paper shape: dense workloads "
              "near-ideal; RTE/CoLA\nlimited by their few checkpoint "
              "partitions (paper: 2/6 = 33%%); weak vs strong\n"
              "difference negligible. auto plans weak init where it is "
              "exact, and its merged\nlogs equal strong's.\n");

  // ------------------------------------------------------- real engine --
  const workloads::WorkloadProfile real_profile = bench::ExecutorWorkload();
  MemFileSystem real_fs;
  bench::RunRecord(&real_fs, real_profile, "run");
  auto real_factory =
      workloads::MakeWorkloadFactory(real_profile, workloads::kProbeInner);

  std::printf("\n-- real engine (thread pool, wall clock; workload %s, "
              "%lld epochs, G=4 partitions) --\n", real_profile.name.c_str(),
              static_cast<long long>(real_profile.epochs));
  std::printf("%8s %12s %9s %9s %7s\n", "threads", "wall", "speedup",
              "ideal", "steals");
  bench::Hr();

  std::string single_thread_logs;
  double single_thread_wall = 0;
  double speedup_at_4 = 0;
  for (int threads : {1, 2, 4}) {
    exec::ReplayExecutorOptions xopts;
    xopts.run_prefix = "run";
    xopts.num_threads = threads;
    xopts.num_partitions = 4;  // the paper's 4 GPUs
    xopts.init_mode = InitMode::kWeak;
    exec::ReplayExecutor executor(&real_fs, xopts);
    auto result = executor.Run(real_factory);
    FLOR_CHECK(result.ok()) << result.status().ToString();
    FLOR_CHECK(result->deferred.ok)
        << (result->deferred.anomalies.empty()
                ? ""
                : result->deferred.anomalies[0]);

    const std::string merged = result->merged_logs.Serialize();
    if (threads == 1) {
      single_thread_logs = merged;
      single_thread_wall = result->wall_seconds;
    } else {
      FLOR_CHECK(merged == single_thread_logs)
          << "merged logs diverge from 1-thread replay at " << threads
          << " threads";
    }
    const double speedup = single_thread_wall / result->wall_seconds;
    if (threads == 4) speedup_at_4 = speedup;
    std::printf("%8d %12s %8.2fx %8.2fx %7lld\n", threads,
                HumanSeconds(result->wall_seconds).c_str(), speedup,
                static_cast<double>(threads),
                static_cast<long long>(result->steals));
    json.Row()
        .Field("engine", "real")
        .Field("workload", real_profile.name)
        .Field("threads", threads)
        .Field("partitions", 4)
        .Field("wall_seconds", result->wall_seconds)
        .Field("latency_seconds", result->latency_seconds)
        .Field("speedup_vs_1_thread", speedup)
        .Field("steals", result->steals)
        .Field("merged_logs_match_single_thread",
               threads == 1 || merged == single_thread_logs);
  }
  bench::Hr();
  std::printf("real 4-thread speedup: %.2fx (workers block on modeled "
              "device time, so the\ncurve tracks the paper's GPU-bound "
              "overlap even on few host cores).\n", speedup_at_4);

  // ---------------------------------------------------- process engine --
  std::printf("\n-- process engine (fork per partition, wall clock; same "
              "workload and device-time model) --\n");
  std::printf("%8s %12s %9s %9s\n", "procs", "wall", "speedup", "ideal");
  bench::Hr();

  double one_proc_wall = 0;
  double proc_speedup_at_4 = 0;
  for (int procs : {1, 2, 4}) {
    exec::ProcessReplayExecutorOptions popts;
    popts.run_prefix = "run";
    popts.num_workers = procs;
    // One pool slot per partition, as on a cluster with one node per
    // modeled GPU: the scheduler must not serialize device-bound
    // partitions behind this host's core count.
    popts.max_concurrent_children = procs;
    popts.init_mode = InitMode::kWeak;
    exec::ProcessReplayExecutor executor(&real_fs, popts);
    auto result = executor.Run(real_factory);
    FLOR_CHECK(result.ok()) << result.status().ToString();
    FLOR_CHECK(result->deferred.ok)
        << (result->deferred.anomalies.empty()
                ? ""
                : result->deferred.anomalies[0]);

    // Merging is partition-count invariant, so every process row must
    // reproduce the thread engine's merged bytes exactly.
    const std::string merged = result->merged_logs.Serialize();
    FLOR_CHECK(merged == single_thread_logs)
        << "process engine diverges from thread engine at " << procs
        << " processes";

    if (procs == 1) one_proc_wall = result->wall_seconds;
    const double speedup = one_proc_wall / result->wall_seconds;
    if (procs == 4) proc_speedup_at_4 = speedup;
    std::printf("%8d %12s %8.2fx %8.2fx\n", procs,
                HumanSeconds(result->wall_seconds).c_str(), speedup,
                static_cast<double>(procs));
    json.Row()
        .Field("engine", "proc")
        .Field("workload", real_profile.name)
        .Field("processes", procs)
        .Field("partitions", procs)
        .Field("wall_seconds", result->wall_seconds)
        .Field("latency_seconds", result->latency_seconds)
        .Field("speedup_vs_1_process", speedup)
        .Field("merged_logs_match_thread_engine", true);
  }
  bench::Hr();
  std::printf("proc 4-process speedup: %.2fx (true address-space isolation;"
              " workers still\nblock on the same modeled device time, so "
              "the curve matches the thread engine).\n", proc_speedup_at_4);
  return 0;
}

// Figure 12 — replay latency, factored by the position of the hindsight
// logging statements.
//
// Top: the developer probes only the outer main loop. Partial replay skips
// every memoized training loop; combined with parallelism this gives
// latencies in minutes even for multi-hour jobs (paper: 7x to 1123x, the
// bigger wins on the longer experiments).
//
// Bottom: the developer probes the inner training loop, so a full
// re-execution is needed; speedups come from hindsight parallelism alone.
// "Each workload uses as many machines, from a pool of four machines, as
// will result in parallelism gains."

#include <cstdio>

#include "bench_util.h"

namespace {

using namespace flor;

/// Cluster replay with as many machines (from a pool of 4) as keep helping.
MergedClusterReplay BestOverPool(const ProgramFactory& factory,
                                 MemFileSystem* fs, int* machines_used) {
  MergedClusterReplay best;
  bool first = true;
  for (int machines = 1; machines <= 4; ++machines) {
    ClusterPlanOptions copts;
    copts.run_prefix = "run";
    copts.num_workers = 4 * machines;
    // Weak initialization: strong init would re-run every preceding
    // epoch's unskippable statements per worker, erasing the gains of
    // partial replay (the paper's scale-out runs use weak init, Fig. 13).
    copts.init_mode = InitMode::kWeak;
    copts.costs = sim::PaperPlatformCosts();
    auto result = exec::Replay(ReplayEngine::kSimulated, fs, copts, factory);
    FLOR_CHECK(result.ok()) << result.status().ToString();
    FLOR_CHECK(result->deferred.ok);
    if (first || result->latency_seconds < best.latency_seconds * 0.98) {
      best = std::move(result).value();
      *machines_used = machines;
      first = false;
    } else {
      break;  // no further parallelism gains
    }
  }
  return best;
}

void RunCase(uint32_t probes, const char* title) {
  using bench::Pct;
  std::printf("%s\n", title);
  std::printf("%-5s %12s %12s %9s %9s\n", "Name", "vanilla", "replay",
              "speedup", "machines");
  bench::Hr();
  for (const auto& profile : bench::BenchWorkloads()) {
    MemFileSystem fs;
    bench::RunRecord(&fs, profile, "run");
    const double vanilla = bench::RunVanilla(&fs, profile, probes);
    auto factory = workloads::MakeWorkloadFactory(profile, probes);
    int machines = 1;
    auto result = BestOverPool(factory, &fs, &machines);
    std::printf("%-5s %12s %12s %8.0fx %9d\n", profile.name.c_str(),
                HumanSeconds(vanilla).c_str(),
                HumanSeconds(result.latency_seconds).c_str(),
                vanilla / result.latency_seconds, machines);
  }
  bench::Hr();
}

}  // namespace

int main() {
  std::printf("Figure 12: Replay latency, factored by probe position.\n\n");
  RunCase(flor::workloads::kProbeOuter,
          "Top: outer-loop probe (partial + parallel replay)");
  std::printf("\n");
  RunCase(flor::workloads::kProbeInner,
          "Bottom: inner-loop probe (parallel-only replay, full "
          "re-execution)");
  std::printf(
      "\nPaper shape: outer-loop probes get order-of-magnitude-plus "
      "speedups, largest\nfor the longest experiments; inner-loop probes "
      "are bounded by parallelism\n(and by partition count for RTE/CoLA)."
      "\n");
  return 0;
}

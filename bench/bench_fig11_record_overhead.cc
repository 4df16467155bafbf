// Figure 11 — comparison of model training time with and without
// checkpointing, in hours. The text label over each pair of bars is the
// overhead added by Flor record as a fraction of a vanilla execution.
// Paper: average overhead 1.47%, no workload exceeding the 6.67% tolerance.
//
// Three record configurations per workload:
//   * buffered       — durability notifications are free (the paper's
//                      setting: the OS page cache absorbs the sync);
//   * per_checkpoint — every checkpoint pays one durable sync
//                      (kDurableNotifySeconds), window 1: the production
//                      durability tax at its worst;
//   * group_commit   — same sync cost amortized over a
//                      kGroupCommitWindow-checkpoint slot (WiredTiger
//                      log-slot style: the leader syncs, followers
//                      piggyback).
// BENCH_JSON rows carry per-workload vanilla/record seconds, the
// overhead_fraction (gated by scripts/bench_diff.py against
// bench/baselines/BENCH_fig11.json), and the group-commit slot stats.

#include <cstdio>
#include <vector>

#include "bench_util.h"

namespace {

using namespace flor;

/// Per-slot durable-notification cost for the production-durability
/// configs: a durable ack on networked storage (§6.2's spool platform
/// pays an S3 round trip per object — hundreds of ms at checkpoint sizes;
/// a local EBS fsync is an order of magnitude cheaper).
constexpr double kDurableNotifySeconds = 0.500;
constexpr int kGroupCommitWindow = 8;

struct Config {
  const char* name;
  int window;
  double notify_seconds;
};

RecordResult RunRecordConfig(FileSystem* fs,
                             const workloads::WorkloadProfile& profile,
                             const std::string& run_prefix,
                             const Config& config) {
  Env env(std::make_unique<SimClock>(), fs);
  auto instance =
      workloads::MakeWorkloadFactory(profile, workloads::kProbeNone)();
  FLOR_CHECK(instance.ok()) << instance.status().ToString();
  RecordOptions opts = workloads::DefaultRecordOptions(profile, run_prefix);
  opts.materializer.group_commit_window = config.window;
  opts.materializer.durable_notify_seconds = config.notify_seconds;
  RecordSession session(&env, opts);
  exec::Frame frame;
  auto result = session.Run(instance->program.get(), &frame);
  FLOR_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

}  // namespace

int main() {
  using namespace flor;
  using bench::Pct;

  bench::BenchJson json("fig11_record_overhead");
  const std::vector<Config> configs = {
      {"buffered", 1, 0.0},
      {"per_checkpoint", 1, kDurableNotifySeconds},
      {"group_commit", kGroupCommitWindow, kDurableNotifySeconds},
  };

  std::printf("Figure 11: Model training time with and without "
              "checkpointing.\n");
  std::printf("(durable sync %.0f ms; group-commit window %d)\n\n",
              kDurableNotifySeconds * 1e3, kGroupCommitWindow);
  std::printf("%-5s %14s | %10s %14s %10s\n", "Name", "vanilla", "config",
              "Flor record", "overhead");
  bench::Hr();

  std::vector<double> overhead_sum(configs.size(), 0);
  int count = 0;
  for (const auto& profile : bench::BenchWorkloads()) {
    MemFileSystem vfs;
    const double vanilla =
        bench::RunVanilla(&vfs, profile, workloads::kProbeNone);
    ++count;
    for (size_t c = 0; c < configs.size(); ++c) {
      MemFileSystem fs;
      RecordResult rec = RunRecordConfig(&fs, profile, "run", configs[c]);
      const double overhead = rec.runtime_seconds / vanilla - 1.0;
      overhead_sum[c] += overhead;
      std::printf("%-5s %14s | %10s %14s %10s\n",
                  c == 0 ? profile.name.c_str() : "",
                  c == 0 ? HumanSeconds(vanilla).c_str() : "",
                  configs[c].name,
                  HumanSeconds(rec.runtime_seconds).c_str(),
                  Pct(overhead).c_str());
      json.Row()
          .Field("workload", profile.name)
          .Field("config", configs[c].name)
          .Field("group_commit_window", configs[c].window)
          .Field("vanilla_seconds", vanilla)
          .Field("record_seconds", rec.runtime_seconds)
          .Field("overhead_fraction", overhead)
          .Field("slots", rec.group_commit.slots)
          .Field("syncs", rec.group_commit.syncs)
          .Field("joins_per_slot", rec.group_commit.JoinsPerSlot());
    }
  }
  bench::Hr();
  for (size_t c = 0; c < configs.size(); ++c) {
    const double avg = overhead_sum[c] / count;
    std::printf("average record overhead [%-14s]: %s\n", configs[c].name,
                Pct(avg).c_str());
    json.Row()
        .Field("workload", "average")
        .Field("config", configs[c].name)
        .Field("group_commit_window", configs[c].window)
        .Field("overhead_fraction", avg);
  }
  std::printf("(paper: 1.47%% average; tolerance 6.67%%)\n");
  return 0;
}

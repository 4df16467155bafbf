// Ablation: the overhead tolerance ε (paper §5.3, §6).
//
// "We chose an overhead tolerance of 6.67% (or 1/15) to ensure that there
//  is a sufficiently wide gap between materialization and computation
//  times... [ε] may be set to a different value by the user."
//
// Sweeps ε on the checkpoint-bound fine-tuning workloads and shows the
// resulting record overhead, checkpoint count, and — the replay-side
// consequence — partition count and 4-GPU replay fraction. Expected shape:
// larger ε ⇒ more checkpoints and overhead, finer partitions, faster
// parallel replay; the invariant "overhead ≤ ε" holds at every setting.

#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace flor;
  using bench::Pct;

  std::printf("Ablation: overhead tolerance epsilon on the fine-tuning "
              "workloads.\n\n");
  std::printf("%-5s %9s %10s %7s %7s %16s\n", "Name", "epsilon", "overhead",
              "ckpts", "parts", "4-GPU replay");
  bench::Hr();

  std::vector<const char*> names = {"RTE", "CoLA"};
  if (bench::SmokeMode()) names.resize(1);
  for (const char* name : names) {
    auto profile_or = workloads::WorkloadByName(name);
    FLOR_CHECK(profile_or.ok());
    const auto& profile = *profile_or;
    const double vanilla = profile.VanillaSeconds();

    for (double epsilon : {1.0 / 30.0, 1.0 / 15.0, 1.0 / 7.5, 1.0 / 3.0}) {
      MemFileSystem fs;
      Env env(std::make_unique<SimClock>(), &fs);
      auto instance =
          workloads::MakeWorkloadFactory(profile, workloads::kProbeNone)();
      FLOR_CHECK(instance.ok());
      RecordOptions opts = workloads::DefaultRecordOptions(profile, "run");
      opts.adaptive.epsilon = epsilon;
      RecordSession session(&env, opts);
      exec::Frame frame;
      auto rec = session.Run(instance->program.get(), &frame);
      FLOR_CHECK(rec.ok()) << rec.status().ToString();
      const double overhead = rec->runtime_seconds / vanilla - 1.0;
      FLOR_CHECK(overhead <= epsilon + 1e-9)
          << name << ": overhead exceeded epsilon";

      ClusterPlanOptions copts;
      copts.run_prefix = "run";
      copts.num_workers = 4;
      copts.costs = sim::PaperPlatformCosts();
      auto replay = exec::Replay(
          ReplayEngine::kSimulated, &fs, copts,
          workloads::MakeWorkloadFactory(profile, workloads::kProbeInner));
      FLOR_CHECK(replay.ok()) << replay.status().ToString();
      FLOR_CHECK(replay->deferred.ok);

      std::printf("%-5s %9s %10s %7zu %7lld %16s\n", name,
                  Pct(epsilon).c_str(), Pct(overhead).c_str(),
                  rec->manifest.records.size(),
                  static_cast<long long>(replay->partition_segments),
                  Pct(replay->latency_seconds / vanilla).c_str());
    }
    bench::Hr();
  }
  std::printf("Shape: epsilon trades record overhead for replay "
              "parallelizability; the\noverhead <= epsilon invariant holds "
              "at every setting (checked).\n");
  return 0;
}

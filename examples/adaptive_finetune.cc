// Adaptive checkpointing on a fine-tuning workload (paper §5.3, Fig. 7).
//
// RTE fine-tunes RoBERTa: epochs are short (~11 s) but each Loop End
// Checkpoint is ~3.8 GB raw (model + Adam moments), so materializing every
// epoch would nearly double the runtime. The Joint Invariant (Eq. 4) keeps
// record under the 6.67% tolerance by checkpointing sparsely — and the
// sparse checkpoints then bound how far replay can parallelize (Fig. 10).

#include <cstdio>

#include "common/strings.h"
#include "exec/replay_executor.h"
#include "flor/record.h"
#include "workloads/programs.h"

using namespace flor;
using namespace flor::workloads;

int main() {
  auto profile_or = WorkloadByName("RTE");
  FLOR_CHECK(profile_or.ok());
  const WorkloadProfile& profile = *profile_or;
  const double vanilla = profile.VanillaSeconds();

  std::printf("RTE fine-tuning: %lld epochs x %s compute, %s raw checkpoint"
              " per epoch\nvanilla runtime: %s\n\n",
              static_cast<long long>(profile.epochs),
              HumanSeconds(profile.sim_epoch_seconds).c_str(),
              HumanBytes(profile.sim_ckpt_raw_bytes).c_str(),
              HumanSeconds(vanilla).c_str());

  MemFileSystem fs_adaptive;
  MemFileSystem fs_disabled;
  for (bool adaptive : {false, true}) {
    MemFileSystem* fs = adaptive ? &fs_adaptive : &fs_disabled;
    Env env(std::make_unique<SimClock>(), fs);
    auto instance = MakeWorkloadFactory(profile, kProbeNone)();
    FLOR_CHECK(instance.ok());
    RecordOptions opts = DefaultRecordOptions(profile, "runs/rte");
    opts.adaptive.enabled = adaptive;
    RecordSession session(&env, opts);
    exec::Frame frame;
    auto result = session.Run(instance->program.get(), &frame);
    FLOR_CHECK(result.ok()) << result.status().ToString();

    std::printf("== adaptive checkpointing %s ==\n",
                adaptive ? "ON" : "OFF");
    std::printf("  record runtime: %s (overhead %.1f%%)\n",
                HumanSeconds(result->runtime_seconds).c_str(),
                (result->runtime_seconds / vanilla - 1) * 100);
    std::printf("  checkpoints: %lld; training-thread stall: %s\n",
                static_cast<long long>(result->skipblocks.materialized),
                HumanSeconds(result->materialize_stall_seconds).c_str());
    if (adaptive) {
      std::printf("  checkpointed epochs:");
      for (const auto& rec : result->manifest.records)
        std::printf(" %lld", static_cast<long long>(rec.epoch));
      std::printf("\n  (the Joint Invariant admits a checkpoint roughly "
                  "every 1/eps * Mi/Ci epochs)\n");
    }
    std::printf("\n");
  }

  std::printf("== consequence for replay: sparse checkpoints bound "
              "parallelism ==\n");
  auto factory = MakeWorkloadFactory(profile, kProbeInner);
  ClusterPlanOptions copts;
  copts.run_prefix = "runs/rte";
  copts.num_workers = 4;  // 4 GPUs
  auto result =
      exec::Replay(ReplayEngine::kSimulated, &fs_adaptive, copts, factory);
  FLOR_CHECK(result.ok()) << result.status().ToString();
  FLOR_CHECK(result->deferred.ok);
  std::printf("  partitions available: %lld (from the sparse checkpoints)\n",
              static_cast<long long>(result->partition_segments));
  std::printf("  replay on 4 GPUs: %s = %.0f%% of vanilla "
              "(paper: at best 2/6 = 33%%)\n",
              HumanSeconds(result->latency_seconds).c_str(),
              result->latency_seconds / vanilla * 100);
  std::printf("  initialization mode: %s (strong unavailable on sparse "
              "checkpoints, §5.4.2)\n",
              InitModeName(result->effective_init));
  return 0;
}

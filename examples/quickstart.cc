// Quickstart: record a training run, then hindsight-log a value you forgot.
//
// The flow mirrors the paper's user experience:
//   1. run training under Flor record (the `import flor` analog),
//   2. realize you need a value that was never logged,
//   3. add a flor.log probe to the script and replay — Flor skips the
//      memoized training loops and produces the answer in a fraction of
//      the original runtime.
//
// Uses a real (tiny) MLP trained on synthetic data, with a simulated clock
// so the printed times correspond to a realistic training job.

#include <cstdio>

#include "common/strings.h"
#include "exec/replay_executor.h"
#include "flor/record.h"
#include "sim/cost_model.h"
#include "workloads/programs.h"

using namespace flor;
using namespace flor::workloads;

namespace {

WorkloadProfile QuickProfile() {
  WorkloadProfile p;
  p.name = "quickstart";
  p.epochs = 20;
  p.sim_epoch_seconds = 120;  // pretend each epoch takes 2 minutes
  p.sim_outer_seconds = 5;
  p.sim_preamble_seconds = 10;
  p.sim_ckpt_raw_bytes = 64ull << 20;
  p.task_kind = data::Task::kVision;
  p.real_samples = 64;
  p.real_batch = 16;
  p.real_feature_dim = 24;
  p.real_classes = 4;
  p.real_hidden = 24;
  p.seed = 2024;
  return p;
}

}  // namespace

int main() {
  auto env = Env::NewSimEnv();
  const WorkloadProfile profile = QuickProfile();

  // ------------------------------------------------ 1. record training --
  std::printf("== Step 1: train with Flor record enabled ==\n");
  {
    auto instance = MakeWorkloadFactory(profile, kProbeNone)();
    FLOR_CHECK(instance.ok());
    RecordOptions opts = DefaultRecordOptions(profile, "runs/quickstart");
    RecordSession session(env.get(), opts);
    exec::Frame frame;
    auto result = session.Run(instance->program.get(), &frame);
    FLOR_CHECK(result.ok()) << result.status().ToString();
    std::printf("  training time: %s (vanilla would be %s, overhead %.2f%%)\n",
                HumanSeconds(result->runtime_seconds).c_str(),
                HumanSeconds(profile.VanillaSeconds()).c_str(),
                (result->runtime_seconds / profile.VanillaSeconds() - 1) *
                    100);
    std::printf("  checkpoints materialized: %lld\n",
                static_cast<long long>(result->skipblocks.materialized));
    // Show what the user logged at record time.
    int shown = 0;
    for (const auto& e : result->logs.entries()) {
      if (e.label == "test_acc" && shown++ < 3)
        std::printf("  [record] test_acc @ %s = %s\n", e.context.c_str(),
                    e.text.c_str());
    }
  }

  // ------------------------------- 2. hindsight-log the weight norm -----
  std::printf("\n== Step 2: hindsight logging — probe the weight norm ==\n");
  std::printf("  (the probe was never in the original script; no retraining"
              " happens)\n");
  {
    ClusterPlanOptions request;
    request.run_prefix = "runs/quickstart";
    request.costs = sim::PaperPlatformCosts();
    auto result = exec::Replay(ReplayEngine::kSimulated, env->fs(), request,
                               MakeWorkloadFactory(profile, kProbeOuter));
    FLOR_CHECK(result.ok()) << result.status().ToString();

    std::printf("  replay latency: %s (vs %s of training) — %.0fx faster\n",
                HumanSeconds(result->latency_seconds).c_str(),
                HumanSeconds(profile.VanillaSeconds()).c_str(),
                profile.VanillaSeconds() / result->latency_seconds);
    std::printf("  training loops skipped via memoization: %lld of %lld\n",
                static_cast<long long>(result->skipblocks.skipped),
                static_cast<long long>(profile.epochs));
    std::printf("  deferred correctness check: %s\n",
                result->deferred.ok ? "PASSED" : "FAILED");
    std::printf("  hindsight logs produced:\n");
    for (size_t i = 0; i < result->probe_entries.size(); i += 5) {
      const auto& e = result->probe_entries[i];
      std::printf("    weight_norm @ %s = %s\n", e.context.c_str(),
                  e.text.c_str());
    }
  }

  std::printf("\nDone. See examples/alice_swa_debugging.cc for the paper's "
              "§2.1 debugging story.\n");
  return 0;
}

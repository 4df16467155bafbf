// Search & cross-run queries — the paper's §8 future work, working.
//
// Part 1 (search replay): "we want to find the iteration where convergence
// begins, and look forward enough to be confident the pattern is
// permanent." Binary search over the recorded epochs, each probe a
// single-epoch sampling replay.
//
// Part 2 (queries across versions): scan a directory of record runs for the
// exploding/vanishing-gradient pattern — the paper's example of "looking
// for past Flor logs from colleagues" — using hindsight probes to obtain
// gradient magnitudes that were never logged at record time.

#include <cstdio>

#include "common/strings.h"
#include "exec/replay_executor.h"
#include "flor/query.h"
#include "flor/record.h"
#include "flor/search.h"
#include "workloads/programs.h"

using namespace flor;
using namespace flor::workloads;

namespace {

WorkloadProfile DemoProfile(uint64_t seed) {
  WorkloadProfile p;
  p.name = "conv-demo";
  p.epochs = 48;
  p.sim_epoch_seconds = 180;
  p.sim_outer_seconds = 3;
  p.sim_preamble_seconds = 15;
  p.sim_ckpt_raw_bytes = 32ull << 20;
  p.task_kind = data::Task::kVision;
  p.real_samples = 64;
  p.real_batch = 16;
  p.real_feature_dim = 24;
  p.real_classes = 4;
  p.real_hidden = 20;
  p.seed = seed;
  return p;
}

}  // namespace

int main() {
  MemFileSystem fs;
  const WorkloadProfile profile = DemoProfile(91);

  std::printf("== Record a %lld-epoch run (~%s simulated) ==\n",
              static_cast<long long>(profile.epochs),
              HumanSeconds(profile.VanillaSeconds()).c_str());
  {
    Env env(std::make_unique<SimClock>(), &fs);
    auto instance = MakeWorkloadFactory(profile, kProbeNone)();
    FLOR_CHECK(instance.ok());
    RecordOptions opts = DefaultRecordOptions(profile, "runs/conv");
    RecordSession session(&env, opts);
    exec::Frame frame;
    FLOR_CHECK(session.Run(instance->program.get(), &frame).ok());
  }

  // ---------------------------------------------------------------------
  std::printf("\n== Part 1: binary-search the past for convergence ==\n");
  std::printf("  question: first epoch where the mean per-batch loss drops "
              "below 0.05\n");
  {
    Env env(std::make_unique<SimClock>(), &fs);
    SearchOptions opts;
    opts.run_prefix = "runs/conv";
    opts.confirm_epochs = 2;  // "look forward enough to be confident"
    auto factory = MakeWorkloadFactory(profile, kProbeInner);
    auto result = SearchReplay(
        &env, factory,
        [](int64_t, const std::vector<exec::LogEntry>& entries)
            -> Result<bool> {
          double sum = 0;
          int n = 0;
          for (const auto& e : entries) {
            if (e.label != "loss") continue;
            sum += std::strtod(e.text.c_str(), nullptr);
            ++n;
          }
          if (n == 0) return Status::Internal("no loss entries in epoch");
          return sum / n < 0.05;
        },
        opts);
    FLOR_CHECK(result.ok()) << result.status().ToString();

    std::printf("  convergence begins at epoch %lld (confirmed over the "
                "next 2 epochs: %s)\n",
                static_cast<long long>(result->found_epoch),
                result->confirmed ? "yes" : "no");
    std::printf("  probe schedule (%zu single-epoch replays vs %lld-epoch "
                "full scan):",
                result->probed_epochs.size(),
                static_cast<long long>(profile.epochs));
    for (int64_t e : result->probed_epochs)
      std::printf(" %lld", static_cast<long long>(e));
    std::printf("\n  total probe latency: %s (full re-execution would be "
                "%s)\n",
                HumanSeconds(result->total_latency_seconds).c_str(),
                HumanSeconds(profile.VanillaSeconds()).c_str());
  }

  // ---------------------------------------------------------------------
  std::printf("\n== Part 2: query a fleet of past runs for the "
              "exploding/vanishing pattern ==\n");
  // Record two more "colleagues'" runs with different seeds.
  for (uint64_t seed : {92, 93}) {
    WorkloadProfile colleague = DemoProfile(seed);
    colleague.epochs = 12;
    Env env(std::make_unique<SimClock>(), &fs);
    auto instance = MakeWorkloadFactory(colleague, kProbeNone)();
    FLOR_CHECK(instance.ok());
    RecordOptions opts = DefaultRecordOptions(
        colleague, StrCat("runs/colleague", seed));
    RecordSession session(&env, opts);
    exec::Frame frame;
    FLOR_CHECK(session.Run(instance->program.get(), &frame).ok());
  }

  auto runs = ListRuns(&fs, "runs");
  FLOR_CHECK(runs.ok());
  std::printf("  discovered %zu record runs under runs/\n", runs->size());
  for (const auto& run : *runs) {
    // The gradient magnitudes were never logged at record time — obtain
    // them by hindsight replay, then test the pattern.
    WorkloadProfile p = DemoProfile(91);
    if (run.prefix == "runs/colleague92") p = DemoProfile(92);
    if (run.prefix == "runs/colleague93") p = DemoProfile(93);
    if (run.prefix != "runs/conv") p.epochs = 12;

    ClusterPlanOptions request;
    request.run_prefix = run.prefix;
    // Sample a handful of epochs: enough to see the shape cheaply.
    for (int64_t e = 0; e < p.epochs; e += std::max<int64_t>(1, p.epochs / 6))
      request.sample_epochs.push_back(e);
    auto rr = exec::Replay(ReplayEngine::kSimulated, &fs, request,
                           MakeWorkloadFactory(p, kProbeInner));
    FLOR_CHECK(rr.ok()) << rr.status().ToString();
    FLOR_CHECK(rr->deferred.ok);

    std::vector<double> grads;
    for (const auto& e : rr->probe_entries)
      if (e.label == "grad_norm")
        grads.push_back(std::strtod(e.text.c_str(), nullptr));
    const bool pattern = ShowsExplodingVanishingPattern(grads);
    std::printf("  %-18s workload=%-10s grad samples=%zu  "
                "exploding/vanishing: %s\n",
                run.prefix.c_str(), run.workload.c_str(), grads.size(),
                pattern ? "YES" : "no");
  }
  std::printf("\n(The healthy runs above report 'no'; the detector and the "
              "probe machinery are\nexercised adversarially in "
              "tests/search_query_test.cc.)\n");
  return 0;
}

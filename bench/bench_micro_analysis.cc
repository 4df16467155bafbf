// Micro benchmarks (google-benchmark) for the static machinery: side-effect
// analysis / instrumentation, program rendering, version diffing, and the
// weak-init exactness pass with the init-mode resolution — the costs Flor
// pays once per record or replay launch (§5.2, §5.4.2).

#include <benchmark/benchmark.h>

#include "analysis/weak_init.h"
#include "flor/instrument.h"
#include "flor/partition.h"
#include "ir/builder.h"
#include "ir/diff.h"
#include "workloads/programs.h"
#include "workloads/profiles.h"

namespace flor {
namespace {

/// Builds a synthetic training-script program with `loops` nested-loop
/// bodies of `stmts` statements each.
std::unique_ptr<ir::Program> MakeProgram(int loops, int stmts,
                                         bool with_probe = false) {
  ir::ProgramBuilder b;
  b.CallAssign({"net"}, "build_model", {}, nullptr);
  b.CallAssign({"optimizer"}, "make_optimizer", {"net"}, nullptr);
  b.BeginLoop("e", 100);
  for (int l = 0; l < loops; ++l) {
    b.BeginLoop("i" + std::to_string(l), 50);
    for (int s = 0; s < stmts; ++s) {
      b.CallAssign({"tmp" + std::to_string(s)}, "f",
                   {"net", "tmp" + std::to_string(s ? s - 1 : 0)}, nullptr);
    }
    b.MethodCall("optimizer", "step", {}, nullptr);
    if (with_probe && l == 0) {
      b.Log("probe", [](exec::Frame*) { return std::string("x"); });
    }
    b.EndLoop();
  }
  b.OpaqueCall("save_checkpoint", {"net"}, nullptr);
  b.EndLoop();
  return b.Build();
}

void BM_InstrumentProgram(benchmark::State& state) {
  for (auto _ : state) {
    auto program =
        MakeProgram(static_cast<int>(state.range(0)),
                    static_cast<int>(state.range(1)));
    InstrumentReport report = InstrumentProgram(program.get());
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_InstrumentProgram)->Args({2, 8})->Args({4, 32})->Args({8, 128});

void BM_RenderSource(benchmark::State& state) {
  auto program = MakeProgram(4, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::string src = program->RenderSource();
    benchmark::DoNotOptimize(src);
  }
}
BENCHMARK(BM_RenderSource)->Arg(8)->Arg(64)->Arg(256);

void BM_DiffForProbes(benchmark::State& state) {
  auto recorded = MakeProgram(4, static_cast<int>(state.range(0)));
  const std::string source = recorded->RenderSource();
  auto probed =
      MakeProgram(4, static_cast<int>(state.range(0)), /*with_probe=*/true);
  for (auto _ : state) {
    auto report = ir::DiffForProbes(source, *probed);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_DiffForProbes)->Arg(8)->Arg(64)->Arg(256);

// The weak-init exactness pass plus the init-mode resolution of a default
// request, as every replay plan runs them: on the workload program with a
// probe outside the training loop (the replay_partial program), its
// training loop's checkpointed names and 6 densely checkpointed epochs.
void BM_ResolveInitMode(benchmark::State& state) {
  auto profile = workloads::WorkloadByName("Cifr");
  if (!profile.ok()) {
    state.SkipWithError(profile.status().ToString().c_str());
    return;
  }
  auto instance =
      workloads::MakeWorkloadFactory(*profile, workloads::kProbeOuter)();
  if (!instance.ok()) {
    state.SkipWithError(instance.status().ToString().c_str());
    return;
  }
  ir::Program* program = instance->program.get();
  InstrumentProgram(program);
  const std::map<int32_t, std::vector<std::string>> names{
      {SkippableEpochLoops(program).front()->id(),
       {"net", "optimizer", "scheduler"}}};
  const std::vector<int64_t> boundaries{0, 1, 2, 3, 4, 5};
  for (auto _ : state) {
    const bool exact =
        analysis::AnalyzeWeakInit(*program->MainLoop(), names).exact;
    InitMode mode = ResolveInitMode(InitMode::kAuto, exact,
                                    DenseCheckpoints(6, boundaries));
    benchmark::DoNotOptimize(mode);
  }
}
BENCHMARK(BM_ResolveInitMode);

}  // namespace
}  // namespace flor

// Shared helpers for the figure/table reproduction harnesses.

#ifndef FLOR_BENCH_BENCH_UTIL_H_
#define FLOR_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/strings.h"
#include "exec/replay_executor.h"
#include "flor/record.h"
#include "flor/replay.h"
#include "sim/cluster.h"
#include "sim/cost_model.h"
#include "workloads/profiles.h"
#include "workloads/programs.h"

namespace flor {
namespace bench {

/// True when BENCH_SMOKE is set (to anything but "" or "0") in the
/// environment: benches shrink to a compile-and-run check so CI's
/// `bench_smoke` ctest label stays cheap.
inline bool SmokeMode() {
  static const bool smoke = [] {
    const char* v = std::getenv("BENCH_SMOKE");
    return v != nullptr && v[0] != '\0' &&
           !(v[0] == '0' && v[1] == '\0');
  }();
  return smoke;
}

/// Iteration/trial count: `full` normally, `smoke` under BENCH_SMOKE=1.
inline int SmokeIters(int full, int smoke = 1) {
  return SmokeMode() ? smoke : full;
}

/// Machine-readable result capture: when BENCH_JSON=<path> is set in the
/// environment, every Row()/Field() call is accumulated and written to
/// <path> on destruction as {"bench": ..., "rows": [...]}; otherwise the
/// whole object is a no-op. Lets perf PRs diff measured numbers instead of
/// copy-pasting terminal tables (see README "Benchmark JSON capture").
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name)
      : bench_name_(std::move(bench_name)) {
    const char* path = std::getenv("BENCH_JSON");
    if (path != nullptr && path[0] != '\0') path_ = path;
  }

  ~BenchJson() {
    if (path_.empty()) return;
    std::string out = StrCat("{\"bench\": \"", bench_name_, "\",\n");
    out += StrCat(" \"smoke\": ", SmokeMode() ? "true" : "false",
                  ",\n \"rows\": [\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      out += "  {" + rows_[i] + "}";
      out += i + 1 < rows_.size() ? ",\n" : "\n";
    }
    out += " ]\n}\n";
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "BENCH_JSON: cannot open %s\n", path_.c_str());
      return;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
  }

  /// Starts a new result row.
  BenchJson& Row() {
    rows_.emplace_back();
    return *this;
  }

  BenchJson& Field(const char* key, const std::string& v) {
    return Raw(key, StrCat("\"", Escaped(v), "\""));
  }
  BenchJson& Field(const char* key, const char* v) {
    return Field(key, std::string(v));
  }
  BenchJson& Field(const char* key, double v) {
    return Raw(key, StrFormat("%.9g", v));
  }
  BenchJson& Field(const char* key, int64_t v) {
    return Raw(key, StrCat(v));
  }
  BenchJson& Field(const char* key, int v) {
    return Field(key, static_cast<int64_t>(v));
  }
  BenchJson& Field(const char* key, bool v) {
    return Raw(key, v ? "true" : "false");
  }

 private:
  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  BenchJson& Raw(const char* key, std::string value) {
    if (path_.empty()) return *this;
    std::string& row = rows_.back();
    if (!row.empty()) row += ", ";
    row += StrCat("\"", key, "\": ", value);
    return *this;
  }

  std::string bench_name_;
  std::string path_;
  std::vector<std::string> rows_;
};

/// The workloads a bench should sweep: the paper's full Table-3 set
/// normally, just the first profile under BENCH_SMOKE=1.
inline std::vector<workloads::WorkloadProfile> BenchWorkloads() {
  std::vector<workloads::WorkloadProfile> all = workloads::AllWorkloads();
  if (SmokeMode() && all.size() > 1) all.resize(1);
  return all;
}

/// The standard workload for the *real* (wall-clock) replay engine: dense
/// checkpoints so the main loop partitions anywhere, and a per-batch
/// blocking device cost (WorkloadProfile::wall_batch_seconds) so measured
/// parallel speedup reflects the paper's GPU-bound overlap rather than how
/// fast this host multiplies tiny matrices. Epoch count divides evenly by
/// 4 so the 4-thread curve is not load-balance-capped.
inline workloads::WorkloadProfile ExecutorWorkload() {
  workloads::WorkloadProfile p;
  p.name = "Exec";
  p.benchmark = "real-engine";
  p.task = "classification";
  p.model = "MLP";
  p.dataset = "synthetic";
  p.epochs = SmokeMode() ? 8 : 16;
  p.sim_epoch_seconds = 100;  // cheap ckpts vs epoch cost -> dense
  p.sim_outer_seconds = 2;
  p.sim_preamble_seconds = 5;
  p.sim_ckpt_raw_bytes = 1 << 20;
  p.wall_batch_seconds = SmokeMode() ? 0.002 : 0.010;
  p.ckpt_shards = 4;  // real-engine workers read from a sharded store
  p.task_kind = data::Task::kVision;
  p.real_samples = 128;
  p.real_batch = 16;  // 8 batches/epoch
  p.real_feature_dim = 24;
  p.real_classes = 4;
  p.real_hidden = 24;
  p.seed = 4031;
  return p;
}

/// Vanilla (no-Flor) simulated run of a workload program; returns runtime.
inline double RunVanilla(FileSystem* fs,
                         const workloads::WorkloadProfile& profile,
                         uint32_t probes) {
  Env env(std::make_unique<SimClock>(), fs);
  auto instance = workloads::MakeWorkloadFactory(profile, probes)();
  FLOR_CHECK(instance.ok()) << instance.status().ToString();
  exec::Frame frame;
  auto result = VanillaRun(&env, instance->program.get(), &frame);
  FLOR_CHECK(result.ok()) << result.status().ToString();
  return result->runtime_seconds;
}

/// Flor record of a workload into `fs` under `run_prefix`.
inline RecordResult RunRecord(FileSystem* fs,
                              const workloads::WorkloadProfile& profile,
                              const std::string& run_prefix,
                              bool adaptive_enabled = true,
                              MaterializeStrategy strategy =
                                  MaterializeStrategy::kFork) {
  Env env(std::make_unique<SimClock>(), fs);
  auto instance =
      workloads::MakeWorkloadFactory(profile, workloads::kProbeNone)();
  FLOR_CHECK(instance.ok()) << instance.status().ToString();
  RecordOptions opts = workloads::DefaultRecordOptions(profile, run_prefix);
  opts.adaptive.enabled = adaptive_enabled;
  opts.materializer.strategy = strategy;
  RecordSession session(&env, opts);
  exec::Frame frame;
  auto result = session.Run(instance->program.get(), &frame);
  FLOR_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Fraction formatter ("8.3%").
inline std::string Pct(double fraction) {
  return StrFormat("%.2f%%", fraction * 100.0);
}

inline void Hr() {
  std::printf(
      "--------------------------------------------------------------------"
      "----------\n");
}

}  // namespace bench
}  // namespace flor

#endif  // FLOR_BENCH_BENCH_UTIL_H_

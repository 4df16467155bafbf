// bench_hindsight — wall-clock benchmark of Flor record, replay and the wire
// service, run on the real code over PosixFileSystem with no simulated clock
// and no per-batch device sleeps (wall_batch_seconds = 0).
//
//   bench_hindsight --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <path>] [--scratch <dir>]
//
// Workloads (one per process, so peak memory is per workload):
//   record_ckpt_heavy  record with a 4.2 MB checkpoint per epoch, spooled to
//                      a bucket prefix: snapshot, serialize, LZ, store, spool;
//   replay_inner       parallel replay (G = 3) with a probe inside the
//                      training loop: full re-execution, 15 small restores;
//   replay_partial     parallel replay (G = 3) with a probe outside the
//                      training loop, 12.7 MB checkpoints: every epoch
//                      restored, every training loop skipped;
//   service_wire       three closed-loop wire clients against one
//                      flor::Server: record, 20 x (query, exists), replay.
//
// Absolute seconds drift on a shared host while paired ratios stay steady,
// so every measured operation alternates with a vanilla run of the same
// program (the first pair is warm-up); the gated time is the ratio of total
// operation time to total vanilla time over the pairs, and raw seconds are
// reported per layer. Set-up runs three times and its median is reported.
//
// With --trace 1 the pairs alternate untraced and traced (and, for the
// service, an in-process Session cycle); the traced ones run over a
// TimedFileSystem and record spans (trace.h), which feed the per-layer
// metrics and the Chrome-trace file. End-to-end metrics come from
// --trace 0 runs.
//
// Every metric is printed as "name unit n median q1 q3"; the last line of
// stdout is one JSON object {correct, attempted, failed, metrics} holding
// the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// BENCH_SMOKE=1 shrinks every workload to one pair, two epochs and two
// service cycles.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "common/random.h"
#include "common/strings.h"
#include "env/env.h"
#include "env/scratch.h"
#include "exec/replay_executor.h"
#include "flor/record.h"
#include "flor/replay.h"
#include "flor/replay_plan.h"
#include "serialize/coding.h"
#include "serialize/compress.h"
#include "serialize/frame.h"
#include "service/server.h"
#include "service/service.h"
#include "service/wire.h"
#include "trace.h"
#include "workloads/programs.h"

namespace hbench {
namespace {

using flor::Env;
using flor::FileSystem;
using flor::ProgramFactory;
using flor::Result;
using flor::Status;
using flor::StrCat;
using flor::StrFormat;
using flor::workloads::WorkloadProfile;
namespace stdfs = std::filesystem;

constexpr int kReplayWorkers = 3;
constexpr int kClients = 3;
constexpr int kQueriesPerCycle = 20;
constexpr int kTenantRuns = 16;
constexpr int kRotatingRuns = 4;
constexpr int kServiceReplayWorkers = 2;
constexpr int kSetupRepeats = 3;
const char kBucket[] = "s3";

bool SmokeMode() {
  const char* v = std::getenv("BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string trace_out;
  std::string scratch = ".bench_build/scratch";
};

// ------------------------------------------------------------ statistics --

/// Linear-interpolated quantile of `v` (0 when empty).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// The highest percentile with at least ten samples beyond it (the largest
/// sample when there are fewer than eleven).
double Tail(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v.size() > 10 ? v[v.size() - 11] : v.back();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                    ru.ru_stime.tv_usec);
}

// ---------------------------------------------------------------- report --

/// Metrics, operation counts and check failures of one run.
class Report {
 public:
  enum Kind { kEndToEnd, kLayer };

  void Add(const std::string& name, const std::string& unit, Kind kind,
           std::vector<double> samples) {
    metrics_.push_back({name, unit, kind, std::move(samples)});
  }
  void Add(const std::string& name, const std::string& unit, Kind kind,
           double value) {
    Add(name, unit, kind, std::vector<double>{value});
  }

  /// Counts one attempted operation; a non-empty `error` fails it.
  void Op(const std::string& error) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (error.empty()) return;
    ++failed_;
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }

  /// Prints every metric, then the result line; returns the exit code.
  int Print(bool trace) const {
    const Kind want = trace ? kLayer : kEndToEnd;
    for (const Metric& m : metrics_) {
      std::printf("%-34s %-6s n=%-5zu median=%-12.6g q1=%-12.6g q3=%-12.6g%s\n",
                  m.name.c_str(), m.unit.c_str(), m.samples.size(),
                  Median(m.samples), Quantile(m.samples, 0.25),
                  Quantile(m.samples, 0.75),
                  m.kind == kEndToEnd ? "  [end-to-end]" : "");
    }
    std::printf("%-34s %-6s %.6g (%lld of %lld operations)\n", "failed_frac",
                "frac",
                attempted_ > 0 ? static_cast<double>(failed_) /
                                     static_cast<double>(attempted_)
                               : 1.0,
                static_cast<long long>(failed_),
                static_cast<long long>(attempted_));
    std::string json = "{";
    for (const Metric& m : metrics_) {
      if (m.kind != want) continue;
      json += StrCat(json.size() > 1 ? ", " : "", "\"", m.name, "\": ",
                     StrFormat("{\"value\": %.12g, \"unit\": \"%s\"}",
                               Median(m.samples), m.unit.c_str()));
    }
    json += "}";
    const bool correct = failed_ == 0 && attempted_ > 0;
    std::printf(
        "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
        "\"metrics\": %s}\n",
        correct ? "true" : "false",
        static_cast<long long>(std::max<int64_t>(attempted_, 1)),
        static_cast<long long>(failed_), json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

 private:
  struct Metric {
    std::string name;
    std::string unit;
    Kind kind;
    std::vector<double> samples;
  };
  std::vector<Metric> metrics_;
  std::mutex mu_;  ///< guards the counters (service clients report too)
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

constexpr Report::Kind kE2E = Report::kEndToEnd;
constexpr Report::Kind kLayer = Report::kLayer;

// ---------------------------------------------------------------- pairs --

/// Per-kind samples of the alternating vanilla/operation pairs.
struct Pairs {
  std::vector<double> vanilla;
  std::vector<double> op;

  /// Total operation time over total vanilla time. Single runs of either
  /// side vary by about 15% in both directions with little correlation
  /// between the two sides of a pair, and the spread is often bimodal, so
  /// the ratio of totals is steadier across runs than the median of pair
  /// ratios (4-9% against 7-15% over ten seeds of replay_inner).
  double Ratio() const {
    double v = 0, p = 0;
    for (double x : vanilla) v += x;
    for (double x : op) p += x;
    return v > 0 ? p / v : 0;
  }
};

/// Pair kinds: the discarded warm-up, untraced, traced (--trace 1), and an
/// in-process Session cycle (service, --trace 1).
enum PairKind { kWarmup = -1, kUntraced = 0, kTraced = 1, kInProcess = 2 };

/// Runs a warm-up pair, then pairs until `seconds` have passed
/// (at least three of each kind), cycling through `num_kinds` kinds. Which
/// side runs first alternates per round of kinds, starting from the seed's
/// parity. Each pair runs under one workload-iteration span.
std::vector<Pairs> RunPairs(const Options& o, int num_kinds,
                            const std::function<double(int kind)>& vanilla,
                            const std::function<double(int kind)>& op) {
  std::vector<Pairs> out(static_cast<size_t>(num_kinds));
  const int warmup = SmokeMode() ? 0 : 1;
  const int min_pairs = (SmokeMode() ? 1 : 3) * num_kinds;
  double start = NowSeconds();
  for (int k = 0;; ++k) {
    const int measured = k - warmup;
    if (measured == 0) start = NowSeconds();
    if (measured >= min_pairs && measured % num_kinds == 0 &&
        (SmokeMode() || NowSeconds() - start >= o.seconds)) {
      break;
    }
    const int kind = measured < 0 ? kWarmup : measured % num_kinds;
    const bool vanilla_first =
        (static_cast<uint64_t>(k / num_kinds) + o.seed) % 2 == 0;
    Tracer::Get().set_enabled(kind == kTraced);
    double v = 0, p = 0;
    {
      ScopedSpan iteration("iteration", k);
      Tracer::Get().set_iteration(iteration.id(), k);
      if (vanilla_first) {
        v = vanilla(kind);
        p = op(kind);
      } else {
        p = op(kind);
        v = vanilla(kind);
      }
      Tracer::Get().set_iteration(0, -1);
    }
    Tracer::Get().set_enabled(false);
    if (measured < 0) continue;
    Pairs& pk = out[static_cast<size_t>(kind)];
    pk.vanilla.push_back(v);
    pk.op.push_back(p);
  }
  return out;
}

/// trace.overhead_frac: traced over untraced pair ratio, minus 1.
void AddTraceOverhead(const std::vector<Pairs>& pairs, Report* rep) {
  if (pairs.size() < 2) return;
  const double untraced = pairs[kUntraced].Ratio();
  rep->Add("trace.overhead_frac", "frac", kLayer,
           untraced > 0 ? pairs[kTraced].Ratio() / untraced - 1 : 0);
}

// -------------------------------------------------------------- programs --

/// An MLP dim->hidden->hidden->10 trained with SGD momentum, whose
/// checkpoint (weights + momentum) is taken once per epoch.
WorkloadProfile MlpProfile(const char* name, uint64_t seed, int64_t epochs,
                           int64_t dim, int64_t hidden, int64_t samples,
                           int64_t batch) {
  WorkloadProfile p;
  p.name = name;
  p.benchmark = "hindsight_bench";
  p.task = "classification";
  p.model = "MLP";
  p.dataset = "synthetic";
  p.epochs = epochs;
  p.ckpt_shards = 4;
  p.real_feature_dim = dim;
  p.real_hidden = hidden;
  p.real_classes = 10;
  p.real_samples = samples;
  p.real_batch = batch;
  p.seed = 1000 + seed;
  return p;
}

flor::RecordOptions BenchRecordOptions(const WorkloadProfile& p,
                                       const std::string& run_prefix) {
  flor::RecordOptions opts =
      flor::workloads::DefaultRecordOptions(p, run_prefix);
  opts.adaptive.enabled = false;  // one checkpoint per epoch, every run
  opts.nominal_checkpoint_bytes = 0;
  return opts;
}

/// Wraps `inner` so every instance build adds its wall time to `*nanos`.
ProgramFactory TimedFactory(ProgramFactory inner,
                            std::shared_ptr<std::atomic<int64_t>> nanos) {
  return [inner = std::move(inner), nanos]() {
    ScopedSpan span("exec.instance_build");
    const double start = NowSeconds();
    auto instance = inner();
    nanos->fetch_add(static_cast<int64_t>((NowSeconds() - start) * 1e9));
    return instance;
  };
}

/// (label, context, text) of the entries labelled `label` (all when empty).
std::vector<std::string> EntryTexts(const std::vector<flor::exec::LogEntry>& es,
                                    const std::string& label) {
  std::vector<std::string> out;
  for (const auto& e : es) {
    if (!label.empty() && e.label != label) continue;
    out.push_back(StrCat(e.label, "\t", e.context, "\t", e.text));
  }
  return out;
}

/// Vanilla run of a fresh instance; returns its wall time, or -1 when the
/// build or the run fails.
double TimedVanilla(const ProgramFactory& factory,
                    flor::exec::LogStream* logs_out) {
  ScopedSpan span("exec.vanilla");
  auto instance = factory();
  if (!instance.ok()) return -1;
  Env env(std::make_unique<flor::WallClock>(),
          static_cast<FileSystem*>(nullptr));
  flor::exec::Frame frame;
  const double start = NowSeconds();
  auto r = flor::VanillaRun(&env, instance->program.get(), &frame);
  const double secs = NowSeconds() - start;
  if (!r.ok()) return -1;
  if (logs_out != nullptr) *logs_out = std::move(r->logs);
  return secs;
}

/// Measures `fn` kSetupRepeats times (once under smoke) and reports the
/// median as setup_s; the last repetition's state is the one kept.
template <typename Fn>
Status RepeatSetup(Report* rep, Fn fn) {
  std::vector<double> secs;
  const int repeats = SmokeMode() ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    const double start = NowSeconds();
    FLOR_RETURN_IF_ERROR(fn(i));
    secs.push_back(NowSeconds() - start);
  }
  rep->Add("setup_s", "s", kE2E, secs);
  return Status::OK();
}

// ------------------------------------------------------ checkpoint layer --

/// Stored-size accounting and a re-timing of the codec on a run's own
/// checkpoints.
struct CkptLayer {
  int64_t count = 0;
  double raw_bytes = 0;       ///< manifest raw snapshot bytes
  double stored_bytes = 0;    ///< object sizes in the listing
  double serialize_s = 0, compress_s = 0, frame_s = 0;
  double unframe_s = 0, decompress_s = 0, decode_s = 0;
  int64_t lz = 0;
};

Result<CkptLayer> MeasureCheckpoints(FileSystem* fs,
                                     const std::string& run_prefix,
                                     const std::string& bucket, bool retime) {
  const flor::RunPaths paths(run_prefix);
  FLOR_ASSIGN_OR_RETURN(std::string mbytes, fs->ReadFile(paths.Manifest()));
  FLOR_ASSIGN_OR_RETURN(flor::Manifest manifest,
                        flor::Manifest::Deserialize(mbytes));
  flor::TierOptions tier;
  tier.bucket_prefix = bucket;
  tier.bucket_rehydrate = false;
  auto store =
      flor::CheckpointStore::Open(fs, paths.CkptPrefix(), tier, &manifest);
  CkptLayer out;
  for (const flor::CheckpointRecord& rec : manifest.records) {
    ++out.count;
    out.raw_bytes += static_cast<double>(rec.raw_bytes);
    auto size = fs->FileSize(store->PathFor(rec.key));
    if (!size.ok() && store->has_bucket())
      size = fs->FileSize(store->BucketPathFor(rec.key));
    if (!size.ok()) return size.status();
    out.stored_bytes += static_cast<double>(*size);
    if (!retime) continue;

    FLOR_ASSIGN_OR_RETURN(std::string bytes, store->GetBytes(rec.key));
    double t = NowSeconds();
    flor::FrameReader reader(bytes);
    std::string compressed;
    FLOR_RETURN_IF_ERROR(reader.Next(&compressed));
    out.unframe_s += NowSeconds() - t;
    FLOR_ASSIGN_OR_RETURN(flor::Codec codec, flor::PeekCodec(compressed));
    if (codec == flor::Codec::kLz) ++out.lz;
    t = NowSeconds();
    FLOR_ASSIGN_OR_RETURN(std::string payload, flor::Decompress(compressed));
    out.decompress_s += NowSeconds() - t;

    t = NowSeconds();
    flor::Decoder dec(payload);
    uint64_t n = 0;
    FLOR_RETURN_IF_ERROR(dec.GetVarint64(&n));
    flor::NamedSnapshots snaps;
    for (uint64_t i = 0; i < n; ++i) {
      std::string name;
      FLOR_RETURN_IF_ERROR(dec.GetLengthPrefixed(&name));
      FLOR_ASSIGN_OR_RETURN(flor::ir::ValueSnapshot snap,
                            flor::DecodeSnapshot(&dec));
      snaps.emplace_back(std::move(name), std::move(snap));
    }
    out.decode_s += NowSeconds() - t;

    t = NowSeconds();
    std::string reencoded;
    flor::PutVarint64(&reencoded, snaps.size());
    for (const auto& [name, snap] : snaps) {
      flor::PutLengthPrefixed(&reencoded, name);
      flor::EncodeSnapshot(&reencoded, snap);
    }
    out.serialize_s += NowSeconds() - t;
    t = NowSeconds();
    const std::string recompressed = flor::Compress(reencoded, flor::Codec::kLz);
    out.compress_s += NowSeconds() - t;
    t = NowSeconds();
    std::string framed;
    flor::AppendFrame(&framed, recompressed);
    out.frame_s += NowSeconds() - t;
    if (framed != bytes) {
      return Status::Corruption(
          StrCat("re-encoded checkpoint ", rec.key.ToString(),
                 " differs from the stored object"));
    }
  }
  if (out.count == 0) return Status::NotFound("run has no checkpoints");
  return out;
}

void AddCkptLayer(const CkptLayer& c, Report* rep) {
  rep->Add("ckpt.count", "count", kLayer, static_cast<double>(c.count));
  rep->Add("ckpt.raw_bytes", "bytes", kLayer, c.raw_bytes);
  rep->Add("ckpt.stored_bytes", "bytes", kLayer, c.stored_bytes);
  rep->Add("ckpt.serialize_s", "s", kLayer, c.serialize_s);
  rep->Add("ckpt.compress_s", "s", kLayer, c.compress_s);
  rep->Add("ckpt.frame_s", "s", kLayer, c.frame_s);
  rep->Add("ckpt.unframe_s", "s", kLayer, c.unframe_s);
  rep->Add("ckpt.decompress_s", "s", kLayer, c.decompress_s);
  rep->Add("ckpt.decode_s", "s", kLayer, c.decode_s);
  rep->Add("ckpt.codec_lz_frac", "frac", kLayer,
           static_cast<double>(c.lz) / static_cast<double>(c.count));
}

// ------------------------------------------------------------- env layer --

/// Per-traced-operation FileSystem deltas.
struct EnvSamples {
  std::vector<double> write_calls, write_ckpt, write_bucket, write_meta,
      write_busy, read_calls, read_bytes, read_busy, list_calls, list_busy,
      delete_calls;

  void Add(const TimedFileSystem::Counters& d) {
    write_calls.push_back(static_cast<double>(d.write_calls));
    write_ckpt.push_back(static_cast<double>(d.write_bytes[0]));
    write_bucket.push_back(static_cast<double>(d.write_bytes[1]));
    write_meta.push_back(static_cast<double>(d.write_bytes[2]));
    write_busy.push_back(d.write_busy_s);
    read_calls.push_back(static_cast<double>(d.read_calls));
    read_bytes.push_back(static_cast<double>(d.read_bytes));
    read_busy.push_back(d.read_busy_s);
    list_calls.push_back(static_cast<double>(d.list_calls));
    list_busy.push_back(d.list_busy_s);
    delete_calls.push_back(static_cast<double>(d.delete_calls));
  }

  void Report(hbench::Report* rep) const {
    rep->Add("env.write_calls", "count", kLayer, write_calls);
    rep->Add("env.write_bytes.ckpt", "bytes", kLayer, write_ckpt);
    rep->Add("env.write_bytes.bucket", "bytes", kLayer, write_bucket);
    rep->Add("env.write_bytes.meta", "bytes", kLayer, write_meta);
    rep->Add("env.write_busy_s", "s", kLayer, write_busy);
    rep->Add("env.read_calls", "count", kLayer, read_calls);
    rep->Add("env.read_bytes", "bytes", kLayer, read_bytes);
    rep->Add("env.read_busy_s", "s", kLayer, read_busy);
    rep->Add("env.list_calls", "count", kLayer, list_calls);
    rep->Add("env.list_busy_s", "s", kLayer, list_busy);
    rep->Add("env.delete_calls", "count", kLayer, delete_calls);
  }
};

/// The filesystems of one workload: the real store, and in --trace 1 runs
/// the timing decorator that traced pairs go through.
struct Store {
  std::string root;
  std::unique_ptr<flor::PosixFileSystem> posix;
  std::unique_ptr<TimedFileSystem> timed;

  Store(std::string dir, bool trace)
      : root(std::move(dir)),
        posix(std::make_unique<flor::PosixFileSystem>(root)) {
    if (trace) timed = std::make_unique<TimedFileSystem>(posix.get(), kBucket);
  }
  FileSystem* For(int kind) const {
    return kind == kTraced ? static_cast<FileSystem*>(timed.get())
                           : posix.get();
  }
};

/// Layer metrics that only some workloads produce are reported as zero on
/// the others, so every traced run prints the same metric set.
void AddZeros(const std::vector<std::pair<const char*, const char*>>& names,
              Report* rep) {
  for (const auto& [name, unit] : names) rep->Add(name, unit, kLayer, 0.0);
}

const std::vector<std::pair<const char*, const char*>> kRecordLayer = {
    {"record.main_thread_s", "s"}, {"record.main_thread_frac", "frac"},
    {"record.tail_s", "s"},        {"spool.objects", "count"},
    {"spool.bytes", "bytes"},      {"spool.batches", "count"},
    {"spool.retries", "count"},    {"group_commit.syncs", "count"}};

const std::vector<std::pair<const char*, const char*>> kReplayLayer = {
    {"replay.worker_max_s", "s"},  {"replay.worker_mean_s", "s"},
    {"replay.imbalance", "ratio"}, {"replay.coord_s", "s"},
    {"replay.plan_s", "s"},        {"replay.cpu_util", "frac"},
    {"replay.steals", "count"},    {"replay.restores", "count"},
    {"replay.skipped", "count"},   {"replay.bucket_faults", "count"}};

const std::vector<std::pair<const char*, const char*>> kServiceLayer = {
    {"svc.query_p50_s", "s"},
    {"svc.query_tail_s", "s"},
    {"svc.exists_p50_s", "s"},
    {"svc.exists_tail_s", "s"},
    {"svc.record_req_p50_s", "s"},
    {"svc.record_req_tail_s", "s"},
    {"svc.replay_req_p50_s", "s"},
    {"svc.replay_req_tail_s", "s"},
    {"svc.admission_wait_p50_s", "s"},
    {"svc.admission_wait_max_s", "s"},
    {"svc.admission_waits", "count"},
    {"svc.bucket_faults", "count"},
    {"svc.bloom_skipped_probes", "count"},
    {"svc.gc_passes", "count"},
    {"svc.gc_failures", "count"},
    {"wire.encode_s", "s"},
    {"wire.decode_s", "s"},
    {"wire.overhead_p50_s.record", "s"},
    {"wire.overhead_p50_s.replay", "s"},
    {"wire.overhead_p50_s.query", "s"},
    {"server.corrupt_messages", "count"}};

/// Metrics every workload reports from its untraced pairs and its stored
/// checkpoints. Absolute times drift with the host, so they are per-layer
/// only; the gated time is the paired ratio.
void AddPairMetrics(const Pairs& base, const CkptLayer& ckpt, Report* rep) {
  rep->Add("op_vs_vanilla", "ratio", kE2E, base.Ratio());
  rep->Add("ckpt_bytes_ratio", "ratio", kE2E,
           ckpt.stored_bytes / ckpt.raw_bytes);
  rep->Add("peak_rss_mb", "MB", kE2E, PeakRssMb());
  rep->Add("op_s", "s", kLayer, base.op);
  rep->Add("exec.vanilla_s", "s", kLayer, base.vanilla);
}

// ------------------------------------------------------- record workload --

Status RunRecordCkptHeavy(const Options& o, const std::string& scratch,
                          Report* rep) {
  // 4.2 MB checkpoints against ~0.3 s epochs: the background materializer
  // keeps up with training, so record adds the main-thread snapshot, any
  // backpressure stall and the end-of-run drain. (With shorter epochs the
  // run waits on LZ alone, and its ratio to vanilla drifts with the host's
  // LZ-to-matmul speed: 20% run-to-run spread against 5-10% here.)
  const int64_t epochs = SmokeMode() ? 2 : 3;
  const WorkloadProfile profile =
      MlpProfile("Record", o.seed, epochs, 512, 512, 384, 16);
  auto build_nanos = std::make_shared<std::atomic<int64_t>>(0);
  const ProgramFactory factory = TimedFactory(
      flor::workloads::MakeWorkloadFactory(profile,
                                           flor::workloads::kProbeNone),
      build_nanos);

  std::unique_ptr<Store> store;
  std::vector<std::string> expected;
  FLOR_RETURN_IF_ERROR(RepeatSetup(rep, [&](int i) -> Status {
    store = std::make_unique<Store>(StrCat(scratch, "/record", i), o.trace);
    flor::exec::LogStream logs;
    if (TimedVanilla(factory, &logs) < 0)
      return Status::Internal("reference vanilla run failed");
    expected = EntryTexts(logs.entries(), "");
    return Status::OK();
  }));

  const std::string run = "rec";
  std::vector<double> main_s, spool_objects, spool_bytes, spool_batches,
      spool_retries, syncs, build_s;
  EnvSamples env_samples;
  auto vanilla = [&](int) {
    flor::exec::LogStream logs;
    const double secs = TimedVanilla(factory, &logs);
    rep->Op(secs < 0 ? "vanilla run failed"
            : EntryTexts(logs.entries(), "") != expected
                ? "vanilla logs differ from the reference run"
                : "");
    return secs;
  };
  auto record = [&](int kind) {
    // Every record starts from an empty store (outside the timed call).
    std::error_code ec;
    stdfs::remove_all(store->root + "/" + run, ec);
    stdfs::remove_all(store->root + "/" + kBucket, ec);
    FileSystem* fs = store->For(kind);
    if (kind == kTraced) store->timed->set_counting(true);
    const TimedFileSystem::Counters before =
        kind == kTraced ? store->timed->Snapshot() : TimedFileSystem::Counters();
    build_nanos->store(0);
    auto instance = factory();
    if (!instance.ok()) {
      rep->Op("instance build failed");
      return 0.0;
    }
    const double build_secs = static_cast<double>(build_nanos->load()) * 1e-9;
    Env env(std::make_unique<flor::WallClock>(), fs);
    flor::RecordOptions opts = BenchRecordOptions(profile, run);
    opts.spool_prefix = kBucket;
    flor::RecordSession session(&env, opts);
    flor::exec::Frame frame;
    double secs = 0;
    Result<flor::RecordResult> r = Status::Internal("not run");
    {
      ScopedSpan span("record.run");
      const double start = NowSeconds();
      r = session.Run(instance->program.get(), &frame);
      secs = NowSeconds() - start;
    }
    if (kind == kTraced) {
      env_samples.Add(store->timed->Snapshot().Minus(before));
      store->timed->set_counting(false);
    }
    std::string err;
    if (!r.ok()) {
      err = r.status().ToString();
    } else if (static_cast<int64_t>(r->manifest.records.size()) != epochs) {
      err = StrCat("manifest has ", r->manifest.records.size(),
                   " checkpoints, expected ", epochs);
    } else if (EntryTexts(r->logs.entries(), "") != expected) {
      err = "record logs differ from the vanilla run";
    } else if (!r->spool_report.ok()) {
      err = "spool failed: " + r->spool_report.first_error;
    }
    rep->Op(err);
    if (r.ok() && kind == kUntraced) {
      build_s.push_back(build_secs);
      main_s.push_back(r->materialize_main_seconds);
      spool_objects.push_back(static_cast<double>(r->spool_report.objects));
      spool_bytes.push_back(static_cast<double>(r->spool_report.bytes));
      spool_batches.push_back(static_cast<double>(r->spool_report.batches));
      spool_retries.push_back(static_cast<double>(r->spool_report.retries));
      syncs.push_back(static_cast<double>(r->group_commit.syncs));
    }
    return secs;
  };
  const std::vector<Pairs> pairs =
      RunPairs(o, o.trace ? 2 : 1, vanilla, record);
  const Pairs& base = pairs[kUntraced];

  auto ckpt = MeasureCheckpoints(store->posix.get(), run, kBucket, o.trace);
  if (!ckpt.ok()) return ckpt.status();
  AddPairMetrics(base, *ckpt, rep);
  if (!o.trace) return Status::OK();

  env_samples.Report(rep);
  AddCkptLayer(*ckpt, rep);
  std::vector<double> frac, tail;
  for (size_t i = 0; i < main_s.size(); ++i) {
    frac.push_back(main_s[i] / base.op[i]);
    tail.push_back(base.op[i] - base.vanilla[i] - main_s[i]);
  }
  rep->Add("record.main_thread_s", "s", kLayer, main_s);
  rep->Add("record.main_thread_frac", "frac", kLayer, frac);
  rep->Add("record.tail_s", "s", kLayer, tail);
  rep->Add("spool.objects", "count", kLayer, spool_objects);
  rep->Add("spool.bytes", "bytes", kLayer, spool_bytes);
  rep->Add("spool.batches", "count", kLayer, spool_batches);
  rep->Add("spool.retries", "count", kLayer, spool_retries);
  rep->Add("group_commit.syncs", "count", kLayer, syncs);
  rep->Add("exec.epoch_s", "s", kLayer,
           Median(base.vanilla) / static_cast<double>(epochs));
  rep->Add("exec.instance_build_s", "s", kLayer, build_s);
  AddZeros(kReplayLayer, rep);
  AddZeros(kServiceLayer, rep);
  AddTraceOverhead(pairs, rep);
  return Status::OK();
}

// ------------------------------------------------------- replay workloads --

Status RunReplay(const Options& o, const std::string& scratch, bool partial,
                 Report* rep) {
  const int64_t epochs = SmokeMode() ? 2 : (partial ? 6 : 15);
  // partial: 12.7 MB checkpoints against short epochs, so restores
  // dominate; inner: 0.8 MB checkpoints against long epochs, so compute
  // dominates.
  const WorkloadProfile profile =
      partial ? MlpProfile("Partial", o.seed, epochs, 512, 1024, 32, 16)
              : MlpProfile("Inner", o.seed, epochs, 128, 256, 256, 32);
  const uint32_t probe =
      partial ? flor::workloads::kProbeOuter : flor::workloads::kProbeInner;
  const std::string probe_label = partial ? "weight_norm" : "grad_norm";
  auto build_nanos = std::make_shared<std::atomic<int64_t>>(0);
  const ProgramFactory probed = TimedFactory(
      flor::workloads::MakeWorkloadFactory(profile, probe), build_nanos);
  const std::string run = "run";

  std::unique_ptr<Store> store;
  std::vector<std::string> expected_probes;
  FLOR_RETURN_IF_ERROR(RepeatSetup(rep, [&](int i) -> Status {
    store = std::make_unique<Store>(StrCat(scratch, "/replay", i), o.trace);
    auto instance = flor::workloads::MakeWorkloadFactory(
        profile, flor::workloads::kProbeNone)();
    FLOR_RETURN_IF_ERROR(instance.status());
    Env env(std::make_unique<flor::WallClock>(), store->posix.get());
    flor::RecordSession session(&env, BenchRecordOptions(profile, run));
    flor::exec::Frame frame;
    FLOR_ASSIGN_OR_RETURN(flor::RecordResult r,
                          session.Run(instance->program.get(), &frame));
    if (static_cast<int64_t>(r.manifest.records.size()) != epochs)
      return Status::Internal("setup record is not dense");
    flor::exec::LogStream logs;
    if (TimedVanilla(probed, &logs) < 0)
      return Status::Internal("reference vanilla run failed");
    expected_probes = EntryTexts(logs.entries(), probe_label);
    return Status::OK();
  }));

  std::string first_merged;
  std::vector<double> worker_max, worker_mean, imbalance, coord, plan_s,
      cpu_util, steals, restores, skipped, faults, build_s;
  EnvSamples env_samples;
  auto vanilla = [&](int) {
    const double secs = TimedVanilla(probed, nullptr);
    rep->Op(secs < 0 ? "vanilla run failed" : "");
    return secs;
  };
  auto replay = [&](int kind) {
    FileSystem* fs = store->For(kind);
    flor::exec::ReplayExecutorOptions opts;
    opts.run_prefix = run;
    opts.num_threads = kReplayWorkers;
    opts.num_partitions = kReplayWorkers;
    if (kind == kTraced) {
      flor::ClusterPlanOptions plan;
      plan.run_prefix = run;
      plan.num_workers = kReplayWorkers;
      ScopedSpan span("replay.plan");
      const double start = NowSeconds();
      auto active = flor::PlanActiveWorkers(probed, fs, plan);
      plan_s.push_back(NowSeconds() - start);
      if (!active.ok()) rep->Op("plan failed: " + active.status().ToString());
      store->timed->set_counting(true);
    }
    const TimedFileSystem::Counters before =
        kind == kTraced ? store->timed->Snapshot() : TimedFileSystem::Counters();
    flor::exec::ReplayExecutor executor(fs, opts);
    build_nanos->store(0);
    double secs = 0, cpu = 0;
    Result<flor::exec::ReplayExecutorResult> r = Status::Internal("not run");
    {
      ScopedSpan span("replay.run");
      const double cpu_start = CpuSeconds();
      const double start = NowSeconds();
      r = executor.Run(probed);
      secs = NowSeconds() - start;
      cpu = CpuSeconds() - cpu_start;
    }
    if (kind == kTraced) {
      env_samples.Add(store->timed->Snapshot().Minus(before));
      store->timed->set_counting(false);
    }
    std::string err;
    if (!r.ok()) {
      err = r.status().ToString();
    } else if (!r->deferred.ok) {
      err = "deferred check failed: " + r->deferred.ToStatus().ToString();
    } else if (EntryTexts(r->probe_entries, probe_label) != expected_probes) {
      err = "replay probe entries differ from the vanilla probed run";
    } else {
      const std::string merged = r->merged_logs.Serialize();
      if (first_merged.empty()) first_merged = merged;
      if (merged != first_merged) err = "merged logs differ across replays";
    }
    rep->Op(err);
    if (r.ok() && kind == kUntraced) {
      double sum = 0, max = 0;
      for (double w : r->worker_seconds) {
        sum += w;
        max = std::max(max, w);
      }
      const double mean =
          sum / static_cast<double>(std::max<size_t>(1, r->worker_seconds.size()));
      worker_max.push_back(max);
      worker_mean.push_back(mean);
      imbalance.push_back(mean > 0 ? max / mean : 0);
      coord.push_back(r->wall_seconds - r->latency_seconds);
      cpu_util.push_back(cpu / (secs * kReplayWorkers));
      steals.push_back(static_cast<double>(r->steals));
      restores.push_back(static_cast<double>(r->skipblocks.restores));
      skipped.push_back(static_cast<double>(r->skipblocks.skipped));
      faults.push_back(static_cast<double>(r->bucket_faults));
      build_s.push_back(static_cast<double>(build_nanos->load()) * 1e-9);
    }
    return secs;
  };
  const std::vector<Pairs> pairs =
      RunPairs(o, o.trace ? 2 : 1, vanilla, replay);
  const Pairs& base = pairs[kUntraced];

  auto ckpt = MeasureCheckpoints(store->posix.get(), run, "", o.trace);
  if (!ckpt.ok()) return ckpt.status();
  AddPairMetrics(base, *ckpt, rep);
  if (!o.trace) return Status::OK();

  env_samples.Report(rep);
  AddCkptLayer(*ckpt, rep);
  AddZeros(kRecordLayer, rep);
  rep->Add("exec.epoch_s", "s", kLayer,
           Median(base.vanilla) / static_cast<double>(epochs));
  rep->Add("exec.instance_build_s", "s", kLayer, build_s);
  rep->Add("replay.worker_max_s", "s", kLayer, worker_max);
  rep->Add("replay.worker_mean_s", "s", kLayer, worker_mean);
  rep->Add("replay.imbalance", "ratio", kLayer, imbalance);
  rep->Add("replay.coord_s", "s", kLayer, coord);
  rep->Add("replay.plan_s", "s", kLayer, plan_s);
  rep->Add("replay.cpu_util", "frac", kLayer, cpu_util);
  rep->Add("replay.steals", "count", kLayer, steals);
  rep->Add("replay.restores", "count", kLayer, restores);
  rep->Add("replay.skipped", "count", kLayer, skipped);
  rep->Add("replay.bucket_faults", "count", kLayer, faults);
  AddZeros(kServiceLayer, rep);
  AddTraceOverhead(pairs, rep);
  return Status::OK();
}

// ------------------------------------------------------- service workload --

/// Latency samples of one pair kind, filled by the client threads.
struct ServiceSamples {
  std::mutex mu;
  std::vector<double> record, query, exists, replay, admission_wait;
  double encode_s = 0, decode_s = 0;
};

/// One Connection + Server over a fresh store, pre-populated with
/// kTenantRuns runs per tenant, with one wire client and one in-process
/// Session per tenant. Members are destroyed in reverse order: clients,
/// sessions, server, connection, env, filesystems.
struct ServiceRig {
  std::unique_ptr<Store> store;
  std::unique_ptr<Env> env;
  std::unique_ptr<flor::Connection> conn;
  std::unique_ptr<flor::Server> server;
  std::vector<std::unique_ptr<flor::Session>> sessions;
  std::vector<flor::WireClient> clients;
  std::string expected_merged;
  int32_t train_loop_id = 0;
};

flor::SessionRecordOptions ServiceRecordOptions(const WorkloadProfile& p) {
  const flor::RecordOptions r = BenchRecordOptions(p, "");
  flor::SessionRecordOptions s;
  s.workload = r.workload;
  s.materializer = r.materializer;
  s.adaptive = r.adaptive;
  return s;
}

Result<std::unique_ptr<ServiceRig>> OpenServiceRig(
    const std::string& root, bool trace, const WorkloadProfile& profile,
    const ProgramFactory& plain, const ProgramFactory& probed) {
  auto rig = std::make_unique<ServiceRig>();
  rig->store = std::make_unique<Store>(root + "/data", trace);
  // In --trace 1 runs the whole service sits on the decorator, which
  // counts only while a traced pair runs.
  FileSystem* fs = trace ? static_cast<FileSystem*>(rig->store->timed.get())
                         : rig->store->posix.get();
  rig->env = std::make_unique<Env>(std::make_unique<flor::WallClock>(), fs);
  flor::ConnectionOptions copts;
  copts.root = "svc";
  copts.ckpt_shards = profile.ckpt_shards;
  copts.tier.bucket_prefix = kBucket;
  copts.tier.bloom_filter = true;
  copts.gc.keep_last_k = 1;
  copts.max_concurrent_records = 2;
  copts.max_records_per_tenant = 1;
  FLOR_ASSIGN_OR_RETURN(rig->conn,
                        flor::Connection::Open(rig->env.get(), copts));

  flor::ServerOptions sopts;
  sopts.unix_path = root + "/wire.sock";
  const flor::SessionRecordOptions record_opts = ServiceRecordOptions(profile);
  sopts.resolve_workload =
      [plain, probed, record_opts](
          const std::string& spec) -> Result<flor::ResolvedWorkload> {
    flor::ResolvedWorkload out;
    out.record = record_opts;
    if (spec == "svc") {
      out.factory = plain;
    } else if (spec == "svc-probed") {
      out.factory = probed;
    } else {
      return Status::NotFound("unknown workload spec " + spec);
    }
    return out;
  };
  FLOR_ASSIGN_OR_RETURN(rig->server,
                        flor::Server::Start(rig->conn.get(), sopts));

  // Pre-populate through in-process sessions, one thread per tenant.
  std::vector<Status> statuses(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    FLOR_ASSIGN_OR_RETURN(auto session,
                          rig->conn->OpenSession(StrCat("t", c)));
    rig->sessions.push_back(std::move(session));
  }
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < kTenantRuns && statuses[c].ok(); ++i) {
        const std::string name =
            i < kRotatingRuns ? StrCat("c", i) : StrFormat("p%02d", i);
        auto r = rig->sessions[c]->Record(name, plain, record_opts);
        if (!r.ok()) statuses[c] = r.status();
        if (r.ok() && c == 0 && i == 0)
          rig->train_loop_id = r->manifest.records.front().key.loop_id;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& s : statuses) FLOR_RETURN_IF_ERROR(s);
  rig->conn->DrainBackground();

  for (int c = 0; c < kClients; ++c) {
    FLOR_ASSIGN_OR_RETURN(flor::WireClient client,
                          flor::WireClient::ConnectUnix(sopts.unix_path));
    rig->clients.push_back(std::move(client));
  }

  // The reference replay every later replay must match byte for byte.
  flor::wire::Request req;
  req.op = "replay";
  req.tenant = "t0";
  req.run = "c0";
  req.workload = "svc-probed";
  req.engine = "threads";
  req.workers = kServiceReplayWorkers;
  FLOR_ASSIGN_OR_RETURN(flor::wire::Response res, rig->clients[0].Call(req));
  FLOR_ASSIGN_OR_RETURN(flor::wire::ReplayReply reply,
                        flor::wire::ParseReplayReply(res));
  if (!reply.deferred_ok) return Status::Internal("reference replay failed");
  FLOR_ASSIGN_OR_RETURN(flor::exec::LogStream merged,
                        flor::exec::LogStream::Deserialize(reply.merged_logs));
  flor::exec::LogStream vanilla_logs;
  if (TimedVanilla(probed, &vanilla_logs) < 0)
    return Status::Internal("reference vanilla run failed");
  if (EntryTexts(merged.entries(), "grad_norm") !=
      EntryTexts(vanilla_logs.entries(), "grad_norm")) {
    return Status::Internal(
        "reference replay probe entries differ from the vanilla probed run");
  }
  rig->expected_merged = std::move(reply.merged_logs);
  return rig;
}

/// Sums the per-tenant read-tier counters.
void TenantTotals(const flor::ConnectionStats& s, double* faults,
                  double* bloom) {
  *faults = 0;
  *bloom = 0;
  for (const auto& [name, t] : s.tenants) {
    *faults += static_cast<double>(t.bucket_faults);
    *bloom += static_cast<double>(t.bloom_skipped_probes);
  }
}

Status RunServiceWire(const Options& o, const std::string& scratch,
                      Report* rep) {
  const int64_t epochs = SmokeMode() ? 2 : 4;
  const WorkloadProfile profile =
      MlpProfile("Svc", o.seed, epochs, 64, 128, 256, 32);
  auto build_nanos = std::make_shared<std::atomic<int64_t>>(0);
  const ProgramFactory plain = TimedFactory(
      flor::workloads::MakeWorkloadFactory(profile,
                                           flor::workloads::kProbeNone),
      build_nanos);
  const ProgramFactory probed = TimedFactory(
      flor::workloads::MakeWorkloadFactory(profile,
                                           flor::workloads::kProbeInner),
      build_nanos);
  const flor::SessionRecordOptions record_opts = ServiceRecordOptions(profile);

  std::unique_ptr<ServiceRig> rig;
  FLOR_RETURN_IF_ERROR(RepeatSetup(rep, [&](int i) -> Status {
    rig.reset();
    FLOR_ASSIGN_OR_RETURN(rig, OpenServiceRig(StrCat(scratch, "/svc", i),
                                              o.trace, profile, plain,
                                              probed));
    return Status::OK();
  }));

  std::vector<flor::Rng> rngs;
  for (int c = 0; c < kClients; ++c)
    rngs.emplace_back(o.seed * 7919 + static_cast<uint64_t>(c));
  std::vector<ServiceSamples> samples(3);  // by kind; warm-up discarded
  ServiceSamples warmup;
  int round = 0;
  int64_t request_id = 0;
  std::mutex id_mu;
  auto next_request = [&] {
    std::lock_guard<std::mutex> lock(id_mu);
    return request_id++;
  };

  // One cycle of client `c` over the wire, or in process through its
  // Session when kind == kInProcess. Returns the cycle's wall time.
  auto cycle = [&](int c, int kind, const std::string& run) -> double {
    ServiceSamples& out =
        kind == kWarmup ? warmup : samples[static_cast<size_t>(kind)];
    const std::string tenant = StrCat("t", c);
    flor::WireClient& client = rig->clients[static_cast<size_t>(c)];
    flor::Session& session = *rig->sessions[static_cast<size_t>(c)];
    flor::Rng& rng = rngs[static_cast<size_t>(c)];
    std::vector<double> record_lat, query_lat, exists_lat, replay_lat, waits;
    double encode_s = 0, decode_s = 0;
    auto call = [&](const flor::wire::Request& req, const char* span_name,
                    std::vector<double>* lat) -> Result<flor::wire::Response> {
      ScopedSpan span(span_name, next_request());
      const double start = NowSeconds();
      std::string msg;
      {
        ScopedSpan enc("wire.encode");
        msg = flor::wire::EncodeRequest(req);
      }
      encode_s += NowSeconds() - start;
      FLOR_RETURN_IF_ERROR(client.SendBytes(msg));
      auto res = client.ReadResponse();
      lat->push_back(NowSeconds() - start);
      if (res.ok() && kind == kTraced) {
        // Re-time the client-side decode on the same response bytes.
        const std::string bytes = flor::wire::EncodeResponse(*res);
        ScopedSpan dec("wire.decode");
        const double t = NowSeconds();
        auto again = flor::wire::DecodeResponse(bytes);
        decode_s += NowSeconds() - t;
        if (!again.ok()) return again.status();
      }
      if (res.ok() && !res->ok()) return res->ToStatus();
      return res;
    };
    auto timed = [&](const char* span_name, std::vector<double>* lat,
                     auto&& fn) {
      ScopedSpan span(span_name, next_request());
      const double start = NowSeconds();
      auto r = fn();
      lat->push_back(NowSeconds() - start);
      return r;
    };
    const bool wire = kind != kInProcess;
    const double start = NowSeconds();

    // record
    std::string err;
    if (wire) {
      flor::wire::Request req;
      req.op = "record";
      req.tenant = tenant;
      req.run = run;
      req.workload = "svc";
      auto res = call(req, "wire.record", &record_lat);
      auto reply = res.ok() ? flor::wire::ParseRecordReply(*res)
                            : Result<flor::wire::RecordReply>(res.status());
      if (!reply.ok()) {
        err = "record: " + reply.status().ToString();
      } else {
        waits.push_back(reply->admission_wait_seconds);
        if (reply->checkpoints != epochs) err = "record is not dense";
      }
    } else {
      auto r = timed("session.record", &record_lat,
                     [&] { return session.Record(run, plain, record_opts); });
      if (!r.ok()) err = "record: " + r.status().ToString();
      else if (static_cast<int64_t>(r->manifest.records.size()) != epochs)
        err = "record is not dense";
    }
    rep->Op(err);

    // queries and existence probes
    for (int q = 0; q < kQueriesPerCycle; ++q) {
      const std::string probe_run = StrFormat(
          "p%02d", kRotatingRuns + static_cast<int>(rng.Uniform(
                                       kTenantRuns - kRotatingRuns)));
      const bool present = rng.Bernoulli(0.5);
      flor::CheckpointKey key;
      key.loop_id = rig->train_loop_id;
      key.ctx = StrCat("e=", present ? static_cast<int64_t>(rng.Uniform(
                                           static_cast<uint64_t>(epochs)))
                                     : epochs + static_cast<int64_t>(
                                                    rng.Uniform(100)));
      err.clear();
      int64_t runs = -1;
      bool exists = !present;
      if (wire) {
        flor::wire::Request req;
        req.op = "query";
        req.tenant = tenant;
        auto res = call(req, "wire.query", &query_lat);
        auto reply = res.ok() ? flor::wire::ParseQueryReply(*res)
                              : Result<flor::wire::QueryReply>(res.status());
        if (reply.ok()) runs = static_cast<int64_t>(reply->runs.size());
        else err = "query: " + reply.status().ToString();
        req.op = "exists";
        req.run = probe_run;
        req.loop_id = key.loop_id;
        req.ctx = key.ctx;
        res = call(req, "wire.exists", &exists_lat);
        auto ex = res.ok() ? flor::wire::ParseExistsReply(*res)
                           : Result<flor::wire::ExistsReply>(res.status());
        if (ex.ok()) exists = ex->exists;
        else err = "exists: " + ex.status().ToString();
      } else {
        auto r = timed("session.query", &query_lat,
                       [&] { return session.Query(); });
        if (r.ok()) runs = static_cast<int64_t>(r->size());
        else err = "query: " + r.status().ToString();
        auto ex = timed("session.exists", &exists_lat,
                        [&] { return session.Exists(probe_run, key); });
        if (ex.ok()) exists = *ex;
        else err = "exists: " + ex.status().ToString();
      }
      if (err.empty() && runs != kTenantRuns)
        err = StrCat("query listed ", runs, " runs, expected ", kTenantRuns);
      if (err.empty() && exists != present)
        err = StrCat("exists(", key.ToString(), ") = ", exists);
      rep->Op(err);
    }

    // replay
    err.clear();
    if (wire) {
      flor::wire::Request req;
      req.op = "replay";
      req.tenant = tenant;
      req.run = run;
      req.workload = "svc-probed";
      req.engine = "threads";
      req.workers = kServiceReplayWorkers;
      auto res = call(req, "wire.replay", &replay_lat);
      auto reply = res.ok() ? flor::wire::ParseReplayReply(*res)
                            : Result<flor::wire::ReplayReply>(res.status());
      if (!reply.ok()) err = "replay: " + reply.status().ToString();
      else if (!reply->deferred_ok) err = "replay deferred check failed";
      else if (reply->merged_logs != rig->expected_merged)
        err = "replay merged logs differ from the reference replay";
    } else {
      flor::SessionReplayOptions ropts;
      ropts.engine = flor::ReplayEngine::kThreads;
      ropts.workers = kServiceReplayWorkers;
      auto r = timed("session.replay", &replay_lat,
                     [&] { return session.Replay(run, probed, ropts); });
      if (!r.ok()) err = "replay: " + r.status().ToString();
      else if (!r->deferred.ok) err = "replay deferred check failed";
      else if (r->merged_logs.Serialize() != rig->expected_merged)
        err = "replay merged logs differ from the reference replay";
    }
    rep->Op(err);
    const double secs = NowSeconds() - start;

    std::lock_guard<std::mutex> lock(out.mu);
    out.record.insert(out.record.end(), record_lat.begin(), record_lat.end());
    out.query.insert(out.query.end(), query_lat.begin(), query_lat.end());
    out.exists.insert(out.exists.end(), exists_lat.begin(), exists_lat.end());
    out.replay.insert(out.replay.end(), replay_lat.begin(), replay_lat.end());
    out.admission_wait.insert(out.admission_wait.end(), waits.begin(),
                              waits.end());
    out.encode_s += encode_s;
    out.decode_s += decode_s;
    return secs;
  };

  // Runs `fn(c)` on kClients threads and returns the mean of its results.
  auto on_clients = [](const std::function<double(int)>& fn) {
    std::vector<double> secs(kClients, 0);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] { secs[static_cast<size_t>(c)] = fn(c); });
    for (auto& t : threads) t.join();
    double sum = 0;
    for (double s : secs) sum += s;
    return sum / kClients;
  };

  EnvSamples env_samples;
  std::vector<double> faults, bloom, gc_passes, gc_failures, adm_waits,
      encode, decode, build_s;
  auto vanilla = [&](int) {
    return on_clients([&](int) {
      const double a = TimedVanilla(plain, nullptr);
      const double b = TimedVanilla(probed, nullptr);
      rep->Op(a < 0 || b < 0 ? "vanilla run failed" : "");
      return a + b;
    });
  };
  auto service = [&](int kind) {
    const std::string run = StrCat("c", round % kRotatingRuns);
    ++round;
    ServiceSamples& s =
        kind == kWarmup ? warmup : samples[static_cast<size_t>(kind)];
    const double enc0 = s.encode_s, dec0 = s.decode_s;
    const flor::ConnectionStats before = rig->conn->stats();
    build_nanos->store(0);
    TimedFileSystem::Counters fs_before;
    if (kind == kTraced) {
      rig->store->timed->set_counting(true);
      fs_before = rig->store->timed->Snapshot();
    }
    const double secs =
        on_clients([&](int c) { return cycle(c, kind, run); });
    if (kind == kTraced) {
      env_samples.Add(rig->store->timed->Snapshot().Minus(fs_before));
      rig->store->timed->set_counting(false);
      encode.push_back(s.encode_s - enc0);
      decode.push_back(s.decode_s - dec0);
    }
    if (kind == kUntraced) {
      const flor::ConnectionStats after = rig->conn->stats();
      double f0, b0, f1, b1;
      TenantTotals(before, &f0, &b0);
      TenantTotals(after, &f1, &b1);
      faults.push_back(f1 - f0);
      bloom.push_back(b1 - b0);
      gc_passes.push_back(static_cast<double>(after.gc_passes - before.gc_passes));
      gc_failures.push_back(
          static_cast<double>(after.gc_failures - before.gc_failures));
      adm_waits.push_back(
          static_cast<double>(after.admission_waits - before.admission_waits));
      build_s.push_back(static_cast<double>(build_nanos->load()) * 1e-9);
    }
    return secs;
  };
  const std::vector<Pairs> pairs =
      RunPairs(o, o.trace ? 3 : 1, vanilla, service);
  const Pairs& base = pairs[kUntraced];

  rig->conn->DrainBackground();
  const flor::ConnectionStats stats = rig->conn->stats();
  const flor::ServerStats server_stats = rig->server->stats();
  if (server_stats.corrupt_messages != 0)
    rep->Op("server saw corrupt messages");
  if (stats.gc_failures != 0) rep->Op("gc failed: " + stats.last_gc_error);
  auto ckpt = MeasureCheckpoints(rig->store->posix.get(), "svc/t0/p04", kBucket,
                                 o.trace);
  if (!ckpt.ok()) return ckpt.status();

  AddPairMetrics(base, *ckpt, rep);

  if (!o.trace) return Status::OK();
  // Request latencies come from the untraced pairs.
  const ServiceSamples& s = samples[kUntraced];
  const ServiceSamples& local = samples[kInProcess];
  env_samples.Report(rep);
  AddCkptLayer(*ckpt, rep);
  AddZeros(kRecordLayer, rep);
  rep->Add("exec.epoch_s", "s", kLayer,
           Median(base.vanilla) / static_cast<double>(2 * epochs));
  rep->Add("exec.instance_build_s", "s", kLayer, build_s);
  AddZeros(kReplayLayer, rep);
  rep->Add("svc.query_p50_s", "s", kLayer, Median(s.query));
  rep->Add("svc.query_tail_s", "s", kLayer, Tail(s.query));
  rep->Add("svc.exists_p50_s", "s", kLayer, Median(s.exists));
  rep->Add("svc.exists_tail_s", "s", kLayer, Tail(s.exists));
  rep->Add("svc.record_req_p50_s", "s", kLayer, Median(s.record));
  rep->Add("svc.record_req_tail_s", "s", kLayer, Tail(s.record));
  rep->Add("svc.replay_req_p50_s", "s", kLayer, Median(s.replay));
  rep->Add("svc.replay_req_tail_s", "s", kLayer, Tail(s.replay));
  rep->Add("svc.admission_wait_p50_s", "s", kLayer, Median(s.admission_wait));
  rep->Add("svc.admission_wait_max_s", "s", kLayer,
           s.admission_wait.empty()
               ? 0
               : *std::max_element(s.admission_wait.begin(),
                                   s.admission_wait.end()));
  rep->Add("svc.admission_waits", "count", kLayer, adm_waits);
  rep->Add("svc.bucket_faults", "count", kLayer, faults);
  rep->Add("svc.bloom_skipped_probes", "count", kLayer, bloom);
  rep->Add("svc.gc_passes", "count", kLayer, gc_passes);
  rep->Add("svc.gc_failures", "count", kLayer, gc_failures);
  rep->Add("wire.encode_s", "s", kLayer, encode);
  rep->Add("wire.decode_s", "s", kLayer, decode);
  rep->Add("wire.overhead_p50_s.record", "s", kLayer,
           Median(s.record) - Median(local.record));
  rep->Add("wire.overhead_p50_s.replay", "s", kLayer,
           Median(s.replay) - Median(local.replay));
  rep->Add("wire.overhead_p50_s.query", "s", kLayer,
           Median(s.query) - Median(local.query));
  rep->Add("server.corrupt_messages", "count", kLayer,
           static_cast<double>(server_stats.corrupt_messages));
  AddTraceOverhead(pairs, rep);
  return Status::OK();
}

// ------------------------------------------------------------------ main --

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") o->workload = val;
    else if (key == "--seed") o->seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") o->seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") o->trace = val == "1";
    else if (key == "--trace-out") o->trace_out = val;
    else if (key == "--scratch") o->scratch = val;
    else return false;
  }
  return argc % 2 == 1 && !o->workload.empty();
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: %s --workload <record_ckpt_heavy|replay_inner|"
                 "replay_partial|service_wire> --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH] [--scratch DIR]\n",
                 argv[0]);
    return 2;
  }
  auto scratch = flor::ScratchDir::Create(o.workload, o.scratch);
  if (!scratch.ok()) {
    std::fprintf(stderr, "%s\n", scratch.status().ToString().c_str());
    return 2;
  }
  Report rep;
  Status s;
  if (o.workload == "record_ckpt_heavy") {
    s = RunRecordCkptHeavy(o, scratch->path(), &rep);
  } else if (o.workload == "replay_inner") {
    s = RunReplay(o, scratch->path(), /*partial=*/false, &rep);
  } else if (o.workload == "replay_partial") {
    s = RunReplay(o, scratch->path(), /*partial=*/true, &rep);
  } else if (o.workload == "service_wire") {
    s = RunServiceWire(o, scratch->path(), &rep);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", o.workload.c_str(), s.ToString().c_str());
    return 2;
  }
  if (o.trace && !o.trace_out.empty()) {
    Status w = Tracer::Get().WriteChromeTrace(o.trace_out);
    if (!w.ok()) {
      std::fprintf(stderr, "%s\n", w.ToString().c_str());
      return 2;
    }
  }
  return rep.Print(o.trace);
}

}  // namespace
}  // namespace hbench

int main(int argc, char** argv) { return hbench::Main(argc, argv); }

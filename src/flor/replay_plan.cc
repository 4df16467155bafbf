#include "flor/replay_plan.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "common/strings.h"
#include "env/result_file.h"
#include "flor/instrument.h"
#include "flor/partition.h"

namespace flor {

std::vector<int64_t> CheckpointBoundaryEpochs(ir::Program* program,
                                              const Manifest& manifest) {
  // Intersect checkpointed epochs across all skippable epoch-level loops:
  // a worker can start at epoch e+1 only if *every* such loop restored at
  // epoch e reconstructs the state.
  std::vector<ir::Loop*> loops = SkippableEpochLoops(program);
  std::vector<int64_t> out;
  bool first = true;
  for (ir::Loop* loop : loops) {
    std::vector<int64_t> epochs = manifest.EpochsWithCheckpoint(loop->id());
    if (first) {
      out = std::move(epochs);
      first = false;
    } else {
      std::vector<int64_t> merged;
      std::set_intersection(out.begin(), out.end(), epochs.begin(),
                            epochs.end(), std::back_inserter(merged));
      out = std::move(merged);
    }
  }
  return out;
}

Result<int> PlanActiveWorkers(const ProgramFactory& factory,
                              const FileSystem* fs,
                              const ClusterPlanOptions& options) {
  if (!options.sample_epochs.empty()) return 1;
  if (options.num_workers <= 1) return 1;

  FLOR_ASSIGN_OR_RETURN(ProgramInstance instance, factory());
  InstrumentProgram(instance.program.get());
  ir::Loop* main_loop = instance.program->MainLoop();
  if (main_loop == nullptr) return 1;
  const int64_t epochs = main_loop->iter().fixed_count;
  if (epochs < 0) return options.num_workers;  // dynamic trip count

  RunPaths paths(options.run_prefix);
  FLOR_ASSIGN_OR_RETURN(std::string manifest_bytes,
                        fs->ReadFile(paths.Manifest()));
  FLOR_ASSIGN_OR_RETURN(Manifest manifest,
                        Manifest::Deserialize(manifest_bytes));
  const std::vector<int64_t> boundaries =
      CheckpointBoundaryEpochs(instance.program.get(), manifest);
  FLOR_ASSIGN_OR_RETURN(PartitionPlan plan,
                        PartitionMainLoop(epochs, options.num_workers,
                                          options.init_mode, boundaries));
  return static_cast<int>(plan.workers.size());
}

Result<std::vector<int64_t>> PlannedRestoreEpochs(
    const ProgramFactory& factory, const FileSystem* fs,
    const ClusterPlanOptions& options) {
  FLOR_ASSIGN_OR_RETURN(ProgramInstance instance, factory());
  InstrumentProgram(instance.program.get());
  ir::Loop* main_loop = instance.program->MainLoop();
  if (main_loop == nullptr) return std::vector<int64_t>();
  const int64_t epochs = main_loop->iter().fixed_count;
  if (epochs < 0) {
    return Status::FailedPrecondition(
        "PlannedRestoreEpochs: main-loop trip count is dynamic; the plan "
        "is made at run time and cannot be pinned ahead of a GC");
  }

  RunPaths paths(options.run_prefix);
  FLOR_ASSIGN_OR_RETURN(std::string manifest_bytes,
                        fs->ReadFile(paths.Manifest()));
  FLOR_ASSIGN_OR_RETURN(Manifest manifest,
                        Manifest::Deserialize(manifest_bytes));
  const std::vector<int64_t> boundaries =
      CheckpointBoundaryEpochs(instance.program.get(), manifest);

  // Union of init-mode iterations over all planned workers: exactly the
  // epochs whose checkpoints the replay restores before working.
  std::set<int64_t> restore;
  if (!options.sample_epochs.empty()) {
    FLOR_ASSIGN_OR_RETURN(
        WorkerPlan plan,
        PlanSampledEpochs(epochs, options.sample_epochs, boundaries));
    for (const exec::PlannedIter& it : plan.iters) {
      if (it.mode == exec::IterMode::kInit) restore.insert(it.index);
    }
  } else {
    FLOR_ASSIGN_OR_RETURN(PartitionPlan plan,
                          PartitionMainLoop(epochs, options.num_workers,
                                            options.init_mode, boundaries));
    for (const WorkerPlan& wp : plan.workers) {
      for (const exec::PlannedIter& it : wp.iters) {
        if (it.mode == exec::IterMode::kInit) restore.insert(it.index);
      }
    }
  }
  return std::vector<int64_t>(restore.begin(), restore.end());
}

ReplayOptions WorkerReplayOptions(const ClusterPlanOptions& options,
                                  int worker_id) {
  ReplayOptions ropts{options, worker_id,
                      /*run_deferred_check=*/false};  // merged in ReplayMerger
  if (!ropts.sample_epochs.empty()) ropts.num_workers = 1;
  return ropts;
}

namespace {

// Worker-result wire format: section 0 is a tab-separated key/value block
// (doubles as hexfloat so the round trip is bit-exact), sections 1-2 are
// LogStream line encodings, sections 3-4 newline-joined statement uids.
constexpr size_t kWorkerResultSections = 5;

void AppendMetaDouble(std::string* out, const char* key, double v) {
  out->append(StrCat(key, "\t", StrFormat("%a", v), "\n"));
}

void AppendMetaInt(std::string* out, const char* key, int64_t v) {
  out->append(StrCat(key, "\t", v, "\n"));
}

Result<double> ParseMetaDouble(const std::string& s) {
  double v = 0;
  if (!ParseF64(s, &v))
    return Status::Corruption("worker result: bad double: " + s);
  return v;
}

Result<int64_t> ParseMetaInt(const std::string& s) {
  int64_t v = 0;
  if (!ParseI64(s, &v))
    return Status::Corruption("worker result: bad integer: " + s);
  return v;
}

std::string JoinUids(const std::set<int32_t>& uids) {
  std::string out;
  for (int32_t uid : uids) out.append(StrCat(uid, "\n"));
  return out;
}

Result<std::set<int32_t>> SplitUids(const std::string& data) {
  std::set<int32_t> out;
  for (const std::string& line : StrSplit(data, '\n')) {
    if (line.empty()) continue;
    FLOR_ASSIGN_OR_RETURN(const int64_t uid, ParseMetaInt(line));
    out.insert(static_cast<int32_t>(uid));
  }
  return out;
}

}  // namespace

std::string EncodeWorkerResult(const ReplayResult& result) {
  std::string meta;
  AppendMetaDouble(&meta, "runtime_seconds", result.runtime_seconds);
  AppendMetaDouble(&meta, "restore_seconds", result.restore_seconds);
  AppendMetaDouble(&meta, "observed_c", result.observed_c);
  AppendMetaInt(&meta, "effective_init",
                static_cast<int64_t>(result.effective_init));
  AppendMetaInt(&meta, "partition_segments", result.partition_segments);
  AppendMetaInt(&meta, "active_workers", result.active_workers);
  AppendMetaInt(&meta, "work_begin", result.work_begin);
  AppendMetaInt(&meta, "work_end", result.work_end);
  AppendMetaInt(&meta, "sb_executed", result.skipblocks.executed);
  AppendMetaInt(&meta, "sb_skipped", result.skipblocks.skipped);
  AppendMetaInt(&meta, "sb_restores", result.skipblocks.restores);
  AppendMetaInt(&meta, "sb_materialized", result.skipblocks.materialized);
  AppendMetaInt(&meta, "bucket_faults", result.bucket_faults);
  AppendMetaInt(&meta, "bloom_skipped_probes", result.bloom_skipped_probes);
  AppendMetaInt(&meta, "preamble_probed",
                result.probes.preamble_probed ? 1 : 0);

  exec::LogStream probe_stream;
  for (const exec::LogEntry& e : result.probe_entries)
    probe_stream.Append(e);

  return EncodeResultSections({meta, result.logs.Serialize(),
                               probe_stream.Serialize(),
                               JoinUids(result.probes.probe_stmt_uids),
                               JoinUids(result.probes.probed_loops)});
}

Result<ReplayResult> DecodeWorkerResult(const std::string& data) {
  FLOR_ASSIGN_OR_RETURN(std::vector<std::string> sections,
                        DecodeResultSections(data));
  if (sections.size() != kWorkerResultSections) {
    return Status::Corruption(
        StrCat("worker result: expected ", kWorkerResultSections,
               " sections, got ", sections.size()));
  }

  std::map<std::string, std::string> meta;
  for (const std::string& line : StrSplit(sections[0], '\n')) {
    if (line.empty()) continue;
    const std::vector<std::string> kv = StrSplit(line, '\t');
    if (kv.size() != 2 || !meta.emplace(kv[0], kv[1]).second)
      return Status::Corruption("worker result: malformed meta line: " +
                                line);
  }
  auto take = [&meta](const char* key) -> Result<std::string> {
    auto it = meta.find(key);
    if (it == meta.end())
      return Status::Corruption(StrCat("worker result: missing ", key));
    std::string v = std::move(it->second);
    meta.erase(it);
    return v;
  };
  auto take_double = [&take](const char* key) -> Result<double> {
    FLOR_ASSIGN_OR_RETURN(const std::string v, take(key));
    return ParseMetaDouble(v);
  };
  auto take_int = [&take](const char* key) -> Result<int64_t> {
    FLOR_ASSIGN_OR_RETURN(const std::string v, take(key));
    return ParseMetaInt(v);
  };

  ReplayResult out;
  FLOR_ASSIGN_OR_RETURN(out.runtime_seconds,
                        take_double("runtime_seconds"));
  FLOR_ASSIGN_OR_RETURN(out.restore_seconds,
                        take_double("restore_seconds"));
  FLOR_ASSIGN_OR_RETURN(out.observed_c, take_double("observed_c"));
  FLOR_ASSIGN_OR_RETURN(const int64_t init, take_int("effective_init"));
  if (init != 0 && init != 1)
    return Status::Corruption("worker result: bad effective_init");
  out.effective_init = static_cast<InitMode>(init);
  FLOR_ASSIGN_OR_RETURN(out.partition_segments,
                        take_int("partition_segments"));
  FLOR_ASSIGN_OR_RETURN(const int64_t active, take_int("active_workers"));
  out.active_workers = static_cast<int>(active);
  FLOR_ASSIGN_OR_RETURN(out.work_begin, take_int("work_begin"));
  FLOR_ASSIGN_OR_RETURN(out.work_end, take_int("work_end"));
  FLOR_ASSIGN_OR_RETURN(out.skipblocks.executed, take_int("sb_executed"));
  FLOR_ASSIGN_OR_RETURN(out.skipblocks.skipped, take_int("sb_skipped"));
  FLOR_ASSIGN_OR_RETURN(out.skipblocks.restores, take_int("sb_restores"));
  FLOR_ASSIGN_OR_RETURN(out.skipblocks.materialized,
                        take_int("sb_materialized"));
  FLOR_ASSIGN_OR_RETURN(out.bucket_faults, take_int("bucket_faults"));
  FLOR_ASSIGN_OR_RETURN(out.bloom_skipped_probes,
                        take_int("bloom_skipped_probes"));
  FLOR_ASSIGN_OR_RETURN(const int64_t preamble,
                        take_int("preamble_probed"));
  out.probes.preamble_probed = preamble != 0;
  if (!meta.empty()) {
    return Status::Corruption("worker result: unknown meta key: " +
                              meta.begin()->first);
  }

  FLOR_ASSIGN_OR_RETURN(out.logs, exec::LogStream::Deserialize(sections[1]));
  FLOR_ASSIGN_OR_RETURN(exec::LogStream probe_stream,
                        exec::LogStream::Deserialize(sections[2]));
  out.probe_entries = probe_stream.entries();
  FLOR_ASSIGN_OR_RETURN(out.probes.probe_stmt_uids,
                        SplitUids(sections[3]));
  FLOR_ASSIGN_OR_RETURN(out.probes.probed_loops, SplitUids(sections[4]));
  return out;
}

void ReplayMerger::Add(int worker_id, ReplayResult result) {
  workers_.emplace_back(worker_id, std::move(result));
}

Result<MergedClusterReplay> ReplayMerger::Finish(
    const FileSystem* fs, const std::string& run_prefix) {
  if (workers_.empty())
    return Status::InvalidArgument("ReplayMerger: no worker results");
  std::sort(workers_.begin(), workers_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  MergedClusterReplay out;
  const ReplayResult& first = workers_.front().second;
  out.workers_used = std::max(1, first.active_workers);
  out.partition_segments = first.partition_segments;
  out.effective_init = first.effective_init;
  const std::set<int32_t>& probe_uids = first.probes.probe_stmt_uids;

  for (const auto& [id, wres] : workers_) {
    (void)id;
    out.worker_seconds.push_back(wres.runtime_seconds);
    out.merged_logs.ExtendWork(wres.logs);
    out.probe_entries.insert(out.probe_entries.end(),
                             wres.probe_entries.begin(),
                             wres.probe_entries.end());
    out.skipblocks.executed += wres.skipblocks.executed;
    out.skipblocks.skipped += wres.skipblocks.skipped;
    out.skipblocks.restores += wres.skipblocks.restores;
    out.bucket_faults += wres.bucket_faults;
    out.bloom_skipped_probes += wres.bloom_skipped_probes;
  }
  out.latency_seconds = *std::max_element(out.worker_seconds.begin(),
                                          out.worker_seconds.end());

  // Merged deferred check against the record logs.
  RunPaths paths(run_prefix);
  FLOR_ASSIGN_OR_RETURN(std::string log_bytes, fs->ReadFile(paths.Logs()));
  FLOR_ASSIGN_OR_RETURN(exec::LogStream record_logs,
                        exec::LogStream::Deserialize(log_bytes));
  out.deferred = DeferredCheck(record_logs.entries(),
                               out.merged_logs.entries(), probe_uids);
  return out;
}

}  // namespace flor

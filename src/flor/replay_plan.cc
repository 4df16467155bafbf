#include "flor/replay_plan.h"

#include <algorithm>
#include <iterator>
#include <set>

#include "analysis/weak_init.h"
#include "common/strings.h"
#include "flor/instrument.h"
#include "flor/partition.h"
#include "serialize/sections.h"

namespace flor {

namespace {

/// Main-loop epochs usable as partition boundaries for `program`: every
/// skippable epoch-level loop has a checkpoint there (intersection across
/// loops).
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

/// True when `block` holds a SkipBlock at any depth: only then does a
/// main-loop init iteration restore a checkpoint instead of re-executing.
bool HoldsSkipBlock(const ir::Block& block) {
  for (const ir::Node& node : block.nodes) {
    if (node.is_loop() && (node.loop->analysis().instrumented ||
                           HoldsSkipBlock(node.loop->body())))
      return true;
  }
  return false;
}

}  // namespace

Result<PartitionPlan> PlanPartitions(ir::Program* program, int64_t epochs,
                                     const Manifest& manifest,
                                     const ClusterPlanOptions& request) {
  const std::vector<int64_t> boundaries =
      CheckpointBoundaryEpochs(program, manifest);
  const bool weak_exact =
      request.init_mode != InitMode::kWeak &&
      analysis::AnalyzeWeakInit(*program->MainLoop(),
                                manifest.checkpoint_names)
          .exact;
  const InitMode mode = ResolveInitMode(
      request.init_mode, weak_exact, DenseCheckpoints(epochs, boundaries));
  if (request.sample_epochs.empty())
    return PartitionMainLoop(epochs, request.num_workers, mode, boundaries);
  FLOR_ASSIGN_OR_RETURN(
      WorkerPlan sampled,
      PlanWorker(epochs, request.sample_epochs, mode, boundaries,
                 HoldsSkipBlock(program->MainLoop()->body())));
  PartitionPlan plan;
  plan.mode = mode;
  plan.segments = static_cast<int64_t>(sampled.iters.size());
  plan.max_worker_epochs = sampled.work_epochs();
  plan.workers.push_back(std::move(sampled));
  return plan;
}

Result<int> PlanActiveWorkers(const ProgramFactory& factory,
                              const FileSystem* fs,
                              const ClusterPlanOptions& options) {
  const bool sampling = !options.sample_epochs.empty();
  if (options.num_workers <= 1 && !sampling) return 1;

  FLOR_ASSIGN_OR_RETURN(ProgramInstance instance, factory());
  InstrumentProgram(instance.program.get());
  ir::Loop* main_loop = instance.program->MainLoop();
  if (main_loop == nullptr) return 1;
  const int64_t epochs = main_loop->iter().fixed_count;
  if (epochs < 0) return sampling ? 1 : options.num_workers;  // dynamic

  FLOR_ASSIGN_OR_RETURN(Manifest manifest,
                        ReadManifest(fs, options.run_prefix));
  FLOR_ASSIGN_OR_RETURN(
      PartitionPlan plan,
      PlanPartitions(instance.program.get(), epochs, manifest, options));
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

  FLOR_ASSIGN_OR_RETURN(Manifest manifest,
                        ReadManifest(fs, options.run_prefix));
  FLOR_ASSIGN_OR_RETURN(
      PartitionPlan plan,
      PlanPartitions(instance.program.get(), epochs, manifest, options));

  // Union of init-mode iterations over all planned workers: exactly the
  // epochs whose checkpoints the replay restores before working.
  std::set<int64_t> restore;
  for (const WorkerPlan& wp : plan.workers) {
    for (const exec::PlannedIter& it : wp.iters) {
      if (it.mode == exec::IterMode::kInit) restore.insert(it.index);
    }
  }
  return std::vector<int64_t>(restore.begin(), restore.end());
}

namespace {

// Worker-result format: a sectioned message (serialize/sections.h) tagged
// kResultTag. Section 0 is the meta block, sections 1-2 are LogStream
// line encodings, sections 3-4 newline-joined statement uids.
constexpr size_t kWorkerSections = 5;

std::string JoinUids(const std::set<int32_t>& uids) {
  std::string out;
  for (int32_t uid : uids) out.append(StrCat(uid, "\n"));
  return out;
}

Result<std::set<int32_t>> SplitUids(const std::string& data) {
  std::set<int32_t> out;
  for (const std::string& line : StrSplit(data, '\n')) {
    if (line.empty()) continue;
    int32_t uid = 0;
    if (!ParseI32(line, &uid))
      return Status::Corruption("worker result: bad uid: " + line);
    out.insert(uid);
  }
  return out;
}

}  // namespace

std::string EncodeWorkerResult(const ReplayResult& result) {
  std::string meta =
      MetaWriter()
          .Double("runtime_seconds", result.runtime_seconds)
          .Int("effective_init", static_cast<int64_t>(result.effective_init))
          .Int("partition_segments", result.partition_segments)
          .Int("active_workers", result.active_workers)
          .Int("work_begin", result.work_begin)
          .Int("work_end", result.work_end)
          .Int("sb_executed", result.skipblocks.executed)
          .Int("sb_skipped", result.skipblocks.skipped)
          .Int("sb_restores", result.skipblocks.restores)
          .Int("sb_materialized", result.skipblocks.materialized)
          .Int("bucket_faults", result.bucket_faults)
          .Int("bloom_skipped_probes", result.bloom_skipped_probes)
          .Bool("preamble_probed", result.probes.preamble_probed)
          .Finish();

  exec::LogStream probe_stream;
  for (const exec::LogEntry& e : result.probe_entries)
    probe_stream.Append(e);

  return EncodeSections(kResultTag, {meta, result.logs.Serialize(),
                                     probe_stream.Serialize(),
                                     JoinUids(result.probes.probe_stmt_uids),
                                     JoinUids(result.probes.probed_loops)});
}

Result<ReplayResult> DecodeWorkerResult(const std::string& data) {
  FLOR_ASSIGN_OR_RETURN(std::vector<std::string> sections,
                        DecodeSections(kResultTag, data));
  FLOR_RETURN_IF_ERROR(
      ExpectSections(sections, kWorkerSections, "worker result"));

  ReplayResult out;
  int64_t init = 0;
  FLOR_RETURN_IF_ERROR(
      MetaReader(sections[0])
          .Double("runtime_seconds", &out.runtime_seconds)
          .Int("effective_init", &init)
          .Int("partition_segments", &out.partition_segments)
          .Int("active_workers", &out.active_workers)
          .Int("work_begin", &out.work_begin)
          .Int("work_end", &out.work_end)
          .Int("sb_executed", &out.skipblocks.executed)
          .Int("sb_skipped", &out.skipblocks.skipped)
          .Int("sb_restores", &out.skipblocks.restores)
          .Int("sb_materialized", &out.skipblocks.materialized)
          .Int("bucket_faults", &out.bucket_faults)
          .Int("bloom_skipped_probes", &out.bloom_skipped_probes)
          .Bool("preamble_probed", &out.probes.preamble_probed)
          .Finish());
  if (init != 0 && init != 1)
    return Status::Corruption("worker result: bad effective_init");
  out.effective_init = static_cast<InitMode>(init);

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
    if (wres.effective_init != first.effective_init ||
        wres.partition_segments != first.partition_segments ||
        wres.active_workers != first.active_workers) {
      return Status::Internal(StrCat(
          "ReplayMerger: worker ", id, " ran a ",
          InitModeName(wres.effective_init), " plan of ",
          wres.active_workers, " worker(s) over ", wres.partition_segments,
          " segment(s), worker ", workers_.front().first, " a ",
          InitModeName(first.effective_init), " plan of ",
          first.active_workers, " over ", first.partition_segments));
    }
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

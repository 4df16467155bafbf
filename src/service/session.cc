#include "service/service.h"

#include <utility>

#include "common/strings.h"
#include "exec/process_executor.h"
#include "exec/replay_executor.h"
#include "sim/parallel_replay.h"

namespace flor {

namespace {

/// A record/replay run on a connection whose env clock is simulated gets
/// its own fresh SimClock — every run starts at t=0 regardless of what
/// other sessions did, which is exactly the per-worker-env discipline
/// sim::ClusterReplay uses, and what keeps service-path results
/// byte-identical to the one-shot entry points. Wall-clock connections
/// keep the shared clock (wall clocks are stateless).
struct RunEnv {
  explicit RunEnv(Env* conn_env) {
    if (conn_env->clock()->is_simulated()) {
      owned = std::make_unique<Env>(std::make_unique<SimClock>(),
                                    conn_env->fs());
      env = owned.get();
    } else {
      env = conn_env;
    }
  }
  std::unique_ptr<Env> owned;
  Env* env = nullptr;
};

}  // namespace

Session::Session(Connection* conn, std::string tenant)
    : conn_(conn), tenant_(std::move(tenant)) {}

Result<std::string> Session::RunPrefix(const std::string& run) const {
  FLOR_RETURN_IF_ERROR(ValidateNamespaceSegment(run, "run"));
  return JoinObjectPath(conn_->TenantRoot(tenant_), run);
}

Result<SessionRecordResult> Session::Record(
    const std::string& run, const ProgramFactory& factory,
    const SessionRecordOptions& options) {
  FLOR_ASSIGN_OR_RETURN(const std::string prefix, RunPrefix(run));
  FLOR_RETURN_IF_ERROR(conn_->BeginOp());
  Connection::OpScope op(conn_);
  const ConnectionOptions& copts = conn_->options();

  RecordOptions ropts;
  ropts.run_prefix = prefix;
  ropts.workload = options.workload;
  ropts.ckpt_shards = copts.ckpt_shards;
  ropts.materializer = options.materializer;
  ropts.adaptive = options.adaptive;
  ropts.nominal_checkpoint_bytes = options.nominal_checkpoint_bytes;
  ropts.vanilla_runtime_seconds = options.vanilla_runtime_seconds;
  // The connection owns the spool mirror and retirement: sessions spool
  // through the shared queue and never run GC inline — the background
  // worker retires after the run's artifacts are durable.
  ropts.spool_prefix = copts.tier.bucket_prefix;
  ropts.shared_spool = conn_->shared_spool();
  ropts.gc = GcPolicy();

  double admission_wait_seconds = 0;
  FLOR_RETURN_IF_ERROR(
      conn_->AcquireRecordSlot(tenant_, &admission_wait_seconds));
  Result<RecordResult> result = [&]() -> Result<RecordResult> {
    RunEnv run_env(conn_->env());
    FLOR_ASSIGN_OR_RETURN(ProgramInstance instance, factory());
    RecordSession session(run_env.env, std::move(ropts));
    exec::Frame frame;
    return session.Run(instance.program.get(), &frame);
  }();
  conn_->ReleaseRecordSlot(tenant_);
  if (!result.ok()) return result.status();

  conn_->BumpRecord(tenant_,
                    static_cast<int64_t>(result->spool_report.objects),
                    static_cast<int64_t>(result->spool_report.bytes));
  conn_->ScheduleRetirement(tenant_, run);
  SessionRecordResult out;
  static_cast<RecordResult&>(out) = std::move(*result);
  out.admission_wait_seconds = admission_wait_seconds;
  return out;
}

Result<SessionReplayResult> Session::Replay(
    const std::string& run, const ProgramFactory& factory,
    const SessionReplayOptions& options) {
  FLOR_ASSIGN_OR_RETURN(const std::string prefix, RunPrefix(run));
  if (options.workers < 1) {
    return Status::InvalidArgument(
        StrCat("replay workers must be >= 1, got ", options.workers));
  }
  FLOR_RETURN_IF_ERROR(conn_->BeginOp());
  Connection::OpScope op(conn_);
  FileSystem* fs = conn_->env()->fs();
  const ClusterPlanOptions request{prefix, options.workers, options.init_mode,
                                   options.costs, options.sample_epochs,
                                   conn_->options().tier};

  SessionReplayResult out;
  out.engine = options.engine;
  switch (options.engine) {
    case ReplayEngine::kSimulated: {
      FLOR_ASSIGN_OR_RETURN(
          sim::ClusterReplayResult r,
          sim::ClusterReplay(factory, fs, request, options.instance));
      out.total_cost_dollars = r.total_cost_dollars;
      static_cast<MergedClusterReplay&>(out) = std::move(r);
      break;
    }
    case ReplayEngine::kThreads: {
      exec::ReplayExecutor executor(
          fs, request,
          options.num_threads > 0 ? options.num_threads : options.workers);
      FLOR_ASSIGN_OR_RETURN(static_cast<MergedClusterReplay&>(out),
                            executor.Run(factory));
      break;
    }
    case ReplayEngine::kProcesses: {
      exec::ProcessReplayExecutor executor(
          fs, exec::ProcessReplayExecutorOptions{request, options.scratch_dir});
      FLOR_ASSIGN_OR_RETURN(static_cast<MergedClusterReplay&>(out),
                            executor.Run(factory));
      break;
    }
  }
  conn_->BumpReplay(tenant_, out.bucket_faults, out.bloom_skipped_probes);
  return out;
}

Result<std::vector<RunInfo>> Session::Query() const {
  FLOR_RETURN_IF_ERROR(conn_->BeginOp());
  Connection::OpScope op(conn_);
  conn_->BumpQuery(tenant_);
  return ListRuns(conn_->env()->fs(), conn_->TenantRoot(tenant_));
}

Result<std::vector<RunInfo>> Session::Query(
    const RunPredicate& predicate) const {
  FLOR_RETURN_IF_ERROR(conn_->BeginOp());
  Connection::OpScope op(conn_);
  conn_->BumpQuery(tenant_);
  return FindRuns(conn_->env()->fs(), conn_->TenantRoot(tenant_),
                  predicate);
}

Result<std::vector<double>> Session::MetricSeries(
    const std::string& run, const std::string& label) const {
  FLOR_ASSIGN_OR_RETURN(const std::string prefix, RunPrefix(run));
  FLOR_RETURN_IF_ERROR(conn_->BeginOp());
  Connection::OpScope op(conn_);
  conn_->BumpQuery(tenant_);
  return flor::MetricSeries(conn_->env()->fs(), prefix, label);
}

Result<bool> Session::Exists(const std::string& run,
                             const CheckpointKey& key) const {
  FLOR_RETURN_IF_ERROR(conn_->BeginOp());
  Connection::OpScope op(conn_);
  conn_->BumpQuery(tenant_);
  FLOR_ASSIGN_OR_RETURN(const std::string prefix, RunPrefix(run));
  FLOR_ASSIGN_OR_RETURN(
      OpenedRun opened,
      OpenRun(conn_->env()->fs(), prefix, conn_->options().tier));
  Result<bool> exists = opened.store->Exists(key);
  // The store is opened fresh per probe, so its tier stats are exactly
  // this call's read-tier traffic.
  conn_->AccountTier(tenant_, opened.store->tier_stats());
  return exists;
}

}  // namespace flor

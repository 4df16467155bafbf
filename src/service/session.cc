#include "service/service.h"

#include <utility>

#include "common/strings.h"
#include "exec/replay_executor.h"

namespace flor {

namespace {

/// A record run on a connection whose env clock is simulated gets its own
/// fresh SimClock — every run starts at t=0 regardless of what other
/// sessions did, which is exactly the per-partition clock discipline of
/// the simulated replay engine, and what keeps service-path results
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
  // The session mirrors its run to the connection's bucket tier; the
  // background worker retires after the run's artifacts, its bucket mirror
  // included, are durable.
  ropts.spool_prefix = copts.tier.bucket_prefix;

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
  return SessionRecordResult{std::move(*result), admission_wait_seconds};
}

Result<MergedClusterReplay> Session::Replay(
    const std::string& run, const ProgramFactory& factory,
    const SessionReplayOptions& options) {
  FLOR_ASSIGN_OR_RETURN(const std::string prefix, RunPrefix(run));
  if (options.workers < 1) {
    return Status::InvalidArgument(
        StrCat("replay workers must be >= 1, got ", options.workers));
  }
  FLOR_RETURN_IF_ERROR(conn_->BeginOp());
  Connection::OpScope op(conn_);
  ClusterPlanOptions request;
  request.run_prefix = prefix;
  request.num_workers = options.workers;
  request.tier = conn_->options().tier;
  FLOR_ASSIGN_OR_RETURN(
      MergedClusterReplay out,
      exec::Replay(options.engine, conn_->env()->fs(), request, factory));
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
  FLOR_ASSIGN_OR_RETURN(const std::string prefix, RunPrefix(run));
  FLOR_RETURN_IF_ERROR(conn_->BeginOp());
  Connection::OpScope op(conn_);
  conn_->BumpQuery(tenant_);
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

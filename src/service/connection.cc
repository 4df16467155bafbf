#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/strings.h"

namespace flor {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int StarvedWaitBucket(double seconds) {
  constexpr double kUpperEdges[kStarvedWaitBucketCount - 1] = {
      1e-3, 1e-2, 1e-1, 1.0, 10.0};
  for (int i = 0; i < kStarvedWaitBucketCount - 1; ++i) {
    if (seconds < kUpperEdges[i]) return i;
  }
  return kStarvedWaitBucketCount - 1;
}

Status ValidateNamespaceSegment(const std::string& name, const char* what) {
  if (name.empty())
    return Status::InvalidArgument(StrCat("empty ", what, " name"));
  if (name.size() > kMaxNamespaceSegmentBytes) {
    return Status::InvalidArgument(
        StrCat(what, " name is ", name.size(), " bytes; the limit is ",
               kMaxNamespaceSegmentBytes,
               " (filesystem path components cap out at 255)"));
  }
  if (name == "." || name == "..") {
    return Status::InvalidArgument(
        StrCat(what, " name '", name, "' would escape its namespace"));
  }
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) {
      return Status::InvalidArgument(
          StrCat(what, " name '", name,
                 "' contains a character outside [A-Za-z0-9._-]"));
    }
  }
  return Status::OK();
}

Connection::Connection(Env* env, ConnectionOptions options)
    : env_(env), options_(std::move(options)) {}

Result<std::unique_ptr<Connection>> Connection::Open(
    Env* env, ConnectionOptions options) {
  if (env == nullptr)
    return Status::InvalidArgument("Connection::Open: null env");
  FLOR_RETURN_IF_ERROR(
      ValidateNamespaceSegment(options.root, "connection root"));
  if (options.ckpt_shards < 1) {
    return Status::InvalidArgument(
        StrCat("ckpt_shards must be >= 1, got ", options.ckpt_shards));
  }
  if (options.max_concurrent_records < 0) {
    return Status::InvalidArgument(
        StrCat("max_concurrent_records must be >= 0, got ",
               options.max_concurrent_records));
  }
  if (options.max_records_per_tenant < 0) {
    return Status::InvalidArgument(
        StrCat("max_records_per_tenant must be >= 0, got ",
               options.max_records_per_tenant));
  }
  // The connection's bucket prefix must not collide with the namespace
  // root: bucket objects live at "<bucket>/<root>/<tenant>/...", so a
  // bucket *inside* the root would be scanned as tenant data.
  if (!options.tier.bucket_prefix.empty()) {
    FLOR_RETURN_IF_ERROR(ValidateNamespaceSegment(
        options.tier.bucket_prefix, "bucket prefix"));
    if (options.tier.bucket_prefix == options.root) {
      return Status::InvalidArgument(
          StrCat("bucket prefix '", options.tier.bucket_prefix,
                 "' collides with the connection root"));
    }
  }
  return std::unique_ptr<Connection>(
      new Connection(env, std::move(options)));
}

Connection::~Connection() { DrainBackground(); }

void Connection::DrainBackground() { gc_queue_.Drain(); }

Status Connection::Close(double deadline_seconds) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!closing_) {
      closing_ = true;
      // Wake every recorder blocked on the admission gate; they observe
      // closing_ and fail with Unavailable, which releases their
      // in-flight op guard.
      for (auto& entry : gates_) entry.second.cv.notify_all();
    }
    const auto idle = [this] { return in_flight_ops_ == 0; };
    if (deadline_seconds > 0) {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(deadline_seconds));
      if (!ops_idle_.wait_until(lock, deadline, idle)) {
        return Status::Aborted(
            StrCat("close deadline expired with ", in_flight_ops_,
                   " session call(s) still in flight"));
      }
    } else {
      ops_idle_.wait(lock, idle);
    }
  }
  DrainBackground();
  return Status::OK();
}

bool Connection::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closing_;
}

Status Connection::BeginOp() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closing_)
    return Status::Unavailable("connection is closed to new work");
  ++in_flight_ops_;
  return Status::OK();
}

void Connection::EndOp() {
  std::lock_guard<std::mutex> lock(mu_);
  if (--in_flight_ops_ == 0) ops_idle_.notify_all();
}

std::string Connection::TenantRoot(const std::string& tenant) const {
  return JoinObjectPath(options_.root, tenant);
}

Result<std::unique_ptr<Session>> Connection::OpenSession(
    const std::string& tenant) {
  FLOR_RETURN_IF_ERROR(ValidateNamespaceSegment(tenant, "tenant"));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closing_)
      return Status::Unavailable("connection is closed to new work");
    ++GateLocked(tenant)->stats.sessions_opened;
  }
  return std::unique_ptr<Session>(new Session(this, tenant));
}

Connection::TenantGate* Connection::GateLocked(const std::string& tenant) {
  auto it = gates_.find(tenant);
  if (it == gates_.end()) it = gates_.try_emplace(tenant, tenant).first;
  return &it->second;
}

bool Connection::GlobalSlotFreeLocked() const {
  return options_.max_concurrent_records <= 0 ||
         active_records_ < options_.max_concurrent_records;
}

bool Connection::TenantSlotFreeLocked(const TenantGate& gate) const {
  return options_.max_records_per_tenant <= 0 ||
         gate.stats.active_records < options_.max_records_per_tenant;
}

void Connection::AdmitLocked(TenantGate* gate) {
  ++active_records_;
  stats_.max_observed_records =
      std::max(stats_.max_observed_records, active_records_);
  ++gate->stats.active_records;
  gate->stats.max_observed_records = std::max(
      gate->stats.max_observed_records, gate->stats.active_records);
}

void Connection::GrantSlotsLocked() {
  if (closing_) return;
  // Round-robin across the wait ring: each pass visits every queued
  // tenant at most once; repeat while grants are still being handed out
  // (a release can free room for several waiters at once). Tenants at
  // their per-tenant quota rotate to the back instead of head-blocking
  // everyone behind them.
  bool progress = true;
  while (progress) {
    progress = false;
    size_t rounds = wait_ring_.size();
    while (rounds-- > 0 && !wait_ring_.empty() && GlobalSlotFreeLocked()) {
      TenantGate* gate = wait_ring_.front();
      wait_ring_.pop_front();
      if (gate->waiting - gate->tokens <= 0) {
        gate->in_ring = false;  // stale entry: all waiters already granted
        continue;
      }
      if (!TenantSlotFreeLocked(*gate)) {
        wait_ring_.push_back(gate);
        continue;
      }
      // Direct handoff: account the slot on behalf of the waiter and
      // post a token it consumes without re-checking capacity, so an
      // arrival racing the wakeup cannot steal the freed slot.
      AdmitLocked(gate);
      ++gate->tokens;
      gate->cv.notify_one();
      progress = true;
      if (gate->waiting - gate->tokens > 0) {
        wait_ring_.push_back(gate);
      } else {
        gate->in_ring = false;
      }
    }
  }
}

Status Connection::AcquireRecordSlot(const std::string& tenant,
                                     double* waited_seconds) {
  *waited_seconds = 0;
  std::unique_lock<std::mutex> lock(mu_);
  if (closing_)
    return Status::Unavailable("connection is closed to new work");
  TenantGate* gate = GateLocked(tenant);

  // Fast path: only when nobody is queued — arrivals may not barge past
  // the wait ring.
  if (wait_ring_.empty() && GlobalSlotFreeLocked() &&
      TenantSlotFreeLocked(*gate)) {
    AdmitLocked(gate);
    return Status::OK();
  }

  ++gate->waiting;
  if (!gate->in_ring) {
    gate->in_ring = true;
    wait_ring_.push_back(gate);
  }
  const auto start = std::chrono::steady_clock::now();
  // Capacity may be free right now (e.g. every queued tenant is at its
  // quota but this one is not): run a grant pass with ourselves queued.
  GrantSlotsLocked();
  while (gate->tokens == 0 && !closing_) gate->cv.wait(lock);
  --gate->waiting;
  if (gate->tokens == 0) {
    // Connection closed before a slot was granted. Drop our ring entry
    // if we were this tenant's last ungranted waiter.
    if (gate->in_ring && gate->waiting - gate->tokens <= 0) {
      auto it = std::find(wait_ring_.begin(), wait_ring_.end(), gate);
      if (it != wait_ring_.end()) wait_ring_.erase(it);
      gate->in_ring = false;
    }
    return Status::Unavailable(
        "connection closed while waiting for admission");
  }
  --gate->tokens;
  const double secs = SecondsSince(start);
  *waited_seconds = secs;
  ++gate->stats.admission_waits;
  gate->stats.admission_wait_seconds += secs;
  gate->stats.max_admission_wait_seconds =
      std::max(gate->stats.max_admission_wait_seconds, secs);
  ++gate->stats.starved_wait_hist[static_cast<size_t>(
      StarvedWaitBucket(secs))];
  return Status::OK();
}

void Connection::ReleaseRecordSlot(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantGate* gate = GateLocked(tenant);
  --active_records_;
  --gate->stats.active_records;
  GrantSlotsLocked();
}

bool Connection::AnyRecordActive() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_records_ > 0;
}

void Connection::ScheduleRetirement(const std::string& tenant,
                                    const std::string& run) {
  if (options_.gc.keep_last_k <= 0) return;
  gc_queue_.Submit([this, tenant, run] {
    const RunPaths paths(JoinObjectPath(TenantRoot(tenant), run));
    auto report = RetireRun(env_->fs(), paths.prefix, options_.gc,
                            options_.tier.bucket_prefix);
    // A pass that decodes but leaves failed deletes behind is a failure
    // too: the local orphans it leaks are invisible otherwise.
    std::string error;
    if (!report.ok()) {
      error = report.status().ToString();
    } else if (report->failed_deletes > 0) {
      error = StrCat(report->failed_deletes,
                     " checkpoint delete(s) failed; local orphans remain "
                     "under ",
                     paths.CkptPrefix());
    }
    std::lock_guard<std::mutex> lock(mu_);
    TenantGate* gate = GateLocked(tenant);
    if (error.empty()) {
      ++gate->stats.gc_passes;
    } else {
      ++gate->stats.gc_failures;
      stats_.last_gc_error =
          StrCat("tenant ", tenant, " run ", run, ": ", error);
      if (stats_.recent_gc_errors.size() >= kGcErrorRingCapacity) {
        stats_.recent_gc_errors.erase(stats_.recent_gc_errors.begin());
      }
      stats_.recent_gc_errors.push_back(GcFailure{tenant, run, error});
    }
  });
}

void Connection::BumpQuery(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  ++GateLocked(tenant)->stats.queries_served;
}

void Connection::BumpReplay(const std::string& tenant, int64_t bucket_faults,
                            int64_t bloom_skipped_probes) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantGate* gate = GateLocked(tenant);
  ++gate->stats.replays_completed;
  gate->stats.bucket_faults += bucket_faults;
  gate->stats.bloom_skipped_probes += bloom_skipped_probes;
}

void Connection::BumpRecord(const std::string& tenant, int64_t spool_objects,
                            int64_t spool_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantGate* gate = GateLocked(tenant);
  ++gate->stats.records_completed;
  gate->stats.spool_objects += spool_objects;
  gate->stats.spool_bytes += spool_bytes;
}

void Connection::AccountTier(const std::string& tenant,
                             const TierStats& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantGate* gate = GateLocked(tenant);
  gate->stats.bucket_faults += delta.bucket_faults;
  gate->stats.bloom_skipped_probes += delta.bloom_skipped_probes;
}

Result<GcReport> Connection::RetireBucket(const std::string& tenant,
                                          const std::string& run,
                                          const GcPolicy& policy) {
  FLOR_RETURN_IF_ERROR(ValidateNamespaceSegment(tenant, "tenant"));
  FLOR_RETURN_IF_ERROR(ValidateNamespaceSegment(run, "run"));
  if (options_.tier.bucket_prefix.empty())
    return Status::FailedPrecondition("connection has no bucket tier");
  FLOR_RETURN_IF_ERROR(BeginOp());
  OpScope op(this);
  if (AnyRecordActive()) {
    return Status::FailedPrecondition(
        "bucket retirement is between-sessions maintenance; a record "
        "session is executing");
  }
  return RetireBucketRun(env_->fs(), JoinObjectPath(TenantRoot(tenant), run),
                         options_.tier.bucket_prefix, policy);
}

Result<ReconcileReport> Connection::Reconcile(const std::string& tenant,
                                              const std::string& run) {
  FLOR_RETURN_IF_ERROR(ValidateNamespaceSegment(tenant, "tenant"));
  FLOR_RETURN_IF_ERROR(ValidateNamespaceSegment(run, "run"));
  FLOR_RETURN_IF_ERROR(BeginOp());
  OpScope op(this);
  if (AnyRecordActive()) {
    return Status::FailedPrecondition(
        "orphan reconciliation is between-sessions maintenance; a record "
        "session is executing");
  }
  return ReconcileRun(env_->fs(), JoinObjectPath(TenantRoot(tenant), run),
                      options_.tier.bucket_prefix);
}

ConnectionStats Connection::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ConnectionStats snapshot = stats_;
  // Every total is its tenants' sum, counted once on the tenant slice.
  for (const auto& [tenant, gate] : gates_) {
    const TenantStats& t = gate.stats;
    snapshot.sessions_opened += t.sessions_opened;
    snapshot.records_completed += t.records_completed;
    snapshot.replays_completed += t.replays_completed;
    snapshot.queries_served += t.queries_served;
    snapshot.admission_waits += t.admission_waits;
    snapshot.active_records += t.active_records;
    snapshot.gc_passes += t.gc_passes;
    snapshot.gc_failures += t.gc_failures;
    snapshot.tenants[tenant] = t;
  }
  return snapshot;
}

}  // namespace flor

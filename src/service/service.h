// Connection/Session — the always-on multi-tenant hindsight service
// front-end (WiredTiger's connection/session split, applied to Flor).
//
// Everything below this layer is one-shot: a RecordSession records and
// exits, a replay engine replays and exits, each opening its own
// CheckpointStore. A long-running service inverts that ownership:
//
//   * flor::Connection — opened once per process. Owns the shared
//     infrastructure: the tier configuration every store open uses
//     (bucket mirror + bloom filters, TierOptions), admission control
//     over concurrent recorders, and the background GC worker that
//     retires checkpoints after record sessions finish — demoting to the
//     bucket tier when one is attached, racing live readers safely (the
//     tiered-store fall-through contract). It owns no spooler: each
//     record session mirrors its own checkpoints to the bucket from the
//     materializer's durability ack, so a record returns with its run's
//     mirror complete and its spool report covering that run alone.
//   * flor::Session — a lightweight per-tenant handle from
//     Connection::OpenSession. Record / Replay / Query / Exists calls
//     map the tenant namespace onto run prefixes
//     ("<root>/<tenant>/<run>"), so tenants can never observe each
//     other's runs or checkpoint keys through any tier — local shards,
//     bucket fall-through, or the bloom fast path.
//
// Thread-safety follows WiredTiger: a Connection is fully thread-safe
// and meant to be shared; a Session is a cheap single-threaded handle —
// open one per thread. The one-shot entry points (RecordSession and
// exec::Replay) remain as the compat surface and share this layer's
// internals (OpenRun and CheckpointStore::Open over one TierOptions, GC by
// run prefix, RecordOptions::spool_prefix), so both paths stay
// byte-identical; Session::Replay is exec::Replay on a tenant's run.

#ifndef FLOR_SERVICE_SERVICE_H_
#define FLOR_SERVICE_SERVICE_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "checkpoint/gc.h"
#include "checkpoint/store.h"
#include "env/background_queue.h"
#include "env/env.h"
#include "exec/replay_executor.h"
#include "flor/query.h"
#include "flor/record.h"
#include "flor/replay_plan.h"

namespace flor {

class Session;

/// Connection-level configuration: the layer of knobs that is set once
/// for the service lifetime. Per-call knobs (workload costs, engine
/// choice, worker count) live in SessionRecordOptions /
/// SessionReplayOptions instead.
struct ConnectionOptions {
  /// Filesystem root of the service namespace; a tenant's runs live at
  /// "<root>/<tenant>/<run>".
  std::string root = "flor";
  /// Shard count of every run's checkpoint store.
  int ckpt_shards = 1;
  /// Read-tier configuration applied to every store the connection opens
  /// (record spool mirror, replay fall-through, Exists/query probes):
  /// bucket prefix + rehydration, bloom filters + target FPR. The same
  /// aggregate the one-shot entry points inherit.
  TierOptions tier;
  /// Local checkpoint retention, applied by the background GC worker
  /// after each record session completes. keep_last_k == 0 disables
  /// retirement. With a bucket tier attached the pass *demotes* (local
  /// deletes only, manifest intact) — live replays fault demoted epochs
  /// back in, so GC can race readers.
  GcPolicy gc;
  /// Admission control: at most this many record sessions execute
  /// concurrently; further Session::Record calls block until a slot
  /// frees (counted in ConnectionStats::admission_waits). 0 = unlimited.
  int max_concurrent_records = 0;
  /// Per-tenant admission quota: at most this many of the global slots
  /// may be held by one tenant at a time. 0 = no per-tenant cap. Freed
  /// slots are handed round-robin across *tenants* with waiting
  /// recorders, and arrivals cannot barge past the wait ring, so a burst
  /// tenant cannot starve steady ones.
  int max_records_per_tenant = 0;
};

/// Starved-wait histogram shape: exponential admission-wait buckets
/// <1ms, <10ms, <100ms, <1s, <10s, >=10s (wall-clock accounting — the
/// gate always waits in real time, even on simulated-clock connections).
inline constexpr int kStarvedWaitBucketCount = 6;

/// Bucket index for an admission wait of `seconds`.
int StarvedWaitBucket(double seconds);

/// Per-tenant slice of the service counters
/// (ConnectionStats::tenants). A tenant appears once any of its
/// sessions touches the connection.
struct TenantStats {
  int64_t sessions_opened = 0;
  int64_t records_completed = 0;
  int64_t replays_completed = 0;
  int64_t queries_served = 0;
  /// Record calls that blocked on the admission gate.
  int64_t admission_waits = 0;
  /// High-water mark of this tenant's concurrently executing records —
  /// under fair admission never exceeds max_records_per_tenant.
  int max_observed_records = 0;
  int active_records = 0;
  /// Total / worst admission-gate wait, and the starved-wait histogram
  /// (one count per blocked Record call, bucketed by wait duration).
  double admission_wait_seconds = 0;
  double max_admission_wait_seconds = 0;
  std::array<int64_t, kStarvedWaitBucketCount> starved_wait_hist{};
  /// Spool traffic attributed to this tenant's record sessions (only
  /// populated when a bucket tier is attached).
  int64_t spool_objects = 0;
  int64_t spool_bytes = 0;
  /// Read-tier traffic from this tenant's replays and Exists probes.
  int64_t bucket_faults = 0;
  int64_t bloom_skipped_probes = 0;
  /// Background retirement passes for this tenant's runs.
  int64_t gc_passes = 0;
  int64_t gc_failures = 0;
};

/// One background-GC failure, tenant-attributed
/// (ConnectionStats::recent_gc_errors).
struct GcFailure {
  std::string tenant;
  std::string run;
  std::string error;
};

/// Point-in-time service counters (Connection::stats()). Every count
/// that TenantStats also has is the sum over `tenants`.
struct ConnectionStats {
  int64_t sessions_opened = 0;
  int64_t records_completed = 0;
  int64_t replays_completed = 0;
  /// Query-surface calls served (ListRuns / FindRuns / MetricSeries /
  /// Exists).
  int64_t queries_served = 0;
  /// Record calls that blocked on the admission gate before starting.
  int64_t admission_waits = 0;
  /// High-water mark of concurrently executing record sessions.
  int max_observed_records = 0;
  /// Record sessions executing right now (point-in-time; lets a caller
  /// observe that a record is genuinely in flight).
  int active_records = 0;
  /// Background retirement passes completed / failed. The last failure
  /// message is in last_gc_error; the most recent kGcErrorRingCapacity
  /// failures survive (tenant-attributed, oldest first) in
  /// recent_gc_errors. A pass that leaves failed deletes behind counts
  /// as a failure even when the report itself decodes — orphaned local
  /// checkpoints are exactly what an operator needs to see.
  int64_t gc_passes = 0;
  int64_t gc_failures = 0;
  std::string last_gc_error;
  std::vector<GcFailure> recent_gc_errors;
  /// Per-tenant breakdowns, keyed by tenant name.
  std::map<std::string, TenantStats> tenants;
};

/// Bound on ConnectionStats::recent_gc_errors.
inline constexpr size_t kGcErrorRingCapacity = 16;

/// The shared service owner. Thread-safe; open one per process and share
/// it across threads, handing each thread its own Session.
class Connection {
 public:
  /// Validates `options` (root name, shard count) and starts the
  /// background GC worker. Does not own `env`; env->fs() must be
  /// thread-safe (all flor FileSystem implementations are). A simulated
  /// env clock makes every record/replay run on its own fresh SimClock —
  /// deterministic and byte-identical to the one-shot entry points.
  static Result<std::unique_ptr<Connection>> Open(Env* env,
                                                  ConnectionOptions options);

  /// Drains the background GC queue.
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Hands out a tenant-scoped session handle. Tenant names are path
  /// segments: [A-Za-z0-9._-]+, not "." or ".." — anything else is
  /// rejected so a tenant cannot escape its namespace.
  Result<std::unique_ptr<Session>> OpenSession(const std::string& tenant);

  /// Blocks until every scheduled GC pass has run.
  void DrainBackground();

  /// Graceful drain: stops admitting new work (every subsequent session
  /// call — and any Record blocked on the admission gate — fails with
  /// Unavailable), waits for in-flight session calls to finish, then
  /// drains the GC queue. `deadline_seconds > 0` bounds the wait for
  /// in-flight work: on expiry Close returns Aborted *without* draining —
  /// the connection stays closed and a later Close() can finish the job.
  /// Idempotent; 0 = wait forever.
  Status Close(double deadline_seconds = 0);

  /// True once Close has been called (even if a deadline expired).
  bool closed() const;

  /// Bucket-tier retirement (keep-newest-K') for one run. Synchronous,
  /// between-sessions maintenance: fails with FailedPrecondition while
  /// any record session is executing.
  Result<GcReport> RetireBucket(const std::string& tenant,
                                const std::string& run,
                                const GcPolicy& policy);

  /// Manifest-vs-listing orphan sweep for one run. Synchronous,
  /// between-sessions maintenance like RetireBucket.
  Result<ReconcileReport> Reconcile(const std::string& tenant,
                                    const std::string& run);

  ConnectionStats stats() const;
  const ConnectionOptions& options() const { return options_; }
  Env* env() const { return env_; }

  /// "<root>/<tenant>" — the prefix a session's queries scan. The
  /// trailing-slash scan in ListRuns means tenant "a" can never match
  /// tenant "ab"'s runs.
  std::string TenantRoot(const std::string& tenant) const;

 private:
  friend class Session;

  explicit Connection(Env* env, ConnectionOptions options);

  /// Per-tenant admission gate state, owned by the connection map so
  /// pointers stay stable across rehashes. Slots are handed off
  /// directly: the granter accounts the slot and posts a token, and the
  /// woken waiter consumes the token without re-checking capacity — so
  /// a freed slot can never be stolen by a barging arrival.
  struct TenantGate {
    explicit TenantGate(std::string n) : name(std::move(n)) {}
    std::string name;
    int waiting = 0;  ///< blocked Record calls
    int tokens = 0;   ///< granted-but-unconsumed slots
    bool in_ring = false;
    std::condition_variable cv;
    TenantStats stats;
  };

  /// In-flight-call guard around every session op: refuses with
  /// Unavailable once the connection is closing, and lets Close wait
  /// for the stragglers.
  Status BeginOp();
  void EndOp();

  /// RAII over a successful BeginOp.
  class OpScope {
   public:
    explicit OpScope(Connection* conn) : conn_(conn) {}
    ~OpScope() { conn_->EndOp(); }
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

   private:
    Connection* conn_;
  };

  /// Admission gate. On success *waited_seconds is the wall-clock gate
  /// wait (0 when admitted immediately); Unavailable when the
  /// connection closes while waiting.
  Status AcquireRecordSlot(const std::string& tenant,
                           double* waited_seconds);
  void ReleaseRecordSlot(const std::string& tenant);

  /// Hands freed capacity to waiting tenants, round-robin across the
  /// wait ring. Caller holds mu_.
  void GrantSlotsLocked();
  bool GlobalSlotFreeLocked() const;
  bool TenantSlotFreeLocked(const TenantGate& gate) const;
  void AdmitLocked(TenantGate* gate);
  TenantGate* GateLocked(const std::string& tenant);

  /// Queues a background retirement pass for a tenant's finished run
  /// (no-op when gc.keep_last_k == 0). Tenant/run feed the GC failure ring.
  void ScheduleRetirement(const std::string& tenant, const std::string& run);

  void BumpQuery(const std::string& tenant);
  void BumpReplay(const std::string& tenant, int64_t bucket_faults,
                  int64_t bloom_skipped_probes);
  void BumpRecord(const std::string& tenant, int64_t spool_objects,
                  int64_t spool_bytes);
  /// Read-tier deltas from an Exists probe.
  void AccountTier(const std::string& tenant, const TierStats& delta);

  /// True while any record session is executing (guards the synchronous
  /// maintenance entry points).
  bool AnyRecordActive() const;

  Env* env_;
  ConnectionOptions options_;
  BackgroundQueue gc_queue_;

  mutable std::mutex mu_;
  std::condition_variable ops_idle_;  ///< Close waits here
  std::map<std::string, TenantGate> gates_;
  /// Round-robin grant order: tenants with waiting recorders, each at
  /// most once.
  std::deque<TenantGate*> wait_ring_;
  int active_records_ = 0;
  int in_flight_ops_ = 0;
  bool closing_ = false;
  /// Connection-wide fields only (max_observed_records and the GC error
  /// ring); stats() sums every total from the tenant slices.
  ConnectionStats stats_;
};

/// Per-call record knobs — the workload-shaped layer (cost models,
/// adaptive controller); everything store/tier/GC-shaped is connection
/// state.
struct SessionRecordOptions {
  /// Workload name stored in the manifest (informational).
  std::string workload;
  MaterializerOptions materializer;
  AdaptiveOptions adaptive;
  /// Nominal (paper-scale) raw bytes per checkpoint for the simulated
  /// cost model; 0 = actual snapshot sizes.
  uint64_t nominal_checkpoint_bytes = 0;
  /// Optional vanilla runtime of the same program (manifest field).
  double vanilla_runtime_seconds = 0;
};

/// Per-call replay knobs. Session::Replay turns `workers`, the run prefix
/// and the connection's tier into one replay request (ClusterPlanOptions)
/// with the default init mode (weak where it is exact, strong otherwise),
/// and runs it with exec::Replay: the thread engine runs one thread per
/// worker, and the process engine commits its results to a fresh scratch
/// directory.
struct SessionReplayOptions {
  ReplayEngine engine = ReplayEngine::kSimulated;
  /// Log partitions (the paper's G); one worker per partition.
  int workers = 1;
};

/// Record outcome through the service path: everything the one-shot
/// RecordSession reports, plus what only the service layer can know —
/// how long this call was held at the admission gate.
struct SessionRecordResult : RecordResult {
  /// Wall-clock admission-gate wait before the run started (0 when
  /// admitted immediately).
  double admission_wait_seconds = 0;
};

/// A tenant-scoped handle. Cheap to create and destroy; NOT thread-safe —
/// like a WiredTiger session, open one per thread and share the
/// Connection instead.
class Session {
 public:
  const std::string& tenant() const { return tenant_; }
  Connection* connection() const { return conn_; }

  /// "<root>/<tenant>/<run>" after validating `run` as a path segment.
  Result<std::string> RunPrefix(const std::string& run) const;

  /// Records one program execution as run `run` under this tenant,
  /// mirroring its checkpoints to the connection's bucket tier (when one
  /// is attached) and subject to its admission gate. Retirement
  /// (ConnectionOptions::gc) is scheduled on the connection's background
  /// worker after the artifacts are durable — the session never blocks on
  /// GC.
  Result<SessionRecordResult> Record(const std::string& run,
                                     const ProgramFactory& factory,
                                     const SessionRecordOptions& options =
                                         SessionRecordOptions());

  /// Replays run `run` on the chosen engine. `factory` rebuilds the
  /// *current* (possibly probed) program per worker. The merged result is
  /// byte-identical across the three engines.
  Result<MergedClusterReplay> Replay(const std::string& run,
                                     const ProgramFactory& factory,
                                     const SessionReplayOptions& options =
                                         SessionReplayOptions());

  /// This tenant's recorded runs (never another tenant's: the scan is
  /// prefix-scoped to TenantRoot).
  Result<std::vector<RunInfo>> Query() const;

  /// This tenant's runs whose record logs satisfy `predicate`.
  Result<std::vector<RunInfo>> Query(const RunPredicate& predicate) const;

  /// Numeric series of `label` from a run's record logs.
  Result<std::vector<double>> MetricSeries(const std::string& run,
                                           const std::string& label) const;

  /// Whether `key` is readable through any tier of `run`'s store, opened
  /// with OpenRun and the connection's tier (bucket fall-through, bloom
  /// fast path). NotFound when the run itself does not exist.
  Result<bool> Exists(const std::string& run,
                      const CheckpointKey& key) const;

 private:
  friend class Connection;

  Session(Connection* conn, std::string tenant);

  Connection* conn_;
  std::string tenant_;
};

/// Longest accepted tenant/run name. Chosen under every mainstream
/// filesystem's 255-byte component limit so an over-long name fails
/// here with InvalidArgument instead of surfacing as ENAMETOOLONG from
/// deep inside a record session.
inline constexpr size_t kMaxNamespaceSegmentBytes = 200;

/// Validates a tenant or run name as a single safe path segment:
/// non-empty, at most kMaxNamespaceSegmentBytes bytes, [A-Za-z0-9._-]
/// only, not "." or "..". Exposed for tests.
Status ValidateNamespaceSegment(const std::string& name,
                                const char* what);

}  // namespace flor

#endif  // FLOR_SERVICE_SERVICE_H_

#ifndef KOLA_SERVICE_SERVICE_H_
#define KOLA_SERVICE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/resource.h"
#include "common/statusor.h"
#include "optimizer/optimizer.h"
#include "optimizer/retry.h"
#include "rewrite/properties.h"
#include "service/plan_cache.h"
#include "service/plan_cache_io.h"
#include "term/intern.h"
#include "values/database.h"

namespace kola {

/// Which front end parses a request's query text.
enum class QueryLanguage { kKola, kOql, kAqua };

StatusOr<QueryLanguage> ParseQueryLanguage(std::string_view name);
const char* QueryLanguageName(QueryLanguage language);

/// Replication role. A primary is the source of truth; a standby follows a
/// primary via snapshot shipping (replication.h) and refuses BUMP; a
/// promoted standby has taken over after primary loss and accepts BUMP.
enum class ServiceRole { kPrimary = 0, kStandby, kPromoted };
const char* ServiceRoleName(ServiceRole role);

/// What the HEALTH endpoint reports. READY: serving reads at the current
/// catalog. SYNCING: a standby that has never applied a sync (it answers
/// ERR NOT_READY) or whose recent syncs keep failing (it still serves its
/// last-synced state). DRAINING: RequestShutdown has run; in-flight
/// requests finish but clients should steer away.
enum class ServiceHealth { kReady = 0, kSyncing, kDraining };
const char* ServiceHealthName(ServiceHealth health);

/// One QoS tier: a named resource envelope mapped onto Governor::Limits,
/// plus the retry-escalation depth for requests that exhaust it. Tiers are
/// how the daemon sheds load -- a request over its tier's budget degrades
/// to the best-so-far plan (PR 4/5 machinery) instead of being dropped or
/// crashing the process.
struct TierPolicy {
  std::string name;
  int64_t deadline_ms = 0;           // 0 = no deadline
  int64_t step_budget = 0;           // 0 = unlimited
  int64_t memory_budget_bytes = 0;   // 0 = unlimited (still metered)
  /// RetrySupervisor attempts (1 = no escalation): a query that exhausts
  /// the envelope is re-run under geometrically escalated budgets, and
  /// quarantined (best degraded plan returned) when the schedule tops out.
  int max_attempts = 1;
  double escalation_factor = 2.0;
};

/// The stock tier table: `gold` (deadline-free, generous byte budget,
/// escalating retries -- deterministic outcomes, the cacheable tier),
/// `silver` (bounded steps and bytes, one retry), `bronze` (tight deadline
/// and budgets, no retries -- sheds by degrading).
std::vector<TierPolicy> DefaultTiers();

struct ServiceOptions {
  /// Plan-cache entry bound (0 = unbounded); eviction is deterministic
  /// second-chance, see PlanCache.
  size_t cache_capacity = 4096;
  bool cache_enabled = true;
  /// Worker parallelism: how many optimizations may run concurrently (one
  /// pooled Optimizer each). Clamped to >= 1.
  int jobs = 1;
  /// Admission control: with a positive bound, a request arriving while
  /// this many are already in flight is shed with RESOURCE_EXHAUSTED
  /// (counted, never fatal). 0 = unlimited (requests queue on the
  /// optimizer pool instead).
  int max_inflight = 0;
  /// Tier table; must be non-empty. The first tier is the default.
  std::vector<TierPolicy> tiers = DefaultTiers();
  /// Start as a replication standby: serve reads only after the first
  /// applied sync (ERR NOT_READY before that -- a standby must never
  /// answer for a catalog it has not seen), refuse BUMP until promoted.
  bool standby = false;
};

struct ServiceRequest {
  std::string tier;                        // TierPolicy::name
  QueryLanguage language = QueryLanguage::kKola;
  std::string text;                        // query in `language`
  /// Skip the plan cache entirely (no lookup, no insert): the `F` protocol
  /// verb, which the soak harness uses to check a warm hit against a fresh
  /// optimization byte-for-byte.
  bool bypass_cache = false;
};

struct ServiceResponse {
  Status status;            // non-OK: the request failed (parse, tier, shed)
  bool cache_hit = false;
  bool degraded = false;
  bool quarantined = false;
  bool shed = false;        // rejected by admission control
  int64_t latency_usec = 0;
  /// Stable serialization of the optimization outcome (plan, rewritten
  /// candidate, costs, applied blocks, fired rules, degradation) -- every
  /// OptimizeResult field except the full trace term dumps. Cache entries
  /// store exactly this string, so a warm hit is byte-identical to a fresh
  /// optimization of the same shape by construction, and the soak test
  /// asserts it stays that way.
  std::string payload;
};

struct ServiceStats {
  uint64_t requests = 0;
  uint64_t parse_errors = 0;
  uint64_t shed = 0;
  uint64_t degraded = 0;
  uint64_t quarantined = 0;
  uint64_t retried = 0;     // requests that took >1 supervised attempt
  PlanCacheStats cache;
  uint64_t catalog_version = 0;
  uint64_t rule_fingerprint = 0;
  size_t key_interner_terms = 0;
  int64_t key_interner_bytes = 0;
  int64_t peak_bytes = 0;   // max total governed bytes of any one request
  int64_t category_peak_bytes[kNumMemoryCategories] = {};
  /// Equality-saturation phase counters (all zero unless KOLA_EGRAPH /
  /// RewriterOptions::use_egraph is on for the pooled optimizers).
  uint64_t egraph_runs = 0;       // requests whose pass ran the e-graph
  uint64_t egraph_nodes = 0;      // cumulative e-nodes across those runs
  uint64_t egraph_classes = 0;    // cumulative e-classes across those runs
  uint64_t egraph_rule_applications = 0;  // cumulative saturation firings
  uint64_t egraph_saturated = 0;  // runs that reached full saturation
  /// Crash-recovery counters (zero unless a snapshot path is in use).
  uint64_t snapshot_writes = 0;         // snapshot files successfully written
  uint64_t snapshot_write_failures = 0;
  uint64_t snapshot_last_entries = 0;   // entries in the latest snapshot
  uint64_t restored_entries = 0;        // cache entries revived on restore
  uint64_t restore_skipped = 0;         // snapshot entries rejected on restore
  int64_t uptime_sec = 0;               // seconds since service construction
  /// Replication counters (all zero on an unreplicated primary).
  uint64_t syncs_served = 0;          // SYNC streams shipped to standbys
  uint64_t syncs_applied = 0;         // syncs successfully applied (standby)
  uint64_t sync_failures = 0;         // failed sync attempts (standby)
  uint64_t sync_entries_applied = 0;  // entries revived by applied syncs
  uint64_t sync_entries_skipped = 0;  // sync entries rejected on apply
  int consecutive_sync_failures = 0;
  bool promoted = false;              // a standby that took over
  int64_t last_sync_lag_ms = -1;      // ms since last applied sync; -1 never
  std::string health_history;         // recent states, "SYNCING>READY>..."
};

/// Outcome of restoring a snapshot at startup. `status` is NOT_FOUND for a
/// normal cold start with no snapshot file, and OK whenever a file was
/// processed -- corrupt content is never an error, it is `skipped`.
struct SnapshotRestoreReport {
  Status status;
  uint64_t restored = 0;  // entries revived into the plan cache
  uint64_t skipped = 0;   // corrupt/truncated/mismatched entries dropped
  uint64_t catalog_version = 0;  // the service's version after adoption
};

/// Per-tier latency histogram: log2-usec buckets (bucket i counts requests
/// with latency in [2^i, 2^(i+1)) usec), plus count and sum for the mean.
struct LatencyHistogram {
  static constexpr int kBuckets = 32;
  uint64_t count = 0;
  uint64_t sum_usec = 0;
  uint64_t buckets[kBuckets] = {};
};

/// The histogram's bucket index for one latency: 0 for usec <= 1 (and any
/// non-positive clock artifact), floor(log2(usec)) otherwise, saturating
/// at kBuckets - 1. Exposed so the bucket boundaries are testable.
int LatencyBucket(int64_t usec);

/// The engine behind `kolad`: parses KOLA/OQL/AQUA text, optimizes under
/// per-tenant QoS tiers, and answers repeated query shapes from the plan
/// cache. Composes the existing library primitives -- a shared key
/// interner, per-tier Governor envelopes, RetrySupervisor escalation,
/// pooled Optimizers -- into one long-lived, shed-don't-crash component.
/// Thread-safe: Handle may be called from any number of threads;
/// optimizations are serialized onto options.jobs pooled Optimizer
/// instances.
class OptimizationService {
 public:
  /// `db` and `properties` must outlive the service and stay unmodified
  /// while it runs (a catalog change is modeled by BumpCatalogVersion).
  OptimizationService(const Database* db, const PropertyStore* properties,
                      ServiceOptions options);

  OptimizationService(const OptimizationService&) = delete;
  OptimizationService& operator=(const OptimizationService&) = delete;

  /// Serves one request end to end: parse, canonicalize in the key
  /// interner, cache probe, optimize under the tier's envelope with
  /// retry escalation, cache fill. Never throws; every failure is a Status
  /// in the response.
  ServiceResponse Handle(const ServiceRequest& request);

  /// The line protocol: "Q <tier> <lang> <query>", "F <tier> <lang>
  /// <query>", "STATS", "BUMP", "PING", "HEALTH", "SYNC". Returns the
  /// full response text (possibly multi-line for STATS, length-prefixed
  /// binary-ish for SYNC); the final line always starts with "OK" or
  /// "ERR". QUIT/SHUTDOWN are connection-level verbs handled by the
  /// server, not here.
  std::string HandleLine(const std::string& line);

  /// Invalidates every cached plan by advancing the catalog version (new
  /// lookups miss; stale entries are dropped eagerly). Returns the new
  /// version.
  uint64_t BumpCatalogVersion();

  /// Writes the current plan-cache contents to `path` (atomic
  /// tmp-file-and-rename, per-entry checksums -- see plan_cache_io.h) so a
  /// restarted daemon can answer warm. Safe to call while serving; counts
  /// into snapshot_writes / snapshot_write_failures.
  Status SaveSnapshot(const std::string& path);

  /// Restores a snapshot written by SaveSnapshot: adopts the snapshot's
  /// catalog version (so restored keys stay live and a later BUMP still
  /// invalidates them), re-parses each key-term rendering and re-interns
  /// it through the shared key interner -- a restored shape's warm hit is
  /// byte-identical to a fresh optimization by the same argument as a
  /// never-restarted cache. Entries that fail checksum, parse, rule
  /// fingerprint or catalog-version validation are skipped and counted,
  /// never fatal. Call before serving traffic.
  SnapshotRestoreReport RestoreSnapshot(const std::string& path);

  ServiceRole role() const {
    return static_cast<ServiceRole>(role_.load(std::memory_order_acquire));
  }
  ServiceHealth health() const;

  /// True when this endpoint may answer Q/F: always on a primary or a
  /// promoted standby; on a standby only once its first sync has applied.
  /// Draining does not revoke it -- in-flight readers still finish.
  bool ServingReads() const;

  /// One-way latch set by the server once RequestShutdown has run. PING
  /// answers "OK draining" and HEALTH reports DRAINING from then on.
  void SetDraining();

  /// Standby -> promoted after primary loss: starts accepting BUMP and
  /// reports READY. Idempotent; a no-op on a primary.
  void Promote();

  /// Records one failed sync attempt (standby side) and returns the
  /// consecutive-failure count, which the replication client compares
  /// against its promotion threshold.
  int NoteSyncFailure();

  /// The SYNC response body a primary ships (after the protocol's "OK "):
  /// "SNAPSHOT <len> <hex end-to-end checksum>\n" followed by exactly
  /// <len> KOLASNAP bytes. The checksum covers the bytes as sent, so a
  /// torn or corrupted stream is detected before any entry is applied.
  std::string EncodeSyncResponse();

  /// Applies a shipped snapshot stream on a standby: decode, rule
  /// fingerprint check, CAS-max catalog-version adoption (clearing
  /// entries the adoption just made stale), then the same tolerant
  /// per-entry revive as RestoreSnapshot. A successful apply marks the
  /// standby sync-ready; an unusable header or foreign fingerprint is an
  /// error and leaves readiness untouched.
  SnapshotRestoreReport ApplySyncBytes(std::string_view bytes);

  /// The HEALTH protocol body (after "OK "): state, role, whether the
  /// endpoint should receive reads, sync status, replication lag and
  /// catalog version, all on one line.
  std::string HealthLine() const;

  uint64_t catalog_version() const {
    return catalog_version_.load(std::memory_order_acquire);
  }
  uint64_t rule_fingerprint() const { return rule_fingerprint_; }

  ServiceStats stats() const;
  LatencyHistogram tier_latency(const std::string& tier) const;
  /// The STATS protocol body: "S <key> <value...>" lines + "OK stats".
  std::string StatsText() const;

  /// Optional extra STATS line: the provider's return value is emitted as
  /// one "S <body>" line (the SocketServer wires its socket counters in
  /// here). Install before serving traffic; not synchronized against
  /// concurrent StatsText calls.
  void set_extra_stats(std::function<std::string()> provider) {
    extra_stats_ = std::move(provider);
  }

  const ServiceOptions& options() const { return options_; }

 private:
  const TierPolicy* FindTier(const std::string& name) const;
  StatusOr<TermPtr> ParseRequest(QueryLanguage language,
                                 const std::string& text) const;
  std::unique_ptr<Optimizer> AcquireOptimizer();
  void ReleaseOptimizer(std::unique_ptr<Optimizer> optimizer);
  void RecordOutcome(const TierPolicy& tier, const RetryReport& report,
                     int64_t latency_usec);
  void MaybeCompactKeyInterner();
  PlanSnapshot BuildSnapshot();
  /// The tolerant per-entry revive shared by crash restore and sync
  /// apply: entries cached under exactly `adopted` re-parse, re-intern
  /// and insert; everything else counts into *skipped.
  void ReviveEntries(const PlanSnapshot& snapshot, uint64_t adopted,
                     uint64_t* restored, uint64_t* skipped);
  /// Appends the current health state to the bounded transition history
  /// if it changed (so READY->SYNCING->READY is observable in STATS).
  void RecordHealthTransition();

  const Database* db_;
  const PropertyStore* properties_;
  ServiceOptions options_;
  uint64_t rule_fingerprint_;
  std::atomic<uint64_t> catalog_version_{1};
  const std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();
  std::function<std::string()> extra_stats_;

  /// Replication / lifecycle state. role_ holds a ServiceRole; the rest
  /// are one-way or monotonic flags, so plain atomics suffice.
  std::atomic<int> role_{0};
  std::atomic<bool> draining_{false};
  std::atomic<bool> sync_ready_{false};
  std::atomic<int> consecutive_sync_failures_{0};
  std::atomic<int64_t> last_sync_time_ms_{-1};  // steady-clock ms; -1 never
  std::vector<std::string> health_history_;     // guarded by stats_mu_

  /// Canonicalizes incoming query shapes for O(1) cache keys. Entries are
  /// kept alive by the cache's key references and compacted once eviction
  /// has retired enough of them.
  TermInterner key_interner_;
  PlanCache cache_;
  uint64_t compacted_at_evictions_ = 0;  // guarded by stats_mu_

  /// Idle per-worker Optimizer clones; Handle blocks here when more than
  /// options.jobs requests want to optimize at once.
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::vector<std::unique_ptr<Optimizer>> optimizer_pool_;

  std::atomic<int> inflight_{0};

  mutable std::mutex stats_mu_;
  ServiceStats stats_;
  std::vector<LatencyHistogram> tier_latency_;  // parallel to options.tiers
};

}  // namespace kola

#endif  // KOLA_SERVICE_SERVICE_H_

#include "service/service.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/fault_injection.h"
#include "common/line_io.h"
#include "common/string_util.h"
#include "rules/catalog.h"
#include "service/plan_cache_io.h"
#include "term/parser.h"
#include "term/term.h"
#include "translate/translate.h"

namespace kola {

namespace {

/// Key-interner compaction cadence: after this many cache evictions, the
/// interner sweeps entries nothing holds anymore (the evicted shapes).
constexpr uint64_t kCompactEveryEvictions = 256;

/// Hard cap on how long one protocol line may be; a longer line is a
/// malformed request, answered with an error rather than buffered forever.
constexpr size_t kMaxQueryBytes = 1 << 20;

/// A standby whose syncs keep failing flips HEALTH to SYNCING at this many
/// consecutive failures (one transient miss does not flap the endpoint).
constexpr int kSyncingAfterFailures = 2;

/// Bound on the health transition history kept for STATS; only the recent
/// tail (e.g. READY>SYNCING>READY around a failover) is interesting.
constexpr size_t kHealthHistoryLimit = 8;

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Error text travels on a single protocol line; newlines would desync the
/// stream.
std::string OneLine(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

/// The stable payload: every OptimizeResult field except the full trace
/// term dumps (the fired rule ids stand in for it). Fields are
/// tab-separated -- no term, rule id, or block name renders a tab -- so
/// clients can split mechanically and byte-compare whole payloads.
std::string SerializeOutcome(const std::string& tier, const OptimizeResult& r,
                             const RetryReport& report) {
  std::string out;
  out.reserve(256);
  out += "tier=" + tier;
  out += "\tdegraded=";
  out += r.degradation.degraded ? '1' : '0';
  out += "\tquarantined=";
  out += report.quarantined ? '1' : '0';
  out += "\tattempts=" + std::to_string(report.attempts);
  out += "\tkept=";
  out += r.kept_rewrite ? '1' : '0';
  out += "\tcost=" + FormatDouble(r.cost_before) + "->" +
         FormatDouble(r.cost_after);
  out += "\tblocks=" + Join(r.applied_blocks, ",");
  out += "\trules=" + Join(r.trace.RuleIds(), ",");
  out += "\tplan=" + (r.query == nullptr ? "" : r.query->ToString());
  out += "\trewritten=" +
         (r.rewritten == nullptr ? "" : r.rewritten->ToString());
  out += "\tdegradation=" + OneLine(r.degradation.ToString());
  return out;
}

}  // namespace

int LatencyBucket(int64_t usec) {
  if (usec <= 0) return 0;
  int bucket = std::bit_width(static_cast<uint64_t>(usec)) - 1;
  return std::min(bucket, LatencyHistogram::kBuckets - 1);
}

const char* ServiceRoleName(ServiceRole role) {
  switch (role) {
    case ServiceRole::kPrimary:
      return "primary";
    case ServiceRole::kStandby:
      return "standby";
    case ServiceRole::kPromoted:
      return "promoted";
  }
  return "unknown";
}

const char* ServiceHealthName(ServiceHealth health) {
  switch (health) {
    case ServiceHealth::kReady:
      return "READY";
    case ServiceHealth::kSyncing:
      return "SYNCING";
    case ServiceHealth::kDraining:
      return "DRAINING";
  }
  return "UNKNOWN";
}

std::vector<TierPolicy> DefaultTiers() {
  // gold is deadline-free on purpose: its outcomes are a pure function of
  // the query (step and byte budgets are deterministic), which is what
  // makes warm-hit-vs-fresh byte identity assertable in CI. bronze trades
  // that for a hard latency envelope.
  return {
      TierPolicy{.name = "gold",
                 .deadline_ms = 0,
                 .step_budget = 0,
                 .memory_budget_bytes = 256 << 20,
                 .max_attempts = 3},
      TierPolicy{.name = "silver",
                 .deadline_ms = 0,
                 .step_budget = 2'000'000,
                 .memory_budget_bytes = 32 << 20,
                 .max_attempts = 2},
      TierPolicy{.name = "bronze",
                 .deadline_ms = 100,
                 .step_budget = 100'000,
                 .memory_budget_bytes = 1 << 20,
                 .max_attempts = 1},
  };
}

OptimizationService::OptimizationService(const Database* db,
                                         const PropertyStore* properties,
                                         ServiceOptions options)
    : db_(db),
      properties_(properties),
      options_(std::move(options)),
      rule_fingerprint_(Catalog::Get().fingerprint()),
      cache_(options_.cache_capacity),
      optimizer_(properties_, db_),
      optimize_slots_(std::max(options_.jobs, 1)) {
  if (options_.jobs < 1) options_.jobs = 1;
  if (options_.tiers.empty()) options_.tiers = DefaultTiers();
  tier_latency_.resize(options_.tiers.size());
  role_.store(static_cast<int>(options_.standby ? ServiceRole::kStandby
                                                : ServiceRole::kPrimary),
              std::memory_order_release);
  RecordHealthTransition();  // seed the history: READY or SYNCING
}

ServiceHealth OptimizationService::health() const {
  if (draining_.load(std::memory_order_acquire)) {
    return ServiceHealth::kDraining;
  }
  switch (role()) {
    case ServiceRole::kPrimary:
    case ServiceRole::kPromoted:
      return ServiceHealth::kReady;
    case ServiceRole::kStandby:
      if (!sync_ready_.load(std::memory_order_acquire) ||
          consecutive_sync_failures_.load(std::memory_order_acquire) >=
              kSyncingAfterFailures) {
        return ServiceHealth::kSyncing;
      }
      return ServiceHealth::kReady;
  }
  return ServiceHealth::kSyncing;
}

bool OptimizationService::ServingReads() const {
  return role() != ServiceRole::kStandby ||
         sync_ready_.load(std::memory_order_acquire);
}

void OptimizationService::SetDraining() {
  draining_.store(true, std::memory_order_release);
  RecordHealthTransition();
}

void OptimizationService::Promote() {
  int expected = static_cast<int>(ServiceRole::kStandby);
  if (role_.compare_exchange_strong(
          expected, static_cast<int>(ServiceRole::kPromoted),
          std::memory_order_acq_rel)) {
    // A promoted standby is the new source of truth at whatever catalog
    // version it last synced; serving it is correct because every entry it
    // holds was validated against exactly that version.
    sync_ready_.store(true, std::memory_order_release);
    RecordHealthTransition();
  }
}

int OptimizationService::NoteSyncFailure() {
  int failures =
      consecutive_sync_failures_.fetch_add(1, std::memory_order_acq_rel) + 1;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.sync_failures;
  }
  RecordHealthTransition();
  return failures;
}

void OptimizationService::RecordHealthTransition() {
  const std::string name = ServiceHealthName(health());
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (!health_history_.empty() && health_history_.back() == name) return;
  health_history_.push_back(name);
  if (health_history_.size() > kHealthHistoryLimit) {
    health_history_.erase(health_history_.begin());
  }
}

const TierPolicy* OptimizationService::FindTier(
    const std::string& name) const {
  for (const TierPolicy& tier : options_.tiers) {
    if (tier.name == name) return &tier;
  }
  return nullptr;
}

void OptimizationService::RecordOutcome(const TierPolicy& tier,
                                        const RetryReport& report,
                                        int64_t latency_usec) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (report.degraded) ++stats_.degraded;
  if (report.quarantined) ++stats_.quarantined;
  if (report.attempts > 1) ++stats_.retried;
  stats_.peak_bytes = std::max(stats_.peak_bytes, report.peak_bytes);
  for (int c = 0; c < kNumMemoryCategories; ++c) {
    stats_.category_peak_bytes[c] = std::max(
        stats_.category_peak_bytes[c], report.category_peak_bytes[c]);
  }
  size_t index = static_cast<size_t>(&tier - options_.tiers.data());
  LatencyHistogram& histogram = tier_latency_[index];
  ++histogram.count;
  histogram.sum_usec += static_cast<uint64_t>(latency_usec);
  ++histogram.buckets[LatencyBucket(latency_usec)];
}

void OptimizationService::MaybeCompactKeyInterner() {
  uint64_t evictions = cache_.stats().evictions;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (evictions - compacted_at_evictions_ < kCompactEveryEvictions) return;
    compacted_at_evictions_ = evictions;
  }
  // Evicted cache entries were the last holders of their key terms; the
  // sweep returns that memory. Safe while other threads intern.
  key_interner_.Compact();
}

uint64_t OptimizationService::BumpCatalogVersion() {
  uint64_t version =
      catalog_version_.fetch_add(1, std::memory_order_acq_rel) + 1;
  // Every cached key carries an older version and can never hit again;
  // reclaim eagerly instead of waiting for the clock hand.
  cache_.Clear();
  key_interner_.Compact();
  return version;
}

PlanSnapshot OptimizationService::BuildSnapshot() {
  PlanSnapshot snapshot;
  snapshot.rule_fingerprint = rule_fingerprint_;
  snapshot.catalog_version = catalog_version();
  for (const PlanCacheEntry& entry : cache_.Entries()) {
    PlanSnapshotEntry out;
    out.catalog_version = entry.key.catalog_version;
    // TermIds are process-local; the canonical rendering is the portable
    // key. Restore re-parses it and re-interns through the (fresh) key
    // interner, which re-derives the same canonical shape.
    out.term_text = entry.term->ToString();
    out.payload = entry.payload;
    snapshot.entries.push_back(std::move(out));
  }
  return snapshot;
}

Status OptimizationService::SaveSnapshot(const std::string& path) {
  PlanSnapshot snapshot = BuildSnapshot();
  Status status = WritePlanSnapshotFile(path, snapshot);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (status.ok()) {
      ++stats_.snapshot_writes;
      stats_.snapshot_last_entries = snapshot.entries.size();
    } else {
      ++stats_.snapshot_write_failures;
    }
  }
  return status;
}

SnapshotRestoreReport OptimizationService::RestoreSnapshot(
    const std::string& path) {
  SnapshotRestoreReport report;
  SnapshotReadReport read_report;
  StatusOr<PlanSnapshot> loaded = ReadPlanSnapshotFile(path, &read_report);
  if (!loaded.ok()) {
    // NOT_FOUND is the ordinary cold start; an I/O error is reported but
    // still non-fatal -- the daemon simply starts cold.
    report.status = loaded.status();
    report.catalog_version = catalog_version();
    return report;
  }
  const PlanSnapshot& snapshot = loaded.value();
  report.skipped = read_report.skipped;

  if (snapshot.rule_fingerprint != rule_fingerprint_) {
    // The rule catalog changed across the restart: every cached plan was
    // computed by a different optimizer and none may be served warm.
    report.skipped += snapshot.entries.size();
    report.status = Status::OK();
    report.catalog_version = catalog_version();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.restore_skipped += report.skipped;
    }
    return report;
  }

  // Adopt the snapshot's catalog version (monotonic max) so restored keys
  // stay live and a post-restart BUMP still invalidates them. A fresh
  // daemon starts at 1; the snapshot of a bumped daemon carries more.
  uint64_t current = catalog_version_.load(std::memory_order_acquire);
  while (snapshot.catalog_version > current &&
         !catalog_version_.compare_exchange_weak(
             current, snapshot.catalog_version, std::memory_order_acq_rel)) {
  }
  const uint64_t adopted = catalog_version();
  report.catalog_version = adopted;

  ReviveEntries(snapshot, adopted, &report.restored, &report.skipped);

  report.status = Status::OK();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.restored_entries += report.restored;
    stats_.restore_skipped += report.skipped;
  }
  return report;
}

void OptimizationService::ReviveEntries(const PlanSnapshot& snapshot,
                                        uint64_t adopted, uint64_t* restored,
                                        uint64_t* skipped) {
  for (const PlanSnapshotEntry& entry : snapshot.entries) {
    // An entry cached under an older catalog version was already
    // invalidated at its source; reviving it would serve stale plans.
    if (entry.catalog_version != adopted) {
      ++*skipped;
      continue;
    }
    StatusOr<TermPtr> parsed = ParseQuery(entry.term_text);
    if (!parsed.ok()) {
      ++*skipped;
      continue;
    }
    TermPtr canonical = key_interner_.Intern(parsed.value());
    const TermId query_id = key_interner_.IdOf(canonical);
    if (query_id == 0) {
      ++*skipped;
      continue;
    }
    const PlanCacheKey key{query_id, rule_fingerprint_, adopted};
    cache_.Insert(key, canonical, entry.payload);
    ++*restored;
  }
}

std::string OptimizationService::EncodeSyncResponse() {
  std::string encoded = EncodePlanSnapshot(BuildSnapshot());
  char checksum[24];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(StableStringHash(encoded)));
  // The chaos site for replication: corrupt one byte AFTER the end-to-end
  // checksum was computed, exactly what a torn TCP stream or bit rot in
  // transit looks like. The standby must detect it and count a failed
  // sync, never apply a damaged stream.
  if (!MaybeInjectFault(FaultSite::kReplSync).ok() && !encoded.empty()) {
    encoded[encoded.size() / 2] ^= 0x40;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.syncs_served;
  }
  return "SNAPSHOT " + std::to_string(encoded.size()) + " " + checksum +
         "\n" + encoded;
}

SnapshotRestoreReport OptimizationService::ApplySyncBytes(
    std::string_view bytes) {
  SnapshotRestoreReport report;
  SnapshotReadReport read_report;
  PlanSnapshot snapshot = DecodePlanSnapshot(bytes, &read_report);
  report.skipped = read_report.skipped;
  report.catalog_version = catalog_version();
  if (!read_report.header_ok) {
    report.status =
        InvalidArgumentError("sync stream: unusable snapshot header");
    return report;
  }
  if (snapshot.rule_fingerprint != rule_fingerprint_) {
    // Version skew: the primary runs a different rule catalog, so none of
    // its plans are this process's plans. Refusing the whole sync (rather
    // than skipping entries) keeps the standby NOT_READY instead of
    // "ready" with an empty, wrong view.
    report.skipped += snapshot.entries.size();
    report.status = FailedPreconditionError(
        "sync stream: rule fingerprint mismatch (primary runs a different "
        "rule catalog)");
    return report;
  }

  // CAS-max adoption, same as crash restore: the version only moves
  // forward, so a standby can never answer for a catalog older than any
  // it has acknowledged.
  const uint64_t before = catalog_version_.load(std::memory_order_acquire);
  uint64_t current = before;
  while (snapshot.catalog_version > current &&
         !catalog_version_.compare_exchange_weak(
             current, snapshot.catalog_version, std::memory_order_acq_rel)) {
  }
  const uint64_t adopted = catalog_version();
  report.catalog_version = adopted;
  if (adopted > before) {
    // Everything cached under the pre-sync version is stale now; reclaim
    // eagerly, exactly like BumpCatalogVersion does on a primary.
    cache_.Clear();
    key_interner_.Compact();
  }

  ReviveEntries(snapshot, adopted, &report.restored, &report.skipped);
  report.status = Status::OK();

  last_sync_time_ms_.store(NowMs(), std::memory_order_release);
  consecutive_sync_failures_.store(0, std::memory_order_release);
  sync_ready_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.syncs_applied;
    stats_.sync_entries_applied += report.restored;
    stats_.sync_entries_skipped += report.skipped;
  }
  RecordHealthTransition();
  return report;
}

std::string OptimizationService::HealthLine() const {
  const ServiceHealth h = health();
  const bool serving = ServingReads() && h != ServiceHealth::kDraining;
  const bool synced = role() == ServiceRole::kPrimary ||
                      sync_ready_.load(std::memory_order_acquire);
  const int64_t last = last_sync_time_ms_.load(std::memory_order_acquire);
  std::string out = ServiceHealthName(h);
  out += " role=";
  out += ServiceRoleName(role());
  out += " serving=";
  out += serving ? '1' : '0';
  out += " synced=";
  out += synced ? '1' : '0';
  out += " lag_ms=";
  out += last < 0 ? "-1" : std::to_string(NowMs() - last);
  out += " version=" + std::to_string(catalog_version());
  return out;
}

ServiceResponse OptimizationService::Handle(const ServiceRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  ServiceResponse response;
  auto finish = [&]() -> ServiceResponse& {
    response.latency_usec =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    return response;
  };
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests;
  }

  // A standby that has never applied a sync must not answer: its catalog
  // version is a default, not the primary's, and any plan it computed
  // could be stale the moment it catches up.
  if (!ServingReads()) {
    response.status = FailedPreconditionError(
        "standby not ready: awaiting first sync from primary (NOT_READY)");
    return finish();
  }

  // Admission control: past the in-flight bound the request is shed with a
  // status, never queued unboundedly and never fatal.
  struct InflightGuard {
    std::atomic<int>& counter;
    ~InflightGuard() { counter.fetch_sub(1, std::memory_order_acq_rel); }
  };
  int inflight = inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  InflightGuard inflight_guard{inflight_};
  if (options_.max_inflight > 0 && inflight > options_.max_inflight) {
    response.shed = true;
    response.status = ResourceExhaustedError(
        "admission: " + std::to_string(inflight) + " requests in flight "
        "(limit " + std::to_string(options_.max_inflight) + "); shed");
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.shed;
    return finish();
  }

  const TierPolicy* tier = FindTier(request.tier);
  if (tier == nullptr) {
    std::vector<std::string> names;
    for (const TierPolicy& t : options_.tiers) names.push_back(t.name);
    response.status = InvalidArgumentError("unknown tier '" + request.tier +
                                           "' (have " + Join(names, ", ") +
                                           ")");
    return finish();
  }
  if (request.text.size() > kMaxQueryBytes) {
    response.status = InvalidArgumentError(
        "query text exceeds " + std::to_string(kMaxQueryBytes) + " bytes");
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.parse_errors;
    return finish();
  }

  StatusOr<TermPtr> parsed = ParseQueryText(request.language, request.text);
  if (!parsed.ok()) {
    response.status = parsed.status();
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.parse_errors;
    return finish();
  }

  // O(1) cache key: canonicalize the shape in the shared key interner.
  // An id of 0 means the interner declined (injected fault); such a
  // request is simply uncacheable, never wrong.
  TermPtr canonical = key_interner_.Intern(parsed.value());
  const TermId query_id = key_interner_.IdOf(canonical);
  const bool cacheable =
      options_.cache_enabled && !request.bypass_cache && query_id != 0;
  const PlanCacheKey key{query_id, rule_fingerprint_, catalog_version()};

  if (cacheable) {
    if (std::optional<std::string> hit = cache_.Lookup(key)) {
      response.cache_hit = true;
      response.payload = *std::move(hit);
      finish();
      RecordOutcome(*tier, RetryReport{}, response.latency_usec);
      return response;
    }
  }

  RetryOptions retry;
  retry.memory_budget_bytes = tier->memory_budget_bytes;
  retry.deadline_ms = tier->deadline_ms;
  retry.step_budget = tier->step_budget;
  retry.max_attempts = tier->max_attempts;
  retry.escalation_factor = tier->escalation_factor;

  optimize_slots_.acquire();
  // Jitter index 0: the escalation schedule is a pure function of the
  // tier, so repeated shapes optimize identically regardless of arrival
  // order -- a warm hit must be indistinguishable from a fresh pass.
  RetrySupervisor supervisor(&optimizer_, retry);
  RetryOutcome outcome = supervisor.Optimize(canonical, 0);
  optimize_slots_.release();

  if (!outcome.ok() || !outcome.result.has_value()) {
    response.status = outcome.ok()
                          ? InternalError("supervisor returned no result")
                          : outcome.status;
    return finish();
  }

  response.degraded = outcome.report.degraded;
  response.quarantined = outcome.report.quarantined;
  response.payload =
      SerializeOutcome(tier->name, *outcome.result, outcome.report);

  // E-graph phase accounting (KOLA_EGRAPH): cumulative across requests.
  // Kept out of the payload so cache identity is untouched.
  const EGraphStats& eg = outcome.result->egraph;
  if (eg.nodes > 0 || eg.processed > 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.egraph_runs;
    stats_.egraph_nodes += eg.nodes;
    stats_.egraph_classes += eg.classes;
    stats_.egraph_rule_applications += eg.rule_applications;
    if (eg.saturated) ++stats_.egraph_saturated;
  }

  // Only clean plans are cached: a degraded plan is what THIS request's
  // budget afforded, not the shape's answer, and serving it warm would
  // pin the degradation long after pressure subsides.
  if (cacheable && !response.degraded && !response.quarantined) {
    cache_.Insert(key, canonical, response.payload);
    MaybeCompactKeyInterner();
  }

  finish();
  RecordOutcome(*tier, outcome.report, response.latency_usec);
  return response;
}

std::string OptimizationService::HandleLine(const std::string& raw) {
  std::string_view line = StripWhitespace(raw);
  if (line.empty()) {
    return "ERR INVALID_ARGUMENT: empty request";
  }
  if (line == "PING") {
    return draining_.load(std::memory_order_acquire) ? "OK draining"
                                                     : "OK pong";
  }
  if (line == "STATS") return StatsText();
  if (line == "HEALTH") return "OK " + HealthLine();
  if (line == "BUMP") {
    if (role() == ServiceRole::kStandby) {
      return "ERR FAILED_PRECONDITION: standby refuses BUMP (replicas "
             "follow the primary's catalog; bump the primary, or promote "
             "this standby first)";
    }
    return "OK version=" + std::to_string(BumpCatalogVersion());
  }
  if (line == "SYNC") {
    if (!ServingReads()) {
      return "ERR NOT_READY: standby has no applied sync to ship";
    }
    return "OK " + EncodeSyncResponse();
  }

  if (line.rfind("Q ", 0) == 0 || line.rfind("F ", 0) == 0) {
    if (!ServingReads()) {
      // The wire spells NOT_READY so clients (and the failover gate in
      // CI) can tell "come back after a sync" from a real failure.
      return "ERR NOT_READY: standby awaiting first sync from primary";
    }
    const bool bypass = line[0] == 'F';
    std::string_view rest = line.substr(2);
    size_t tier_end = rest.find(' ');
    if (tier_end == std::string_view::npos) {
      return "ERR INVALID_ARGUMENT: expected '" +
             std::string(1, line[0]) + " <tier> <lang> <query>'";
    }
    std::string_view tier = rest.substr(0, tier_end);
    rest = StripWhitespace(rest.substr(tier_end + 1));
    size_t lang_end = rest.find(' ');
    if (lang_end == std::string_view::npos) {
      return "ERR INVALID_ARGUMENT: expected '" +
             std::string(1, line[0]) + " <tier> <lang> <query>'";
    }
    StatusOr<QueryLanguage> language =
        ParseQueryLanguage(rest.substr(0, lang_end));
    if (!language.ok()) {
      return "ERR " + OneLine(language.status().ToString());
    }
    std::string_view text = StripWhitespace(rest.substr(lang_end + 1));
    if (text.empty()) {
      return "ERR INVALID_ARGUMENT: empty query";
    }

    ServiceRequest request;
    request.tier = std::string(tier);
    request.language = *language;
    request.text = std::string(text);
    request.bypass_cache = bypass;
    ServiceResponse response = Handle(request);
    if (!response.status.ok()) {
      return "ERR " + OneLine(response.status.ToString());
    }
    std::string out = "OK ";
    out += response.cache_hit ? '1' : '0';
    out += ' ';
    out += std::to_string(response.latency_usec);
    out += '\t';
    out += response.payload;
    return out;
  }

  return "ERR INVALID_ARGUMENT: unknown verb (expected Q, F, STATS, BUMP, "
         "PING, HEALTH, SYNC, QUIT or SHUTDOWN)";
}

ServiceStats OptimizationService::stats() const {
  ServiceStats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    snapshot = stats_;
    for (const std::string& state : health_history_) {
      if (!snapshot.health_history.empty()) snapshot.health_history += '>';
      snapshot.health_history += state;
    }
  }
  snapshot.consecutive_sync_failures =
      consecutive_sync_failures_.load(std::memory_order_acquire);
  snapshot.promoted = role() == ServiceRole::kPromoted;
  const int64_t last = last_sync_time_ms_.load(std::memory_order_acquire);
  snapshot.last_sync_lag_ms = last < 0 ? -1 : NowMs() - last;
  snapshot.cache = cache_.stats();
  snapshot.catalog_version = catalog_version();
  snapshot.rule_fingerprint = rule_fingerprint_;
  snapshot.key_interner_terms = key_interner_.size();
  snapshot.key_interner_bytes = key_interner_.bytes();
  snapshot.uptime_sec = std::chrono::duration_cast<std::chrono::seconds>(
                            std::chrono::steady_clock::now() - start_time_)
                            .count();
  return snapshot;
}

LatencyHistogram OptimizationService::tier_latency(
    const std::string& tier) const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  for (size_t i = 0; i < options_.tiers.size(); ++i) {
    if (options_.tiers[i].name == tier) return tier_latency_[i];
  }
  return LatencyHistogram{};
}

std::string OptimizationService::StatsText() const {
  ServiceStats s = stats();
  std::string out;
  auto line = [&out](const std::string& text) {
    out += "S " + text + "\n";
  };
  line("requests " + std::to_string(s.requests));
  line("parse_errors " + std::to_string(s.parse_errors));
  line("shed " + std::to_string(s.shed));
  line("degraded " + std::to_string(s.degraded));
  line("quarantined " + std::to_string(s.quarantined));
  line("retried " + std::to_string(s.retried));
  line("egraph runs=" + std::to_string(s.egraph_runs) +
       " nodes=" + std::to_string(s.egraph_nodes) +
       " classes=" + std::to_string(s.egraph_classes) +
       " rule_applications=" + std::to_string(s.egraph_rule_applications) +
       " saturated=" + std::to_string(s.egraph_saturated));
  line("cache hits=" + std::to_string(s.cache.hits) +
       " misses=" + std::to_string(s.cache.misses) +
       " insertions=" + std::to_string(s.cache.insertions) +
       " evictions=" + std::to_string(s.cache.evictions) +
       " entries=" + std::to_string(s.cache.entries) +
       " bytes=" + std::to_string(s.cache.bytes) +
       " capacity=" + std::to_string(cache_.capacity()));
  char fingerprint[32];
  std::snprintf(fingerprint, sizeof(fingerprint), "0x%016llx",
                static_cast<unsigned long long>(s.rule_fingerprint));
  std::string catalog = "catalog version=" + std::to_string(s.catalog_version);
  catalog += " fingerprint=";
  catalog += fingerprint;
  line(catalog);
  line("key_interner terms=" + std::to_string(s.key_interner_terms) +
       " bytes=" + std::to_string(s.key_interner_bytes));
  line("snapshot writes=" + std::to_string(s.snapshot_writes) +
       " write_failures=" + std::to_string(s.snapshot_write_failures) +
       " last_entries=" + std::to_string(s.snapshot_last_entries) +
       " restored=" + std::to_string(s.restored_entries) +
       " restore_skipped=" + std::to_string(s.restore_skipped));
  line("replication role=" + std::string(ServiceRoleName(role())) +
       " state=" + ServiceHealthName(health()) +
       " serving=" + (ServingReads() && !draining_.load(
                          std::memory_order_acquire) ? "1" : "0") +
       " syncs_served=" + std::to_string(s.syncs_served) +
       " syncs_applied=" + std::to_string(s.syncs_applied) +
       " sync_failures=" + std::to_string(s.sync_failures) +
       " entries_applied=" + std::to_string(s.sync_entries_applied) +
       " entries_skipped=" + std::to_string(s.sync_entries_skipped) +
       " consecutive_failures=" +
       std::to_string(s.consecutive_sync_failures) +
       " promoted=" + (s.promoted ? "1" : "0") +
       " lag_ms=" + std::to_string(s.last_sync_lag_ms) +
       " history=" + s.health_history);
  line("uptime_sec " + std::to_string(s.uptime_sec));
  if (extra_stats_) line(extra_stats_());
  std::string peaks = "peak_bytes total=" + std::to_string(s.peak_bytes);
  for (int c = 0; c < kNumMemoryCategories; ++c) {
    peaks += " ";
    peaks += MemoryCategoryName(static_cast<MemoryCategory>(c));
    peaks += "=";
    peaks += std::to_string(s.category_peak_bytes[c]);
  }
  line(peaks);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    for (size_t i = 0; i < options_.tiers.size(); ++i) {
      const LatencyHistogram& h = tier_latency_[i];
      uint64_t mean = h.count == 0 ? 0 : h.sum_usec / h.count;
      // Buckets above the highest nonzero one are elided.
      int top = LatencyHistogram::kBuckets;
      while (top > 1 && h.buckets[top - 1] == 0) --top;
      std::string hist;
      for (int b = 0; b < top; ++b) {
        if (b > 0) hist += ":";
        hist += std::to_string(h.buckets[b]);
      }
      line("latency " + options_.tiers[i].name +
           " count=" + std::to_string(h.count) +
           " mean_usec=" + std::to_string(mean) + " hist=" + hist);
    }
  }
  out += "OK stats";
  return out;
}

}  // namespace kola

#ifndef KOLA_OPTIMIZER_RETRY_H_
#define KOLA_OPTIMIZER_RETRY_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/resource.h"
#include "common/status.h"
#include "optimizer/optimizer.h"
#include "term/term.h"

namespace kola {

/// Tunables for RetrySupervisor: a base per-query resource envelope plus a
/// geometric escalation schedule for queries that degrade on
/// RESOURCE_EXHAUSTED.
struct RetryOptions {
  /// Memory budget of the FIRST attempt, in bytes. Must be positive for the
  /// supervisor to do anything beyond a plain ungoverned pass.
  int64_t memory_budget_bytes = 64 * 1024;
  /// Per-attempt wall-clock deadline in ms (0 = none). Escalated alongside
  /// the byte budget: a query that ran out of time gets more of it too.
  int64_t deadline_ms = 0;
  /// Per-attempt step budget (0 = unlimited). Escalated like the deadline.
  int64_t step_budget = 0;
  /// Budget multiplier applied on every escalation. Values <= 1 are
  /// treated as 2.0 (an escalation that does not escalate would retry the
  /// identical failure forever).
  double escalation_factor = 2.0;
  /// Total attempts per query (first try included). A query still degraded
  /// after the last attempt is quarantined, not failed. Minimum 1.
  int max_attempts = 3;
  /// Seed for the escalation jitter. Jitter for query i comes from
  /// Rng(seed).Child(i) -- a pure function of (seed, i), so the schedule is
  /// byte-identical at every OptimizeAll jobs level.
  uint64_t seed = 1;
};

/// What the supervisor did for one query.
struct RetryReport {
  int attempts = 0;            // optimization passes actually run
  int64_t final_budget = 0;    // byte budget of the last attempt
  bool quarantined = false;    // still degraded after max_attempts
  bool degraded = false;       // final result carries a Degradation
  /// Peak governed bytes across all attempts, total and per category --
  /// the attempt governors' MemoryBudget high-water marks, folded with
  /// max. Stats surfaces (kolad :stats) aggregate these so "which
  /// structure is eating the budget" is answerable per request.
  int64_t peak_bytes = 0;
  int64_t category_peak_bytes[kNumMemoryCategories] = {};
};

/// One supervised query: `status` is OK iff `result` is populated (a
/// quarantined query is OK -- its plan is sound, just under-optimized; only
/// contract violations and worker deaths produce a non-OK status).
struct RetryOutcome {
  Status status;
  std::optional<OptimizeResult> result;
  RetryReport report;

  bool ok() const { return status.ok(); }
};

/// Re-runs RESOURCE_EXHAUSTED-degraded optimization passes under
/// geometrically escalated budgets. Every attempt is sound (degradation
/// keeps the best completed-phase plan), so the supervisor is a pure
/// quality knob: attempt k runs under roughly
/// memory_budget_bytes * escalation_factor^k (jittered, deterministically
/// per query index), and a query that cannot be optimized cleanly within
/// max_attempts is quarantined with its best degraded plan instead of
/// erroring. Deterministic: the outcome for query i depends only on
/// (query, options, i), never on jobs or scheduling.
class RetrySupervisor {
 public:
  /// `optimizer` is borrowed and must outlive the supervisor; OptimizeAll's
  /// workers share it.
  RetrySupervisor(const Optimizer* optimizer, RetryOptions options);

  /// Supervises one query. `query_index` keys the jitter stream (pass the
  /// batch position when calling in a loop so results match OptimizeAll).
  RetryOutcome Optimize(const TermPtr& query, uint64_t query_index = 0) const;

  /// Supervises the whole batch across up to `jobs` workers; entries come
  /// back in input order, byte-identical at every jobs level.
  std::vector<RetryOutcome> OptimizeAll(std::span<const TermPtr> queries,
                                        int jobs = 1) const;

  const RetryOptions& options() const { return options_; }

 private:
  /// Budget of attempt `attempt` for query `query_index` (attempt 0 is the
  /// unjittered base so a 1-attempt supervisor equals a plain budget).
  int64_t AttemptBudget(uint64_t query_index, int attempt) const;

  const Optimizer* optimizer_;
  RetryOptions options_;
};

}  // namespace kola

#endif  // KOLA_OPTIMIZER_RETRY_H_

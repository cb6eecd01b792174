#include "optimizer/retry.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <string>
#include <utility>

#include "common/random.h"
#include "common/thread_pool.h"

namespace kola {

namespace {

// Escalation ceiling: budgets saturate here instead of overflowing when a
// caller configures an absurd factor/attempt combination.
constexpr int64_t kMaxBudgetBytes = int64_t{1} << 56;

int64_t ScaleLimit(int64_t base, double factor, int attempt) {
  if (base <= 0 || attempt <= 0) return base;
  double scaled = static_cast<double>(base) * std::pow(factor, attempt);
  if (scaled >= static_cast<double>(kMaxBudgetBytes)) return kMaxBudgetBytes;
  return std::llround(scaled);
}

}  // namespace

RetrySupervisor::RetrySupervisor(const Optimizer* optimizer,
                                 RetryOptions options)
    : optimizer_(optimizer), options_(options) {
  if (options_.escalation_factor <= 1.0) options_.escalation_factor = 2.0;
  if (options_.max_attempts < 1) options_.max_attempts = 1;
}

int64_t RetrySupervisor::AttemptBudget(uint64_t query_index,
                                       int attempt) const {
  // Attempt 0 is the exact configured base, so a 1-attempt supervisor
  // behaves like a plain memory budget. Escalations multiply by
  // factor * [1.0, 1.25): the jitter stream is Rng(seed).Child(i) -- a pure
  // function of (seed, query index) drawn in attempt order, so the whole
  // schedule is independent of scheduling and jobs.
  double budget = static_cast<double>(options_.memory_budget_bytes);
  Rng jitter = Rng(options_.seed).Child(query_index);
  for (int k = 1; k <= attempt; ++k) {
    budget *= options_.escalation_factor * (1.0 + 0.25 * jitter.NextDouble());
    if (budget >= static_cast<double>(kMaxBudgetBytes)) {
      return kMaxBudgetBytes;
    }
  }
  return std::llround(budget);
}

RetryOutcome RetrySupervisor::Optimize(const TermPtr& query,
                                       uint64_t query_index) const {
  RetryOutcome outcome;
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    Governor::Limits limits;
    limits.memory_budget_bytes = AttemptBudget(query_index, attempt);
    // Time and step envelopes widen on the same geometric schedule (no
    // jitter: wall clock is already noisy, and steps track memory).
    limits.deadline_ms =
        ScaleLimit(options_.deadline_ms, options_.escalation_factor, attempt);
    limits.step_budget =
        ScaleLimit(options_.step_budget, options_.escalation_factor, attempt);
    Governor governor(limits);

    auto result = optimizer_->Optimize(query, &governor);
    outcome.report.attempts = attempt + 1;
    outcome.report.final_budget = limits.memory_budget_bytes;
    const MemoryBudget& memory = governor.memory();
    outcome.report.peak_bytes =
        std::max(outcome.report.peak_bytes, memory.peak_bytes());
    for (int c = 0; c < kNumMemoryCategories; ++c) {
      int64_t& held = outcome.report.category_peak_bytes[c];
      held = std::max(held, memory.peak(static_cast<MemoryCategory>(c)));
    }
    if (!result.ok()) {
      outcome.status = result.status().WithContext(
          "supervised query " + std::to_string(query_index) + " attempt " +
          std::to_string(attempt + 1));
      outcome.result.reset();
      return outcome;
    }
    outcome.result = std::move(result).value();
    outcome.report.degraded = outcome.result->degradation.degraded;
    // Escalation only helps when the stop was a spent resource envelope; a
    // degradation on any other cause (an injected fault, a bad rule block)
    // would just replay, so the first result stands.
    const bool retryable =
        outcome.report.degraded &&
        outcome.result->degradation.code == StatusCode::kResourceExhausted;
    if (!retryable) return outcome;
  }
  // Still degraded at the top of the schedule: quarantine. The last
  // (largest-budget) attempt's plan is kept -- it is sound, just
  // under-optimized -- and the caller sees OK plus the quarantine flag.
  outcome.report.quarantined = true;
  return outcome;
}

std::vector<RetryOutcome> RetrySupervisor::OptimizeAll(
    std::span<const TermPtr> queries, int jobs) const {
  const size_t count = queries.size();
  std::vector<RetryOutcome> outcomes(count);

  auto run_one = [&](size_t i) {
    try {
      outcomes[i] = Optimize(queries[i], i);
    } catch (const std::exception& e) {
      outcomes[i].status = InternalError("supervised query " +
                                         std::to_string(i) +
                                         " threw: " + e.what());
    } catch (...) {
      outcomes[i].status = InternalError(
          "supervised query " + std::to_string(i) + " threw a non-std "
          "exception");
    }
  };

  if (jobs > static_cast<int>(count)) jobs = static_cast<int>(count);
  if (jobs <= 1) {
    for (size_t i = 0; i < count; ++i) run_one(i);
    return outcomes;
  }
  // The workers share the one Optimizer, exactly like
  // Optimizer::OptimizeAll, and every per-query decision (budgets, jitter,
  // retry count) is a pure function of the query index, so the outcome
  // vector is byte-identical at every jobs level.
  std::atomic<size_t> next{0};
  auto drain = [&] {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      run_one(i);
    }
  };
  ThreadPool pool(jobs - 1);
  for (int w = 0; w < jobs - 1; ++w) pool.Submit(drain);
  drain();
  (void)pool.Wait();
  return outcomes;
}

}  // namespace kola

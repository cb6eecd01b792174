#ifndef KOLA_EVAL_EVALUATOR_H_
#define KOLA_EVAL_EVALUATOR_H_

#include <cstdint>
#include <optional>

#include "common/governor.h"
#include "common/status.h"
#include "common/statusor.h"
#include "term/term.h"
#include "values/database.h"

namespace kola {

/// Evaluation limits. `max_steps` bounds the number of function/predicate
/// invocations; exceeding it yields RESOURCE_EXHAUSTED (used by the rule
/// verifier to keep randomized instances bounded).
///
/// `physical_fastpaths` enables hash-based implementations for the
/// structurally recognizable cases:
///   * join(eq @ (f x g), h)  -- hash join keyed on f / g
///   * join(in @ (f x g), h)  -- inverted-index join on the set-valued g
///   * nest(pi1, pi2)         -- hash grouping
/// These are the "variety of implementation techniques known for
/// performing nestings of joins" (Section 4.1) that make the untangled
/// nest-of-join form profitable; results are bit-identical to the naive
/// nested-loop semantics (tested).
struct EvalOptions {
  int64_t max_steps = 50'000'000;
  bool physical_fastpaths = true;
  /// Shared request budget: every invocation also charges one step here,
  /// so a deadline or global budget stops evaluation cooperatively.
  /// nullptr means ungoverned (max_steps still applies). Not owned.
  const Governor* governor = nullptr;
};

/// An argument of the evaluator's internal Apply/Holds: a built Value or an
/// unbuilt pair of two values. Defined in evaluator.cc.
class EvalArg;

/// Operational-semantics interpreter for KOLA terms (Tables 1 and 2 of the
/// paper). All evaluation is against a Database supplying extents and schema
/// primitives. The evaluator is the semantic ground truth the rewrite rules
/// are verified against: t1 == t2 as queries iff Eval agrees on them for all
/// databases.
class Evaluator {
 public:
  explicit Evaluator(const Database* db, EvalOptions options = EvalOptions())
      : db_(db),
        options_(options),
        scratch_(options.governor, MemoryCategory::kEvalScratch) {}

  /// Releases the evaluator's scratch charge (see EvalOptions::governor):
  /// values materialized by collection formers are charged while the
  /// evaluator lives and handed back here.
  ~Evaluator() = default;

  /// Evaluates a ground object-sorted term (e.g. `iterate(...) ! P`).
  /// Bool-sorted terms evaluate to boolean values.
  StatusOr<Value> EvalObject(const TermPtr& term);

  /// Applies a function-sorted term to an argument value.
  StatusOr<Value> Apply(const TermPtr& fn, const Value& argument);

  /// Tests a predicate-sorted term on an argument value.
  StatusOr<bool> Holds(const TermPtr& pred, const Value& argument);

  /// Invocations consumed so far (monotone across calls on this instance).
  int64_t steps() const { return steps_; }

  /// Resets the step counter.
  void ResetSteps() { steps_ = 0; }

  /// Number of join/nest evaluations served by a hash-based fast path.
  int64_t fastpath_hits() const { return fastpath_hits_; }

 private:
  Status Tick();
  /// Charges `values` freshly materialized collection elements against the
  /// governor's kEvalScratch budget (no-op when ungoverned). The charge is
  /// held for the evaluator's lifetime -- results built by inner formers
  /// feed outer ones, so "still charged" approximates "still live".
  Status ChargeScratch(int64_t values);
  /// Apply and Holds over an argument whose pair halves may be unbuilt:
  /// iter and nested-loop join environments, `p @ (f x g)`, Cp, Cf and inv
  /// pass the halves they already hold, and a pair is built only where a
  /// whole value is needed. Steps, fast-path hits, errors and scratch
  /// charges are those of building every pair.
  StatusOr<Value> ApplyArg(const TermPtr& fn, const EvalArg& argument);
  StatusOr<bool> HoldsArg(const TermPtr& pred, const EvalArg& argument);
  /// Built-in primitives dispatch on the leaf's cached PrimOp; schema
  /// names go to the Database.
  StatusOr<Value> ApplyPrimitive(const Term& fn, const EvalArg& argument);
  StatusOr<bool> HoldsPrimitive(const Term& pred, const EvalArg& argument);
  /// Hash-based join for eq/in-keyed predicates; nullopt when the shape is
  /// not recognized (caller falls back to nested loops).
  std::optional<StatusOr<Value>> TryFastJoin(const TermPtr& join,
                                             const Value& lhs,
                                             const Value& rhs);
  /// Hash grouping for nest(pi1, pi2).
  std::optional<StatusOr<Value>> TryFastNest(const TermPtr& nest,
                                             const Value& lhs,
                                             const Value& rhs);

  const Database* db_;
  EvalOptions options_;
  int64_t steps_ = 0;
  int64_t fastpath_hits_ = 0;
  MemoryCharge scratch_;
};

/// One-shot helper: evaluates `term` against `db` with default options.
StatusOr<Value> EvalQuery(const Database& db, const TermPtr& term);

}  // namespace kola

#endif  // KOLA_EVAL_EVALUATOR_H_

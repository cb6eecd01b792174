#ifndef KOLA_REWRITE_ENGINE_H_
#define KOLA_REWRITE_ENGINE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/statusor.h"
#include "rewrite/properties.h"
#include "rewrite/rule.h"
#include "rewrite/rule_index.h"
#include "term/term.h"

namespace kola {

class RuleIndex;

/// One fired rewrite, recorded for derivation traces (Figures 4 and 6 of
/// the paper are reproduced by asserting on these).
struct RewriteStep {
  std::string rule_id;
  std::vector<size_t> path;  // child indices from the root to the redex
  TermPtr before;            // the redex before rewriting
  TermPtr after;             // the redex after rewriting
  TermPtr result;            // the whole term after this step
};

/// A derivation: the starting term plus every fired step.
struct Trace {
  TermPtr initial;
  std::vector<RewriteStep> steps;

  /// Rule ids in firing order, e.g. {"11", "13", "7", "12~"}.
  std::vector<std::string> RuleIds() const;

  /// Multi-line rendering in the style of the paper's Figure 4.
  std::string ToString() const;
};

/// A stable fingerprint of a rule set (ids, both sides, conditions). Two
/// rule vectors with the same fingerprint rewrite identically; keys the
/// compiled RuleIndex cache and the plan cache, and is safe to persist: it
/// is computed from explicit FNV-1a/mix steps over the rules' syntax, never
/// from std::hash or Term::hash (both implementation-defined), so the value
/// is identical across platforms and standard libraries.
uint64_t RuleSetFingerprint(const std::vector<Rule>& rules);

/// Tunables for the rewrite engine.
struct RewriterOptions {
  /// Shared resource budget for every Fixpoint driven through this
  /// Rewriter: each rule firing charges one step, and the deadline is
  /// probed once per firing, so a non-terminating or merely slow rule set
  /// stops when the request's budget runs out rather than at each call's
  /// local max_steps. nullptr (the default) means ungoverned; the per-call
  /// max_steps caps always still apply. Not owned; must outlive the
  /// Rewriter.
  const Governor* governor = nullptr;

  /// Convenience byte budget: when set (and no explicit Governor is passed
  /// to Optimizer::Optimize), the optimizer runs the pass under a private
  /// Governor with exactly this memory budget, so exceeding it degrades
  /// the pass the same way a deadline does. 0 means no budget.
  int64_t memory_budget_bytes = 0;

  /// Consult a compiled discrimination-tree index (rewrite/rule_index.h)
  /// when scanning a rule set, instead of probing every rule at every node.
  /// Trace-preserving by construction -- the index only filters rules whose
  /// lhs provably cannot match, in the linear scan's order -- so it is on
  /// by default. The KOLA_NO_RULE_INDEX environment variable (truthy --
  /// see common/env.h) force-disables it process-wide regardless of this
  /// flag, so differential sweeps can compare the two scans byte-for-byte.
  /// A governed pass charges each index's bytes to kRuleIndex on its first
  /// use (see IndexFor).
  bool use_rule_index = true;

  /// Run the equality-saturation backend (src/egraph/) as a final optimizer
  /// phase: saturate the catalog rule pool into an e-graph seeded with the
  /// query and the greedy pipeline's plan, then extract the cheapest plan
  /// by the cost model (never costlier than the greedy plan -- it is always
  /// a candidate). Off by default; Defaults() honours the KOLA_EGRAPH
  /// environment variable (truthy -- see common/env.h -- to enable).
  bool use_egraph = false;

  /// E-node cap for that phase: saturation stops growing past it and
  /// extraction runs over the partial graph. 0 means unbounded.
  size_t egraph_max_nodes = 1024;

  static RewriterOptions Defaults();
};

/// Applies declarative rules to terms. Pure matching plus substitution --
/// no code hooks; conditions resolve through the PropertyStore.
class Rewriter {
 public:
  /// `properties` may be nullptr, in which case conditional rules never
  /// fire.
  explicit Rewriter(const PropertyStore* properties = nullptr)
      : Rewriter(properties, RewriterOptions::Defaults()) {}

  Rewriter(const PropertyStore* properties, RewriterOptions options)
      : properties_(properties),
        options_(options),
        index_charge_(options.governor, MemoryCategory::kRuleIndex) {}

  /// Applies `rule` at the root only. nullopt when the lhs does not match
  /// or a condition fails.
  std::optional<TermPtr> ApplyAtRoot(const Rule& rule,
                                     const TermPtr& term) const;

  /// Applies `rule` once at the leftmost-outermost matching position.
  /// `step` (optional) receives the details.
  std::optional<TermPtr> ApplyOnce(const Rule& rule, const TermPtr& term,
                                   RewriteStep* step) const;

  /// Tries each rule in order at leftmost-outermost; first success wins.
  std::optional<TermPtr> ApplyAnyOnce(const CompiledRuleSet& rules,
                                      const TermPtr& term,
                                      RewriteStep* step) const;

  /// As above, compiling `rules` for this one call (tests and one-off
  /// callers; rule blocks hold a CompiledRuleSet instead).
  std::optional<TermPtr> ApplyAnyOnce(const std::vector<Rule>& rules,
                                      const TermPtr& term,
                                      RewriteStep* step) const {
    return ApplyAnyOnce(CompiledRuleSet(rules), term, step);
  }

  /// Tries each rule in order at the ROOT position only; first success
  /// wins. `index` (optional) is a compiled index for exactly `rules`
  /// (from IndexFor) consulted to skip rules whose lhs cannot match here;
  /// results are identical with or without it. `fired_rule` (optional)
  /// receives the index of the rule that fired. The per-node primitive of
  /// bottom-up strategies (Everywhere), which look the index up once per
  /// sweep rather than per node.
  std::optional<TermPtr> ApplyAnyAtRoot(const std::vector<Rule>& rules,
                                        const TermPtr& term,
                                        const RuleIndex* index,
                                        size_t* fired_rule) const;

  /// ApplyOnce for every rule independently against the SAME input term:
  /// result i is exactly ApplyOnce(rules[i], term, nullptr). With the rule
  /// index enabled this is one shared descent that tests only each node's
  /// candidates, instead of rules.size() full traversals.
  std::vector<std::optional<TermPtr>> ApplyEachOnce(
      const CompiledRuleSet& rules, const TermPtr& term) const;

  /// The compiled index this Rewriter consults for `rules`: null when
  /// indexing is off (options, KOLA_NO_RULE_INDEX) or the set is empty,
  /// and callers then scan linearly, with identical results. A governed
  /// Rewriter charges each index's footprint_bytes() to kRuleIndex on its
  /// first use; an ungoverned one keeps no bookkeeping. A refused charge
  /// latches the governor's sticky memory stop, which ends the pass at its
  /// next probe with the best plan so far (DESIGN.md section 9); until
  /// then the index is still used, since both scans agree.
  const RuleIndex* IndexFor(const CompiledRuleSet& rules) const;

  /// Repeats ApplyAnyOnce until no rule fires. RESOURCE_EXHAUSTED after
  /// `max_steps` firings (non-terminating rule sets are a bug in the
  /// caller's rule selection, but must not hang the optimizer).
  StatusOr<TermPtr> Fixpoint(const CompiledRuleSet& rules, TermPtr term,
                             Trace* trace, int max_steps = 10'000) const;

  /// As above, compiling `rules` for this one call.
  StatusOr<TermPtr> Fixpoint(const std::vector<Rule>& rules, TermPtr term,
                             Trace* trace, int max_steps = 10'000) const {
    return Fixpoint(CompiledRuleSet(rules), std::move(term), trace,
                    max_steps);
  }

  const PropertyStore* properties() const { return properties_; }
  const RewriterOptions& options() const { return options_; }

  /// Counters of a negative-match memo the Rewriter no longer has: with the
  /// rule index on it never hit (each sweep's root is a fresh pointer), so
  /// it was removed and these are always zero. Kept only because the
  /// benchmark harness (kolabench/pipeline.cc) still reads them.
  struct CacheStats {
    size_t caches = 0;
    size_t entries = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };
  CacheStats PooledCacheStats() const { return {}; }

 private:
  bool ConditionsHold(const Rule& rule, const Bindings& bindings) const;

  std::optional<TermPtr> ApplyOnceImpl(const Rule& rule, const TermPtr& term,
                                       std::vector<size_t>* path,
                                       RewriteStep* step) const;

  /// The rule-major linear scan behind ApplyAnyOnce: each rule in order at
  /// leftmost-outermost. Used when indexing is off, and the index's
  /// differential oracle.
  std::optional<TermPtr> LinearApplyAnyOnce(const std::vector<Rule>& rules,
                                            const TermPtr& term,
                                            RewriteStep* step) const;

  /// The indexed equivalent of LinearApplyAnyOnce: one pre-order descent
  /// testing only each node's index candidates, returning the same rule
  /// fired at the same position as the rule-major linear scan (see the
  /// determinism argument in engine.cc).
  std::optional<TermPtr> IndexedApplyAnyOnce(const std::vector<Rule>& rules,
                                             const TermPtr& term,
                                             RewriteStep* step,
                                             const RuleIndex& index) const;

  const PropertyStore* properties_;
  RewriterOptions options_;
  /// Fingerprints of the indexes a governed Rewriter has charged, its only
  /// mutable state (never touched when ungoverned); the mutex makes the
  /// first-use charge safe for a const Rewriter shared by several threads.
  mutable std::mutex charged_mu_;
  mutable std::vector<uint64_t> charged_;
  /// Accounts the charged indexes' bytes against options_.governor.
  mutable MemoryCharge index_charge_;
};

}  // namespace kola

#endif  // KOLA_REWRITE_ENGINE_H_

#include "rewrite/engine.h"

#include <algorithm>
#include <sstream>

#include "common/env.h"
#include "common/fault_injection.h"
#include "common/macros.h"
#include "rewrite/match.h"
#include "rewrite/rule_index.h"

namespace kola {

namespace {

/// Term::stable_hash with the nullptr convention fingerprints use.
uint64_t StableTermHash(const TermPtr& term) {
  return term == nullptr ? 0 : term->stable_hash();
}

}  // namespace

uint64_t RuleSetFingerprint(const std::vector<Rule>& rules) {
  // Per-term hashes are cached on the nodes (Term::stable_hash), so
  // fingerprinting a rule set costs one string hash and a few mixes per
  // rule, not a pattern walk.
  uint64_t fp = rules.size();
  for (const Rule& rule : rules) {
    fp = StableHashCombine(fp, StableStringHash(rule.id));
    fp = StableHashCombine(fp, StableTermHash(rule.lhs));
    fp = StableHashCombine(fp, StableTermHash(rule.rhs));
    for (const PropertyAtom& atom : rule.conditions) {
      fp = StableHashCombine(fp, StableStringHash(atom.property));
      fp = StableHashCombine(fp, StableTermHash(atom.pattern));
    }
  }
  // Reserve 0 for "no fingerprint".
  return fp == 0 ? 1 : fp;
}

RewriterOptions RewriterOptions::Defaults() {
  RewriterOptions options;
  options.use_egraph = EnvFlagEnabled("KOLA_EGRAPH");
  return options;
}

std::vector<std::string> Trace::RuleIds() const {
  std::vector<std::string> ids;
  ids.reserve(steps.size());
  for (const RewriteStep& step : steps) ids.push_back(step.rule_id);
  return ids;
}

std::string Trace::ToString() const {
  std::ostringstream os;
  if (initial != nullptr) os << initial->ToString() << "\n";
  for (const RewriteStep& step : steps) {
    os << "  --[" << step.rule_id << "]--> " << step.result->ToString()
       << "\n";
  }
  return os.str();
}

bool Rewriter::ConditionsHold(const Rule& rule,
                              const Bindings& bindings) const {
  if (rule.conditions.empty()) return true;
  if (properties_ == nullptr) return false;
  for (const PropertyAtom& condition : rule.conditions) {
    auto goal = Substitute(condition.pattern, bindings);
    if (!goal.ok()) return false;
    if (!properties_->Holds(condition.property, goal.value())) return false;
  }
  return true;
}

std::optional<TermPtr> Rewriter::ApplyAtRoot(const Rule& rule,
                                             const TermPtr& term) const {
  Bindings bindings;
  if (!MatchTerm(rule.lhs, term, &bindings)) return std::nullopt;
  if (!ConditionsHold(rule, bindings)) return std::nullopt;
  auto result = Substitute(rule.rhs, bindings);
  // Rules are validated at construction (rhs variables bound by lhs), so
  // substitution cannot fail; a failure here is a library bug.
  KOLA_CHECK_OK(result.status());
  return std::move(result).value();
}

std::optional<TermPtr> Rewriter::ApplyOnceImpl(const Rule& rule,
                                               const TermPtr& term,
                                               std::vector<size_t>* path,
                                               RewriteStep* step) const {
  if (auto rewritten = ApplyAtRoot(rule, term)) {
    if (step != nullptr) {
      step->rule_id = rule.id;
      step->path = *path;
      step->before = term;
      step->after = *rewritten;
    }
    return rewritten;
  }
  for (size_t i = 0; i < term->arity(); ++i) {
    path->push_back(i);
    if (auto rewritten = ApplyOnceImpl(rule, term->child(i), path, step)) {
      std::vector<TermPtr> children = term->children();
      children[i] = std::move(*rewritten);
      path->pop_back();
      return term->WithChildren(std::move(children));
    }
    path->pop_back();
  }
  return std::nullopt;
}

std::optional<TermPtr> Rewriter::ApplyOnce(const Rule& rule,
                                           const TermPtr& term,
                                           RewriteStep* step) const {
  std::vector<size_t> path;
  auto result = ApplyOnceImpl(rule, term, &path, step);
  if (result && step != nullptr) step->result = *result;
  return result;
}

std::optional<TermPtr> Rewriter::ApplyAnyOnce(const CompiledRuleSet& rules,
                                              const TermPtr& term,
                                              RewriteStep* step) const {
  if (const RuleIndex* index = IndexFor(rules)) {
    return IndexedApplyAnyOnce(rules.rules(), term, step, *index);
  }
  return LinearApplyAnyOnce(rules.rules(), term, step);
}

const RuleIndex* Rewriter::IndexFor(const CompiledRuleSet& rules) const {
  const RuleIndex* index = rules.index();
  if (index == nullptr || !options_.use_rule_index ||
      RuleIndexDisabledByEnv()) {
    return nullptr;
  }
  if (options_.governor == nullptr) return index;
  std::lock_guard<std::mutex> lock(charged_mu_);
  // A refused charge is not recorded: the index's next use asks the (by
  // then stopped) governor again.
  if (std::find(charged_.begin(), charged_.end(), index->fingerprint()) ==
          charged_.end() &&
      index_charge_.Add(index->footprint_bytes()).ok()) {
    charged_.push_back(index->fingerprint());
  }
  return index;
}

std::optional<TermPtr> Rewriter::ApplyAnyAtRoot(const std::vector<Rule>& rules,
                                                const TermPtr& term,
                                                const RuleIndex* index,
                                                size_t* fired_rule) const {
  if (index != nullptr) {
    std::vector<uint32_t> candidates;
    index->CandidatesAt(*term, &candidates);
    for (uint32_t r : candidates) {
      if (auto rewritten = ApplyAtRoot(rules[r], term)) {
        if (fired_rule != nullptr) *fired_rule = r;
        return rewritten;
      }
    }
    return std::nullopt;
  }
  for (size_t r = 0; r < rules.size(); ++r) {
    if (auto rewritten = ApplyAtRoot(rules[r], term)) {
      if (fired_rule != nullptr) *fired_rule = r;
      return rewritten;
    }
  }
  return std::nullopt;
}

namespace {

/// Rebuilds the spine from `node` down `path` (starting at `depth`) with
/// `replacement` grafted at the end -- the same child-vector copy per level
/// that ApplyOnceImpl performs as its recursion unwinds, so indexed and
/// linear scans produce pointer-identical sharing structure.
TermPtr GraftAlongPath(const TermPtr& node, const std::vector<size_t>& path,
                       size_t depth, const TermPtr& replacement) {
  if (depth == path.size()) return replacement;
  std::vector<TermPtr> children = node->children();
  children[path[depth]] =
      GraftAlongPath(node->child(path[depth]), path, depth + 1, replacement);
  return node->WithChildren(std::move(children));
}

}  // namespace

std::vector<std::optional<TermPtr>> Rewriter::ApplyEachOnce(
    const CompiledRuleSet& rule_set, const TermPtr& term) const {
  const std::vector<Rule>& rules = rule_set.rules();
  std::vector<std::optional<TermPtr>> results(rules.size());
  const RuleIndex* index = IndexFor(rule_set);
  if (index == nullptr) {
    for (size_t r = 0; r < rules.size(); ++r) {
      results[r] = ApplyOnce(rules[r], term, nullptr);
    }
    return results;
  }
  // One shared pre-order descent. Pre-order is exactly ApplyOnce's
  // leftmost-outermost probe order, so the first node where rule r matches
  // is the position ApplyOnce(rules[r], ...) would have fired at; every
  // later match of r is ignored via the done bitmap.
  size_t remaining = rules.size();
  std::vector<char> done(rules.size(), 0);
  std::vector<uint32_t> candidates;
  std::vector<size_t> path;
  auto visit = [&](auto&& self, const TermPtr& node) -> void {
    index->CandidatesAt(*node, &candidates);
    // `candidates` is fully consumed before recursing: CandidatesAt clears
    // and refills the shared scratch buffer at every node.
    for (uint32_t r : candidates) {
      if (done[r]) continue;
      if (auto rewritten = ApplyAtRoot(rules[r], node)) {
        results[r] = GraftAlongPath(term, path, 0, *rewritten);
        done[r] = 1;
        --remaining;
      }
    }
    for (size_t i = 0; i < node->arity() && remaining > 0; ++i) {
      path.push_back(i);
      self(self, node->child(i));
      path.pop_back();
    }
  };
  visit(visit, term);
  return results;
}

std::optional<TermPtr> Rewriter::IndexedApplyAnyOnce(
    const std::vector<Rule>& rules, const TermPtr& term, RewriteStep* step,
    const RuleIndex& index) const {
  // The linear scan's winner is "the smallest rule index that matches
  // ANYWHERE, fired at that rule's first pre-order position". One pre-order
  // descent recovers exactly that: at each node only candidates below the
  // current best are tested (a larger index can never win, and the best
  // rule itself already fired at an earlier position), so the best can only
  // decrease along the walk, and when it reaches rule 0 nothing can beat it
  // and the walk stops. Every node visited before rule r became best was
  // probed with r in range (r is below every earlier best), which makes the
  // node where r first matched its leftmost-outermost position -- the same
  // node the linear scan fires at.
  size_t best = rules.size();
  std::vector<size_t> best_path;
  TermPtr best_before;
  TermPtr best_after;
  std::vector<uint32_t> candidates;
  std::vector<size_t> path;
  auto visit = [&](auto&& self, const TermPtr& node) -> void {
    index.CandidatesAt(*node, &candidates);
    for (uint32_t r : candidates) {
      if (r >= best) break;  // candidates ascend: nothing below best left
      if (auto rewritten = ApplyAtRoot(rules[r], node)) {
        best = r;
        best_path = path;
        best_before = node;
        best_after = std::move(*rewritten);
        if (best == 0) return;
      }
    }
    for (size_t i = 0; i < node->arity(); ++i) {
      path.push_back(i);
      self(self, node->child(i));
      path.pop_back();
      if (best == 0) return;
    }
  };
  visit(visit, term);
  if (best == rules.size()) return std::nullopt;
  TermPtr result = GraftAlongPath(term, best_path, 0, best_after);
  if (step != nullptr) {
    step->rule_id = rules[best].id;
    step->path = std::move(best_path);
    step->before = std::move(best_before);
    step->after = std::move(best_after);
    step->result = result;
  }
  return result;
}

std::optional<TermPtr> Rewriter::LinearApplyAnyOnce(
    const std::vector<Rule>& rules, const TermPtr& term,
    RewriteStep* step) const {
  for (const Rule& rule : rules) {
    std::vector<size_t> path;
    auto result = ApplyOnceImpl(rule, term, &path, step);
    if (result) {
      if (step != nullptr) step->result = *result;
      return result;
    }
  }
  return std::nullopt;
}

StatusOr<TermPtr> Rewriter::Fixpoint(const CompiledRuleSet& rule_set,
                                     TermPtr term, Trace* trace,
                                     int max_steps) const {
  // Entry boundary: an unconditional clock probe, so a fixpoint entered
  // after a slow rule application (the periodic in-Charge sampling can
  // trail the deadline by hundreds of ms) stops before sweeping at all.
  if (options_.governor != nullptr) {
    KOLA_RETURN_IF_ERROR(options_.governor->CheckNow());
  }
  // Once per Fixpoint call, not per firing.
  const RuleIndex* index = IndexFor(rule_set);
  const std::vector<Rule>& rules = rule_set.rules();
  if (trace != nullptr && trace->initial == nullptr) trace->initial = term;
  const bool faults_armed = ActiveFaultInjector() != nullptr;
  for (int i = 0; i < max_steps; ++i) {
    // One governor charge per match sweep (whether or not a rule fires):
    // the full-term sweep is the unit of work here, and charging before it
    // keeps the deadline responsive even on the final, fruitless sweep.
    if (options_.governor != nullptr) {
      KOLA_RETURN_IF_ERROR(options_.governor->Charge());
    }
    if (faults_armed) {
      KOLA_RETURN_IF_ERROR(MaybeInjectFault(FaultSite::kRuleApplication));
    }
    RewriteStep step;
    auto result = index != nullptr
                      ? IndexedApplyAnyOnce(rules, term, &step, *index)
                      : LinearApplyAnyOnce(rules, term, &step);
    if (!result) {
      // Exit boundary: latch a just-passed deadline now (ignoring the
      // verdict -- this fixpoint's work is complete and keeps) so the next
      // phase stops at its first probe instead of up to 512 charges later.
      if (options_.governor != nullptr) (void)options_.governor->CheckNow();
      return term;
    }
    term = std::move(*result);
    if (trace != nullptr) trace->steps.push_back(std::move(step));
  }
  return ResourceExhaustedError("rewrite fixpoint exceeded " +
                                std::to_string(max_steps) + " steps");
}

}  // namespace kola

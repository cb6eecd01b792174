#ifndef KOLA_RULES_CATALOG_H_
#define KOLA_RULES_CATALOG_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "coko/parser.h"
#include "coko/strategy.h"
#include "rewrite/rule.h"
#include "rewrite/rule_index.h"

namespace kola {

/// The paper's rules 1-24 (Figures 4, 5 and 8), under their original
/// numbering, plus "17b" (the g = id reading of rule 17 that the paper
/// obtains by first applying rule 2 right-to-left; see Section 4.1,
/// footnote 4).
///
/// One deliberate correction: the paper states rule 7 as `inv(gt) => leq`.
/// Rule 13 forces `inv` to denote the *converse* (argument swap) -- that is
/// the only reading under which rule 13 holds for every predicate -- and the
/// converse of `gt` is `lt`, not `leq` (they differ exactly on equal
/// arguments). We ship the sound `inv(gt) => lt`; the as-published variant
/// is available from PaperRule7AsPublished() and is flagged UNSOUND by the
/// verifier (bench_rule_pool reproduces this).
std::vector<Rule> PaperRules();

/// The as-published (unsound) reading of rule 7, for the verifier demo.
Rule PaperRule7AsPublished();

/// Structural normalization rules used by strategies:
///   norm.assoc        (f o g) o h => f o (g o h)
///   norm.unfold       (f o g) ! x => f ! (g ! x)
///   norm.fold         f ! (g ! x) => (f o g) ! x
///   norm.id-apply     id ! x => x
std::vector<Rule> NormalizationRules();

/// Extended pool of generally applicable algebraic rules (ext.*): pair /
/// product laws, predicate logic (including the CNF distribution rules),
/// inverse and complement facts, conditional laws, iterate and set-operator
/// laws, join commutation and selection pushdown, and the
/// injectivity-guarded intersection rule from Section 4.2.
std::vector<Rule> ExtendedRules();

/// The Section 6 bag-extension rules (bag.*): duplicate-elimination
/// deferral via `distinct` / `tobag` over the run-time collection-
/// polymorphic formers. Verified by dedicated property tests (bag_test)
/// rather than the typed verifier; NOT included in AllCatalogRules.
std::vector<Rule> BagRules();

/// PaperRules + NormalizationRules + ExtendedRules (the typed-verifiable
/// pool), parsed afresh on every call; Catalog::Get().rules() is the same
/// list, parsed once per process.
std::vector<Rule> AllCatalogRules();

/// The process's rule catalog, built once and then only queried: the rules
/// of AllCatalogRules() in the same order, an id -> rule map, their
/// fingerprint, and every optimizer phase's rule blocks, parsed from one
/// COKO module (kHiddenJoinCoko plus the phase blocks in catalog.cc) whose
/// rule-set leaves compile their fingerprint and RuleIndex as they are
/// parsed. Immutable, so every thread shares the one instance.
class Catalog {
 public:
  /// Built thread-safely on first use and never destroyed: its rules hold
  /// terms that may still be referenced during static teardown.
  static const Catalog& Get();

  // The id and block maps point into this object's own members.
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  const std::vector<Rule>& rules() const { return rules_; }
  /// The rule with this id; nullptr when absent.
  const Rule* Find(std::string_view id) const;
  /// RuleSetFingerprint(rules()), pinned to 0xc12ac90084990c8f: the rule
  /// component of plan-cache keys and snapshots.
  uint64_t fingerprint() const { return fingerprint_; }

  /// The block `name` of the Catalog's COKO module (catalog.cc), e.g.
  /// "simplify" or "break-up". KOLA_CHECK-fails on a name the module does
  /// not define: the optimizer's phases ask only for their own blocks.
  const RuleBlock& Block(std::string_view name) const;
  /// The compiled rules of rule-set block `name` (one exhaust, once or
  /// everywhere statement), e.g. "join-cleanup".
  const CompiledRuleSet& RuleSet(std::string_view name) const;

 private:
  Catalog();

  std::vector<Rule> rules_;
  std::unordered_map<std::string_view, const Rule*> by_id_;
  uint64_t fingerprint_;
  CokoModule module_;  // owns the blocks `blocks_` points into
  std::unordered_map<std::string_view, const RuleBlock*> blocks_;
};

/// The Catalog's blocks as standalone RuleBlocks: conversion of predicates
/// to CNF, pushing selections past joins, and phase 1's simplification.
RuleBlock CnfBlock();
RuleBlock PushSelectsPastJoinsBlock();
RuleBlock SimplifyBlock();

/// Looks up a rule by id. NOT_FOUND when absent -- the right entry point
/// whenever the id comes from user input (shell commands, COKO text,
/// replay files).
StatusOr<const Rule*> TryFindRule(const std::vector<Rule>& rules,
                                  const std::string& id);

/// Finds a rule by id; KOLA_CHECKs that it exists. Only for compile-time
/// constant ids (a miss is a library bug); use TryFindRule for ids that
/// originate outside the library.
const Rule& FindRule(const std::vector<Rule>& rules, const std::string& id);

}  // namespace kola

#endif  // KOLA_RULES_CATALOG_H_

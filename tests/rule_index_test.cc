// The compiled rule index (rewrite/rule_index.h) and the stable rule-set
// fingerprint it is keyed by. The load-bearing property throughout: the
// index only ever FILTERS the linear probe order, so every rewrite result,
// fired rule and trace is byte-identical with the index on or off -- and a
// planted shadowing rule (a general rule ordered before a more specific
// one) fires first under both scans.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/governor.h"
#include "optimizer/hidden_join.h"
#include "optimizer/optimizer.h"
#include "rewrite/engine.h"
#include "rewrite/match.h"
#include "rewrite/rule.h"
#include "rewrite/rule_index.h"
#include "rules/catalog.h"
#include "term/parser.h"

namespace kola {
namespace {

TermPtr Q(const char* text, Sort sort = Sort::kFunction) {
  auto t = ParseTerm(text, sort);
  EXPECT_TRUE(t.ok()) << t.status();
  return t.value();
}

Rule R(const char* id, const char* lhs, const char* rhs,
       Sort sort = Sort::kFunction) {
  auto rule = MakeRule(id, "", lhs, rhs, sort);
  EXPECT_TRUE(rule.ok()) << rule.status();
  return rule.value();
}

// ---------------------------------------------------------------------------
// RuleSetFingerprint: explicit FNV-1a construction, stable across platforms
// and processes -- pinned to golden values so a stdlib or refactor change
// that silently altered it (and thereby invalidated persisted keys) fails
// loudly here.
// ---------------------------------------------------------------------------

TEST(FingerprintTest, CatalogFingerprintIsPinned) {
  std::vector<Rule> catalog = AllCatalogRules();
  ASSERT_EQ(catalog.size(), 113u);
  EXPECT_EQ(RuleSetFingerprint(catalog), 0xc12ac90084990c8fULL);
  // The process-wide Catalog holds the same rules, in the same order.
  EXPECT_EQ(Catalog::Get().rules().size(), 113u);
  EXPECT_EQ(Catalog::Get().fingerprint(), 0xc12ac90084990c8fULL);
}

TEST(FingerprintTest, CatalogFindsEveryRuleById) {
  const Catalog& catalog = Catalog::Get();
  for (const Rule& rule : catalog.rules()) {
    EXPECT_EQ(catalog.Find(rule.id), &rule) << rule.id;
  }
  EXPECT_EQ(catalog.Find("no-such-rule"), nullptr);
}

TEST(FingerprintTest, StableStringHashIsFnv1a) {
  // The FNV-1a offset basis (empty string) and one hand-computed step.
  EXPECT_EQ(StableStringHash(""), 1469598103934665603ULL);
  EXPECT_EQ(StableStringHash("a"),
            (1469598103934665603ULL ^ 'a') * 1099511628211ULL);
}

TEST(FingerprintTest, SensitiveToEverySyntacticComponent) {
  const Rule base = R("r", "?f o id", "?f");
  const uint64_t fp = RuleSetFingerprint({base});
  EXPECT_NE(fp, RuleSetFingerprint({R("r2", "?f o id", "?f")}));  // id
  EXPECT_NE(fp, RuleSetFingerprint({R("r", "id o ?f", "?f")}));   // lhs
  EXPECT_NE(fp, RuleSetFingerprint({R("r", "?f o id", "id o ?f")}));  // rhs
  EXPECT_NE(fp, RuleSetFingerprint({base, base}));  // arity of the set
  EXPECT_EQ(fp, RuleSetFingerprint({R("r", "?f o id", "?f")}));  // stable
}

TEST(FingerprintTest, OrderMatters) {
  // Rule order is part of rewrite semantics (first match wins), so two
  // orderings of one set must not share a fingerprint (or a cache slot).
  const Rule a = R("a", "?f o id", "?f");
  const Rule b = R("b", "id o ?f", "?f");
  EXPECT_NE(RuleSetFingerprint({a, b}), RuleSetFingerprint({b, a}));
}

// ---------------------------------------------------------------------------
// CandidatesAt: exact superset of MatchTerm, ascending order.
// ---------------------------------------------------------------------------

/// Every subterm of `term`, pre-order.
void CollectNodes(const TermPtr& term, std::vector<TermPtr>* out) {
  out->push_back(term);
  for (const TermPtr& child : term->children()) CollectNodes(child, out);
}

TEST(RuleIndexTest, CandidatesAreAscendingSupersetOfMatchesOnCatalog) {
  std::vector<Rule> rules = AllCatalogRules();
  auto index = RuleIndex::Build(rules, RuleSetFingerprint(rules));
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->rule_count(), rules.size());
  EXPECT_GT(index->footprint_bytes(), 0);

  std::vector<TermPtr> nodes;
  CollectNodes(GarageQueryKG1(), &nodes);
  CollectNodes(Q("iterate(Kp(T), city) o iterate(Kp(T), addr) ! P",
                 Sort::kObject),
               &nodes);
  CollectNodes(Q("[1, [2, 3]]", Sort::kObject), &nodes);
  ASSERT_GT(nodes.size(), 20u);

  size_t candidates_total = 0;
  std::vector<uint32_t> candidates;
  for (const TermPtr& node : nodes) {
    index->CandidatesAt(*node, &candidates);
    EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
    EXPECT_TRUE(std::adjacent_find(candidates.begin(), candidates.end()) ==
                candidates.end());
    candidates_total += candidates.size();
    for (uint32_t r = 0; r < rules.size(); ++r) {
      Bindings bindings;
      if (!MatchTerm(rules[r].lhs, node, &bindings)) continue;
      // A matching rule must never be filtered out.
      EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(), r))
          << "rule " << rules[r].id << " missing at " << node->ToString();
    }
  }
  // ...and the filter must actually filter: far fewer probes than the
  // linear scan's rules x nodes.
  EXPECT_LT(candidates_total, rules.size() * nodes.size() / 4);
}

// ---------------------------------------------------------------------------
// Shadowing: a general rule ordered before a more specific one must win
// under the index exactly as it does under the linear scan. A buggy index
// that routed the probe to the "best structural fit" instead of filtering
// the ordered scan would skip the general rule here.
// ---------------------------------------------------------------------------

TEST(RuleIndexTest, GeneralRuleShadowsSpecificRule) {
  std::vector<Rule> rules = {
      R("general", "?f o ?g", "?f"),
      R("specific", "id o ?g", "?g"),
  };
  TermPtr term = Q("id o age");
  Rewriter indexed;
  RewriterOptions linear_options;
  linear_options.use_rule_index = false;
  Rewriter linear(nullptr, linear_options);

  RewriteStep indexed_step, linear_step;
  auto via_index = indexed.ApplyAnyOnce(rules, term, &indexed_step);
  auto via_scan = linear.ApplyAnyOnce(rules, term, &linear_step);
  ASSERT_TRUE(via_index.has_value());
  ASSERT_TRUE(via_scan.has_value());
  EXPECT_EQ(indexed_step.rule_id, "general");
  EXPECT_EQ(linear_step.rule_id, indexed_step.rule_id);
  EXPECT_TRUE(Term::Equal(*via_index, *via_scan));
  EXPECT_TRUE(Term::Equal(*via_index, Q("id")));
}

TEST(RuleIndexTest, WildcardRootRuleShadowsEverything) {
  // A bare-metavariable lhs is a candidate at every node; ordered first it
  // must fire first, at the leftmost-outermost position (the root).
  std::vector<Rule> rules = {
      R("wild", "?f", "?f o id"),
      R("specific", "pi1 o ?g", "?g"),
  };
  TermPtr term = Q("pi1 o age");
  Rewriter indexed;
  RewriterOptions linear_options;
  linear_options.use_rule_index = false;
  Rewriter linear(nullptr, linear_options);

  RewriteStep indexed_step, linear_step;
  auto via_index = indexed.ApplyAnyOnce(rules, term, &indexed_step);
  auto via_scan = linear.ApplyAnyOnce(rules, term, &linear_step);
  ASSERT_TRUE(via_index.has_value() && via_scan.has_value());
  EXPECT_EQ(indexed_step.rule_id, "wild");
  EXPECT_EQ(linear_step.rule_id, "wild");
  EXPECT_TRUE(indexed_step.path.empty());
  EXPECT_TRUE(Term::Equal(*via_index, *via_scan));
}

TEST(RuleIndexTest, DeeperFirstRuleBeatsShallowerLaterRule) {
  // Rule order dominates position order: rule 0 matching DEEP in the term
  // must beat rule 1 matching at the root, under both scans.
  std::vector<Rule> rules = {
      R("deep", "age o id", "age"),
      R("root", "pi1 o ?g", "pi1"),
  };
  TermPtr term = Q("pi1 o (age o id)");
  Rewriter indexed;
  RewriterOptions linear_options;
  linear_options.use_rule_index = false;
  Rewriter linear(nullptr, linear_options);

  RewriteStep indexed_step, linear_step;
  auto via_index = indexed.ApplyAnyOnce(rules, term, &indexed_step);
  auto via_scan = linear.ApplyAnyOnce(rules, term, &linear_step);
  ASSERT_TRUE(via_index.has_value() && via_scan.has_value());
  EXPECT_EQ(linear_step.rule_id, "deep");
  EXPECT_EQ(indexed_step.rule_id, "deep");
  EXPECT_EQ(indexed_step.path, linear_step.path);
  EXPECT_FALSE(indexed_step.path.empty());
  EXPECT_TRUE(Term::Equal(*via_index, *via_scan));
}

// ---------------------------------------------------------------------------
// ApplyEachOnce: the whole-catalog probe is one shared descent, but each
// slot must equal the independent per-rule ApplyOnce.
// ---------------------------------------------------------------------------

TEST(RuleIndexTest, ApplyEachOnceMatchesPerRuleApplyOnce) {
  std::vector<Rule> rules = AllCatalogRules();
  const CompiledRuleSet compiled(rules);
  const TermPtr terms[] = {
      GarageQueryKG1(),
      Q("iterate(Kp(T), city) o iterate(Kp(T), addr)"),
      Q("set_to_bag o bag_to_set o set_to_bag"),
  };
  Rewriter indexed;
  RewriterOptions linear_options;
  linear_options.use_rule_index = false;
  Rewriter linear(nullptr, linear_options);
  int fired = 0;
  for (const TermPtr& term : terms) {
    auto batch = indexed.ApplyEachOnce(compiled, term);
    ASSERT_EQ(batch.size(), rules.size());
    for (size_t r = 0; r < rules.size(); ++r) {
      auto one = linear.ApplyOnce(rules[r], term, nullptr);
      ASSERT_EQ(batch[r].has_value(), one.has_value())
          << rules[r].id << " on " << term->ToString();
      if (one.has_value()) {
        ++fired;
        EXPECT_TRUE(Term::Equal(*batch[r], *one)) << rules[r].id;
      }
    }
  }
  EXPECT_GT(fired, 0);
}

// ---------------------------------------------------------------------------
// Lifecycle: compiled rule sets, the process-wide cache, and governor
// charging.
// ---------------------------------------------------------------------------

TEST(RuleIndexTest, EachCompiledRuleSetCarriesItsOwnIndex) {
  // One Rewriter, two compiled rule sets: each Fixpoint consults its own
  // set's index, never a stale one -- and both derivations must equal their
  // linear-scan twins.
  std::vector<Rule> all = AllCatalogRules();
  std::vector<Rule> fusion_rules;
  for (const char* id : {"11", "6", "5", "1", "13", "7"}) {
    fusion_rules.push_back(FindRule(all, id));
  }
  const CompiledRuleSet fusion(fusion_rules);
  const CompiledRuleSet cleanup({R("left-id", "id o ?f", "?f"),
                                 R("right-id", "?f o id", "?f")});
  ASSERT_NE(fusion.fingerprint(), cleanup.fingerprint());
  EXPECT_EQ(fusion.fingerprint(), RuleSetFingerprint(fusion_rules));

  Rewriter rewriter;
  const RuleIndex* fusion_index = rewriter.IndexFor(fusion);
  ASSERT_NE(fusion_index, nullptr);
  EXPECT_EQ(fusion_index, fusion.index());
  EXPECT_EQ(fusion_index->fingerprint(), fusion.fingerprint());
  EXPECT_EQ(fusion_index->rule_count(), fusion_rules.size());

  Trace t1;
  auto fused = rewriter.Fixpoint(
      fusion, Q("iterate(Kp(T), city) o iterate(Kp(T), addr)"), &t1);
  ASSERT_TRUE(fused.ok()) << fused.status();

  const RuleIndex* cleanup_index = rewriter.IndexFor(cleanup);
  ASSERT_NE(cleanup_index, nullptr);
  EXPECT_NE(cleanup_index, fusion_index);
  EXPECT_EQ(cleanup_index->fingerprint(), cleanup.fingerprint());
  EXPECT_EQ(cleanup_index->rule_count(), 2u);
  EXPECT_EQ(rewriter.IndexFor(fusion), fusion_index);

  Trace t2;
  auto cleaned =
      rewriter.Fixpoint(cleanup, Q("id o (age o id) o id"), &t2);
  ASSERT_TRUE(cleaned.ok()) << cleaned.status();
  EXPECT_TRUE(Term::Equal(cleaned.value(), Q("age")));

  // Both derivations byte-equal the linear scan's.
  RewriterOptions linear_options;
  linear_options.use_rule_index = false;
  Rewriter linear(nullptr, linear_options);
  EXPECT_EQ(linear.IndexFor(fusion), nullptr);
  Trace s1, s2;
  auto fused_linear = linear.Fixpoint(
      fusion, Q("iterate(Kp(T), city) o iterate(Kp(T), addr)"), &s1);
  auto cleaned_linear =
      linear.Fixpoint(cleanup, Q("id o (age o id) o id"), &s2);
  ASSERT_TRUE(fused_linear.ok() && cleaned_linear.ok());
  EXPECT_TRUE(Term::Equal(fused.value(), fused_linear.value()));
  EXPECT_EQ(t1.ToString(), s1.ToString());
  EXPECT_EQ(t2.ToString(), s2.ToString());
}

TEST(RuleIndexTest, ProcessCacheSharesOneCompiledCopy) {
  std::vector<Rule> rules = AllCatalogRules();
  const uint64_t fp = RuleSetFingerprint(rules);
  const RuleIndexCacheStats before = GetRuleIndexCacheStats();
  auto a = AcquireRuleIndex(rules, fp);
  auto b = AcquireRuleIndex(rules, fp);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());  // one immutable copy, shared
  const RuleIndexCacheStats after = GetRuleIndexCacheStats();
  EXPECT_GE(after.indexes, 1u);
  EXPECT_GT(after.hits, before.hits);  // at least the second acquire
  EXPECT_GE(after.bytes, a->footprint_bytes());

  // Two compiled sets of the same rules, consulted by two Rewriters,
  // resolve to the same compiled copy.
  const CompiledRuleSet first(rules);
  const CompiledRuleSet second(rules);
  EXPECT_EQ(first.index(), a.get());
  Rewriter r1, r2;
  EXPECT_EQ(r1.IndexFor(first), r2.IndexFor(second));
}

TEST(RuleIndexTest, ExhaustedMemoryBudgetKeepsTheIndexAndStopsThePass) {
  // A governor too small for the compiled tree: the refused kRuleIndex
  // charge latches the governor's sticky memory stop, but IndexFor still
  // hands out the index, and the rule application in progress returns the
  // linear scan's exact answer. The pass's next probe then stops.
  Governor tiny{Governor::Limits{.memory_budget_bytes = 64}};
  RewriterOptions options;
  options.governor = &tiny;
  Rewriter rewriter(nullptr, options);
  const CompiledRuleSet rules(AllCatalogRules());
  EXPECT_EQ(rewriter.IndexFor(rules), rules.index());
  EXPECT_EQ(tiny.cause(), Governor::StopCause::kMemory);
  EXPECT_EQ(tiny.memory().charged(MemoryCategory::kRuleIndex), 0);

  RewriterOptions linear_options;
  linear_options.use_rule_index = false;
  Rewriter linear(nullptr, linear_options);
  RewriteStep step, linear_step;
  auto result = rewriter.ApplyAnyOnce(rules, Q("id o (age o id)"), &step);
  auto linear_result =
      linear.ApplyAnyOnce(rules, Q("id o (age o id)"), &linear_step);
  ASSERT_EQ(result.has_value(), linear_result.has_value());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(step.rule_id, linear_step.rule_id);
  EXPECT_EQ(step.path, linear_step.path);
  EXPECT_TRUE(Term::Equal(*result, *linear_result));

  // The stop is sticky: the next Fixpoint ends before its first sweep.
  auto stopped = rewriter.Fixpoint(rules, Q("id o (age o id)"), nullptr);
  EXPECT_EQ(stopped.status().code(), StatusCode::kResourceExhausted);

  // A whole optimization pass under such a budget degrades at its first
  // phase, whose index charge is the first thing refused, with cause
  // kMemory; the input query is the plan.
  Governor pass_budget{Governor::Limits{.memory_budget_bytes = 64}};
  PropertyStore properties = PropertyStore::Default();
  Optimizer optimizer(&properties, nullptr);
  TermPtr query = Q("iterate(Kp(T), id o age) ! P", Sort::kObject);
  auto optimized = optimizer.Optimize(query, &pass_budget);
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  EXPECT_TRUE(optimized->degradation.degraded);
  EXPECT_EQ(optimized->degradation.phase, "simplify");
  EXPECT_EQ(optimized->degradation.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(pass_budget.cause(), Governor::StopCause::kMemory);
  EXPECT_TRUE(optimized->trace.steps.empty());
  EXPECT_TRUE(Term::Equal(optimized->query, query));
}

TEST(RuleIndexTest, AmpleBudgetChargesIndexBytes) {
  // A governed Rewriter charges each index once, on its first use: a later
  // use -- through the compiled set or a plain vector of the same rules --
  // charges nothing more.
  Governor governor{Governor::Limits{.memory_budget_bytes = 1 << 30}};
  RewriterOptions options;
  options.governor = &governor;
  Rewriter rewriter(nullptr, options);
  const CompiledRuleSet rules(AllCatalogRules());
  const RuleIndex* index = rewriter.IndexFor(rules);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(governor.memory().charged(MemoryCategory::kRuleIndex),
            index->footprint_bytes());
  EXPECT_EQ(rewriter.IndexFor(rules), index);
  RewriteStep step;
  EXPECT_TRUE(
      rewriter.ApplyAnyOnce(rules.rules(), Q("id o (age o id)"), &step));
  EXPECT_EQ(governor.memory().charged(MemoryCategory::kRuleIndex),
            index->footprint_bytes());
  EXPECT_FALSE(governor.stopped());
}

// ---------------------------------------------------------------------------
// Whole-pipeline agreement on the paper's workloads: Fixpoint traces with
// the index on vs off, byte for byte.
// ---------------------------------------------------------------------------

TEST(RuleIndexTest, FixpointTracesAreByteIdenticalOnPaperWorkloads) {
  std::vector<Rule> all = AllCatalogRules();
  std::vector<Rule> fig4;
  for (const char* id :
       {"11", "6", "5", "1", "13", "7", "ext.and-true-right"}) {
    fig4.push_back(FindRule(all, id));
  }
  const char* queries[] = {
      "iterate(Kp(T), city) o iterate(Kp(T), addr) ! P",
      "iterate(Kp(T), age) o iterate(gt @ (age, Kf(25)), id) ! P",
  };
  Rewriter indexed;
  RewriterOptions linear_options;
  linear_options.use_rule_index = false;
  Rewriter linear(nullptr, linear_options);
  for (const char* text : queries) {
    Trace ti, tl;
    auto ri = indexed.Fixpoint(fig4, Q(text, Sort::kObject), &ti);
    auto rl = linear.Fixpoint(fig4, Q(text, Sort::kObject), &tl);
    ASSERT_TRUE(ri.ok() && rl.ok()) << text;
    EXPECT_TRUE(Term::Equal(ri.value(), rl.value())) << text;
    EXPECT_EQ(ti.ToString(), tl.ToString()) << text;
    EXPECT_FALSE(ti.steps.empty()) << text;
  }
}

}  // namespace
}  // namespace kola

#include "rules/catalog.h"

#include "common/macros.h"
#include "rewrite/engine.h"

namespace kola {

namespace {

Rule R(const std::string& id, const std::string& description,
       const std::string& lhs, const std::string& rhs, Sort sort) {
  auto rule = MakeRule(id, description, lhs, rhs, sort);
  KOLA_CHECK_OK(rule.status());
  return std::move(rule).value();
}

Rule RC(const std::string& id, const std::string& description,
        const std::string& lhs, const std::string& rhs, Sort sort,
        const std::vector<std::pair<std::string, std::string>>& conditions) {
  auto rule = MakeConditionalRule(id, description, lhs, rhs, sort,
                                  conditions);
  KOLA_CHECK_OK(rule.status());
  return std::move(rule).value();
}

constexpr Sort kFn = Sort::kFunction;
constexpr Sort kPr = Sort::kPredicate;
constexpr Sort kOb = Sort::kObject;

/// Every optimizer phase's blocks besides the hidden-join strategy
/// (kHiddenJoinCoko), which the Catalog parses into the same module.
constexpr char kPhaseCoko[] = R"(
# Phase 1: identity, constant, projection and conditional laws.
block simplify {
  exhaust 1, 2, 3, 4, 5, 6, 8, 9, 10, 18, ext.and-true-right, ext.and-false,
          ext.or-true, ext.or-false, ext.product-id, ext.con-true,
          ext.con-false, ext.con-same, ext.not-not, ext.inv-inv,
          ext.iterate-false, norm.id-apply;
}
# Standalone blocks: predicates to CNF, selections below joins.
block cnf {
  exhaust ext.not-not, ext.demorgan-and, ext.demorgan-or, ext.cnf-dist-left,
          ext.cnf-dist-right;
}
block push-selects {
  exhaust ext.select-past-join-left, ext.select-past-join-right;
}
# Phase 2: code motion (Figure 6). Rule 15 fires only when the predicate
# examines the environment component pi1 -- the structural stand-in for
# AQUA's free-variable analysis; 14~ re-fuses the oplus chain so the
# projection rules can collapse it.
block decompose-predicate {
  exhaust 13, 7, ext.inv-lt, ext.inv-leq, ext.inv-geq, ext.inv-eq,
          ext.inv-neq, 14;
}
block hoist-conditional { exhaust 15; }
block distribute        { exhaust 16; }
block cleanup           { exhaust 9, 10, 3, 8, 1, 2, 14~; }
# Phase 4: loop fusion; the hidden-join blocks leave composition chains,
# which is what rule 11 matches.
block loop-fusion {
  exhaust norm.fold, norm.assoc, 11, 6, 5, 1, 2, ext.and-true-right;
}
# Phase 5: join exploration applies each of these rules once to every
# frontier plan, then normalizes with join-cleanup, so commuting twice
# folds back onto an already-seen plan.
block join-exploration {
  once ext.join-commute, ext.select-past-join-left, ext.select-past-join-right;
}
block join-cleanup {
  exhaust norm.assoc, ext.swap-swap, ext.swap-swap-chain, ext.inv-inv,
          ext.inv-product, ext.inv-and, 7, ext.inv-lt, ext.inv-leq,
          ext.inv-geq, ext.inv-eq, ext.inv-neq, 1, 2, 3, 4, 5,
          ext.and-true-right, ext.product-id;
}
)";

}  // namespace

std::vector<Rule> PaperRules() {
  std::vector<Rule> rules;
  rules.push_back(R("1", "right identity of composition",
                    "?f o id", "?f", kFn));
  rules.push_back(R("2", "left identity of composition",
                    "id o ?f", "?f", kFn));
  rules.push_back(R("3", "oplus with identity",
                    "?p @ id", "?p", kPr));
  rules.push_back(R("4", "projection pair is identity",
                    "(pi1, pi2)", "id", kFn));
  rules.push_back(R("5", "true conjunct elimination",
                    "Kp(T) & ?p", "?p", kPr));
  rules.push_back(R("6", "constant predicate absorbs composition",
                    "Kp(?b) @ ?f", "Kp(?b)", kPr));
  // The paper prints `inv(gt) => leq`; the sound converse of gt is lt.
  rules.push_back(R("7", "converse of gt (corrected; see catalog.h)",
                    "inv(gt)", "lt", kPr));
  rules.push_back(R("8", "constant function absorbs composition",
                    "Kf(?k) o ?f", "Kf(?k)", kFn));
  rules.push_back(R("9", "first projection of a pair former",
                    "pi1 o (?f, ?g)", "?f", kFn));
  rules.push_back(R("10", "second projection of a pair former",
                    "pi2 o (?f, ?g)", "?g", kFn));
  rules.push_back(R("11", "iterate fusion",
                    "iterate(?p, ?f) o iterate(?q, ?g)",
                    "iterate(?q & ?p @ ?g, ?f o ?g)", kFn));
  rules.push_back(R("12", "selection after projection",
                    "iterate(?p, id) o iterate(Kp(T), ?f)",
                    "iterate(?p @ ?f, ?f)", kFn));
  rules.push_back(R("13", "curry a constant comparand",
                    "?p @ (?f, Kf(?k))", "Cp(inv(?p), ?k) @ ?f", kPr));
  rules.push_back(R("14", "oplus distributes over composition",
                    "?p @ ?f o ?g", "?p @ ?f @ ?g", kPr));
  rules.push_back(R("15", "environment-insensitive iter is a conditional",
                    "iter(?p @ pi1, pi2)",
                    "con(?p @ pi1, pi2, Kf({}))", kFn));
  rules.push_back(R("16", "conditional distributes over composition",
                    "con(?p, ?f, ?g) o ?h",
                    "con(?p @ ?h, ?f o ?h, ?g o ?h)", kFn));

  // ----- Figure 8: hidden-join rules -----
  rules.push_back(R(
      "17", "break up a nested iterate (wrapped body)",
      "iterate(Kp(T), (?j, ?g o iter(?p, ?f) o (id, ?h)))",
      "iterate(Kp(T), (?j o pi1, pi2)) o "
      "iterate(Kp(T), (pi1, ?g o pi2)) o "
      "iterate(Kp(T), (pi1, iter(?p, ?f))) o "
      "iterate(Kp(T), (id, ?h))",
      kFn));
  // The g = id reading the paper reaches via rule 2 right-to-left
  // (Section 4.1 footnote 4).
  rules.push_back(R(
      "17b", "break up a nested iterate (bare body)",
      "iterate(Kp(T), (?j, iter(?p, ?f) o (id, ?h)))",
      "iterate(Kp(T), (?j o pi1, pi2)) o "
      "iterate(Kp(T), (pi1, iter(?p, ?f))) o "
      "iterate(Kp(T), (id, ?h))",
      kFn));
  rules.push_back(R("18", "trivial iterate is identity",
                    "iterate(Kp(T), id)", "id", kFn));
  rules.push_back(R(
      "19", "bottom out: pair-with-constant-set becomes nest of join",
      "iterate(Kp(T), (id, Kf(?B))) ! ?A",
      "nest(pi1, pi2) o (join(Kp(T), id), pi1) ! [?A, ?B]", kOb));
  rules.push_back(R(
      "20", "pull nest above an iter-mapping iterate",
      "iterate(Kp(T), (pi1, iter(?p, ?f))) o nest(pi1, pi2)",
      "nest(pi1, pi2) o (iterate(?p, (pi1, ?f)) x id)", kFn));
  rules.push_back(R(
      "21", "pull nest above a flattening iterate",
      "iterate(Kp(T), (pi1, flat o pi2)) o nest(pi1, pi2)",
      "nest(pi1, pi2) o (unnest(pi1, pi2) x id)", kFn));
  rules.push_back(R(
      "22", "pull unnest above a filtering map",
      "(iterate(?p, (pi1, ?f)) x id) o (unnest(pi1, pi2) x id)",
      "(unnest(pi1, pi2) x id) o "
      "(iterate(Kp(T), (pi1, iter(?p, ?f))) x id)",
      kFn));
  // The (pi1, pi2) = id reading of rule 22, reached in the paper via rule 4
  // right-to-left (the pull-up-nest cleanup collapses iterate(p, (pi1,
  // pi2)) to iterate(p, id), which rule 22's pattern cannot see).
  rules.push_back(R(
      "22b", "pull unnest above a filter",
      "(iterate(?p, id) x id) o (unnest(pi1, pi2) x id)",
      "(unnest(pi1, pi2) x id) o "
      "(iterate(Kp(T), (pi1, iter(?p, pi2))) x id)",
      kFn));
  rules.push_back(R(
      "23", "merge adjacent unnests",
      "(unnest(pi1, pi2) x id) o (unnest(pi1, pi2) x id)",
      "(unnest(pi1, pi2) x id) o "
      "(iterate(Kp(T), (pi1, flat o pi2)) x id)",
      kFn));
  rules.push_back(R(
      "24", "absorb an iterate into the join below it",
      "(iterate(?p, ?f) x id) o (join(?q, ?g), pi1)",
      "(join(?q & ?p @ ?g, ?f o ?g), pi1)", kFn));
  return rules;
}

Rule PaperRule7AsPublished() {
  return R("7-as-published", "rule 7 exactly as printed in the paper "
           "(unsound: differs from inv(gt) on equal arguments)",
           "inv(gt)", "leq", kPr);
}

std::vector<Rule> NormalizationRules() {
  std::vector<Rule> rules;
  rules.push_back(R("norm.assoc", "right-associate composition",
                    "(?f o ?g) o ?h", "?f o ?g o ?h", kFn));
  rules.push_back(R("norm.unfold", "apply a composition pointwise",
                    "(?f o ?g) ! ?x", "?f ! ?g ! ?x", kOb));
  rules.push_back(R("norm.fold", "refold nested applications",
                    "?f ! ?g ! ?x", "(?f o ?g) ! ?x", kOb));
  rules.push_back(R("norm.id-apply", "identity application",
                    "id ! ?x", "?x", kOb));
  return rules;
}

std::vector<Rule> ExtendedRules() {
  std::vector<Rule> rules;
  // --- Pair and product laws ---
  rules.push_back(R("ext.pi1-product", "project first of a product",
                    "pi1 o (?f x ?g)", "?f o pi1", kFn));
  rules.push_back(R("ext.pi2-product", "project second of a product",
                    "pi2 o (?f x ?g)", "?g o pi2", kFn));
  rules.push_back(R("ext.product-pair", "product after pair former",
                    "(?f x ?g) o (?h, ?j)", "(?f o ?h, ?g o ?j)", kFn));
  rules.push_back(R("ext.pair-compose", "pair former after a function",
                    "(?f, ?g) o ?h", "(?f o ?h, ?g o ?h)", kFn));
  rules.push_back(R("ext.product-compose", "products compose pointwise",
                    "(?f x ?g) o (?h x ?j)", "(?f o ?h) x (?g o ?j)", kFn));
  rules.push_back(R("ext.product-id", "product of identities",
                    "id x id", "id", kFn));
  rules.push_back(R("ext.curry-compose", "precompose under currying",
                    "Cf(?f, ?k) o ?g", "Cf(?f o (id x ?g), ?k)", kFn));
  rules.push_back(R("ext.pair-eta", "projections repackage a pair",
                    "(pi1 o ?f, pi2 o ?f)", "?f", kFn));
  rules.push_back(R("ext.swap-swap", "pair swap is an involution",
                    "(pi2, pi1) o (pi2, pi1)", "id", kFn));
  rules.push_back(R("ext.swap-swap-chain",
                    "pair-swap involution, mid-chain",
                    "(pi2, pi1) o (pi2, pi1) o ?g", "?g", kFn));
  rules.push_back(R("ext.pair-to-product", "componentwise pair is a product",
                    "(?f o pi1, ?g o pi2)", "?f x ?g", kFn));
  rules.push_back(R("ext.pair-to-product-left",
                    "left-componentwise pair is a product",
                    "(?f o pi1, pi2)", "?f x id", kFn));
  rules.push_back(R("ext.pair-to-product-right",
                    "right-componentwise pair is a product",
                    "(pi1, ?g o pi2)", "id x ?g", kFn));

  // --- Predicate logic (the "convert predicates to CNF" block draws on
  //     these) ---
  rules.push_back(R("ext.and-idem", "conjunction idempotence",
                    "?p & ?p", "?p", kPr));
  rules.push_back(R("ext.or-idem", "disjunction idempotence",
                    "?p | ?p", "?p", kPr));
  rules.push_back(R("ext.and-false", "false conjunct dominates",
                    "Kp(F) & ?p", "Kp(F)", kPr));
  rules.push_back(R("ext.or-true", "true disjunct dominates",
                    "Kp(T) | ?p", "Kp(T)", kPr));
  rules.push_back(R("ext.or-false", "false disjunct elimination",
                    "Kp(F) | ?p", "?p", kPr));
  rules.push_back(R("ext.and-true-right", "true right conjunct elimination",
                    "?p & Kp(T)", "?p", kPr));
  rules.push_back(R("ext.not-not", "double negation",
                    "not(not(?p))", "?p", kPr));
  rules.push_back(R("ext.demorgan-and", "De Morgan over conjunction",
                    "not(?p & ?q)", "not(?p) | not(?q)", kPr));
  rules.push_back(R("ext.demorgan-or", "De Morgan over disjunction",
                    "not(?p | ?q)", "not(?p) & not(?q)", kPr));
  rules.push_back(R("ext.cnf-dist-left", "distribute or over and (left)",
                    "?p | (?q & ?p2)", "(?p | ?q) & (?p | ?p2)", kPr));
  rules.push_back(R("ext.cnf-dist-right", "distribute or over and (right)",
                    "(?q & ?p2) | ?p", "(?q | ?p) & (?p2 | ?p)", kPr));
  rules.push_back(R("ext.and-oplus", "oplus distributes over and",
                    "(?p & ?q) @ ?f", "(?p @ ?f) & (?q @ ?f)", kPr));
  rules.push_back(R("ext.or-oplus", "oplus distributes over or",
                    "(?p | ?q) @ ?f", "(?p @ ?f) | (?q @ ?f)", kPr));
  rules.push_back(R("ext.not-oplus", "oplus commutes with negation",
                    "not(?p) @ ?f", "not(?p @ ?f)", kPr));
  rules.push_back(R("ext.and-comm", "conjunction commutes",
                    "?p & ?q", "?q & ?p", kPr));
  rules.push_back(R("ext.or-comm", "disjunction commutes",
                    "?p | ?q", "?q | ?p", kPr));
  rules.push_back(R("ext.and-assoc", "conjunction associates",
                    "(?p & ?q) & ?p2", "?p & (?q & ?p2)", kPr));
  rules.push_back(R("ext.or-assoc", "disjunction associates",
                    "(?p | ?q) | ?p2", "?p | (?q | ?p2)", kPr));
  rules.push_back(R("ext.absorb-and", "absorption",
                    "?p & (?p | ?q)", "?p", kPr));
  rules.push_back(R("ext.absorb-or", "absorption (dual)",
                    "?p | ?p & ?q", "?p", kPr));
  rules.push_back(R("ext.and-contradiction", "p and not p is false",
                    "?p & not(?p)", "Kp(F)", kPr));
  rules.push_back(R("ext.or-excluded-middle", "p or not p is true",
                    "?p | not(?p)", "Kp(T)", kPr));

  // --- Inverse (converse) and complement facts ---
  rules.push_back(R("ext.inv-inv", "converse is an involution",
                    "inv(inv(?p))", "?p", kPr));
  rules.push_back(R("ext.inv-eq", "equality is symmetric",
                    "inv(eq)", "eq", kPr));
  rules.push_back(R("ext.inv-neq", "disequality is symmetric",
                    "inv(neq)", "neq", kPr));
  rules.push_back(R("ext.inv-lt", "converse of lt", "inv(lt)", "gt", kPr));
  rules.push_back(R("ext.inv-leq", "converse of leq",
                    "inv(leq)", "geq", kPr));
  rules.push_back(R("ext.inv-geq", "converse of geq",
                    "inv(geq)", "leq", kPr));
  rules.push_back(R("ext.inv-and", "converse distributes over and",
                    "inv(?p & ?q)", "inv(?p) & inv(?q)", kPr));
  rules.push_back(R("ext.inv-or", "converse distributes over or",
                    "inv(?p | ?q)", "inv(?p) | inv(?q)", kPr));
  rules.push_back(R("ext.inv-swap", "converse swaps a pair former",
                    "inv(?p) @ (?f, ?g)", "?p @ (?g, ?f)", kPr));
  rules.push_back(R("ext.inv-product", "converse pushes through a product",
                    "inv(?p @ (?f x ?g))", "inv(?p) @ (?g x ?f)", kPr));
  rules.push_back(R("ext.not-gt", "complement of gt over a total order",
                    "not(gt)", "leq", kPr));
  rules.push_back(R("ext.not-lt", "complement of lt", "not(lt)", "geq",
                    kPr));
  rules.push_back(R("ext.not-leq", "complement of leq", "not(leq)", "gt",
                    kPr));
  rules.push_back(R("ext.not-geq", "complement of geq", "not(geq)", "lt",
                    kPr));
  rules.push_back(R("ext.not-eq", "complement of eq", "not(eq)", "neq",
                    kPr));

  // --- Conditional laws ---
  rules.push_back(R("ext.con-true", "conditional on true",
                    "con(Kp(T), ?f, ?g)", "?f", kFn));
  rules.push_back(R("ext.con-false", "conditional on false",
                    "con(Kp(F), ?f, ?g)", "?g", kFn));
  rules.push_back(R("ext.con-same", "conditional with equal branches",
                    "con(?p, ?f, ?f)", "?f", kFn));
  rules.push_back(R("ext.con-postcompose",
                    "compose distributes into a conditional",
                    "?h o con(?p, ?f, ?g)",
                    "con(?p, ?h o ?f, ?h o ?g)", kFn));

  // --- Iterate and set-operator laws ---
  rules.push_back(R("ext.iterate-false", "empty selection",
                    "iterate(Kp(F), ?f)", "Kf({})", kFn));
  rules.push_back(R("ext.iterate-empty", "iterate over the empty set",
                    "iterate(?p, ?f) o Kf({})", "Kf({})", kFn));
  rules.push_back(R("ext.union-comm", "union commutes",
                    "union ! [?x, ?y]", "union ! [?y, ?x]", kOb));
  rules.push_back(R("ext.intersect-comm", "intersection commutes",
                    "intersect ! [?x, ?y]", "intersect ! [?y, ?x]", kOb));
  rules.push_back(R("ext.union-idem", "union idempotence",
                    "union ! [?x, ?x]", "?x", kOb));
  rules.push_back(R("ext.intersect-idem", "intersection idempotence",
                    "intersect ! [?x, ?x]", "?x", kOb));
  rules.push_back(R("ext.union-assoc", "union associates",
                    "union ! [union ! [?x, ?y], ?z]",
                    "union ! [?x, union ! [?y, ?z]]", kOb));
  rules.push_back(R(
      "ext.intersect-distrib", "intersection distributes over union",
      "intersect ! [?x, union ! [?y, ?z]]",
      "union ! [intersect ! [?x, ?y], intersect ! [?x, ?z]]", kOb));
  rules.push_back(R("ext.flat-union", "flatten distributes over union",
                    "flat ! (union ! [?x, ?y])",
                    "union ! [flat ! ?x, flat ! ?y]", kOb));
  rules.push_back(R("ext.iterate-union",
                    "selection/projection distributes over union",
                    "iterate(?p, ?f) ! (union ! [?x, ?y])",
                    "union ! [iterate(?p, ?f) ! ?x, iterate(?p, ?f) ! ?y]",
                    kOb));

  // --- Join laws (Section 5's predicate-sorting discussion) ---
  rules.push_back(R("ext.join-commute", "commute a join",
                    "join(?p, ?f)",
                    "join(inv(?p), ?f o (pi2, pi1)) o (pi2, pi1)", kFn));
  rules.push_back(R(
      "ext.select-past-join-left",
      "push a first-component selection below the join",
      "join(?q & ?p @ pi1, ?f)",
      "join(?q, ?f) o (iterate(?p, id) x id)", kFn));
  rules.push_back(R(
      "ext.select-past-join-right",
      "push a second-component selection below the join",
      "join(?q & ?p @ pi2, ?f)",
      "join(?q, ?f) o (id x iterate(?p, id))", kFn));

  // --- Set-monad and loop-motion laws ---
  rules.push_back(R("ext.flat-flat", "flatten associativity (monad law)",
                    "flat o flat", "flat o iterate(Kp(T), flat)", kFn));
  rules.push_back(R("ext.map-past-flat", "map distributes over flatten",
                    "iterate(?p, ?f) o flat",
                    "flat o iterate(Kp(T), iterate(?p, ?f))", kFn));
  rules.push_back(R("ext.map-past-union",
                    "map/filter distributes over union",
                    "iterate(?p, ?f) o union",
                    "union o (iterate(?p, ?f) x iterate(?p, ?f))", kFn));
  rules.push_back(R("ext.flat-empty", "flatten of nothing",
                    "flat o Kf({})", "Kf({})", kFn));
  rules.push_back(R("ext.unnest-map", "unnest absorbs a preceding map",
                    "unnest(?f, ?g) o iterate(Kp(T), ?h)",
                    "unnest(?f o ?h, ?g o ?h)", kFn));
  rules.push_back(R("ext.project-into-join",
                    "a projection after a join folds into it",
                    "iterate(Kp(T), ?f) o join(?p, ?g)",
                    "join(?p, ?f o ?g)", kFn));
  rules.push_back(R("ext.select-into-join",
                    "a selection after a join folds into its predicate",
                    "iterate(?p, id) o join(?q, ?g)",
                    "join(?q & ?p @ ?g, ?g)", kFn));
  rules.push_back(R("ext.map-into-join-inputs",
                    "maps on both join inputs fold into the join",
                    "join(?p, ?f) o (iterate(Kp(T), ?g) x "
                    "iterate(Kp(T), ?h))",
                    "join(?p @ (?g x ?h), ?f o (?g x ?h))", kFn));
  rules.push_back(R("ext.nest-keys",
                    "the paper's NULL-free nest preserves the key set",
                    "iterate(Kp(T), pi1) o nest(pi1, pi2)", "pi2", kFn));
  rules.push_back(R("ext.iter-trivial", "environment-blind iter is pi2",
                    "iter(Kp(T), pi2)", "pi2", kFn));

  // --- Currying expansions (definitional) ---
  rules.push_back(R("ext.curry-pred-expand", "Cp unfolds to a pair former",
                    "Cp(?p, ?k) @ ?f", "?p @ (Kf(?k), ?f)", kPr));
  rules.push_back(R("ext.curry-fn-expand", "Cf unfolds to a pair former",
                    "Cf(?f, ?k)", "?f o (Kf(?k), id)", kFn));
  rules.push_back(R("ext.con-flip", "conditional branch swap",
                    "con(?p, ?f, ?g)", "con(not(?p), ?g, ?f)", kFn));
  rules.push_back(R("ext.eq-refl", "equality is reflexive",
                    "eq @ (?f, ?f)", "Kp(T)", kPr));

  // --- The paper's Section 4.2 precondition example ---
  rules.push_back(RC(
      "ext.injective-intersect",
      "an injective map commutes with intersection",
      "intersect o (iterate(Kp(T), ?f) x iterate(Kp(T), ?f))",
      "iterate(Kp(T), ?f) o intersect", kFn,
      {{"injective", "?f"}}));
  // The count-bug connection: over SETS, a map changes cardinality unless
  // it is injective. (Over bags it never does -- see BagRules.)
  rules.push_back(RC("ext.card-map-injective",
                     "an injective map preserves set cardinality",
                     "card o iterate(Kp(T), ?f)", "card", kFn,
                     {{"injective", "?f"}}));
  return rules;
}

std::vector<Rule> BagRules() {
  // The Section 6 bag extension: iterate/flat/join are polymorphic over the
  // collection kind at run time; `distinct` deduplicates into a set,
  // `tobag` forgets set-ness, `card` counts with multiplicity. These rules
  // defer or cancel duplicate elimination. They involve run-time collection
  // polymorphism that the structural type system does not model, so they
  // are verified by dedicated property tests (bag_test.cc) instead of the
  // typed randomized verifier.
  std::vector<Rule> rules;
  rules.push_back(R("bag.distinct-idem", "deduplication is idempotent",
                    "distinct o distinct", "distinct", kFn));
  rules.push_back(R("bag.distinct-tobag", "dedup cancels a bag upcast",
                    "distinct o tobag", "distinct", kFn));
  rules.push_back(R("bag.card-tobag",
                    "bag upcast preserves cardinality",
                    "card o tobag", "card", kFn));
  rules.push_back(R("bag.card-map",
                    "a bag map always preserves cardinality (contrast with "
                    "ext.card-map-injective)",
                    "card o iterate(Kp(T), ?f) o tobag", "card", kFn));
  rules.push_back(R("bag.defer-dedup-map",
                    "duplicate elimination defers past a map",
                    "distinct o iterate(?p, ?f) o distinct",
                    "distinct o iterate(?p, ?f)", kFn));
  rules.push_back(R("bag.defer-dedup-flat",
                    "duplicate elimination defers past a flatten",
                    "distinct o flat o iterate(Kp(T), distinct)",
                    "distinct o flat", kFn));
  rules.push_back(R("bag.eager-dedup",
                    "a set-level map is a bag map plus one final dedup",
                    "iterate(?p, ?f) o distinct",
                    "distinct o iterate(?p, ?f)", kFn));
  // Chain-tail readings for right-associated composition chains (the same
  // device as rules 17b/22b).
  rules.push_back(R("bag.eager-dedup-chain",
                    "eager-dedup, mid-chain",
                    "iterate(?p, ?f) o distinct o ?g",
                    "distinct o iterate(?p, ?f) o ?g", kFn));
  rules.push_back(R("bag.distinct-idem-chain",
                    "dedup idempotence, mid-chain",
                    "distinct o distinct o ?g", "distinct o ?g", kFn));
  return rules;
}

std::vector<Rule> AllCatalogRules() {
  std::vector<Rule> rules = PaperRules();
  for (Rule& rule : NormalizationRules()) rules.push_back(std::move(rule));
  for (Rule& rule : ExtendedRules()) rules.push_back(std::move(rule));
  return rules;
}

Catalog::Catalog()
    : rules_(AllCatalogRules()), fingerprint_(RuleSetFingerprint(rules_)) {
  for (const Rule& rule : rules_) by_id_.emplace(rule.id, &rule);
  auto module = ParseCoko(std::string(kHiddenJoinCoko) + kPhaseCoko, rules_);
  KOLA_CHECK_OK(module.status());
  module_ = std::move(module).value();
  for (const RuleBlock& block : module_.blocks) {
    blocks_.emplace(block.name(), &block);
  }
}

const Catalog& Catalog::Get() {
  static const Catalog* catalog = new Catalog();
  return *catalog;
}

const Rule* Catalog::Find(std::string_view id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

const RuleBlock& Catalog::Block(std::string_view name) const {
  auto it = blocks_.find(name);
  KOLA_CHECK(it != blocks_.end());
  return *it->second;
}

const CompiledRuleSet& Catalog::RuleSet(std::string_view name) const {
  const CompiledRuleSet* rules = Block(name).strategy()->rules();
  KOLA_CHECK(rules != nullptr);
  return *rules;
}

RuleBlock CnfBlock() {
  return RuleBlock("convert predicates to CNF",
                   Catalog::Get().Block("cnf").strategy());
}

RuleBlock PushSelectsPastJoinsBlock() {
  return RuleBlock("push selects past joins",
                   Catalog::Get().Block("push-selects").strategy());
}

RuleBlock SimplifyBlock() { return Catalog::Get().Block("simplify"); }

StatusOr<const Rule*> TryFindRule(const std::vector<Rule>& rules,
                                  const std::string& id) {
  for (const Rule& rule : rules) {
    if (rule.id == id) return &rule;
  }
  return NotFoundError("no rule with id '" + id + "' in a catalog of " +
                       std::to_string(rules.size()) + " rules");
}

const Rule& FindRule(const std::vector<Rule>& rules, const std::string& id) {
  auto found = TryFindRule(rules, id);
  KOLA_CHECK_OK(found.status());
  return *found.value();
}

}  // namespace kola

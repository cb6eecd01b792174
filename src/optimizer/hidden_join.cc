#include "optimizer/hidden_join.h"

#include "common/macros.h"
#include "rules/catalog.h"
#include "term/parser.h"

namespace kola {

namespace {

TermPtr MustParse(const std::string& text, Sort sort) {
  auto term = ParseTerm(text, sort);
  KOLA_CHECK_OK(term.status());
  return std::move(term).value();
}

}  // namespace

StatusOr<HiddenJoinResult> UntangleHiddenJoin(const TermPtr& query,
                                              const Rewriter& rewriter) {
  HiddenJoinResult result;
  result.query = query;
  result.trace.initial = query;
  for (const char* name : {"prep", "break-up", "bottom-out", "pull-up-nest",
                           "pull-up-unnest", "absorb-join", "polish"}) {
    const RuleBlock& block = Catalog::Get().Block(name);
    KOLA_ASSIGN_OR_RETURN(StrategyResult block_result,
                          block.Apply(result.query, rewriter, &result.trace));
    result.query = block_result.term;
    if (block_result.changed) result.blocks_fired.push_back(block.name());
  }
  for (const RewriteStep& step : result.trace.steps) {
    if (step.rule_id == "19") {
      result.converted = true;
      break;
    }
  }
  return result;
}

StatusOr<TermPtr> MakeHiddenJoinQuery(int depth) {
  if (depth < 1) return InvalidArgumentError("depth must be >= 1");
  // Innermost: Kf(P). Levels are built outward; odd levels filter on the
  // environment person's age, even levels flatten children sets.
  TermPtr body = ConstFn(Collection("P"));
  for (int level = depth; level >= 1; --level) {
    TermPtr inner_pair = PairFn(Id(), std::move(body));
    if (level % 2 == 0) {
      // flat o iter(Kp(T), child o pi2) o (id, body): maps each person of
      // the running set to its children and flattens.
      body = ComposeChain(
          {Flat(),
           Iter(ConstPredTrue(), Compose(PrimFn("child"), Pi2())),
           std::move(inner_pair)});
    } else {
      // iter(gt @ (age o pi1, age o pi2), pi2) o (id, body): keeps the
      // persons younger than the environment person.
      TermPtr pred = Oplus(
          GtP(), PairFn(Compose(PrimFn("age"), Pi1()),
                        Compose(PrimFn("age"), Pi2())));
      body = Compose(Iter(std::move(pred), Pi2()), std::move(inner_pair));
    }
  }
  return Apply(Iterate(ConstPredTrue(), PairFn(Id(), std::move(body))),
               Collection("P"));
}

TermPtr GarageQueryKG1() {
  return MustParse(
      "iterate(Kp(T), (id, flat o iter(Kp(T), grgs o pi2) o (id, "
      "iter(in @ (pi1, cars o pi2), pi2) o (id, Kf(P))))) ! V",
      Sort::kObject);
}

TermPtr GarageQueryKG2() {
  return MustParse(
      "nest(pi1, pi2) o (unnest(pi1, pi2) x id) o "
      "(join(in @ (id x cars), id x grgs), pi1) ! [V, P]",
      Sort::kObject);
}

}  // namespace kola

// End-to-end integration sweep: every query in a broad OQL/AQUA corpus is
// parsed, translated, pushed through the full optimizer, and executed; the
// optimized plan must (a) evaluate identically to the direct AQUA
// interpretation, (b) never be costlier than the input by the model, and
// (c) never take more evaluator steps than the unoptimized KOLA form.

#include <gtest/gtest.h>

#include "aqua/eval.h"
#include "aqua/parser.h"
#include "e2e_corpus.h"
#include "eval/evaluator.h"
#include "oql/oql.h"
#include "optimizer/optimizer.h"
#include "translate/translate.h"
#include "values/car_world.h"

namespace kola {
namespace {

class E2eTest : public ::testing::TestWithParam<E2eWorkload> {
 protected:
  E2eTest() {
    CarWorldOptions options;
    options.num_persons = 25;
    options.num_vehicles = 15;
    options.num_addresses = 10;
    options.seed = 404;
    db_ = BuildCarWorld(options);
    properties_ = PropertyStore::Default();
  }

  std::unique_ptr<Database> db_;
  PropertyStore properties_;
};

TEST_P(E2eTest, OptimizedPlanIsEquivalentAndNoWorse) {
  const E2eWorkload& workload = GetParam();

  auto aqua_query = workload.is_oql ? oql::ParseOql(workload.text)
                                    : aqua::ParseAqua(workload.text);
  ASSERT_TRUE(aqua_query.ok()) << aqua_query.status();

  Translator translator;
  auto kola_query = translator.TranslateQuery(aqua_query.value());
  ASSERT_TRUE(kola_query.ok()) << kola_query.status();

  Optimizer optimizer(&properties_, db_.get());
  auto plan = optimizer.Optimize(kola_query.value());
  ASSERT_TRUE(plan.ok()) << plan.status();

  // (a) Semantics: three-way agreement.
  aqua::AquaEvaluator reference(db_.get());
  auto expected = reference.EvalQuery(aqua_query.value());
  ASSERT_TRUE(expected.ok()) << expected.status();
  auto unoptimized = EvalQuery(*db_, kola_query.value());
  ASSERT_TRUE(unoptimized.ok()) << unoptimized.status();
  EXPECT_EQ(expected.value(), unoptimized.value());
  auto optimized = EvalQuery(*db_, plan->query);
  ASSERT_TRUE(optimized.ok())
      << optimized.status() << "\n" << plan->query->ToString();
  EXPECT_EQ(expected.value(), optimized.value())
      << plan->query->ToString();

  // (b) The chosen plan is never costlier by the model's own ranking.
  if (plan->kept_rewrite) {
    EXPECT_LE(plan->cost_after, plan->cost_before + 1e-9);
  }

  // (c) Evaluator steps stay in the same ballpark as the unoptimized
  // form. This is deliberately loose (1.5x): the model is heuristic and
  // cannot see everything -- e.g. fusing `map city . map addr` into one
  // pass loses the inter-stage deduplication that shrank the second pass
  // (25 persons -> <=10 distinct addresses), a genuine set-semantics
  // trade-off the paper's reversible rules leave to the cost model.
  Evaluator before(db_.get());
  ASSERT_TRUE(before.EvalObject(kola_query.value()).ok());
  Evaluator after(db_.get());
  ASSERT_TRUE(after.EvalObject(plan->query).ok());
  EXPECT_LE(after.steps(), before.steps() * 3 / 2 + 8)
      << "optimizer regressed " << workload.name << ": "
      << before.steps() << " -> " << after.steps() << "\n"
      << plan->query->ToString();
}

std::string WorkloadName(const ::testing::TestParamInfo<E2eWorkload>& info) {
  std::string name = info.param.name;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, E2eTest, ::testing::ValuesIn(kE2eWorkloads),
                         WorkloadName);

}  // namespace
}  // namespace kola

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "aqua/parser.h"
#include "e2e_corpus.h"
#include "eval/evaluator.h"
#include "oql/oql.h"
#include "optimizer/code_motion.h"
#include "optimizer/cost.h"
#include "optimizer/hidden_join.h"
#include "optimizer/optimizer.h"
#include "term/parser.h"
#include "translate/translate.h"
#include "values/car_world.h"

namespace kola {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() {
    CarWorldOptions options;
    options.num_persons = 16;
    options.num_vehicles = 10;
    options.num_addresses = 8;
    options.seed = 5;
    db_ = BuildCarWorld(options);
    properties_ = PropertyStore::Default();
  }

  Value Eval(const TermPtr& query) {
    auto value = EvalQuery(*db_, query);
    EXPECT_TRUE(value.ok()) << value.status();
    return value.ok() ? std::move(value).value() : Value::Null();
  }

  std::unique_ptr<Database> db_;
  PropertyStore properties_;
  Rewriter rewriter_;
};

TEST_F(OptimizerTest, CodeMotionTransformsK4) {
  auto result = ApplyCodeMotion(QueryK4(), rewriter_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->moved);
  TermPtr expected = ParseTerm(
      "iterate(Kp(T), (id, con(Cp(lt, 25) @ age, child, Kf({})))) ! P",
      Sort::kObject).value();
  EXPECT_TRUE(Term::Equal(result->query, expected))
      << result->query->ToString();
}

TEST_F(OptimizerTest, CodeMotionLeavesK3Alone) {
  auto result = ApplyCodeMotion(QueryK3(), rewriter_);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->moved);
  // K3's predicate still got decomposed (simplification), but no iter was
  // turned into a conditional: an iter remains.
  std::function<bool(const TermPtr&)> has_iter =
      [&](const TermPtr& t) -> bool {
    if (t->kind() == TermKind::kIter) return true;
    for (const TermPtr& c : t->children()) {
      if (has_iter(c)) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_iter(result->query));
}

TEST_F(OptimizerTest, CodeMotionPreservesSemantics) {
  for (const TermPtr& q : {QueryK3(), QueryK4()}) {
    auto result = ApplyCodeMotion(q, rewriter_);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(Eval(q), Eval(result->query)) << q->ToString();
  }
}

TEST_F(OptimizerTest, K3AndK4DifferOnlyInProjection) {
  // The paper's structural point: the two queries differ in exactly one
  // leaf (pi1 vs pi2) -- no environment analysis needed to tell them apart.
  EXPECT_EQ(QueryK3()->node_count(), QueryK4()->node_count());
  EXPECT_FALSE(Term::Equal(QueryK3(), QueryK4()));
}

TEST_F(OptimizerTest, EndToEndOptimizeGarageQuery) {
  Optimizer optimizer(&properties_, db_.get());
  auto result = optimizer.Optimize(GarageQueryKG1());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(Term::Equal(result->rewritten, GarageQueryKG2()))
      << result->rewritten->ToString();
  EXPECT_TRUE(result->kept_rewrite);
  EXPECT_LT(result->cost_after, result->cost_before);
  EXPECT_EQ(Eval(result->query), Eval(GarageQueryKG1()));
  EXPECT_FALSE(result->applied_blocks.empty());
}

TEST_F(OptimizerTest, EndToEndOptimizeK4) {
  Optimizer optimizer(&properties_, db_.get());
  auto result = optimizer.Optimize(QueryK4());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Eval(result->query), Eval(QueryK4()));
  // Code motion fired.
  bool code_motion = false;
  for (const std::string& name : result->applied_blocks) {
    if (name == "code-motion") code_motion = true;
  }
  EXPECT_TRUE(code_motion);
}

TEST_F(OptimizerTest, OptimizeIsIdempotentOnOptimizedForm) {
  Optimizer optimizer(&properties_, db_.get());
  auto once = optimizer.Optimize(GarageQueryKG1());
  ASSERT_TRUE(once.ok());
  auto twice = optimizer.Optimize(once->query);
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(Eval(twice->query), Eval(GarageQueryKG1()));
}

TEST_F(OptimizerTest, CostModelPrefersUntangledGarageQuery) {
  CostModel model(db_.get());
  auto kg1 = model.EstimateQueryCost(GarageQueryKG1());
  auto kg2 = model.EstimateQueryCost(GarageQueryKG2());
  ASSERT_TRUE(kg1.ok()) << kg1.status();
  ASSERT_TRUE(kg2.ok()) << kg2.status();
  EXPECT_LT(kg2.value(), kg1.value());
}

TEST_F(OptimizerTest, CostModelWithoutFastpathsPrefersNeither) {
  // Under pure nested-loop costing the untangled form is not cheaper --
  // the transformation pays off because of physical join/nest algorithms,
  // exactly the paper's Section 4.1 argument.
  CostParams params;
  params.assume_physical_fastpaths = false;
  CostModel model(db_.get(), params);
  auto kg1 = model.EstimateQueryCost(GarageQueryKG1());
  auto kg2 = model.EstimateQueryCost(GarageQueryKG2());
  ASSERT_TRUE(kg1.ok() && kg2.ok());
  EXPECT_GE(kg2.value(), kg1.value() * 0.5);
}

TEST_F(OptimizerTest, CostModelSelectivityComposition) {
  CostModel model(db_.get());
  TermPtr all = ParseTerm("iterate(Kp(T), id) ! P", Sort::kObject).value();
  TermPtr none = ParseTerm("iterate(Kp(F), id) ! P", Sort::kObject).value();
  auto cost_all = model.EstimateQueryCost(all);
  auto cost_none = model.EstimateQueryCost(none);
  ASSERT_TRUE(cost_all.ok() && cost_none.ok());
  // Kp(F) filters everything: downstream cost vanishes, so it's cheaper.
  EXPECT_LE(cost_none.value(), cost_all.value());
}

TEST_F(OptimizerTest, CostModelErrorsOnNonObjectTerms) {
  CostModel model(db_.get());
  TermPtr fn = ParseTerm("age", Sort::kFunction).value();
  EXPECT_FALSE(model.EstimateQueryCost(fn).ok());
}

TEST_F(OptimizerTest, FastPathsMatchNaiveSemantics) {
  // Property check: hash join/nest produce bit-identical results to the
  // naive nested-loop evaluator on the KG2 pipeline and on eq-joins.
  std::vector<const char*> queries = {
      "nest(pi1, pi2) o (unnest(pi1, pi2) x id) o "
      "(join(in @ (id x cars), id x grgs), pi1) ! [V, P]",
      "join(eq @ (age x age), (pi1, pi2)) ! [P, P]",
      "join(in @ (id x child), pi2) ! [P, P]",
      "nest(pi1, pi2) ! [join(Kp(T), id) ! [Nums, Nums], Nums]",
  };
  for (const char* text : queries) {
    auto query = ParseTerm(text, Sort::kObject);
    ASSERT_TRUE(query.ok()) << query.status();
    Evaluator fast(db_.get(), EvalOptions{.physical_fastpaths = true});
    Evaluator naive(db_.get(), EvalOptions{.physical_fastpaths = false});
    auto fast_result = fast.EvalObject(query.value());
    auto naive_result = naive.EvalObject(query.value());
    ASSERT_TRUE(fast_result.ok()) << fast_result.status();
    ASSERT_TRUE(naive_result.ok()) << naive_result.status();
    EXPECT_EQ(fast_result.value(), naive_result.value()) << text;
    EXPECT_GT(fast.fastpath_hits(), 0) << text;
    EXPECT_EQ(naive.fastpath_hits(), 0);
    // The fast path does strictly less predicate work.
    EXPECT_LT(fast.steps(), naive.steps()) << text;
  }
}

TEST_F(OptimizerTest, OptimizeAllMatchesPerQueryOptimize) {
  Optimizer optimizer(&properties_, db_.get());
  std::vector<TermPtr> queries = {
      GarageQueryKG1(), QueryK4(), QueryK3(),
      ParseTerm("iterate(Kp(T), age) ! P", Sort::kObject).value(),
      ParseTerm("join(eq @ (age x age), (pi1, pi2)) ! [P, P]",
                Sort::kObject).value(),
      GarageQueryKG1(), QueryK4(),  // repeats must not change a plan
  };

  std::vector<OptimizeResult> expected;
  for (const TermPtr& query : queries) {
    auto one = optimizer.Optimize(query);
    ASSERT_TRUE(one.ok()) << one.status();
    expected.push_back(std::move(one).value());
  }

  for (int jobs : {1, 3}) {
    std::vector<BatchOptimizeResult> batch = optimizer.OptimizeAll(queries, jobs);
    ASSERT_EQ(batch.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(batch[i].ok()) << batch[i].status;
      const OptimizeResult& got = *batch[i].result;
      // Input order preserved, and every field identical to the serial
      // per-query result -- the jobs knob must never change a plan.
      EXPECT_TRUE(Term::Equal(got.query, expected[i].query))
          << "jobs=" << jobs << " i=" << i;
      EXPECT_EQ(got.query->ToString(), expected[i].query->ToString());
      EXPECT_EQ(got.cost_before, expected[i].cost_before);
      EXPECT_EQ(got.cost_after, expected[i].cost_after);
      EXPECT_EQ(got.kept_rewrite, expected[i].kept_rewrite);
      EXPECT_EQ(got.applied_blocks, expected[i].applied_blocks);
      EXPECT_FALSE(got.degradation.degraded);
      EXPECT_EQ(got.trace.RuleIds(), expected[i].trace.RuleIds())
          << "jobs=" << jobs << " i=" << i;
    }
  }
}

/// Everything an optimization result reports, rendered exactly: the plan,
/// the candidate, every trace step, the blocks, and the costs as hex floats.
std::string ResultBytes(const OptimizeResult& result) {
  std::string out = result.query->ToString() + "\n" +
                    result.rewritten->ToString() + "\n" +
                    result.trace.ToString();
  for (const std::string& id : result.trace.RuleIds()) out += id + " ";
  out += "\n";
  for (const std::string& block : result.applied_blocks) out += block + " ";
  char costs[96];
  std::snprintf(costs, sizeof(costs), "\n%a %a %d %s", result.cost_before,
                result.cost_after, result.kept_rewrite ? 1 : 0,
                result.degradation.ToString().c_str());
  return out + costs;
}

TEST_F(OptimizerTest, SharedOptimizerMatchesSequentialRunAcrossThreads) {
  // The Optimizer holds no per-query state, so threads may share one
  // instance: the e2e corpus plus hidden joins of depth 2-6, optimized by
  // four threads at once, must reproduce the sequential results byte for
  // byte.
  std::vector<TermPtr> queries;
  Translator translator;
  for (const E2eWorkload& workload : kE2eWorkloads) {
    auto aqua_query = workload.is_oql ? oql::ParseOql(workload.text)
                                      : aqua::ParseAqua(workload.text);
    ASSERT_TRUE(aqua_query.ok()) << workload.name << ": "
                                 << aqua_query.status();
    auto kola_query = translator.TranslateQuery(aqua_query.value());
    ASSERT_TRUE(kola_query.ok()) << workload.name << ": "
                                 << kola_query.status();
    queries.push_back(kola_query.value());
  }
  for (int depth = 2; depth <= 6; ++depth) {
    auto hidden_join = MakeHiddenJoinQuery(depth);
    ASSERT_TRUE(hidden_join.ok()) << hidden_join.status();
    queries.push_back(hidden_join.value());
  }

  Optimizer optimizer(&properties_, db_.get());
  std::vector<std::string> expected;
  for (const TermPtr& query : queries) {
    auto result = optimizer.Optimize(query);
    ASSERT_TRUE(result.ok()) << result.status();
    expected.push_back(ResultBytes(*result));
  }

  constexpr size_t kThreads = 4;
  std::vector<std::vector<std::string>> got(
      kThreads, std::vector<std::string>(queries.size()));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different query, so the threads are
      // optimizing different shapes at the same moment.
      for (size_t k = 0; k < queries.size(); ++k) {
        size_t i = (k + t * queries.size() / kThreads) % queries.size();
        auto result = optimizer.Optimize(queries[i]);
        got[t][i] = result.ok() ? ResultBytes(*result)
                                : result.status().ToString();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[t][i], expected[i]) << "thread " << t << " query " << i;
    }
  }
}

TEST_F(OptimizerTest, OptimizeAllEmptyBatch) {
  Optimizer optimizer(&properties_, db_.get());
  std::vector<BatchOptimizeResult> batch = optimizer.OptimizeAll({}, 4);
  EXPECT_TRUE(batch.empty());
}

TEST_F(OptimizerTest, FastPathIgnoresUnrecognizedShapes) {
  // gt-join has no hash implementation: both modes take the naive path.
  auto query = ParseTerm("join(gt, pi1) ! [Nums, Nums]", Sort::kObject);
  ASSERT_TRUE(query.ok());
  Evaluator fast(db_.get(), EvalOptions{.physical_fastpaths = true});
  auto result = fast.EvalObject(query.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(fast.fastpath_hits(), 0);
}

}  // namespace
}  // namespace kola

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "eval/evaluator.h"
#include "term/parser.h"
#include "term/term.h"
#include "values/car_world.h"
#include "values/database.h"

namespace kola {
namespace {

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CarWorldOptions options;
    options.num_persons = 12;
    options.num_addresses = 6;
    options.num_vehicles = 8;
    options.seed = 7;
    db_ = BuildCarWorld(options);
  }

  Value Eval(const std::string& text) {
    auto term = ParseQuery(text);
    EXPECT_TRUE(term.ok()) << term.status();
    auto value = EvalQuery(*db_, term.value());
    EXPECT_TRUE(value.ok()) << value.status();
    return value.ok() ? std::move(value).value() : Value::Null();
  }

  Status EvalError(const std::string& text) {
    auto term = ParseQuery(text);
    EXPECT_TRUE(term.ok()) << term.status();
    auto value = EvalQuery(*db_, term.value());
    EXPECT_FALSE(value.ok()) << "unexpectedly evaluated to "
                             << value.value_or(Value::Null());
    return value.ok() ? Status::OK() : value.status();
  }

  std::unique_ptr<Database> db_;
};

TEST_F(EvaluatorTest, IdIsIdentity) {
  EXPECT_EQ(Eval("id ! 5"), Value::Int(5));
  EXPECT_EQ(Eval("id ! [1, 2]"),
            Value::MakePair(Value::Int(1), Value::Int(2)));
}

TEST_F(EvaluatorTest, Projections) {
  EXPECT_EQ(Eval("pi1 ! [1, 2]"), Value::Int(1));
  EXPECT_EQ(Eval("pi2 ! [1, 2]"), Value::Int(2));
  EXPECT_EQ(EvalError("pi1 ! 5").code(), StatusCode::kTypeError);
}

TEST_F(EvaluatorTest, ComparisonPredicates) {
  EXPECT_EQ(Eval("gt ? [3, 2]"), Value::Bool(true));
  EXPECT_EQ(Eval("gt ? [2, 3]"), Value::Bool(false));
  EXPECT_EQ(Eval("leq ? [2, 2]"), Value::Bool(true));
  EXPECT_EQ(Eval("lt ? [2, 2]"), Value::Bool(false));
  EXPECT_EQ(Eval("geq ? [2, 2]"), Value::Bool(true));
  EXPECT_EQ(Eval("eq ? [2, 2]"), Value::Bool(true));
  EXPECT_EQ(Eval("eq ? [2, 3]"), Value::Bool(false));
  EXPECT_EQ(Eval("neq ? [2, 3]"), Value::Bool(true));
  EXPECT_EQ(Eval("eq ? [\"a\", \"a\"]"), Value::Bool(true));
  EXPECT_EQ(Eval("lt ? [\"a\", \"b\"]"), Value::Bool(true));
}

TEST_F(EvaluatorTest, OrderingAcrossKindsIsTypeError) {
  EXPECT_EQ(EvalError("gt ? [1, \"a\"]").code(), StatusCode::kTypeError);
  EXPECT_EQ(EvalError("lt ? [{1}, {2}]").code(), StatusCode::kTypeError);
}

TEST_F(EvaluatorTest, Membership) {
  EXPECT_EQ(Eval("in ? [2, {1, 2, 3}]"), Value::Bool(true));
  EXPECT_EQ(Eval("in ? [4, {1, 2, 3}]"), Value::Bool(false));
  EXPECT_EQ(EvalError("in ? [1, 2]").code(), StatusCode::kTypeError);
}

TEST_F(EvaluatorTest, Flat) {
  // flat needs literal set-of-sets syntax: {{...}} is parsed as a value.
  EXPECT_EQ(Eval("flat ! {{1, 2}, {2, 3}}"),
            Value::MakeSet({Value::Int(1), Value::Int(2), Value::Int(3)}));
  EXPECT_EQ(Eval("flat ! {}"), Value::EmptySet());
  EXPECT_EQ(EvalError("flat ! {1, 2}").code(), StatusCode::kTypeError);
}

TEST_F(EvaluatorTest, ComposeAppliesRightFirst) {
  EXPECT_EQ(Eval("pi1 o pi2 ! [1, [2, 3]]"), Value::Int(2));
}

TEST_F(EvaluatorTest, PairAndProductFormers) {
  EXPECT_EQ(Eval("(pi2, pi1) ! [1, 2]"),
            Value::MakePair(Value::Int(2), Value::Int(1)));
  EXPECT_EQ(Eval("(pi1 x pi2) ! [[1, 2], [3, 4]]"),
            Value::MakePair(Value::Int(1), Value::Int(4)));
  EXPECT_EQ(EvalError("(id x id) ! 5").code(), StatusCode::kTypeError);
}

TEST_F(EvaluatorTest, ConstAndCurryFormers) {
  EXPECT_EQ(Eval("Kf(9) ! 1"), Value::Int(9));
  EXPECT_EQ(Eval("Kf({1, 2}) ! \"ignored\""),
            Value::MakeSet({Value::Int(1), Value::Int(2)}));
  // Cf(f, x) ! y = f ! [x, y]
  EXPECT_EQ(Eval("Cf(pi1, 7) ! 8"), Value::Int(7));
  EXPECT_EQ(Eval("Cf(pi2, 7) ! 8"), Value::Int(8));
  // Cp(p, x) ? y = p ? [x, y]
  EXPECT_EQ(Eval("Cp(leq, 25) ? 30"), Value::Bool(true));
  EXPECT_EQ(Eval("Cp(leq, 25) ? 20"), Value::Bool(false));
}

TEST_F(EvaluatorTest, Conditional) {
  EXPECT_EQ(Eval("con(Cp(leq, 3), Kf(1), Kf(0)) ! 5"), Value::Int(1));
  EXPECT_EQ(Eval("con(Cp(leq, 3), Kf(1), Kf(0)) ! 2"), Value::Int(0));
}

TEST_F(EvaluatorTest, PredicateFormers) {
  EXPECT_EQ(Eval("Kp(T) ? 1"), Value::Bool(true));
  EXPECT_EQ(Eval("Kp(F) ? 1"), Value::Bool(false));
  // Cp(leq, 2) ? y tests 2 <= y.
  EXPECT_EQ(Eval("(Cp(leq, 2) & Cp(geq, 10)) ? 3"), Value::Bool(true));
  EXPECT_EQ(Eval("(Cp(leq, 2) & Cp(leq, 10)) ? 5"), Value::Bool(false));
  EXPECT_EQ(Eval("(Cp(leq, 2) | Cp(leq, 10)) ? 5"), Value::Bool(true));
  EXPECT_EQ(Eval("not(Kp(T)) ? 1"), Value::Bool(false));
  // inv(p) ? [x, y] = p ? [y, x] (the converse). Hence inv(gt) == lt --
  // the corrected form of the paper's rule 7; see DESIGN.md.
  EXPECT_EQ(Eval("inv(gt) ? [2, 2]"), Value::Bool(false));
  EXPECT_EQ(Eval("lt ? [2, 2]"), Value::Bool(false));
  EXPECT_EQ(Eval("inv(gt) ? [2, 3]"), Value::Bool(true));
  EXPECT_EQ(Eval("inv(gt) ? [3, 2]"), Value::Bool(false));
  // The complement reading: not(gt) == leq over a total order.
  EXPECT_EQ(Eval("not(gt) ? [2, 2]"), Value::Bool(true));
  EXPECT_EQ(Eval("leq ? [2, 2]"), Value::Bool(true));
}

TEST_F(EvaluatorTest, OplusCombinesPredicateAndFunction) {
  EXPECT_EQ(Eval("(Cp(leq, 25) @ pi1) ? [30, 1]"), Value::Bool(true));
  EXPECT_EQ(Eval("(Cp(leq, 25) @ pi1) ? [20, 1]"), Value::Bool(false));
}

TEST_F(EvaluatorTest, ShortCircuitAvoidsErrors) {
  // The right conjunct would be a type error (pi1 of an int), but the left
  // conjunct is false so it is never evaluated.
  EXPECT_EQ(Eval("(Kp(F) & eq @ pi1) ? 3"), Value::Bool(false));
  EXPECT_EQ(Eval("(Kp(T) | eq @ pi1) ? 3"), Value::Bool(true));
}

TEST_F(EvaluatorTest, IterateFiltersAndMaps) {
  EXPECT_EQ(Eval("iterate(Cp(leq, 3), id) ! {1, 2, 3, 4, 5}"),
            Value::MakeSet({Value::Int(3), Value::Int(4), Value::Int(5)}));
  EXPECT_EQ(Eval("iterate(Kp(T), Kf(0)) ! {1, 2, 3}"),
            Value::MakeSet({Value::Int(0)}));
  EXPECT_EQ(Eval("iterate(Kp(F), id) ! {1, 2}"), Value::EmptySet());
  EXPECT_EQ(EvalError("iterate(Kp(T), id) ! 5").code(),
            StatusCode::kTypeError);
}

TEST_F(EvaluatorTest, IterThreadsEnvironment) {
  // iter(p, f) ! [e, B] = { f![e,y] | y in B, p?[e,y] }
  EXPECT_EQ(Eval("iter(Kp(T), pi2) ! [9, {1, 2}]"),
            Value::MakeSet({Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(Eval("iter(Kp(T), pi1) ! [9, {1, 2}]"),
            Value::MakeSet({Value::Int(9)}));
  EXPECT_EQ(Eval("iter(gt, pi2) ! [2, {1, 2, 3}]"),
            Value::MakeSet({Value::Int(1)}));
}

TEST_F(EvaluatorTest, JoinIsCrossProductFilterMap) {
  EXPECT_EQ(Eval("join(Kp(T), id) ! [{1, 2}, {3}]"),
            Value::MakeSet({Value::MakePair(Value::Int(1), Value::Int(3)),
                            Value::MakePair(Value::Int(2), Value::Int(3))}));
  EXPECT_EQ(Eval("join(eq, pi1) ! [{1, 2}, {2, 3}]"),
            Value::MakeSet({Value::Int(2)}));
  EXPECT_EQ(Eval("join(Kp(T), id) ! [{}, {1}]"), Value::EmptySet());
}

TEST_F(EvaluatorTest, NestGroupsRelativeToSecondSet) {
  // nest(f,g) ! [A, B]: group A by key f relative to B; unmatched B
  // elements get the empty set (the paper's NULL-free outer-join analogue).
  Value result = Eval(
      "nest(pi1, pi2) ! [{[1, \"a\"], [1, \"b\"], [2, \"c\"]}, {1, 2, 3}]");
  Value expected = Value::MakeSet(
      {Value::MakePair(Value::Int(1), Value::MakeSet({Value::Str("a"),
                                                      Value::Str("b")})),
       Value::MakePair(Value::Int(2), Value::MakeSet({Value::Str("c")})),
       Value::MakePair(Value::Int(3), Value::EmptySet())});
  EXPECT_EQ(result, expected);
}

TEST_F(EvaluatorTest, UnnestFlattensSetValuedFunction) {
  Value result = Eval("unnest(pi1, pi2) ! {[1, {7, 8}], [2, {9}]}");
  Value expected = Value::MakeSet(
      {Value::MakePair(Value::Int(1), Value::Int(7)),
       Value::MakePair(Value::Int(1), Value::Int(8)),
       Value::MakePair(Value::Int(2), Value::Int(9))});
  EXPECT_EQ(result, expected);
  EXPECT_EQ(Eval("unnest(pi1, pi2) ! {}"), Value::EmptySet());
  EXPECT_EQ(EvalError("unnest(pi1, pi2) ! {[1, 2]}").code(),
            StatusCode::kTypeError);
}

TEST_F(EvaluatorTest, SchemaFunctionsResolveThroughDatabase) {
  Value ages = Eval("iterate(Kp(T), age) ! P");
  ASSERT_TRUE(ages.is_set());
  EXPECT_GT(ages.SetSize(), 0u);
  for (const Value& a : ages.elements()) EXPECT_TRUE(a.is_int());

  Value cities = Eval("iterate(Kp(T), city o addr) ! P");
  for (const Value& c : cities.elements()) EXPECT_TRUE(c.is_string());
}

TEST_F(EvaluatorTest, PaperReductionExample) {
  // Section 3: iterate(Kp(T), city o addr) ! P  ==  the cities inhabited by
  // people in P, which equals mapping addr then city in two passes.
  Value one_pass = Eval("iterate(Kp(T), city o addr) ! P");
  Value two_pass =
      Eval("iterate(Kp(T), city) ! (iterate(Kp(T), addr) ! P)");
  EXPECT_EQ(one_pass, two_pass);
}

TEST_F(EvaluatorTest, PaperT2BothSidesAgree) {
  // Figure 1 T2: ages of people older than 25.
  Value lhs = Eval("iterate(Kp(T), age) ! "
                   "(iterate(gt @ (age, Kf(25)), id) ! P)");
  Value rhs = Eval("iterate(Cp(lt, 25), id) ! "
                   "(iterate(Kp(T), age) ! P)");
  EXPECT_EQ(lhs, rhs);
}

TEST_F(EvaluatorTest, UnknownSchemaFunctionIsNotFound) {
  EXPECT_EQ(EvalError("iterate(Kp(T), salary) ! P").code(),
            StatusCode::kNotFound);
}

TEST_F(EvaluatorTest, UnknownExtentIsNotFound) {
  EXPECT_EQ(EvalError("iterate(Kp(T), id) ! Q").code(),
            StatusCode::kNotFound);
}

TEST_F(EvaluatorTest, MetaVarCannotBeEvaluated) {
  auto term = ParseTerm("?f ! P", Sort::kObject);
  ASSERT_TRUE(term.ok());
  auto result = EvalQuery(*db_, term.value());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(EvaluatorTest, StepBudgetIsEnforced) {
  Evaluator evaluator(db_.get(), EvalOptions{.max_steps = 10});
  auto term = ParseQuery("iterate(Kp(T), age) ! P");
  ASSERT_TRUE(term.ok());
  auto result = evaluator.EvalObject(term.value());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(EvaluatorTest, StepsAccumulate) {
  Evaluator evaluator(db_.get());
  auto term = ParseQuery("iterate(Kp(T), age) ! P");
  ASSERT_TRUE(term.ok());
  ASSERT_TRUE(evaluator.EvalObject(term.value()).ok());
  EXPECT_GT(evaluator.steps(), 0);
  evaluator.ResetSteps();
  EXPECT_EQ(evaluator.steps(), 0);
}

TEST_F(EvaluatorTest, GarageQueryKG1Evaluates) {
  // Figure 3 KG1: associate each vehicle with the addresses where it might
  // be located (garages of its owners).
  Value result = Eval(
      "iterate(Kp(T), (id, flat o iter(Kp(T), grgs o pi2) o (id, "
      "iter(in @ (pi1, cars o pi2), pi2) o (id, Kf(P))))) ! V");
  ASSERT_TRUE(result.is_set());
  Value vehicles = db_->Extent("V").value();
  EXPECT_EQ(result.SetSize(), vehicles.SetSize());
  // Cross-check one pair against a direct computation.
  for (const Value& pair : result.elements()) {
    ASSERT_TRUE(pair.is_pair());
    const Value& v = pair.first();
    const Value& garages = pair.second();
    ASSERT_TRUE(garages.is_set());
    std::vector<Value> expected;
    for (const Value& p : db_->Extent("P").value().elements()) {
      Value cars = db_->GetAttribute(p, "cars").value();
      if (!cars.SetContains(v)) continue;
      for (const Value& g : db_->GetAttribute(p, "grgs").value().elements()) {
        expected.push_back(g);
      }
    }
    EXPECT_EQ(garages, Value::MakeSet(expected));
  }
}

TEST_F(EvaluatorTest, GarageQueryKG2MatchesKG1) {
  // Figure 3: KG1 and KG2 are equivalent.
  Value kg1 = Eval(
      "iterate(Kp(T), (id, flat o iter(Kp(T), grgs o pi2) o (id, "
      "iter(in @ (pi1, cars o pi2), pi2) o (id, Kf(P))))) ! V");
  Value kg2 = Eval(
      "nest(pi1, pi2) o (unnest(pi1, pi2) x id) o "
      "(join(in @ (id x cars), id x grgs), pi1) ! [V, P]");
  EXPECT_EQ(kg1, kg2);
}

TEST_F(EvaluatorTest, SharedTermEvaluatesConcurrently) {
  // Several workers evaluate one freshly parsed term at once, so they race
  // to classify its primitive leaves (Term::prim_op). Every one must see
  // the result a separately parsed copy gives.
  const std::string text =
      "iterate(gt @ (age, Kf(30)), (name, card o child)) ! P";
  auto shared = ParseQuery(text);
  auto copy = ParseQuery(text);
  ASSERT_TRUE(shared.ok() && copy.ok());
  constexpr int kWorkers = 4;
  std::vector<StatusOr<Value>> results(kWorkers, Value::Null());
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      Evaluator evaluator(db_.get());
      results[w] = evaluator.EvalObject(shared.value());
    });
  }
  for (std::thread& worker : workers) worker.join();
  auto expected = EvalQuery(*db_, copy.value());
  ASSERT_TRUE(expected.ok()) << expected.status();
  for (const StatusOr<Value>& result : results) {
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result.value(), expected.value());
  }
}

}  // namespace
}  // namespace kola

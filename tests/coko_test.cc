#include <gtest/gtest.h>

#include "coko/parser.h"
#include "coko/strategy.h"
#include "eval/evaluator.h"
#include "optimizer/hidden_join.h"
#include "rules/catalog.h"
#include "term/parser.h"
#include "values/car_world.h"

namespace kola {
namespace {

class CokoTest : public ::testing::Test {
 protected:
  CokoTest() : catalog_(AllCatalogRules()) {}

  CokoModule MustParse(const char* text) {
    auto module = ParseCoko(text, catalog_);
    EXPECT_TRUE(module.ok()) << module.status();
    return module.ok() ? std::move(module).value() : CokoModule{};
  }

  TermPtr Q(const char* text, Sort sort = Sort::kFunction) {
    auto t = ParseTerm(text, sort);
    EXPECT_TRUE(t.ok()) << t.status();
    return t.value();
  }

  std::vector<Rule> catalog_;
  Rewriter rewriter_;
};

TEST_F(CokoTest, ParsesSimpleBlock) {
  CokoModule module = MustParse("block clean { exhaust 1, 2; }");
  ASSERT_EQ(module.blocks.size(), 1u);
  EXPECT_EQ(module.blocks[0].name(), "clean");
  auto result =
      module.blocks[0].Apply(Q("(id o age) o id"), rewriter_, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(Term::Equal(result->term, Q("age")));
}

TEST_F(CokoTest, ModifiersResolveVariants) {
  CokoModule module = MustParse(
      "block split { once 12~; }\n"
      "block unfold { exhaust norm.unfold; }");
  // 12~ is rule 12 right-to-left.
  TermPtr fused = Q("iterate(Cp(lt, 25) @ age, age)");
  auto result = module.Find("split")->Apply(fused, rewriter_, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->changed);
  EXPECT_TRUE(Term::Equal(result->term,
                          Q("iterate(Cp(lt, 25), id) o iterate(Kp(T), "
                            "age)")));
}

TEST_F(CokoTest, UseComposesBlocks) {
  CokoModule module = MustParse(
      "block a { exhaust 1; }\n"
      "block b { exhaust 2; }\n"
      "block both { use a; use b; }");
  auto result = module.Find("both")->Apply(Q("id o (age o id)"), rewriter_,
                                           nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(Term::Equal(result->term, Q("age")));
}

TEST_F(CokoTest, RepeatLoopsBody) {
  CokoModule module = MustParse("block r { repeat { once 1; } }");
  auto result = module.Find("r")->Apply(Q("((age o id) o id) o id"),
                                        rewriter_, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(Term::Equal(result->term, Q("age")));
}

TEST_F(CokoTest, CommentsAreIgnored) {
  CokoModule module = MustParse(
      "# leading comment\nblock c { exhaust 1; # trailing\n }");
  EXPECT_EQ(module.blocks.size(), 1u);
}

TEST_F(CokoTest, ErrorsAreDiagnosed) {
  EXPECT_FALSE(ParseCoko("", catalog_).ok());
  EXPECT_FALSE(ParseCoko("block x { }", catalog_).ok());
  EXPECT_FALSE(ParseCoko("block x { exhaust nosuchrule; }",
                         catalog_).ok());
  EXPECT_FALSE(ParseCoko("block x { exhaust 1 }", catalog_).ok());
  EXPECT_FALSE(ParseCoko("block x { use later; } block later { once 1; }",
                         catalog_).ok());
  EXPECT_FALSE(ParseCoko("blok x { once 1; }", catalog_).ok());
  // Apply-level modifier on a predicate rule is rejected at parse time.
  EXPECT_FALSE(ParseCoko("block x { once 3!; }", catalog_).ok());
}

TEST_F(CokoTest, HiddenJoinModuleMatchesCatalogPipeline) {
  // The module's composite "hidden-join" block (seven `use` steps) untangles
  // the garage query into KG2 and agrees with UntangleHiddenJoin, which runs
  // the Catalog's copies of the seven blocks one at a time.
  auto module = ParseCoko(kHiddenJoinCoko, catalog_);
  ASSERT_TRUE(module.ok()) << module.status();
  const RuleBlock* pipeline = module->Find("hidden-join");
  ASSERT_NE(pipeline, nullptr);

  {
    auto via_coko = pipeline->Apply(GarageQueryKG1(), rewriter_, nullptr);
    ASSERT_TRUE(via_coko.ok()) << via_coko.status();
    EXPECT_TRUE(Term::Equal(via_coko->term, GarageQueryKG2()))
        << via_coko->term->ToString();
  }
  for (int depth : {1, 3, 5}) {
    auto query = MakeHiddenJoinQuery(depth);
    ASSERT_TRUE(query.ok());
    auto via_coko = pipeline->Apply(query.value(), rewriter_, nullptr);
    ASSERT_TRUE(via_coko.ok());
    auto via_catalog = UntangleHiddenJoin(query.value(), rewriter_);
    ASSERT_TRUE(via_catalog.ok());
    EXPECT_TRUE(Term::Equal(via_coko->term, via_catalog->query))
        << "depth " << depth;
  }
}

TEST_F(CokoTest, CokoPipelinePreservesSemantics) {
  auto module = ParseCoko(kHiddenJoinCoko, catalog_);
  ASSERT_TRUE(module.ok());
  const RuleBlock* pipeline = module->Find("hidden-join");
  ASSERT_NE(pipeline, nullptr);

  CarWorldOptions options;
  options.num_persons = 10;
  options.num_vehicles = 6;
  options.num_addresses = 5;
  auto db = BuildCarWorld(options);

  auto rewritten = pipeline->Apply(GarageQueryKG1(), rewriter_, nullptr);
  ASSERT_TRUE(rewritten.ok());
  auto before = EvalQuery(*db, GarageQueryKG1());
  auto after = EvalQuery(*db, rewritten->term);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(before.value(), after.value());
}

}  // namespace
}  // namespace kola

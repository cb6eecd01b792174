#include <gtest/gtest.h>

#include "term/term.h"

namespace kola {
namespace {

TEST(TermTest, LeafSorts) {
  EXPECT_EQ(Id()->sort(), Sort::kFunction);
  EXPECT_EQ(GtP()->sort(), Sort::kPredicate);
  EXPECT_EQ(LitInt(5)->sort(), Sort::kObject);
  EXPECT_EQ(Collection("P")->sort(), Sort::kObject);
  EXPECT_EQ(BoolConst(true)->sort(), Sort::kBool);
}

TEST(TermTest, FormerSorts) {
  TermPtr f = Compose(PrimFn("city"), PrimFn("addr"));
  EXPECT_EQ(f->sort(), Sort::kFunction);
  EXPECT_EQ(f->kind(), TermKind::kCompose);

  TermPtr p = Oplus(GtP(), PairFn(PrimFn("age"), ConstFn(LitInt(25))));
  EXPECT_EQ(p->sort(), Sort::kPredicate);

  TermPtr q = Apply(Iterate(ConstPredTrue(), PrimFn("age")), Collection("P"));
  EXPECT_EQ(q->sort(), Sort::kObject);

  TermPtr b = TestPred(GtP(), PairObj(LitInt(3), LitInt(2)));
  EXPECT_EQ(b->sort(), Sort::kBool);
}

TEST(TermTest, MakeRejectsIllSortedChildren) {
  // Compose of a predicate is ill-sorted.
  auto bad = Term::Make(TermKind::kCompose, {GtP(), Id()});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(TermTest, MakeRejectsWrongArity) {
  auto bad = Term::Make(TermKind::kCompose, {Id()});
  EXPECT_FALSE(bad.ok());
  auto bad3 = Term::Make(TermKind::kCond, {ConstPredTrue(), Id()});
  EXPECT_FALSE(bad3.ok());
}

TEST(TermTest, MakeRejectsNamelessLeaves) {
  EXPECT_FALSE(Term::Make(TermKind::kPrimFn, {}).ok());
  EXPECT_FALSE(Term::Make(TermKind::kCollection, {}).ok());
  EXPECT_FALSE(Term::Make(TermKind::kMetaVar, {}).ok());
}

TEST(TermTest, BoolIsSubsortOfObject) {
  // Kf(T): bool constant where an object is expected.
  auto t = Term::Make(TermKind::kConstFn, {BoolConst(true)});
  EXPECT_TRUE(t.ok());
}

TEST(TermTest, EqualityIsStructural) {
  TermPtr a = Compose(PrimFn("city"), PrimFn("addr"));
  TermPtr b = Compose(PrimFn("city"), PrimFn("addr"));
  TermPtr c = Compose(PrimFn("addr"), PrimFn("city"));
  EXPECT_TRUE(Term::Equal(a, b));
  EXPECT_FALSE(Term::Equal(a, c));
  EXPECT_EQ(a->hash(), b->hash());
}

TEST(TermTest, EqualityDistinguishesLiterals) {
  EXPECT_FALSE(Term::Equal(LitInt(1), LitInt(2)));
  EXPECT_TRUE(Term::Equal(Lit(Value::MakeSet({Value::Int(1)})),
                          Lit(Value::MakeSet({Value::Int(1)}))));
}

TEST(TermTest, EqualityDistinguishesMetaVarSorts) {
  EXPECT_FALSE(Term::Equal(FnVar("f"), PredVar("f")));
  EXPECT_TRUE(Term::Equal(FnVar("f"), FnVar("f")));
}

TEST(TermTest, PrimOpClassifiesByKindAndName) {
  EXPECT_EQ(Id()->prim_op(), PrimOp::kId);
  EXPECT_EQ(Pi1()->prim_op(), PrimOp::kPi1);
  EXPECT_EQ(PrimFn("diff")->prim_op(), PrimOp::kDiff);
  EXPECT_EQ(EqP()->prim_op(), PrimOp::kEq);
  EXPECT_EQ(PrimPred("geq")->prim_op(), PrimOp::kGeq);
  // A built-in name of the other sort, or any other name, is a schema
  // name the Database resolves.
  EXPECT_EQ(PrimFn("eq")->prim_op(), PrimOp::kSchema);
  EXPECT_EQ(PrimPred("id")->prim_op(), PrimOp::kSchema);
  EXPECT_EQ(PrimFn("age")->prim_op(), PrimOp::kSchema);
  EXPECT_EQ(Compose(Id(), Id())->prim_op(), PrimOp::kNone);
  EXPECT_EQ(FnVar("pi1")->prim_op(), PrimOp::kNone);
  // The cached answer is the same answer.
  TermPtr union_fn = PrimFn("union");
  EXPECT_EQ(union_fn->prim_op(), PrimOp::kUnion);
  EXPECT_EQ(union_fn->prim_op(), PrimOp::kUnion);
}

TEST(TermTest, NodeCountCounts) {
  EXPECT_EQ(Id()->node_count(), 1u);
  EXPECT_EQ(Compose(Id(), Id())->node_count(), 3u);
  TermPtr garage_ish =
      Iterate(ConstPredTrue(), PairFn(Id(), ConstFn(Collection("P"))));
  // iterate, Kp, T, pair, id, Kf, P = 7 nodes.
  EXPECT_EQ(garage_ish->node_count(), 7u);
}

TEST(TermTest, HasMetavarsPropagates) {
  EXPECT_FALSE(Compose(Id(), Id())->has_metavars());
  EXPECT_TRUE(Compose(FnVar("f"), Id())->has_metavars());
  EXPECT_TRUE(Iterate(PredVar("p"), Id())->has_metavars());
}

TEST(TermTest, WithChildrenRebuilds) {
  TermPtr t = Compose(PrimFn("a"), PrimFn("b"));
  TermPtr u = t->WithChildren({PrimFn("c"), PrimFn("d")});
  EXPECT_EQ(u->kind(), TermKind::kCompose);
  EXPECT_EQ(u->child(0)->name(), "c");
  EXPECT_EQ(u->child(1)->name(), "d");
  // Original is unchanged (immutability).
  EXPECT_EQ(t->child(0)->name(), "a");
}

TEST(TermTest, ComposeChainNestsRight) {
  TermPtr chain = ComposeChain({PrimFn("f"), PrimFn("g"), PrimFn("h")});
  ASSERT_EQ(chain->kind(), TermKind::kCompose);
  EXPECT_EQ(chain->child(0)->name(), "f");
  ASSERT_EQ(chain->child(1)->kind(), TermKind::kCompose);
  EXPECT_EQ(chain->child(1)->child(0)->name(), "g");
  EXPECT_EQ(chain->child(1)->child(1)->name(), "h");
}

TEST(TermTest, ComposeChainSingleton) {
  TermPtr chain = ComposeChain({PrimFn("f")});
  EXPECT_EQ(chain->kind(), TermKind::kPrimFn);
}

TEST(TermPrintTest, LeavesAndFormers) {
  EXPECT_EQ(Id()->ToString(), "id");
  EXPECT_EQ(ConstPredTrue()->ToString(), "Kp(T)");
  EXPECT_EQ(Compose(PrimFn("city"), PrimFn("addr"))->ToString(),
            "city o addr");
  EXPECT_EQ(PairFn(Pi1(), Pi2())->ToString(), "(pi1, pi2)");
  EXPECT_EQ(PairObj(LitInt(1), LitInt(2))->ToString(), "[1, 2]");
  EXPECT_EQ(FnVar("f")->ToString(), "?f");
}

TEST(TermPrintTest, PrecedenceParenthesization) {
  // (f o g) x h needs no parens on the right side of x but the compose
  // binds tighter so none are inserted.
  TermPtr t = Product(Compose(PrimFn("f"), PrimFn("g")), PrimFn("h"));
  EXPECT_EQ(t->ToString(), "f o g x h");
  // x under o needs parens.
  TermPtr u = Compose(Product(PrimFn("f"), PrimFn("g")), PrimFn("h"));
  EXPECT_EQ(u->ToString(), "(f x g) o h");
}

TEST(TermPrintTest, RightAssociativeComposeChain) {
  TermPtr t = ComposeChain({PrimFn("f"), PrimFn("g"), PrimFn("h")});
  EXPECT_EQ(t->ToString(), "f o g o h");
  // Left-nested compose must print parens to round-trip.
  TermPtr left = Compose(Compose(PrimFn("f"), PrimFn("g")), PrimFn("h"));
  EXPECT_EQ(left->ToString(), "(f o g) o h");
}

TEST(TermPrintTest, OplusAndAnd) {
  TermPtr p = AndP(ConstPredTrue(), Oplus(GtP(), PrimFn("age")));
  EXPECT_EQ(p->ToString(), "Kp(T) & gt @ age");
  TermPtr q = Oplus(AndP(ConstPredTrue(), GtP()), PrimFn("age"));
  EXPECT_EQ(q->ToString(), "(Kp(T) & gt) @ age");
}

TEST(TermPrintTest, ApplyBindsLoosest) {
  TermPtr q = Apply(Iterate(ConstPredTrue(), PrimFn("age")), Collection("P"));
  EXPECT_EQ(q->ToString(), "iterate(Kp(T), age) ! P");
  TermPtr b = TestPred(GtP(), PairObj(LitInt(3), LitInt(2)));
  EXPECT_EQ(b->ToString(), "gt ? [3, 2]");
}

TEST(TermPrintTest, PaperGarageQueryShape) {
  // KG2 from Figure 3 prints readably.
  TermPtr kg2 = Compose(
      Nest(Pi1(), Pi2()),
      Compose(Product(Unnest(Pi1(), Pi2()), Id()),
              PairFn(Join(Oplus(InP(), Product(Id(), PrimFn("cars"))),
                          Product(Id(), PrimFn("grgs"))),
                     Pi1())));
  EXPECT_EQ(kg2->ToString(),
            "nest(pi1, pi2) o (unnest(pi1, pi2) x id) o "
            "(join(in @ id x cars, id x grgs), pi1)");
}

}  // namespace
}  // namespace kola

// Hash-consing invariants (term/intern.h):
//  * intern(a) == intern(b) exactly when Term::Equal(a, b),
//  * metavariable patterns and ground terms never collapse onto each other,
//  * concurrent interning and Equal's epoch fast path stay exact,
//  * a Rewriter shared across threads derives byte-identical traces.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "optimizer/hidden_join.h"
#include "rewrite/engine.h"
#include "rewrite/generate.h"
#include "rewrite/types.h"
#include "term/intern.h"
#include "term/parser.h"

namespace kola {
namespace {

TermPtr Q(const char* text, Sort sort = Sort::kObject) {
  auto t = ParseTerm(text, sort);
  EXPECT_TRUE(t.ok()) << t.status();
  return t.value();
}

TEST(TermInternerTest, EqualTermsShareOneCanonicalPointer) {
  TermInterner interner;
  TermPtr a = Q("iterate(Kp(T), age) ! P");
  TermPtr b = Q("iterate(Kp(T), age) ! P");
  ASSERT_NE(a.get(), b.get());
  TermPtr ca = interner.Intern(a);
  TermPtr cb = interner.Intern(b);
  EXPECT_EQ(ca.get(), cb.get());
  EXPECT_NE(interner.IdOf(ca), 0u);
  EXPECT_EQ(interner.IdOf(ca), interner.IdOf(cb));
  // Shared subtrees are interned too.
  EXPECT_EQ(interner.Intern(a->child(1)).get(), ca->child(1).get());
}

TEST(TermInternerTest, DistinctTermsKeepDistinctIds) {
  TermInterner interner;
  TermPtr a = interner.Intern(Compose(Id(), Pi1()));
  TermPtr b = interner.Intern(Compose(Id(), Pi2()));
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(interner.IdOf(a), interner.IdOf(b));
  EXPECT_FALSE(Term::Equal(a, b));
}

TEST(TermInternerTest, InternAgreesWithStructuralEqualityOnRandomTerms) {
  SchemaTypes schema = SchemaTypes::CarWorld();
  Rng rng(20260806);
  TermGenerator gen(&schema, nullptr, &rng);
  TermInterner interner;
  std::vector<TermPtr> terms;
  for (int i = 0; i < 120; ++i) {
    auto fn = gen.RandomFn(gen.RandomType(2), gen.RandomType(2), 3);
    ASSERT_TRUE(fn.ok()) << fn.status();
    terms.push_back(fn.value());
  }
  std::vector<TermPtr> canonical;
  canonical.reserve(terms.size());
  for (const TermPtr& t : terms) canonical.push_back(interner.Intern(t));
  for (size_t i = 0; i < terms.size(); ++i) {
    ASSERT_TRUE(Term::Equal(terms[i], canonical[i]));
    for (size_t j = 0; j < terms.size(); ++j) {
      EXPECT_EQ(Term::Equal(terms[i], terms[j]),
                canonical[i].get() == canonical[j].get())
          << terms[i]->ToString() << " vs " << terms[j]->ToString();
    }
  }
}

TEST(TermInternerTest, MetavarsAndGroundTermsNeverCollide) {
  TermInterner interner;
  // Same name, four different constructs: a pattern variable per sort, a
  // primitive, and a collection. All must stay distinct.
  std::vector<TermPtr> leaves = {
      interner.Intern(FnVar("age")),   interner.Intern(PredVar("age")),
      interner.Intern(ObjVar("age")),  interner.Intern(BoolVar("age")),
      interner.Intern(PrimFn("age")),  interner.Intern(PrimPred("age")),
      interner.Intern(Collection("age"))};
  for (size_t i = 0; i < leaves.size(); ++i) {
    for (size_t j = i + 1; j < leaves.size(); ++j) {
      EXPECT_NE(leaves[i].get(), leaves[j].get()) << i << " vs " << j;
      EXPECT_FALSE(Term::Equal(leaves[i], leaves[j])) << i << " vs " << j;
    }
  }
  // A pattern and the ground term it could match are different terms.
  TermPtr pattern = interner.Intern(Compose(FnVar("f"), Pi1()));
  TermPtr ground = interner.Intern(Compose(PrimFn("f"), Pi1()));
  EXPECT_NE(pattern.get(), ground.get());
}

TEST(TermInternerTest, LiteralValuesDistinguishCanonicals) {
  TermInterner interner;
  TermPtr five_a = interner.Intern(LitInt(5));
  TermPtr five_b = interner.Intern(LitInt(5));
  TermPtr six = interner.Intern(LitInt(6));
  EXPECT_EQ(five_a.get(), five_b.get());
  EXPECT_NE(five_a.get(), six.get());
}

TEST(TermInternerTest, ClearStartsAFreshEpochWithoutFalseNegatives) {
  TermInterner interner;
  TermPtr old_canon = interner.Intern(Compose(Id(), Pi1()));
  interner.Clear();
  EXPECT_EQ(interner.size(), 0u);
  TermPtr new_canon = interner.Intern(Compose(Id(), Pi1()));
  // Different representatives now, but structural equality still holds.
  EXPECT_NE(old_canon.get(), new_canon.get());
  EXPECT_TRUE(Term::Equal(old_canon, new_canon));
  // The old term is no longer canonical here; re-interning maps onto the
  // new representative.
  EXPECT_EQ(interner.IdOf(old_canon), 0u);
  EXPECT_EQ(interner.Intern(old_canon).get(), new_canon.get());
}

TEST(ThreadSafetyTest, ConcurrentInterningOfEqualTermsAgreesOnOnePointer) {
  TermInterner interner;
  // Every worker interns its own freshly parsed copy of the same queries;
  // all copies of one query must collapse to a single canonical pointer
  // regardless of interleaving.
  const char* queries[] = {
      "iterate(Kp(T), age) ! P",
      "iterate(gt @ (age, Kf(25)), id) ! P",
      "join(eq @ (age x age), (pi1, pi2)) ! [P, P]",
      "iterate(Kp(T), city) o iterate(Kp(T), addr) ! P",
  };
  constexpr int kWorkers = 8;
  constexpr int kRounds = 25;
  std::vector<std::atomic<const Term*>> canon(std::size(queries));
  for (auto& slot : canon) slot.store(nullptr);
  ParallelFor(kWorkers, kWorkers, [&](size_t) {
    for (int round = 0; round < kRounds; ++round) {
      for (size_t q = 0; q < std::size(queries); ++q) {
        TermPtr mine = Q(queries[q]);
        TermPtr canonical = interner.Intern(mine);
        const Term* expected = nullptr;
        if (!canon[q].compare_exchange_strong(expected, canonical.get())) {
          EXPECT_EQ(expected, canonical.get());
        }
        EXPECT_NE(interner.IdOf(canonical), 0u);
      }
    }
  });
  // Exactly one canonical entry per distinct subterm; ids distinct.
  std::set<TermId> ids;
  for (size_t q = 0; q < std::size(queries); ++q) {
    TermPtr again = interner.Intern(Q(queries[q]));
    EXPECT_EQ(again.get(), canon[q].load());
    ids.insert(interner.IdOf(again));
  }
  EXPECT_EQ(ids.size(), std::size(queries));
}

TEST(ThreadSafetyTest, ConcurrentEqualUsesTheEpochFastPathSafely) {
  TermInterner interner;
  TermPtr a = interner.Intern(Q("iterate(Kp(T), age) ! P"));
  TermPtr b = interner.Intern(Q("iterate(Kp(T), name) ! P"));
  // Readers compare interned terms while writers keep tagging new ones:
  // Equal's epoch fast path must stay exact throughout.
  std::atomic<bool> failed{false};
  ParallelFor(8, 8, [&](size_t i) {
    if (i < 4) {
      for (int round = 0; round < 200; ++round) {
        if (Term::Equal(a, b)) failed.store(true);
        if (!Term::Equal(a, a)) failed.store(true);
      }
    } else {
      Rng rng(100 + static_cast<uint64_t>(i));
      for (int round = 0; round < 50; ++round) {
        int64_t v = rng.Uniform(0, 1000);
        interner.Intern(Iterate(ConstPredTrue(), ConstFn(LitInt(v))));
      }
    }
  });
  EXPECT_FALSE(failed.load());
}

TEST(ThreadSafetyTest, ParallelUntanglingProducesIdenticalDerivations) {
  // The full hidden-join pipeline, concurrently, every worker driving the
  // same Rewriter (it holds no per-query state): every derivation must
  // match the serial reference byte for byte.
  Rewriter rewriter;
  auto reference = UntangleHiddenJoin(GarageQueryKG1(), rewriter);
  ASSERT_TRUE(reference.ok());
  std::string expected = reference->trace.ToString();
  std::atomic<int> matches{0};
  ParallelFor(6, 6, [&](size_t) {
    auto result = UntangleHiddenJoin(GarageQueryKG1(), rewriter);
    if (result.ok() && result->trace.ToString() == expected) {
      matches.fetch_add(1);
    }
  });
  EXPECT_EQ(matches.load(), 6);
}

}  // namespace
}  // namespace kola

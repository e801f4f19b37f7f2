#include <gtest/gtest.h>

#include "src/containment/unfold.h"
#include "src/cq/containment.h"
#include "src/cq/minimize.h"
#include "tests/test_util.h"

namespace datalog {
namespace {

TEST(MinimizeTest, RemovesFoldableAtom) {
  // e(X, Z) with Z existential folds onto e(X, Y).
  ConjunctiveQuery cq = MustParseCq("q(X) :- e(X, Y), e(X, Z), f(Y).");
  ConjunctiveQuery core = MinimizeCq(cq);
  EXPECT_EQ(core.body().size(), 2u);
  EXPECT_TRUE(IsCqContained(cq, core));
  EXPECT_TRUE(IsCqContained(core, cq));
}

TEST(MinimizeTest, KeepsIrredundantQuery) {
  ConjunctiveQuery cq = MustParseCq("q(X, Y) :- e(X, Z), e(Z, Y).");
  ConjunctiveQuery core = MinimizeCq(cq);
  EXPECT_EQ(core.body().size(), 2u);
}

TEST(MinimizeTest, PathFoldsOntoSelfLoopPattern) {
  // Body: e(X,X), e(X,Y) with Y existential: e(X,Y) maps to e(X,X).
  ConjunctiveQuery cq = MustParseCq("q(X) :- e(X, X), e(X, Y).");
  ConjunctiveQuery core = MinimizeCq(cq);
  EXPECT_EQ(core.body().size(), 1u);
  EXPECT_EQ(core.body()[0], MustParseAtom("e(X, X)"));
}

TEST(MinimizeTest, DistinguishedVariablesBlockFolding) {
  // Y distinguished: e(X,Y) cannot fold onto e(X,X).
  ConjunctiveQuery cq = MustParseCq("q(X, Y) :- e(X, X), e(X, Y).");
  ConjunctiveQuery core = MinimizeCq(cq);
  EXPECT_EQ(core.body().size(), 2u);
}

TEST(MinimizeTest, ChainOfRedundantAtoms) {
  // A long existential chain from X folds onto the single edge e(X, X).
  ConjunctiveQuery cq =
      MustParseCq("q(X) :- e(X, X), e(X, A), e(A, B), e(B, C).");
  ConjunctiveQuery core = MinimizeCq(cq);
  EXPECT_EQ(core.body().size(), 1u);
}

TEST(MinimizeTest, EmptyBodyUnchanged) {
  ConjunctiveQuery cq = MustParseCq("q(X, X) :- .");
  EXPECT_EQ(MinimizeCq(cq), cq);
}

TEST(MinimizeTest, ConstantsRespected) {
  ConjunctiveQuery cq = MustParseCq("q(X) :- e(X, a), e(X, Y).");
  // e(X, Y) folds onto e(X, a) via Y -> a.
  ConjunctiveQuery core = MinimizeCq(cq);
  EXPECT_EQ(core.body().size(), 1u);
  EXPECT_EQ(core.body()[0], MustParseAtom("e(X, a)"));
}

TEST(MinimizeUcqTest, MinimizesDisjunctsAndDropsRedundant) {
  UnionOfCqs ucq;
  ucq.Add(MustParseCq("q(X) :- e(X, A), e(X, B)."));  // core: e(X, A)
  ucq.Add(MustParseCq("q(X) :- e(X, C)."));           // equivalent to above
  ucq.Add(MustParseCq("q(X) :- f(X)."));
  UnionOfCqs minimized = MinimizeUcq(ucq);
  EXPECT_EQ(minimized.size(), 2u);
  EXPECT_TRUE(IsUcqEquivalent(ucq, minimized));
  for (const ConjunctiveQuery& cq : minimized.disjuncts()) {
    EXPECT_EQ(cq.body().size(), 1u);
  }
}

TEST(MinimizeUcqTest, ShrinksRedundantUnfoldings) {
  // Unfolding renames each use of m apart, so the two m atoms become two
  // e atoms that fold onto one.
  Program p = MustParseProgram(R"(
    top(X) :- m(X), m(X).
    m(X) :- e(X, Y).
  )");
  StatusOr<UnionOfCqs> big = UnfoldNonrecursive(p, "top");
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->disjuncts()[0].body().size(), 2u);
  UnionOfCqs small = MinimizeUcq(*big);
  ASSERT_EQ(small.size(), 1u);
  EXPECT_EQ(small.disjuncts()[0].body().size(), 1u);
  EXPECT_TRUE(IsUcqEquivalent(*big, small));
}

}  // namespace
}  // namespace datalog

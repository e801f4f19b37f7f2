#include <gtest/gtest.h>

#include "src/containment/unfold.h"
#include "src/engine/eval.h"
#include "src/engine/random_db.h"
#include "src/generators/examples.h"
#include "tests/test_util.h"

namespace datalog {
namespace {

TEST(UnfoldTest, SingleRuleProgram) {
  Program p = MustParseProgram("q(X) :- e(X, Y), f(Y).");
  StatusOr<UnionOfCqs> ucq = UnfoldNonrecursive(p, "q");
  ASSERT_TRUE(ucq.ok()) << ucq.status();
  ASSERT_EQ(ucq->size(), 1u);
  EXPECT_EQ(ucq->disjuncts()[0].body().size(), 2u);
}

TEST(UnfoldTest, TwoLayerComposition) {
  Program p = MustParseProgram(R"(
    top(X, Y) :- mid(X, Z), mid(Z, Y).
    mid(X, Y) :- e(X, Y).
    mid(X, Y) :- f(X, Y).
  )");
  StatusOr<UnionOfCqs> ucq = UnfoldNonrecursive(p, "top");
  ASSERT_TRUE(ucq.ok());
  // 2 choices for each of the two mid atoms.
  EXPECT_EQ(ucq->size(), 4u);
  for (const ConjunctiveQuery& cq : ucq->disjuncts()) {
    EXPECT_EQ(cq.body().size(), 2u);
  }
}

TEST(UnfoldTest, RejectsRecursivePrograms) {
  Program tc = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
  )");
  EXPECT_FALSE(UnfoldNonrecursive(tc, "p").ok());
  EXPECT_FALSE(EstimateUnfoldSize(tc, "p").ok());
}

TEST(UnfoldTest, UnfoldingEquivalentToProgramOnRandomDatabases) {
  Program p = MustParseProgram(R"(
    top(X, Y) :- mid(X, Z), mid(Z, Y).
    top(X, Y) :- e(X, Y).
    mid(X, Y) :- e(X, Y), g(X).
    mid(X, Y) :- f(X, Y).
  )");
  StatusOr<UnionOfCqs> ucq = UnfoldNonrecursive(p, "top");
  ASSERT_TRUE(ucq.ok());
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    RandomDbOptions options;
    options.seed = seed;
    options.domain_size = 4;
    options.tuples_per_relation = 6;
    Database db = RandomDatabaseFor(p, options);
    StatusOr<Relation> via_program = EvaluateGoal(p, "top", db);
    StatusOr<Relation> via_ucq = EvaluateUcq(*ucq, db);
    ASSERT_TRUE(via_program.ok());
    ASSERT_TRUE(via_ucq.ok());
    EXPECT_EQ(*via_program, *via_ucq) << "seed " << seed;
  }
}

TEST(UnfoldTest, HeadConstantsAndRepeatedVariablesCompose) {
  Program p = MustParseProgram(R"(
    q(X) :- base(X, X).
    base(X, Y) :- e(X, Y).
    base(a, Y) :- f(Y).
  )");
  StatusOr<UnionOfCqs> ucq = UnfoldNonrecursive(p, "q");
  ASSERT_TRUE(ucq.ok());
  ASSERT_EQ(ucq->size(), 2u);
  // Second disjunct: base(a, Y) unified with base(X, X) forces X = a = Y.
  bool found_constant_head = false;
  for (const ConjunctiveQuery& cq : ucq->disjuncts()) {
    if (cq.head_args()[0] == Term::Constant("a")) {
      found_constant_head = true;
      EXPECT_EQ(cq.body()[0], MustParseAtom("f(a)"));
    }
  }
  EXPECT_TRUE(found_constant_head);
}

TEST(UnfoldTest, IncompatibleConstantsPruneDisjuncts) {
  Program p = MustParseProgram(R"(
    q(X) :- base(b, X).
    base(a, Y) :- f(Y).
    base(b, Y) :- g(Y).
  )");
  StatusOr<UnionOfCqs> ucq = UnfoldNonrecursive(p, "q");
  ASSERT_TRUE(ucq.ok());
  ASSERT_EQ(ucq->size(), 1u);
  EXPECT_EQ(ucq->disjuncts()[0].body()[0].predicate(), "g");
}

TEST(UnfoldTest, EmptyBodyRulesCompose) {
  // Example 6.2 style: dist<0(x, x) :- .
  Program p = MustParseProgram(R"(
    q(X, Y) :- d(X, Z), e(Z, Y).
    d(X, X) :- .
    d(X, Y) :- f(X, Y).
  )");
  StatusOr<UnionOfCqs> ucq = UnfoldNonrecursive(p, "q");
  ASSERT_TRUE(ucq.ok());
  ASSERT_EQ(ucq->size(), 2u);
  // The empty-body disjunct collapses X and Z: body e(X, Y).
  bool found_collapsed = false;
  for (const ConjunctiveQuery& cq : ucq->disjuncts()) {
    if (cq.body().size() == 1 && cq.body()[0].predicate() == "e") {
      found_collapsed = true;
      EXPECT_EQ(cq.body()[0].args()[0], cq.head_args()[0]);
    }
  }
  EXPECT_TRUE(found_collapsed);
}

TEST(UnfoldTest, PaperExample61DistExponentialAtoms) {
  // dist_n unfolds to a single CQ with 2^n atoms (Example 6.1).
  for (int n = 1; n <= 6; ++n) {
    Program p = DistProgram(n);
    StatusOr<UnionOfCqs> ucq = UnfoldNonrecursive(p, DistPredicate(n));
    ASSERT_TRUE(ucq.ok()) << ucq.status();
    ASSERT_EQ(ucq->size(), 1u);
    EXPECT_EQ(ucq->disjuncts()[0].body().size(),
              static_cast<std::size_t>(1) << n);
    StatusOr<UnfoldSizeEstimate> estimate =
        EstimateUnfoldSize(p, DistPredicate(n));
    ASSERT_TRUE(estimate.ok());
    EXPECT_EQ(estimate->disjuncts, 1u);
    EXPECT_EQ(estimate->max_disjunct_atoms, std::uint64_t{1} << n);
  }
}

TEST(UnfoldTest, PaperExample66WordExponentialDisjuncts) {
  // word_n unfolds to 2^n disjuncts, each of size O(n) (Example 6.6).
  for (int n = 1; n <= 6; ++n) {
    Program p = WordProgram(n);
    StatusOr<UnionOfCqs> ucq = UnfoldNonrecursive(p, WordPredicate(n));
    ASSERT_TRUE(ucq.ok()) << ucq.status();
    EXPECT_EQ(ucq->size(), static_cast<std::size_t>(1) << n);
    for (const ConjunctiveQuery& cq : ucq->disjuncts()) {
      EXPECT_EQ(cq.body().size(), static_cast<std::size_t>(2 * n));
    }
  }
}

TEST(UnfoldTest, EstimateMatchesMaterializedSizes) {
  Program p = MustParseProgram(R"(
    top(X) :- a(X, Y), m1(Y), m2(Y).
    m1(X) :- e(X).
    m1(X) :- f(X), g(X).
    m2(X) :- h(X).
    m2(X) :- e(X).
  )");
  StatusOr<UnionOfCqs> ucq = UnfoldNonrecursive(p, "top");
  StatusOr<UnfoldSizeEstimate> estimate = EstimateUnfoldSize(p, "top");
  ASSERT_TRUE(ucq.ok());
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(estimate->disjuncts, ucq->size());
  std::size_t max_atoms = 0;
  for (const ConjunctiveQuery& cq : ucq->disjuncts()) {
    max_atoms = std::max(max_atoms, cq.body().size());
  }
  EXPECT_EQ(estimate->max_disjunct_atoms, max_atoms);
}

TEST(UnfoldTest, DisjunctLimitEnforced) {
  Program p = WordProgram(10);  // 1024 disjuncts
  UnfoldOptions options;
  options.max_disjuncts = 100;
  StatusOr<UnionOfCqs> ucq =
      UnfoldNonrecursive(p, WordPredicate(10), options);
  ASSERT_FALSE(ucq.ok());
  EXPECT_EQ(ucq.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace datalog

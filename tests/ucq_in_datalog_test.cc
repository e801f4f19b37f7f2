#include <gtest/gtest.h>

#include "src/containment/ucq_in_datalog.h"
#include "src/generators/examples.h"
#include "tests/test_util.h"

namespace datalog {
namespace {

bool MustCheck(const ConjunctiveQuery& theta, const Program& program,
               const std::string& goal) {
  UnionOfCqs single;
  single.Add(theta);
  StatusOr<bool> result = IsUcqContainedInDatalog(single, program, goal);
  EXPECT_TRUE(result.ok()) << result.status();
  return *result;
}

TEST(UcqInDatalogTest, PathsAreContainedInTransitiveClosure) {
  Program tc = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
  )");
  EXPECT_TRUE(MustCheck(ChainQuery(1), tc, "p"));
  EXPECT_TRUE(MustCheck(ChainQuery(2), tc, "p"));
  EXPECT_TRUE(MustCheck(ChainQuery(5), tc, "p"));
}

TEST(UcqInDatalogTest, NonPathsAreNotContained) {
  Program tc = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
  )");
  // A disconnected pair of edges does not witness a path from X to Y.
  EXPECT_FALSE(
      MustCheck(MustParseCq("p(X, Y) :- e(X, A), e(B, Y)."), tc, "p"));
  // Wrong predicate.
  EXPECT_FALSE(MustCheck(MustParseCq("p(X, Y) :- f(X, Y)."), tc, "p"));
}

TEST(UcqInDatalogTest, QueryStrongerThanNeededIsContained) {
  Program tc = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
  )");
  // Extra atoms only strengthen the query.
  EXPECT_TRUE(MustCheck(
      MustParseCq("p(X, Y) :- e(X, Y), g(X), g(Y)."), tc, "p"));
}

TEST(UcqInDatalogTest, Example11BackwardDirections) {
  // The nonrecursive buys1 rewriting is contained in buys1.
  Program buys1 = Buys1Program();
  EXPECT_TRUE(MustCheck(MustParseCq("b(X, Y) :- likes(X, Y)."), buys1,
                        "buys"));
  EXPECT_TRUE(MustCheck(
      MustParseCq("b(X, Y) :- trendy(X), likes(Z, Y)."), buys1, "buys"));
  // Similarly for buys2 (the failing direction of Example 1.1 is the
  // forward one; backward holds).
  Program buys2 = Buys2Program();
  EXPECT_TRUE(MustCheck(
      MustParseCq("b(X, Y) :- knows(X, Z), likes(Z, Y)."), buys2, "buys"));
}

TEST(UcqInDatalogTest, ConstantsInQuery) {
  Program reach = MustParseProgram(R"(
    r(X) :- e(root, X).
    r(X) :- r(Y), e(Y, X).
  )");
  EXPECT_TRUE(MustCheck(MustParseCq("q(X) :- e(root, X)."), reach, "r"));
  EXPECT_TRUE(MustCheck(
      MustParseCq("q(X) :- e(root, A), e(A, X)."), reach, "r"));
  EXPECT_FALSE(MustCheck(MustParseCq("q(X) :- e(other, X)."), reach, "r"));
}

TEST(UcqInDatalogTest, UnionContainedIffEveryDisjunctIs) {
  Program tc = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
  )");
  UnionOfCqs good = PathQueries(3);
  StatusOr<bool> all_good = IsUcqContainedInDatalog(good, tc, "p");
  ASSERT_TRUE(all_good.ok());
  EXPECT_TRUE(*all_good);

  UnionOfCqs mixed = PathQueries(2);
  mixed.Add(MustParseCq("p(X, Y) :- f(X, Y)."));
  StatusOr<bool> not_all = IsUcqContainedInDatalog(mixed, tc, "p");
  ASSERT_TRUE(not_all.ok());
  EXPECT_FALSE(*not_all);
}

// EvalStats audit: checking each disjunct individually through
// IsUcqDisjunctContainedInDatalog and folding the per-disjunct stats
// with Accumulate must equal the whole-union run's recount, field for
// field — including the planner counters (plans_cached, plans_rebuilt,
// est_cost_total), which Accumulate must cover, and at 4 engine threads
// the staged-round counters. An all-contained union is used so the
// whole-run loop does not short-circuit.
TEST(UcqInDatalogTest, PerDisjunctStatsAccumulateToWholeRunRecount) {
  Program tc = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
  )");
  UnionOfCqs good = PathQueries(4);
  for (int threads : {1, 4}) {
    CanonicalDbOptions options;
    options.eval.num_threads = threads;
    EvalStats whole;
    StatusOr<bool> all =
        IsUcqContainedInDatalog(good, tc, "p", &whole, options);
    ASSERT_TRUE(all.ok());
    EXPECT_TRUE(*all);

    EvalStats accumulated;
    for (std::size_t d = 0; d < good.size(); ++d) {
      EvalStats per_disjunct;
      StatusOr<bool> got = IsUcqDisjunctContainedInDatalog(
          good, d, tc, "p", &per_disjunct, options);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(*got);
      accumulated.Accumulate(per_disjunct);
    }
    SCOPED_TRACE(threads);
    EXPECT_EQ(accumulated.iterations, whole.iterations);
    EXPECT_EQ(accumulated.facts_derived, whole.facts_derived);
    EXPECT_EQ(accumulated.join_probes, whole.join_probes);
    EXPECT_EQ(accumulated.index_probes, whole.index_probes);
    EXPECT_EQ(accumulated.index_builds, whole.index_builds);
    EXPECT_EQ(accumulated.tuples_indexed, whole.tuples_indexed);
    EXPECT_EQ(accumulated.rounds_parallel, whole.rounds_parallel);
    EXPECT_EQ(accumulated.tuples_staged, whole.tuples_staged);
    EXPECT_EQ(accumulated.merge_collisions, whole.merge_collisions);
    EXPECT_EQ(accumulated.strata, whole.strata);
    EXPECT_EQ(accumulated.rounds_saved, whole.rounds_saved);
    EXPECT_EQ(accumulated.plans_cached, whole.plans_cached);
    EXPECT_EQ(accumulated.plans_rebuilt, whole.plans_rebuilt);
    EXPECT_EQ(accumulated.est_cost_total, whole.est_cost_total);
    if (threads > 1) {
      EXPECT_GT(whole.rounds_parallel, 0u);
    }
  }
}

TEST(UcqInDatalogTest, HeadOnlyVariableQuery) {
  // theta(X, Y) :- e(X, Z): Y is unconstrained (active domain).
  // The canonical database is {e(@X, @Z)} with domain {@X, @Y, @Z}; the
  // program derives p-facts only along e-edges, so (X, Y) is not derived.
  Program tc = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
  )");
  EXPECT_FALSE(MustCheck(MustParseCq("p(X, Y) :- e(X, Z)."), tc, "p"));
}

}  // namespace
}  // namespace datalog

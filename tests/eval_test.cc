#include <gtest/gtest.h>

#include "src/corpus/naive.h"
#include "src/engine/eval.h"
#include "src/engine/random_db.h"
#include "src/util/strings.h"
#include "tests/naive_oracle.h"
#include "tests/test_util.h"

namespace datalog {
namespace {

Database GraphDb(const std::vector<std::pair<std::string, std::string>>& edges,
                 const std::string& predicate = "e") {
  Database db;
  for (const auto& [from, to] : edges) {
    db.AddFact(predicate, {from, to});
  }
  return db;
}

TEST(EvalTest, TransitiveClosureOnChain) {
  Program tc = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
  )");
  Database db = GraphDb({{"a", "b"}, {"b", "c"}, {"c", "d"}});
  StatusOr<Relation> result = EvaluateGoal(tc, "p", db);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 6u);  // ab ac ad bc bd cd
}

TEST(EvalTest, TransitiveClosureOnCycle) {
  Program tc = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
  )");
  Database db = GraphDb({{"a", "b"}, {"b", "a"}});
  StatusOr<Relation> result = EvaluateGoal(tc, "p", db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 4u);  // aa ab ba bb
}

TEST(EvalTest, SemiNaiveMatchesNaiveFixpoint) {
  Program tc = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- p(X, Z), p(Z, Y).
  )");
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomDbOptions options;
    options.seed = seed;
    options.domain_size = 5;
    options.tuples_per_relation = 8;
    Database db = RandomDatabaseFor(tc, options);
    StatusOr<Database> result = EvaluateProgram(tc, db);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(SameFactSet(*result, NaiveOracleFixpoint(tc, db)))
        << "seed " << seed;
  }
}

// Rules ordered against the derivation direction defeat chaotic in-round
// insertion: every semi-naive round extends the a/b chain by one or two
// facts, so a fixpoint loop that stops a delta round early loses the
// tail. The serial engine needs 6 rounds; the staged parallel engine,
// which inserts nothing mid-round, needs 10 (one per fact, plus the
// empty closing round).
TEST(EvalTest, RoundByRoundChainMatchesNaiveFixpoint) {
  Program chain = MustParseProgram(R"(
    a(Y) :- b(X), e(X, Y).
    b(X) :- start(X).
    b(Y) :- a(X), e(X, Y).
  )");
  Database db;
  db.AddFact("start", {"n0"});
  for (int i = 0; i < 8; ++i) {
    db.AddFact("e", {StrCat("n", i), StrCat("n", i + 1)});
  }
  for (int num_threads : {1, 2}) {
    EvalOptions options;
    options.num_threads = num_threads;
    EvalStats stats;
    StatusOr<Database> result = EvaluateProgram(chain, db, options, &stats);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(SameFactSet(*result, NaiveOracleFixpoint(chain, db)))
        << "num_threads=" << num_threads;
    EXPECT_EQ(stats.facts_derived, 9u) << "num_threads=" << num_threads;
    EXPECT_EQ(stats.iterations, num_threads == 1 ? 6 : 10)
        << "num_threads=" << num_threads;
  }
}

// The retired naive engine, which re-evaluated every rule in full each
// round, examined 10,790 candidate tuples on this chain; semi-naive
// rounds join only against the previous round's delta.
TEST(EvalTest, SemiNaiveDoesLessWorkOnLongChain) {
  constexpr std::size_t kNaiveEngineJoinProbes = 10'790;
  Program tc = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
  )");
  Database db;
  for (int i = 0; i < 30; ++i) {
    db.AddFact("e", {StrCat("n", i), StrCat("n", i + 1)});
  }
  EvalStats stats;
  ASSERT_TRUE(EvaluateGoal(tc, "p", db, EvalOptions(), &stats).ok());
  EXPECT_EQ(stats.facts_derived, 30u * 31u / 2u);
  EXPECT_LT(stats.join_probes, kNaiveEngineJoinProbes);
}

TEST(EvalTest, MutualRecursionEvenOdd) {
  Program p = MustParseProgram(R"(
    even(X) :- zero(X).
    even(X) :- succ(Y, X), odd(Y).
    odd(X) :- succ(Y, X), even(Y).
  )");
  Database db;
  db.AddFact("zero", {"0"});
  for (int i = 0; i < 6; ++i) {
    db.AddFact("succ", {StrCat(i), StrCat(i + 1)});
  }
  StatusOr<Database> result = EvaluateProgram(p, db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->GetRelation("even", 1).size(), 4u);  // 0 2 4 6
  EXPECT_EQ(result->GetRelation("odd", 1).size(), 3u);   // 1 3 5
}

TEST(EvalTest, EmptyBodyRuleUsesActiveDomain) {
  // dist0(X, X) :- . derives the diagonal over the active domain.
  Program p = MustParseProgram(R"(
    d(X, X) :- .
    d(X, Y) :- e(X, Y).
  )");
  Database db = GraphDb({{"a", "b"}});
  StatusOr<Relation> result = EvaluateGoal(p, "d", db);
  ASSERT_TRUE(result.ok());
  // diagonal {aa, bb} plus edge ab.
  EXPECT_EQ(result->size(), 3u);
}

TEST(EvalTest, ConstantsInRules) {
  Program p = MustParseProgram(R"(
    reach(X) :- e(root, X).
    reach(X) :- reach(Y), e(Y, X).
  )");
  Database db = GraphDb({{"root", "a"}, {"a", "b"}, {"c", "d"}});
  StatusOr<Relation> result = EvaluateGoal(p, "reach", db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);  // a, b
}

TEST(EvalTest, ProgramConstantAbsentFromDatabase) {
  Program p = MustParseProgram("q(X) :- e(missing, X).");
  Database db = GraphDb({{"a", "b"}});
  StatusOr<Relation> result = EvaluateGoal(p, "q", db);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(EvalTest, GoalWithEmptyDatabase) {
  Program tc = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
  )");
  Database empty;
  StatusOr<Relation> result = EvaluateGoal(tc, "p", empty);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(EvalTest, ZeroAryGoal) {
  Program p = MustParseProgram(R"(
    c :- start(Z), e(Z, W).
  )");
  Database db;
  db.AddFact("start", {"s"});
  db.AddFact("e", {"s", "t"});
  StatusOr<Relation> result = EvaluateGoal(p, "c", db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);  // the 0-ary tuple: true

  Database db2;
  db2.AddFact("start", {"s"});
  StatusOr<Relation> result2 = EvaluateGoal(p, "c", db2);
  ASSERT_TRUE(result2.ok());
  EXPECT_TRUE(result2->empty());
}

TEST(EvalTest, FactLimitTriggersResourceExhausted) {
  Program tc = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- p(X, Z), p(Z, Y).
  )");
  Database db;
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 20; ++j) {
      db.AddFact("e", {StrCat("n", i), StrCat("n", j)});
    }
  }
  EvalOptions options;
  options.limits.max_facts = 10;
  StatusOr<Relation> result = EvaluateGoal(tc, "p", db, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// max_facts counts head-tuple emissions, duplicates included, and the
// error says so: 20 emissions of one distinct fact trip a cap of 10, on
// the serial and the parallel fixpoint alike.
TEST(EvalTest, FactCapCountsEmissionsAndSaysSo) {
  Program program = MustParseProgram("p(X) :- e(X, Y), f(Y).");
  Database db;
  for (int j = 0; j < 20; ++j) {
    db.AddFact("e", {"a", StrCat("n", j)});
    db.AddFact("f", {StrCat("n", j)});
  }
  for (int threads : {1, 4}) {
    EvalOptions options;
    options.num_threads = threads;
    options.limits.max_facts = 10;
    StatusOr<Relation> result = EvaluateGoal(program, "p", db, options);
    ASSERT_FALSE(result.ok()) << threads << " threads";
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(result.status().message(),
              "evaluation exceeded 10 head-tuple emissions (max_facts "
              "counts duplicates too)")
        << threads << " threads";
  }
}

TEST(EvalUcqTest, UnionEvaluatesAllDisjuncts) {
  UnionOfCqs ucq;
  ucq.Add(MustParseCq("q(X, Y) :- e(X, Y)."));
  ucq.Add(MustParseCq("q(X, Y) :- e(X, Z), e(Z, Y)."));
  Database db = GraphDb({{"a", "b"}, {"b", "c"}});
  StatusOr<Relation> result = EvaluateUcq(ucq, db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);  // ab bc ac
}

TEST(EvalUcqTest, MatchesDatalogEvaluationOfNonrecursiveEquivalent) {
  // likes + trendy ∘ likes: nonrecursive buys from Example 1.1.
  UnionOfCqs ucq;
  ucq.Add(MustParseCq("buys(X, Y) :- likes(X, Y)."));
  ucq.Add(MustParseCq("buys(X, Y) :- trendy(X), likes(Z, Y)."));
  Program nonrec = MustParseProgram(R"(
    buys(X, Y) :- likes(X, Y).
    buys(X, Y) :- trendy(X), likes(Z, Y).
  )");
  RandomDbOptions options;
  options.domain_size = 4;
  options.tuples_per_relation = 5;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    options.seed = seed;
    Database db = RandomDatabaseFor(nonrec, options);
    StatusOr<Relation> via_ucq = EvaluateUcq(ucq, db);
    StatusOr<Relation> via_program = EvaluateGoal(nonrec, "buys", db);
    ASSERT_TRUE(via_ucq.ok());
    ASSERT_TRUE(via_program.ok());
    EXPECT_EQ(*via_ucq, *via_program) << "seed " << seed;
  }
}

TEST(CanonicalDbTest, FreezeProducesGroundFacts) {
  ConjunctiveQuery cq = MustParseCq("q(X, Y) :- e(X, Z), e(Z, Y), f(a).");
  corpus::NaiveFrozenCq frozen = corpus::NaiveFreezeCq("q", cq);
  ASSERT_EQ(frozen.facts.size(), 3u);
  for (const Atom& fact : frozen.facts) {
    for (const Term& t : fact.args()) {
      EXPECT_TRUE(t.is_constant());
    }
  }
  EXPECT_EQ(frozen.goal_atom.args()[0], Term::Constant("@X"));
  EXPECT_EQ(frozen.goal_atom.args()[1], Term::Constant("@Y"));
  // Pre-existing constants survive freezing unchanged.
  EXPECT_EQ(frozen.facts[2].args()[0], Term::Constant("a"));
}

TEST(CanonicalDbTest, FrozenDatabaseSatisfiesItsOwnQuery) {
  ConjunctiveQuery cq = MustParseCq("q(X, Y) :- e(X, Z), e(Z, Y).");
  corpus::NaiveFrozenCq frozen = corpus::NaiveFreezeCq("q", cq);
  Database db;
  for (const Atom& fact : frozen.facts) {
    ASSERT_TRUE(db.AddFactAtom(fact).ok());
  }
  UnionOfCqs ucq;
  ucq.Add(cq);
  StatusOr<Relation> result = EvaluateUcq(ucq, db);
  ASSERT_TRUE(result.ok());
  Tuple goal;
  for (const Term& t : frozen.goal_atom.args()) {
    goal.push_back(db.dictionary().Lookup(t.name()));
  }
  EXPECT_TRUE(result->Contains(goal));
}

TEST(RandomDbTest, DeterministicUnderSeed) {
  std::map<std::string, std::size_t> signature{{"e", 2}, {"f", 1}};
  RandomDbOptions options;
  options.seed = 7;
  Database a = RandomDatabase(signature, options);
  Database b = RandomDatabase(signature, options);
  EXPECT_EQ(a.GetRelation("e", 2), b.GetRelation("e", 2));
  options.seed = 8;
  Database c = RandomDatabase(signature, options);
  EXPECT_NE(a.GetRelation("e", 2), c.GetRelation("e", 2));
}

}  // namespace
}  // namespace datalog

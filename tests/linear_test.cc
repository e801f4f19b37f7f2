#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "src/containment/decider.h"
#include "src/containment/linear.h"
#include "src/containment/theta_automaton.h"
#include "src/corpus/generate.h"
#include "src/generators/examples.h"
#include "src/trees/enumerate.h"
#include "src/trees/strong_mapping.h"
#include "src/util/strings.h"
#include "tests/test_util.h"

namespace datalog {
namespace {

LinearContainmentResult MustDecideLinear(const Program& program,
                                         const std::string& goal,
                                         const UnionOfCqs& theta) {
  StatusOr<LinearContainmentResult> result =
      DecideLinearDatalogInUcq(program, goal, theta);
  EXPECT_TRUE(result.ok()) << result.status();
  return *result;
}

TEST(LinearDeciderTest, PaperExample11Buys1) {
  UnionOfCqs theta;
  theta.Add(MustParseCq("buys(X, Y) :- likes(X, Y)."));
  theta.Add(MustParseCq("buys(X, Y) :- trendy(X), likes(Z, Y)."));
  LinearContainmentResult result =
      MustDecideLinear(Buys1Program(), "buys", theta);
  EXPECT_TRUE(result.contained);
}

TEST(LinearDeciderTest, PaperExample11Buys2WithCounterexample) {
  UnionOfCqs theta;
  theta.Add(MustParseCq("buys(X, Y) :- likes(X, Y)."));
  theta.Add(MustParseCq("buys(X, Y) :- knows(X, Z), likes(Z, Y)."));
  LinearContainmentResult result =
      MustDecideLinear(Buys2Program(), "buys", theta);
  ASSERT_FALSE(result.contained);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_TRUE(ValidateProofTree(Buys2Program(), *result.counterexample).ok())
      << result.counterexample->ToString();
  EXPECT_FALSE(
      AnyDisjunctMapsStrongly(Buys2Program(), *result.counterexample, theta));
}

TEST(LinearDeciderTest, TransitiveClosureCases) {
  Program tc = TransitiveClosureProgram("e", "e");
  UnionOfCqs top;
  top.Add(MustParseCq("p(X, Y) :- ."));
  EXPECT_TRUE(MustDecideLinear(tc, "p", top).contained);
  EXPECT_FALSE(MustDecideLinear(tc, "p", PathQueries(3)).contained);
}

TEST(LinearDeciderTest, RejectsNonlinearPrograms) {
  Program nl = NonlinearTransitiveClosureProgram();
  UnionOfCqs top;
  top.Add(MustParseCq("p(X, Y) :- ."));
  StatusOr<LinearContainmentResult> result =
      DecideLinearDatalogInUcq(nl, "p", top);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(LinearDeciderTest, EmptyUnion) {
  Program no_base = MustParseProgram("p(X, Y) :- e(X, Z), p(Z, Y).");
  UnionOfCqs empty;
  EXPECT_TRUE(MustDecideLinear(no_base, "p", empty).contained);
  Program tc = TransitiveClosureProgram("e", "e");
  LinearContainmentResult result = MustDecideLinear(tc, "p", empty);
  EXPECT_FALSE(result.contained);
  EXPECT_TRUE(ValidateProofTree(tc, *result.counterexample).ok());
}

// The word-automaton decider and the tree decider implement the same
// theorem; they must agree on every linear case.
TEST(LinearDeciderTest, AgreesWithTreeDecider) {
  struct Case {
    Program program;
    std::string goal;
    UnionOfCqs theta;
  };
  std::vector<Case> cases;
  {
    UnionOfCqs t1;
    t1.Add(MustParseCq("buys(X, Y) :- likes(X, Y)."));
    t1.Add(MustParseCq("buys(X, Y) :- trendy(X), likes(Z, Y)."));
    cases.push_back({Buys1Program(), "buys", t1});
    UnionOfCqs t2;
    t2.Add(MustParseCq("buys(X, Y) :- likes(X, Y)."));
    t2.Add(MustParseCq("buys(X, Y) :- knows(X, Z), likes(Z, Y)."));
    cases.push_back({Buys2Program(), "buys", t2});
  }
  {
    Program tc = TransitiveClosureProgram("e", "e");
    cases.push_back({tc, "p", PathQueries(2)});
    UnionOfCqs top;
    top.Add(MustParseCq("p(X, Y) :- ."));
    cases.push_back({tc, "p", top});
    UnionOfCqs diag;
    diag.Add(MustParseCq("p(X, X) :- ."));
    cases.push_back({tc, "p", diag});
  }
  {
    Program reach = MustParseProgram(R"(
      r(X) :- e(root, X).
      r(X) :- r(Y), e(Y, X).
    )");
    UnionOfCqs incoming;
    incoming.Add(MustParseCq("r(X) :- e(Y, X)."));
    cases.push_back({reach, "r", incoming});
    UnionOfCqs from_root;
    from_root.Add(MustParseCq("r(X) :- e(root, X)."));
    cases.push_back({reach, "r", from_root});
  }
  {
    Program evenodd = MustParseProgram(R"(
      even(X) :- zero(X).
      even(X) :- succ(Y, X), odd(Y).
      odd(X) :- succ(Y, X), even(Y).
    )");
    UnionOfCqs step;
    step.Add(MustParseCq("odd(X) :- succ(Y, X)."));
    cases.push_back({evenodd, "odd", step});
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    LinearContainmentResult via_word =
        MustDecideLinear(cases[i].program, cases[i].goal, cases[i].theta);
    StatusOr<ContainmentDecision> via_tree = DecideDatalogInUcq(
        cases[i].program, cases[i].goal, cases[i].theta);
    ASSERT_TRUE(via_tree.ok());
    EXPECT_EQ(via_word.contained, via_tree->contained) << "case " << i;
    if (!via_word.contained) {
      EXPECT_TRUE(
          ValidateProofTree(cases[i].program, *via_word.counterexample).ok())
          << "case " << i;
      EXPECT_FALSE(AnyDisjunctMapsStrongly(
          cases[i].program, *via_word.counterexample, cases[i].theta))
          << "case " << i;
    }
  }
}

TEST(LinearDeciderTest, CounterexamplesAreShortestPaths) {
  Program tc = TransitiveClosureProgram("e", "e");
  LinearContainmentResult result =
      MustDecideLinear(tc, "p", PathQueries(3));
  ASSERT_FALSE(result.contained);
  // The shortest uncovered expansion is the path of length 4 (4 nodes).
  EXPECT_EQ(result.counterexample->Size(), 4u);
}

TEST(LinearDeciderTest, ChainProgramScaling) {
  // ChainProgram(2) derives paths of odd length; the union of odd paths up
  // to 3 misses length 5.
  Program chain = ChainProgram(2);
  UnionOfCqs odd_paths;
  odd_paths.Add(ChainQuery(1));
  odd_paths.Add(ChainQuery(3));
  LinearContainmentResult result = MustDecideLinear(chain, "p", odd_paths);
  ASSERT_FALSE(result.contained);
  EXPECT_EQ(result.counterexample->Size(), 3u);  // 2+2+1 edges over 3 nodes
}

// The heaviest tc-family shape the seed-1 corpus runs through the linear
// arm: the step-2 chain stepper against a union of four path queries.
std::optional<corpus::CorpusInstance> HeaviestCorpusTcInstance() {
  corpus::CorpusGenOptions options;
  options.count = 200;
  const std::string stepper = ChainProgram(2).ToString();
  for (corpus::CorpusInstance& instance : corpus::GenerateCorpus(options)) {
    if (instance.program.ToString() == stepper &&
        instance.theta.size() == 4) {
      return std::move(instance);
    }
  }
  return std::nullopt;
}

// A reference search: every theta state is expanded before the eager
// Nfa::Contains runs on the full union.
StatusOr<Nfa::ContainmentResult> ExpandAllThenSearch(
    const Nfa& ptrees, const Nfa& theta, const Nfa::Expander& expand_theta,
    const Nfa::ContainmentOptions& options) {
  for (std::size_t s = 0; s < theta.num_states(); ++s) {
    Status status = expand_theta(static_cast<int>(s));
    if (!status.ok()) return status;
  }
  return Nfa::Contains(ptrees, theta, options);
}

// Pins the breadth-first containment search on the heaviest corpus tc
// instance. The number of explored (state, subset) pairs and the decoded
// counterexample depend on the order Nfa::Contains visits symbols and
// successors, so a kernel change that reorders the search fails here;
// the alphabet and ptrees sizes pin the input that search runs on, and
// the theta count the states the on-demand union materialises.
TEST(LinearDeciderTest, PinsSearchOnHeaviestCorpusTcInstance) {
  std::optional<corpus::CorpusInstance> heavy = HeaviestCorpusTcInstance();
  ASSERT_TRUE(heavy.has_value());
  LinearContainmentResult result =
      MustDecideLinear(heavy->program, heavy->goal, heavy->theta);
  ASSERT_FALSE(result.contained);
  EXPECT_EQ(result.alphabet_size, 4160u);
  EXPECT_EQ(result.ptrees_states, 65u);
  EXPECT_EQ(result.theta_states, 5208u);
  EXPECT_EQ(result.pairs_explored, 499u);
  EXPECT_EQ(result.counterexample->ToString(),
            "(p($0, $0)  |  p($0, $0) :- e($0, $1), e($1, $2), p($2, $0).)\n"
            "  (p($2, $0)  |  p($2, $0) :- e($2, $1), e($1, $3), p($3, $0).)\n"
            "    (p($3, $0)  |  p($3, $0) :- e($3, $0).)\n");
}

// Fully expanded, the on-demand union is the eager union of the
// disjuncts' automata (6,348 states on this instance), and searching it
// explores the same pairs and finds the same counterexample.
TEST(LinearDeciderTest, FullyExpandedUnionMatchesOnDemandSearch) {
  std::optional<corpus::CorpusInstance> heavy = HeaviestCorpusTcInstance();
  ASSERT_TRUE(heavy.has_value());
  LinearContainmentResult on_demand =
      MustDecideLinear(heavy->program, heavy->goal, heavy->theta);
  StatusOr<LinearContainmentResult> expanded =
      DecideLinearDatalogInUcq(heavy->program, heavy->goal, heavy->theta,
                               LinearContainmentOptions(),
                               ExpandAllThenSearch);
  ASSERT_TRUE(expanded.ok()) << expanded.status();
  EXPECT_EQ(expanded->theta_states, 6348u);
  EXPECT_LT(on_demand.theta_states, expanded->theta_states);
  EXPECT_EQ(expanded->pairs_explored, on_demand.pairs_explored);
  ASSERT_FALSE(expanded->contained);
  EXPECT_EQ(expanded->counterexample->ToString(),
            on_demand.counterexample->ToString());
}

// Cross-algorithm agreement: the on-demand word-automaton search must
// match the fully expanded reference exactly (verdict, explored pairs,
// counterexample), and the tree decider and — where `explicit_automata`
// — the explicit tree automata of Theorem 5.11 must reach the same
// verdict.
void ExpectLinearAgrees(const Program& program, const std::string& goal,
                        const UnionOfCqs& theta, const std::string& label,
                        bool explicit_automata) {
  StatusOr<LinearContainmentResult> on_demand =
      DecideLinearDatalogInUcq(program, goal, theta);
  StatusOr<LinearContainmentResult> expanded = DecideLinearDatalogInUcq(
      program, goal, theta, LinearContainmentOptions(), ExpandAllThenSearch);
  ASSERT_TRUE(on_demand.ok()) << label << ": " << on_demand.status();
  ASSERT_TRUE(expanded.ok()) << label << ": " << expanded.status();
  EXPECT_EQ(on_demand->contained, expanded->contained) << label;
  EXPECT_EQ(on_demand->pairs_explored, expanded->pairs_explored) << label;
  EXPECT_EQ(on_demand->alphabet_size, expanded->alphabet_size) << label;
  EXPECT_EQ(on_demand->ptrees_states, expanded->ptrees_states) << label;
  EXPECT_LE(on_demand->theta_states, expanded->theta_states) << label;
  ASSERT_EQ(on_demand->counterexample.has_value(),
            expanded->counterexample.has_value())
      << label;
  if (on_demand->counterexample.has_value()) {
    EXPECT_EQ(on_demand->counterexample->ToString(),
              expanded->counterexample->ToString())
        << label;
    EXPECT_TRUE(ValidateProofTree(program, *on_demand->counterexample).ok())
        << label;
    EXPECT_FALSE(
        AnyDisjunctMapsStrongly(program, *on_demand->counterexample, theta))
        << label;
  }
  StatusOr<ContainmentDecision> via_tree =
      DecideDatalogInUcq(program, goal, theta);
  ASSERT_TRUE(via_tree.ok()) << label << ": " << via_tree.status();
  EXPECT_EQ(via_tree->contained, on_demand->contained) << label;
  if (explicit_automata) {
    StatusOr<ExplicitContainmentResult> via_explicit =
        DecideContainmentViaExplicitAutomata(program, goal, theta);
    ASSERT_TRUE(via_explicit.ok()) << label << ": " << via_explicit.status();
    EXPECT_EQ(via_explicit->contained, on_demand->contained) << label;
  }
}

TEST(LinearAgreementTest, FixedCasesAgreeAcrossDeciders) {
  struct Case {
    std::string name;
    Program program;
    std::string goal;
    UnionOfCqs theta;
  };
  std::vector<Case> cases;
  {
    UnionOfCqs t1;
    t1.Add(MustParseCq("buys(X, Y) :- likes(X, Y)."));
    t1.Add(MustParseCq("buys(X, Y) :- trendy(X), likes(Z, Y)."));
    cases.push_back({"buys1", Buys1Program(), "buys", t1});
    UnionOfCqs t2;
    t2.Add(MustParseCq("buys(X, Y) :- likes(X, Y)."));
    t2.Add(MustParseCq("buys(X, Y) :- knows(X, Z), likes(Z, Y)."));
    cases.push_back({"buys2", Buys2Program(), "buys", t2});
  }
  {
    Program tc = TransitiveClosureProgram("e", "e");
    cases.push_back({"tc_paths", tc, "p", PathQueries(3)});
    UnionOfCqs top;
    top.Add(MustParseCq("p(X, Y) :- ."));
    cases.push_back({"tc_top", tc, "p", top});
    UnionOfCqs diag;
    diag.Add(MustParseCq("p(X, X) :- ."));
    cases.push_back({"tc_diag", tc, "p", diag});
    cases.push_back({"tc_empty", tc, "p", UnionOfCqs()});
  }
  {
    Program reach = MustParseProgram(R"(
      r(X) :- e(root, X).
      r(X) :- r(Y), e(Y, X).
    )");
    UnionOfCqs from_root;
    from_root.Add(MustParseCq("r(X) :- e(root, X)."));
    cases.push_back({"constants", reach, "r", from_root});
  }
  cases.push_back({"chain2", ChainProgram(2), "p", PathQueries(4)});
  for (const Case& c : cases) {
    // The explicit tree automata take seconds on chain2's 4,160 labels.
    ExpectLinearAgrees(c.program, c.goal, c.theta, c.name,
                       /*explicit_automata=*/c.name != "chain2");
  }
}

TEST(LinearAgreementTest, RandomizedExpansionSubsetsAgree) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    std::mt19937_64 rng(seed * 2654435761u + 13);
    std::vector<std::pair<Program, std::string>> families;
    families.push_back({Buys1Program(), "buys"});
    families.push_back({TransitiveClosureProgram("e", "e"), "p"});
    families.push_back({ChainProgram(2), "p"});
    const auto& [program, goal] = families[seed % families.size()];
    EnumerateOptions enumerate;
    enumerate.max_depth = 1 + static_cast<std::size_t>(rng() % 2);
    enumerate.max_trees = 100;
    UnionOfCqs expansions = BoundedExpansions(program, goal, enumerate);
    UnionOfCqs theta;
    for (const ConjunctiveQuery& disjunct : expansions.disjuncts()) {
      if (rng() % 2 == 0) theta.Add(disjunct);
      if (theta.size() >= 4) break;
    }
    ExpectLinearAgrees(program, goal, theta, StrCat("seed ", seed),
                       /*explicit_automata=*/true);
  }
}

}  // namespace
}  // namespace datalog

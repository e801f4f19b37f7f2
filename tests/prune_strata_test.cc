// Tests for the static-analysis layers the engine and deciders always
// run. SCC-stratified evaluation, serial and staged parallel, must
// compute corpus::NaiveFixpoint's fixpoint (tests/naive_oracle.h) on
// fixed program families crossed with seeded random databases, with the
// EvalStats strata accounting pinned. Goal-directed rule pruning (the
// decider, the canonical-database direction, the linear arm and the
// ptrees builder) must give every verdict and counterexample witness of
// a program with junk rules exactly as the same call gives them on a
// hand-pruned copy; the copy is itself checked against a direct
// backward closure over the rules, and the alphabets against a direct
// unpruned BuildProgramAlphabet. Also pins the PruneForEvaluation
// active-domain guard end to end.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/reachability.h"
#include "src/analysis/stratify.h"
#include "src/ast/analysis.h"
#include "src/containment/decider.h"
#include "src/containment/linear.h"
#include "src/containment/ptrees_automaton.h"
#include "src/containment/theta_automaton.h"
#include "src/containment/ucq_in_datalog.h"
#include "src/engine/eval.h"
#include "src/engine/random_db.h"
#include "src/generators/examples.h"
#include "src/util/strings.h"
#include "tests/naive_oracle.h"
#include "tests/test_util.h"

namespace datalog {
namespace {

// --- stratified evaluation: the naive oracle's fixpoint ----------------

struct StrataCase {
  std::string name;
  Program program;
  int expected_strata;
};

std::vector<StrataCase> StrataCases() {
  std::vector<StrataCase> cases;
  cases.push_back({"tc", TransitiveClosureProgram("e", "e"), 1});
  cases.push_back({"layered", MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
    q(X, Y) :- p(X, Y), p(Y, X).
    r(X) :- q(X, X).
  )"), 3});
  cases.push_back({"mutual", MustParseProgram(R"(
    odd(X, Y) :- e(X, Y).
    odd(X, Y) :- even(X, Z), e(Z, Y).
    even(X, Y) :- odd(X, Z), e(Z, Y).
    reach(X, Y) :- odd(X, Y).
    reach(X, Y) :- even(X, Y).
    top(X) :- reach(X, X).
  )"), 3});
  cases.push_back({"dist3", DistProgram(3), 4});
  // Unsafe base cases (active-domain semantics) under stratification;
  // dist0..2 and distle0..2 are each their own SCC.
  cases.push_back({"distle2", DistLeProgram(2), 6});
  return cases;
}

TEST(StratifiedEvalTest, StratifiedArmsMatchNaiveFixpoint) {
  for (const StrataCase& c : StrataCases()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      RandomDbOptions db_options;
      db_options.domain_size = 4;
      db_options.tuples_per_relation = 6;
      db_options.seed = seed;
      Database edb = RandomDatabaseFor(c.program, db_options);
      const std::set<Atom> want = NaiveOracleFixpoint(c.program, edb);

      struct Arm {
        const char* name;
        int num_threads;
      };
      const Arm arms[] = {{"serial", 1}, {"pool", 3}};
      for (const Arm& arm : arms) {
        EvalOptions options;
        options.num_threads = arm.num_threads;
        EvalStats stats;
        StatusOr<Database> got =
            EvaluateProgram(c.program, edb, options, &stats);
        ASSERT_TRUE(got.ok()) << c.name << " " << arm.name << " "
                              << got.status();
        EXPECT_TRUE(SameFactSet(*got, want))
            << c.name << " seed=" << seed << " arm=" << arm.name;
        EXPECT_EQ(stats.strata, c.expected_strata)
            << c.name << " " << arm.name;
        // Every round of a multi-stratum program skips the other strata's
        // rules; a single stratum skips nothing.
        EXPECT_EQ(stats.rounds_saved > 0, c.expected_strata > 1)
            << c.name << " " << arm.name;
        if (arm.num_threads > 1) {
          // Every round of every stratum runs as a staged parallel round.
          EXPECT_EQ(stats.rounds_parallel, stats.iterations)
              << c.name << " " << arm.name;
        }
      }
    }
  }
}

TEST(StratifiedEvalTest, MultiStratumProgramSavesRounds) {
  Database edb;
  edb.AddFact("e", {"a", "b"});
  edb.AddFact("e", {"b", "c"});
  edb.AddFact("e", {"c", "a"});
  EvalStats stats;
  EvalOptions options;
  StatusOr<Database> result =
      EvaluateProgram(DistProgram(3), edb, options, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(stats.strata, 4);
  // Each stratum's rounds skip the other strata's rules; a flat fixpoint
  // would have evaluated them all every round.
  EXPECT_GT(stats.rounds_saved, 0u);
}

// A single-SCC program runs as one group: the same rounds and probes as
// the retired unstratified (flat) fixpoint, which took 3 rounds and 7
// candidate probes here.
TEST(StratifiedEvalTest, SingleStratumDegeneratesToFlatFixpoint) {
  Database edb;
  edb.AddFact("e", {"a", "b"});
  edb.AddFact("e", {"b", "c"});
  Program tc = TransitiveClosureProgram("e", "e");
  EvalStats stats;
  StatusOr<Database> result = EvaluateProgram(tc, edb, EvalOptions(), &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(SameFactSet(*result, NaiveOracleFixpoint(tc, edb)));
  EXPECT_EQ(stats.strata, 1);
  EXPECT_EQ(stats.rounds_saved, 0u);
  EXPECT_EQ(stats.iterations, 3);
  EXPECT_EQ(stats.join_probes, 7u);
}

// --- goal-directed rule pruning: the reference programs ----------------

// TC plus two unreachable rules, interleaved with the real ones: a
// self-recursive island that *reads* the goal predicate (reachability is
// over head predicates, so it still cannot contribute to a p-proof) and a
// rule carrying a constant.
Program TcWithJunk() {
  return MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    junk(X) :- p(X, X), junk(X).
    p(X, Y) :- e(X, Z), p(Z, Y).
    junk2(X) :- g(X, a).
  )");
}

// TcWithJunk with its junk rules deleted by hand.
Program TcHandPruned() {
  return MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
  )");
}

TEST(PruneReferenceTest, HandPrunedCopiesAreTheBackwardClosure) {
  EXPECT_EQ(BackwardClosure(TcWithJunk(), "p"), TcHandPruned());
  EXPECT_EQ(BackwardClosure(TcHandPruned(), "p"), TcHandPruned());
}

void ExpectSameTree(const std::optional<ExpansionTree>& got,
                    const std::optional<ExpansionTree>& want,
                    const std::string& label) {
  ASSERT_EQ(got.has_value(), want.has_value()) << label;
  if (got.has_value()) {
    EXPECT_EQ(got->ToString(), want->ToString()) << label;
  }
}

// --- decider ------------------------------------------------------------

TEST(DeciderPruneTest, VerdictAndWitnessMatchHandPrunedCopy) {
  Program program = TcWithJunk();
  struct ThetaCase {
    std::string name;
    UnionOfCqs theta;
  };
  std::vector<ThetaCase> thetas;
  thetas.push_back({"paths3", PathQueries(3)});  // not contained: witness
  {
    UnionOfCqs top;
    top.Add(MustParseCq("p(X, Y) :- ."));
    thetas.push_back({"top", std::move(top)});  // contained
  }
  const std::size_t junk_rules =
      program.rules().size() - BackwardClosure(program, "p").rules().size();
  ASSERT_EQ(junk_rules, 2u);
  for (const ThetaCase& t : thetas) {
    StatusOr<ContainmentDecision> pruned =
        DecideDatalogInUcq(program, "p", t.theta);
    StatusOr<ContainmentDecision> reference =
        DecideDatalogInUcq(TcHandPruned(), "p", t.theta);
    ASSERT_TRUE(pruned.ok()) << t.name << " " << pruned.status();
    ASSERT_TRUE(reference.ok()) << t.name << " " << reference.status();
    EXPECT_EQ(pruned->contained, reference->contained) << t.name;
    ExpectSameTree(pruned->counterexample, reference->counterexample, t.name);
    EXPECT_EQ(pruned->stats.rules_pruned, junk_rules) << t.name;
    EXPECT_EQ(reference->stats.rules_pruned, 0u) << t.name;
    // The explicit A^ptrees / A^θ pipeline agrees on the junk program.
    StatusOr<ExplicitContainmentResult> explicit_result =
        DecideContainmentViaExplicitAutomata(program, "p", t.theta);
    ASSERT_TRUE(explicit_result.ok()) << t.name;
    EXPECT_EQ(explicit_result->contained, pruned->contained) << t.name;
  }
}

TEST(DeciderPruneTest, AllReachableProgramPrunesNothing) {
  ContainmentOptions options;
  StatusOr<ContainmentDecision> decision = DecideDatalogInUcq(
      TransitiveClosureProgram("e", "e"), "p", PathQueries(3), options);
  ASSERT_TRUE(decision.ok()) << decision.status();
  EXPECT_EQ(decision->stats.rules_pruned, 0u);
}

// --- canonical-database direction --------------------------------------

TEST(CanonicalDbPruneTest, VerdictMatchesHandPrunedCopy) {
  Program program = TcWithJunk();
  UnionOfCqs theta = PathQueries(2);  // each path CQ is contained in TC
  StatusOr<bool> contained =
      IsUcqContainedInDatalog(theta, program, "p", nullptr);
  ASSERT_TRUE(contained.ok()) << contained.status();
  EXPECT_TRUE(*contained);
  // Not-contained side: a CQ the program cannot derive.
  UnionOfCqs miss;
  miss.Add(MustParseCq("p(X, Y) :- f(X, Y)."));
  std::size_t failing_pruned = 99;
  std::size_t failing_reference = 99;
  StatusOr<bool> pruned = IsUcqContainedInDatalog(
      miss, program, "p", nullptr, CanonicalDbOptions(), &failing_pruned);
  StatusOr<bool> reference =
      IsUcqContainedInDatalog(miss, TcHandPruned(), "p", nullptr,
                              CanonicalDbOptions(), &failing_reference);
  ASSERT_TRUE(pruned.ok() && reference.ok());
  EXPECT_FALSE(*pruned);
  EXPECT_FALSE(*reference);
  EXPECT_EQ(failing_pruned, failing_reference);
}

TEST(CanonicalDbPruneTest, ActiveDomainGuardKeepsVerdictsEqual) {
  // The unsafe retained rule plus a junk-only constant is exactly the
  // corner where naive pruning could change the engine's answer:
  // PruneForEvaluation declines there, so the call evaluates the whole
  // program and gives the unpruned verdict (contained).
  ParseOptions raw;
  raw.lint = false;
  StatusOr<Program> program = ParseProgram(R"(
    zero(X) :- .
    p(X) :- zero(X).
    junk(X) :- e(X, a).
  )", raw);
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_TRUE(PruneUnreachableRules(*program, "p").has_value());
  EXPECT_FALSE(PruneForEvaluation(*program, "p").has_value());
  // Head variable X of θ ranges over the canonical database's active
  // domain, which includes the program constant `a`.
  UnionOfCqs theta;
  theta.Add(MustParseCq("p(X) :- ."));
  StatusOr<bool> contained =
      IsUcqContainedInDatalog(theta, *program, "p", nullptr);
  ASSERT_TRUE(contained.ok()) << contained.status();
  EXPECT_TRUE(*contained);
}

// --- linear fragment and ptrees alphabet -------------------------------

TEST(LinearPruneTest, PrunedLinearArmMatchesHandPrunedCopy) {
  Program program = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
    junk(X) :- f(X, X), junk(X).
  )");
  Program hand_pruned = BackwardClosure(program, "p");
  ASSERT_EQ(hand_pruned, TcHandPruned());
  StatusOr<ProgramAlphabet> unpruned_alphabet = BuildProgramAlphabet(program);
  ASSERT_TRUE(unpruned_alphabet.ok()) << unpruned_alphabet.status();
  for (int max_length : {3, 8}) {
    UnionOfCqs theta = PathQueries(max_length);
    StatusOr<LinearContainmentResult> pruned =
        DecideLinearDatalogInUcq(program, "p", theta);
    StatusOr<LinearContainmentResult> reference =
        DecideLinearDatalogInUcq(hand_pruned, "p", theta);
    ASSERT_TRUE(pruned.ok()) << pruned.status();
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_EQ(pruned->contained, reference->contained);
    ExpectSameTree(pruned->counterexample, reference->counterexample,
                   StrCat("paths", max_length));
    EXPECT_EQ(pruned->alphabet_size, reference->alphabet_size);
    EXPECT_LT(pruned->alphabet_size, unpruned_alphabet->num_labels());
  }
}

TEST(LinearPruneTest, PruningAdmitsNonlinearUnreachablePart) {
  // The junk island is nonlinear in IDB, so the whole program is outside
  // the linear fragment; only its reachable part is decided.
  Program program = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
    junk(X, Y) :- junk(X, Z), junk(Z, Y).
  )");
  EXPECT_FALSE(IsLinearInIdb(program));
  StatusOr<LinearContainmentResult> pruned =
      DecideLinearDatalogInUcq(program, "p", PathQueries(3));
  ASSERT_TRUE(pruned.ok()) << pruned.status();
  EXPECT_FALSE(pruned->contained);
  StatusOr<LinearContainmentResult> reference =
      DecideLinearDatalogInUcq(TcHandPruned(), "p", PathQueries(3));
  ASSERT_TRUE(reference.ok()) << reference.status();
  ExpectSameTree(pruned->counterexample, reference->counterexample,
                 "nonlinear junk");
}

TEST(PtreesPruneTest, PrunedPtreesMatchHandPrunedCopy) {
  Program program = TcWithJunk();
  StatusOr<PtreesAutomaton> pruned = BuildPtreesAutomaton(program, "p");
  StatusOr<PtreesAutomaton> reference =
      BuildPtreesAutomaton(TcHandPruned(), "p");
  StatusOr<ProgramAlphabet> unpruned_alphabet = BuildProgramAlphabet(program);
  ASSERT_TRUE(pruned.ok()) << pruned.status();
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(unpruned_alphabet.ok()) << unpruned_alphabet.status();
  EXPECT_LT(pruned->alphabet.num_labels(), unpruned_alphabet->num_labels());
  ASSERT_EQ(pruned->alphabet.num_labels(), reference->alphabet.num_labels());
  for (std::size_t s = 0; s < pruned->alphabet.num_labels(); ++s) {
    EXPECT_EQ(pruned->alphabet.Label(s).ToString(),
              reference->alphabet.Label(s).ToString());
  }
  EXPECT_EQ(pruned->num_states(), reference->num_states());
  EXPECT_EQ(pruned->nfta.transitions().size(),
            reference->nfta.transitions().size());
}

}  // namespace
}  // namespace datalog

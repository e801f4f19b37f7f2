// Differential tests for the static-analysis ablation switches: on fixed
// program families crossed with seeded random databases, SCC-stratified
// evaluation (EvalOptions::use_strata) must produce the same least
// fixpoint — every relation, as a tuple set — as the unstratified engine,
// across naive/semi-naive and serial/parallel arms; and goal-directed
// rule pruning (ContainmentOptions / CanonicalDbOptions /
// LinearContainmentOptions / BuildPtreesAutomaton `prune_unreachable`)
// must leave every verdict and counterexample witness byte-identical
// while shrinking the alphabets and per-round rule set. Also pins the
// EvalStats strata accounting and the PruneForEvaluation active-domain
// guard end to end.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/analysis/stratify.h"
#include "src/containment/decider.h"
#include "src/containment/linear.h"
#include "src/containment/ptrees_automaton.h"
#include "src/containment/ucq_in_datalog.h"
#include "src/engine/eval.h"
#include "src/engine/random_db.h"
#include "src/generators/examples.h"
#include "src/util/strings.h"
#include "tests/test_util.h"

namespace datalog {
namespace {

// --- stratified evaluation: same fixpoint on every arm -----------------

// Both databases come from evaluating the same program over the same EDB,
// so dictionaries and encodings agree; only row order may differ, which
// Relation::operator== (set comparison) absorbs.
void ExpectSameFixpoint(const Database& got, const Database& want,
                        const std::string& label) {
  ASSERT_EQ(got.predicates().size(), want.predicates().size()) << label;
  for (PredicateId id = 0;
       id < static_cast<PredicateId>(want.predicates().size()); ++id) {
    const std::string& name = want.predicates().NameOf(id);
    PredicateId got_id = got.predicates().Lookup(name);
    ASSERT_NE(got_id, kNoPredicate) << label << " missing " << name;
    EXPECT_TRUE(got.RelationOf(got_id) == want.RelationOf(id))
        << label << " differs on " << name;
  }
}

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

TEST(StratifiedEvalTest, DifferentialAgainstUnstratifiedArms) {
  for (const StrataCase& c : StrataCases()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      RandomDbOptions db_options;
      db_options.domain_size = 4;
      db_options.tuples_per_relation = 6;
      db_options.seed = seed;
      Database edb = RandomDatabaseFor(c.program, db_options);

      EvalOptions reference_options;
      reference_options.use_strata = false;
      StatusOr<Database> reference =
          EvaluateProgram(c.program, edb, reference_options);
      ASSERT_TRUE(reference.ok()) << c.name << " " << reference.status();

      struct Arm {
        const char* name;
        bool semi_naive;
        bool use_strata;
        int num_threads;
      };
      const Arm arms[] = {
          {"semi/strata/serial", true, true, 1},
          {"semi/strata/pool", true, true, 3},
          {"semi/flat/pool", true, false, 3},
          {"naive/strata/serial", false, true, 1},
          {"naive/flat/serial", false, false, 1},
      };
      for (const Arm& arm : arms) {
        EvalOptions options;
        options.semi_naive = arm.semi_naive;
        options.use_strata = arm.use_strata;
        options.num_threads = arm.num_threads;
        EvalStats stats;
        StatusOr<Database> got =
            EvaluateProgram(c.program, edb, options, &stats);
        ASSERT_TRUE(got.ok()) << c.name << " " << arm.name << " "
                              << got.status();
        ExpectSameFixpoint(
            *got, *reference,
            StrCat(c.name, " seed=", seed, " arm=", arm.name));
        if (arm.use_strata) {
          EXPECT_EQ(stats.strata, c.expected_strata)
              << c.name << " " << arm.name;
        } else {
          EXPECT_EQ(stats.strata, 1) << c.name << " " << arm.name;
          EXPECT_EQ(stats.rounds_saved, 0u) << c.name << " " << arm.name;
        }
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
  EvalOptions options;  // defaults: semi-naive, strata on
  StatusOr<Database> result =
      EvaluateProgram(DistProgram(3), edb, options, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(stats.strata, 4);
  // Each stratum's rounds skip the other strata's rules; a flat fixpoint
  // would have evaluated them all every round.
  EXPECT_GT(stats.rounds_saved, 0u);
}

TEST(StratifiedEvalTest, SingleStratumDegeneratesToFlatFixpoint) {
  Database edb;
  edb.AddFact("e", {"a", "b"});
  edb.AddFact("e", {"b", "c"});
  Program tc = TransitiveClosureProgram("e", "e");
  EvalStats with_strata;
  EvalStats without;
  EvalOptions on;
  EvalOptions off;
  off.use_strata = false;
  ASSERT_TRUE(EvaluateProgram(tc, edb, on, &with_strata).ok());
  ASSERT_TRUE(EvaluateProgram(tc, edb, off, &without).ok());
  EXPECT_EQ(with_strata.strata, 1);
  EXPECT_EQ(with_strata.rounds_saved, 0u);
  EXPECT_EQ(with_strata.iterations, without.iterations);
  EXPECT_EQ(with_strata.join_probes, without.join_probes);
}

// --- decider: goal-directed rule pruning -------------------------------

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

void ExpectSameDecision(const ContainmentDecision& got,
                        const ContainmentDecision& want,
                        const std::string& label) {
  EXPECT_EQ(got.contained, want.contained) << label;
  ASSERT_EQ(got.counterexample.has_value(), want.counterexample.has_value())
      << label;
  if (got.counterexample.has_value()) {
    EXPECT_EQ(got.counterexample->ToString(),
              want.counterexample->ToString())
        << label;
  }
}

TEST(DeciderPruneTest, VerdictAndWitnessIdenticalAcrossPruneArms) {
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
  for (const ThetaCase& t : thetas) {
    ContainmentOptions with_prune;
    with_prune.prune_unreachable = true;
    ContainmentOptions without_prune = with_prune;
    without_prune.prune_unreachable = false;
    StatusOr<ContainmentDecision> pruned =
        DecideDatalogInUcq(program, "p", t.theta, with_prune);
    StatusOr<ContainmentDecision> full =
        DecideDatalogInUcq(program, "p", t.theta, without_prune);
    ASSERT_TRUE(pruned.ok()) << t.name << " " << pruned.status();
    ASSERT_TRUE(full.ok()) << t.name << " " << full.status();
    ExpectSameDecision(*pruned, *full, t.name);
    EXPECT_EQ(pruned->stats.rules_pruned, 2u) << t.name;
    EXPECT_EQ(full->stats.rules_pruned, 0u) << t.name;
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

TEST(CanonicalDbPruneTest, VerdictIdenticalAcrossPruneArms) {
  Program program = TcWithJunk();
  UnionOfCqs theta = PathQueries(2);  // each path CQ is contained in TC
  for (bool prune : {true, false}) {
    CanonicalDbOptions options;
    options.prune_unreachable = prune;
    std::size_t failing = 99;
    StatusOr<bool> contained =
        IsUcqContainedInDatalog(theta, program, "p", nullptr, options,
                                &failing);
    ASSERT_TRUE(contained.ok()) << contained.status();
    EXPECT_TRUE(*contained) << "prune=" << prune;
  }
  // Not-contained side: a CQ the program cannot derive.
  UnionOfCqs miss;
  miss.Add(MustParseCq("p(X, Y) :- f(X, Y)."));
  std::size_t failing_pruned = 99;
  std::size_t failing_full = 99;
  CanonicalDbOptions on;
  CanonicalDbOptions off;
  off.prune_unreachable = false;
  StatusOr<bool> pruned =
      IsUcqContainedInDatalog(miss, program, "p", nullptr, on,
                              &failing_pruned);
  StatusOr<bool> full =
      IsUcqContainedInDatalog(miss, program, "p", nullptr, off,
                              &failing_full);
  ASSERT_TRUE(pruned.ok() && full.ok());
  EXPECT_FALSE(*pruned);
  EXPECT_FALSE(*full);
  EXPECT_EQ(failing_pruned, failing_full);
}

TEST(CanonicalDbPruneTest, ActiveDomainGuardKeepsVerdictsEqual) {
  // The unsafe retained rule plus a junk-only constant is exactly the
  // corner where naive pruning would change the engine's answer;
  // PruneForEvaluation declines there, so both arms must agree.
  ParseOptions raw;
  raw.lint = false;
  StatusOr<Program> program = ParseProgram(R"(
    zero(X) :- .
    p(X) :- zero(X).
    junk(X) :- e(X, a).
  )", raw);
  ASSERT_TRUE(program.ok()) << program.status();
  // Head variable X of θ ranges over the canonical database's active
  // domain, which includes the program constant `a`.
  UnionOfCqs theta;
  theta.Add(MustParseCq("p(X) :- ."));
  CanonicalDbOptions on;
  CanonicalDbOptions off;
  off.prune_unreachable = false;
  StatusOr<bool> pruned =
      IsUcqContainedInDatalog(theta, *program, "p", nullptr, on);
  StatusOr<bool> full =
      IsUcqContainedInDatalog(theta, *program, "p", nullptr, off);
  ASSERT_TRUE(pruned.ok()) << pruned.status();
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(*pruned, *full);
}

// --- linear fragment and ptrees alphabet -------------------------------

TEST(LinearPruneTest, PruningShrinksAlphabetWithoutChangingVerdict) {
  Program program = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
    junk(X) :- f(X, X), junk(X).
  )");
  for (int max_length : {3, 8}) {
    UnionOfCqs theta = PathQueries(max_length);
    LinearContainmentOptions on;
    LinearContainmentOptions off;
    off.prune_unreachable = false;
    StatusOr<LinearContainmentResult> pruned =
        DecideLinearDatalogInUcq(program, "p", theta, on);
    StatusOr<LinearContainmentResult> full =
        DecideLinearDatalogInUcq(program, "p", theta, off);
    ASSERT_TRUE(pruned.ok()) << pruned.status();
    ASSERT_TRUE(full.ok()) << full.status();
    EXPECT_EQ(pruned->contained, full->contained);
    ASSERT_EQ(pruned->counterexample.has_value(),
              full->counterexample.has_value());
    if (pruned->counterexample.has_value()) {
      EXPECT_EQ(pruned->counterexample->ToString(),
                full->counterexample->ToString());
    }
    EXPECT_LT(pruned->alphabet_size, full->alphabet_size);
  }
}

TEST(LinearPruneTest, PruningAdmitsNonlinearUnreachablePart) {
  // The junk island is nonlinear in IDB; only the pruned arm can decide
  // this program at all.
  Program program = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
    junk(X, Y) :- junk(X, Z), junk(Z, Y).
  )");
  LinearContainmentOptions on;
  StatusOr<LinearContainmentResult> pruned =
      DecideLinearDatalogInUcq(program, "p", PathQueries(3), on);
  ASSERT_TRUE(pruned.ok()) << pruned.status();
  EXPECT_FALSE(pruned->contained);

  LinearContainmentOptions off;
  off.prune_unreachable = false;
  StatusOr<LinearContainmentResult> full =
      DecideLinearDatalogInUcq(program, "p", PathQueries(3), off);
  EXPECT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kInvalidArgument);
}

TEST(PtreesPruneTest, PruningShrinksPtreesAlphabet) {
  Program program = TcWithJunk();
  StatusOr<PtreesAutomaton> pruned = BuildPtreesAutomaton(
      program, "p", ExecutionLimits(), /*prune_unreachable=*/true);
  StatusOr<PtreesAutomaton> full = BuildPtreesAutomaton(
      program, "p", ExecutionLimits(), /*prune_unreachable=*/false);
  ASSERT_TRUE(pruned.ok()) << pruned.status();
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_LT(pruned->alphabet.num_labels(), full->alphabet.num_labels());
  // TC alone builds the same alphabet as the pruned junk program: the
  // prune is exactly "restrict to the reachable subprogram".
  StatusOr<PtreesAutomaton> tc_only =
      BuildPtreesAutomaton(TransitiveClosureProgram("e", "e"), "p");
  ASSERT_TRUE(tc_only.ok()) << tc_only.status();
  EXPECT_EQ(pruned->alphabet.num_labels(), tc_only->alphabet.num_labels());
}

}  // namespace
}  // namespace datalog

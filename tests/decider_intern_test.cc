// Differential testing of the decider's memoization substrates: on
// program families crossed with randomized unions of bounded expansions,
// the IR path (dense TermId pinned images, renamed-set memo) and the
// interned path (dense goal/instance ids, flat integer memo rows, but
// Term-based achieved sets) must return byte-identical
// ContainmentDecisions — verdict, counterexample witness tree, and state
// counts — to the string-keyed baseline both replaced, with and without
// antichain pruning. The CQ-layer homomorphism search gets the same
// treatment: IR and string substrates must find identical containment
// mappings and minimization outputs. Also pins the 64-atom mask-overflow
// guard: a disjunct too wide for the 64-bit atom masks must be rejected
// with InvalidArgumentError up front, never reaching the
// `1 << atom_index` shifts in absorb.cc.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/containment/decider.h"
#include "src/containment/ptrees_automaton.h"
#include "src/containment/query_analysis.h"
#include "src/cq/containment.h"
#include "src/cq/minimize.h"
#include "src/generators/examples.h"
#include "src/ir/ir.h"
#include "src/trees/enumerate.h"
#include "src/util/strings.h"
#include "tests/test_util.h"

namespace datalog {
namespace {

struct DeciderCase {
  std::string name;
  Program program;
  std::string goal;
  UnionOfCqs theta;
};

void ExpectSameDecision(const ContainmentDecision& interned,
                        const ContainmentDecision& string_keyed,
                        const std::string& label) {
  EXPECT_EQ(interned.contained, string_keyed.contained) << label;
  ASSERT_EQ(interned.counterexample.has_value(),
            string_keyed.counterexample.has_value())
      << label;
  if (interned.counterexample.has_value()) {
    EXPECT_EQ(interned.counterexample->ToString(),
              string_keyed.counterexample->ToString())
        << label;
  }
  EXPECT_EQ(interned.stats.states_discovered,
            string_keyed.stats.states_discovered)
      << label;
  EXPECT_EQ(interned.stats.goals_discovered,
            string_keyed.stats.goals_discovered)
      << label;
  EXPECT_EQ(interned.stats.rounds, string_keyed.stats.rounds) << label;
}

void RunDifferential(const DeciderCase& c) {
  for (bool antichain : {true, false}) {
    ContainmentOptions ir;
    ir.use_ir = true;
    ir.antichain = antichain;
    ContainmentOptions interned;
    interned.use_ir = false;
    interned.intern_memo = true;
    interned.antichain = antichain;
    ContainmentOptions string_keyed;
    string_keyed.use_ir = false;
    string_keyed.intern_memo = false;
    string_keyed.antichain = antichain;
    StatusOr<ContainmentDecision> a =
        DecideDatalogInUcq(c.program, c.goal, c.theta, ir);
    StatusOr<ContainmentDecision> b =
        DecideDatalogInUcq(c.program, c.goal, c.theta, interned);
    StatusOr<ContainmentDecision> d =
        DecideDatalogInUcq(c.program, c.goal, c.theta, string_keyed);
    ASSERT_EQ(a.ok(), d.ok()) << c.name;
    ASSERT_EQ(b.ok(), d.ok()) << c.name;
    if (!d.ok()) {
      EXPECT_EQ(a.status().code(), d.status().code()) << c.name;
      EXPECT_EQ(b.status().code(), d.status().code()) << c.name;
      continue;
    }
    ExpectSameDecision(
        *a, *d, StrCat(c.name, " ir-vs-string antichain=", antichain ? 1 : 0));
    ExpectSameDecision(
        *b, *d,
        StrCat(c.name, " interned-vs-string antichain=", antichain ? 1 : 0));
  }
}

std::vector<DeciderCase> FixedCases() {
  std::vector<DeciderCase> cases;
  {
    UnionOfCqs theta;
    theta.Add(MustParseCq("buys(X, Y) :- likes(X, Y)."));
    theta.Add(MustParseCq("buys(X, Y) :- trendy(X), likes(Z, Y)."));
    cases.push_back({"buys1_rewriting", Buys1Program(), "buys", theta});
  }
  {
    UnionOfCqs theta;
    theta.Add(MustParseCq("buys(X, Y) :- likes(X, Y)."));
    theta.Add(MustParseCq("buys(X, Y) :- knows(X, Z), likes(Z, Y)."));
    cases.push_back({"buys2_attempt", Buys2Program(), "buys", theta});
  }
  {
    cases.push_back({"tc_paths3", TransitiveClosureProgram("e", "e"), "p",
                     PathQueries(3)});
  }
  {
    UnionOfCqs top;
    top.Add(MustParseCq("p(X, Y) :- ."));
    cases.push_back(
        {"tc_top", TransitiveClosureProgram("e", "e"), "p", top});
  }
  {
    UnionOfCqs diagonal;
    diagonal.Add(MustParseCq("p(X, X) :- ."));
    cases.push_back({"tc_diagonal", TransitiveClosureProgram("e", "e"), "p",
                     diagonal});
  }
  {
    cases.push_back({"nonlinear_tc_paths2",
                     NonlinearTransitiveClosureProgram(), "p",
                     PathQueries(2)});
  }
  {
    cases.push_back({"chain2_paths4", ChainProgram(2), "p", PathQueries(4)});
  }
  {
    UnionOfCqs empty;
    cases.push_back(
        {"tc_empty_union", TransitiveClosureProgram("e", "e"), "p", empty});
  }
  {
    Program mutual = MustParseProgram(R"(
      even(X) :- zero(X).
      even(X) :- succ(Y, X), odd(Y).
      odd(X) :- succ(Y, X), even(Y).
    )");
    UnionOfCqs exactly_one;
    exactly_one.Add(MustParseCq("odd(X) :- succ(Y, X), zero(Y)."));
    cases.push_back({"mutual_exactly_one", mutual, "odd", exactly_one});
  }
  {
    Program reach = MustParseProgram(R"(
      r(X) :- e(root, X).
      r(X) :- r(Y), e(Y, X).
    )");
    UnionOfCqs from_root;
    from_root.Add(MustParseCq("r(X) :- e(root, X)."));
    cases.push_back({"constants_from_root", reach, "r", from_root});
  }
  {
    Program loops = MustParseProgram(R"(
      l(X, X) :- e(X, X).
      l(X, Y) :- e(X, Z), l(Z, Y).
    )");
    UnionOfCqs ends_in_loop;
    ends_in_loop.Add(MustParseCq("l(X, Y) :- e(Y, Y)."));
    cases.push_back({"repeated_head_vars", loops, "l", ends_in_loop});
  }
  return cases;
}

TEST(DeciderInternTest, FixedCasesAgreeWithStringKeyedBaseline) {
  for (const DeciderCase& c : FixedCases()) RunDifferential(c);
}

// Randomized pairs: each seed picks a program family and a random subset
// of its bounded expansions as Θ (sometimes topped up with the universal
// CQ), producing a mix of contained and non-contained instances.
class DeciderInternRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(DeciderInternRandomTest, RandomizedExpansionSubsetsAgree) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  std::mt19937_64 rng(seed * 7919 + 1);
  struct Family {
    std::string name;
    Program program;
    std::string goal;
  };
  std::vector<Family> families;
  families.push_back({"buys1", Buys1Program(), "buys"});
  families.push_back({"buys2", Buys2Program(), "buys"});
  families.push_back({"tc", TransitiveClosureProgram("e", "e"), "p"});
  families.push_back({"tc_nl", NonlinearTransitiveClosureProgram(), "p"});
  families.push_back({"chain2", ChainProgram(2), "p"});
  const Family& family = families[seed % families.size()];
  EnumerateOptions enumerate;
  enumerate.max_depth = 1 + static_cast<std::size_t>(rng() % 3);
  enumerate.max_trees = 200;
  UnionOfCqs expansions =
      BoundedExpansions(family.program, family.goal, enumerate);
  UnionOfCqs theta;
  for (const ConjunctiveQuery& disjunct : expansions.disjuncts()) {
    if (rng() % 2 == 0) theta.Add(disjunct);
    if (theta.size() >= 6) break;  // keep the decider input small
  }
  if (rng() % 4 == 0) {
    std::vector<Term> head;
    for (std::size_t i = 0; i < family.program.PredicateArity(family.goal);
         ++i) {
      head.push_back(Term::Variable(StrCat("T", i)));
    }
    theta.Add(ConjunctiveQuery(std::move(head), {}));  // universal CQ
  }
  DeciderCase c{StrCat(family.name, "_seed", seed), family.program,
                family.goal, theta};
  RunDifferential(c);
}

INSTANTIATE_TEST_SUITE_P(RandomThetas, DeciderInternRandomTest,
                         ::testing::Range(0, 20));

// A reused checker must behave exactly like a fresh decider per Θ, in
// particular when an early-stopped run (counterexample found before the
// instance enumeration finished) leaves a partially built instance cache
// behind for the next Decide call to resume.
TEST(DeciderInternTest, CheckerReuseAcrossThetasMatchesFreshDeciders) {
  Program tc = TransitiveClosureProgram("e", "e");
  ContainmentChecker checker(tc, "p");
  std::vector<UnionOfCqs> thetas;
  thetas.emplace_back();  // empty union: early stop on the first root state
  thetas.push_back(PathQueries(2));
  {
    UnionOfCqs top;
    top.Add(MustParseCq("p(X, Y) :- ."));
    thetas.push_back(top);
  }
  thetas.push_back(PathQueries(3));
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    StatusOr<ContainmentDecision> reused = checker.Decide(thetas[i]);
    StatusOr<ContainmentDecision> fresh =
        DecideDatalogInUcq(tc, "p", thetas[i]);
    ASSERT_TRUE(reused.ok()) << reused.status();
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    ExpectSameDecision(*reused, *fresh, StrCat("theta ", i));
  }
}

TEST(DeciderInternTest, InternedPathReportsMemoAndCacheCounters) {
  Program tc = TransitiveClosureProgram("e", "e");
  ContainmentOptions options;
  options.use_ir = false;
  options.intern_memo = true;
  StatusOr<ContainmentDecision> decision =
      DecideDatalogInUcq(tc, "p", PathQueries(2), options);
  ASSERT_TRUE(decision.ok());
  EXPECT_GT(decision->stats.instances_cached, 0u);
  EXPECT_GT(decision->stats.subset_checks, 0u);
  // Non-IR arms never touch the rename memo or the integer pin compares.
  EXPECT_EQ(decision->stats.rename_memo_hits, 0u);
  EXPECT_EQ(decision->stats.pinned_compares, 0u);
  options.intern_memo = false;
  StatusOr<ContainmentDecision> baseline =
      DecideDatalogInUcq(tc, "p", PathQueries(2), options);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->stats.instances_cached, 0u);
}

TEST(DeciderInternTest, IrPathReportsRenameMemoAndPinnedCompareCounters) {
  // A nonlinear program: combination products have two child slots, so
  // the same (instance, child, serial) rename is requested repeatedly and
  // the memo must serve the repeats.
  Program nl = NonlinearTransitiveClosureProgram();
  UnionOfCqs theta = PathQueries(2);
  theta.Add(ConjunctiveQuery({Term::Variable("X"), Term::Variable("Y")}, {}));
  ContainmentOptions options;
  options.use_ir = true;
  StatusOr<ContainmentDecision> decision =
      DecideDatalogInUcq(nl, "p", theta, options);
  ASSERT_TRUE(decision.ok());
  EXPECT_TRUE(decision->contained);
  EXPECT_GT(decision->stats.rename_memo_hits, 0u);
  EXPECT_GT(decision->stats.pinned_compares, 0u);
  EXPECT_GT(decision->stats.instances_cached, 0u);
}

// --- carried-IR reuse: Decide / minimize / Decide re-interns nothing --

TEST(DeciderInternTest, CarriedIrIsReusedAcrossDecideCalls) {
  Program tc = TransitiveClosureProgram("e", "e");
  EXPECT_FALSE(tc.has_carried_ir());
  UnionOfCqs theta = PathQueries(2);
  StatusOr<ContainmentDecision> first = DecideDatalogInUcq(tc, "p", theta);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.program_ir_builds, 1u);
  EXPECT_TRUE(tc.has_carried_ir());
  // Decide → minimize → Decide: the second Decide against the same
  // (unmutated) Program pays zero interning passes.
  UnionOfCqs minimized = MinimizeUcq(theta);
  StatusOr<ContainmentDecision> second =
      DecideDatalogInUcq(tc, "p", minimized);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.program_ir_builds, 0u);
  EXPECT_EQ(first->contained, second->contained);
  // Mutation invalidates: the next Decide re-interns exactly once.
  tc.AddRule(MustParseRule("p(X, Y) :- f(X, Y)."));
  EXPECT_FALSE(tc.has_carried_ir());
  StatusOr<ContainmentDecision> third = DecideDatalogInUcq(tc, "p", theta);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->stats.program_ir_builds, 1u);
}

TEST(DeciderInternTest, CheckerChargesInterningToFirstDecideOnly) {
  Program tc = TransitiveClosureProgram("e", "e");
  ContainmentChecker checker(tc, "p");
  StatusOr<ContainmentDecision> first = checker.Decide(PathQueries(2));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.program_ir_builds, 1u);
  StatusOr<ContainmentDecision> second = checker.Decide(PathQueries(3));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.program_ir_builds, 0u);
}

// --- explicit-automata differentials: the ptrees automaton --------------

TEST(PtreesIrDifferentialTest, AlphabetsAndAutomataAgreeAcrossArms) {
  std::vector<Program> programs;
  programs.push_back(TransitiveClosureProgram("e", "e0"));
  programs.push_back(Buys1Program());
  programs.push_back(MustParseProgram(R"(
    r(X) :- e(root, X).
    r(X) :- r(Y), e(Y, X).
  )"));
  for (std::size_t p = 0; p < programs.size(); ++p) {
    const std::string goal =
        programs[p].rules().front().head().predicate();
    StatusOr<PtreesAutomaton> ir_arm =
        BuildPtreesAutomaton(programs[p], goal, ExecutionLimits(), /*use_ir=*/true);
    StatusOr<PtreesAutomaton> string_arm =
        BuildPtreesAutomaton(programs[p], goal, ExecutionLimits(), /*use_ir=*/false);
    ASSERT_TRUE(ir_arm.ok() && string_arm.ok()) << "program " << p;
    // Identical alphabets: same symbols in the same order.
    ASSERT_EQ(ir_arm->alphabet.num_labels(),
              string_arm->alphabet.num_labels())
        << "program " << p;
    for (std::size_t s = 0; s < ir_arm->alphabet.num_labels(); ++s) {
      EXPECT_EQ(ir_arm->alphabet.Label(s).ToString(),
                string_arm->alphabet.Label(s).ToString());
      EXPECT_EQ(ir_arm->alphabet.label_idb_positions[s],
                string_arm->alphabet.label_idb_positions[s]);
      EXPECT_EQ(ir_arm->alphabet.arities[s], string_arm->alphabet.arities[s]);
      // Both SymbolOf implementations resolve every label.
      EXPECT_EQ(
          ir_arm->alphabet.SymbolOf(ir_arm->alphabet.Label(s)),
          static_cast<int>(s));
      EXPECT_EQ(
          string_arm->alphabet.SymbolOf(string_arm->alphabet.Label(s)),
          static_cast<int>(s));
    }
    // Identical automata: same states (same atoms in the same order,
    // resolved identically by StateOf) and the same acceptance behavior
    // on a sample of arbitrary labeled trees.
    ASSERT_EQ(ir_arm->nfta.num_states(), string_arm->nfta.num_states())
        << "program " << p;
    ASSERT_EQ(ir_arm->num_states(), string_arm->num_states());
    for (std::size_t s = 0; s < ir_arm->num_states(); ++s) {
      EXPECT_EQ(ir_arm->StateAtom(s).ToString(),
                string_arm->StateAtom(s).ToString());
      EXPECT_EQ(ir_arm->StateOf(ir_arm->StateAtom(s)),
                static_cast<int>(s));
      EXPECT_EQ(string_arm->StateOf(ir_arm->StateAtom(s)),
                static_cast<int>(s));
    }
    std::size_t checked = 0;
    EnumerateLabeledTrees(
        ir_arm->alphabet.arities, 2, 1500, [&](const LabeledTree& tree) {
          EXPECT_EQ(ir_arm->nfta.Accepts(tree),
                    string_arm->nfta.Accepts(tree));
          ++checked;
          return true;
        });
    EXPECT_GT(checked, 50u) << "program " << p;
  }
}

TEST(PtreesIrDifferentialTest, LabelLimitAgreesAcrossArms) {
  Program tc = TransitiveClosureProgram("e", "e0");
  for (bool use_ir : {true, false}) {
    StatusOr<ProgramAlphabet> alphabet =
        BuildProgramAlphabet(tc, ExecutionLimits().WithMaxLabels(10), use_ir);
    ASSERT_FALSE(alphabet.ok());
    EXPECT_EQ(alphabet.status().code(), StatusCode::kResourceExhausted);
  }
}

// --- CQ-layer differential: IR vs string homomorphism search ----------

void ExpectSameMapping(const ConjunctiveQuery& psi,
                       const ConjunctiveQuery& theta,
                       const std::string& label) {
  CqMappingOptions ir;
  ir.use_ir = true;
  CqMappingOptions strings;
  strings.use_ir = false;
  std::optional<Substitution> a = FindContainmentMapping(psi, theta, ir);
  std::optional<Substitution> b = FindContainmentMapping(psi, theta, strings);
  ASSERT_EQ(a.has_value(), b.has_value()) << label;
  if (a.has_value()) {
    EXPECT_EQ(*a, *b) << label;  // identical mapping, entry for entry
  }
}

TEST(CqIrDifferentialTest, RandomizedExpansionPairsAgree) {
  struct Family {
    Program program;
    std::string goal;
  };
  std::vector<Family> families;
  families.push_back({Buys1Program(), "buys"});
  families.push_back({TransitiveClosureProgram("e", "e"), "p"});
  families.push_back({NonlinearTransitiveClosureProgram(), "p"});
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    std::mt19937_64 rng(seed * 104729 + 7);
    const Family& family = families[seed % families.size()];
    EnumerateOptions enumerate;
    enumerate.max_depth = 1 + static_cast<std::size_t>(rng() % 3);
    enumerate.max_trees = 60;
    UnionOfCqs expansions =
        BoundedExpansions(family.program, family.goal, enumerate);
    const std::vector<ConjunctiveQuery>& cqs = expansions.disjuncts();
    if (cqs.size() < 2) continue;
    for (int pair = 0; pair < 8; ++pair) {
      const ConjunctiveQuery& psi = cqs[rng() % cqs.size()];
      const ConjunctiveQuery& theta = cqs[rng() % cqs.size()];
      ExpectSameMapping(psi, theta, StrCat("seed ", seed, " pair ", pair));
    }
    // Minimization and redundant-disjunct removal must also be
    // byte-identical across substrates.
    CqMappingOptions ir;
    ir.use_ir = true;
    CqMappingOptions strings;
    strings.use_ir = false;
    for (const ConjunctiveQuery& cq : cqs) {
      EXPECT_EQ(MinimizeCq(cq, ir).ToString(),
                MinimizeCq(cq, strings).ToString())
          << "seed " << seed;
    }
    EXPECT_EQ(MinimizeUcq(expansions, ir).ToString(),
              MinimizeUcq(expansions, strings).ToString())
        << "seed " << seed;
    EXPECT_EQ(RemoveRedundantDisjuncts(expansions, ir).ToString(),
              RemoveRedundantDisjuncts(expansions, strings).ToString())
        << "seed " << seed;
    EXPECT_EQ(IsUcqContained(expansions, expansions, ir),
              IsUcqContained(expansions, expansions, strings))
        << "seed " << seed;
  }
}

TEST(CqIrDifferentialTest, ConstantsAndRepeatedHeadVarsAgree) {
  // Hand-picked shapes that stress the encoding edges: constants in
  // bodies and heads, repeated head variables, and empty bodies.
  std::vector<std::pair<std::string, std::string>> cases = {
      {"q(X, Y) :- e(X, Z), e(Z, Y).", "q(X, Y) :- e(X, Z), e(Z, W), e(W, Y)."},
      {"q(X) :- e(root, X).", "q(X) :- e(root, X), e(X, X)."},
      {"q(X, X) :- e(X, X).", "q(X, Y) :- e(X, Y)."},
      {"q(X, Y) :- .", "q(X, Y) :- e(X, Y)."},
      {"q(a, X) :- e(a, X).", "q(a, X) :- e(a, X), e(X, a)."},
  };
  for (const auto& [psi_text, theta_text] : cases) {
    ConjunctiveQuery psi = MustParseCq(psi_text);
    ConjunctiveQuery theta = MustParseCq(theta_text);
    ExpectSameMapping(psi, theta, psi_text);
    ExpectSameMapping(theta, psi, theta_text);
  }
}

// --- the 64-atom mask-overflow guard ---------------------------------

ConjunctiveQuery WideDisjunct(std::size_t atoms) {
  std::vector<Atom> body;
  for (std::size_t i = 0; i < atoms; ++i) {
    body.push_back(Atom("e", {Term::Variable(StrCat("V", i)),
                              Term::Variable(StrCat("V", i + 1))}));
  }
  return ConjunctiveQuery(
      {Term::Variable("V0"), Term::Variable(StrCat("V", atoms))},
      std::move(body));
}

TEST(DeciderInternTest, SixtyFiveAtomDisjunctIsRejectedNotUndefined) {
  // 65 atoms would shift `uint64_t{1} << 64` in absorb.cc if it ever got
  // that far; the analysis layer must reject it cleanly instead.
  StatusOr<QueryAnalysis> analysis = AnalyzeQuery(WideDisjunct(65));
  ASSERT_FALSE(analysis.ok());
  EXPECT_EQ(analysis.status().code(), StatusCode::kInvalidArgument);

  Program tc = TransitiveClosureProgram("e", "e");
  UnionOfCqs theta;
  theta.Add(MustParseCq("p(X, Y) :- e(X, Y)."));
  theta.Add(WideDisjunct(65));
  StatusOr<ContainmentDecision> decision =
      DecideDatalogInUcq(tc, "p", theta);
  ASSERT_FALSE(decision.ok());
  EXPECT_EQ(decision.status().code(), StatusCode::kInvalidArgument);
}

TEST(DeciderInternTest, MaxWidthDisjunctIsStillAnalyzable) {
  // The analysis keeps a pointer to the CQ, so it must outlive it.
  ConjunctiveQuery widest = WideDisjunct(kMaxDisjunctAtoms);
  StatusOr<QueryAnalysis> analysis = AnalyzeQuery(widest);
  ASSERT_TRUE(analysis.ok()) << analysis.status();
  EXPECT_EQ(analysis->cq->body().size(), kMaxDisjunctAtoms);
  StatusOr<QueryAnalysis> too_wide =
      AnalyzeQuery(WideDisjunct(kMaxDisjunctAtoms + 1));
  EXPECT_FALSE(too_wide.ok());
}

}  // namespace
}  // namespace datalog

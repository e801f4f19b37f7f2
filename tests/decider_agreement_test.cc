// Agreement testing of the containment decider and the layers under it
// against independent algorithms. On program families crossed with
// fixed and randomized unions of bounded expansions, every decider
// verdict (antichain and exact modes) must agree with
//   * the explicit A^ptrees / A^θ automata pipeline (Theorem 5.11),
//   * the word-automaton decider, when the program is linear,
//   * unfolding: the exact expansion set of a nonrecursive program, or
//     the bounded expansions of a recursive one,
// and must be replayed by the AST-only certificate verifier
// (src/corpus/verify.h): the exported absorption trace of a "contained"
// verdict and the counterexample tree of a "not contained" one. The CQ
// homomorphism search is checked against the verifier's naive
// backtracking search (DisjunctMapsInto) with every returned mapping
// re-applied, and the ptrees alphabet and automaton against a direct
// ForEachInstanceOver enumeration. Also pins checker reuse, the carried
// IR, the decider's work counters, and the 64-atom mask-overflow guard:
// a disjunct too wide for the 64-bit atom masks must be rejected with
// InvalidArgumentError up front, never reaching the `1 << atom_index`
// shifts in absorb.cc.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/ast/analysis.h"
#include "src/containment/decider.h"
#include "src/containment/instances.h"
#include "src/containment/linear.h"
#include "src/containment/ptrees_automaton.h"
#include "src/containment/query_analysis.h"
#include "src/containment/theta_automaton.h"
#include "src/containment/unfold.h"
#include "src/corpus/certificate.h"
#include "src/corpus/naive.h"
#include "src/corpus/verify.h"
#include "src/cq/containment.h"
#include "src/cq/minimize.h"
#include "src/generators/examples.h"
#include "src/ir/ir.h"
#include "src/trees/connectivity.h"
#include "src/trees/enumerate.h"
#include "src/util/strings.h"
#include "tests/test_util.h"

namespace datalog {
namespace {

using corpus::DisjunctMapsInto;
using corpus::IsRangeRestricted;
using corpus::IsRecursiveNaive;
using corpus::UcqCoversCq;

struct DeciderCase {
  std::string name;
  Program program;
  std::string goal;
  UnionOfCqs theta;
};

void ExpectSameDecision(const ContainmentDecision& a,
                        const ContainmentDecision& b,
                        const std::string& label) {
  EXPECT_EQ(a.contained, b.contained) << label;
  ASSERT_EQ(a.counterexample.has_value(), b.counterexample.has_value())
      << label;
  if (a.counterexample.has_value()) {
    EXPECT_EQ(a.counterexample->ToString(), b.counterexample->ToString())
        << label;
  }
  EXPECT_EQ(a.stats.states_discovered, b.stats.states_discovered) << label;
  EXPECT_EQ(a.stats.goals_discovered, b.stats.goals_discovered) << label;
  EXPECT_EQ(a.stats.rounds, b.stats.rounds) << label;
}

// Replays a decision through the independent verifier: the trace of a
// contained verdict as a backward-contained certificate, the
// counterexample of a refuted one as a backward-not-contained
// certificate.
void ExpectVerifierAccepts(const DeciderCase& c,
                           const ContainmentDecision& decision,
                           const std::string& label) {
  corpus::CorpusInstance instance;
  instance.program = c.program;
  instance.goal = c.goal;
  instance.theta = c.theta;
  corpus::Certificate cert;
  if (decision.contained) {
    cert.kind = corpus::CertificateKind::kBackwardContained;
    cert.trace = decision.trace;
  } else {
    ASSERT_TRUE(decision.counterexample.has_value()) << label;
    // A proof tree reuses var(Π) across nodes; renaming by connectivity
    // class turns it into the expansion tree whose CQ the verifier
    // freezes (the paper's proof-tree-to-expansion correspondence).
    cert.kind = corpus::CertificateKind::kBackwardNotContained;
    cert.counterexample =
        TreeConnectivity(*decision.counterexample).RenameByClass();
  }
  Status replay = corpus::VerifyCertificate(instance, cert);
  EXPECT_TRUE(replay.ok()) << label << ": " << replay;
}

// Unfolding: a nonrecursive program is contained iff every expansion of
// its (finite) unfolding is covered by some disjunct; for a recursive
// program the bounded expansions give the one-sided check that a
// contained verdict covers every expansion up to depth 3.
void ExpectUnfoldingAgrees(const DeciderCase& c, bool contained,
                           const std::string& label) {
  if (!IsRecursiveNaive(c.program)) {
    StatusOr<UnionOfCqs> unfolded = UnfoldNonrecursive(c.program, c.goal);
    ASSERT_TRUE(unfolded.ok()) << label << ": " << unfolded.status();
    bool covered = true;
    for (const ConjunctiveQuery& expansion : unfolded->disjuncts()) {
      if (!UcqCoversCq(c.theta, expansion)) covered = false;
    }
    EXPECT_EQ(covered, contained) << label;
    return;
  }
  if (!contained) return;  // the verifier replays the counterexample
  EnumerateOptions enumerate;
  enumerate.max_depth = 3;
  enumerate.max_trees = 200;
  const UnionOfCqs expansions =
      BoundedExpansions(c.program, c.goal, enumerate);
  for (const ConjunctiveQuery& expansion : expansions.disjuncts()) {
    EXPECT_TRUE(UcqCoversCq(c.theta, expansion))
        << label << " expansion " << expansion.ToString();
  }
}

void RunAgreement(const DeciderCase& c) {
  ASSERT_TRUE(IsRangeRestricted(c.program)) << c.name;
  std::optional<bool> verdict;
  std::size_t antichain_states = 0;
  for (bool antichain : {true, false}) {
    const std::string label =
        StrCat(c.name, " antichain=", antichain ? 1 : 0);
    ContainmentOptions options;
    options.antichain = antichain;
    // The exact run's trace lists every achievable set, which makes its
    // closure replay too slow for a unit test (seconds per case); its
    // counterexamples are still replayed.
    options.export_trace = antichain;
    StatusOr<ContainmentDecision> decision =
        DecideDatalogInUcq(c.program, c.goal, c.theta, options);
    ASSERT_TRUE(decision.ok()) << label << ": " << decision.status();
    if (verdict.has_value()) {
      EXPECT_EQ(decision->contained, *verdict) << label;
      if (decision->contained) {
        // The antichain keeps a subset of the exact run's states.
        EXPECT_LE(antichain_states, decision->stats.states_discovered)
            << label;
      }
    } else {
      verdict = decision->contained;
      antichain_states = decision->stats.states_discovered;
    }
    if (antichain || !decision->contained) {
      ExpectVerifierAccepts(c, *decision, label);
    }
  }
  ExpectUnfoldingAgrees(c, *verdict, c.name);

  ExecutionLimits limits;
  limits.max_states = 10'000;
  limits.max_transitions = 100'000;
  StatusOr<ExplicitContainmentResult> explicit_result =
      DecideContainmentViaExplicitAutomata(c.program, c.goal, c.theta,
                                           limits);
  if (explicit_result.ok()) {
    EXPECT_EQ(explicit_result->contained, *verdict) << c.name << " explicit";
  } else {
    EXPECT_EQ(explicit_result.status().code(),
              StatusCode::kResourceExhausted)
        << c.name << ": " << explicit_result.status();
  }

  if (IsLinearInIdb(c.program)) {
    StatusOr<LinearContainmentResult> linear =
        DecideLinearDatalogInUcq(c.program, c.goal, c.theta);
    if (linear.ok()) {
      EXPECT_EQ(linear->contained, *verdict) << c.name << " linear";
    } else {
      EXPECT_EQ(linear.status().code(), StatusCode::kResourceExhausted)
          << c.name << ": " << linear.status();
    }
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
    // Deep recursion: many achieved sets per goal, so the antichain does
    // real pruning work.
    UnionOfCqs theta = PathQueries(4);
    theta.Add(MustParseCq("p(X, Y) :- ."));
    cases.push_back({"nonlinear_tc_paths4_top",
                     NonlinearTransitiveClosureProgram(), "p", theta});
  }
  {
    cases.push_back({"chain2_paths4", ChainProgram(2), "p", PathQueries(4)});
  }
  {
    cases.push_back({"dist3_paths3", DistProgram(3), "dist3", PathQueries(3)});
  }
  {
    // Nonrecursive and contained: Θ is the program's own unfolding.
    Program nonrec = Buys1NonrecursiveProgram();
    StatusOr<UnionOfCqs> unfolded = UnfoldNonrecursive(nonrec, "buys");
    if (unfolded.ok()) {
      cases.push_back({"buys1_nonrec_self", nonrec, "buys", *unfolded});
    }
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

TEST(DeciderAgreementTest, FixedCasesAgreeWithIndependentDeciders) {
  for (const DeciderCase& c : FixedCases()) RunAgreement(c);
}

// Randomized pairs: each seed picks a program family and a random subset
// of its bounded expansions as Θ (sometimes topped up with the universal
// CQ), producing a mix of contained and non-contained instances.
class DeciderAgreementRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(DeciderAgreementRandomTest, RandomizedExpansionSubsetsAgree) {
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
  families.push_back({"dist3", DistProgram(3), "dist3"});
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
  RunAgreement({StrCat(family.name, "_seed", seed), family.program,
                family.goal, theta});
}

INSTANTIATE_TEST_SUITE_P(RandomThetas, DeciderAgreementRandomTest,
                         ::testing::Range(0, 24));

// A reused checker must behave exactly like a fresh decider per Θ, in
// particular when an early-stopped run (counterexample found before the
// instance enumeration finished) leaves a partially built instance cache
// behind for the next Decide call to resume.
TEST(DeciderAgreementTest, CheckerReuseAcrossThetasMatchesFreshDeciders) {
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

TEST(DeciderAgreementTest, ReportsCacheRenameMemoAndPinnedCompareCounters) {
  // A nonlinear program: combination products have two child slots, so
  // the same (instance, child, serial) rename is requested repeatedly and
  // the memo must serve the repeats.
  Program nl = NonlinearTransitiveClosureProgram();
  UnionOfCqs theta = PathQueries(2);
  theta.Add(ConjunctiveQuery({Term::Variable("X"), Term::Variable("Y")}, {}));
  StatusOr<ContainmentDecision> decision = DecideDatalogInUcq(nl, "p", theta);
  ASSERT_TRUE(decision.ok());
  EXPECT_TRUE(decision->contained);
  EXPECT_GT(decision->stats.rename_memo_hits, 0u);
  EXPECT_GT(decision->stats.pinned_compares, 0u);
  EXPECT_GT(decision->stats.instances_cached, 0u);
  EXPECT_GT(decision->stats.subset_checks, 0u);
  EXPECT_GT(decision->stats.subset_word_ops, 0u);
}

// --- carried-IR reuse: Decide / minimize / Decide re-interns nothing --

TEST(DeciderAgreementTest, CarriedIrIsReusedAcrossDecideCalls) {
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

TEST(DeciderAgreementTest, CheckerChargesInterningToFirstDecideOnly) {
  Program tc = TransitiveClosureProgram("e", "e");
  ContainmentChecker checker(tc, "p");
  StatusOr<ContainmentDecision> first = checker.Decide(PathQueries(2));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.program_ir_builds, 1u);
  StatusOr<ContainmentDecision> second = checker.Decide(PathQueries(3));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.program_ir_builds, 0u);
}

// --- the ptrees alphabet and automaton against direct enumeration -------

// Rebuilds A^ptrees_{Q,Π} from ForEachInstanceOver and Term-level
// identity (Rule/Atom renderings), the way Proposition 5.9 states it, and
// checks the interned construction symbol for symbol, state for state and
// transition for transition. The builder drops the rules not
// backward-reachable from the goal, so the enumeration runs over the
// direct backward closure of `full_program`.
void ExpectPtreesMatchesEnumeration(const Program& full_program,
                                    const std::string& goal,
                                    const std::string& label) {
  StatusOr<PtreesAutomaton> automaton =
      BuildPtreesAutomaton(full_program, goal);
  ASSERT_TRUE(automaton.ok()) << label << ": " << automaton.status();
  const Program program = BackwardClosure(full_program, goal);
  const ProgramAlphabet& alphabet = automaton->alphabet;
  const std::vector<std::string> proof_vars = ProofVariables(program);
  EXPECT_EQ(alphabet.proof_vars, proof_vars) << label;
  const std::set<std::string> idb = program.IdbPredicates();

  // Labels: distinct instances in first-enumeration order.
  std::map<std::string, std::size_t> label_ids;
  std::vector<Rule> labels;
  std::vector<std::size_t> label_rules;
  for (std::size_t r = 0; r < program.rules().size(); ++r) {
    ForEachInstanceOver(program.rules()[r], proof_vars,
                        [&](const Rule& instance) {
                          if (label_ids.emplace(instance.ToString(),
                                                labels.size())
                                  .second) {
                            labels.push_back(instance);
                            label_rules.push_back(r);
                          }
                          return true;
                        });
  }
  ASSERT_EQ(alphabet.num_labels(), labels.size()) << label;
  // States: IDB atoms in first-occurrence order (children, then head).
  std::map<std::string, int> state_ids;
  std::vector<Atom> states;
  auto state_of = [&](const Atom& atom) {
    auto [it, inserted] =
        state_ids.emplace(atom.ToString(), static_cast<int>(states.size()));
    if (inserted) states.push_back(atom);
    return it->second;
  };
  std::vector<Nfta::Transition> transitions;
  for (std::size_t s = 0; s < labels.size(); ++s) {
    const Rule& instance = labels[s];
    EXPECT_EQ(alphabet.Label(s).ToString(), instance.ToString()) << label;
    EXPECT_EQ(alphabet.label_rule_index[s], label_rules[s]) << label;
    EXPECT_EQ(alphabet.SymbolOf(instance), static_cast<int>(s)) << label;
    std::vector<std::size_t> idb_positions;
    std::vector<int> children;
    for (std::size_t i = 0; i < instance.body().size(); ++i) {
      if (idb.count(instance.body()[i].predicate()) > 0) {
        idb_positions.push_back(i);
        children.push_back(state_of(instance.body()[i]));
      }
    }
    EXPECT_EQ(alphabet.label_idb_positions[s], idb_positions) << label;
    EXPECT_EQ(alphabet.arities[s], static_cast<int>(idb_positions.size()))
        << label;
    transitions.push_back(
        {static_cast<int>(s), std::move(children), state_of(instance.head())});
  }
  ASSERT_EQ(automaton->num_states(), states.size()) << label;
  ASSERT_EQ(automaton->nfta.num_states(), states.size()) << label;
  for (std::size_t s = 0; s < states.size(); ++s) {
    EXPECT_EQ(automaton->StateAtom(s).ToString(), states[s].ToString())
        << label;
    EXPECT_EQ(automaton->StateOf(states[s]), static_cast<int>(s)) << label;
    EXPECT_EQ(automaton->nfta.IsFinal(static_cast<int>(s)),
              states[s].predicate() == goal)
        << label << " state " << states[s].ToString();
  }
  const std::vector<Nfta::Transition>& built = automaton->nfta.transitions();
  ASSERT_EQ(built.size(), transitions.size()) << label;
  for (std::size_t t = 0; t < built.size(); ++t) {
    EXPECT_EQ(built[t].symbol, transitions[t].symbol) << label;
    EXPECT_EQ(built[t].children, transitions[t].children) << label;
    EXPECT_EQ(built[t].state, transitions[t].state) << label;
  }
}

TEST(PtreesAgreementTest, AlphabetAndAutomatonMatchDirectEnumeration) {
  ExpectPtreesMatchesEnumeration(TransitiveClosureProgram("e", "e0"), "p",
                                 "tc");
  ExpectPtreesMatchesEnumeration(Buys1Program(), "buys", "buys1");
  ExpectPtreesMatchesEnumeration(MustParseProgram(R"(
    r(X) :- e(root, X).
    r(X) :- r(Y), e(Y, X).
  )"),
                                 "r", "constants");
  // Duplicate instances across rules: the second rule's instances are
  // all instances of the first.
  ExpectPtreesMatchesEnumeration(MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, X) :- e(X, X).
  )"),
                                 "p", "duplicates");
  ExpectPtreesMatchesEnumeration(MustParseProgram(R"(
    even(X) :- zero(X).
    even(X) :- succ(Y, X), odd(Y).
    odd(X) :- succ(Y, X), even(Y).
  )"),
                                 "odd", "mutual");
  // Goal-directed pruning: the unreachable rules (one reads the goal,
  // one carries a constant) label nothing.
  ExpectPtreesMatchesEnumeration(MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    junk(X) :- p(X, X), junk(X).
    p(X, Y) :- e(X, Z), p(Z, Y).
    junk2(X) :- g(X, a).
  )"),
                                 "p", "junk");
}

// --- the CQ homomorphism search against the naive one -----------------

// FindContainmentMapping must agree with the verifier's naive
// backtracking search, and a returned mapping must really be one: every
// psi variable bound, the head sent to theta's head pointwise, and every
// body atom onto a theta body atom.
void ExpectMappingSound(const ConjunctiveQuery& psi,
                        const ConjunctiveQuery& theta,
                        const std::string& label) {
  std::optional<Substitution> h = FindContainmentMapping(psi, theta);
  ASSERT_EQ(h.has_value(), DisjunctMapsInto(psi, theta)) << label;
  EXPECT_EQ(IsCqContained(theta, psi), h.has_value()) << label;
  if (!h.has_value()) return;
  for (const std::string& v : psi.VariableNames()) {
    EXPECT_EQ(h->count(v), 1u) << label << " unbound " << v;
  }
  ASSERT_EQ(psi.arity(), theta.arity()) << label;
  for (std::size_t i = 0; i < psi.arity(); ++i) {
    EXPECT_EQ(ApplySubstitution(*h, psi.head_args()[i]),
              theta.head_args()[i])
        << label << " head position " << i;
  }
  std::set<Atom> targets(theta.body().begin(), theta.body().end());
  for (const Atom& atom : psi.body()) {
    EXPECT_EQ(targets.count(ApplySubstitution(*h, atom)), 1u)
        << label << " atom " << atom.ToString();
  }
}

// Two unions are equivalent when each disjunct of one is covered by a
// disjunct of the other (Sagiv–Yannakakis), by the naive search.
void ExpectNaivelyEquivalent(const UnionOfCqs& a, const UnionOfCqs& b,
                             const std::string& label) {
  for (const ConjunctiveQuery& cq : a.disjuncts()) {
    EXPECT_TRUE(UcqCoversCq(b, cq)) << label << " " << cq.ToString();
  }
  for (const ConjunctiveQuery& cq : b.disjuncts()) {
    EXPECT_TRUE(UcqCoversCq(a, cq)) << label << " " << cq.ToString();
  }
}

// No disjunct of `ucq` is covered by another one.
void ExpectIrredundant(const UnionOfCqs& ucq, const std::string& label) {
  const std::vector<ConjunctiveQuery>& cqs = ucq.disjuncts();
  for (std::size_t i = 0; i < cqs.size(); ++i) {
    for (std::size_t j = 0; j < cqs.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(DisjunctMapsInto(cqs[j], cqs[i]))
            << label << " " << cqs[i].ToString() << " covered by "
            << cqs[j].ToString();
      }
    }
  }
}

TEST(CqAgreementTest, RandomizedExpansionPairsAgreeWithNaiveSearch) {
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
      ExpectMappingSound(psi, theta, StrCat("seed ", seed, " pair ", pair));
    }
    // Minimization: each core is equivalent to its query, no larger, and
    // has no removable atom; the minimized and deduplicated unions are
    // equivalent to the input and irredundant.
    const std::string label = StrCat("seed ", seed);
    for (const ConjunctiveQuery& cq : cqs) {
      ConjunctiveQuery core = MinimizeCq(cq);
      EXPECT_LE(core.body().size(), cq.body().size()) << label;
      EXPECT_TRUE(DisjunctMapsInto(cq, core)) << label << cq.ToString();
      EXPECT_TRUE(DisjunctMapsInto(core, cq)) << label << cq.ToString();
      for (std::size_t i = 0; i < core.body().size(); ++i) {
        std::vector<Atom> without = core.body();
        without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
        EXPECT_FALSE(DisjunctMapsInto(
            core, ConjunctiveQuery(core.head_args(), std::move(without))))
            << label << " core " << core.ToString() << " drops atom " << i;
      }
    }
    UnionOfCqs minimized = MinimizeUcq(expansions);
    ExpectNaivelyEquivalent(minimized, expansions, label + " minimize");
    ExpectIrredundant(minimized, label + " minimize");
    UnionOfCqs deduplicated = RemoveRedundantDisjuncts(expansions);
    ExpectNaivelyEquivalent(deduplicated, expansions, label + " dedup");
    ExpectIrredundant(deduplicated, label + " dedup");
    EXPECT_TRUE(IsUcqContained(expansions, expansions)) << label;
    EXPECT_TRUE(IsUcqEquivalent(expansions, minimized)) << label;
  }
}

TEST(CqAgreementTest, ConstantsAndRepeatedHeadVarsAgreeWithNaiveSearch) {
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
    ExpectMappingSound(psi, theta, psi_text);
    ExpectMappingSound(theta, psi, theta_text);
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

TEST(DeciderAgreementTest, SixtyFiveAtomDisjunctIsRejectedNotUndefined) {
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

TEST(DeciderAgreementTest, MaxWidthDisjunctIsStillAnalyzable) {
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

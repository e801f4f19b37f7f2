// The canonical-database bridge checked against the verifier's naive
// freeze: the ProgramIr → engine dictionary handoff
// (FreezeDisjunctIntoDatabase) must load exactly the facts NaiveFreezeCq
// (src/corpus/naive.h) builds from the AST — same predicates, same "@v"
// constant spellings, same frozen goal tuple — and the engine verdicts
// must match a naive fixpoint over those facts.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/ast/parser.h"
#include "src/containment/equivalence.h"
#include "src/containment/ucq_in_datalog.h"
#include "src/corpus/naive.h"
#include "src/cq/canonical_db.h"
#include "src/engine/database.h"
#include "src/generators/examples.h"
#include "src/ir/ir.h"
#include "src/trees/enumerate.h"
#include "src/util/strings.h"
#include "tests/test_util.h"

namespace datalog {
namespace {

using corpus::NaiveFixpoint;
using corpus::NaiveFreezeCq;
using corpus::NaiveFrozenCq;

// Freezes disjunct `index` of `theta` through the IR handoff and checks
// the loaded database against the naive freeze of the same disjunct:
// the same facts (as a set — the engine stores relations, not a body
// order) and the same goal tuple, decoded through the engine dictionary.
void ExpectHandoffMatchesNaiveFreeze(const UnionOfCqs& theta,
                                     std::size_t index,
                                     const std::string& label) {
  const ConjunctiveQuery& cq = theta.disjuncts()[index];
  Database db;
  Tuple goal = FreezeDisjunctIntoDatabase(*ir::CarriedIr(theta), index, &db);
  NaiveFrozenCq naive = NaiveFreezeCq("q", cq);
  std::vector<Atom> loaded = db.AllFactAtoms();
  EXPECT_EQ(std::set<Atom>(loaded.begin(), loaded.end()),
            std::set<Atom>(naive.facts.begin(), naive.facts.end()))
      << label;
  ASSERT_EQ(goal.size(), naive.goal_atom.arity()) << label;
  for (std::size_t i = 0; i < goal.size(); ++i) {
    EXPECT_EQ(Term::Constant(db.dictionary().NameOf(goal[i])),
              naive.goal_atom.args()[i])
        << label << " goal position " << i;
  }
  // Every name crossed into the engine once: no dictionary entry beyond
  // the frozen constants and the query's own constants.
  std::set<std::string> names;
  for (const Atom& fact : naive.facts) {
    for (const Term& t : fact.args()) names.insert(t.name());
  }
  for (const Term& t : naive.goal_atom.args()) names.insert(t.name());
  EXPECT_EQ(db.dictionary().size(), names.size()) << label;
}

// The naive verdict for one disjunct: the frozen goal atom is in the
// naive fixpoint of `program` over the frozen facts. Requires a
// range-restricted program.
bool NaiveContained(const Program& program, const std::string& goal,
                    const ConjunctiveQuery& cq) {
  NaiveFrozenCq frozen = NaiveFreezeCq(goal, cq);
  StatusOr<std::set<Atom>> fixpoint =
      NaiveFixpoint(program, frozen.facts, 100000);
  EXPECT_TRUE(fixpoint.ok()) << fixpoint.status();
  return fixpoint.ok() && fixpoint->count(frozen.goal_atom) > 0;
}

TEST(CanonicalDbBridgeTest, HandoffMatchesNaiveFreezeOnHandPickedShapes) {
  // Shapes that stress the encoding edges: constants in bodies and heads,
  // repeated variables, head-only variables, and empty bodies.
  std::vector<std::string> cases = {
      "q(X, Y) :- e(X, Z), e(Z, Y).",
      "q(X) :- e(root, X), e(X, X).",
      "q(X, X) :- e(X, X).",
      "q(X, Y) :- .",
      "q(a, X) :- e(a, X), f(X, b, X).",
      "q(X) :- e(X, Y), e(Y, Z), f(Z, X, Y).",
  };
  for (const std::string& text : cases) {
    UnionOfCqs single;
    single.Add(MustParseCq(text));
    ExpectHandoffMatchesNaiveFreeze(single, 0, text);
  }
}

TEST(CanonicalDbBridgeTest, HandoffMatchesNaiveFreezeOnExpansions) {
  // Every bounded expansion of a few program families: realistic frozen
  // databases with shared variables across many atoms, frozen through
  // one carried union IR.
  struct Family {
    Program program;
    std::string goal;
  };
  std::vector<Family> families = {
      {Buys1Program(), "buys"},
      {TransitiveClosureProgram("e", "e"), "p"},
      {NonlinearTransitiveClosureProgram(), "p"},
  };
  for (const Family& family : families) {
    EnumerateOptions options;
    options.max_depth = 3;
    options.max_trees = 40;
    UnionOfCqs expansions =
        BoundedExpansions(family.program, family.goal, options);
    for (std::size_t i = 0; i < expansions.size(); ++i) {
      ExpectHandoffMatchesNaiveFreeze(expansions, i,
                                      expansions.disjuncts()[i].ToString());
    }
  }
}

TEST(CanonicalDbBridgeTest, ContainmentVerdictsMatchNaiveFixpoint) {
  Program tc = TransitiveClosureProgram("e", "e");
  UnionOfCqs theta = PathQueries(3);
  theta.Add(MustParseCq("p(X, Y) :- e(X, Y), f(Y)."));
  theta.Add(MustParseCq("p(X, Y) :- g(X, Y)."));  // not contained
  theta.Add(MustParseCq("p(X, X) :- e(X, X)."));
  // A head-only Y, next to a body predicate that looks like the check's
  // auxiliary relation: the witness keeps domain(@X) and drops only the
  // auxiliary rows the check adds for the head constants.
  theta.Add(MustParseCq("p(X, Y) :- domain(X), g(X, X)."));
  std::size_t first_failing = theta.size();
  CanonicalDbWitness first_failing_witness;
  for (std::size_t i = 0; i < theta.size(); ++i) {
    const ConjunctiveQuery& disjunct = theta.disjuncts()[i];
    const bool naive = NaiveContained(tc, "p", disjunct);
    CanonicalDbWitness witness;
    CanonicalDbOptions options;
    options.witness = &witness;
    StatusOr<bool> engine =
        IsUcqDisjunctContainedInDatalog(theta, i, tc, "p", nullptr, options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    EXPECT_EQ(*engine, naive) << disjunct.ToString();
    if (*engine) {
      EXPECT_TRUE(witness.facts.empty()) << "contained: witness untouched";
      continue;
    }
    // A refuted disjunct's witness is exactly the naive canonical database.
    NaiveFrozenCq frozen = NaiveFreezeCq("p", disjunct);
    EXPECT_EQ(std::set<Atom>(witness.facts.begin(), witness.facts.end()),
              std::set<Atom>(frozen.facts.begin(), frozen.facts.end()));
    EXPECT_EQ(witness.goal_atom, frozen.goal_atom);
    if (first_failing == theta.size()) {
      first_failing = i;
      first_failing_witness = witness;
    }
  }
  ASSERT_LT(first_failing, theta.size()) << "the negative path must run";
  std::size_t failing = 999;
  CanonicalDbWitness witness;
  CanonicalDbOptions options;
  options.witness = &witness;
  StatusOr<bool> all =
      IsUcqContainedInDatalog(theta, tc, "p", nullptr, options, &failing);
  ASSERT_TRUE(all.ok());
  EXPECT_FALSE(*all);
  EXPECT_EQ(failing, first_failing);
  // The union entry's witness is the failing disjunct's, fact for fact
  // and in order.
  EXPECT_EQ(witness.facts, first_failing_witness.facts);
  EXPECT_EQ(witness.goal_atom, first_failing_witness.goal_atom);

  // A contained union leaves the witness untouched.
  CanonicalDbWitness sentinel;
  sentinel.goal_atom = MustParseAtom("sentinel(a)");
  options.witness = &sentinel;
  StatusOr<bool> contained =
      IsUcqContainedInDatalog(PathQueries(3), tc, "p", nullptr, options);
  ASSERT_TRUE(contained.ok());
  EXPECT_TRUE(*contained);
  EXPECT_TRUE(sentinel.facts.empty());
  EXPECT_EQ(sentinel.goal_atom, MustParseAtom("sentinel(a)"));
}

// `__domain` names the auxiliary relation the check adds to every
// canonical database. The parser reads it as a variable and the corpus
// reader refuses it as a predicate; a union or program built in code that
// names it is refused too, by both entries, instead of being evaluated
// over the auxiliary rows.
TEST(CanonicalDbBridgeTest, ReservedDomainRelationIsRefused) {
  EXPECT_FALSE(ParseRule("p(X, Y) :- __domain(X), g(X, X).").ok());
  Program tc = TransitiveClosureProgram("e", "e");
  UnionOfCqs theta = PathQueries(2);
  theta.Add(ConjunctiveQuery(
      {Term::Variable("X"), Term::Variable("Y")},
      {Atom("__domain", {Term::Variable("X")}),
       Atom("g", {Term::Variable("X"), Term::Variable("X")})}));
  Program reads_domain = tc;
  reads_domain.AddRule(Rule(
      Atom("p", {Term::Variable("X"), Term::Variable("X")}),
      {Atom("__domain", {Term::Variable("X")})}));
  auto expect_refused = [](const StatusOr<bool>& result) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("predicate name __domain is "
                                             "reserved"),
              std::string::npos)
        << result.status();
  };
  expect_refused(IsUcqContainedInDatalog(theta, tc, "p"));
  expect_refused(IsUcqDisjunctContainedInDatalog(theta, 2, tc, "p"));
  // Refused even for a disjunct that does not name it: the union does.
  expect_refused(IsUcqDisjunctContainedInDatalog(theta, 0, tc, "p"));
  expect_refused(IsUcqContainedInDatalog(PathQueries(2), reads_domain, "p"));
  expect_refused(
      IsUcqDisjunctContainedInDatalog(PathQueries(2), 0, reads_domain, "p"));
  // Without the reserved name the same shapes are decided.
  StatusOr<bool> plain = IsUcqContainedInDatalog(PathQueries(2), tc, "p");
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_TRUE(*plain);
}

TEST(CanonicalDbBridgeTest, DisjunctLevelCallReusesCarriedUnionIr) {
  // The entry for drivers that loop single CQs: checking disjuncts
  // through the union pays one interning pass for the whole loop, not a
  // throwaway singleton IR per call.
  Program tc = TransitiveClosureProgram("e", "e");
  UnionOfCqs theta = PathQueries(3);
  theta.Add(MustParseCq("p(X, Y) :- ."));
  ir::CarriedIr(theta);  // prime the carrier
  const std::size_t builds_before = ir::ProgramIrBuildCount();
  for (std::size_t i = 0; i < theta.size(); ++i) {
    StatusOr<bool> via_union =
        IsUcqDisjunctContainedInDatalog(theta, i, tc, "p");
    ASSERT_TRUE(via_union.ok());
    EXPECT_EQ(*via_union, NaiveContained(tc, "p", theta.disjuncts()[i]))
        << theta.disjuncts()[i].ToString();
  }
  EXPECT_EQ(ir::ProgramIrBuildCount(), builds_before);
}

TEST(CanonicalDbBridgeTest, ParallelDriversMatchSerialVerdicts) {
  // Engine-thread determinism under the union-level driver: at several
  // engine thread counts — each disjunct's evaluation running the
  // engine's staged parallel rounds — the driver must reproduce the
  // serial verdicts, failing-disjunct indexes, and derived-fact counts.
  Program tc = TransitiveClosureProgram("e", "e");
  struct Case {
    const char* name;
    UnionOfCqs theta;
  };
  std::vector<Case> cases;
  {
    cases.push_back({"contained", PathQueries(3)});
    UnionOfCqs mixed = PathQueries(2);
    mixed.Add(MustParseCq("p(X, Y) :- f(X, Y)."));  // first failure: index 2
    mixed.Add(MustParseCq("p(X, Y) :- g(X, Y)."));
    cases.push_back({"fails_mid_union", mixed});
    UnionOfCqs single;
    single.Add(MustParseCq("p(X, Y) :- e(X, Z), e(Z, Y)."));
    cases.push_back({"single_disjunct", single});
  }
  for (Case& c : cases) {
    std::size_t serial_failing = 999;
    EvalStats serial_stats;
    StatusOr<bool> serial = IsUcqContainedInDatalog(
        c.theta, tc, "p", &serial_stats, CanonicalDbOptions(),
        &serial_failing);
    ASSERT_TRUE(serial.ok()) << c.name;
    for (int threads : {2, 4, 0}) {
      CanonicalDbOptions options;
      options.eval.num_threads = threads;
      std::size_t failing = 999;
      EvalStats stats;
      StatusOr<bool> parallel = IsUcqContainedInDatalog(
          c.theta, tc, "p", &stats, options, &failing);
      ASSERT_TRUE(parallel.ok()) << c.name;
      EXPECT_EQ(*parallel, *serial) << c.name << " threads=" << threads;
      EXPECT_EQ(failing, serial_failing) << c.name << " threads=" << threads;
      EXPECT_EQ(stats.facts_derived, serial_stats.facts_derived)
          << c.name << " threads=" << threads;
    }
  }
}

TEST(CanonicalDbBridgeTest, ParallelBackwardEquivalenceMatchesSerial) {
  // Engine-thread determinism through the full rec/nonrec equivalence
  // pipeline: the backward direction's canonical-database checks run the
  // engine's staged parallel rounds and must match the serial result.
  EquivalenceOptions parallel;
  parallel.canonical_db.eval.num_threads = 4;
  for (bool positive : {true, false}) {
    Program rec = positive ? Buys1Program() : Buys2Program();
    Program nonrec =
        positive ? Buys1NonrecursiveProgram() : Buys2NonrecursiveProgram();
    StatusOr<EquivalenceResult> serial =
        DecideRecNonrecEquivalence(rec, "buys", nonrec, "buys");
    StatusOr<EquivalenceResult> par = DecideRecNonrecEquivalence(
        rec, "buys", nonrec, "buys", parallel);
    ASSERT_TRUE(serial.ok() && par.ok());
    EXPECT_EQ(par->equivalent, serial->equivalent);
    EXPECT_EQ(par->forward_contained, serial->forward_contained);
    EXPECT_EQ(par->backward_contained, serial->backward_contained);
    EXPECT_EQ(par->backward_counterexample.has_value(),
              serial->backward_counterexample.has_value());
    EXPECT_EQ(par->backward_eval_stats.facts_derived,
              serial->backward_eval_stats.facts_derived);
  }
}

TEST(CanonicalDbBridgeTest, UnionCallReusesCarriedIr) {
  Program tc = TransitiveClosureProgram("e", "e");
  UnionOfCqs theta = PathQueries(2);
  EXPECT_FALSE(theta.has_carried_ir());
  StatusOr<bool> first = IsUcqContainedInDatalog(theta, tc, "p");
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(theta.has_carried_ir());
  // A second call on the same (unmutated) union re-interns nothing.
  std::size_t builds_before = ir::ProgramIrBuildCount();
  StatusOr<bool> second = IsUcqContainedInDatalog(theta, tc, "p");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(ir::ProgramIrBuildCount(), builds_before);
  EXPECT_EQ(*first, *second);
  // Mutation drops the carried IR.
  theta.Add(MustParseCq("p(X, Y) :- e(X, Y)."));
  EXPECT_FALSE(theta.has_carried_ir());
}

}  // namespace
}  // namespace datalog

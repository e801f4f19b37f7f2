// The engine's differential oracle: corpus::NaiveFixpoint, the AST-level
// textbook fixpoint that the certificate verifier trusts (no interning,
// no indexes, no planner, no strata, no threads). Engine tests compare
// every fixpoint they compute against it, as a set of ground atoms.
//
// NaiveFixpoint accepts only range-restricted programs, while the engine
// gives unsafe head variables (e.g. `dist0(X, X) :- .`) active-domain
// semantics. The oracle bridges the two: each unsafe head variable V
// gets an `__adom(V)` body atom, and the engine's active domain — every
// constant of the input database plus every constant of the program —
// is loaded as `__adom` facts.
#ifndef DATALOG_EQ_TESTS_NAIVE_ORACLE_H_
#define DATALOG_EQ_TESTS_NAIVE_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/ast/rule.h"
#include "src/corpus/naive.h"
#include "src/engine/database.h"

namespace datalog {

inline constexpr char kAdomPredicate[] = "__adom";

/// `program` with every head variable that no body atom binds guarded
/// by an `__adom(V)` body atom, so corpus::NaiveFixpoint accepts it.
inline Program GuardUnsafeHeadVariables(const Program& program) {
  Program guarded;
  for (const Rule& rule : program.rules()) {
    const std::vector<std::string> body_vars = CollectVariables(rule.body());
    std::vector<Atom> body = rule.body();
    for (const std::string& v : rule.head().VariableNames()) {
      if (std::find(body_vars.begin(), body_vars.end(), v) ==
          body_vars.end()) {
        body.push_back(Atom(kAdomPredicate, {Term::Variable(v)}));
      }
    }
    guarded.AddRule(Rule(rule.head(), std::move(body)));
  }
  return guarded;
}

/// The input facts plus the engine's active domain as `__adom` facts.
inline std::vector<Atom> OracleFacts(const Program& program,
                                     const Database& edb) {
  std::vector<Atom> facts = edb.AllFactAtoms();
  std::set<std::string> domain;
  auto add_constants = [&](const Atom& atom) {
    for (const Term& t : atom.args()) {
      if (t.is_constant()) domain.insert(t.name());
    }
  };
  for (const Atom& fact : facts) add_constants(fact);
  for (const Rule& rule : program.rules()) {
    add_constants(rule.head());
    for (const Atom& atom : rule.body()) add_constants(atom);
  }
  for (const std::string& c : domain) {
    facts.push_back(Atom(kAdomPredicate, {Term::Constant(c)}));
  }
  return facts;
}

/// Q_Π(D) for every predicate, by corpus::NaiveFixpoint; the `__adom`
/// scaffolding is removed from the result.
inline std::set<Atom> NaiveOracleFixpoint(const Program& program,
                                          const Database& edb) {
  StatusOr<std::set<Atom>> fixpoint = corpus::NaiveFixpoint(
      GuardUnsafeHeadVariables(program), OracleFacts(program, edb),
      /*max_facts=*/1'000'000);
  EXPECT_TRUE(fixpoint.ok()) << fixpoint.status();
  if (!fixpoint.ok()) return {};
  std::set<Atom> result;
  for (const Atom& atom : *fixpoint) {
    if (atom.predicate() != kAdomPredicate) result.insert(atom);
  }
  return result;
}

/// Success when `got` holds exactly the atoms of `want`; otherwise names
/// the first few missing and extra facts.
inline ::testing::AssertionResult SameFactSet(const Database& got,
                                              const std::set<Atom>& want) {
  const std::vector<Atom> got_atoms = got.AllFactAtoms();
  const std::set<Atom> got_set(got_atoms.begin(), got_atoms.end());
  if (got_set == want) return ::testing::AssertionSuccess();
  ::testing::AssertionResult failure = ::testing::AssertionFailure();
  failure << "engine has " << got_set.size() << " facts, naive fixpoint "
          << want.size() << ";";
  int shown = 0;
  for (const Atom& atom : want) {
    if (got_set.count(atom) == 0 && shown++ < 5) failure << " missing " << atom;
  }
  shown = 0;
  for (const Atom& atom : got_set) {
    if (want.count(atom) == 0 && shown++ < 5) failure << " extra " << atom;
  }
  return failure;
}

}  // namespace datalog

#endif  // DATALOG_EQ_TESTS_NAIVE_ORACLE_H_

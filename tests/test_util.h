// Shared helpers for tests: parse-or-fail wrappers, and the direct
// backward closure that goal-directed pruning is checked against.
#ifndef DATALOG_EQ_TESTS_TEST_UTIL_H_
#define DATALOG_EQ_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/ast/parser.h"
#include "src/cq/cq.h"

namespace datalog {

inline Program MustParseProgram(const std::string& text) {
  StatusOr<Program> program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status() << "\nwhile parsing:\n"
                            << text;
  return *program;
}

inline Rule MustParseRule(const std::string& text) {
  StatusOr<Rule> rule = ParseRule(text);
  EXPECT_TRUE(rule.ok()) << rule.status() << "\nwhile parsing: " << text;
  return *rule;
}

inline Atom MustParseAtom(const std::string& text) {
  StatusOr<Atom> atom = ParseAtom(text);
  EXPECT_TRUE(atom.ok()) << atom.status() << "\nwhile parsing: " << text;
  return *atom;
}

/// Parses a CQ written as a rule, e.g. "q(X, Y) :- e(X, Z), e(Z, Y)."
/// (the head predicate name is discarded).
inline ConjunctiveQuery MustParseCq(const std::string& text) {
  return CqFromRule(MustParseRule(text));
}

/// The rules of `program` whose head predicate is backward-reachable
/// from `goal`, in program order, computed directly: the goal is
/// reachable, and a reachable rule head makes every body predicate
/// reachable. The reference for src/analysis/reachability.h's pruning.
inline Program BackwardClosure(const Program& program,
                               const std::string& goal) {
  std::set<std::string> reachable = {goal};
  for (bool changed = true; changed;) {
    changed = false;
    for (const Rule& rule : program.rules()) {
      if (reachable.count(rule.head().predicate()) == 0) continue;
      for (const Atom& atom : rule.body()) {
        changed |= reachable.insert(atom.predicate()).second;
      }
    }
  }
  Program kept;
  for (const Rule& rule : program.rules()) {
    if (reachable.count(rule.head().predicate()) > 0) kept.AddRule(rule);
  }
  return kept;
}

}  // namespace datalog

#endif  // DATALOG_EQ_TESTS_TEST_UTIL_H_

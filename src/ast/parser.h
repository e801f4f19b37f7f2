// Text parser for Datalog programs.
//
// Grammar (Prolog-like):
//   program  := clause*
//   clause   := atom ( ":-" atoms? )? "."
//   atoms    := atom ("," atom)*
//   atom     := IDENT ( "(" terms? ")" )?      -- bare IDENT is 0-ary
//   terms    := term ("," term)*
//   term     := VARIABLE | CONSTANT
//   VARIABLE := [A-Z_][A-Za-z0-9_]*
//   CONSTANT := [a-z][A-Za-z0-9_]* | [0-9]+ | "quoted string"
// Comments run from '%' or '//' to end of line.
//
// `p(X) :- .` is accepted as an explicit empty body (equivalent to the fact
// `p(X).`, the paper's Example 6.2 convention).
#ifndef DATALOG_EQ_SRC_AST_PARSER_H_
#define DATALOG_EQ_SRC_AST_PARSER_H_

#include <string_view>

#include "src/ast/rule.h"
#include "src/util/status.h"

namespace datalog {

struct ParseOptions {
  /// Run the structural lint (src/analysis/diagnostics.h) on the parsed
  /// program and fail with the formatted error diagnostics when any
  /// error-severity lint fires (arity-mismatch; an empty program is a
  /// parse error regardless). Lint warnings never fail a parse. Opt out
  /// for deliberately malformed inputs — the datalog_lint CLI parses raw
  /// so it can diagnose arity-broken programs itself, and tests exercise
  /// invalid programs the same way. With lint off the program is NOT
  /// validated at all (Program::Validate is the lint's subset).
  bool lint = true;
};

/// Parses a full program. Returns InvalidArgumentError with line/column
/// information on malformed input, and (by default) with formatted lint
/// diagnostics when the parsed program fails the structural lint.
StatusOr<Program> ParseProgram(std::string_view text);
StatusOr<Program> ParseProgram(std::string_view text,
                               const ParseOptions& options);

/// Parses a single atom, e.g. "p(X, a)".
StatusOr<Atom> ParseAtom(std::string_view text);

/// Parses a single rule (with trailing '.'), e.g. "p(X) :- e(X, Y).".
StatusOr<Rule> ParseRule(std::string_view text);

/// True if the parser reads `name` as a predicate name: a lowercase ASCII
/// letter followed by letters, digits and underscores. Names outside this
/// set, such as `__domain` (a variable to the parser), are left to
/// auxiliary relations; the corpus reader refuses them as predicates.
bool IsPredicateName(std::string_view name);

}  // namespace datalog

#endif  // DATALOG_EQ_SRC_AST_PARSER_H_

// Canonical ("frozen") databases of conjunctive queries, the classic tool
// for deciding containment of a CQ in a Datalog program [CK86]: freeze the
// CQ's variables into fresh constants, evaluate the program on the frozen
// body, and test whether the frozen head tuple is derived.
//
// FreezeDisjunctIntoDatabase is a dictionary handoff from a ProgramIr
// straight into the engine's dictionary encoding. Each distinct
// predicate/constant/variable name crosses the string boundary once
// (memoized id→id), every further occurrence is an integer copy, and
// facts land as already-encoded tuples — no string round-trip on the hot
// path. Variable v freezes to the constant "@v", the spelling the
// independent verifier's NaiveFreezeCq (src/corpus/naive.h) also uses, so
// engine-exported witnesses compare fact for fact
// (tests/canonical_db_test.cc).
#ifndef DATALOG_EQ_SRC_CQ_CANONICAL_DB_H_
#define DATALOG_EQ_SRC_CQ_CANONICAL_DB_H_

#include <string>
#include <vector>

#include "src/cq/cq.h"
#include "src/engine/database.h"
#include "src/ir/ir.h"

namespace datalog {

/// The frozen-constant spelling for variable `name`: "@name". The '@'
/// prefix cannot be produced by the parser, so frozen constants never
/// collide with constants already present in the query.
std::string FrozenConstantName(const std::string& name);

/// Freezes disjunct `index` of `ir` (typically a union's carried IR; see
/// ir::CarriedIr) directly into `db`'s dictionary encoding and inserts
/// the frozen body facts. Returns the frozen head tuple as constant ids
/// of `db`'s dictionary — head-only variables are interned here but no
/// fact is added for them (the caller records them in its active-domain
/// relation).
///
/// Names are interned into `db` lazily in first-occurrence order (body
/// atoms in order, then the head), so the ids are a function of the
/// disjunct alone.
Tuple FreezeDisjunctIntoDatabase(const ir::ProgramIr& ir, std::size_t index,
                                 Database* db);

}  // namespace datalog

#endif  // DATALOG_EQ_SRC_CQ_CANONICAL_DB_H_

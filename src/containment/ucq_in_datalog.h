// Containment of unions of conjunctive queries in a Datalog program —
// the "easy" direction, decidable by the classic canonical-database method
// [CK86] cited in the paper's introduction: freeze each disjunct into a
// database, evaluate the program, and check that the frozen head tuple is
// derived. Theorem 2.3 reduces the union to its disjuncts, which are
// checked one at a time, in order.
//
// The freeze feeds the engine through the shared-IR dictionary handoff
// (FreezeDisjunctIntoDatabase, src/cq/canonical_db.h), reusing the
// union's carried ProgramIr across calls.
#ifndef DATALOG_EQ_SRC_CONTAINMENT_UCQ_IN_DATALOG_H_
#define DATALOG_EQ_SRC_CONTAINMENT_UCQ_IN_DATALOG_H_

#include <string>

#include "src/ast/rule.h"
#include "src/cq/cq.h"
#include "src/engine/eval.h"
#include "src/util/status.h"

namespace datalog {

/// The canonical-database instance behind one disjunct's negative
/// verdict, exported for independently checkable certificates: the frozen
/// body facts exactly as the engine loaded them (without the auxiliary
/// __domain relation) and the goal atom over the frozen head tuple. This
/// is the complete counterexample — any sound fixpoint over `facts` fails
/// to derive `goal_atom` (src/corpus/verify.h replays it with a naive
/// evaluator).
struct CanonicalDbWitness {
  std::vector<Atom> facts;
  Atom goal_atom;
};

struct CanonicalDbOptions {
  /// Engine options for each disjunct's canonical-database evaluation
  /// (num_threads sets the engine's staged rounds per disjunct).
  EvalOptions eval;
  /// When non-null and the verdict is "not contained", receives the
  /// frozen database of the first failing disjunct, for certificate
  /// export. Left untouched on a contained verdict. Unowned; must
  /// outlive the call.
  CanonicalDbWitness* witness = nullptr;
};

/// θ_i ⊆ Q_Π for one disjunct of a union, freezing through the union's
/// carried ProgramIr (ir::CarriedIr). For θ_i with head variables that do
/// not occur in the body, active-domain semantics applies (consistent
/// with the evaluation engine); such a θ_i over an empty body is
/// contained only if the program derives the goal over every database,
/// which the canonical-database method checks on the frozen instance.
/// When `stats` is non-null, the engine's work counters accumulate into
/// it across calls.
///
/// Both entries first drop the rules not backward-reachable from the
/// goal, via the active-domain-guarded PruneForEvaluation
/// (src/analysis/reachability.h): the guard declines to prune exactly
/// when removing a rule's constants could change an unsafe retained
/// rule's enumeration, so pruning never changes a verdict.
///
/// Both entries fail with InvalidArgument when the program or Θ names a
/// predicate `__domain`: that name is reserved for the auxiliary relation
/// the check adds to every canonical database. The parser and the corpus
/// reader cannot produce it as a predicate name.
StatusOr<bool> IsUcqDisjunctContainedInDatalog(
    const UnionOfCqs& theta, std::size_t disjunct, const Program& program,
    const std::string& goal, EvalStats* stats = nullptr,
    const CanonicalDbOptions& options = CanonicalDbOptions());

/// Θ ⊆ Q_Π: every disjunct contained, checked in order with the program
/// pruned once. Uses Θ's carried ProgramIr (ir::CarriedIr), so repeated
/// calls on the same union — the equivalence pipeline's backward
/// direction, the corpus forward stage — re-intern nothing. Stops at the
/// first uncontained disjunct: `failing_disjunct`, when non-null,
/// receives its index, and options.witness its frozen database.
StatusOr<bool> IsUcqContainedInDatalog(
    const UnionOfCqs& theta, const Program& program, const std::string& goal,
    EvalStats* stats = nullptr,
    const CanonicalDbOptions& options = CanonicalDbOptions(),
    std::size_t* failing_disjunct = nullptr);

}  // namespace datalog

#endif  // DATALOG_EQ_SRC_CONTAINMENT_UCQ_IN_DATALOG_H_

// Containment of (unions of) conjunctive queries in a Datalog program —
// the "easy" direction, decidable by the classic canonical-database method
// [CK86] cited in the paper's introduction: freeze the CQ into a database,
// evaluate the program, and check that the frozen head tuple is derived.
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

class ThreadPool;

/// The canonical-database instance behind one disjunct's verdict,
/// exported for independently checkable certificates: the frozen body
/// facts exactly as the engine loaded them (before evaluation, before
/// the auxiliary __domain relation) and the goal atom over the frozen
/// head tuple. On a negative verdict this is the complete
/// counterexample — any sound fixpoint over `facts` fails to derive
/// `goal_atom` (src/corpus/verify.h replays it with a naive evaluator).
struct CanonicalDbWitness {
  std::vector<Atom> facts;
  Atom goal_atom;
};

struct CanonicalDbOptions {
  /// Engine options for the canonical-database evaluations. num_threads
  /// additionally gates the union-level driver's disjunct fan-out: when
  /// it resolves to more than one thread, IsUcqContainedInDatalog
  /// evaluates its disjuncts concurrently across a worker pool (each
  /// disjunct's engine then runs serially — the two parallelism levels
  /// do not nest) with verdict, failing disjunct, and accumulated stats
  /// identical to the sequential loop's.
  EvalOptions eval;
  /// Optional caller-owned worker pool for the disjunct fan-out. When
  /// set, IsUcqContainedInDatalog schedules its disjuncts on this pool
  /// instead of constructing (and tearing down) a fresh ThreadPool per
  /// call — drivers that loop containment checks (the equivalence
  /// pipeline, rewriting searches) amortize thread spawns across the
  /// whole loop. The pool's own parallelism applies; eval.num_threads
  /// still decides whether fan-out happens at all. Unowned; must outlive
  /// the call.
  ThreadPool* pool = nullptr;
  /// When non-null, the single-disjunct entry points
  /// (IsCqContainedInDatalog, IsUcqDisjunctContainedInDatalog) fill in
  /// the frozen database they evaluated, for certificate export. The
  /// union-level driver ignores it (its disjunct fan-out would race on
  /// one slot); re-check the failing disjunct through the per-disjunct
  /// entry to capture its witness. Unowned; must outlive the call.
  CanonicalDbWitness* witness = nullptr;
};

/// θ ⊆ Q_Π: evaluates Π over the canonical database of θ and tests the
/// frozen head tuple. For θ with head variables that do not occur in the
/// body, active-domain semantics applies (consistent with the evaluation
/// engine); such a θ over an empty body is contained only if the program
/// derives the goal over every database, which the canonical-database
/// method checks on the frozen instance. When `stats` is non-null, the
/// engine's work counters accumulate into it across calls.
///
/// All three entries first drop the rules not backward-reachable from
/// the goal, via the active-domain-guarded PruneForEvaluation
/// (src/analysis/reachability.h): the guard declines to prune exactly
/// when removing a rule's constants could change an unsafe retained
/// rule's enumeration, so pruning never changes a verdict. The union
/// entry prunes once, before any disjunct loop or fan-out.
StatusOr<bool> IsCqContainedInDatalog(
    const ConjunctiveQuery& theta, const Program& program,
    const std::string& goal, EvalStats* stats = nullptr,
    const CanonicalDbOptions& options = CanonicalDbOptions());

/// θ_i ⊆ Q_Π for one disjunct of a union, freezing through the union's
/// carried ProgramIr (ir::CarriedIr). This is the entry for drivers that
/// loop single CQs: batch the CQs into a UnionOfCqs once and check
/// disjuncts through it, instead of paying a throwaway singleton IR per
/// IsCqContainedInDatalog call. IsUcqContainedInDatalog's sequential and
/// parallel loops are both built on it.
StatusOr<bool> IsUcqDisjunctContainedInDatalog(
    const UnionOfCqs& theta, std::size_t disjunct, const Program& program,
    const std::string& goal, EvalStats* stats = nullptr,
    const CanonicalDbOptions& options = CanonicalDbOptions());

/// Θ ⊆ Q_Π: every disjunct contained. Uses Θ's carried ProgramIr
/// (ir::CarriedIr), so repeated calls on the same union —
/// the equivalence pipeline's backward direction, rewriting searches —
/// re-intern nothing. When not contained and `failing_disjunct` is
/// non-null, it receives the index of the first uncontained disjunct.
StatusOr<bool> IsUcqContainedInDatalog(
    const UnionOfCqs& theta, const Program& program, const std::string& goal,
    EvalStats* stats = nullptr,
    const CanonicalDbOptions& options = CanonicalDbOptions(),
    std::size_t* failing_disjunct = nullptr);

}  // namespace datalog

#endif  // DATALOG_EQ_SRC_CONTAINMENT_UCQ_IN_DATALOG_H_

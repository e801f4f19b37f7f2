#include "src/containment/ucq_in_datalog.h"

#include <optional>
#include <vector>

#include "src/analysis/reachability.h"
#include "src/cq/canonical_db.h"
#include "src/engine/database.h"
#include "src/engine/eval.h"
#include "src/ir/ir.h"
#include "src/util/strings.h"

namespace datalog {
namespace {

// The auxiliary relation that puts the frozen head constants into the
// canonical instance's active domain. The parser reads `__domain` as a
// variable and the corpus reader refuses it as a predicate name, so only
// a program or union built in code can name it. Those are refused here
// rather than evaluated over the auxiliary rows.
constexpr char kDomainRelation[] = "__domain";

Status CheckNoReservedRelation(const Program& program,
                               const ir::ProgramIr& theta_ir) {
  bool named = theta_ir.predicates().Find(kDomainRelation) !=
               ir::NameDictionary::kNotFound;
  for (const Rule& rule : program.rules()) {
    named = named || rule.head().predicate() == kDomainRelation;
    for (const Atom& atom : rule.body()) {
      named = named || atom.predicate() == kDomainRelation;
    }
  }
  if (!named) return OkStatus();
  return InvalidArgumentError(
      StrCat("predicate name ", kDomainRelation,
             " is reserved for the canonical database's domain relation"));
}

// Freezes disjunct `index` of `theta_ir` into a fresh database, records
// the goal tuple's constants in the auxiliary domain relation (every
// frozen variable is part of the canonical instance's domain even when it
// appears only in the head, so the active domain is right for unsafe
// rules), evaluates, and tests the frozen head tuple. On a negative
// verdict a non-null `witness` receives the frozen database.
StatusOr<bool> IsDisjunctContained(const ir::ProgramIr& theta_ir,
                                   std::size_t index, const Program& program,
                                   const std::string& goal, EvalStats* stats,
                                   const EvalOptions& eval,
                                   CanonicalDbWitness* witness) {
  Database db;
  Tuple goal_tuple = FreezeDisjunctIntoDatabase(theta_ir, index, &db);
  PredicateId domain = db.InternPredicate(kDomainRelation, 1);
  for (int id : goal_tuple) db.AddTupleById(domain, {id});
  StatusOr<Relation> result = EvaluateGoal(program, goal, db, eval, stats);
  if (!result.ok()) return result.status();
  if (result->Contains(goal_tuple)) return true;
  if (witness != nullptr) {
    // EvaluateGoal does not mutate `db`, and AllFactAtoms lists relations
    // in id order, so the domain relation, interned after the frozen
    // body, holds the last rows: cut them.
    witness->facts = db.AllFactAtoms();
    witness->facts.resize(witness->facts.size() -
                          db.RelationOf(domain).size());
    std::vector<Term> goal_args;
    goal_args.reserve(goal_tuple.size());
    for (int id : goal_tuple) {
      goal_args.push_back(Term::Constant(db.dictionary().NameOf(id)));
    }
    witness->goal_atom = Atom(goal, std::move(goal_args));
  }
  return false;
}

}  // namespace

StatusOr<bool> IsUcqDisjunctContainedInDatalog(
    const UnionOfCqs& theta, std::size_t disjunct, const Program& program,
    const std::string& goal, EvalStats* stats,
    const CanonicalDbOptions& options) {
  const std::optional<Program> pruned = PruneForEvaluation(program, goal);
  const Program& prog = pruned.has_value() ? *pruned : program;
  const std::shared_ptr<ir::ProgramIr> theta_ir = ir::CarriedIr(theta);
  DATALOG_RETURN_IF_ERROR(CheckNoReservedRelation(program, *theta_ir));
  return IsDisjunctContained(*theta_ir, disjunct, prog, goal, stats,
                             options.eval, options.witness);
}

StatusOr<bool> IsUcqContainedInDatalog(const UnionOfCqs& theta,
                                       const Program& program,
                                       const std::string& goal,
                                       EvalStats* stats,
                                       const CanonicalDbOptions& options,
                                       std::size_t* failing_disjunct) {
  const std::optional<Program> pruned = PruneForEvaluation(program, goal);
  const Program& prog = pruned.has_value() ? *pruned : program;
  const std::shared_ptr<ir::ProgramIr> theta_ir = ir::CarriedIr(theta);
  DATALOG_RETURN_IF_ERROR(CheckNoReservedRelation(program, *theta_ir));
  for (std::size_t i = 0; i < theta.disjuncts().size(); ++i) {
    StatusOr<bool> contained = IsDisjunctContained(
        *theta_ir, i, prog, goal, stats, options.eval, options.witness);
    if (!contained.ok()) return contained;
    if (!*contained) {
      if (failing_disjunct != nullptr) *failing_disjunct = i;
      return false;
    }
  }
  return true;
}

}  // namespace datalog

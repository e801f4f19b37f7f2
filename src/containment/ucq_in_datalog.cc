#include "src/containment/ucq_in_datalog.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "src/analysis/reachability.h"
#include "src/cq/canonical_db.h"
#include "src/engine/database.h"
#include "src/engine/eval.h"
#include "src/ir/ir.h"
#include "src/util/thread_pool.h"

namespace datalog {
namespace {

// Freezes disjunct `index` of `theta_ir` into a fresh database, records
// the goal tuple's constants in the auxiliary domain relation (every
// frozen variable is part of the canonical instance's domain even when it
// appears only in the head, so the active domain is right for unsafe
// rules), evaluates, and tests the frozen head tuple.
StatusOr<bool> IsDisjunctContained(const ir::ProgramIr& theta_ir,
                                   std::size_t index, const Program& program,
                                   const std::string& goal, EvalStats* stats,
                                   const EvalOptions& eval,
                                   CanonicalDbWitness* witness = nullptr) {
  Database db;
  Tuple goal_tuple = FreezeDisjunctIntoDatabase(theta_ir, index, &db);
  if (witness != nullptr) {
    // Snapshot before evaluation and before the auxiliary __domain
    // relation: exactly the frozen facts the verdict is about.
    witness->facts = db.AllFactAtoms();
    std::vector<Term> goal_args;
    goal_args.reserve(goal_tuple.size());
    for (int id : goal_tuple) {
      goal_args.push_back(Term::Constant(db.dictionary().NameOf(id)));
    }
    witness->goal_atom = Atom(goal, std::move(goal_args));
  }
  PredicateId domain = db.InternPredicate("__domain", 1);
  for (int id : goal_tuple) db.AddTupleById(domain, {id});
  StatusOr<Relation> result = EvaluateGoal(program, goal, db, eval, stats);
  if (!result.ok()) return result.status();
  return result->Contains(goal_tuple);
}

}  // namespace

StatusOr<bool> IsCqContainedInDatalog(const ConjunctiveQuery& theta,
                                      const Program& program,
                                      const std::string& goal,
                                      EvalStats* stats,
                                      const CanonicalDbOptions& options) {
  const std::optional<Program> pruned = PruneForEvaluation(program, goal);
  const Program& prog = pruned.has_value() ? *pruned : program;
  // A bare CQ has no carrier to cache on; intern just this disjunct
  // (no union copy, no full FromUnion pass). Drivers that loop many CQs
  // should batch them into a UnionOfCqs and check disjuncts through
  // IsUcqDisjunctContainedInDatalog (or the union-level call), which
  // reuses the union's carried IR across the whole loop.
  ir::ProgramIr single;
  single.AddDisjunct(theta);
  return IsDisjunctContained(single, 0, prog, goal, stats, options.eval,
                             options.witness);
}

StatusOr<bool> IsUcqDisjunctContainedInDatalog(
    const UnionOfCqs& theta, std::size_t disjunct, const Program& program,
    const std::string& goal, EvalStats* stats,
    const CanonicalDbOptions& options) {
  const std::optional<Program> pruned = PruneForEvaluation(program, goal);
  const Program& prog = pruned.has_value() ? *pruned : program;
  return IsDisjunctContained(*ir::CarriedIr(theta), disjunct, prog, goal,
                             stats, options.eval, options.witness);
}

StatusOr<bool> IsUcqContainedInDatalog(const UnionOfCqs& theta,
                                       const Program& program,
                                       const std::string& goal,
                                       EvalStats* stats,
                                       const CanonicalDbOptions& options,
                                       std::size_t* failing_disjunct) {
  // Prune once, up front: both the sequential loop and the fan-out below
  // evaluate the same (possibly pruned) program per disjunct.
  const std::optional<Program> pruned = PruneForEvaluation(program, goal);
  const Program& prog = pruned.has_value() ? *pruned : program;
  const std::shared_ptr<ir::ProgramIr> theta_ir = ir::CarriedIr(theta);
  const std::size_t n = theta.disjuncts().size();
  const std::size_t threads = std::min(ResolvedEvalThreads(options.eval), n);

  if (threads > 1) {
    // Disjunct fan-out: every canonical-database evaluation is
    // independent, so they run concurrently over the shared immutable
    // carried IR and program. Each task evaluates with a serial engine
    // (the two parallelism levels do not nest) into its own stats; the
    // verdict, the failing disjunct, and the accumulated stats are then
    // derived in disjunct order, so they match the sequential loop's
    // regardless of scheduling.
    EvalOptions task_eval = options.eval;
    task_eval.num_threads = 1;
    std::vector<StatusOr<bool>> results(n, false);
    std::vector<EvalStats> task_stats(n);
    // Use the caller's pool when one is supplied; otherwise spin up a
    // call-local pool. The results are index-owned either way, so the
    // pool's width only affects scheduling, never the verdict.
    std::optional<ThreadPool> local_pool;
    if (options.pool == nullptr) local_pool.emplace(threads);
    ThreadPool& pool =
        options.pool != nullptr ? *options.pool : *local_pool;
    pool.ParallelFor(n, [&](std::size_t i) {
      results[i] = IsDisjunctContained(
          *theta_ir, i, prog, goal,
          stats != nullptr ? &task_stats[i] : nullptr, task_eval);
    });
    for (std::size_t i = 0; i < n; ++i) {
      // Stats fold up to and including the first failing or erroring
      // disjunct — where the sequential loop stops evaluating.
      if (stats != nullptr) stats->Accumulate(task_stats[i]);
      if (!results[i].ok()) return results[i];
      if (!*results[i]) {
        if (failing_disjunct != nullptr) *failing_disjunct = i;
        return false;
      }
    }
    return true;
  }

  for (std::size_t i = 0; i < n; ++i) {
    StatusOr<bool> contained =
        IsDisjunctContained(*theta_ir, i, prog, goal, stats, options.eval);
    if (!contained.ok()) return contained;
    if (!*contained) {
      if (failing_disjunct != nullptr) *failing_disjunct = i;
      return false;
    }
  }
  return true;
}

}  // namespace datalog

// Bottom-up Datalog evaluation: the semi-naive fixpoint computation of
// Q_Π(D) (paper §2.1), run per SCC stratum of the dependence graph.
// Unsafe rules (head variables not bound by the body, e.g.
// `dist0(x, x) :- .` from Example 6.2) are evaluated with active-domain
// semantics: unbound variables range over the active domain of the input
// database plus the program's constants.
//
// The engine works entirely over dense integer ids (constants and
// predicates are interned), probes hash column indexes instead of
// scanning relations (src/engine/index.h), and orders each rule body at
// runtime with a cost model over the indexes' bucket statistics, caching
// the compiled plan per (rule, delta position). The engine tests check
// every fixpoint against the AST-level naive evaluator
// corpus::NaiveFixpoint (src/corpus/naive.h).
#ifndef DATALOG_EQ_SRC_ENGINE_EVAL_H_
#define DATALOG_EQ_SRC_ENGINE_EVAL_H_

#include "src/ast/rule.h"
#include "src/cq/cq.h"
#include "src/engine/database.h"
#include "src/util/governor.h"

namespace datalog {

struct EvalOptions {
  /// Worker threads for the fixpoint. 1 (default) is the serial engine —
  /// bit-for-bit the pre-parallel code path, with chaotic in-round
  /// insertion. 0 resolves to the hardware concurrency. Any value > 1
  /// switches to staged parallel rounds: rules fan out across a worker
  /// pool against the frozen pre-round database, derived tuples are
  /// staged into per-task shard buffers, and a sharded merge dedups and
  /// appends them. The fixpoint (every relation, as a tuple set) is
  /// identical to the serial engine's, and identical run-to-run for any
  /// fixed thread count (see docs/engine.md, "Parallel evaluation").
  /// Each SCC stratum runs its own staged rounds on the shared pool.
  int num_threads = 1;
  /// The governed bounds (src/util/governor.h): deadline, CancelToken,
  /// fault injection, and the fact cap (`limits.max_facts`, resolving 0
  /// to 50M — the pre-governor `max_derived_facts` default). The cap
  /// counts head-tuple emissions, duplicates included, so a run can fail
  /// with far fewer distinct facts than the cap.
  /// Both fixpoints poll the governor at deterministic boundaries: the
  /// serial engine before every rule evaluation and every 1024 emissions,
  /// the parallel engine additionally at round starts and task starts —
  /// so a cancelled run stops within one bounded unit of work and still
  /// reports consistent EvalStats (counters are folded in task order
  /// before the error returns).
  ExecutionLimits limits;
};

struct EvalStats {
  /// Number of fixpoint rounds until no new facts appear.
  int iterations = 0;
  /// Number of distinct IDB facts derived.
  std::size_t facts_derived = 0;
  /// Number of candidate tuples examined while matching rule bodies (a
  /// work proxy; only index-bucket candidates count for indexed steps).
  std::size_t join_probes = 0;
  /// Number of hash lookups into column indexes.
  std::size_t index_probes = 0;
  /// Number of distinct (relation, column-pattern) indexes built.
  std::size_t index_builds = 0;
  /// Total rows absorbed into index buckets (builds plus catch-ups).
  std::size_t tuples_indexed = 0;
  /// Fixpoint rounds executed as staged parallel rounds (0 on the
  /// serial path).
  int rounds_parallel = 0;
  /// Tuples staged into shard buffers by parallel-round tasks
  /// (duplicates included; the merge phase dedups them).
  std::size_t tuples_staged = 0;
  /// Staged tuples dropped by the merge phase as duplicates — already
  /// in the relation before the round, or staged more than once within
  /// it.
  std::size_t merge_collisions = 0;
  /// Rule groups executed by the fixpoint: the number of (nonempty) SCC
  /// strata (src/analysis/stratify.h), evaluated dependencies first.
  int strata = 0;
  /// Rule-round evaluations avoided by stratification: for every round,
  /// the rules outside the current stratum that an unstratified round
  /// would have considered. 0 when the program is a single stratum.
  std::size_t rounds_saved = 0;
  /// Rule evaluations that stamped a cached join plan instead of
  /// re-planning.
  std::size_t plans_cached = 0;
  /// Join plans built: first-time plans plus rebuilds after a
  /// participating relation outgrew its recorded watermark. Flat per
  /// round once the fixpoint's relation sizes settle.
  std::size_t plans_rebuilt = 0;
  /// Sum of the cost model's estimated candidate cardinality over every
  /// placed plan step (cached stamps do not re-count). A cross-check
  /// that the model's estimates track join_probes in shape.
  std::size_t est_cost_total = 0;

  /// Folds `other`'s counters into this one (drivers that evaluate many
  /// databases — e.g. per-disjunct canonical-database checks — fold
  /// per-evaluation stats in a deterministic order).
  void Accumulate(const EvalStats& other) {
    iterations += other.iterations;
    facts_derived += other.facts_derived;
    join_probes += other.join_probes;
    index_probes += other.index_probes;
    index_builds += other.index_builds;
    tuples_indexed += other.tuples_indexed;
    rounds_parallel += other.rounds_parallel;
    tuples_staged += other.tuples_staged;
    merge_collisions += other.merge_collisions;
    strata += other.strata;
    rounds_saved += other.rounds_saved;
    plans_cached += other.plans_cached;
    plans_rebuilt += other.plans_rebuilt;
    est_cost_total += other.est_cost_total;
  }
};

/// Evaluates `program` over `edb` and returns a database containing both
/// the input facts and all derived IDB facts. The input database's
/// dictionary is extended with any constants appearing in the program.
StatusOr<Database> EvaluateProgram(const Program& program, const Database& edb,
                                   const EvalOptions& options = {},
                                   EvalStats* stats = nullptr);

/// Evaluates Q_Π(D): the relation of the goal predicate after evaluation.
StatusOr<Relation> EvaluateGoal(const Program& program,
                                const std::string& goal_predicate,
                                const Database& edb,
                                const EvalOptions& options = {},
                                EvalStats* stats = nullptr);

/// Evaluates a union of conjunctive queries directly over `edb` (no
/// recursion involved), returning the set of satisfying head tuples.
StatusOr<Relation> EvaluateUcq(const UnionOfCqs& ucq, const Database& edb);

}  // namespace datalog

#endif  // DATALOG_EQ_SRC_ENGINE_EVAL_H_

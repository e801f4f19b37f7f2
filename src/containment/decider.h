// On-the-fly decision procedure for containment of a recursive Datalog
// program in a union of conjunctive queries (Theorem 5.12).
//
// Conceptually this runs the emptiness test of
//   A^ptrees_{Q,Π}  ∩  complement( ∪_i A^θi_{Q,Π} )
// without materializing the doubly-exponential automata: a bottom-up least
// fixpoint discovers pairs (goal atom over var(Π), achievable set), where
// the achievable set — the set of (disjunct, β, pinned-images) triples
// some proof subtree with that root goal can strongly absorb — is exactly
// one state of the determinized ∪A^θi. Goal atoms are explored up to
// variable renaming (canonical instances; see instances.h) and child
// states are re-embedded through var(Π) permutations, which is complete
// because the semantics is renaming-equivariant.
//
// Π is contained in Θ iff every reachable root state accepts
// (Theorem 5.8); a reachable non-accepting root state yields a concrete
// counterexample proof tree.
//
// The fixpoint runs on the shared interned IR (src/ir/ir.h): goal atoms
// and canonical rule instances are dense ids, pinned images are
// ir::TermIds, and each goal's achievable sets are kept as exact bitsets
// over interned achieved-pair ids in an AntichainStore (src/util/bitset.h).
//
// Options: `antichain` keeps only ⊆-minimal achievable sets per goal
// (acceptance is ⊆-upward-closed and the combine step is monotone, so this
// is sound and complete); disabling it gives the exact subset
// construction, used for cross-validation.
#ifndef DATALOG_EQ_SRC_CONTAINMENT_DECIDER_H_
#define DATALOG_EQ_SRC_CONTAINMENT_DECIDER_H_

#include <memory>
#include <optional>
#include <string>

#include "src/ast/rule.h"
#include "src/containment/absorb.h"
#include "src/cq/cq.h"
#include "src/trees/expansion_tree.h"
#include "src/util/governor.h"
#include "src/util/status.h"

namespace datalog {

struct ContainmentStats;

struct ContainmentOptions {
  /// Keep only ⊆-minimal achievable sets per goal.
  bool antichain = true;
  /// Build counterexample proof trees (small cost; disable for benches).
  bool track_witness = true;
  /// The governed bounds (src/util/governor.h): deadline, CancelToken,
  /// fault injection, step budget (one step = one processed rule
  /// instance), and the state cap (`limits.max_states`, resolving 0 to
  /// 1M — the pre-governor default; beyond it the run aborts with
  /// ResourceExhausted). The absorption fixpoint polls the governor at
  /// every round start, every instance, and every 1024 combination-
  /// product iterations — all deterministic points, so the seeded
  /// FaultInjector fires reproducibly.
  ExecutionLimits limits;
  /// When set, receives the run's statistics on EVERY exit — including
  /// interruption (cancelled / deadline / state cap), where the
  /// StatusOr return carries no ContainmentDecision. The stats are
  /// consistent as of the interruption point (rounds counts the round
  /// being processed), making a bounded run's partial progress
  /// observable instead of vanishing into a bare error.
  ContainmentStats* partial_stats = nullptr;
  /// On a contained verdict, export the converged fixpoint table — every
  /// discovered goal atom with the achievable sets retained for it — into
  /// ContainmentDecision::trace, decoded back to Terms over var(Π). The
  /// table is an independently checkable witness of containment: it is
  /// closed under the bottom-up combination step and every root state
  /// accepts (src/corpus/verify.h replays exactly that invariant).
  bool export_trace = false;
};

struct ContainmentStats {
  std::size_t goals_discovered = 0;
  std::size_t states_discovered = 0;
  std::size_t combine_calls = 0;
  /// Combinations skipped because their (instance, child serials) memo row
  /// was already present.
  std::size_t memo_hits = 0;
  /// Canonical rule instances materialized into the cross-round cache.
  std::size_t instances_cached = 0;
  /// Candidate achieved-set pairs the per-goal AntichainStore subset-
  /// tested during antichain/dedup maintenance (the popcount-plausible
  /// ones; the rest are rejected by popcount alone).
  std::size_t subset_checks = 0;
  /// Retained states evicted because a newly discovered achieved set
  /// dominated them (antichain maintenance).
  std::size_t antichain_prunes = 0;
  /// 64-bit words examined by the word-parallel subset/equality kernels.
  std::size_t subset_word_ops = 0;
  /// Renamed child achieved sets served from the per-(instance, child,
  /// serial) memo instead of being recomputed (the rename work would
  /// otherwise be re-paid for every combination in the product).
  std::size_t rename_memo_hits = 0;
  /// Integer pinned-image comparisons performed by the combination and
  /// root-acceptance steps.
  std::size_t pinned_compares = 0;
  /// Rules skipped by goal-directed pruning: rules of Π whose head
  /// predicate is not backward-reachable from the goal
  /// (src/analysis/reachability.h). Such a rule can head no subtree of a
  /// goal-rooted proof tree, so skipping it changes neither the verdict
  /// nor the counterexample witness. 0 when every rule is reachable.
  std::size_t rules_pruned = 0;
  /// Full AST→IR interning passes this Decide call paid for the program.
  /// 0 when the program's carried ProgramIr (ir::CarriedIr) was already
  /// valid — i.e. on every Decide after the first against the same
  /// unmutated Program or reused checker.
  std::size_t program_ir_builds = 0;
  int rounds = 0;
};

struct ContainmentDecision {
  bool contained = true;
  /// When not contained: a proof tree of the goal predicate into which no
  /// disjunct maps strongly (a counterexample expansion), present when
  /// track_witness was set.
  std::optional<ExpansionTree> counterexample;
  /// When contained and export_trace was set: the converged fixpoint
  /// table, one entry per discovered goal atom (dense-goal-id order).
  AbsorptionTrace trace;
  ContainmentStats stats;
};

/// Reusable decider context for repeated containment questions about one
/// (program, goal) pair. The canonical rule instances of Π and the
/// interned goal-atom dictionary are independent of Θ, so drivers that
/// decide many candidate Θs against the same program — the boundedness
/// depth search, recursive/nonrecursive equivalence — build one checker
/// and re-pay neither the instance enumeration nor the goal interning per
/// candidate. A checker is not thread-safe; Decide calls must be
/// sequential.
class ContainmentChecker {
 public:
  ContainmentChecker(Program program, std::string goal);
  ~ContainmentChecker();
  ContainmentChecker(ContainmentChecker&&) noexcept;
  ContainmentChecker& operator=(ContainmentChecker&&) noexcept;

  const Program& program() const;
  const std::string& goal() const;

  /// Decides Q_Π ⊆ Θ; `theta` must outlive the call, not the checker.
  StatusOr<ContainmentDecision> Decide(
      const UnionOfCqs& theta,
      const ContainmentOptions& options = ContainmentOptions());

 private:
  friend class DeciderRun;
  // The one-shot wrapper borrows the caller's program for the duration of
  // the call instead of copying it into an owning checker.
  friend StatusOr<ContainmentDecision> DecideDatalogInUcq(
      const Program& program, const std::string& goal,
      const UnionOfCqs& theta, const ContainmentOptions& options);
  struct Context;
  std::unique_ptr<Context> context_;
};

/// Decides Q_Π ⊆ Θ for the goal predicate `goal` of `program`.
StatusOr<ContainmentDecision> DecideDatalogInUcq(
    const Program& program, const std::string& goal, const UnionOfCqs& theta,
    const ContainmentOptions& options = ContainmentOptions());

/// Convenience wrapper for a single conjunctive query.
StatusOr<ContainmentDecision> DecideDatalogInCq(
    const Program& program, const std::string& goal,
    const ConjunctiveQuery& theta,
    const ContainmentOptions& options = ContainmentOptions());

}  // namespace datalog

#endif  // DATALOG_EQ_SRC_CONTAINMENT_DECIDER_H_

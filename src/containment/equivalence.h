// Equivalence of recursive and nonrecursive Datalog programs — the
// paper's titular problem (Corollary 3.3, Theorems 6.4/6.5).
//
// Π ≡ Π' (Π recursive with goal Q, Π' nonrecursive) is decided as
//   Π ⊆ Π'  — unfold Π' to a UCQ (§6; exponential blowup) and run the
//             automata-theoretic containment decider (Theorem 5.12), and
//   Π' ⊆ Π  — the canonical-database test [CK86], one unfolded disjunct
//             at a time, in order (Theorem 2.3).
#ifndef DATALOG_EQ_SRC_CONTAINMENT_EQUIVALENCE_H_
#define DATALOG_EQ_SRC_CONTAINMENT_EQUIVALENCE_H_

#include <optional>
#include <string>

#include "src/containment/decider.h"
#include "src/containment/ucq_in_datalog.h"
#include "src/containment/unfold.h"
#include "src/cq/cq.h"
#include "src/engine/eval.h"

namespace datalog {

struct EquivalenceOptions {
  ContainmentOptions containment;
  UnfoldOptions unfold;
  /// Options for the backward direction's canonical-database checks,
  /// run one unfolded disjunct at a time; canonical_db.eval.num_threads
  /// sets the engine's staged rounds per disjunct.
  CanonicalDbOptions canonical_db;
};

struct EquivalenceResult {
  /// Π ⊆ Π' (recursive in nonrecursive).
  bool forward_contained = false;
  /// Π' ⊆ Π (nonrecursive in recursive).
  bool backward_contained = false;
  bool equivalent = false;
  /// When !forward_contained: a counterexample proof tree of Π whose
  /// expansion is not covered by Π'.
  std::optional<ExpansionTree> forward_counterexample;
  /// When !backward_contained: a disjunct of Π' not contained in Π.
  std::optional<ConjunctiveQuery> backward_counterexample;
  /// Size of Π' as a UCQ after unfolding.
  std::size_t unfolded_disjuncts = 0;
  ContainmentStats forward_stats;
  /// Evaluation-engine work done by the backward direction's
  /// canonical-database checks (accumulated across disjuncts).
  EvalStats backward_eval_stats;
};

/// Decides Q_Π ⊆ Q'_Π' for recursive Π and nonrecursive Π'
/// (Theorem 6.4 upper-bound path: unfold, then Theorem 5.12).
StatusOr<ContainmentDecision> DecideDatalogInNonrecursive(
    const Program& recursive, const std::string& recursive_goal,
    const Program& nonrecursive, const std::string& nonrecursive_goal,
    const EquivalenceOptions& options = EquivalenceOptions());

/// Decides Π ≡ Π' (Theorem 6.5).
StatusOr<EquivalenceResult> DecideRecNonrecEquivalence(
    const Program& recursive, const std::string& recursive_goal,
    const Program& nonrecursive, const std::string& nonrecursive_goal,
    const EquivalenceOptions& options = EquivalenceOptions());

/// Checker-reusing variants for drivers that test many nonrecursive
/// candidates against one recursive (program, goal) — e.g. rewriting
/// searches: the checker's interned instance cache is shared across
/// candidates instead of rebuilt per call.
StatusOr<ContainmentDecision> DecideDatalogInNonrecursive(
    ContainmentChecker& checker, const Program& nonrecursive,
    const std::string& nonrecursive_goal,
    const EquivalenceOptions& options = EquivalenceOptions());

StatusOr<EquivalenceResult> DecideRecNonrecEquivalence(
    ContainmentChecker& checker, const Program& nonrecursive,
    const std::string& nonrecursive_goal,
    const EquivalenceOptions& options = EquivalenceOptions());

}  // namespace datalog

#endif  // DATALOG_EQ_SRC_CONTAINMENT_EQUIVALENCE_H_

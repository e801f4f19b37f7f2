#include "src/containment/equivalence.h"

#include "src/ast/analysis.h"
#include "src/containment/ucq_in_datalog.h"
#include "src/util/strings.h"

namespace datalog {

StatusOr<ContainmentDecision> DecideDatalogInNonrecursive(
    ContainmentChecker& checker, const Program& nonrecursive,
    const std::string& nonrecursive_goal, const EquivalenceOptions& options) {
  StatusOr<UnionOfCqs> unfolded =
      UnfoldNonrecursive(nonrecursive, nonrecursive_goal, options.unfold);
  if (!unfolded.ok()) return unfolded.status();
  return checker.Decide(*unfolded, options.containment);
}

StatusOr<ContainmentDecision> DecideDatalogInNonrecursive(
    const Program& recursive, const std::string& recursive_goal,
    const Program& nonrecursive, const std::string& nonrecursive_goal,
    const EquivalenceOptions& options) {
  ContainmentChecker checker(recursive, recursive_goal);
  return DecideDatalogInNonrecursive(checker, nonrecursive,
                                     nonrecursive_goal, options);
}

StatusOr<EquivalenceResult> DecideRecNonrecEquivalence(
    ContainmentChecker& checker, const Program& nonrecursive,
    const std::string& nonrecursive_goal, const EquivalenceOptions& options) {
  if (IsRecursive(nonrecursive)) {
    return Status(InvalidArgumentError(
        "second program must be nonrecursive; swap the arguments"));
  }
  EquivalenceResult result;
  StatusOr<UnionOfCqs> unfolded =
      UnfoldNonrecursive(nonrecursive, nonrecursive_goal, options.unfold);
  if (!unfolded.ok()) return unfolded.status();
  result.unfolded_disjuncts = unfolded->size();

  // Forward direction: Π ⊆ Π' via Theorem 5.12.
  StatusOr<ContainmentDecision> forward =
      checker.Decide(*unfolded, options.containment);
  if (!forward.ok()) return forward.status();
  result.forward_contained = forward->contained;
  result.forward_counterexample = forward->counterexample;
  result.forward_stats = forward->stats;

  // Backward direction: Π' ⊆ Π via canonical databases, disjunct by
  // disjunct (Theorem 2.3 reduces UCQ containment to its disjuncts). The
  // union-level call freezes through the unfolded union's carried IR.
  std::size_t failing_disjunct = 0;
  StatusOr<bool> backward = IsUcqContainedInDatalog(
      *unfolded, checker.program(), checker.goal(),
      &result.backward_eval_stats, options.canonical_db, &failing_disjunct);
  if (!backward.ok()) return backward.status();
  result.backward_contained = *backward;
  if (!*backward) {
    result.backward_counterexample = unfolded->disjuncts()[failing_disjunct];
  }
  result.equivalent = result.forward_contained && result.backward_contained;
  return result;
}

StatusOr<EquivalenceResult> DecideRecNonrecEquivalence(
    const Program& recursive, const std::string& recursive_goal,
    const Program& nonrecursive, const std::string& nonrecursive_goal,
    const EquivalenceOptions& options) {
  ContainmentChecker checker(recursive, recursive_goal);
  return DecideRecNonrecEquivalence(checker, nonrecursive, nonrecursive_goal,
                                    options);
}

}  // namespace datalog

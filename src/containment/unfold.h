// Unfolding nonrecursive Datalog programs into unions of conjunctive
// queries (paper §2.1: a nonrecursive program has finitely many
// expansions; §6: the rewriting can blow up exponentially, which is why
// containment in nonrecursive programs is a triple-exponential problem).
#ifndef DATALOG_EQ_SRC_CONTAINMENT_UNFOLD_H_
#define DATALOG_EQ_SRC_CONTAINMENT_UNFOLD_H_

#include <cstdint>
#include <string>

#include "src/ast/rule.h"
#include "src/cq/cq.h"
#include "src/util/status.h"

namespace datalog {

struct UnfoldOptions {
  /// Abort with ResourceExhausted when the union grows beyond this.
  std::size_t max_disjuncts = 1'000'000;
  /// Abort when the total number of body atoms across disjuncts exceeds
  /// this.
  std::size_t max_total_atoms = 10'000'000;
};

/// Rewrites the nonrecursive `program` as a union of conjunctive queries
/// over the EDB predicates, equivalent to the goal predicate. Fails with
/// InvalidArgument on recursive programs.
StatusOr<UnionOfCqs> UnfoldNonrecursive(
    const Program& program, const std::string& goal,
    const UnfoldOptions& options = UnfoldOptions());

/// Size of the unfolding without materializing it (saturating at
/// UINT64_MAX): number of disjuncts and the largest disjunct's body atom
/// count. Used to reproduce the succinctness results of Examples 6.1/6.6.
struct UnfoldSizeEstimate {
  std::uint64_t disjuncts = 0;
  std::uint64_t max_disjunct_atoms = 0;
};
StatusOr<UnfoldSizeEstimate> EstimateUnfoldSize(const Program& program,
                                                const std::string& goal);

}  // namespace datalog

#endif  // DATALOG_EQ_SRC_CONTAINMENT_UNFOLD_H_

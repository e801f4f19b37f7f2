// Conjunctive-query minimization: computing the core of a CQ by folding
// redundant body atoms away. A classic application of containment mappings
// (Theorem 2.2); used by the equivalence pipeline to keep unfolded UCQs
// small.
#ifndef DATALOG_EQ_SRC_CQ_MINIMIZE_H_
#define DATALOG_EQ_SRC_CQ_MINIMIZE_H_

#include "src/cq/containment.h"
#include "src/cq/cq.h"

namespace datalog {

/// Returns an equivalent CQ with a minimal body (the core, unique up to
/// renaming): greedily removes body atoms a such that the query maps into
/// itself-minus-a by a containment mapping.
ConjunctiveQuery MinimizeCq(const ConjunctiveQuery& cq);

/// Minimizes every disjunct and removes redundant disjuncts.
UnionOfCqs MinimizeUcq(const UnionOfCqs& ucq);

}  // namespace datalog

#endif  // DATALOG_EQ_SRC_CQ_MINIMIZE_H_

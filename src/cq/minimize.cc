#include "src/cq/minimize.h"

#include <vector>

#include "src/cq/containment.h"

namespace datalog {

ConjunctiveQuery MinimizeCq(const ConjunctiveQuery& cq) {
  std::vector<Atom> body = cq.body();
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < body.size(); ++i) {
      std::vector<Atom> without;
      without.reserve(body.size() - 1);
      for (std::size_t j = 0; j < body.size(); ++j) {
        if (j != i) without.push_back(body[j]);
      }
      ConjunctiveQuery candidate(cq.head_args(), without);
      ConjunctiveQuery current(cq.head_args(), body);
      // `candidate` has a subset of atoms, so current ⊆ candidate holds
      // trivially; they are equivalent iff candidate ⊆ current, i.e. iff
      // there is a containment mapping from current to candidate.
      if (FindContainmentMapping(current, candidate).has_value()) {
        body = std::move(without);
        changed = true;
        break;
      }
    }
  }
  return ConjunctiveQuery(cq.head_args(), std::move(body));
}

UnionOfCqs MinimizeUcq(const UnionOfCqs& ucq) {
  UnionOfCqs minimized;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    minimized.Add(MinimizeCq(cq));
  }
  return RemoveRedundantDisjuncts(minimized);
}

}  // namespace datalog

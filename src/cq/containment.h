// Conjunctive-query containment via containment mappings
// (paper Definition 2.1, Theorems 2.2 and 2.3), generalized to allow
// constants (Remark 5.14) and head argument vectors with repeated
// variables or constants.
//
// Direction convention, matching the paper: a containment mapping *from ψ
// to θ* witnesses θ ⊆ ψ.
//
// The search runs on the shared interned IR (src/ir/ir.h): variables
// become dense frame-local ids, constants shared dictionary ids, the
// working substitution a dense vector of ir::TermIds, and every
// unification an integer compare.
#ifndef DATALOG_EQ_SRC_CQ_CONTAINMENT_H_
#define DATALOG_EQ_SRC_CQ_CONTAINMENT_H_

#include <optional>

#include "src/cq/cq.h"

namespace datalog {

/// Searches for a containment mapping from `psi` to `theta`: a renaming h
/// of psi's variables such that h(psi.head_args) == theta.head_args
/// pointwise and every h-image of a psi body atom occurs among theta's
/// body atoms. Returns the mapping (variable name -> term of theta) or
/// nullopt. Queries must have equal arity.
std::optional<Substitution> FindContainmentMapping(
    const ConjunctiveQuery& psi, const ConjunctiveQuery& theta);

/// θ ⊆ ψ (Theorem 2.2): true iff a containment mapping from psi to theta
/// exists.
bool IsCqContained(const ConjunctiveQuery& theta, const ConjunctiveQuery& psi);

/// Φ ⊆ Ψ for unions (Sagiv–Yannakakis, Theorem 2.3): every disjunct of phi
/// must be contained in some disjunct of psi.
bool IsUcqContained(const UnionOfCqs& phi, const UnionOfCqs& psi);

/// Φ ≡ Ψ.
bool IsUcqEquivalent(const UnionOfCqs& phi, const UnionOfCqs& psi);

/// Removes disjuncts contained in another disjunct (keeps a minimal
/// equivalent union; among mutually equivalent disjuncts the first is
/// kept).
UnionOfCqs RemoveRedundantDisjuncts(const UnionOfCqs& ucq);

}  // namespace datalog

#endif  // DATALOG_EQ_SRC_CQ_CONTAINMENT_H_

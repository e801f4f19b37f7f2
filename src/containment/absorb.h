// The (β, M) absorption machinery shared by the A^θ automaton construction
// (Proposition 5.10) and the on-the-fly containment decider (§5.2).
//
// An *achieved pair* (query, β, pinned) records that a proof subtree can
// strongly absorb the atom subset β (a bitmask) of disjunct `query`, with
// every exposed variable of β pinned to an image term that is visible in
// the subtree's root goal (a variable of the goal atom, or a constant).
// This is the bottom-up rendering of the paper's automaton states
// (α, β, M), with M restricted to the exposed variables (a
// language-preserving quotient — see query_analysis.h).
//
// `CombineAtNode` implements one bottom-up automaton step: given a rule
// instance ρ and one achieved pair per child subtree, it enumerates the
// pairs achievable at the parent, i.e. the transition relation of
// Proposition 5.10 read bottom-up (conditions 1-4 of the paper map to the
// partition/consistency/visibility checks here).
//
// The machinery comes in two encodings with identical semantics. The
// Term-level one (AchievedPair, CombineAtNode over a Rule, RootAccepts
// over an Atom) is called only by the independent certificate verifier
// (src/corpus/verify.cc) and the explicit A^θ construction
// (theta_automaton.cc); it shares no interning with the deciders, which
// is what makes the verifier an independent oracle. The IR encoding
// (IrAchievedPair and friends, below) is what the on-the-fly decider and
// the linear word-automaton arm run on.
#ifndef DATALOG_EQ_SRC_CONTAINMENT_ABSORB_H_
#define DATALOG_EQ_SRC_CONTAINMENT_ABSORB_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/ast/rule.h"
#include "src/containment/query_analysis.h"
#include "src/util/bitset.h"

namespace datalog {

/// Pinned exposed-variable images: (variable id, image term), sorted by
/// variable id.
using PinnedMap = std::vector<std::pair<int, Term>>;

struct AchievedPair {
  int query = 0;
  std::uint64_t mask = 0;
  PinnedMap pinned;

  bool operator==(const AchievedPair& other) const {
    return query == other.query && mask == other.mask &&
           pinned == other.pinned;
  }
  bool operator<(const AchievedPair& other) const {
    if (query != other.query) return query < other.query;
    if (mask != other.mask) return mask < other.mask;
    return pinned < other.pinned;
  }
  std::string ToString() const;
};

/// A deduplicated, sorted set of achieved pairs: the "achievable set" of a
/// proof subtree (one deterministic-subset-construction state). The empty
/// pair (β = ∅) is implicit and never stored.
///
/// The sort order is load-bearing: IsAchievedSubset runs a linear merge
/// (std::includes) over both sets and set equality is positional, so an
/// AchievedSet must stay sorted by AchievedPair::operator< at all times —
/// do not replace it with a hashed container.
using AchievedSet = std::vector<AchievedPair>;

/// Inserts `pair` keeping the set sorted and unique.
void InsertPair(AchievedSet* set, AchievedPair pair);

/// True if every pair of `a` also occurs in `b` (both sorted).
bool IsAchievedSubset(const AchievedSet& a, const AchievedSet& b);

/// One bottom-up combination step at a node labeled with `instance`.
///
/// `queries`: analyses of all disjuncts of Θ.
/// `instance`: the rule instance ρ labelling the node (head = node goal).
/// `edb_atoms`: pointers to the EDB atoms of ρ's body.
/// `child_goals`: the IDB atoms of ρ's body, in order.
/// `child_sets`: the achievable set of each child subtree, with pinned
///   images expressed in the instance's variable frame.
///
/// Emits every nonempty pair achievable at the parent into `out`
/// (deduplicated). The implicit empty pair stays implicit.
void CombineAtNode(const std::vector<QueryAnalysis>& queries,
                   const Rule& instance,
                   const std::vector<const Atom*>& edb_atoms,
                   const std::vector<Atom>& child_goals,
                   const std::vector<const AchievedSet*>& child_sets,
                   AchievedSet* out);

/// One fixpoint-table row exported by the decider when
/// ContainmentOptions::export_trace is set: a canonical goal atom over
/// var(Π) and every achievable set retained for it at convergence
/// (the ⊆-minimal ones under the antichain option). The full table is
/// the inductive invariant behind a "contained" verdict — base, closure
/// under CombineAtNode, and root acceptance — which an independent
/// verifier can re-check without the decider (src/corpus/verify.h;
/// docs/corpus.md, "Absorption traces").
struct AbsorptionTraceEntry {
  Atom goal;
  std::vector<AchievedSet> sets;
};
using AbsorptionTrace = std::vector<AbsorptionTraceEntry>;

/// Root acceptance (Theorem 5.8 / start states of Proposition 5.10): true
/// if some disjunct maps strongly into a subtree with root goal
/// `root_goal` whose achievable set is `set` — i.e. the disjunct's head
/// unifies with the root goal's argument vector and, when the disjunct has
/// body atoms, `set` contains a full-mask pair whose pinned distinguished
/// images agree with that unification.
bool RootAccepts(const std::vector<QueryAnalysis>& queries,
                 const Atom& root_goal, const AchievedSet& set);

/// Like RootAccepts for a single disjunct (the set must contain only this
/// disjunct's pairs).
bool RootAcceptsQuery(const QueryAnalysis& query, const Atom& root_goal,
                      const AchievedSet& set);

// --- the interned IR encoding of the same machinery -------------------
//
// The Term-level encoding above moves Term objects (heap strings) through
// every bind, compare, and sort. The IR encoding runs the identical
// semantics on dense ids: pinned images are ir::TermId (variables are
// frame-local proof-variable indexes, constants dictionary ids), so
// homomorphism and consistency checks are single integer compares. One
// enumerator kernel, the IrEnumerateAbsorptions template at the end of
// this file, serves both IR steps: the bottom-up CombineAtNode and the
// linear arm's top-down forward step (ThetaWordUnion::Expand in
// linear.cc), each passing its visitor inline.
// tests/decider_agreement_test.cc checks the decider built on it against
// the explicit automata and against verifier replay of its traces.

/// Pinned exposed-variable images on the IR encoding, sorted by variable
/// id. The pair is trivially copyable.
using IrPinnedMap = std::vector<std::pair<std::int32_t, ir::TermId>>;

struct IrAchievedPair {
  std::int32_t query = 0;
  std::uint64_t mask = 0;
  IrPinnedMap pinned;

  bool operator==(const IrAchievedPair& other) const {
    return query == other.query && mask == other.mask &&
           pinned == other.pinned;
  }
  bool operator<(const IrAchievedPair& other) const {
    if (query != other.query) return query < other.query;
    if (mask != other.mask) return mask < other.mask;
    return pinned < other.pinned;
  }
};

/// Sorted, deduplicated achieved set on the IR encoding. InsertPair
/// binary-searches it, so it must stay sorted by IrAchievedPair::operator<
/// at all times.
using IrAchievedSet = std::vector<IrAchievedPair>;

/// Inserts `pair` keeping the set sorted and unique.
void InsertPair(IrAchievedSet* set, IrAchievedPair pair);

/// An instance-side atom on the IR encoding: predicate dictionary id plus
/// TermId arguments (variables are proof-variable indexes in the
/// instance's frame, constants dictionary ids).
using IrInstanceAtom = ir::TermAtom;

/// IR rendering of CombineAtNode: one bottom-up combination step at a
/// node whose rule instance has EDB body atoms `edb_atoms` and whose head
/// contains exactly the proof variables set in `parent_visible` (a Bitset
/// indexed by proof-variable index). `child_sets` are the children's
/// achievable sets with pinned images already renamed into the instance
/// frame. Every integer pinned-image comparison is counted into
/// `*pinned_compares` when non-null.
void CombineAtNode(const std::vector<IrQueryAnalysis>& queries,
                   const std::vector<IrInstanceAtom>& edb_atoms,
                   const Bitset& parent_visible,
                   const std::vector<const IrAchievedSet*>& child_sets,
                   IrAchievedSet* out, std::size_t* pinned_compares);

/// IR rendering of RootAccepts: `root_goal_args` are the root goal's
/// argument TermIds (the goal predicate is checked by the caller).
bool RootAccepts(const std::vector<IrQueryAnalysis>& queries,
                 const std::vector<ir::TermId>& root_goal_args,
                 const IrAchievedSet& set, std::size_t* pinned_compares);

/// The absorption enumerator on the IR encoding, shared by the IR
/// CombineAtNode and the linear arm's forward step: enumerates every
/// subset β' of the candidate atoms `candidate_mask` of `query` (atoms at
/// or after `atom_index`) that maps homomorphically into `edb_atoms`
/// consistently with `*assignment`, and calls `emit(chosen | β')` with
/// `*assignment` extended by that mapping (dense, indexed by query
/// variable id; invalid TermId = unassigned). The empty subset is
/// included. Every unification is an integer compare, counted into
/// `*pinned_compares` when non-null. Binds go on `*trail` and are undone
/// before returning, so the assignment ends as it began. A template over
/// the visitor, so each absorption is a direct call, not a
/// std::function one.
template <typename Emit>
void IrEnumerateAbsorptions(const IrQueryAnalysis& query,
                            std::uint64_t candidate_mask,
                            const std::vector<IrInstanceAtom>& edb_atoms,
                            ir::DenseBinding* assignment,
                            std::vector<std::int32_t>* trail, int atom_index,
                            std::uint64_t chosen, std::size_t* pinned_compares,
                            Emit&& emit) {
  int n = static_cast<int>(query.body.size());
  while (atom_index < n &&
         (candidate_mask & (std::uint64_t{1} << atom_index)) == 0) {
    ++atom_index;
  }
  if (atom_index >= n) {
    emit(chosen);
    return;
  }
  const IrQueryAtom& from = query.body[atom_index];
  // Option 1: skip this atom.
  IrEnumerateAbsorptions(query, candidate_mask, edb_atoms, assignment, trail,
                         atom_index + 1, chosen, pinned_compares, emit);
  // Option 2: map it to some EDB atom of the rule body.
  for (const IrInstanceAtom& to : edb_atoms) {
    if (to.predicate != from.predicate ||
        to.args.size() != from.args.size()) {
      continue;
    }
    std::size_t mark = trail->size();
    bool ok = true;
    for (std::size_t i = 0; i < from.args.size(); ++i) {
      std::int32_t f = from.args[i];
      ir::TermId t = to.args[i];
      if (f < 0) {  // constant: image must be the same constant
        if (t != ir::TermId::Constant(static_cast<std::uint32_t>(~f))) {
          ok = false;
          break;
        }
        continue;
      }
      if (!assignment->Bind(f, t, trail, pinned_compares)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      IrEnumerateAbsorptions(query, candidate_mask, edb_atoms, assignment,
                             trail, atom_index + 1,
                             chosen | (std::uint64_t{1} << atom_index),
                             pinned_compares, emit);
    }
    assignment->Undo(trail, mark);
  }
}

}  // namespace datalog

#endif  // DATALOG_EQ_SRC_CONTAINMENT_ABSORB_H_

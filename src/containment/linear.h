// Containment for linear programs via WORD automata — the parenthetical
// track of Theorem 5.12 (EXPSPACE instead of 2EXPTIME).
//
// When every rule has at most one IDB subgoal, proof trees are paths, so
// ptrees(Q,Π) and the strongly-covered trees are regular *word* languages
// over the rule-instance alphabet: a word lists the labels from the root
// down to the leaf. A^ptrees becomes an NFA over IDB-atom states; A^θ
// becomes an NFA over states (goal atom, pending atom set β, pinned
// images m) that absorbs θ's atoms greedily down the path; containment is
// then NFA containment (PSPACE in the automata, Proposition 4.3), decided
// by the on-the-fly subset construction with antichain pruning. The A^θ
// side is exponential, so its states are built on demand, only as the
// subset construction reaches them.
#ifndef DATALOG_EQ_SRC_CONTAINMENT_LINEAR_H_
#define DATALOG_EQ_SRC_CONTAINMENT_LINEAR_H_

#include <functional>
#include <optional>
#include <string>

#include "src/automata/nfa.h"
#include "src/containment/ptrees_automaton.h"
#include "src/cq/cq.h"
#include "src/trees/expansion_tree.h"
#include "src/util/governor.h"
#include "src/util/status.h"

namespace datalog {

struct LinearContainmentOptions {
  bool antichain = true;
  /// The governed bounds (src/util/governor.h): deadline, CancelToken,
  /// fault injection, plus the construction caps — `limits.max_states`
  /// (0 resolves to 500k) for each disjunct's theta word automaton and
  /// `limits.max_labels` (0 resolves to 2M) for the alphabet, the
  /// pre-governor defaults. The same limits govern the alphabet
  /// enumeration, the theta automata's on-demand expansion (one step per
  /// expanded state), and the NFA containment check.
  ExecutionLimits limits;
};

struct LinearContainmentResult {
  bool contained = true;
  /// A counterexample path proof tree when not contained.
  std::optional<ExpansionTree> counterexample;
  std::size_t alphabet_size = 0;
  std::size_t ptrees_states = 0;
  /// Theta states materialised by the search: every disjunct's accept
  /// and initial states, plus the states reached from the ones the search
  /// expanded. The theta automata are built on demand, so this is at most
  /// (and usually far below) the size of their eager union.
  std::size_t theta_states = 0;
  /// (state, subset) pairs explored by the NFA containment check.
  std::size_t pairs_explored = 0;
};

/// The containment search run on the word automata: decides
/// L(ptrees) ⊆ L(theta), where `theta` is the on-demand union that
/// `expand_theta` grows (see Nfa::Contains). Null means Nfa::Contains;
/// tests substitute reference searches.
using LinearSearch = std::function<StatusOr<Nfa::ContainmentResult>(
    const Nfa& ptrees, const Nfa& theta, const Nfa::Expander& expand_theta,
    const Nfa::ContainmentOptions& options)>;

/// Decides Q_Π ⊆ Θ for a linear-in-IDB program (every rule has at most one
/// IDB subgoal); InvalidArgument otherwise.
StatusOr<LinearContainmentResult> DecideLinearDatalogInUcq(
    const Program& program, const std::string& goal, const UnionOfCqs& theta,
    const LinearContainmentOptions& options = LinearContainmentOptions(),
    const LinearSearch& search = nullptr);

}  // namespace datalog

#endif  // DATALOG_EQ_SRC_CONTAINMENT_LINEAR_H_

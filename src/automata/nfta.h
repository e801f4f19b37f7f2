// Nondeterministic finite tree automata over ranked alphabets
// (paper §4.2), in bottom-up form.
//
// Each symbol has a fixed arity. A transition (symbol, (c1..ck), s) lets a
// node labeled `symbol` whose children evaluated to states c1..ck evaluate
// to state s; a tree is accepted when its root can evaluate to a final
// state. This is the standard bottom-up presentation; the paper's top-down
// automata (§4.2) translate by reversing transitions, with the paper's
// initial states becoming final states here.
//
// Supports the operations the paper relies on: boolean closure
// (Proposition 4.4), linear-time emptiness (Proposition 4.5), and
// containment (Proposition 4.6; EXPTIME-complete) via an on-the-fly
// product with the subset construction, with optional antichain pruning.
#ifndef DATALOG_EQ_SRC_AUTOMATA_NFTA_H_
#define DATALOG_EQ_SRC_AUTOMATA_NFTA_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/util/governor.h"
#include "src/util/status.h"

namespace datalog {

/// A finite ordered tree with integer-labeled nodes.
struct LabeledTree {
  int symbol = 0;
  std::vector<LabeledTree> children;

  std::size_t Size() const;
  std::size_t Depth() const;
  bool operator==(const LabeledTree& other) const;
  std::string ToString() const;
};

class Nfta {
 public:
  /// `symbol_arity[i]` is the arity of symbol i.
  Nfta(std::size_t num_states, std::vector<int> symbol_arity);

  std::size_t num_states() const { return num_states_; }
  std::size_t num_symbols() const { return symbol_arity_.size(); }
  int SymbolArity(int symbol) const { return symbol_arity_[symbol]; }
  const std::vector<int>& symbol_arities() const { return symbol_arity_; }

  int AddState();
  void AddTransition(int symbol, std::vector<int> children, int state);
  void SetFinal(int state, bool is_final = true);
  bool IsFinal(int state) const { return final_[state]; }
  std::size_t NumTransitions() const { return transitions_.size(); }

  struct Transition {
    int symbol;
    std::vector<int> children;
    int state;
  };
  const std::vector<Transition>& transitions() const { return transitions_; }

  bool Accepts(const LabeledTree& tree) const;

  /// T(A) == ∅, by the bottom-up reachable-state fixpoint
  /// (Proposition 4.5).
  bool IsEmpty() const;

  /// Some accepted tree (of minimal construction order), or nullopt.
  std::optional<LabeledTree> WitnessTree() const;

  /// Disjoint union: T = T(a) ∪ T(b). Alphabets must match.
  static Nfta Union(const Nfta& a, const Nfta& b);

  /// Product: T = T(a) ∩ T(b). Alphabets must match.
  static Nfta Intersection(const Nfta& a, const Nfta& b);

  /// Bottom-up subset construction; the result is deterministic and
  /// complete. Fails with ResourceExhausted beyond `max_states`.
  StatusOr<Nfta> Determinize(std::size_t max_states = 1u << 16) const;

  /// Complement via determinization (exponential in the worst case).
  StatusOr<Nfta> Complement(std::size_t max_states = 1u << 16) const;

  struct ContainmentOptions {
    bool antichain = true;
    /// The governed bounds (src/util/governor.h): deadline, CancelToken,
    /// fault injection, and the explored-pair cap
    /// (`limits.max_explored`, resolving 0 to 10M — the pre-governor
    /// default; beyond it the run aborts with ResourceExhausted). The
    /// fixpoint polls the governor at every round and every explored
    /// pair.
    ExecutionLimits limits;
  };
  struct ContainmentResult {
    bool contained = true;
    /// A witness tree in T(a) \ T(b) when not contained.
    LabeledTree counterexample;
    std::size_t explored = 0;
  };

  /// Decides T(a) ⊆ T(b) via a bottom-up fixpoint over pairs of an
  /// `a`-state and the subset of `b`-states reachable on the same tree.
  /// The subsets are word-parallel Bitsets, and each a-state's discovered
  /// family is indexed by an AntichainStore (src/util/bitset.h).
  static StatusOr<ContainmentResult> Contains(
      const Nfta& a, const Nfta& b, const ContainmentOptions& options);
  static StatusOr<ContainmentResult> Contains(const Nfta& a, const Nfta& b);

  std::string ToString() const;

 private:
  std::size_t num_states_;
  std::vector<int> symbol_arity_;
  std::vector<Transition> transitions_;
  std::vector<std::vector<std::size_t>> by_symbol_;  // transition indices
  std::vector<bool> final_;
};

/// Enumerates all trees over `symbol_arity` with depth <= max_depth,
/// stopping after max_trees or when `visit` returns false. Returns false
/// if cut short.
bool EnumerateLabeledTrees(const std::vector<int>& symbol_arity,
                           std::size_t max_depth, std::size_t max_trees,
                           const std::function<bool(const LabeledTree&)>& visit);

}  // namespace datalog

#endif  // DATALOG_EQ_SRC_AUTOMATA_NFTA_H_

// Nondeterministic finite word automata (paper §4.1).
//
// Symbols are dense integers 0..num_symbols-1 (callers keep their own label
// tables). Transitions are stored sparsely, as per-state edge lists, so
// every operation pays for the edges that exist rather than for
// states × symbols. Supports the operations the paper relies on: boolean
// closure (Proposition 4.1), emptiness via reachability (Proposition 4.2),
// and containment via on-the-fly subset construction with optional
// antichain pruning (Proposition 4.3; PSPACE-complete in general).
#ifndef DATALOG_EQ_SRC_AUTOMATA_NFA_H_
#define DATALOG_EQ_SRC_AUTOMATA_NFA_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/util/governor.h"
#include "src/util/status.h"

namespace datalog {

class Nfa {
 public:
  /// One transition: on `symbol`, to state `target`.
  struct Edge {
    int symbol;
    int target;
  };

  Nfa(std::size_t num_states, std::size_t num_symbols);

  std::size_t num_states() const { return edges_.size(); }
  std::size_t num_symbols() const { return num_symbols_; }

  int AddState();
  void AddTransition(int from, int symbol, int to);
  void SetInitial(int state, bool initial = true);
  void SetAccepting(int state, bool accepting = true);

  bool IsInitial(int state) const { return initial_[state]; }
  bool IsAccepting(int state) const { return accepting_[state]; }
  /// The transitions leaving `state`, in ascending symbol order and, within
  /// one symbol, in the order they were added. Every algorithm below visits
  /// edges in this order, so results do not depend on how the callers
  /// interleaved their AddTransition calls across symbols.
  const std::vector<Edge>& Edges(int state) const { return edges_[state]; }
  std::size_t NumTransitions() const;

  bool Accepts(const std::vector<int>& word) const;

  /// L(A) == ∅, by graph reachability (Proposition 4.2).
  bool IsEmpty() const;

  /// Some accepted word (shortest), or nullopt if the language is empty.
  std::optional<std::vector<int>> ShortestWord() const;

  /// Disjoint union: L = L(a) ∪ L(b). Alphabets must match.
  static Nfa Union(const Nfa& a, const Nfa& b);

  /// Product: L = L(a) ∩ L(b). Alphabets must match.
  static Nfa Intersection(const Nfa& a, const Nfa& b);

  /// Subset construction; the result is deterministic and complete.
  /// Fails with ResourceExhausted beyond `max_states`.
  StatusOr<Nfa> Determinize(std::size_t max_states = 1u << 20) const;

  /// Complement via determinization (exponential in the worst case, per
  /// [MF71]).
  StatusOr<Nfa> Complement(std::size_t max_states = 1u << 20) const;

  struct ContainmentOptions {
    /// Prune subset states dominated by a smaller visited subset.
    bool antichain = true;
    /// The governed bounds (src/util/governor.h): deadline, CancelToken,
    /// fault injection, and the explored-pair cap
    /// (`limits.max_explored`, resolving 0 to 10M — the pre-governor
    /// default; beyond it the run aborts with ResourceExhausted). The
    /// BFS polls the governor at every queue pop.
    ExecutionLimits limits;
  };
  struct ContainmentResult {
    bool contained = true;
    /// A witness word in L(a) \ L(b) when not contained.
    std::vector<int> counterexample;
    /// Number of (state, subset) pairs explored.
    std::size_t explored = 0;
  };

  /// Adds the out-edges of one right-hand state to the automaton being
  /// searched (and any states they lead to); see Contains.
  using Expander = std::function<Status(int state)>;

  /// Decides L(a) ⊆ L(b) by an on-the-fly product of `a` with the subset
  /// construction of `b`, breadth-first, so counterexamples are shortest.
  /// Subsets of b's states are Bitsets; each a-state's visited subsets
  /// live in an AntichainStore (src/util/bitset.h).
  ///
  /// With `expand`, `b` is built on demand: it starts with its initial
  /// states, and before the search steps a popped subset, `expand` is
  /// called once for each member it has not seen yet, to add that state's
  /// out-edges (new states, accepting or not, may come with them). `b` is
  /// the automaton `expand` grows, so it is re-read after each call. A
  /// failed expansion ends the search with its Status. The search only
  /// tests subsets for inclusion and intersection, so it gives the same
  /// verdict, `explored` and counterexample as on the fully built `b`.
  static StatusOr<ContainmentResult> Contains(
      const Nfa& a, const Nfa& b, const ContainmentOptions& options,
      const Expander& expand = nullptr);
  static StatusOr<ContainmentResult> Contains(const Nfa& a, const Nfa& b);

  std::string ToString() const;

 private:
  std::size_t num_symbols_;
  std::vector<bool> initial_;
  std::vector<bool> accepting_;
  // edges_[state], kept sorted by symbol; stable within one symbol.
  std::vector<std::vector<Edge>> edges_;
};

}  // namespace datalog

#endif  // DATALOG_EQ_SRC_AUTOMATA_NFA_H_

// The explicit tree automaton A^ptrees_{Q,Π} of Proposition 5.9, whose
// language is exactly ptrees(Q, Π) — the proof trees of the goal
// predicate. Faithful to the paper: the alphabet is the set of rule
// instances over var(Π) (exponential in the size of Π), the states are the
// IDB atoms over var(Π), and (read bottom-up) a node labeled by instance ρ
// maps the states of its children (the IDB body atoms of ρ) to the state
// head(ρ); final states are the goal-predicate atoms.
//
// Labels and states are interned on flat integer rows (rule templates
// stamped per variable assignment, deduplicated through a VarKeyTable over
// shared name dictionaries); Term-level labels and state atoms are decoded
// on demand. tests/ptrees_automaton_test.cc checks the alphabet against a
// direct ForEachInstanceOver enumeration.
//
// Intended for small programs and cross-validation against the on-the-fly
// decider; construction cost is exponential by design.
#ifndef DATALOG_EQ_SRC_CONTAINMENT_PTREES_AUTOMATON_H_
#define DATALOG_EQ_SRC_CONTAINMENT_PTREES_AUTOMATON_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/ast/rule.h"
#include "src/automata/nfta.h"
#include "src/ir/ir.h"
#include "src/trees/expansion_tree.h"
#include "src/util/flat_table.h"
#include "src/util/governor.h"
#include "src/util/status.h"

namespace datalog {

/// The label alphabet of Propositions 5.9/5.10: every instance of every
/// program rule over var(Π), tagged with the originating rule. The symbol
/// arity is the number of IDB atoms in the instance's body.
struct ProgramAlphabet {
  std::vector<std::size_t> label_rule_index;
  /// Positions of IDB atoms in each label's body (children align).
  std::vector<std::vector<std::size_t>> label_idb_positions;
  std::vector<int> arities;
  std::vector<std::string> proof_vars;

  // --- interned identity -----------------------------------------------
  // Labels are rows [pred, arity, enc(arg)...] per atom, head first, over
  // the shared dictionaries: proof variable $k encodes as -(k+1),
  // constants as their non-negative dictionary ids (the decider's goal-row
  // convention). The VarKeyTable's dense index is the symbol.
  ir::NameDictionary predicates;
  ir::NameDictionary constants;
  VarKeyTable label_keys;

  /// Per-symbol IR encoding of a label in the instance frame (argument
  /// TermIds are proof-variable indexes or constant dictionary ids). The
  /// word- and tree-automaton constructions run on these rows instead of
  /// the Term-level labels.
  struct LabelIr {
    std::int32_t head_pred = 0;
    std::vector<ir::TermId> head_args;
    /// Non-IDB body atoms, in body order.
    std::vector<ir::TermAtom> edb_atoms;
    /// IDB body atoms (the children), aligned with label_idb_positions.
    std::vector<ir::TermAtom> idb_atoms;
  };
  std::vector<LabelIr> label_ir;

  /// Number of symbols (one `arities` entry per label).
  std::size_t num_labels() const { return arities.size(); }

  /// Labels materialized so far by Label() — the lazy decode's work
  /// counter, pinned by tests/ptrees_automaton_test.cc: the IR
  /// constructions render no label at all, and witness decoding renders
  /// only the symbols on the witness path.
  std::size_t num_decoded_labels() const { return decoded_labels_; }

  /// The Term-level rendering of a label, decoded from the LabelIr
  /// through the dictionaries on first use and cached, so constructions
  /// that never render a symbol (the IR word/tree automata) pay nothing.
  const Rule& Label(std::size_t symbol) const;

  /// Decodes one instance-frame IR atom into Terms (dictionary lookups);
  /// lets callers that need a single atom — e.g. automaton state atoms —
  /// avoid rendering the whole label.
  Atom DecodeAtom(const ir::TermAtom& atom) const;

  int SymbolOf(const Rule& instance) const;

 private:
  // Lazily decoded labels, indexed by symbol.
  mutable std::vector<std::unique_ptr<Rule>> label_cache_;
  mutable std::size_t decoded_labels_ = 0;
};

/// Enumerates the full alphabet. `limits` carries the governed bounds
/// (src/util/governor.h): deadline, CancelToken, fault injection, and the
/// label cap (`limits.max_labels`, 0 resolving to 2M — the pre-governor
/// default; beyond it the enumeration fails with ResourceExhausted). A
/// rule whose |var(Π)|^|vars(r)| instances alone exceed the cap fails
/// before anything is enumerated, after one poll charging max_labels + 1
/// steps. The enumeration polls the governor once per enumerated
/// instance, and counts only distinct labels against the cap: duplicate
/// instances of an alphabet already at the cap are fine.
StatusOr<ProgramAlphabet> BuildProgramAlphabet(
    const Program& program,
    const ExecutionLimits& limits = ExecutionLimits());

struct PtreesAutomaton {
  ProgramAlphabet alphabet;
  Nfta nfta = Nfta(0, {});
  VarKeyTable state_keys;  // [pred, enc(arg)...] rows; index = state

  std::size_t num_states() const { return state_keys.size(); }

  /// The Term-level atom of a state, decoded from the state's key row
  /// through the alphabet dictionaries on first use and cached, so
  /// constructions that never render a state — emptiness tests, the
  /// explicit containment pipeline — pay nothing.
  const Atom& StateAtom(std::size_t state) const;

  /// State atoms materialized so far by StateAtom() — the lazy decode's
  /// work counter (see ProgramAlphabet's num_decoded_labels).
  std::size_t num_decoded_state_atoms() const {
    return decoded_state_atoms_;
  }

  int StateOf(const Atom& atom) const;

 private:
  // Lazily decoded state atoms, indexed by state.
  mutable std::vector<std::unique_ptr<Atom>> state_cache_;
  mutable std::size_t decoded_state_atoms_ = 0;
};

/// Builds A^ptrees_{Q,Π} (Proposition 5.9), with `limits` as for
/// BuildProgramAlphabet. Rules not backward-reachable from `goal` are
/// dropped first (src/analysis/reachability.h) — they cannot label any
/// node of a goal-rooted proof tree, so the accepted language is
/// unchanged while the alphabet (exponential per rule) shrinks.
StatusOr<PtreesAutomaton> BuildPtreesAutomaton(
    const Program& program, const std::string& goal,
    const ExecutionLimits& limits = ExecutionLimits());

/// Encodes a proof tree as a labeled tree over the alphabet; nullopt if a
/// node's rule instance is not an alphabet label (i.e. uses variables
/// outside var(Π)).
std::optional<LabeledTree> ProofTreeToLabeledTree(
    const ProgramAlphabet& alphabet, const ExpansionTree& tree);

/// Decodes a labeled tree back into an expansion tree (goals are the
/// instance heads). The result may fail ValidateExpansionTree if the
/// labeled tree was not actually accepted.
ExpansionTree LabeledTreeToProofTree(const ProgramAlphabet& alphabet,
                                     const LabeledTree& tree);

}  // namespace datalog

#endif  // DATALOG_EQ_SRC_CONTAINMENT_PTREES_AUTOMATON_H_

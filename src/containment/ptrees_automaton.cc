#include "src/containment/ptrees_automaton.h"

#include <functional>
#include <set>
#include <unordered_map>

#include "src/analysis/reachability.h"
#include "src/ast/analysis.h"
#include "src/containment/instances.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace datalog {
namespace {

// One program rule encoded once onto the alphabet's dictionaries: atoms
// carry the predicate dictionary id plus int arguments (rule-variable
// slot in VariableNames() order, or ~constant_id). Instances are then
// stamped out of the template at integer cost — no substitution maps, no
// rendered strings (the decider's RuleTemplate scheme).
struct AlphabetRuleTemplate {
  struct AtomTpl {
    std::int32_t predicate = 0;
    bool idb = false;
    // args >= 0: rule-variable slot; args < 0: constant ~dictionary_id.
    std::vector<std::int32_t> args;
  };
  AtomTpl head;
  std::vector<AtomTpl> body;
  std::vector<std::size_t> idb_positions;
};

AlphabetRuleTemplate BuildAlphabetTemplate(
    const Rule& rule, const std::set<std::string>& idb,
    ir::NameDictionary* predicates, ir::NameDictionary* constants) {
  AlphabetRuleTemplate tpl;
  std::vector<std::string> vars = rule.VariableNames();
  std::unordered_map<std::string, std::int32_t> slots;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    slots.emplace(vars[i], static_cast<std::int32_t>(i));
  }
  auto encode_atom = [&](const Atom& atom) {
    AlphabetRuleTemplate::AtomTpl enc;
    enc.predicate =
        static_cast<std::int32_t>(predicates->Intern(atom.predicate()));
    enc.idb = idb.count(atom.predicate()) > 0;
    enc.args.reserve(atom.arity());
    for (const Term& t : atom.args()) {
      if (t.is_variable()) {
        enc.args.push_back(slots.at(t.name()));
      } else {
        enc.args.push_back(
            ~static_cast<std::int32_t>(constants->Intern(t.name())));
      }
    }
    return enc;
  };
  tpl.head = encode_atom(rule.head());
  tpl.body.reserve(rule.body().size());
  for (std::size_t i = 0; i < rule.body().size(); ++i) {
    tpl.body.push_back(encode_atom(rule.body()[i]));
    if (tpl.body.back().idb) tpl.idb_positions.push_back(i);
  }
  return tpl;
}

// Appends one atom of a label row: [pred, arity, enc(arg)...]. The arity
// makes the concatenated row self-delimiting, so two distinct instances
// can never stamp equal rows.
void AppendAtomRow(const AlphabetRuleTemplate::AtomTpl& atom,
                   const std::vector<std::size_t>& choice,
                   std::vector<int>* row) {
  row->push_back(atom.predicate);
  row->push_back(static_cast<int>(atom.args.size()));
  for (std::int32_t arg : atom.args) {
    row->push_back(arg >= 0 ? -(static_cast<int>(choice[arg]) + 1)
                            : static_cast<int>(~arg));
  }
}

// Encodes a Term-level atom as a row over the alphabet's dictionaries
// (lookup only — nothing is interned); false if the atom uses a
// predicate/constant the alphabet never saw or a non-proof variable.
bool EncodeAtomRow(const ProgramAlphabet& alphabet, const Atom& atom,
                   bool with_arity, std::vector<int>* row) {
  std::uint32_t pred = alphabet.predicates.Find(atom.predicate());
  if (pred == ir::NameDictionary::kNotFound) return false;
  row->push_back(static_cast<int>(pred));
  if (with_arity) row->push_back(static_cast<int>(atom.arity()));
  for (const Term& t : atom.args()) {
    if (t.is_variable()) {
      if (!IsProofVariableName(t.name())) return false;
      std::size_t k = ProofVariableIndex(t.name());
      if (k >= alphabet.proof_vars.size()) return false;
      row->push_back(-(static_cast<int>(k) + 1));
    } else {
      std::uint32_t c = alphabet.constants.Find(t.name());
      if (c == ir::NameDictionary::kNotFound) return false;
      row->push_back(static_cast<int>(c));
    }
  }
  return true;
}

// True when base^exponent > cap, computed without overflow.
bool PowerExceeds(std::size_t base, std::size_t exponent, std::size_t cap) {
  std::size_t power = 1;
  for (; exponent > 0; --exponent) {
    if (base != 0 && power > cap / base) return true;
    power *= base;
  }
  return power > cap;
}

}  // namespace

// Enumerates the |proof_vars|^k assignments of each rule by choice vector
// (the same depth-first order ForEachInstanceOver visits), stamps the
// label row from the template, and keeps only the IR encoding of rows the
// VarKeyTable has not seen.
StatusOr<ProgramAlphabet> BuildProgramAlphabet(const Program& program,
                                               const ExecutionLimits& limits) {
  // The instances of one rule are pairwise distinct (every variable's
  // image shows in the instance), so a rule with more than max_labels
  // assignments over var(Π) overflows the cap whatever the other rules
  // add: fail before enumerating. The enumeration would have charged at
  // least max_labels + 1 steps first; charging them here keeps
  // cancellation, faults and smaller step budgets reporting as before.
  const std::size_t max_labels = limits.LabelsOr(2'000'000);
  const std::size_t num_proof_vars = VarNum(program);
  for (const Rule& rule : program.rules()) {
    if (PowerExceeds(num_proof_vars, rule.VariableNames().size(),
                     max_labels)) {
      Governor governor(limits, "alphabet enumeration");
      DATALOG_RETURN_IF_ERROR(governor.ChargeSteps(max_labels + 1));
      return Status(ResourceExhaustedError(
          StrCat("alphabet exceeded ", max_labels, " labels")));
    }
  }
  Governor governor(limits, "alphabet enumeration");
  Status interrupt = OkStatus();
  ProgramAlphabet alphabet;
  alphabet.proof_vars = ProofVariables(program);
  std::set<std::string> idb = program.IdbPredicates();
  auto encode_ir_atom = [&](const AlphabetRuleTemplate::AtomTpl& atom,
                            const std::vector<std::size_t>& choice) {
    ir::TermAtom enc;
    enc.predicate = atom.predicate;
    enc.args.reserve(atom.args.size());
    for (std::int32_t arg : atom.args) {
      enc.args.push_back(
          arg >= 0
              ? ir::TermId::Variable(static_cast<std::uint32_t>(choice[arg]))
              : ir::TermId::Constant(static_cast<std::uint32_t>(~arg)));
    }
    return enc;
  };

  std::vector<int> row;
  bool overflow = false;
  for (std::size_t rule_index = 0; rule_index < program.rules().size();
       ++rule_index) {
    const Rule& rule = program.rules()[rule_index];
    AlphabetRuleTemplate tpl = BuildAlphabetTemplate(
        rule, idb, &alphabet.predicates, &alphabet.constants);
    std::size_t num_vars = rule.VariableNames().size();
    std::vector<std::size_t> choice(num_vars, 0);
    std::function<bool(std::size_t)> recurse =
        [&](std::size_t index) -> bool {
      if (index < num_vars) {
        for (std::size_t c = 0; c < alphabet.proof_vars.size(); ++c) {
          choice[index] = c;
          if (!recurse(index + 1)) return false;
        }
        return true;
      }
      interrupt = governor.ChargeSteps(1);
      if (!interrupt.ok()) return false;
      row.clear();
      AppendAtomRow(tpl.head, choice, &row);
      for (const AlphabetRuleTemplate::AtomTpl& atom : tpl.body) {
        AppendAtomRow(atom, choice, &row);
      }
      auto [symbol, inserted] = alphabet.label_keys.Intern(row.data(),
                                                           row.size());
      if (!inserted) return true;  // duplicate instance
      // Only a new distinct label can overflow the cap.
      if (alphabet.num_labels() >= max_labels) {
        overflow = true;
        return false;
      }
      DATALOG_CHECK_EQ(static_cast<std::size_t>(symbol),
                       alphabet.num_labels());
      // No Term-level label is materialized here: the alphabet keeps only
      // the IR encoding, and ProgramAlphabet::Label decodes a Rule
      // through the dictionaries on first demand.
      ProgramAlphabet::LabelIr label_ir;
      label_ir.head_pred = tpl.head.predicate;
      label_ir.head_args = encode_ir_atom(tpl.head, choice).args;
      for (const AlphabetRuleTemplate::AtomTpl& atom : tpl.body) {
        if (atom.idb) {
          label_ir.idb_atoms.push_back(encode_ir_atom(atom, choice));
        } else {
          label_ir.edb_atoms.push_back(encode_ir_atom(atom, choice));
        }
      }
      alphabet.arities.push_back(static_cast<int>(tpl.idb_positions.size()));
      alphabet.label_idb_positions.push_back(tpl.idb_positions);
      alphabet.label_rule_index.push_back(rule_index);
      alphabet.label_ir.push_back(std::move(label_ir));
      return true;
    };
    if (!recurse(0)) {
      if (!interrupt.ok()) return interrupt;
      if (overflow) {
        return Status(ResourceExhaustedError(
            StrCat("alphabet exceeded ", max_labels, " labels")));
      }
    }
  }
  return alphabet;
}

Atom ProgramAlphabet::DecodeAtom(const ir::TermAtom& atom) const {
  std::vector<Term> args;
  args.reserve(atom.args.size());
  for (ir::TermId t : atom.args) {
    args.push_back(t.is_variable() ? Term::Variable(proof_vars[t.index()])
                                   : Term::Constant(constants.name(
                                         t.index())));
  }
  return Atom(predicates.name(static_cast<std::uint32_t>(atom.predicate)),
              std::move(args));
}

const Rule& ProgramAlphabet::Label(std::size_t symbol) const {
  if (label_cache_.size() < num_labels()) label_cache_.resize(num_labels());
  std::unique_ptr<Rule>& slot = label_cache_[symbol];
  if (slot == nullptr) {
    // Rebuild the body in original order by interleaving the EDB and IDB
    // encodings: label_idb_positions records where the IDB atoms sat.
    const LabelIr& enc = label_ir[symbol];
    const std::vector<std::size_t>& idb_pos = label_idb_positions[symbol];
    std::size_t body_size = enc.edb_atoms.size() + enc.idb_atoms.size();
    std::vector<Atom> body;
    body.reserve(body_size);
    std::size_t next_edb = 0;
    std::size_t next_idb = 0;
    for (std::size_t pos = 0; pos < body_size; ++pos) {
      bool is_idb = next_idb < idb_pos.size() && idb_pos[next_idb] == pos;
      body.push_back(DecodeAtom(is_idb ? enc.idb_atoms[next_idb++]
                                       : enc.edb_atoms[next_edb++]));
    }
    ir::TermAtom head;
    head.predicate = enc.head_pred;
    head.args = enc.head_args;
    slot = std::make_unique<Rule>(DecodeAtom(head), std::move(body));
    ++decoded_labels_;
  }
  return *slot;
}

int ProgramAlphabet::SymbolOf(const Rule& instance) const {
  std::vector<int> row;
  if (!EncodeAtomRow(*this, instance.head(), /*with_arity=*/true, &row)) {
    return -1;
  }
  for (const Atom& atom : instance.body()) {
    if (!EncodeAtomRow(*this, atom, /*with_arity=*/true, &row)) return -1;
  }
  std::uint32_t symbol = label_keys.Find(row.data(), row.size());
  return symbol == VarKeyTable::kNotFound ? -1 : static_cast<int>(symbol);
}

int PtreesAutomaton::StateOf(const Atom& atom) const {
  std::vector<int> row;
  if (!EncodeAtomRow(alphabet, atom, /*with_arity=*/false, &row)) return -1;
  std::uint32_t state = state_keys.Find(row.data(), row.size());
  return state == VarKeyTable::kNotFound ? -1 : static_cast<int>(state);
}

const Atom& PtreesAutomaton::StateAtom(std::size_t state) const {
  if (state_cache_.size() < state_keys.size()) {
    state_cache_.resize(state_keys.size());
  }
  std::unique_ptr<Atom>& slot = state_cache_[state];
  if (slot == nullptr) {
    // A state row is [pred, enc(arg)...] over the alphabet dictionaries
    // (proof variable $k as -(k+1), constants as dictionary ids).
    const int* row = state_keys.KeyData(state);
    const std::size_t length = state_keys.KeyLength(state);
    std::vector<Term> args;
    args.reserve(length - 1);
    for (std::size_t i = 1; i < length; ++i) {
      args.push_back(row[i] < 0
                         ? Term::Variable(alphabet.proof_vars[-row[i] - 1])
                         : Term::Constant(alphabet.constants.name(
                               static_cast<std::uint32_t>(row[i]))));
    }
    slot = std::make_unique<Atom>(
        alphabet.predicates.name(static_cast<std::uint32_t>(row[0])),
        std::move(args));
    ++decoded_state_atoms_;
  }
  return *slot;
}

StatusOr<PtreesAutomaton> BuildPtreesAutomaton(const Program& program,
                                               const std::string& goal,
                                               const ExecutionLimits& limits) {
  // Goal-directed pruning: an unreachable rule's instances could label no
  // node of a goal-rooted run, so dropping them changes no accepted tree
  // — only the alphabet size. (The alphabet copies the rules, so the
  // pruned program can be call-local.)
  const std::optional<Program> pruned = PruneUnreachableRules(program, goal);
  const Program& prog = pruned.has_value() ? *pruned : program;
  PtreesAutomaton automaton;
  DATALOG_ASSIGN_OR_RETURN(automaton.alphabet,
                           BuildProgramAlphabet(prog, limits));
  // States: every IDB atom occurring as a label head or IDB body atom.
  Nfta nfta(0, automaton.alphabet.arities);
  // States are [pred, enc(arg)...] rows over the alphabet's
  // dictionaries; the VarKeyTable index is the state id.
  std::vector<int> row;
  // No Term-level state atom is materialized here: the key row IS the
  // state identity, and StateAtom() decodes a row on demand for the
  // few callers that want to render one.
  auto state_of = [&](const ir::TermAtom& encoded) -> int {
    row.clear();
    row.push_back(encoded.predicate);
    for (ir::TermId t : encoded.args) row.push_back(ir::EncodeRowTerm(t));
    auto [id, inserted] =
        automaton.state_keys.Intern(row.data(), row.size());
    if (inserted) nfta.AddState();
    return static_cast<int>(id);
  };
  std::uint32_t goal_pred = automaton.alphabet.predicates.Find(goal);
  for (std::size_t symbol = 0;
       symbol < automaton.alphabet.num_labels(); ++symbol) {
    const ProgramAlphabet::LabelIr& label_ir =
        automaton.alphabet.label_ir[symbol];
    std::vector<int> children;
    children.reserve(label_ir.idb_atoms.size());
    for (std::size_t j = 0; j < label_ir.idb_atoms.size(); ++j) {
      children.push_back(state_of(label_ir.idb_atoms[j]));
    }
    ir::TermAtom head;
    head.predicate = label_ir.head_pred;
    head.args = label_ir.head_args;
    int head_state = state_of(head);
    nfta.AddTransition(static_cast<int>(symbol), std::move(children),
                       head_state);
  }
  // Final states (the paper's start states, read top-down): all
  // goal-predicate atoms, including goal atoms that only ever occur as
  // children (a state row's first int is its predicate id).
  for (std::size_t s = 0; s < automaton.state_keys.size(); ++s) {
    if (goal_pred != ir::NameDictionary::kNotFound &&
        static_cast<std::uint32_t>(automaton.state_keys.KeyData(s)[0]) ==
            goal_pred) {
      nfta.SetFinal(static_cast<int>(s));
    }
  }
  automaton.nfta = std::move(nfta);
  return automaton;
}

std::optional<LabeledTree> ProofTreeToLabeledTree(
    const ProgramAlphabet& alphabet, const ExpansionTree& tree) {
  std::function<std::optional<LabeledTree>(const ExpansionNode&)> encode =
      [&](const ExpansionNode& node) -> std::optional<LabeledTree> {
    int symbol = alphabet.SymbolOf(node.rule);
    if (symbol < 0) return std::nullopt;
    LabeledTree encoded;
    encoded.symbol = symbol;
    for (const ExpansionNode& child : node.children) {
      std::optional<LabeledTree> encoded_child = encode(child);
      if (!encoded_child.has_value()) return std::nullopt;
      encoded.children.push_back(std::move(*encoded_child));
    }
    return encoded;
  };
  return encode(tree.root());
}

ExpansionTree LabeledTreeToProofTree(const ProgramAlphabet& alphabet,
                                     const LabeledTree& tree) {
  std::function<ExpansionNode(const LabeledTree&)> decode =
      [&](const LabeledTree& node) {
        DATALOG_CHECK_LT(static_cast<std::size_t>(node.symbol),
                         alphabet.num_labels());
        ExpansionNode decoded;
        decoded.rule = alphabet.Label(node.symbol);
        decoded.goal = decoded.rule.head();
        decoded.idb_positions = alphabet.label_idb_positions[node.symbol];
        for (const LabeledTree& child : node.children) {
          decoded.children.push_back(decode(child));
        }
        return decoded;
      };
  return ExpansionTree(decode(tree));
}

}  // namespace datalog

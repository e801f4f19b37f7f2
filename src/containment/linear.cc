#include "src/containment/linear.h"

#include <deque>
#include <optional>

#include "src/analysis/reachability.h"
#include "src/ast/analysis.h"
#include "src/containment/absorb.h"
#include "src/containment/query_analysis.h"
#include "src/ir/ir.h"
#include "src/util/bitset.h"
#include "src/util/flat_table.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace datalog {
namespace {

// The automata are built from the alphabet's per-symbol IR encodings
// (ProgramAlphabet::LabelIr): IDB atoms over var(Π) intern to dense ids
// through rows [pred, enc(arg)...] in a VarKeyTable, and the absorption
// enumeration runs on IrEnumerateAbsorptions' TermIds — no Terms move
// and nothing is rendered.

// The A^ptrees word automaton's per-symbol lookup structures, which the
// theta automata share: dense IDB-atom ids, symbols grouped by head atom,
// and each symbol's child atom id / child-visible proof variables.
struct LinearIrContext {
  VarKeyTable atom_keys;
  std::vector<ir::TermAtom> atoms;               // by atom id
  std::vector<std::vector<int>> labels_by_head;  // by atom id
  std::vector<int> child_atom_id;                // by symbol; -1 for leaves
  // By symbol, indexed by proof-variable index: does the variable occur
  // in the child goal (the paper's visibility condition 4)?
  std::vector<Bitset> child_visible;

  std::uint32_t InternAtom(const ir::TermAtom& atom) {
    row_.clear();
    row_.push_back(atom.predicate);
    for (ir::TermId t : atom.args) row_.push_back(ir::EncodeRowTerm(t));
    auto [id, inserted] = atom_keys.Intern(row_.data(), row_.size());
    if (inserted) {
      atoms.push_back(atom);
      labels_by_head.emplace_back();
    }
    return id;
  }

 private:
  std::vector<int> row_;
};

// The union of the disjuncts' A^θ word automata, built on demand by the
// containment search (Nfa::Contains' expander). A state of a disjunct is
// (goal atom, pending atom mask, pinned images), interned as the row
// [atom id, mask, pinned (variable, image) ints...] in that disjunct's
// own table; each disjunct also has its own accept state. All of them
// share one Nfa, numbered in the order the search materialises them.
// Expand adds a state's out-edges exactly as an eager worklist build
// would, so the fully expanded union equals the eager one up to a
// renaming of states.
class ThetaWordUnion {
 public:
  ThetaWordUnion(const ProgramAlphabet& alphabet, const LinearIrContext& ctx,
                 const ExecutionLimits& limits)
      : alphabet_(alphabet),
        ctx_(ctx),
        governor_(limits, "linear theta automaton"),
        max_states_(limits.StatesOr(500'000)),
        nfa_(0, alphabet.num_labels()) {}

  Nfa& nfa() { return nfa_; }

  // Adds a disjunct's accept state and its initial states: the disjunct's
  // head vector unified with each goal atom. `query.base` must outlive
  // this object.
  void AddDisjunct(IrQueryAnalysis query,
                   const std::vector<std::uint32_t>& goal_atom_ids);

  // Adds the out-edges of `state`, charging one step; fails once the
  // state's disjunct holds more than `limits.max_states` states.
  Status Expand(int state);

 private:
  struct State {
    std::uint32_t atom_id = 0;
    std::uint64_t mask = 0;
    IrPinnedMap pinned;
  };
  struct Disjunct {
    IrQueryAnalysis query;
    int accept = 0;
    VarKeyTable keys;
    std::vector<State> states;  // by index in `keys`
    std::vector<int> ids;       // by index in `keys`: the Nfa state
  };
  // The disjunct of an Nfa state, and its index there (-1: accept).
  struct Owner {
    std::size_t disjunct;
    int index;
  };

  // The Nfa state of (atom id, mask, pinned); `pinned` is copied only
  // when the state is new.
  int Intern(std::size_t disjunct, std::uint32_t atom_id, std::uint64_t mask,
             const IrPinnedMap& pinned);

  const ProgramAlphabet& alphabet_;
  const LinearIrContext& ctx_;
  Governor governor_;
  const std::size_t max_states_;
  Nfa nfa_;
  std::vector<Disjunct> disjuncts_;
  std::vector<Owner> owners_;  // by Nfa state
  // Expand's scratch, reused across calls: the expanded state's seed
  // binding and its trail, and a successor's pinned images.
  ir::DenseBinding binding_{0};
  std::vector<std::int32_t> trail_;
  IrPinnedMap next_pinned_;
  std::vector<int> row_;
};

int ThetaWordUnion::Intern(std::size_t disjunct, std::uint32_t atom_id,
                           std::uint64_t mask, const IrPinnedMap& pinned) {
  row_.clear();
  row_.push_back(static_cast<int>(atom_id));
  row_.push_back(static_cast<int>(static_cast<std::uint32_t>(mask)));
  row_.push_back(static_cast<int>(static_cast<std::uint32_t>(mask >> 32)));
  for (const auto& [v, term] : pinned) {
    row_.push_back(v);
    row_.push_back(ir::EncodeRowTerm(term));
  }
  Disjunct& d = disjuncts_[disjunct];
  auto [index, inserted] = d.keys.Intern(row_.data(), row_.size());
  if (inserted) {
    d.states.push_back({atom_id, mask, pinned});
    d.ids.push_back(nfa_.AddState());
    owners_.push_back({disjunct, static_cast<int>(index)});
  }
  return d.ids[index];
}

void ThetaWordUnion::AddDisjunct(
    IrQueryAnalysis query, const std::vector<std::uint32_t>& goal_atom_ids) {
  const std::size_t disjunct = disjuncts_.size();
  disjuncts_.emplace_back();
  disjuncts_.back().query = std::move(query);
  disjuncts_.back().accept = nfa_.AddState();
  nfa_.SetAccepting(disjuncts_.back().accept);
  owners_.push_back({disjunct, -1});
  const IrQueryAnalysis& ir_query = disjuncts_.back().query;
  const QueryAnalysis& base = *ir_query.base;
  for (std::uint32_t atom_id : goal_atom_ids) {
    const ir::TermAtom& root = ctx_.atoms[atom_id];
    if (ir_query.head_args.size() != root.args.size()) continue;
    IrPinnedMap pinned;
    std::vector<ir::TermId> head_image(base.vars.size());
    bool ok = true;
    for (std::size_t i = 0; i < root.args.size() && ok; ++i) {
      std::int32_t from = ir_query.head_args[i];
      ir::TermId to = root.args[i];
      if (from < 0) {  // constant: images must be the same constant
        ok = to == ir::TermId::Constant(static_cast<std::uint32_t>(~from));
        continue;
      }
      if (head_image[from].valid()) {
        ok = head_image[from] == to;
      } else {
        head_image[from] = to;
      }
    }
    if (!ok) continue;
    // Pin distinguished variables that occur in the body.
    for (std::size_t v = 0; v < base.vars.size(); ++v) {
      if (head_image[v].valid() && base.atoms_of_var[v] != 0) {
        pinned.emplace_back(static_cast<std::int32_t>(v), head_image[v]);
      }
    }
    nfa_.SetInitial(Intern(disjunct, atom_id, base.full_mask, pinned));
  }
}

Status ThetaWordUnion::Expand(int state) {
  const Owner owner = owners_[state];
  if (owner.index < 0) return OkStatus();  // accept states have no edges
  DATALOG_RETURN_IF_ERROR(governor_.ChargeSteps(1));
  Disjunct& d = disjuncts_[owner.disjunct];
  if (d.states.size() > max_states_) {
    return Status(ResourceExhaustedError(StrCat(
        "linear theta automaton exceeded ", max_states_, " states")));
  }
  const QueryAnalysis& base = *d.query.base;
  // `d.states` may reallocate while successors are interned, so keep the
  // state's atom and mask, and bind its pinned images once: every label's
  // enumeration unwinds back to this seed.
  const std::uint32_t atom_id = d.states[owner.index].atom_id;
  const std::uint64_t mask = d.states[owner.index].mask;
  binding_.image.assign(base.vars.size(), ir::TermId());
  trail_.clear();
  for (const auto& [v, term] : d.states[owner.index].pinned) {
    bool ok = binding_.Bind(v, term, &trail_, nullptr);
    DATALOG_CHECK(ok) << "inconsistent seed assignment";
  }
  const ir::IrSubstitution& images = binding_.image;
  for (int symbol : ctx_.labels_by_head[atom_id]) {
    const int arity = alphabet_.arities[symbol];
    auto visit = [&](std::uint64_t beta_prime) {
      if (arity == 0) {
        // Leaf: everything pending must be absorbed here.
        if (beta_prime == mask) nfa_.AddTransition(state, symbol, d.accept);
        return;
      }
      std::uint64_t next_mask = mask & ~beta_prime;
      // Variables still relevant below: pending atoms contain them and
      // their image is already determined.
      const Bitset& child_vars = ctx_.child_visible[symbol];
      next_pinned_.clear();
      for (std::size_t v = 0; v < base.vars.size(); ++v) {
        if ((base.atoms_of_var[v] & next_mask) == 0) continue;
        if (!images[v].valid()) continue;
        // Visibility (the paper's condition 4): the image must occur in
        // the child goal to stay connected.
        if (images[v].is_variable() && !child_vars.Test(images[v].index())) {
          return;  // this absorption cannot continue downward
        }
        next_pinned_.emplace_back(static_cast<std::int32_t>(v), images[v]);
      }
      int next =
          Intern(owner.disjunct,
                 static_cast<std::uint32_t>(ctx_.child_atom_id[symbol]),
                 next_mask, next_pinned_);
      nfa_.AddTransition(state, symbol, next);
    };
    IrEnumerateAbsorptions(d.query, mask, alphabet_.label_ir[symbol].edb_atoms,
                           &binding_, &trail_, 0, 0, nullptr, visit);
  }
  return OkStatus();
}

// Decodes a word over the alphabet into the path proof tree it spells.
ExpansionTree DecodeWord(const ProgramAlphabet& alphabet,
                         const std::vector<int>& word) {
  DATALOG_CHECK(!word.empty());
  // Build the path tree bottom-up from the last label.
  ExpansionNode node;
  for (std::size_t i = word.size(); i-- > 0;) {
    ExpansionNode parent;
    parent.rule = alphabet.Label(word[i]);
    parent.goal = parent.rule.head();
    parent.idb_positions = alphabet.label_idb_positions[word[i]];
    if (i + 1 < word.size()) {
      parent.children.push_back(std::move(node));
    }
    node = std::move(parent);
  }
  return ExpansionTree(std::move(node));
}

}  // namespace

StatusOr<LinearContainmentResult> DecideLinearDatalogInUcq(
    const Program& program, const std::string& goal, const UnionOfCqs& theta,
    const LinearContainmentOptions& options, const LinearSearch& search) {
  // Goal-directed pruning first: unreachable rules label no goal-rooted
  // path, so everything below — including the linearity check — runs on
  // the reachable fragment.
  const std::optional<Program> pruned = PruneUnreachableRules(program, goal);
  const Program& prog = pruned.has_value() ? *pruned : program;
  if (!IsLinearInIdb(prog)) {
    return Status(InvalidArgumentError(
        "program is not linear (a rule has more than one IDB subgoal)"));
  }
  ProgramAlphabet alphabet;
  DATALOG_ASSIGN_OR_RETURN(alphabet,
                           BuildProgramAlphabet(prog, options.limits));

  LinearContainmentResult result;
  result.alphabet_size = alphabet.num_labels();

  // A^ptrees as a word automaton: states are the IDB atoms (atom id + 1,
  // after `accept`), words read the labels from the root to the leaf.
  Nfa ptrees(0, alphabet.num_labels());
  int accept = ptrees.AddState();
  ptrees.SetAccepting(accept);
  LinearIrContext ctx;
  // Keeps the NFA's state count aligned with the interned atoms before
  // any transition references them.
  auto grow_states = [&]() {
    while (static_cast<std::size_t>(ptrees.num_states()) <
           ctx.atoms.size() + 1) {
      ptrees.AddState();
    }
  };
  for (std::size_t symbol = 0; symbol < alphabet.num_labels(); ++symbol) {
    const ProgramAlphabet::LabelIr& label = alphabet.label_ir[symbol];
    ir::TermAtom head;
    head.predicate = label.head_pred;
    head.args = label.head_args;
    std::uint32_t head_id = ctx.InternAtom(head);
    ctx.labels_by_head[head_id].push_back(static_cast<int>(symbol));
    if (alphabet.arities[symbol] == 0) {
      ctx.child_atom_id.push_back(-1);
      ctx.child_visible.emplace_back();
      grow_states();
      ptrees.AddTransition(static_cast<int>(head_id) + 1,
                           static_cast<int>(symbol), accept);
    } else {
      std::uint32_t child_id = ctx.InternAtom(label.idb_atoms[0]);
      ctx.child_atom_id.push_back(static_cast<int>(child_id));
      Bitset visible(alphabet.proof_vars.size());
      for (ir::TermId t : label.idb_atoms[0].args) {
        if (t.is_variable()) visible.Set(t.index());
      }
      ctx.child_visible.push_back(std::move(visible));
      grow_states();
      ptrees.AddTransition(static_cast<int>(head_id) + 1,
                           static_cast<int>(symbol),
                           static_cast<int>(child_id) + 1);
    }
  }
  std::vector<std::uint32_t> goal_atom_ids;
  std::uint32_t goal_pred = alphabet.predicates.Find(goal);
  for (std::uint32_t atom_id = 0; atom_id < ctx.atoms.size(); ++atom_id) {
    if (goal_pred != ir::NameDictionary::kNotFound &&
        static_cast<std::uint32_t>(ctx.atoms[atom_id].predicate) ==
            goal_pred) {
      ptrees.SetInitial(static_cast<int>(atom_id) + 1);
      goal_atom_ids.push_back(atom_id);
    }
  }
  result.ptrees_states = ptrees.num_states();

  if (theta.empty()) {
    result.contained = ptrees.IsEmpty();
    if (!result.contained) {
      result.counterexample = DecodeWord(alphabet, *ptrees.ShortestWord());
    }
    return result;
  }

  // The union of the disjuncts' word automata, expanded by the search.
  std::deque<QueryAnalysis> analyses;  // the IR queries point into these
  ThetaWordUnion theta_union(alphabet, ctx, options.limits);
  for (const ConjunctiveQuery& disjunct : theta.disjuncts()) {
    analyses.emplace_back();
    DATALOG_ASSIGN_OR_RETURN(analyses.back(), AnalyzeQuery(disjunct));
    theta_union.AddDisjunct(
        BuildIrQueryAnalysis(analyses.back(), &alphabet.predicates,
                             &alphabet.constants),
        goal_atom_ids);
  }
  Nfa::ContainmentOptions containment_options;
  containment_options.antichain = options.antichain;
  containment_options.limits = options.limits;
  Nfa::Expander expand = [&](int state) { return theta_union.Expand(state); };
  StatusOr<Nfa::ContainmentResult> containment =
      search ? search(ptrees, theta_union.nfa(), expand, containment_options)
             : Nfa::Contains(ptrees, theta_union.nfa(), containment_options,
                             expand);
  if (!containment.ok()) return containment.status();
  result.theta_states = theta_union.nfa().num_states();
  result.contained = containment->contained;
  result.pairs_explored = containment->explored;
  if (!containment->contained) {
    result.counterexample = DecodeWord(alphabet, containment->counterexample);
  }
  return result;
}

}  // namespace datalog

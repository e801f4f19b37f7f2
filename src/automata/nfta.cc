#include "src/automata/nfta.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>

#include "src/util/bitset.h"
#include "src/util/iteration.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace datalog {

std::size_t LabeledTree::Size() const {
  std::size_t total = 1;
  for (const LabeledTree& child : children) total += child.Size();
  return total;
}

std::size_t LabeledTree::Depth() const {
  std::size_t deepest = 0;
  for (const LabeledTree& child : children) {
    deepest = std::max(deepest, child.Depth());
  }
  return deepest + 1;
}

bool LabeledTree::operator==(const LabeledTree& other) const {
  return symbol == other.symbol && children == other.children;
}

std::string LabeledTree::ToString() const {
  if (children.empty()) return StrCat(symbol);
  return StrCat(symbol, "(",
                StrJoin(children, ", ",
                        [](std::ostream& os, const LabeledTree& t) {
                          os << t.ToString();
                        }),
                ")");
}

Nfta::Nfta(std::size_t num_states, std::vector<int> symbol_arity)
    : num_states_(num_states),
      symbol_arity_(std::move(symbol_arity)),
      by_symbol_(symbol_arity_.size()),
      final_(num_states, false) {}

int Nfta::AddState() {
  final_.push_back(false);
  return static_cast<int>(num_states_++);
}

void Nfta::AddTransition(int symbol, std::vector<int> children, int state) {
  DATALOG_CHECK_LT(static_cast<std::size_t>(symbol), symbol_arity_.size());
  DATALOG_CHECK_EQ(children.size(),
                   static_cast<std::size_t>(symbol_arity_[symbol]));
  DATALOG_CHECK_LT(static_cast<std::size_t>(state), num_states_);
  for (int c : children) {
    DATALOG_CHECK_LT(static_cast<std::size_t>(c), num_states_);
  }
  by_symbol_[symbol].push_back(transitions_.size());
  transitions_.push_back({symbol, std::move(children), state});
}

void Nfta::SetFinal(int state, bool is_final) { final_[state] = is_final; }

namespace {

// Computes the subset of states a deterministic-run of `nfta` reaches on
// `tree`, bottom-up, as a word-parallel Bitset.
Bitset EvaluateSubset(const Nfta& nfta,
                      const std::vector<Nfta::Transition>& transitions,
                      const std::vector<std::vector<std::size_t>>& by_symbol,
                      const LabeledTree& tree) {
  std::vector<Bitset> child_sets;
  child_sets.reserve(tree.children.size());
  for (const LabeledTree& child : tree.children) {
    child_sets.push_back(
        EvaluateSubset(nfta, transitions, by_symbol, child));
  }
  Bitset result(nfta.num_states());
  for (std::size_t index : by_symbol[tree.symbol]) {
    const Nfta::Transition& t = transitions[index];
    bool applies = true;
    for (std::size_t i = 0; i < t.children.size(); ++i) {
      if (!child_sets[i].Test(static_cast<std::size_t>(t.children[i]))) {
        applies = false;
        break;
      }
    }
    if (applies) result.Set(static_cast<std::size_t>(t.state));
  }
  return result;
}

}  // namespace

bool Nfta::Accepts(const LabeledTree& tree) const {
  if (static_cast<std::size_t>(tree.symbol) >= symbol_arity_.size()) {
    return false;
  }
  Bitset root = EvaluateSubset(*this, transitions_, by_symbol_, tree);
  Bitset finals(num_states_);
  for (std::size_t s = 0; s < num_states_; ++s) {
    if (final_[s]) finals.Set(s);
  }
  return root.Intersects(finals);
}

bool Nfta::IsEmpty() const { return !WitnessTree().has_value(); }

std::optional<LabeledTree> Nfta::WitnessTree() const {
  // Bottom-up reachability; keep one witness tree per reachable state.
  std::vector<std::optional<LabeledTree>> witness(num_states_);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Transition& t : transitions_) {
      if (witness[t.state].has_value()) continue;
      bool ready = std::all_of(
          t.children.begin(), t.children.end(),
          [&witness](int c) { return witness[c].has_value(); });
      if (!ready) continue;
      LabeledTree tree;
      tree.symbol = t.symbol;
      for (int c : t.children) tree.children.push_back(*witness[c]);
      witness[t.state] = std::move(tree);
      changed = true;
    }
  }
  for (std::size_t s = 0; s < num_states_; ++s) {
    if (final_[s] && witness[s].has_value()) return witness[s];
  }
  return std::nullopt;
}

Nfta Nfta::Union(const Nfta& a, const Nfta& b) {
  DATALOG_CHECK(a.symbol_arity_ == b.symbol_arity_);
  Nfta result(a.num_states_ + b.num_states_, a.symbol_arity_);
  auto copy = [&result](const Nfta& source, int offset) {
    for (std::size_t s = 0; s < source.num_states_; ++s) {
      if (source.final_[s]) result.SetFinal(offset + static_cast<int>(s));
    }
    for (const Transition& t : source.transitions_) {
      std::vector<int> children;
      children.reserve(t.children.size());
      for (int c : t.children) children.push_back(offset + c);
      result.AddTransition(t.symbol, std::move(children), offset + t.state);
    }
  };
  copy(a, 0);
  copy(b, static_cast<int>(a.num_states_));
  return result;
}

Nfta Nfta::Intersection(const Nfta& a, const Nfta& b) {
  DATALOG_CHECK(a.symbol_arity_ == b.symbol_arity_);
  // Pair construction over the full state product (kept simple; callers
  // work with modest automata).
  Nfta result(a.num_states_ * b.num_states_, a.symbol_arity_);
  auto id = [&b](int sa, int sb) {
    return sa * static_cast<int>(b.num_states_) + sb;
  };
  for (std::size_t sa = 0; sa < a.num_states_; ++sa) {
    for (std::size_t sb = 0; sb < b.num_states_; ++sb) {
      if (a.final_[sa] && b.final_[sb]) {
        result.SetFinal(id(static_cast<int>(sa), static_cast<int>(sb)));
      }
    }
  }
  for (const Transition& ta : a.transitions_) {
    for (std::size_t tb_index : b.by_symbol_[ta.symbol]) {
      const Transition& tb = b.transitions_[tb_index];
      std::vector<int> children;
      children.reserve(ta.children.size());
      for (std::size_t i = 0; i < ta.children.size(); ++i) {
        children.push_back(id(ta.children[i], tb.children[i]));
      }
      result.AddTransition(ta.symbol, std::move(children),
                           id(ta.state, tb.state));
    }
  }
  return result;
}

StatusOr<Nfta> Nfta::Determinize(std::size_t max_states) const {
  // Bottom-up subset construction, restricted to reachable subsets but
  // kept complete: for every symbol and every tuple of reachable subsets
  // there is exactly one successor subset (possibly the empty subset).
  // Subsets are Bitsets interned by hash; ids are assigned at first
  // encounter in the deterministic fixpoint order, so state numbering
  // does not depend on the interning container.
  std::unordered_map<Bitset, int, BitsetHash> ids;
  std::vector<Bitset> subsets;
  Nfta result(0, symbol_arity_);
  Bitset finals(num_states_);
  for (std::size_t s = 0; s < num_states_; ++s) {
    if (final_[s]) finals.Set(s);
  }
  auto intern = [&](Bitset set) -> int {
    auto [it, inserted] = ids.emplace(std::move(set), -1);
    if (inserted) {
      it->second = result.AddState();
      subsets.push_back(it->first);
      result.SetFinal(it->second, it->first.Intersects(finals));
    }
    return it->second;
  };

  // Fixpoint: repeatedly apply every symbol to every tuple of known
  // subsets until no new subset appears.
  std::set<std::pair<int, std::vector<std::size_t>>> done;
  bool changed = true;
  while (changed) {
    changed = false;
    std::size_t known = subsets.size();
    for (std::size_t symbol = 0; symbol < symbol_arity_.size(); ++symbol) {
      int arity = symbol_arity_[symbol];
      std::vector<std::size_t> sizes(arity, known);
      bool ok = ForEachProduct(sizes, [&](const std::vector<std::size_t>&
                                              choice) {
        auto key = std::make_pair(static_cast<int>(symbol), choice);
        if (done.count(key) > 0) return true;
        done.insert(key);
        // Successor subset for this symbol over the chosen child subsets.
        Bitset next(num_states_);
        for (std::size_t index : by_symbol_[symbol]) {
          const Transition& t = transitions_[index];
          bool applies = true;
          for (int i = 0; i < arity; ++i) {
            if (!subsets[choice[i]].Test(
                    static_cast<std::size_t>(t.children[i]))) {
              applies = false;
              break;
            }
          }
          if (applies) next.Set(static_cast<std::size_t>(t.state));
        }
        std::size_t before = subsets.size();
        int to = intern(std::move(next));
        if (subsets.size() > before) changed = true;
        if (subsets.size() > max_states) return false;
        std::vector<int> children;
        children.reserve(arity);
        for (std::size_t c : choice) children.push_back(static_cast<int>(c));
        result.AddTransition(static_cast<int>(symbol), std::move(children),
                             to);
        return true;
      });
      if (!ok) {
        return Status(ResourceExhaustedError(
            StrCat("tree determinization exceeded ", max_states, " states")));
      }
    }
  }
  return result;
}

StatusOr<Nfta> Nfta::Complement(std::size_t max_states) const {
  StatusOr<Nfta> determinized = Determinize(max_states);
  if (!determinized.ok()) return determinized.status();
  Nfta result = std::move(determinized).value();
  for (std::size_t s = 0; s < result.num_states_; ++s) {
    result.final_[s] = !result.final_[s];
  }
  return result;
}

StatusOr<Nfta::ContainmentResult> Nfta::Contains(
    const Nfta& a, const Nfta& b, const ContainmentOptions& options) {
  DATALOG_CHECK(a.symbol_arity_ == b.symbol_arity_);
  ContainmentResult result;
  Governor governor(options.limits, "NFTA containment");
  const std::size_t max_explored = options.limits.ExploredOr(10'000'000);
  // First governor failure (cancellation / deadline / injected fault);
  // product callbacks abort by returning false and the `!ok` exits report
  // this status ahead of the explored-pair diagnosis.
  Status interrupt = OkStatus();
  // b-subsets are Bitsets; each a-state keeps its discovered family in a
  // vector (the product-iteration source, in discovery order) indexed by
  // an AntichainStore whose payloads are per-entry ids, used to mirror
  // prunes back into the vector. "Covered" is "some discovered subset of
  // the candidate exists" (antichain) or equality (plain).
  struct Entry {
    Bitset set;
    LabeledTree witness;
    std::uint64_t id = 0;
  };
  std::vector<std::vector<Entry>> discovered(a.num_states_);
  std::vector<AntichainStore> stores(
      a.num_states_, AntichainStore(options.antichain
                                        ? AntichainStore::Mode::kKeepMinimal
                                        : AntichainStore::Mode::kExact));
  Bitset b_finals(b.num_states_);
  for (std::size_t s = 0; s < b.num_states_; ++s) {
    if (b.final_[s]) b_finals.Set(s);
  }
  std::uint64_t next_id = 0;
  std::vector<std::uint64_t> pruned;
  bool changed = true;
  while (changed) {
    changed = false;
    interrupt = governor.Poll();
    if (!interrupt.ok()) return interrupt;
    for (const Transition& ta : a.transitions_) {
      int arity = a.symbol_arity_[ta.symbol];
      // Choose one discovered entry per child state of ta. The body
      // below grows and (with antichain pruning) erases
      // discovered[ta.state], which aliases a child slot whenever the
      // transition is self-recursive; indexing the live vector across
      // product iterations would then read freed or reshuffled
      // storage. Only the aliased slots need a by-value snapshot.
      std::vector<std::size_t> sizes(arity);
      bool feasible = true;
      bool self_recursive = false;
      for (int i = 0; i < arity; ++i) {
        sizes[i] = discovered[ta.children[i]].size();
        if (sizes[i] == 0) feasible = false;
        if (ta.children[i] == ta.state) self_recursive = true;
      }
      if (!feasible && arity > 0) continue;
      std::vector<Entry> self_snapshot;
      if (self_recursive) self_snapshot = discovered[ta.state];
      std::vector<const std::vector<Entry>*> child_entries(arity);
      for (int i = 0; i < arity; ++i) {
        child_entries[i] = ta.children[i] == ta.state
                               ? &self_snapshot
                               : &discovered[ta.children[i]];
      }
      bool ok = ForEachProduct(sizes, [&](const std::vector<std::size_t>&
                                              choice) {
        // Compute the b-subset over the chosen child subsets.
        Bitset next(b.num_states_);
        for (std::size_t index : b.by_symbol_[ta.symbol]) {
          const Transition& tb = b.transitions_[index];
          bool applies = true;
          for (int i = 0; i < arity; ++i) {
            const Bitset& child_set = (*child_entries[i])[choice[i]].set;
            if (!child_set.Test(static_cast<std::size_t>(tb.children[i]))) {
              applies = false;
              break;
            }
          }
          if (applies) next.Set(static_cast<std::size_t>(tb.state));
        }
        if (stores[ta.state].Dominated(next)) return true;
        interrupt = governor.ChargeSteps(1);
        if (!interrupt.ok()) return false;
        if (++result.explored > max_explored) return false;
        LabeledTree witness;
        witness.symbol = ta.symbol;
        for (int i = 0; i < arity; ++i) {
          witness.children.push_back(
              (*child_entries[i])[choice[i]].witness);
        }
        bool a_accepts = a.final_[ta.state];
        bool b_accepts = next.Intersects(b_finals);
        if (a_accepts && !b_accepts) {
          result.contained = false;
          result.counterexample = witness;
          return false;
        }
        pruned.clear();
        const std::uint64_t id = next_id++;
        stores[ta.state].Insert(next, id, &pruned);
        if (!pruned.empty()) {
          // Mirror the store's prunes into the ordered vector; stable
          // remove_if keeps the survivors in discovery order.
          auto& entries = discovered[ta.state];
          entries.erase(
              std::remove_if(entries.begin(), entries.end(),
                             [&](const Entry& e) {
                               return std::find(pruned.begin(),
                                                pruned.end(),
                                                e.id) != pruned.end();
                             }),
              entries.end());
        }
        discovered[ta.state].push_back(
            {std::move(next), std::move(witness), id});
        changed = true;
        return true;
      });
      if (!ok) {
        if (!result.contained) return result;
        if (!interrupt.ok()) return interrupt;
        return Status(ResourceExhaustedError(
            StrCat("tree containment exceeded ", max_explored,
                   " pairs")));
      }
    }
  }
  return result;
}

StatusOr<Nfta::ContainmentResult> Nfta::Contains(const Nfta& a,
                                                 const Nfta& b) {
  return Contains(a, b, ContainmentOptions());
}

std::string Nfta::ToString() const {
  std::string out = StrCat("NFTA states=", num_states_,
                           " symbols=", symbol_arity_.size(), "\n");
  for (const Transition& t : transitions_) {
    out += StrCat("  ", t.symbol, "(", StrJoin(t.children, ","), ") -> q",
                  t.state, final_[t.state] ? " [final]" : "", "\n");
  }
  return out;
}

bool EnumerateLabeledTrees(
    const std::vector<int>& symbol_arity, std::size_t max_depth,
    std::size_t max_trees,
    const std::function<bool(const LabeledTree&)>& visit) {
  // trees_by_depth[d] = all trees of depth <= d (d starting at 1).
  std::vector<LabeledTree> current;  // depth <= d
  std::size_t yielded = 0;
  // Depth 1: nullary symbols.
  for (std::size_t s = 0; s < symbol_arity.size(); ++s) {
    if (symbol_arity[s] == 0) {
      LabeledTree leaf;
      leaf.symbol = static_cast<int>(s);
      current.push_back(leaf);
      if (++yielded > max_trees || !visit(current.back())) return false;
    }
  }
  for (std::size_t depth = 2; depth <= max_depth; ++depth) {
    std::vector<LabeledTree> next = current;
    for (std::size_t s = 0; s < symbol_arity.size(); ++s) {
      int arity = symbol_arity[s];
      if (arity == 0) continue;
      std::vector<std::size_t> sizes(arity, current.size());
      bool ok = ForEachProduct(sizes, [&](const std::vector<std::size_t>&
                                              choice) {
        LabeledTree tree;
        tree.symbol = static_cast<int>(s);
        bool max_depth_child = false;
        for (std::size_t c : choice) {
          tree.children.push_back(current[c]);
          if (current[c].Depth() == depth - 1) max_depth_child = true;
        }
        if (!max_depth_child) return true;  // already seen at lower depth
        next.push_back(tree);
        if (++yielded > max_trees) return false;
        return visit(next.back());
      });
      if (!ok) return false;
    }
    current = std::move(next);
  }
  return true;
}

}  // namespace datalog

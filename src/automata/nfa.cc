#include "src/automata/nfa.h"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>

#include "src/util/bitset.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace datalog {
namespace {

using EdgeIt = std::vector<Nfa::Edge>::const_iterator;

// Orders edges against a symbol, for searches in symbol-sorted lists.
struct BySymbol {
  bool operator()(const Nfa::Edge& e, int symbol) const {
    return e.symbol < symbol;
  }
  bool operator()(int symbol, const Nfa::Edge& e) const {
    return symbol < e.symbol;
  }
};

// The edges of a symbol-sorted list that read `symbol`.
std::pair<EdgeIt, EdgeIt> SymbolRange(const std::vector<Nfa::Edge>& edges,
                                      int symbol) {
  return std::equal_range(edges.begin(), edges.end(), symbol, BySymbol());
}

// Calls fn(symbol, first, last) for each run of equal-symbol edges of a
// symbol-sorted list, in ascending symbol order.
template <typename Fn>
void ForEachSymbolRun(const std::vector<Nfa::Edge>& edges, Fn fn) {
  for (auto first = edges.begin(); first != edges.end();) {
    auto last =
        std::upper_bound(first, edges.end(), first->symbol, BySymbol());
    fn(first->symbol, first, last);
    first = last;
  }
}

// Steps one subset of an automaton's states on ascending symbols. It keeps
// a cursor into each member's symbol-sorted edge list, so stepping the
// subset on every symbol it is asked for costs one pass over the members'
// edges plus one cursor check per (member, symbol) — no per-symbol search
// and no index over the whole automaton, which may still be growing.
class SubsetStepper {
 public:
  // Restarts on the subset `from` of `nfa`'s states. The edge lists must
  // not change until the last Step.
  void Start(const Nfa& nfa, const Bitset& from) {
    cursors_.clear();
    from.ForEachSetBit([&](std::size_t s) {
      const std::vector<Nfa::Edge>& edges = nfa.Edges(static_cast<int>(s));
      if (!edges.empty()) {
        cursors_.push_back({edges.data(), edges.data() + edges.size()});
      }
    });
  }

  // Sets in `next` every target of an edge on `symbol` leaving the
  // subset. Symbols must strictly ascend across the calls after a Start.
  void Step(int symbol, Bitset& next) {
    for (Cursor& cursor : cursors_) {
      while (cursor.next != cursor.end && cursor.next->symbol < symbol) {
        ++cursor.next;
      }
      for (; cursor.next != cursor.end && cursor.next->symbol == symbol;
           ++cursor.next) {
        next.Set(static_cast<std::size_t>(cursor.next->target));
      }
    }
  }

 private:
  struct Cursor {
    const Nfa::Edge* next;
    const Nfa::Edge* end;
  };
  std::vector<Cursor> cursors_;
};

}  // namespace

Nfa::Nfa(std::size_t num_states, std::size_t num_symbols)
    : num_symbols_(num_symbols),
      initial_(num_states, false),
      accepting_(num_states, false),
      edges_(num_states) {}

int Nfa::AddState() {
  initial_.push_back(false);
  accepting_.push_back(false);
  edges_.emplace_back();
  return static_cast<int>(edges_.size() - 1);
}

void Nfa::AddTransition(int from, int symbol, int to) {
  DATALOG_CHECK_LT(static_cast<std::size_t>(from), num_states());
  DATALOG_CHECK_LT(static_cast<std::size_t>(to), num_states());
  DATALOG_CHECK_LT(static_cast<std::size_t>(symbol), num_symbols_);
  // After the last edge on `symbol`: an append when symbols arrive in
  // ascending order, which is how every construction here adds them.
  std::vector<Edge>& edges = edges_[from];
  edges.insert(
      std::upper_bound(edges.begin(), edges.end(), symbol, BySymbol()),
      Edge{symbol, to});
}

void Nfa::SetInitial(int state, bool initial) { initial_[state] = initial; }
void Nfa::SetAccepting(int state, bool accepting) {
  accepting_[state] = accepting;
}

std::size_t Nfa::NumTransitions() const {
  std::size_t total = 0;
  for (const auto& edges : edges_) total += edges.size();
  return total;
}

bool Nfa::Accepts(const std::vector<int>& word) const {
  // Word-parallel frontier: one Bitset over the state universe, advanced
  // symbol by symbol.
  Bitset current(num_states());
  Bitset accepting(num_states());
  for (std::size_t s = 0; s < num_states(); ++s) {
    if (initial_[s]) current.Set(s);
    if (accepting_[s]) accepting.Set(s);
  }
  Bitset next(num_states());
  SubsetStepper stepper;
  for (int symbol : word) {
    next.Clear();
    stepper.Start(*this, current);
    stepper.Step(symbol, next);
    std::swap(current, next);
    if (current.None()) return false;
  }
  return current.Intersects(accepting);
}

bool Nfa::IsEmpty() const { return !ShortestWord().has_value(); }

std::optional<std::vector<int>> Nfa::ShortestWord() const {
  // BFS from initial states; remember the (symbol, predecessor) that first
  // reached each state.
  std::vector<int> pred_state(num_states(), -1);
  std::vector<int> pred_symbol(num_states(), -1);
  std::vector<bool> seen(num_states(), false);
  std::deque<int> queue;
  for (std::size_t s = 0; s < num_states(); ++s) {
    if (initial_[s]) {
      seen[s] = true;
      queue.push_back(static_cast<int>(s));
    }
  }
  int goal = -1;
  while (!queue.empty()) {
    int s = queue.front();
    queue.pop_front();
    if (accepting_[s]) {
      goal = s;
      break;
    }
    for (const Edge& e : edges_[s]) {
      if (!seen[e.target]) {
        seen[e.target] = true;
        pred_state[e.target] = s;
        pred_symbol[e.target] = e.symbol;
        queue.push_back(e.target);
      }
    }
  }
  if (goal == -1) return std::nullopt;
  std::vector<int> word;
  for (int s = goal; pred_state[s] != -1; s = pred_state[s]) {
    word.push_back(pred_symbol[s]);
  }
  std::reverse(word.begin(), word.end());
  return word;
}

Nfa Nfa::Union(const Nfa& a, const Nfa& b) {
  DATALOG_CHECK_EQ(a.num_symbols_, b.num_symbols_);
  Nfa result(0, a.num_symbols_);
  result.edges_.reserve(a.num_states() + b.num_states());
  for (const Nfa* source : {&a, &b}) {
    const int offset = static_cast<int>(result.num_states());
    for (std::size_t s = 0; s < source->num_states(); ++s) {
      result.initial_.push_back(source->initial_[s]);
      result.accepting_.push_back(source->accepting_[s]);
      std::vector<Edge> edges = source->edges_[s];
      for (Edge& e : edges) e.target += offset;
      result.edges_.push_back(std::move(edges));
    }
  }
  return result;
}

Nfa Nfa::Intersection(const Nfa& a, const Nfa& b) {
  DATALOG_CHECK_EQ(a.num_symbols_, b.num_symbols_);
  // Product over reachable pairs only.
  std::map<std::pair<int, int>, int> ids;
  std::deque<std::pair<int, int>> queue;
  Nfa result(0, a.num_symbols_);
  auto intern = [&](int sa, int sb) {
    auto [it, inserted] = ids.emplace(std::make_pair(sa, sb), -1);
    if (inserted) {
      it->second = result.AddState();
      result.accepting_[it->second] = a.accepting_[sa] && b.accepting_[sb];
      queue.emplace_back(sa, sb);
    }
    return it->second;
  };
  for (std::size_t sa = 0; sa < a.num_states(); ++sa) {
    if (!a.initial_[sa]) continue;
    for (std::size_t sb = 0; sb < b.num_states(); ++sb) {
      if (!b.initial_[sb]) continue;
      int id = intern(static_cast<int>(sa), static_cast<int>(sb));
      result.initial_[id] = true;
    }
  }
  while (!queue.empty()) {
    auto [sa, sb] = queue.front();
    queue.pop_front();
    int from = ids.at({sa, sb});
    // Merge-join the two symbol-sorted edge lists; the product's edges come
    // out in ascending symbol order.
    const std::vector<Edge>& b_edges = b.edges_[sb];
    ForEachSymbolRun(a.edges_[sa], [&](int symbol, EdgeIt first, EdgeIt last) {
      auto [b_first, b_last] = SymbolRange(b_edges, symbol);
      for (; first != last; ++first) {
        for (auto tb = b_first; tb != b_last; ++tb) {
          int to = intern(first->target, tb->target);
          result.edges_[from].push_back({symbol, to});
        }
      }
    });
  }
  return result;
}

StatusOr<Nfa> Nfa::Determinize(std::size_t max_states) const {
  // Subsets are Bitsets interned by hash; ids are assigned at first
  // encounter in BFS order, so state numbering matches the discovery
  // order regardless of the interning container.
  std::unordered_map<Bitset, int, BitsetHash> ids;
  std::deque<Bitset> queue;
  Nfa result(0, num_symbols_);
  Bitset accepting(num_states());
  for (std::size_t s = 0; s < num_states(); ++s) {
    if (accepting_[s]) accepting.Set(s);
  }
  auto intern = [&](Bitset set) -> int {
    auto [it, inserted] = ids.emplace(std::move(set), -1);
    if (inserted) {
      it->second = result.AddState();
      result.accepting_[it->second] = it->first.Intersects(accepting);
      queue.push_back(it->first);
    }
    return it->second;
  };
  Bitset start(num_states());
  for (std::size_t s = 0; s < num_states(); ++s) {
    if (initial_[s]) start.Set(s);
  }
  int start_id = intern(std::move(start));
  result.initial_[start_id] = true;
  SubsetStepper stepper;
  while (!queue.empty()) {
    if (ids.size() > max_states) {
      return Status(ResourceExhaustedError(
          StrCat("determinization exceeded ", max_states, " states")));
    }
    Bitset current = std::move(queue.front());
    queue.pop_front();
    int from = ids.at(current);
    // The result is complete: one edge per symbol, ascending.
    stepper.Start(*this, current);
    for (std::size_t sym = 0; sym < num_symbols_; ++sym) {
      Bitset next(num_states());
      stepper.Step(static_cast<int>(sym), next);
      int to = intern(std::move(next));
      result.edges_[from].push_back({static_cast<int>(sym), to});
    }
  }
  return result;
}

StatusOr<Nfa> Nfa::Complement(std::size_t max_states) const {
  StatusOr<Nfa> determinized = Determinize(max_states);
  if (!determinized.ok()) return determinized.status();
  Nfa result = std::move(determinized).value();
  for (std::size_t s = 0; s < result.num_states(); ++s) {
    result.accepting_[s] = !result.accepting_[s];
  }
  return result;
}

StatusOr<Nfa::ContainmentResult> Nfa::Contains(
    const Nfa& a, const Nfa& b, const ContainmentOptions& options,
    const Expander& expand) {
  DATALOG_CHECK_EQ(a.num_symbols_, b.num_symbols_);
  ContainmentResult result;
  Governor governor(options.limits, "NFA containment");
  const std::size_t max_explored = options.limits.ExploredOr(10'000'000);
  // BFS words form a tree: node i spells word(parent) followed by symbol.
  constexpr std::size_t kEmptyWord = static_cast<std::size_t>(-1);
  struct WordNode {
    std::size_t parent;
    int symbol;
  };
  std::vector<WordNode> words;
  struct Item {
    int state;
    Bitset set;
    std::size_t word;
  };
  std::vector<AntichainStore> visited(
      a.num_states(), AntichainStore(options.antichain
                                         ? AntichainStore::Mode::kKeepMinimal
                                         : AntichainStore::Mode::kExact));
  Bitset b_accepting(b.num_states());
  Bitset b_start(b.num_states());
  for (std::size_t s = 0; s < b.num_states(); ++s) {
    if (b.accepting_[s]) b_accepting.Set(s);
    if (b.initial_[s]) b_start.Set(s);
  }
  // On-demand `b`: the states already expanded, and how many of b's
  // states b_accepting has seen.
  Bitset expanded;
  std::size_t known_states = b.num_states();
  auto expand_members = [&](const Bitset& set) {
    Status status = OkStatus();
    set.ForEachSetBit([&](std::size_t s) {
      if (!status.ok() || expanded.Test(s)) return;
      expanded.Set(s);
      status = expand(static_cast<int>(s));
    });
    for (; known_states < b.num_states(); ++known_states) {
      if (b.accepting_[known_states]) b_accepting.Set(known_states);
    }
    return status;
  };

  // The antichain is filled when a pair is queued, not when it is popped:
  // a candidate (t, S) is queued, and later explored, only if Insert
  // accepts S into visited[t], i.e. no pair queued before it dominates
  // it. Filtering at pop time against the pairs explored so far keeps
  // exactly the same pairs. The queue is FIFO, so every pair queued
  // before a candidate is popped before it, and a dominating one would
  // have dropped the candidate at its pop all the same. Pruning a stored
  // superset loses nothing, because the set that pruned it dominates
  // whatever it dominated. So the explored pairs, their order, the
  // expander calls and the counterexample are unchanged, in antichain
  // mode and in exact mode (where dominance is equality), while the
  // queue holds no pair that would be dropped unexplored.
  std::deque<Item> queue;
  for (std::size_t s = 0; s < a.num_states(); ++s) {
    if (a.initial_[s] && visited[s].Insert(b_start, 0)) {
      queue.push_back({static_cast<int>(s), b_start, kEmptyWord});
    }
  }
  Bitset next_set(b.num_states());
  SubsetStepper stepper;
  while (!queue.empty()) {
    // Per-pop poll point: cancellation/deadline observed within one
    // frontier item's work.
    Status s = governor.Poll();
    if (!s.ok()) return s;
    Item item = std::move(queue.front());
    queue.pop_front();
    if (++result.explored > max_explored) {
      return Status(ResourceExhaustedError(
          StrCat("containment exceeded ", max_explored, " pairs")));
    }
    if (a.accepting_[item.state] && !item.set.Intersects(b_accepting)) {
      result.contained = false;
      for (std::size_t n = item.word; n != kEmptyWord; n = words[n].parent) {
        result.counterexample.push_back(words[n].symbol);
      }
      std::reverse(result.counterexample.begin(),
                   result.counterexample.end());
      return result;
    }
    if (a.edges_[item.state].empty()) continue;
    if (expand) DATALOG_RETURN_IF_ERROR(expand_members(item.set));
    // Only the symbols a leaves on can extend a counterexample.
    stepper.Start(b, item.set);
    ForEachSymbolRun(
        a.edges_[item.state], [&](int symbol, EdgeIt first, EdgeIt last) {
          next_set.Clear();
          stepper.Step(symbol, next_set);
          // This item's word + symbol, made on first use.
          std::size_t word = kEmptyWord;
          for (; first != last; ++first) {
            if (!visited[first->target].Insert(next_set, 0)) continue;
            if (word == kEmptyWord) {
              word = words.size();
              words.push_back({item.word, symbol});
            }
            queue.push_back({first->target, next_set, word});
          }
        });
  }
  return result;
}

StatusOr<Nfa::ContainmentResult> Nfa::Contains(const Nfa& a, const Nfa& b) {
  return Contains(a, b, ContainmentOptions());
}

std::string Nfa::ToString() const {
  std::string out = StrCat("NFA states=", num_states(),
                           " symbols=", num_symbols_, "\n");
  for (std::size_t s = 0; s < num_states(); ++s) {
    out += StrCat("  q", s, initial_[s] ? " [init]" : "",
                  accepting_[s] ? " [acc]" : "", ":");
    for (const Edge& e : edges_[s]) {
      out += StrCat(" --", e.symbol, "--> q", e.target, "; ");
    }
    out += "\n";
  }
  return out;
}

}  // namespace datalog

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <tuple>
#include <vector>

#include "src/automata/nfa.h"
#include "src/util/bitset.h"

namespace datalog {
namespace {

// L = words over {0,1} ending in 1.
Nfa EndsInOne() {
  Nfa nfa(2, 2);
  nfa.SetInitial(0);
  nfa.SetAccepting(1);
  nfa.AddTransition(0, 0, 0);
  nfa.AddTransition(0, 1, 0);
  nfa.AddTransition(0, 1, 1);
  return nfa;
}

// L = words with even length over {0,1}.
Nfa EvenLength() {
  Nfa nfa(2, 2);
  nfa.SetInitial(0);
  nfa.SetAccepting(0);
  for (int sym = 0; sym < 2; ++sym) {
    nfa.AddTransition(0, sym, 1);
    nfa.AddTransition(1, sym, 0);
  }
  return nfa;
}

// L = all words over {0,1}.
Nfa AllWords() {
  Nfa nfa(1, 2);
  nfa.SetInitial(0);
  nfa.SetAccepting(0);
  nfa.AddTransition(0, 0, 0);
  nfa.AddTransition(0, 1, 0);
  return nfa;
}

Nfa RandomNfa(std::mt19937_64& rng, int states, int symbols,
              double edge_prob) {
  Nfa nfa(states, symbols);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  nfa.SetInitial(0);
  for (int s = 0; s < states; ++s) {
    if (coin(rng) < 0.3) nfa.SetAccepting(s);
    for (int a = 0; a < symbols; ++a) {
      for (int t = 0; t < states; ++t) {
        if (coin(rng) < edge_prob) nfa.AddTransition(s, a, t);
      }
    }
  }
  return nfa;
}

std::vector<std::vector<int>> AllWordsUpTo(int symbols, int max_len) {
  std::vector<std::vector<int>> words = {{}};
  std::vector<std::vector<int>> frontier = {{}};
  for (int len = 1; len <= max_len; ++len) {
    std::vector<std::vector<int>> next;
    for (const auto& w : frontier) {
      for (int a = 0; a < symbols; ++a) {
        std::vector<int> extended = w;
        extended.push_back(a);
        next.push_back(extended);
        words.push_back(std::move(extended));
      }
    }
    frontier = std::move(next);
  }
  return words;
}

TEST(NfaTest, AcceptsBasics) {
  Nfa nfa = EndsInOne();
  EXPECT_TRUE(nfa.Accepts({1}));
  EXPECT_TRUE(nfa.Accepts({0, 0, 1}));
  EXPECT_FALSE(nfa.Accepts({}));
  EXPECT_FALSE(nfa.Accepts({1, 0}));
}

TEST(NfaTest, EmptinessAndShortestWord) {
  Nfa nfa = EndsInOne();
  EXPECT_FALSE(nfa.IsEmpty());
  auto word = nfa.ShortestWord();
  ASSERT_TRUE(word.has_value());
  EXPECT_EQ(*word, (std::vector<int>{1}));

  Nfa empty(2, 2);
  empty.SetInitial(0);
  empty.SetAccepting(1);  // unreachable
  EXPECT_TRUE(empty.IsEmpty());
  EXPECT_FALSE(empty.ShortestWord().has_value());
}

TEST(NfaTest, UnionAcceptsBoth) {
  Nfa u = Nfa::Union(EndsInOne(), EvenLength());
  EXPECT_TRUE(u.Accepts({1}));     // ends in one
  EXPECT_TRUE(u.Accepts({0, 0}));  // even length
  EXPECT_FALSE(u.Accepts({0}));    // neither
}

TEST(NfaTest, IntersectionRequiresBoth) {
  Nfa i = Nfa::Intersection(EndsInOne(), EvenLength());
  EXPECT_TRUE(i.Accepts({0, 1}));
  EXPECT_FALSE(i.Accepts({1}));
  EXPECT_FALSE(i.Accepts({0, 0}));
}

TEST(NfaTest, DeterminizePreservesLanguage) {
  Nfa nfa = EndsInOne();
  StatusOr<Nfa> det = nfa.Determinize();
  ASSERT_TRUE(det.ok());
  for (const auto& word : AllWordsUpTo(2, 6)) {
    EXPECT_EQ(nfa.Accepts(word), det->Accepts(word));
  }
}

TEST(NfaTest, ComplementFlipsMembership) {
  Nfa nfa = EndsInOne();
  StatusOr<Nfa> complement = nfa.Complement();
  ASSERT_TRUE(complement.ok());
  for (const auto& word : AllWordsUpTo(2, 6)) {
    EXPECT_NE(nfa.Accepts(word), complement->Accepts(word)) << word.size();
  }
}

TEST(NfaTest, ContainmentPositive) {
  // ends-in-1 ∩ even-length ⊆ ends-in-1.
  Nfa small = Nfa::Intersection(EndsInOne(), EvenLength());
  auto result = Nfa::Contains(small, EndsInOne());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->contained);
}

TEST(NfaTest, ContainmentNegativeWithCounterexample) {
  auto result = Nfa::Contains(AllWords(), EndsInOne());
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->contained);
  // The counterexample is accepted by `a` but not `b`.
  EXPECT_TRUE(AllWords().Accepts(result->counterexample));
  EXPECT_FALSE(EndsInOne().Accepts(result->counterexample));
  // BFS yields a shortest counterexample: the empty word.
  EXPECT_TRUE(result->counterexample.empty());
}

TEST(NfaTest, ContainmentAgreesWithComplementConstruction) {
  // L(a) ⊆ L(b) iff L(a) ∩ complement(L(b)) = ∅ (the paper's reduction).
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 60; ++trial) {
    Nfa a = RandomNfa(rng, 4, 2, 0.25);
    Nfa b = RandomNfa(rng, 4, 2, 0.25);
    auto onthefly = Nfa::Contains(a, b);
    ASSERT_TRUE(onthefly.ok());
    StatusOr<Nfa> not_b = b.Complement();
    ASSERT_TRUE(not_b.ok());
    bool via_complement = Nfa::Intersection(a, *not_b).IsEmpty();
    EXPECT_EQ(onthefly->contained, via_complement) << "trial " << trial;
  }
}

TEST(NfaTest, AntichainAndExactAgree) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    Nfa a = RandomNfa(rng, 5, 2, 0.3);
    Nfa b = RandomNfa(rng, 5, 2, 0.3);
    Nfa::ContainmentOptions with;
    with.antichain = true;
    Nfa::ContainmentOptions without;
    without.antichain = false;
    auto r1 = Nfa::Contains(a, b, with);
    auto r2 = Nfa::Contains(a, b, without);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(r1->contained, r2->contained) << "trial " << trial;
    EXPECT_LE(r1->explored, r2->explored);
  }
}

TEST(NfaTest, CounterexamplesAreGenuine) {
  std::mt19937_64 rng(99);
  int negatives = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Nfa a = RandomNfa(rng, 4, 2, 0.35);
    Nfa b = RandomNfa(rng, 4, 2, 0.2);
    auto result = Nfa::Contains(a, b);
    ASSERT_TRUE(result.ok());
    if (!result->contained) {
      ++negatives;
      EXPECT_TRUE(a.Accepts(result->counterexample));
      EXPECT_FALSE(b.Accepts(result->counterexample));
    }
  }
  EXPECT_GT(negatives, 5) << "test should exercise the negative path";
}

TEST(NfaTest, ResourceLimitOnContainment) {
  std::mt19937_64 rng(3);
  Nfa a = RandomNfa(rng, 8, 2, 0.4);
  Nfa b = RandomNfa(rng, 8, 2, 0.4);
  Nfa::ContainmentOptions options;
  options.limits.max_explored = 1;
  options.antichain = false;
  auto result = Nfa::Contains(a, b, options);
  // Either it found a violation within the first pair, or it hit the cap.
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(NfaTest, AddStateGrowsAutomaton) {
  Nfa nfa(1, 2);
  int s = nfa.AddState();
  EXPECT_EQ(s, 1);
  EXPECT_EQ(nfa.num_states(), 2u);
  nfa.AddTransition(0, 0, s);
  EXPECT_EQ(nfa.NumTransitions(), 1u);
}

// Callers add transitions in whatever order their constructions visit
// symbols; every algorithm must see ascending symbols with insertion order
// kept within one symbol, so results do not depend on the interleaving.
TEST(NfaTest, SymbolOrderInvariance) {
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    const int states = 3 + static_cast<int>(rng() % 6);
    const int symbols = 2 + static_cast<int>(rng() % 5);
    // Per (state, symbol) target lists, in the order they must be kept.
    std::vector<std::vector<std::tuple<int, int, int>>> runs;
    for (int s = 0; s < states; ++s) {
      for (int sym = 0; sym < symbols; ++sym) {
        runs.emplace_back();
        for (int t = 0; t < states; ++t) {
          if (rng() % 4 == 0) runs.back().emplace_back(s, sym, t);
        }
        std::shuffle(runs.back().begin(), runs.back().end(), rng);
      }
    }
    std::vector<bool> accepting(states);
    for (int s = 0; s < states; ++s) accepting[s] = rng() % 3 == 0;
    auto make = [&](bool interleave) {
      Nfa nfa(states, symbols);
      nfa.SetInitial(0);
      for (int s = 0; s < states; ++s) nfa.SetAccepting(s, accepting[s]);
      std::vector<std::size_t> next(runs.size(), 0);
      std::size_t left = 0;
      for (const auto& run : runs) left += run.size();
      for (std::size_t r = 0; left > 0;) {
        // Ascending: drain the runs in order. Interleaved: pick a random
        // unfinished run each time, so symbols (and source states)
        // arrive out of order while each run keeps its own order.
        if (interleave) r = rng() % runs.size();
        if (next[r] == runs[r].size()) {
          if (!interleave) ++r;
          continue;
        }
        auto [from, sym, to] = runs[r][next[r]++];
        nfa.AddTransition(from, sym, to);
        --left;
      }
      return nfa;
    };
    Nfa ascending = make(false);
    Nfa shuffled = make(true);
    EXPECT_EQ(ascending.ToString(), shuffled.ToString()) << trial;
    EXPECT_EQ(ascending.ShortestWord(), shuffled.ShortestWord()) << trial;
    Nfa other = RandomNfa(rng, 4, symbols, 0.3);
    auto expect_same = [trial](const Nfa& a1, const Nfa& b1, const Nfa& a2,
                               const Nfa& b2) {
      auto r1 = Nfa::Contains(a1, b1);
      auto r2 = Nfa::Contains(a2, b2);
      ASSERT_TRUE(r1.ok());
      ASSERT_TRUE(r2.ok());
      EXPECT_EQ(r1->contained, r2->contained) << trial;
      EXPECT_EQ(r1->counterexample, r2->counterexample) << trial;
      EXPECT_EQ(r1->explored, r2->explored) << trial;
    };
    expect_same(ascending, other, shuffled, other);
    expect_same(other, ascending, other, shuffled);
  }
}

// 2^20 symbols, a handful of edges: storage and every operation must
// follow the edges (Determinize excepted: its result is complete).
TEST(NfaTest, WideAlphabetRoundTrips) {
  constexpr int kSymbols = 1 << 20;
  constexpr int kHigh = kSymbols - 3;
  constexpr int kLow = 7;
  // L(a) = {kHigh kLow}.
  Nfa a(3, kSymbols);
  a.SetInitial(0);
  a.SetAccepting(2);
  a.AddTransition(1, kLow, 2);
  a.AddTransition(0, kHigh, 1);
  // L(b) = kLow* kHigh kLow*.
  Nfa b(2, kSymbols);
  b.SetInitial(0);
  b.SetAccepting(1);
  b.AddTransition(0, kHigh, 1);
  b.AddTransition(1, kLow, 1);
  b.AddTransition(0, kLow, 0);
  EXPECT_EQ(a.NumTransitions() + b.NumTransitions(), 5u);

  EXPECT_EQ(a.ShortestWord(), (std::vector<int>{kHigh, kLow}));
  EXPECT_EQ(b.ShortestWord(), (std::vector<int>{kHigh}));

  Nfa u = Nfa::Union(a, b);
  EXPECT_EQ(u.num_states(), 5u);
  EXPECT_EQ(u.NumTransitions(), 5u);
  EXPECT_TRUE(u.Accepts({kHigh}));
  EXPECT_TRUE(u.Accepts({kLow, kHigh, kLow}));
  EXPECT_FALSE(u.Accepts({kLow}));
  EXPECT_EQ(u.ShortestWord(), (std::vector<int>{kHigh}));

  Nfa i = Nfa::Intersection(a, b);
  EXPECT_EQ(i.ShortestWord(), (std::vector<int>{kHigh, kLow}));
  EXPECT_FALSE(i.Accepts({kHigh}));

  auto a_in_b = Nfa::Contains(a, b);
  ASSERT_TRUE(a_in_b.ok());
  EXPECT_TRUE(a_in_b->contained);
  auto b_in_a = Nfa::Contains(b, a);
  ASSERT_TRUE(b_in_a.ok());
  EXPECT_FALSE(b_in_a->contained);
  EXPECT_EQ(b_in_a->counterexample, (std::vector<int>{kHigh}));
  auto b_in_u = Nfa::Contains(b, u);
  ASSERT_TRUE(b_in_u.ok());
  EXPECT_TRUE(b_in_u->contained);

  // {0}, {1}, {2} and the empty subset, each with one edge per symbol.
  StatusOr<Nfa> det = a.Determinize();
  ASSERT_TRUE(det.ok());
  EXPECT_EQ(det->num_states(), 4u);
  EXPECT_EQ(det->NumTransitions(), 4u * kSymbols);
  EXPECT_TRUE(det->Accepts({kHigh, kLow}));
  EXPECT_FALSE(det->Accepts({kHigh}));
  EXPECT_FALSE(det->Accepts({kHigh, kLow, kLow}));
  EXPECT_FALSE(det->Accepts({0, kHigh, kLow}));
}

// Rebuilds `full` on demand, for Contains' expander: the copy starts with
// full's initial states, and expanding a copy state adds copies of its
// original's edges, copying each target (with its accepting flag) the
// first time one is reached. The copy is `full`'s reachable part with
// states renamed in discovery order.
class OnDemandCopy {
 public:
  explicit OnDemandCopy(const Nfa& full)
      : full_(full), copy_(0, full.num_symbols()), ids_(full.num_states(), -1) {
    for (std::size_t s = 0; s < full.num_states(); ++s) {
      if (full.IsInitial(static_cast<int>(s))) {
        copy_.SetInitial(CopyOf(static_cast<int>(s)));
      }
    }
  }

  const Nfa& nfa() const { return copy_; }
  // Largest number of times any one state was expanded.
  int max_expansions() const {
    return expansions_.empty()
               ? 0
               : *std::max_element(expansions_.begin(), expansions_.end());
  }

  Status Expand(int state) {
    ++expansions_[state];
    for (const Nfa::Edge& e : full_.Edges(originals_[state])) {
      copy_.AddTransition(state, e.symbol, CopyOf(e.target));
    }
    return OkStatus();
  }

 private:
  int CopyOf(int original) {
    if (ids_[original] < 0) {
      ids_[original] = copy_.AddState();
      copy_.SetAccepting(ids_[original], full_.IsAccepting(original));
      originals_.push_back(original);
      expansions_.push_back(0);
    }
    return ids_[original];
  }

  const Nfa& full_;
  Nfa copy_;
  std::vector<int> ids_;        // by original state; -1 until copied
  std::vector<int> originals_;  // by copy state
  std::vector<int> expansions_;  // by copy state
};

// The on-demand right-hand side must not change the search: verdict,
// explored pairs and counterexample match the eager Contains on the full
// automaton, with each state expanded at most once and never more states
// materialised than the full automaton has.
TEST(NfaTest, OnDemandContainsMatchesEager) {
  std::mt19937_64 rng(1313);
  int contained = 0;
  int refuted = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const int symbols = 1 + static_cast<int>(rng() % 3);
    const int a_states = 2 + static_cast<int>(rng() % 5);
    const int b_states = 2 + static_cast<int>(rng() % 9);
    Nfa a = RandomNfa(rng, a_states, symbols, 0.3);
    Nfa b = RandomNfa(rng, b_states, symbols, 0.3);
    for (bool antichain : {true, false}) {
      Nfa::ContainmentOptions options;
      options.antichain = antichain;
      auto eager = Nfa::Contains(a, b, options);
      OnDemandCopy lazy(b);
      auto on_demand = Nfa::Contains(
          a, lazy.nfa(), options, [&](int s) { return lazy.Expand(s); });
      ASSERT_TRUE(eager.ok() && on_demand.ok()) << "trial " << trial;
      EXPECT_EQ(on_demand->contained, eager->contained) << "trial " << trial;
      EXPECT_EQ(on_demand->explored, eager->explored) << "trial " << trial;
      EXPECT_EQ(on_demand->counterexample, eager->counterexample)
          << "trial " << trial;
      EXPECT_LE(lazy.nfa().num_states(), b.num_states()) << "trial " << trial;
      EXPECT_LE(lazy.max_expansions(), 1) << "trial " << trial;
      if (antichain) ++(eager->contained ? contained : refuted);
    }
  }
  EXPECT_GE(contained, 20);
  EXPECT_GE(refuted, 20);
}

TEST(NfaTest, OnDemandExpansionFailureEndsSearch) {
  Nfa a = EndsInOne();
  Nfa b = EvenLength();
  OnDemandCopy lazy(b);
  int calls = 0;
  auto result = Nfa::Contains(
      a, lazy.nfa(), Nfa::ContainmentOptions(), [&](int s) -> Status {
        if (++calls == 2) return ResourceExhaustedError("expansion failed");
        return lazy.Expand(s);
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(calls, 2);
}

// The containment search as it ran when the antichain was filled at pop
// time: a successor is queued unless a pair explored so far dominates it,
// and Insert runs when the pair is popped, dropping it if a pair
// explored in the meantime dominates it. Words are kept whole per item
// and subsets are stepped member by member, so it shares no code with
// Contains. `expand`, when set, runs on each unseen member of a popped
// subset, in ascending order, before that subset is stepped.
StatusOr<Nfa::ContainmentResult> PopTimeReferenceContains(
    const Nfa& a, const Nfa& b, bool antichain,
    const Nfa::Expander& expand) {
  struct Item {
    int state;
    Bitset set;
    std::vector<int> word;
  };
  Nfa::ContainmentResult result;
  std::vector<AntichainStore> visited(
      a.num_states(), AntichainStore(antichain
                                         ? AntichainStore::Mode::kKeepMinimal
                                         : AntichainStore::Mode::kExact));
  std::vector<bool> expanded;
  Bitset start(b.num_states());
  for (std::size_t s = 0; s < b.num_states(); ++s) {
    if (b.IsInitial(static_cast<int>(s))) start.Set(s);
  }
  std::deque<Item> queue;
  for (std::size_t s = 0; s < a.num_states(); ++s) {
    if (a.IsInitial(static_cast<int>(s))) {
      queue.push_back({static_cast<int>(s), start, {}});
    }
  }
  while (!queue.empty()) {
    Item item = std::move(queue.front());
    queue.pop_front();
    if (!visited[item.state].Insert(item.set, 0)) continue;
    ++result.explored;
    bool meets_accepting = false;
    item.set.ForEachSetBit([&](std::size_t s) {
      if (b.IsAccepting(static_cast<int>(s))) meets_accepting = true;
    });
    if (a.IsAccepting(item.state) && !meets_accepting) {
      result.contained = false;
      result.counterexample = item.word;
      return result;
    }
    const std::vector<Nfa::Edge>& edges = a.Edges(item.state);
    if (edges.empty()) continue;
    if (expand) {
      for (std::size_t s : item.set.ToVector()) {
        if (s >= expanded.size()) expanded.resize(s + 1, false);
        if (expanded[s]) continue;
        expanded[s] = true;
        Status status = expand(static_cast<int>(s));
        if (!status.ok()) return status;
      }
    }
    for (std::size_t i = 0; i < edges.size();) {
      const int symbol = edges[i].symbol;
      Bitset next(b.num_states());
      item.set.ForEachSetBit([&](std::size_t s) {
        for (const Nfa::Edge& e : b.Edges(static_cast<int>(s))) {
          if (e.symbol == symbol) next.Set(static_cast<std::size_t>(e.target));
        }
      });
      for (; i < edges.size() && edges[i].symbol == symbol; ++i) {
        if (visited[edges[i].target].Dominated(next)) continue;
        std::vector<int> word = item.word;
        word.push_back(symbol);
        queue.push_back({edges[i].target, next, std::move(word)});
      }
    }
  }
  return result;
}

// Contains fills its antichain when a pair is queued; the pop-time
// reference must see the same search: verdict, explored pairs,
// counterexample and, with an on-demand right-hand side, the same
// expander calls in the same order. Both modes, eager and on demand.
TEST(NfaTest, QueueTimeAntichainMatchesPopTimeReference) {
  std::mt19937_64 rng(2718);
  int contained = 0;
  int refuted = 0;
  int pruned_runs = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int symbols = 1 + static_cast<int>(rng() % 3);
    const int a_states = 2 + static_cast<int>(rng() % 7);
    const int b_states = 2 + static_cast<int>(rng() % 11);
    Nfa a = RandomNfa(rng, a_states, symbols, 0.3);
    Nfa b = RandomNfa(rng, b_states, symbols, 0.3);
    if (rng() % 2 == 0) a.SetInitial(a_states - 1);
    if (rng() % 2 == 0) b.SetInitial(b_states - 1);
    for (bool antichain : {true, false}) {
      Nfa::ContainmentOptions options;
      options.antichain = antichain;
      auto eager = Nfa::Contains(a, b, options);
      auto reference = PopTimeReferenceContains(a, b, antichain, nullptr);
      ASSERT_TRUE(eager.ok() && reference.ok()) << "trial " << trial;
      EXPECT_EQ(eager->contained, reference->contained) << "trial " << trial;
      EXPECT_EQ(eager->explored, reference->explored) << "trial " << trial;
      EXPECT_EQ(eager->counterexample, reference->counterexample)
          << "trial " << trial;

      OnDemandCopy lazy(b);
      OnDemandCopy lazy_reference(b);
      std::vector<int> calls;
      std::vector<int> reference_calls;
      auto on_demand =
          Nfa::Contains(a, lazy.nfa(), options, [&](int s) {
            calls.push_back(s);
            return lazy.Expand(s);
          });
      auto on_demand_reference = PopTimeReferenceContains(
          a, lazy_reference.nfa(), antichain, [&](int s) {
            reference_calls.push_back(s);
            return lazy_reference.Expand(s);
          });
      ASSERT_TRUE(on_demand.ok() && on_demand_reference.ok())
          << "trial " << trial;
      EXPECT_EQ(on_demand->contained, on_demand_reference->contained)
          << "trial " << trial;
      EXPECT_EQ(on_demand->explored, on_demand_reference->explored)
          << "trial " << trial;
      EXPECT_EQ(on_demand->counterexample,
                on_demand_reference->counterexample)
          << "trial " << trial;
      EXPECT_EQ(calls, reference_calls) << "trial " << trial;
      if (antichain) {
        ++(eager->contained ? contained : refuted);
        Nfa::ContainmentOptions exact = options;
        exact.antichain = false;
        auto without = Nfa::Contains(a, b, exact);
        ASSERT_TRUE(without.ok());
        if (without->explored > eager->explored) ++pruned_runs;
      }
    }
  }
  EXPECT_GE(contained, 20);
  EXPECT_GE(refuted, 20);
  // Domination must actually prune in a good share of the trials, or the
  // queue-time and pop-time fillings are not told apart.
  EXPECT_GE(pruned_runs, 20);
}

}  // namespace
}  // namespace datalog

// Agreement testing of the automata containment checks against the
// textbook constructions. NFA containment is checked against emptiness
// of a ∩ complement(b) and a brute-force search for the shortest
// counterexample; NFTA containment against emptiness of
// Intersection(a, Complement(b)), with every counterexample tree
// accepted by a and rejected by b. Both run on fixed and randomized
// automata, with and without antichain pruning; determinization is
// checked to preserve the language on sampled words and trees.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "src/automata/nfa.h"
#include "src/automata/nfta.h"
#include "src/util/strings.h"
#include "tests/test_util.h"

namespace datalog {
namespace {

// ---------------------------------------------------------------------
// NFA containment: the on-the-fly product against the complement
// construction and a brute-force search for the shortest counterexample.
// ---------------------------------------------------------------------

// Length of the shortest word in L(a) \ L(b) among words up to
// `max_len` symbols long, by enumerating them in length order; -1 if none.
int BruteForceShortestCounterexample(const Nfa& a, const Nfa& b,
                                     int max_len) {
  const int symbols = static_cast<int>(a.num_symbols());
  std::vector<int> word;
  for (int len = 0; len <= max_len; ++len) {
    word.assign(len, 0);
    while (true) {
      if (a.Accepts(word) && !b.Accepts(word)) return len;
      int i = 0;
      while (i < len && ++word[i] == symbols) word[i++] = 0;
      if (i == len) break;
    }
  }
  return -1;
}

void ExpectNfaContainmentAgrees(const Nfa& a, const Nfa& b,
                                const std::string& label) {
  StatusOr<Nfa> not_b = b.Complement();
  ASSERT_TRUE(not_b.ok()) << label;
  const std::optional<std::vector<int>> shortest =
      Nfa::Intersection(a, *not_b).ShortestWord();
  std::size_t explored_exact = 0;
  for (bool antichain : {false, true}) {
    Nfa::ContainmentOptions options;
    options.antichain = antichain;
    StatusOr<Nfa::ContainmentResult> r = Nfa::Contains(a, b, options);
    ASSERT_TRUE(r.ok()) << label;
    EXPECT_EQ(r->contained, !shortest.has_value())
        << label << " antichain=" << antichain;
    if (antichain) {
      EXPECT_LE(r->explored, explored_exact) << label;
    } else {
      explored_exact = r->explored;
    }
    if (r->contained || !shortest.has_value()) continue;
    EXPECT_TRUE(a.Accepts(r->counterexample)) << label;
    EXPECT_FALSE(b.Accepts(r->counterexample)) << label;
    // BFS counterexamples are shortest, with or without pruning.
    const int length = static_cast<int>(shortest->size());
    EXPECT_EQ(static_cast<int>(r->counterexample.size()), length)
        << label << " antichain=" << antichain;
    EXPECT_EQ(BruteForceShortestCounterexample(a, b, length), length)
        << label;
  }
}

// The "k-th symbol from the end is 1" NFA: n+1 states, subset
// construction needs 2^n subsets, so containment checks exercise wide
// frontiers and heavy subset testing.
Nfa KthFromEnd(int n) {
  Nfa nfa(n + 1, 2);
  nfa.SetInitial(0);
  nfa.SetAccepting(n);
  nfa.AddTransition(0, 0, 0);
  nfa.AddTransition(0, 1, 0);
  nfa.AddTransition(0, 1, 1);
  for (int i = 1; i < n; ++i) {
    nfa.AddTransition(i, 0, i + 1);
    nfa.AddTransition(i, 1, i + 1);
  }
  return nfa;
}

Nfa RandomNfa(std::mt19937_64& rng, int states, int symbols,
              double density) {
  Nfa nfa(states, symbols);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  nfa.SetInitial(static_cast<int>(rng() % states));
  for (int s = 0; s < states; ++s) {
    if (coin(rng) < 0.3) nfa.SetAccepting(s);
    for (int sym = 0; sym < symbols; ++sym) {
      for (int t = 0; t < states; ++t) {
        if (coin(rng) < density) nfa.AddTransition(s, sym, t);
      }
    }
  }
  return nfa;
}

TEST(NfaContainmentAgreementTest, KthFromEndSelfAndCrossContainment) {
  for (int n : {3, 5, 8}) {
    Nfa a = KthFromEnd(n);
    ExpectNfaContainmentAgrees(a, a, StrCat("kth_self_n", n));
    // L(kth n+1) ⊄ L(kth n) and vice versa: both directions produce
    // counterexample searches.
    Nfa b = KthFromEnd(n + 1);
    ExpectNfaContainmentAgrees(a, b, StrCat("kth_cross_a_n", n));
    ExpectNfaContainmentAgrees(b, a, StrCat("kth_cross_b_n", n));
  }
}

TEST(NfaContainmentAgreementTest, RandomizedAutomataAgree) {
  std::mt19937_64 rng(20260808);
  int negatives = 0;
  for (int trial = 0; trial < 40; ++trial) {
    int states = 2 + static_cast<int>(rng() % 7);
    int symbols = 1 + static_cast<int>(rng() % 3);
    Nfa a = RandomNfa(rng, states, symbols, 0.25);
    Nfa b = RandomNfa(rng, 2 + static_cast<int>(rng() % 7), symbols, 0.35);
    ExpectNfaContainmentAgrees(a, b, StrCat("random_trial", trial));
    StatusOr<Nfa::ContainmentResult> r = Nfa::Contains(a, b);
    ASSERT_TRUE(r.ok());
    if (!r->contained) ++negatives;
  }
  EXPECT_GT(negatives, 5) << "the negative path must be exercised";
}

TEST(NfaContainmentAgreementTest, DeterminizePreservesLanguage) {
  // Determinize interns Bitset subsets and emits one edge per symbol; the
  // result must accept exactly the same words as the input.
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    Nfa a = RandomNfa(rng, 2 + static_cast<int>(rng() % 5), 2, 0.3);
    StatusOr<Nfa> det = a.Determinize();
    ASSERT_TRUE(det.ok());
    std::vector<int> word;
    for (int len = 0; len <= 6; ++len) {
      // All words of length `len` over {0, 1}.
      for (int bits = 0; bits < (1 << len); ++bits) {
        word.clear();
        for (int i = 0; i < len; ++i) word.push_back((bits >> i) & 1);
        EXPECT_EQ(a.Accepts(word), det->Accepts(word))
            << "trial " << trial << " len " << len << " bits " << bits;
      }
    }
  }
}

// ---------------------------------------------------------------------
// NFTA containment: the antichain fixpoint against the complement
// construction.
// ---------------------------------------------------------------------

void ExpectNftaContainmentAgrees(const Nfta& a, const Nfta& b,
                                 const std::string& label) {
  StatusOr<Nfta> not_b = b.Complement();
  ASSERT_TRUE(not_b.ok()) << label;
  const bool contained = Nfta::Intersection(a, *not_b).IsEmpty();
  std::size_t explored_exact = 0;
  for (bool antichain : {false, true}) {
    Nfta::ContainmentOptions options;
    options.antichain = antichain;
    StatusOr<Nfta::ContainmentResult> r = Nfta::Contains(a, b, options);
    ASSERT_TRUE(r.ok()) << label;
    EXPECT_EQ(r->contained, contained)
        << label << " antichain=" << antichain;
    if (antichain) {
      EXPECT_LE(r->explored, explored_exact) << label;
    } else {
      explored_exact = r->explored;
    }
    if (r->contained) continue;
    EXPECT_TRUE(a.Accepts(r->counterexample))
        << label << " " << r->counterexample.ToString();
    EXPECT_FALSE(b.Accepts(r->counterexample))
        << label << " " << r->counterexample.ToString();
  }
}

Nfta RandomNfta(std::mt19937_64& rng, int states,
                const std::vector<int>& arities, double density) {
  Nfta nfta(states, arities);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (int s = 0; s < states; ++s) {
    if (coin(rng) < 0.3) nfta.SetFinal(s);
  }
  for (int sym = 0; sym < static_cast<int>(arities.size()); ++sym) {
    int arity = arities[sym];
    int combos = 1;
    for (int i = 0; i < arity; ++i) combos *= states;
    for (int c = 0; c < combos; ++c) {
      std::vector<int> children(arity);
      int rest = c;
      for (int i = 0; i < arity; ++i) {
        children[i] = rest % states;
        rest /= states;
      }
      for (int to = 0; to < states; ++to) {
        if (coin(rng) < density) nfta.AddTransition(sym, children, to);
      }
    }
  }
  return nfta;
}

TEST(NftaContainmentAgreementTest, RandomizedTreeAutomataAgree) {
  std::mt19937_64 rng(424242);
  const std::vector<int> arities = {0, 1, 2};
  int negatives = 0;
  for (int trial = 0; trial < 40; ++trial) {
    int sa = 2 + static_cast<int>(rng() % 4);
    int sb = 2 + static_cast<int>(rng() % 4);
    Nfta a = RandomNfta(rng, sa, arities, 0.3);
    Nfta b = RandomNfta(rng, sb, arities, 0.4);
    ExpectNftaContainmentAgrees(a, b, StrCat("random_trial", trial));
    ExpectNftaContainmentAgrees(a, a, StrCat("self_trial", trial));
    StatusOr<Nfta::ContainmentResult> r = Nfta::Contains(a, b);
    ASSERT_TRUE(r.ok());
    if (!r->contained) ++negatives;
  }
  EXPECT_GT(negatives, 5) << "the negative path must be exercised";
}

TEST(NftaContainmentAgreementTest, DeterminizeAgreesOnSampleTrees) {
  std::mt19937_64 rng(999);
  const std::vector<int> arities = {0, 0, 2};
  for (int trial = 0; trial < 8; ++trial) {
    Nfta a = RandomNfta(rng, 2 + static_cast<int>(rng() % 3), arities, 0.35);
    StatusOr<Nfta> det = a.Determinize();
    ASSERT_TRUE(det.ok());
    // Sample random trees and compare acceptance.
    for (int t = 0; t < 60; ++t) {
      std::function<LabeledTree(int)> build = [&](int depth) {
        LabeledTree node;
        if (depth == 0 || rng() % 3 == 0) {
          node.symbol = static_cast<int>(rng() % 2);  // leaf symbols
          return node;
        }
        node.symbol = 2;
        node.children.push_back(build(depth - 1));
        node.children.push_back(build(depth - 1));
        return node;
      };
      LabeledTree tree = build(3);
      EXPECT_EQ(a.Accepts(tree), det->Accepts(tree))
          << "trial " << trial << " tree " << tree.ToString();
    }
  }
}

}  // namespace
}  // namespace datalog

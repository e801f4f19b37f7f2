// Differential testing of the word-parallel bitset substrate: on program
// families crossed with fixed and randomized unions of bounded
// expansions, the decider's exact-bitset achieved-set path (interned pair
// ids, AntichainStore maintenance) must return byte-identical
// ContainmentDecisions — verdict, counterexample witness tree, state and
// goal counts, rounds, antichain prunes — to the Bloom-signature +
// sorted-vector path it replaced, with and without antichain pruning.
// NFTA containment gets the same treatment: the Bitset frontier /
// AntichainStore arm must match the sorted-vector ablation arm verdict
// for verdict, counterexample for counterexample, and explored count for
// explored count. NFA containment, which has a single arm, is checked
// against the complement construction and a brute-force search for the
// shortest counterexample, on fixed automata and on randomized ones.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "src/automata/nfa.h"
#include "src/automata/nfta.h"
#include "src/containment/decider.h"
#include "src/generators/examples.h"
#include "src/trees/enumerate.h"
#include "src/util/strings.h"
#include "tests/test_util.h"

namespace datalog {
namespace {

// ---------------------------------------------------------------------
// Decider: use_bitsets on/off must be observationally identical.
// ---------------------------------------------------------------------

struct DeciderCase {
  std::string name;
  Program program;
  std::string goal;
  UnionOfCqs theta;
};

void ExpectSameDecision(const ContainmentDecision& bitset,
                        const ContainmentDecision& legacy,
                        const std::string& label) {
  EXPECT_EQ(bitset.contained, legacy.contained) << label;
  ASSERT_EQ(bitset.counterexample.has_value(),
            legacy.counterexample.has_value())
      << label;
  if (bitset.counterexample.has_value()) {
    EXPECT_EQ(bitset.counterexample->ToString(),
              legacy.counterexample->ToString())
        << label;
  }
  EXPECT_EQ(bitset.stats.states_discovered, legacy.stats.states_discovered)
      << label;
  EXPECT_EQ(bitset.stats.goals_discovered, legacy.stats.goals_discovered)
      << label;
  EXPECT_EQ(bitset.stats.rounds, legacy.stats.rounds) << label;
  EXPECT_EQ(bitset.stats.combine_calls, legacy.stats.combine_calls) << label;
  // Eviction decisions must agree state for state, so the prune counters
  // coincide even though the two arms count them in different code paths.
  EXPECT_EQ(bitset.stats.antichain_prunes, legacy.stats.antichain_prunes)
      << label;
  // The exact-bitset path never computes Bloom signatures.
  EXPECT_EQ(bitset.stats.subset_sig_rejects, 0u) << label;
}

void RunDifferential(const DeciderCase& c) {
  for (bool antichain : {true, false}) {
    ContainmentOptions with_bitsets;
    with_bitsets.use_bitsets = true;
    with_bitsets.antichain = antichain;
    ContainmentOptions without;
    without.use_bitsets = false;
    without.antichain = antichain;
    StatusOr<ContainmentDecision> a =
        DecideDatalogInUcq(c.program, c.goal, c.theta, with_bitsets);
    StatusOr<ContainmentDecision> b =
        DecideDatalogInUcq(c.program, c.goal, c.theta, without);
    ASSERT_EQ(a.ok(), b.ok()) << c.name;
    if (!b.ok()) {
      EXPECT_EQ(a.status().code(), b.status().code()) << c.name;
      continue;
    }
    ExpectSameDecision(
        *a, *b, StrCat(c.name, " antichain=", antichain ? 1 : 0));
  }
}

std::vector<DeciderCase> FixedCases() {
  std::vector<DeciderCase> cases;
  {
    UnionOfCqs theta;
    theta.Add(MustParseCq("buys(X, Y) :- likes(X, Y)."));
    theta.Add(MustParseCq("buys(X, Y) :- trendy(X), likes(Z, Y)."));
    cases.push_back({"buys1_rewriting", Buys1Program(), "buys", theta});
  }
  {
    UnionOfCqs theta;
    theta.Add(MustParseCq("buys(X, Y) :- likes(X, Y)."));
    theta.Add(MustParseCq("buys(X, Y) :- knows(X, Z), likes(Z, Y)."));
    cases.push_back({"buys2_attempt", Buys2Program(), "buys", theta});
  }
  {
    cases.push_back({"tc_paths3", TransitiveClosureProgram("e", "e"), "p",
                     PathQueries(3)});
  }
  {
    UnionOfCqs top;
    top.Add(MustParseCq("p(X, Y) :- ."));
    cases.push_back(
        {"tc_top", TransitiveClosureProgram("e", "e"), "p", top});
  }
  {
    cases.push_back({"nonlinear_tc_paths2",
                     NonlinearTransitiveClosureProgram(), "p",
                     PathQueries(2)});
  }
  {
    // Deep recursion: many achieved sets per goal, so the antichain does
    // real pruning work in both representations.
    cases.push_back({"nonlinear_tc_paths4",
                     NonlinearTransitiveClosureProgram(), "p",
                     PathQueries(4)});
  }
  {
    cases.push_back({"chain2_paths4", ChainProgram(2), "p", PathQueries(4)});
  }
  {
    cases.push_back({"dist3_paths3", DistProgram(3), "dist3", PathQueries(3)});
  }
  {
    UnionOfCqs empty;
    cases.push_back(
        {"tc_empty_union", TransitiveClosureProgram("e", "e"), "p", empty});
  }
  {
    Program reach = MustParseProgram(R"(
      r(X) :- e(root, X).
      r(X) :- r(Y), e(Y, X).
    )");
    UnionOfCqs from_root;
    from_root.Add(MustParseCq("r(X) :- e(root, X)."));
    cases.push_back({"constants_from_root", reach, "r", from_root});
  }
  return cases;
}

TEST(DeciderBitsetTest, FixedCasesAgreeWithSortedVectorBaseline) {
  for (const DeciderCase& c : FixedCases()) RunDifferential(c);
}

// Randomized pairs, mirroring the intern-memo differential harness: each
// seed picks a program family and a random subset of its bounded
// expansions as Θ, producing a mix of contained and non-contained
// instances with nontrivial achieved-set populations.
class DeciderBitsetRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(DeciderBitsetRandomTest, RandomizedExpansionSubsetsAgree) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  std::mt19937_64 rng(seed * 6271 + 5);
  struct Family {
    std::string name;
    Program program;
    std::string goal;
  };
  std::vector<Family> families;
  families.push_back({"buys1", Buys1Program(), "buys"});
  families.push_back({"buys2", Buys2Program(), "buys"});
  families.push_back({"tc", TransitiveClosureProgram("e", "e"), "p"});
  families.push_back({"tc_nl", NonlinearTransitiveClosureProgram(), "p"});
  families.push_back({"chain2", ChainProgram(2), "p"});
  families.push_back({"dist3", DistProgram(3), "dist3"});
  const Family& family = families[seed % families.size()];
  EnumerateOptions enumerate;
  enumerate.max_depth = 1 + static_cast<std::size_t>(rng() % 3);
  enumerate.max_trees = 200;
  UnionOfCqs expansions =
      BoundedExpansions(family.program, family.goal, enumerate);
  UnionOfCqs theta;
  for (const ConjunctiveQuery& disjunct : expansions.disjuncts()) {
    if (rng() % 2 == 0) theta.Add(disjunct);
    if (theta.size() >= 6) break;  // keep the decider input small
  }
  if (rng() % 4 == 0) {
    std::vector<Term> head;
    for (std::size_t i = 0; i < family.program.PredicateArity(family.goal);
         ++i) {
      head.push_back(Term::Variable(StrCat("T", i)));
    }
    theta.Add(ConjunctiveQuery(std::move(head), {}));  // universal CQ
  }
  DeciderCase c{StrCat(family.name, "_seed", seed), family.program,
                family.goal, theta};
  RunDifferential(c);
}

INSTANTIATE_TEST_SUITE_P(RandomThetas, DeciderBitsetRandomTest,
                         ::testing::Range(0, 20));

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
// NFTA containment: discovered-set Bitsets/AntichainStore vs vectors.
// ---------------------------------------------------------------------

void ExpectSameNftaContainment(const Nfta& a, const Nfta& b,
                               const std::string& label) {
  for (bool antichain : {true, false}) {
    Nfta::ContainmentOptions with_bitsets;
    with_bitsets.use_bitsets = true;
    with_bitsets.antichain = antichain;
    Nfta::ContainmentOptions without;
    without.use_bitsets = false;
    without.antichain = antichain;
    StatusOr<Nfta::ContainmentResult> x = Nfta::Contains(a, b, with_bitsets);
    StatusOr<Nfta::ContainmentResult> y = Nfta::Contains(a, b, without);
    ASSERT_EQ(x.ok(), y.ok()) << label;
    if (!y.ok()) continue;
    EXPECT_EQ(x->contained, y->contained)
        << label << " antichain=" << antichain;
    EXPECT_EQ(x->counterexample.ToString(), y->counterexample.ToString())
        << label << " antichain=" << antichain;
    EXPECT_EQ(x->explored, y->explored)
        << label << " antichain=" << antichain;
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

TEST(NftaBitsetDifferentialTest, RandomizedTreeAutomataAgree) {
  std::mt19937_64 rng(424242);
  const std::vector<int> arities = {0, 1, 2};
  for (int trial = 0; trial < 40; ++trial) {
    int sa = 2 + static_cast<int>(rng() % 4);
    int sb = 2 + static_cast<int>(rng() % 4);
    Nfta a = RandomNfta(rng, sa, arities, 0.3);
    Nfta b = RandomNfta(rng, sb, arities, 0.4);
    ExpectSameNftaContainment(a, b, StrCat("random_trial", trial));
    ExpectSameNftaContainment(a, a, StrCat("self_trial", trial));
  }
}

TEST(NftaBitsetDifferentialTest, DeterminizeAgreesOnSampleTrees) {
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

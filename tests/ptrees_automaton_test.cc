#include <gtest/gtest.h>

#include <string>

#include "src/containment/ptrees_automaton.h"
#include "src/generators/examples.h"
#include "src/trees/enumerate.h"
#include "tests/test_util.h"

namespace datalog {
namespace {

Program SmallTc() { return TransitiveClosureProgram("e", "e0"); }

TEST(ProgramAlphabetTest, SizeIsExponentialInRuleVariables) {
  // TC: var(Π) has 6 variables; rule 1 has 3 variables (6^3 = 216
  // instances), rule 2 has 2 (6^2 = 36): 252 labels (Proposition 5.9:
  // exponential in the size of Π).
  StatusOr<ProgramAlphabet> alphabet = BuildProgramAlphabet(SmallTc());
  ASSERT_TRUE(alphabet.ok());
  EXPECT_EQ(alphabet->num_labels(), 252u);
  EXPECT_EQ(alphabet->proof_vars.size(), 6u);
}

TEST(ProgramAlphabetTest, LabelLimitEnforced) {
  StatusOr<ProgramAlphabet> alphabet = BuildProgramAlphabet(SmallTc(), ExecutionLimits().WithMaxLabels(10));
  ASSERT_FALSE(alphabet.ok());
  EXPECT_EQ(alphabet.status().code(), StatusCode::kResourceExhausted);
}

// A one-rule program: its instances are pairwise distinct, so the rule
// alone decides whether the alphabet fits under the label cap.
TEST(ProgramAlphabetTest, RuleAtExactlyTheCapStillEnumerates) {
  Program program = MustParseProgram("p(X, Y, Z) :- e(X, Y), f(Y, Z).");
  StatusOr<ProgramAlphabet> full = BuildProgramAlphabet(program);
  ASSERT_TRUE(full.ok());
  const std::size_t n = full->num_labels();
  const std::size_t v = full->proof_vars.size();
  ASSERT_EQ(n, v * v * v);
  StatusOr<ProgramAlphabet> capped =
      BuildProgramAlphabet(program, ExecutionLimits().WithMaxLabels(n));
  ASSERT_TRUE(capped.ok()) << capped.status();
  ASSERT_EQ(capped->num_labels(), n);
  for (std::size_t symbol = 0; symbol < n; ++symbol) {
    EXPECT_EQ(capped->Label(symbol).ToString(),
              full->Label(symbol).ToString());
  }
}

// One label fewer and the same rule overflows for certain: the cap is
// checked before enumerating, after one poll, with the same message.
TEST(ProgramAlphabetTest, OverCapRuleFailsBeforeEnumerating) {
  Program program = MustParseProgram("p(X, Y, Z) :- e(X, Y), f(Y, Z).");
  StatusOr<ProgramAlphabet> full = BuildProgramAlphabet(program);
  ASSERT_TRUE(full.ok());
  const std::size_t cap = full->num_labels() - 1;
  FaultInjector polls;
  StatusOr<ProgramAlphabet> capped = BuildProgramAlphabet(
      program, ExecutionLimits().WithMaxLabels(cap).WithFault(&polls));
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(capped.status().message(),
            "alphabet exceeded " + std::to_string(cap) + " labels");
  EXPECT_EQ(polls.polls(), 1u);

  // Faults and smaller step budgets still report first.
  FaultInjector cancel(FaultInjector::Fault::kCancel, 1);
  capped = BuildProgramAlphabet(
      program, ExecutionLimits().WithMaxLabels(cap).WithFault(&cancel));
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kCancelled);
  capped = BuildProgramAlphabet(
      program, ExecutionLimits().WithMaxLabels(cap).WithMaxSteps(5));
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().message(),
            "alphabet enumeration exceeded its step budget of 5");
}

// Two rules whose instances add up past the cap but overlap (every
// instance of the second is one of the first's): the up-front check is
// per rule, so the alphabet still enumerates.
TEST(ProgramAlphabetTest, RulesOverflowingOnlyTogetherStillEnumerate) {
  Program program = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, X) :- e(X, X).
  )");
  StatusOr<ProgramAlphabet> full = BuildProgramAlphabet(program);
  ASSERT_TRUE(full.ok());
  const std::size_t n = full->num_labels();
  const std::size_t v = full->proof_vars.size();
  ASSERT_EQ(n, v * v);
  StatusOr<ProgramAlphabet> capped =
      BuildProgramAlphabet(program, ExecutionLimits().WithMaxLabels(n + 1));
  ASSERT_TRUE(capped.ok()) << capped.status();
  EXPECT_EQ(capped->num_labels(), n);
}

// The same two rules at exactly the cap: every instance of the second
// rule duplicates one of the first's, and duplicates do not count
// against the cap — only a new distinct label can overflow it.
TEST(ProgramAlphabetTest, DuplicateInstancesAtTheCapDoNotOverflow) {
  Program program = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, X) :- e(X, X).
  )");
  StatusOr<ProgramAlphabet> at_cap =
      BuildProgramAlphabet(program, ExecutionLimits().WithMaxLabels(16));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status();
  EXPECT_EQ(at_cap->num_labels(), 16u);
  StatusOr<ProgramAlphabet> under_cap =
      BuildProgramAlphabet(program, ExecutionLimits().WithMaxLabels(15));
  ASSERT_FALSE(under_cap.ok());
  EXPECT_EQ(under_cap.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(under_cap.status().message(), "alphabet exceeded 15 labels");
}

TEST(PtreesAutomatonTest, AcceptsExactlyValidProofTrees) {
  Program tc = SmallTc();
  StatusOr<PtreesAutomaton> automaton = BuildPtreesAutomaton(tc, "p");
  ASSERT_TRUE(automaton.ok());
  // Every enumerated proof tree encodes and is accepted.
  EnumerateOptions options;
  options.max_depth = 2;
  options.max_trees = 5000;
  std::size_t accepted = 0;
  EnumerateProofTrees(tc, "p", options, [&](const ExpansionTree& tree) {
    std::optional<LabeledTree> encoded =
        ProofTreeToLabeledTree(automaton->alphabet, tree);
    EXPECT_TRUE(encoded.has_value()) << tree.ToString();
    EXPECT_TRUE(automaton->nfta.Accepts(*encoded)) << tree.ToString();
    ++accepted;
    return true;
  });
  EXPECT_GT(accepted, 100u);
}

TEST(PtreesAutomatonTest, MembershipMatchesValidityOnArbitraryLabeledTrees) {
  // Enumerate arbitrary labeled trees (valid or not) over the alphabet:
  // the automaton accepts a tree iff it decodes to a valid proof tree
  // whose root is a goal-predicate atom.
  Program tc = SmallTc();
  StatusOr<PtreesAutomaton> automaton = BuildPtreesAutomaton(tc, "p");
  ASSERT_TRUE(automaton.ok());
  std::size_t checked = 0;
  std::size_t accepted = 0;
  EnumerateLabeledTrees(
      automaton->alphabet.arities, 2, 3000, [&](const LabeledTree& tree) {
        ExpansionTree decoded =
            LabeledTreeToProofTree(automaton->alphabet, tree);
        bool valid = ValidateProofTree(tc, decoded).ok() &&
                     decoded.root().goal.predicate() == "p";
        bool accepts = automaton->nfta.Accepts(tree);
        EXPECT_EQ(accepts, valid) << decoded.ToString();
        ++checked;
        if (accepts) ++accepted;
        return true;
      });
  EXPECT_GT(checked, 1000u);
  EXPECT_GT(accepted, 0u);
}

TEST(PtreesAutomatonTest, WitnessTreeIsAValidProofTree) {
  Program tc = SmallTc();
  StatusOr<PtreesAutomaton> automaton = BuildPtreesAutomaton(tc, "p");
  ASSERT_TRUE(automaton.ok());
  std::optional<LabeledTree> witness = automaton->nfta.WitnessTree();
  ASSERT_TRUE(witness.has_value());
  ExpansionTree decoded =
      LabeledTreeToProofTree(automaton->alphabet, *witness);
  EXPECT_TRUE(ValidateProofTree(tc, decoded).ok());
  EXPECT_EQ(decoded.root().goal.predicate(), "p");
}

TEST(PtreesAutomatonTest, NoBaseRuleMeansEmptyLanguage) {
  Program no_base = MustParseProgram("p(X, Y) :- e(X, Z), p(Z, Y).");
  StatusOr<PtreesAutomaton> automaton = BuildPtreesAutomaton(no_base, "p");
  ASSERT_TRUE(automaton.ok());
  EXPECT_TRUE(automaton->nfta.IsEmpty());
}

TEST(PtreesAutomatonTest, RoundTripEncoding) {
  Program tc = SmallTc();
  StatusOr<PtreesAutomaton> automaton = BuildPtreesAutomaton(tc, "p");
  ASSERT_TRUE(automaton.ok());
  EnumerateOptions options;
  options.max_depth = 2;
  options.max_trees = 50;
  EnumerateProofTrees(tc, "p", options, [&](const ExpansionTree& tree) {
    std::optional<LabeledTree> encoded =
        ProofTreeToLabeledTree(automaton->alphabet, tree);
    EXPECT_TRUE(encoded.has_value());
    ExpansionTree decoded =
        LabeledTreeToProofTree(automaton->alphabet, *encoded);
    EXPECT_EQ(decoded.root().rule, tree.root().rule);
    EXPECT_EQ(decoded.Size(), tree.Size());
    return true;
  });
}

TEST(PtreesAutomatonTest, DecodesLabelsAndStatesLazily) {
  Program tc = SmallTc();
  StatusOr<PtreesAutomaton> automaton = BuildPtreesAutomaton(tc, "p");
  ASSERT_TRUE(automaton.ok());
  // The construction runs entirely on the IR rows: building the
  // automaton renders no Term-level label or state atom at all.
  EXPECT_EQ(automaton->alphabet.num_decoded_labels(), 0u);
  EXPECT_EQ(automaton->num_decoded_state_atoms(), 0u);
  // Rendering is per-symbol on demand and cached: touching one label
  // and one state decodes exactly one of each; repeat access is free.
  const Rule& label = automaton->alphabet.Label(7);
  EXPECT_EQ(automaton->alphabet.num_decoded_labels(), 1u);
  EXPECT_EQ(&automaton->alphabet.Label(7), &label);
  EXPECT_EQ(automaton->alphabet.num_decoded_labels(), 1u);
  const Atom& state = automaton->StateAtom(3);
  EXPECT_EQ(automaton->num_decoded_state_atoms(), 1u);
  EXPECT_EQ(&automaton->StateAtom(3), &state);
  EXPECT_EQ(automaton->num_decoded_state_atoms(), 1u);
  // The decoded views resolve back to their own ids.
  EXPECT_EQ(automaton->alphabet.SymbolOf(label), 7);
  EXPECT_EQ(automaton->StateOf(state), 3);
  // A full StateOf round-trip decodes every state exactly once.
  for (std::size_t s = 0; s < automaton->num_states(); ++s) {
    EXPECT_EQ(automaton->StateOf(automaton->StateAtom(s)),
              static_cast<int>(s));
  }
  EXPECT_EQ(automaton->num_decoded_state_atoms(), automaton->num_states());
}

TEST(PtreesAutomatonTest, TreesOutsideVarPiAreNotEncodable) {
  Program tc = SmallTc();
  StatusOr<PtreesAutomaton> automaton = BuildPtreesAutomaton(tc, "p");
  ASSERT_TRUE(automaton.ok());
  // An unfolding tree with fresh variables is not a proof tree.
  EnumerateOptions options;
  options.max_depth = 2;
  EnumerateUnfoldingTrees(tc, "p", options, [&](const ExpansionTree& tree) {
    if (tree.Depth() == 2) {
      EXPECT_FALSE(
          ProofTreeToLabeledTree(automaton->alphabet, tree).has_value());
    }
    return true;
  });
}

}  // namespace
}  // namespace datalog

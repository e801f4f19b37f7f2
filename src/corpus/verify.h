// Independent certificate verification (the corpus_verify tool's core).
//
// The verifier replays every certificate kind against the instance using
// only the naive AST kernel (src/corpus/naive.h), the expansion-tree
// validators (src/trees), canonical-instance enumeration
// (src/containment/instances.h), and the Term-level absorb kernel
// (CombineAtNode / RootAccepts / IsAchievedSubset over Rules and Atoms).
// The decider runs on the IR encoding of that kernel; the Term-level one
// is called only from here and from the explicit A^θ construction. The
// verifier shares NO code with the staged pipeline's deciders: no
// engine, no interning, no IR, no automata, no parallelism. The trust
// argument (docs/corpus.md, "Verifier trust base") is that a certificate
// accepted here witnesses the claimed verdict even if every optimized
// component above this layer is wrong, which is also what makes it the
// tests' oracle for those components.
//
// Soundness notes per kind:
//  * forward-contained — CheckDerivation replays a ground forward
//    chaining script per disjunct; acceptance implies the frozen goal is
//    derivable, i.e. the disjunct is contained [CK86].
//  * forward-not-contained — the verifier re-freezes the named disjunct
//    itself (same "@v" spelling as the engine), requires the exported
//    facts to be exactly that canonical database, runs the naive
//    fixpoint, and requires the goal atom to be absent. Requires a
//    range-restricted program (the generated-instance contract), where
//    naive and active-domain semantics coincide.
//  * backward-not-contained — any valid expansion tree of the goal
//    predicate whose CQ no disjunct maps into refutes Q_Π ⊆ Θ: freezing
//    the tree's body yields a database D and tuple t with t ∈ Q_Π(D)
//    (the tree itself) and t ∉ Θ(D) (no homomorphism). A specialized
//    root (repeated variables) names a tuple with repeats and is a
//    legitimate counterexample. Requires range restriction so every
//    head term occurs in D. Validity and the homomorphism searches are
//    re-checked here, so the certificate is sound whatever produced it.
//  * backward-contained — the absorption trace is checked as an
//    inductive invariant: for every canonical instance of every
//    goal-reachable rule whose child goals all have listed sets, each
//    combination's achieved set must dominate (contain) some listed set
//    of the instance head, and every listed set of a goal-predicate
//    entry must be root-accepting. By induction on proof-tree height and
//    monotonicity of CombineAtNode, every achievable root state then
//    contains an accepting listed set, and acceptance is upward closed —
//    so Q_Π ⊆ Θ. Extra (unachievable) listed sets only add obligations.
//  * backward-contained-unfold — re-enumerates the complete expansion
//    set of a nonrecursive program deterministically (shared budget
//    constants) and re-checks the claimed covering disjunct per tree.
//  * timeout — not a verdict: it attests only that a named pipeline
//    stage gave up under its deadline. The verifier checks the stage
//    name and reason slug are well-formed and exempts the instance from
//    the full-coverage requirement (directions resolved before the
//    timeout may still carry their certificates, which are verified as
//    usual).
#ifndef DATALOG_EQ_SRC_CORPUS_VERIFY_H_
#define DATALOG_EQ_SRC_CORPUS_VERIFY_H_

#include <cstddef>
#include <vector>

#include "src/corpus/certificate.h"
#include "src/corpus/format.h"
#include "src/util/status.h"

namespace datalog {
namespace corpus {

struct VerifyOptions {
  /// Fact budget for naive fixpoints and derivation replays.
  std::size_t naive_max_facts = 200000;
};

/// Replays one certificate against its instance; OkStatus means the
/// certificate proves its claim. The instance must be the one the
/// certificate names (ids are checked by the caller, which holds the
/// corpus).
Status VerifyCertificate(const CorpusInstance& instance,
                         const Certificate& cert,
                         const VerifyOptions& options = VerifyOptions());

/// Coverage summary for a whole corpus against a set of certificates.
struct VerifyReport {
  std::size_t certificates_checked = 0;
  std::size_t invalid_instances = 0;
  std::size_t timed_out_instances = 0;
  std::size_t forward_covered = 0;   // instances with a forward cert
  std::size_t backward_covered = 0;  // instances with a backward cert
};

/// Verifies every certificate against its instance and checks coverage:
/// each instance must either carry an `invalid` certificate, carry a
/// `timeout` certificate (plus any direction certificates it earned
/// before timing out), or carry both one forward-direction and one
/// backward-direction certificate. Duplicate coverage (two certs for
/// the same instance and direction) is rejected. Errors name the
/// offending instance id.
StatusOr<VerifyReport> VerifyCorpus(
    const std::vector<CorpusInstance>& instances,
    const std::vector<Certificate>& certificates,
    const VerifyOptions& options = VerifyOptions());

}  // namespace corpus
}  // namespace datalog

#endif  // DATALOG_EQ_SRC_CORPUS_VERIFY_H_

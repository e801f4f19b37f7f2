// The staged corpus decider pipeline (the corpus_run tool's core).
//
// Stages run cheapest-first, each consuming the previous stage's holdout
// and emitting certificates (src/corpus/certificate.h) for the verdicts
// it resolves:
//
//   lint    — static validity (LintProgram errors plus the Θ-side
//             checks the linter does not know about). Invalid instances
//             get an `invalid` certificate and leave the pipeline.
//   forward — Θ ⊆ Q_Π by the canonical-database method, one union-level
//             call per instance (which also returns the first failing
//             disjunct's frozen database), cross-checked against the naive kernel's derivation
//             search (a disagreement is an InternalError naming the
//             instance — the differential harness, not a verdict).
//             Emits forward-contained / forward-not-contained.
//   linear  — the word-automaton arm for linear-in-IDB programs. A
//             refutation resolves the backward direction with the
//             counterexample tree; a contained verdict only sets the
//             kFlagLinearContainedHint bit (the arm exports no
//             absorption trace), which the later stages must agree
//             with.
//   unfold  — nonrecursive programs: complete expansion enumeration,
//             every expansion covered → backward-contained-unfold,
//             an uncovered expansion → backward-not-contained.
//             Recursive programs: a shallow refutation probe that can
//             only resolve not-contained.
//   ptrees  — the full proof-tree decider (Theorem 5.12) with
//             export_trace, resolving everything left: contained →
//             backward-contained (absorption trace), not contained →
//             backward-not-contained (counterexample tree).
//
// After the last stage every instance is resolved (invalid, or both
// directions decided); the holdout sequence is non-increasing and each
// instance carries exactly the certificates VerifyCorpus requires.
#ifndef DATALOG_EQ_SRC_CORPUS_PIPELINE_H_
#define DATALOG_EQ_SRC_CORPUS_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/corpus/certificate.h"
#include "src/corpus/format.h"
#include "src/util/governor.h"
#include "src/util/status.h"

namespace datalog {
namespace corpus {

struct PipelineOptions {
  /// Worker threads for the per-stage instance fan-out; 0 means
  /// hardware concurrency. Each instance is decided by a serial engine
  /// (the two parallelism levels do not nest), and results are merged
  /// in instance order, so the outcome is thread-count independent.
  std::size_t threads = 0;
  /// Fact budget for the naive cross-checks.
  std::size_t naive_max_facts = 200000;
  /// State budget for the ptrees decider.
  std::size_t decider_max_states = 1'000'000;
  /// Budgets for the linear word-automaton stage, deliberately far
  /// tighter than the arm's own defaults: its alphabet can grow
  /// superexponentially on multi-EDB-atom linear rules, and blowing
  /// the budget just hands the instance to the later stages.
  std::size_t linear_max_states = 20000;
  std::size_t linear_max_labels = 50000;
  /// Run-wide governor limits: deadline, step budget, cancellation, and
  /// fault injection shared by every stage. A tripped cancel token or an
  /// expired run deadline aborts the whole pipeline (kCancelled /
  /// kDeadlineExceeded); per-instance work inherits these limits.
  ExecutionLimits limits;
  /// Per-instance wall-clock budget in milliseconds (0 = none). An
  /// instance whose stage exceeds it — while the run-wide deadline has
  /// NOT passed — leaves the pipeline as resolved-by-timeout: it gets a
  /// `timeout` certificate pinning the stage, the kFlagTimedOut bit,
  /// and no verdict. The certificate carries no timing numbers, so a
  /// re-run under the same budgets serializes byte-identically.
  std::uint64_t instance_deadline_ms = 0;
};

/// Per-stage accounting: how many instances entered (were still
/// unresolved), how many became fully resolved during the stage, how
/// many remain unresolved after it, and the certificates it emitted
/// (in instance order).
struct StageReport {
  std::string name;
  std::size_t entered = 0;
  std::size_t decided = 0;
  std::size_t holdout = 0;
  std::vector<Certificate> certificates;
};

struct PipelineResult {
  std::vector<StageReport> stages;
  /// Final kFlag* bits per instance, parallel to the input vector.
  std::vector<std::uint32_t> flags;
  // Verdict-class tallies over the whole corpus.
  std::size_t equivalent = 0;     // Θ ⊆ Q_Π and Q_Π ⊆ Θ
  std::size_t forward_only = 0;   // Θ ⊆ Q_Π only
  std::size_t backward_only = 0;  // Q_Π ⊆ Θ only
  std::size_t incomparable = 0;   // neither
  std::size_t invalid = 0;
  /// Instances that ran out of per-instance deadline mid-stage (they
  /// carry a `timeout` certificate instead of a verdict).
  std::size_t timed_out = 0;
};

/// Runs every stage over the corpus. Errors (engine failures, stage
/// disagreements) name the offending instance id.
StatusOr<PipelineResult> RunCorpusPipeline(
    const std::vector<CorpusInstance>& instances,
    const PipelineOptions& options = PipelineOptions());

}  // namespace corpus
}  // namespace datalog

#endif  // DATALOG_EQ_SRC_CORPUS_PIPELINE_H_

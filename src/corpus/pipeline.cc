#include "src/corpus/pipeline.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "src/analysis/diagnostics.h"
#include "src/containment/decider.h"
#include "src/containment/linear.h"
#include "src/containment/ucq_in_datalog.h"
#include "src/corpus/naive.h"
#include "src/trees/expansion_tree.h"
#include "src/util/logging.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace datalog {
namespace corpus {
namespace {

Status Annotate(std::uint64_t id, const Status& status) {
  return Status(status.code(),
                StrCat("instance ", id, ": ", status.message()));
}

/// One instance's result within a stage, merged in instance order.
struct Outcome {
  Status status = OkStatus();
  std::vector<Certificate> certs;
  std::uint32_t add_flags = 0;
};

Certificate MakeCert(std::uint64_t id, CertificateKind kind) {
  Certificate cert;
  cert.instance_id = id;
  cert.kind = kind;
  return cert;
}

std::size_t CountUnresolved(const std::vector<std::uint32_t>& flags) {
  std::size_t n = 0;
  for (std::uint32_t f : flags) {
    if (!InstanceResolved(f)) ++n;
  }
  return n;
}

/// The limits one instance's work runs under: the run-wide limits
/// (cancel token, fault injector, step budget) narrowed by the
/// per-instance deadline, whichever expires first.
ExecutionLimits InstanceLimits(const PipelineOptions& options) {
  ExecutionLimits limits = options.limits;
  if (options.instance_deadline_ms > 0) {
    const auto mine =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options.instance_deadline_ms);
    if (!limits.deadline.has_value() || mine < *limits.deadline) {
      limits.deadline = mine;
    }
  }
  return limits;
}

/// True when the run as a whole must stop: the shared token was
/// cancelled or the run-wide deadline has passed. Distinguishes an
/// instance-local deadline (→ timeout holdout) from a pipeline abort.
bool RunInterrupted(const ExecutionLimits& run_limits) {
  if (run_limits.cancel != nullptr && run_limits.cancel->cancelled()) {
    return true;
  }
  return run_limits.deadline.has_value() &&
         std::chrono::steady_clock::now() >= *run_limits.deadline;
}

/// Fans the stage function out over the still-unresolved instances,
/// then merges flags and certificates in instance order (so the result
/// is independent of scheduling). A slot that exceeded its per-instance
/// deadline — while the run is otherwise healthy — is converted here,
/// centrally, into a `timeout` certificate naming this stage; every
/// other failure (including kCancelled and a run-deadline expiry)
/// aborts the pipeline with the first failing slot's status in
/// instance order.
template <typename Fn>
Status RunStage(const std::string& name,
                const std::vector<CorpusInstance>& instances,
                const ExecutionLimits& run_limits,
                std::vector<std::uint32_t>* flags, ThreadPool* pool,
                const Fn& fn, std::vector<StageReport>* stages) {
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (!InstanceResolved((*flags)[i])) active.push_back(i);
  }
  StageReport report;
  report.name = name;
  report.entered = active.size();
  std::vector<Outcome> slots(active.size());
  pool->ParallelFor(active.size(), [&](std::size_t k) {
    slots[k] = fn(instances[active[k]], (*flags)[active[k]]);
  });
  // A failed slot merges as one timeout certificate or aborts the stage.
  std::size_t total_certs = 0;
  for (const Outcome& slot : slots) {
    total_certs += slot.status.ok() ? slot.certs.size() : 1;
  }
  report.certificates.reserve(total_certs);
  for (std::size_t k = 0; k < active.size(); ++k) {
    const std::size_t i = active[k];
    Outcome& slot = slots[k];
    if (!slot.status.ok()) {
      if (slot.status.code() != StatusCode::kDeadlineExceeded ||
          RunInterrupted(run_limits)) {
        return slot.status;
      }
      Certificate cert = MakeCert(instances[i].id, CertificateKind::kTimeout);
      cert.timeout_stage = name;
      cert.timeout_reason = "deadline";
      slot.certs.clear();
      slot.certs.push_back(std::move(cert));
      slot.add_flags = kFlagTimedOut;
    }
    (*flags)[i] |= slot.add_flags;
    if (InstanceResolved((*flags)[i])) ++report.decided;
    for (Certificate& cert : slot.certs) {
      report.certificates.push_back(std::move(cert));
    }
  }
  report.holdout = CountUnresolved(*flags);
  stages->push_back(std::move(report));
  return OkStatus();
}

Term ApplySubst(const std::map<std::string, Term>& subst, const Term& term) {
  if (!term.is_variable()) return term;
  auto it = subst.find(term.name());
  DATALOG_CHECK(it != subst.end()) << "unbound variable " << term.name();
  return it->second;
}

Atom ApplySubst(const std::map<std::string, Term>& subst, const Atom& atom) {
  std::vector<Term> args;
  args.reserve(atom.arity());
  for (const Term& t : atom.args()) args.push_back(ApplySubst(subst, t));
  return Atom(atom.predicate(), std::move(args));
}

/// Renames each node's local variables (rule-instance variables not
/// bound by the node's goal) to globally fresh "~f<k>" names. The
/// decider and the linear arm emit proof trees, which deliberately
/// reuse var(Π) across nodes (paper §5.1); the reuse conflates
/// logically distinct variables, so the raw tree's CQ can be covered
/// even when the expansion it stands for is not. Freshening recovers
/// the true expansion (an unfolding), which is what the certificate's
/// homomorphism re-check needs.
ExpansionNode FreshenNode(const ExpansionNode& node,
                          const std::map<std::string, Term>& goal_subst,
                          std::size_t* counter) {
  std::map<std::string, Term> subst = goal_subst;
  auto bind = [&subst, counter](const Term& term) {
    if (!term.is_variable()) return;
    if (subst.emplace(term.name(),
                      Term::Variable(StrCat("~f", *counter)))
            .second) {
      ++(*counter);
    }
  };
  for (const Term& t : node.rule.head().args()) bind(t);
  for (const Atom& atom : node.rule.body()) {
    for (const Term& t : atom.args()) bind(t);
  }
  ExpansionNode fresh;
  fresh.goal = ApplySubst(subst, node.goal);
  std::vector<Atom> body;
  body.reserve(node.rule.body().size());
  for (const Atom& atom : node.rule.body()) {
    body.push_back(ApplySubst(subst, atom));
  }
  fresh.rule = Rule(ApplySubst(subst, node.rule.head()), std::move(body));
  fresh.idb_positions = node.idb_positions;
  fresh.children.reserve(node.children.size());
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    // The child inherits bindings only for its goal's variables; a
    // variable name reappearing below without flowing through the goal
    // is a distinct variable and gets its own fresh name there.
    const Atom& child_goal = node.children[i].goal;
    std::map<std::string, Term> child_subst;
    for (const Term& t : child_goal.args()) {
      if (t.is_variable()) child_subst.emplace(t.name(), ApplySubst(subst, t));
    }
    fresh.children.push_back(
        FreshenNode(node.children[i], child_subst, counter));
  }
  return fresh;
}

ExpansionTree FreshenTree(const ExpansionTree& tree) {
  std::map<std::string, Term> identity;
  for (const Term& t : tree.root().goal.args()) {
    if (t.is_variable()) identity.emplace(t.name(), t);
  }
  std::size_t counter = 0;
  return ExpansionTree(FreshenNode(tree.root(), identity, &counter));
}

Outcome LintInstance(const CorpusInstance& inst) {
  Outcome out;
  std::vector<std::string> slugs;
  auto add = [&slugs](const std::string& slug) {
    if (std::find(slugs.begin(), slugs.end(), slug) == slugs.end()) {
      slugs.push_back(slug);
    }
  };
  for (const Diagnostic& d : LintProgram(inst.program, inst.goal)) {
    if (d.severity == DiagnosticSeverity::kError) {
      add(DiagnosticKindSlug(d.kind));
    }
  }
  if (slugs.empty()) {
    // Θ-side validity the program linter does not know about. Guarded
    // by the lint pass above: no errors means the goal is a known IDB
    // predicate, so its arity is defined.
    if (inst.theta.disjuncts().empty()) {
      add("empty-theta");
    } else {
      const std::size_t goal_arity = inst.program.PredicateArity(inst.goal);
      for (const ConjunctiveQuery& disjunct : inst.theta.disjuncts()) {
        if (disjunct.arity() != goal_arity) {
          add("theta-arity-mismatch");
          break;
        }
      }
    }
  }
  if (!slugs.empty()) {
    Certificate cert = MakeCert(inst.id, CertificateKind::kInvalid);
    cert.errors = std::move(slugs);
    out.certs.push_back(std::move(cert));
    out.add_flags = kFlagInvalid;
  }
  return out;
}

Outcome ForwardInstance(const CorpusInstance& inst,
                        const PipelineOptions& options) {
  Outcome out;
  CanonicalDbWitness witness;
  CanonicalDbOptions db_opts;
  db_opts.eval.num_threads = 1;
  db_opts.eval.limits = InstanceLimits(options);
  db_opts.witness = &witness;
  const std::vector<ConjunctiveQuery>& disjuncts = inst.theta.disjuncts();
  std::size_t failing = 0;
  StatusOr<bool> contained = IsUcqContainedInDatalog(
      inst.theta, inst.program, inst.goal, nullptr, db_opts, &failing);
  if (!contained.ok()) {
    out.status = Annotate(inst.id, contained.status());
    return out;
  }
  if (*contained) {
    // Cross-check doubles as certificate construction: the naive
    // kernel must find a derivation for every disjunct the engine
    // called contained.
    Certificate cert = MakeCert(inst.id, CertificateKind::kForwardContained);
    for (std::size_t d = 0; d < disjuncts.size(); ++d) {
      NaiveFrozenCq frozen = NaiveFreezeCq(inst.goal, disjuncts[d]);
      StatusOr<std::optional<std::vector<DerivationStep>>> steps =
          FindDerivation(inst.program, frozen.facts, frozen.goal_atom,
                         options.naive_max_facts);
      if (!steps.ok()) {
        out.status = Annotate(inst.id, steps.status());
        return out;
      }
      if (!steps->has_value()) {
        out.status = InternalError(StrCat(
            "instance ", inst.id, ": forward stage disagreement: engine "
            "contained disjunct ", d, " but the naive search found no "
            "derivation"));
        return out;
      }
      cert.derivations.push_back(std::move(**steps));
    }
    out.add_flags = kFlagForwardResolved | kFlagForwardContained;
    out.certs.push_back(std::move(cert));
    return out;
  }
  NaiveFrozenCq frozen = NaiveFreezeCq(inst.goal, disjuncts[failing]);
  StatusOr<std::optional<std::vector<DerivationStep>>> steps =
      FindDerivation(inst.program, frozen.facts, frozen.goal_atom,
                     options.naive_max_facts);
  if (!steps.ok()) {
    out.status = Annotate(inst.id, steps.status());
    return out;
  }
  if (steps->has_value()) {
    out.status = InternalError(StrCat(
        "instance ", inst.id, ": forward stage disagreement: engine "
        "refuted disjunct ", failing, " but the naive search derived the "
        "frozen goal"));
    return out;
  }
  Certificate cert = MakeCert(inst.id, CertificateKind::kForwardNotContained);
  cert.failing_disjunct = failing;
  cert.frozen_facts = std::move(witness.facts);
  cert.frozen_goal = std::move(witness.goal_atom);
  out.add_flags = kFlagForwardResolved;
  out.certs.push_back(std::move(cert));
  return out;
}

Outcome LinearInstance(const CorpusInstance& inst,
                       const PipelineOptions& options) {
  Outcome out;
  // The word-automaton arm earns its keep on recursive linear programs
  // (infinite expansion sets). A nonrecursive program is always fully
  // decided by the next stage's complete enumeration, and the arm's
  // automata can be far more expensive than that enumeration — skip.
  if (!IsRecursiveNaive(inst.program)) return out;
  LinearContainmentOptions lopts;
  lopts.limits = InstanceLimits(options)
                     .WithMaxStates(options.linear_max_states)
                     .WithMaxLabels(options.linear_max_labels);
  StatusOr<LinearContainmentResult> result =
      DecideLinearDatalogInUcq(inst.program, inst.goal, inst.theta, lopts);
  if (!result.ok()) {
    // Not linear-in-IDB (InvalidArgument) or over budget: later stages
    // own the instance.
    if (result.status().code() == StatusCode::kInvalidArgument ||
        result.status().code() == StatusCode::kResourceExhausted) {
      return out;
    }
    out.status = Annotate(inst.id, result.status());
    return out;
  }
  if (result->contained) {
    // The word-automaton arm exports no absorption trace, so a
    // contained verdict is a hint the certificate-producing stages
    // must agree with, not a resolution.
    out.add_flags = kFlagLinearContainedHint;
    return out;
  }
  if (!result->counterexample.has_value()) {
    out.status = InternalError(StrCat(
        "instance ", inst.id, ": linear stage refuted without a "
        "counterexample tree"));
    return out;
  }
  Certificate cert = MakeCert(inst.id, CertificateKind::kBackwardNotContained);
  cert.counterexample = FreshenTree(*result->counterexample);
  out.add_flags = kFlagBackwardResolved;
  out.certs.push_back(std::move(cert));
  return out;
}

Outcome UnfoldInstance(const CorpusInstance& inst, std::uint32_t flags) {
  Outcome out;
  if (!IsRecursiveNaive(inst.program)) {
    // Nonrecursive: every expansion has height at most #IDB + 1, so
    // the enumeration below is complete and coverage decides Q_Π ⊆ Θ.
    const int depth =
        static_cast<int>(inst.program.IdbPredicates().size()) + 1;
    StatusOr<ExpansionEnumeration> enumeration = EnumerateExpansionsNaive(
        inst.program, inst.goal, depth, kExpansionNodeBudget);
    if (!enumeration.ok() || !enumeration->complete) return out;
    Certificate cert =
        MakeCert(inst.id, CertificateKind::kBackwardContainedUnfold);
    for (const ExpansionTree& tree : enumeration->trees) {
      ConjunctiveQuery cq = TreeToCq(inst.program, tree);
      std::size_t covering = inst.theta.disjuncts().size();
      for (std::size_t d = 0; d < inst.theta.disjuncts().size(); ++d) {
        if (DisjunctMapsInto(inst.theta.disjuncts()[d], cq)) {
          covering = d;
          break;
        }
      }
      if (covering == inst.theta.disjuncts().size()) {
        if ((flags & kFlagLinearContainedHint) != 0) {
          out.status = InternalError(StrCat(
              "instance ", inst.id, ": unfold stage disagreement: linear "
              "arm said contained but an expansion is uncovered"));
          return out;
        }
        Certificate refutation =
            MakeCert(inst.id, CertificateKind::kBackwardNotContained);
        refutation.counterexample = tree;
        out.certs.push_back(std::move(refutation));
        out.add_flags = kFlagBackwardResolved;
        return out;
      }
      cert.cover.push_back(covering);
    }
    cert.expansion_count = enumeration->trees.size();
    out.certs.push_back(std::move(cert));
    out.add_flags = kFlagBackwardResolved | kFlagBackwardContained;
    return out;
  }
  // Recursive: a shallow probe can only refute — an uncovered
  // enumerated tree is already a complete counterexample expansion.
  StatusOr<ExpansionEnumeration> enumeration = EnumerateExpansionsNaive(
      inst.program, inst.goal, kRecursiveRefutationDepth,
      kExpansionNodeBudget);
  if (!enumeration.ok()) return out;
  for (const ExpansionTree& tree : enumeration->trees) {
    if (UcqCoversCq(inst.theta, TreeToCq(inst.program, tree))) continue;
    if ((flags & kFlagLinearContainedHint) != 0) {
      out.status = InternalError(StrCat(
          "instance ", inst.id, ": unfold stage disagreement: linear arm "
          "said contained but a depth-", kRecursiveRefutationDepth,
          " expansion is uncovered"));
      return out;
    }
    Certificate cert =
        MakeCert(inst.id, CertificateKind::kBackwardNotContained);
    cert.counterexample = tree;
    out.certs.push_back(std::move(cert));
    out.add_flags = kFlagBackwardResolved;
    return out;
  }
  return out;
}

Outcome PtreesInstance(const CorpusInstance& inst, std::uint32_t flags,
                       const PipelineOptions& options) {
  Outcome out;
  ContainmentOptions copts;
  copts.track_witness = true;
  copts.export_trace = true;
  copts.limits =
      InstanceLimits(options).WithMaxStates(options.decider_max_states);
  StatusOr<ContainmentDecision> decision =
      DecideDatalogInUcq(inst.program, inst.goal, inst.theta, copts);
  if (!decision.ok()) {
    out.status = Annotate(inst.id, decision.status());
    return out;
  }
  if (decision->contained) {
    Certificate cert = MakeCert(inst.id, CertificateKind::kBackwardContained);
    cert.trace = std::move(decision->trace);
    out.certs.push_back(std::move(cert));
    out.add_flags = kFlagBackwardResolved | kFlagBackwardContained;
    return out;
  }
  if ((flags & kFlagLinearContainedHint) != 0) {
    out.status = InternalError(StrCat(
        "instance ", inst.id, ": ptrees stage disagreement: linear arm "
        "said contained but the decider refuted"));
    return out;
  }
  if (!decision->counterexample.has_value()) {
    out.status = InternalError(StrCat(
        "instance ", inst.id, ": ptrees stage refuted without a "
        "counterexample tree"));
    return out;
  }
  Certificate cert = MakeCert(inst.id, CertificateKind::kBackwardNotContained);
  cert.counterexample = FreshenTree(*decision->counterexample);
  out.certs.push_back(std::move(cert));
  out.add_flags = kFlagBackwardResolved;
  return out;
}

}  // namespace

StatusOr<PipelineResult> RunCorpusPipeline(
    const std::vector<CorpusInstance>& instances,
    const PipelineOptions& options) {
  std::size_t threads = options.threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  ThreadPool pool(threads);
  PipelineResult result;
  result.flags.assign(instances.size(), 0);

  // The run-wide governor is polled between stages; per-instance work
  // inherits the same limits (narrowed by instance_deadline_ms), so
  // cancellation and the run deadline are also observed inside stages.
  Governor governor(options.limits, "corpus pipeline");

  DATALOG_RETURN_IF_ERROR(governor.Poll());
  Status s = RunStage(
      "lint", instances, options.limits, &result.flags, &pool,
      [](const CorpusInstance& inst, std::uint32_t) {
        return LintInstance(inst);
      },
      &result.stages);
  if (!s.ok()) return s;

  DATALOG_RETURN_IF_ERROR(governor.Poll());
  s = RunStage(
      "forward", instances, options.limits, &result.flags, &pool,
      [&options](const CorpusInstance& inst, std::uint32_t) {
        return ForwardInstance(inst, options);
      },
      &result.stages);
  if (!s.ok()) return s;

  DATALOG_RETURN_IF_ERROR(governor.Poll());
  s = RunStage(
      "linear", instances, options.limits, &result.flags, &pool,
      [&options](const CorpusInstance& inst, std::uint32_t) {
        return LinearInstance(inst, options);
      },
      &result.stages);
  if (!s.ok()) return s;

  DATALOG_RETURN_IF_ERROR(governor.Poll());
  s = RunStage(
      "unfold", instances, options.limits, &result.flags, &pool,
      [](const CorpusInstance& inst, std::uint32_t flags) {
        return UnfoldInstance(inst, flags);
      },
      &result.stages);
  if (!s.ok()) return s;

  DATALOG_RETURN_IF_ERROR(governor.Poll());
  s = RunStage(
      "ptrees", instances, options.limits, &result.flags, &pool,
      [&options](const CorpusInstance& inst, std::uint32_t flags) {
        return PtreesInstance(inst, flags, options);
      },
      &result.stages);
  if (!s.ok()) return s;

  for (std::size_t i = 0; i < instances.size(); ++i) {
    const std::uint32_t f = result.flags[i];
    if (!InstanceResolved(f)) {
      return Status(StatusCode::kInternal,
                    StrCat("instance ", instances[i].id,
                           ": unresolved after the last stage"));
    }
    if ((f & kFlagInvalid) != 0) {
      ++result.invalid;
    } else if ((f & kFlagTimedOut) != 0) {
      ++result.timed_out;
    } else if ((f & kFlagForwardContained) != 0 &&
               (f & kFlagBackwardContained) != 0) {
      ++result.equivalent;
    } else if ((f & kFlagForwardContained) != 0) {
      ++result.forward_only;
    } else if ((f & kFlagBackwardContained) != 0) {
      ++result.backward_only;
    } else {
      ++result.incomparable;
    }
  }
  return result;
}

}  // namespace corpus
}  // namespace datalog

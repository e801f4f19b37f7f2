// The unified resource governor: one vocabulary for bounding, cancelling,
// and fault-injecting every long-running procedure in the stack.
//
// Chaudhuri–Vardi containment is 2EXPTIME-hard (the src/tm reduction
// realizes exactly that blowup), so every fixpoint, automaton
// construction, and containment check here must be able to stop early and
// say why. Three cooperating pieces:
//
//   - `ExecutionLimits`: a value type naming every bound a caller can set
//     (wall-clock deadline, derivation-step budget, per-procedure size
//     caps) plus non-owning pointers to a shared `CancelToken` and an
//     optional `FaultInjector`. Options structs across the stack embed one
//     of these instead of growing ad-hoc cap fields.
//   - `CancelToken`: a shared atomic flag. One token can govern an engine
//     fixpoint, a decider run, and a corpus pipeline at once; flipping it
//     makes every poll site below return kCancelled.
//   - `Governor`: the per-procedure poll object. Long-running loops call
//     `Poll()` at deterministic task boundaries (round starts, queue pops,
//     every-Nth emission) and propagate any non-OK Status outward as a
//     clean partial-result error.
//
// The poll-point contract (see docs/robustness.md): a procedure that takes
// an `ExecutionLimits` must call `Poll()` often enough that cancellation
// and deadline are observed within one bounded unit of work, must poll at
// *deterministic* points (so the seeded `FaultInjector` can fire at the
// Nth poll reproducibly), and must surface the governor's Status without
// rewriting its code. Stats accumulated before the interruption are still
// reported — interruption degrades to a partial result, never to torn
// state.
#ifndef DATALOG_EQ_SRC_UTIL_GOVERNOR_H_
#define DATALOG_EQ_SRC_UTIL_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "src/util/status.h"

namespace datalog {

/// A shared cancellation flag. Cancel() may be called from any thread
/// (including a signal-adjacent watchdog); cancelled() is an acquire load
/// cheap enough for inner loops.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }
  /// Re-arms the token for a fresh run (tests re-use one token across
  /// sweep iterations).
  void Reset() { cancelled_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Deterministic fault injection for the poll-point sweep harness. A
/// configured fault fires exactly once, at the Nth `Poll()` across all
/// threads sharing the injector (the counter is a single atomic
/// fetch-add, so under serial execution the firing site is fully
/// deterministic; under parallel execution exactly one task observes it).
class FaultInjector {
 public:
  enum class Fault {
    kNone = 0,
    /// Poll() returns kCancelled (and trips the shared CancelToken, if
    /// any, so sibling workers stop too).
    kCancel,
    /// Poll() returns kResourceExhausted, as if a budget ran out.
    kExhaust,
    /// Poll() returns kDeadlineExceeded, as if the deadline passed.
    kDeadline,
  };

  FaultInjector() = default;
  FaultInjector(Fault fault, std::uint64_t fire_at_poll)
      : fault_(fault), fire_at_poll_(fire_at_poll) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Called by Governor::Poll. Returns the configured fault on the
  /// `fire_at_poll`-th call (1-based), kNone otherwise.
  Fault OnPoll() {
    std::uint64_t n = polls_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (fault_ != Fault::kNone && n == fire_at_poll_) return fault_;
    return Fault::kNone;
  }

  /// Total polls observed so far — the sweep harness runs once with
  /// Fault::kNone to learn the poll count, then iterates fire_at_poll
  /// over [1, polls()].
  std::uint64_t polls() const {
    return polls_.load(std::memory_order_relaxed);
  }

  void Reset(Fault fault, std::uint64_t fire_at_poll) {
    fault_ = fault;
    fire_at_poll_ = fire_at_poll;
    polls_.store(0, std::memory_order_relaxed);
  }

  // Reader faults for the binary corpus format, applied by
  // CorpusReader::FromBytes before any validation. Plain configuration
  // (set before the run, like Reset), not poll-triggered — they model
  // I/O-level damage rather than mid-computation interruption.

  /// Short read: FromBytes sees only the first `n` bytes of the image.
  void TruncateReadsTo(std::uint64_t n) { truncate_to_ = n; }
  /// Corruption: the byte at `offset` arrives with all bits flipped.
  void FlipByteAt(std::uint64_t offset) { flip_byte_ = offset; }

  /// Applies the configured reader faults to a file image. Faults past
  /// the end of the image are no-ops.
  void ApplyReaderFaults(std::string* bytes) const {
    if (truncate_to_.has_value() && *truncate_to_ < bytes->size()) {
      bytes->resize(static_cast<std::size_t>(*truncate_to_));
    }
    if (flip_byte_.has_value() && *flip_byte_ < bytes->size()) {
      const auto at = static_cast<std::size_t>(*flip_byte_);
      (*bytes)[at] = static_cast<char>(~(*bytes)[at]);
    }
  }

 private:
  Fault fault_ = Fault::kNone;
  std::uint64_t fire_at_poll_ = 0;
  std::atomic<std::uint64_t> polls_{0};
  std::optional<std::uint64_t> truncate_to_;
  std::optional<std::uint64_t> flip_byte_;
};

/// Every bound a caller can place on a governed procedure. Value
/// semantics: copy freely, pass by const reference. The pointers are
/// non-owning and may be null; a default-constructed ExecutionLimits
/// imposes no deadline and no cancellation, only whatever size caps the
/// embedding options struct defaulted.
///
/// Size-cap convention: 0 means "use the procedure's default"; the
/// procedure-facing accessors below resolve 0 against the default the
/// caller passes in. This keeps one struct serving components whose
/// natural defaults differ by orders of magnitude (engine facts vs
/// automaton states).
struct ExecutionLimits {
  /// Absolute wall-clock deadline; unset = unlimited.
  std::optional<std::chrono::steady_clock::time_point> deadline;

  /// Derivation-step budget: an abstract unit of work charged by the
  /// procedure (engine: emitted facts; decider: processed instances;
  /// automata: explored states/pairs). 0 = unlimited.
  std::uint64_t max_steps = 0;

  // Per-procedure size caps, 0 = procedure default (`max_facts` counts
  // the engine's head-tuple emissions, duplicates included). These
  // subsume the pre-governor ad-hoc fields (EvalOptions::max_derived_facts,
  // ContainmentOptions::max_states, BuildProgramAlphabet's max_labels,
  // NFA/NFTA max_explored, ThetaAutomatonLimits).
  std::uint64_t max_facts = 0;
  std::uint64_t max_states = 0;
  std::uint64_t max_labels = 0;
  std::uint64_t max_transitions = 0;
  std::uint64_t max_explored = 0;

  /// Shared cancellation flag; non-owning, may be null.
  CancelToken* cancel = nullptr;
  /// Deterministic fault injection; non-owning, may be null.
  FaultInjector* fault = nullptr;

  /// Resolves a 0-defaulted cap against the procedure's own default.
  std::uint64_t FactsOr(std::uint64_t dflt) const {
    return max_facts == 0 ? dflt : max_facts;
  }
  std::uint64_t StatesOr(std::uint64_t dflt) const {
    return max_states == 0 ? dflt : max_states;
  }
  std::uint64_t LabelsOr(std::uint64_t dflt) const {
    return max_labels == 0 ? dflt : max_labels;
  }
  std::uint64_t TransitionsOr(std::uint64_t dflt) const {
    return max_transitions == 0 ? dflt : max_transitions;
  }
  std::uint64_t ExploredOr(std::uint64_t dflt) const {
    return max_explored == 0 ? dflt : max_explored;
  }

  // Fluent setters (C++17 — no designated initializers), so call sites
  // read as one expression:
  //   opts.limits = ExecutionLimits().WithDeadlineIn(250).WithCancel(&tok);
  ExecutionLimits WithDeadline(
      std::chrono::steady_clock::time_point when) const {
    ExecutionLimits out = *this;
    out.deadline = when;
    return out;
  }
  ExecutionLimits WithDeadlineIn(std::int64_t millis) const {
    return WithDeadline(std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(millis));
  }
  ExecutionLimits WithMaxSteps(std::uint64_t n) const {
    ExecutionLimits out = *this;
    out.max_steps = n;
    return out;
  }
  ExecutionLimits WithMaxFacts(std::uint64_t n) const {
    ExecutionLimits out = *this;
    out.max_facts = n;
    return out;
  }
  ExecutionLimits WithMaxStates(std::uint64_t n) const {
    ExecutionLimits out = *this;
    out.max_states = n;
    return out;
  }
  ExecutionLimits WithMaxLabels(std::uint64_t n) const {
    ExecutionLimits out = *this;
    out.max_labels = n;
    return out;
  }
  ExecutionLimits WithMaxTransitions(std::uint64_t n) const {
    ExecutionLimits out = *this;
    out.max_transitions = n;
    return out;
  }
  ExecutionLimits WithMaxExplored(std::uint64_t n) const {
    ExecutionLimits out = *this;
    out.max_explored = n;
    return out;
  }
  ExecutionLimits WithCancel(CancelToken* token) const {
    ExecutionLimits out = *this;
    out.cancel = token;
    return out;
  }
  ExecutionLimits WithFault(FaultInjector* injector) const {
    ExecutionLimits out = *this;
    out.fault = injector;
    return out;
  }
};

/// The per-procedure poll object. Cheap to construct (copies nothing,
/// holds a reference); construct one per governed call, name the
/// procedure for error messages, and call Poll()/ChargeSteps() at the
/// loop's deterministic boundaries.
///
/// Thread use: one Governor may be polled from many workers (the parallel
/// engine's tasks all poll the round's governor) — Poll() and
/// ChargeSteps() are thread-safe. The step counter is a relaxed atomic;
/// the budget check is best-effort exact at poll granularity.
class Governor {
 public:
  Governor(const ExecutionLimits& limits, const char* procedure)
      : limits_(limits), procedure_(procedure) {}
  Governor(const Governor&) = delete;
  Governor& operator=(const Governor&) = delete;

  /// The poll point: fault injector first (so injected faults shadow
  /// real ones deterministically), then cancellation, then deadline.
  /// Returns OK to continue.
  Status Poll();

  /// Charges `n` units against the step budget and polls. Returns
  /// kResourceExhausted once the budget is exceeded.
  Status ChargeSteps(std::uint64_t n);

  std::uint64_t steps() const {
    return steps_.load(std::memory_order_relaxed);
  }

  const ExecutionLimits& limits() const { return limits_; }

 private:
  const ExecutionLimits& limits_;
  const char* procedure_;
  std::atomic<std::uint64_t> steps_{0};
};

}  // namespace datalog

#endif  // DATALOG_EQ_SRC_UTIL_GOVERNOR_H_

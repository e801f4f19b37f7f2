// Compact binary corpus format for batches of containment instances.
//
// A corpus file holds many (program, goal, Θ) instances — the unit the
// staged decider pipeline (pipeline.h) consumes and re-emits as stage
// holdouts. The encoding follows the repo's IR conventions rather than
// the text syntax: one shared name dictionary up front, then flat atom
// spans of fixed-width little-endian integers, so a reader can validate
// the whole file structurally (every name id bounds-checked, every
// record length walked) before decoding a single instance, and a seeded
// writer produces byte-identical files across runs.
//
// Layout (all integers little-endian):
//
//   u32 magic            'DLCQ' (0x51434c44)
//   u32 version          1
//   u64 instance_count
//   u32 name_count
//   u32 reserved         0
//   name_count x (u32 byte_length + bytes)      shared name dictionary
//   instance_count x instance record
//   u64 checksum         FNV-1a 64 over every preceding byte
//
// Instance record:
//
//   u64 id
//   u32 flags            kFlag* bits below
//   u32 goal             name id of the goal predicate
//   u32 num_rules
//   per rule:     u32 body_count, head atom, body_count x atom
//   u32 num_disjuncts
//   per disjunct: u32 head_arity, head_arity x term,
//                 u32 body_count, body_count x atom
//
// Atom span: u32 predicate name id, u32 arity, arity x term.
// Term: u32 with bit 0 the variable tag — (name_id << 1) | is_variable.
// Every predicate and goal name must be one the parser reads as a
// predicate (IsPredicateName, src/ast/parser.h); the reader refuses any
// other, so no instance can name an auxiliary relation such as
// `__domain`.
//
// The dictionary is written in first-use order, which is itself a
// function of instance order, so round-tripping a file through
// CorpusReader + CorpusWriter reproduces it bit-identically
// (tests/corpus_format_test.cc pins this).
#ifndef DATALOG_EQ_SRC_CORPUS_FORMAT_H_
#define DATALOG_EQ_SRC_CORPUS_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ast/rule.h"
#include "src/cq/cq.h"
#include "src/util/governor.h"
#include "src/util/status.h"

namespace datalog {
namespace corpus {

inline constexpr std::uint32_t kCorpusMagic = 0x51434c44u;  // 'DLCQ'
inline constexpr std::uint32_t kCorpusVersion = 1;

/// Pipeline progress bits carried per instance (see docs/corpus.md,
/// "Stage contract"). A stage may set bits, never clear them.
inline constexpr std::uint32_t kFlagForwardResolved = 1u << 0;
inline constexpr std::uint32_t kFlagForwardContained = 1u << 1;
inline constexpr std::uint32_t kFlagBackwardResolved = 1u << 2;
inline constexpr std::uint32_t kFlagBackwardContained = 1u << 3;
/// The linear arm decided "contained" — recorded as a hint only (the
/// ptrees arm must re-derive it; a disagreement is a pipeline error).
inline constexpr std::uint32_t kFlagLinearContainedHint = 1u << 4;
/// The lint stage found error-severity diagnostics; no decider runs.
inline constexpr std::uint32_t kFlagInvalid = 1u << 5;
/// A stage's per-instance deadline expired before a verdict; the
/// instance leaves the pipeline with a `timeout` certificate pinning
/// the stage that gave up (no decider verdict is recorded).
inline constexpr std::uint32_t kFlagTimedOut = 1u << 6;

/// One corpus entry: decide Q_Π(goal) vs Θ in both directions.
struct CorpusInstance {
  std::uint64_t id = 0;
  std::uint32_t flags = 0;
  Program program;
  std::string goal;
  UnionOfCqs theta;
};

/// True when the pipeline owes no further work on `flags` (both
/// directions resolved, or the instance is invalid or timed out).
inline bool InstanceResolved(std::uint32_t flags) {
  if ((flags & (kFlagInvalid | kFlagTimedOut)) != 0) return true;
  return (flags & kFlagForwardResolved) != 0 &&
         (flags & kFlagBackwardResolved) != 0;
}

/// FNV-1a 64-bit over `data` — the corpus trailer checksum.
std::uint64_t Fnv1a64(const std::string& data);

/// Buffers instances and serializes them into the corpus layout.
/// Deterministic: the dictionary is populated in first-use order, so
/// equal Add sequences produce equal bytes.
class CorpusWriter {
 public:
  void Add(const CorpusInstance& instance);

  std::size_t size() const { return count_; }

  /// The complete file image (header + dictionary + records + checksum).
  std::string Serialize() const;

  Status WriteFile(const std::string& path) const;

 private:
  std::uint32_t NameId(const std::string& name);
  void PutAtom(const Atom& atom);
  void PutTerm(const Term& term);

  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> name_ids_;
  std::string records_;
  std::uint64_t count_ = 0;
};

/// Validating reader. Open/FromBytes walk the entire file once —
/// header, dictionary, every record span, checksum — and reject
/// truncated or corrupted input with a diagnostic Status before any
/// instance is decodable; Decode then re-walks one pre-validated record.
///
/// A non-null `fault` injects I/O-level damage (short read, byte flip —
/// FaultInjector::ApplyReaderFaults) into the image before validation;
/// the fault-injection tests use it to pin that every corruption
/// surfaces as a diagnostic Status, never as a crash or a bad decode.
class CorpusReader {
 public:
  static StatusOr<CorpusReader> FromBytes(std::string bytes,
                                          FaultInjector* fault = nullptr);
  static StatusOr<CorpusReader> Open(const std::string& path,
                                     FaultInjector* fault = nullptr);

  std::size_t size() const { return offsets_.size(); }
  const std::vector<std::string>& names() const { return names_; }

  StatusOr<CorpusInstance> Decode(std::size_t index) const;

  /// Decodes every instance in file order.
  StatusOr<std::vector<CorpusInstance>> DecodeAll() const;

 private:
  CorpusReader() = default;

  std::string bytes_;
  std::vector<std::string> names_;
  std::vector<std::size_t> offsets_;  // record start offsets, file order
};

}  // namespace corpus
}  // namespace datalog

#endif  // DATALOG_EQ_SRC_CORPUS_FORMAT_H_

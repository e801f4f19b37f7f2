// Word-parallel dynamic bitsets and the antichain store built on them.
//
// The containment machinery is dominated by set operations over dense-id
// universes: automata state sets (subset construction frontiers, the
// product sets of Nfa/Nfta::Contains) and the decider's achieved sets
// (interned achieved-pair ids). Bitset is the shared representation: a
// small-size-optimized dynamic bitset — one inline 64-bit word for
// universes up to 64 ids, a heap word array beyond — whose kernels
// (Union/Intersect/IsSubsetOf/Any/Count/Hash) each touch whole words, so
// a subset test over a 256-id universe is four AND-NOT words instead of a
// sorted-vector merge.
//
// AntichainStore keeps only the ⊆-minimal (or ⊆-maximal) sets of a
// family, the invariant all three containment fixpoints maintain per
// state slot. Entries are bucketed by popcount and carry a 64-bit OR-fold
// signature (the OR of all words), giving two necessary conditions per
// probe before any word scan runs: a stored set can only be a subset of
// the candidate if its popcount is no larger and if its fold has no bit
// outside the candidate's fold. Insert-and-prune therefore scans only
// the plausible buckets, not the whole family.
#ifndef DATALOG_EQ_SRC_UTIL_BITSET_H_
#define DATALOG_EQ_SRC_UTIL_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace datalog {

class Bitset {
 public:
  Bitset() = default;
  /// All-zero bitset with capacity for bits [0, num_bits).
  explicit Bitset(std::size_t num_bits);
  Bitset(const Bitset& other);
  Bitset(Bitset&& other) noexcept;
  Bitset& operator=(const Bitset& other);
  Bitset& operator=(Bitset&& other) noexcept;
  ~Bitset();

  /// Capacity in bits. Two bitsets of different capacity are comparable:
  /// every kernel treats bits past a set's capacity as zero, so equality,
  /// subset, and hashing depend only on which bits are set.
  std::size_t num_bits() const { return num_bits_; }
  std::size_t num_words() const { return num_words_; }

  /// Grows capacity to at least `num_bits`, keeping set bits. Never
  /// shrinks.
  void Reserve(std::size_t num_bits);

  /// Sets bit `i`, growing capacity as needed (the decider's pair ids are
  /// allocated monotonically, so sets near the frontier grow in place).
  void Set(std::size_t i);
  /// Clears bit `i` (no-op past capacity).
  void Reset(std::size_t i);
  bool Test(std::size_t i) const {
    return i < num_bits_ &&
           (data()[i / kBitsPerWord] >> (i % kBitsPerWord) & 1u) != 0;
  }
  /// Clears every bit, keeping capacity.
  void Clear();

  bool Any() const;
  bool None() const { return !Any(); }
  /// Number of set bits (one popcount per word).
  std::size_t Count() const;

  /// this |= other (grows to other's capacity).
  void UnionWith(const Bitset& other);
  /// this &= other (words past other's capacity become zero).
  void IntersectWith(const Bitset& other);
  /// True when this ∩ other ≠ ∅.
  bool Intersects(const Bitset& other) const;
  /// True when every set bit of this is set in other: per word,
  /// a & ~b == 0. Each word examined increments *word_ops when non-null
  /// (surfaced as ContainmentStats::subset_word_ops).
  bool IsSubsetOf(const Bitset& other, std::size_t* word_ops = nullptr) const;

  /// OR of all words: a 64-bit signature with a ⊆ b ⟹
  /// (Fold(a) & ~Fold(b)) == 0, the AntichainStore's probe filter.
  std::uint64_t Fold() const;
  /// Capacity-independent hash (trailing zero words are ignored), so
  /// equal sets hash equal even when grown differently.
  std::size_t Hash() const;

  bool operator==(const Bitset& other) const;
  bool operator!=(const Bitset& other) const { return !(*this == other); }

  /// Calls fn(i) for every set bit i, in increasing order.
  template <typename Fn>
  void ForEachSetBit(Fn fn) const {
    const std::uint64_t* words = data();
    for (std::size_t w = 0; w < num_words_; ++w) {
      std::uint64_t word = words[w];
      while (word != 0) {
        std::size_t bit = static_cast<std::size_t>(__builtin_ctzll(word));
        fn(w * kBitsPerWord + bit);
        word &= word - 1;
      }
    }
  }

  /// The set bits as a sorted vector (decoding/debugging).
  std::vector<std::size_t> ToVector() const;

  const std::uint64_t* data() const {
    return num_words_ <= 1 ? &inline_word_ : heap_;
  }

 private:
  static constexpr std::size_t kBitsPerWord = 64;
  static std::size_t WordsFor(std::size_t num_bits) {
    return num_bits <= kBitsPerWord
               ? 1
               : (num_bits + kBitsPerWord - 1) / kBitsPerWord;
  }
  std::uint64_t* data() { return num_words_ <= 1 ? &inline_word_ : heap_; }
  std::uint64_t WordOrZero(std::size_t w) const {
    return w < num_words_ ? data()[w] : 0;
  }

  std::size_t num_bits_ = 0;
  // Storage: one inline word while capacity fits 64 bits, a heap array
  // beyond (the small-size optimization — automata frontiers and most
  // achieved sets stay inline).
  std::size_t num_words_ = 1;
  union {
    std::uint64_t inline_word_ = 0;
    std::uint64_t* heap_;
  };
};

struct BitsetHash {
  std::size_t operator()(const Bitset& set) const { return set.Hash(); }
};

/// Maintains a family of Bitsets closed under dominance pruning: in
/// kKeepMinimal mode only ⊆-minimal sets survive (a candidate with some
/// stored subset is rejected; stored supersets of an accepted candidate
/// are pruned), kKeepMaximal is the mirror image, and kExact keeps every
/// distinct set (dominance = equality — the exact, non-antichain modes).
/// Each entry carries a caller payload (e.g. a state serial) so the
/// caller can mirror prunes into its own parallel structures.
///
/// The index is a popcount-bucket directory with per-entry OR-fold
/// signatures: a subset probe visits only buckets whose popcount does not
/// exceed the candidate's and runs the word scan only when the fold
/// filter passes, so insert-and-prune is sub-quadratic on the families
/// the fixpoints produce.
class AntichainStore {
 public:
  enum class Mode { kKeepMinimal, kKeepMaximal, kExact };

  /// Cumulative probe counters, for surfacing into ContainmentStats.
  struct Stats {
    /// Candidate-vs-stored pairs considered (popcount-plausible ones).
    std::size_t subset_checks = 0;
    /// Pairs rejected by the fold signature alone (no word scan).
    std::size_t fold_rejects = 0;
    /// Words examined by full subset/equality scans.
    std::size_t word_ops = 0;
    /// Stored entries removed because an inserted candidate dominated
    /// them.
    std::size_t prunes = 0;
  };

  AntichainStore() = default;
  explicit AntichainStore(Mode mode) : mode_(mode) {}

  Mode mode() const { return mode_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Stats& stats() const { return stats_; }

  /// True when a stored set dominates `set` (kKeepMinimal: some stored
  /// subset exists; kKeepMaximal: some stored superset; kExact: the set
  /// itself is stored). Read-only probe for callers that must not insert
  /// yet (e.g. successor filtering before enqueue).
  bool Dominated(const Bitset& set) const;

  /// Inserts `set` unless dominated. Returns false (store unchanged)
  /// when a stored set dominates it; otherwise removes every stored set
  /// the candidate dominates — appending their payloads to `pruned` when
  /// non-null — stores (set, payload), and returns true. The set is
  /// copied (or, passed as an rvalue, moved) only when it is stored, so a
  /// rejected candidate costs no allocation.
  bool Insert(const Bitset& set, std::uint64_t payload,
              std::vector<std::uint64_t>* pruned = nullptr);
  bool Insert(Bitset&& set, std::uint64_t payload,
              std::vector<std::uint64_t>* pruned = nullptr);

  /// Calls fn(set, payload) for every stored entry (bucket order).
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const std::vector<Entry>& bucket : buckets_) {
      for (const Entry& entry : bucket) fn(entry.set, entry.payload);
    }
  }

 private:
  struct Entry {
    Bitset set;
    std::uint64_t payload = 0;
    std::uint64_t fold = 0;
  };

  // Dominated, given the candidate's fold and popcount.
  bool Dominated(const Bitset& set, std::uint64_t fold,
                 std::size_t count) const;
  // Both Inserts: `Set` is const Bitset& or Bitset.
  template <typename Set>
  bool InsertImpl(Set&& set, std::uint64_t payload,
                  std::vector<std::uint64_t>* pruned);

  Mode mode_ = Mode::kKeepMinimal;
  std::vector<std::vector<Entry>> buckets_;  // indexed by popcount
  std::size_t size_ = 0;
  mutable Stats stats_;
};

}  // namespace datalog

#endif  // DATALOG_EQ_SRC_UTIL_BITSET_H_

#include "src/util/bitset.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace datalog {

Bitset::Bitset(std::size_t num_bits) : num_bits_(num_bits) {
  num_words_ = WordsFor(num_bits);
  if (num_words_ <= 1) {
    inline_word_ = 0;
  } else {
    heap_ = new std::uint64_t[num_words_]();
  }
}

Bitset::Bitset(const Bitset& other)
    : num_bits_(other.num_bits_), num_words_(other.num_words_) {
  if (num_words_ <= 1) {
    inline_word_ = other.inline_word_;
  } else {
    heap_ = new std::uint64_t[num_words_];
    std::memcpy(heap_, other.heap_, num_words_ * sizeof(std::uint64_t));
  }
}

Bitset::Bitset(Bitset&& other) noexcept
    : num_bits_(other.num_bits_), num_words_(other.num_words_) {
  if (num_words_ <= 1) {
    inline_word_ = other.inline_word_;
  } else {
    heap_ = other.heap_;
    other.num_bits_ = 0;
    other.num_words_ = 1;
    other.inline_word_ = 0;
  }
}

Bitset& Bitset::operator=(const Bitset& other) {
  if (this == &other) return *this;
  if (num_words_ > 1) delete[] heap_;
  num_bits_ = other.num_bits_;
  num_words_ = other.num_words_;
  if (num_words_ <= 1) {
    inline_word_ = other.inline_word_;
  } else {
    heap_ = new std::uint64_t[num_words_];
    std::memcpy(heap_, other.heap_, num_words_ * sizeof(std::uint64_t));
  }
  return *this;
}

Bitset& Bitset::operator=(Bitset&& other) noexcept {
  if (this == &other) return *this;
  if (num_words_ > 1) delete[] heap_;
  num_bits_ = other.num_bits_;
  num_words_ = other.num_words_;
  if (num_words_ <= 1) {
    inline_word_ = other.inline_word_;
  } else {
    heap_ = other.heap_;
    other.num_bits_ = 0;
    other.num_words_ = 1;
    other.inline_word_ = 0;
  }
  return *this;
}

Bitset::~Bitset() {
  if (num_words_ > 1) delete[] heap_;
}

void Bitset::Reserve(std::size_t num_bits) {
  if (num_bits <= num_bits_) {
    // Capacity in words may already cover the request (e.g. 65 -> 70
    // bits); only the logical capacity needs updating.
    return;
  }
  std::size_t words = WordsFor(num_bits);
  if (words <= num_words_) {
    num_bits_ = num_bits;
    return;
  }
  std::uint64_t* grown = new std::uint64_t[words]();
  std::memcpy(grown, data(), num_words_ * sizeof(std::uint64_t));
  if (num_words_ > 1) delete[] heap_;
  heap_ = grown;
  num_words_ = words;
  num_bits_ = num_bits;
}

void Bitset::Set(std::size_t i) {
  if (i >= num_bits_) Reserve(i + 1);
  data()[i / kBitsPerWord] |= std::uint64_t{1} << (i % kBitsPerWord);
}

void Bitset::Reset(std::size_t i) {
  if (i >= num_bits_) return;
  data()[i / kBitsPerWord] &= ~(std::uint64_t{1} << (i % kBitsPerWord));
}

void Bitset::Clear() {
  std::uint64_t* words = data();
  for (std::size_t w = 0; w < num_words_; ++w) words[w] = 0;
}

bool Bitset::Any() const {
  const std::uint64_t* words = data();
  for (std::size_t w = 0; w < num_words_; ++w) {
    if (words[w] != 0) return true;
  }
  return false;
}

std::size_t Bitset::Count() const {
  const std::uint64_t* words = data();
  std::size_t total = 0;
  for (std::size_t w = 0; w < num_words_; ++w) {
    total += static_cast<std::size_t>(__builtin_popcountll(words[w]));
  }
  return total;
}

void Bitset::UnionWith(const Bitset& other) {
  if (other.num_bits_ > num_bits_) Reserve(other.num_bits_);
  std::uint64_t* words = data();
  const std::uint64_t* other_words = other.data();
  std::size_t common = std::min(num_words_, other.num_words_);
  for (std::size_t w = 0; w < common; ++w) words[w] |= other_words[w];
}

void Bitset::IntersectWith(const Bitset& other) {
  std::uint64_t* words = data();
  const std::uint64_t* other_words = other.data();
  for (std::size_t w = 0; w < num_words_; ++w) {
    words[w] &= w < other.num_words_ ? other_words[w] : 0;
  }
}

bool Bitset::Intersects(const Bitset& other) const {
  const std::uint64_t* words = data();
  const std::uint64_t* other_words = other.data();
  std::size_t common = std::min(num_words_, other.num_words_);
  for (std::size_t w = 0; w < common; ++w) {
    if ((words[w] & other_words[w]) != 0) return true;
  }
  return false;
}

bool Bitset::IsSubsetOf(const Bitset& other, std::size_t* word_ops) const {
  const std::uint64_t* words = data();
  for (std::size_t w = 0; w < num_words_; ++w) {
    if (word_ops != nullptr) ++*word_ops;
    if ((words[w] & ~other.WordOrZero(w)) != 0) return false;
  }
  return true;
}

std::uint64_t Bitset::Fold() const {
  const std::uint64_t* words = data();
  std::uint64_t fold = 0;
  for (std::size_t w = 0; w < num_words_; ++w) fold |= words[w];
  return fold;
}

std::size_t Bitset::Hash() const {
  // FNV-1a over words up to the last nonzero one, finished with a strong
  // mix (the flat tables' recipe) — capacity-independent by construction.
  const std::uint64_t* words = data();
  std::size_t last = num_words_;
  while (last > 0 && words[last - 1] == 0) --last;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t w = 0; w < last; ++w) {
    h = (h ^ words[w]) * 0x100000001b3ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<std::size_t>(h);
}

bool Bitset::operator==(const Bitset& other) const {
  std::size_t common = std::max(num_words_, other.num_words_);
  for (std::size_t w = 0; w < common; ++w) {
    if (WordOrZero(w) != other.WordOrZero(w)) return false;
  }
  return true;
}

std::vector<std::size_t> Bitset::ToVector() const {
  std::vector<std::size_t> out;
  ForEachSetBit([&out](std::size_t i) { out.push_back(i); });
  return out;
}

namespace {

// a ⊆ b is only possible when fold(a) has no bit outside fold(b).
inline bool FoldMaySubset(std::uint64_t fold_a, std::uint64_t fold_b) {
  return (fold_a & ~fold_b) == 0;
}

}  // namespace

bool AntichainStore::Dominated(const Bitset& set) const {
  return Dominated(set, set.Fold(), set.Count());
}

bool AntichainStore::Dominated(const Bitset& set, std::uint64_t fold,
                               std::size_t count) const {
  if (mode_ == Mode::kExact) {
    if (count >= buckets_.size()) return false;
    for (const Entry& entry : buckets_[count]) {
      ++stats_.subset_checks;
      if (entry.fold != fold) {
        ++stats_.fold_rejects;
        continue;
      }
      std::size_t before = stats_.word_ops;
      stats_.word_ops = before + std::max(entry.set.num_words(),
                                          set.num_words());
      if (entry.set == set) return true;
    }
    return false;
  }
  if (mode_ == Mode::kKeepMinimal) {
    // Dominating entries are subsets: popcount <= count, fold ⊆ fold.
    std::size_t top = std::min(count + 1, buckets_.size());
    for (std::size_t c = 0; c < top; ++c) {
      for (const Entry& entry : buckets_[c]) {
        ++stats_.subset_checks;
        if (!FoldMaySubset(entry.fold, fold)) {
          ++stats_.fold_rejects;
          continue;
        }
        if (entry.set.IsSubsetOf(set, &stats_.word_ops)) return true;
      }
    }
    return false;
  }
  // kKeepMaximal: dominating entries are supersets.
  for (std::size_t c = count; c < buckets_.size(); ++c) {
    for (const Entry& entry : buckets_[c]) {
      ++stats_.subset_checks;
      if (!FoldMaySubset(fold, entry.fold)) {
        ++stats_.fold_rejects;
        continue;
      }
      if (set.IsSubsetOf(entry.set, &stats_.word_ops)) return true;
    }
  }
  return false;
}

bool AntichainStore::Insert(const Bitset& set, std::uint64_t payload,
                            std::vector<std::uint64_t>* pruned) {
  return InsertImpl(set, payload, pruned);
}

bool AntichainStore::Insert(Bitset&& set, std::uint64_t payload,
                            std::vector<std::uint64_t>* pruned) {
  return InsertImpl(std::move(set), payload, pruned);
}

template <typename Set>
bool AntichainStore::InsertImpl(Set&& set, std::uint64_t payload,
                                std::vector<std::uint64_t>* pruned) {
  const std::uint64_t fold = set.Fold();
  const std::size_t count = set.Count();
  if (Dominated(set, fold, count)) return false;
  if (mode_ != Mode::kExact) {
    // Remove every stored set the candidate dominates. kKeepMinimal
    // prunes supersets (popcount >= count); kKeepMaximal prunes subsets.
    // Equal sets cannot appear here — they would have dominated the
    // candidate above.
    std::size_t from = mode_ == Mode::kKeepMinimal ? count : 0;
    std::size_t to = mode_ == Mode::kKeepMinimal
                         ? buckets_.size()
                         : std::min(count + 1, buckets_.size());
    for (std::size_t c = from; c < to; ++c) {
      std::vector<Entry>& bucket = buckets_[c];
      for (std::size_t i = 0; i < bucket.size();) {
        Entry& entry = bucket[i];
        ++stats_.subset_checks;
        bool dominates;
        if (mode_ == Mode::kKeepMinimal) {
          dominates = FoldMaySubset(fold, entry.fold)
                          ? set.IsSubsetOf(entry.set, &stats_.word_ops)
                          : (++stats_.fold_rejects, false);
        } else {
          dominates = FoldMaySubset(entry.fold, fold)
                          ? entry.set.IsSubsetOf(set, &stats_.word_ops)
                          : (++stats_.fold_rejects, false);
        }
        if (!dominates) {
          ++i;
          continue;
        }
        if (pruned != nullptr) pruned->push_back(entry.payload);
        ++stats_.prunes;
        entry = std::move(bucket.back());
        bucket.pop_back();
        --size_;
      }
    }
  }
  if (count >= buckets_.size()) buckets_.resize(count + 1);
  buckets_[count].push_back(Entry{std::forward<Set>(set), payload, fold});
  ++size_;
  return true;
}

}  // namespace datalog

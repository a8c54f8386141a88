// DynamicBitset: a growable, word-parallel bit vector.
//
// GC+ keys its consistency bookkeeping on dataset-graph ids: every cached
// query stores its answer set (`Answer`) and its validity indicator
// (`CGvalid`, Algorithm 2 of the paper) as one bit per dataset graph id.
// All candidate-set pruning (formulas (1)-(5)) reduces to bitset algebra,
// which is what makes cache validation and pruning cheap relative to
// subgraph-isomorphism testing.

#ifndef GCP_COMMON_BITSET_HPP_
#define GCP_COMMON_BITSET_HPP_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gcp {

/// \brief Growable bit vector with word-level set algebra.
///
/// Semantics relevant to GC+:
///  - `Resize(n)` zero-fills newly exposed bits — exactly the behaviour
///    Algorithm 2 requires when dataset graphs were added (the relation of
///    a cached query to a new graph is unknown, i.e. invalid).
///  - binary operations require equal sizes; callers align sizes first
///    (CacheValidator resizes all indicators to the dataset horizon).
class DynamicBitset {
 public:
  DynamicBitset() = default;

  /// Constructs a bitset of `size` bits, all set to `value`.
  explicit DynamicBitset(std::size_t size, bool value = false) {
    Resize(size, value);
  }

  /// Number of addressable bits.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Grows (or shrinks) to `size` bits; newly exposed bits become `value`.
  void Resize(std::size_t size, bool value = false);

  /// Sets bit `i` to `value`. `i` must be < size().
  void Set(std::size_t i, bool value = true) {
    assert(i < size_);
    if (value) {
      words_[i >> 6] |= (std::uint64_t{1} << (i & 63));
    } else {
      words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }
  }

  /// Clears bit `i`.
  void Reset(std::size_t i) { Set(i, false); }

  /// Returns bit `i`. `i` must be < size().
  bool Test(std::size_t i) const {
    assert(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Returns bit `i`, or false when `i` is out of range. Used where ids may
  /// refer to graphs beyond a not-yet-extended indicator.
  bool TestOrFalse(std::size_t i) const { return i < size_ && Test(i); }

  /// Sets every bit.
  void SetAll();
  /// Clears every bit.
  void ResetAll();

  /// Number of set bits.
  std::size_t Count() const;
  /// True iff at least one bit is set.
  bool Any() const;
  /// True iff no bit is set.
  bool None() const { return !Any(); }
  /// True iff every bit is set.
  bool All() const { return Count() == size_; }

  /// this &= other. Sizes must match.
  void AndWith(const DynamicBitset& other);
  /// this |= other. Sizes must match.
  void OrWith(const DynamicBitset& other);
  /// this &= ~other (set difference). Sizes must match.
  void AndNotWith(const DynamicBitset& other);
  /// Flips every bit (complement within size()).
  void Complement();

  /// Returns lhs & rhs. Sizes must match.
  static DynamicBitset And(const DynamicBitset& lhs, const DynamicBitset& rhs);
  /// Returns lhs | rhs. Sizes must match.
  static DynamicBitset Or(const DynamicBitset& lhs, const DynamicBitset& rhs);
  /// Returns lhs & ~rhs. Sizes must match.
  static DynamicBitset AndNot(const DynamicBitset& lhs,
                              const DynamicBitset& rhs);
  /// Returns ~v (within v.size()).
  static DynamicBitset Not(const DynamicBitset& v);

  /// popcount(this & other) without materializing the intersection.
  std::size_t CountAnd(const DynamicBitset& other) const;

  /// True iff (this & other) has at least one set bit.
  bool Intersects(const DynamicBitset& other) const;

  /// True iff every set bit of this is also set in `other`.
  bool IsSubsetOf(const DynamicBitset& other) const;

  /// Index of the first set bit at position >= `from`; npos when none.
  std::size_t FindNext(std::size_t from) const;
  /// Index of the first set bit; npos when none.
  std::size_t FindFirst() const { return FindNext(0); }

  /// Calls `fn(index)` for every set bit in ascending order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(static_cast<std::size_t>(w * 64 + bit));
        word &= word - 1;
      }
    }
  }

  /// Number of 64-bit backing words (bit i lives in word i/64).
  std::size_t num_words() const { return words_.size(); }

  /// Indices of all set bits, ascending.
  std::vector<std::size_t> ToVector() const;

  /// Bits as '0'/'1' characters, index 0 first.
  std::string ToString() const;

  bool operator==(const DynamicBitset& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  // Zeroes bits in the last word beyond size_ (they must stay zero so that
  // Count/Any/equality are well defined after Complement/SetAll).
  void ClearPadding();

  static std::size_t WordsFor(std::size_t bits) { return (bits + 63) / 64; }

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace gcp

#endif  // GCP_COMMON_BITSET_HPP_

// quest/common/bitset64.hpp
//
// The single shared vocabulary for service-set bitmasks. The subset
// engines (dp, frontier), the partial-plan evaluator and the search
// kernel all track "which services are placed" — this header gives them
// one set of primitives instead of four hand-rolled `1 << u` idioms:
//
//  * free functions over a raw std::uint64_t word for the engines whose
//    state space is itself mask-indexed (dp, frontier; both cap n at the
//    word width anyway), and
//  * Member_mask, an any-n membership set with a single inline word as
//    the n <= 64 fast path and overflow words beyond, for the evaluator
//    and kernel paths that must keep working on larger instances.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace quest {

/// The mask with exactly bit `i` set. Precondition: i < 64.
constexpr std::uint64_t bit64(std::size_t i) noexcept {
  return std::uint64_t{1} << i;
}

/// True iff bit `i` of `mask` is set.
constexpr bool has_bit(std::uint64_t mask, std::size_t i) noexcept {
  return (mask & bit64(i)) != 0;
}

constexpr std::uint64_t with_bit(std::uint64_t mask, std::size_t i) noexcept {
  return mask | bit64(i);
}

constexpr std::uint64_t without_bit(std::uint64_t mask,
                                    std::size_t i) noexcept {
  return mask & ~bit64(i);
}

/// Index of the lowest set bit. Precondition: mask != 0.
constexpr std::size_t lowest_bit(std::uint64_t mask) noexcept {
  return static_cast<std::size_t>(std::countr_zero(mask));
}

/// `mask` with its lowest set bit cleared (the subset-DP recursion step).
constexpr std::uint64_t drop_lowest(std::uint64_t mask) noexcept {
  return mask & (mask - 1);
}

/// True iff every bit of `required` is set in `mask` (precedence gates:
/// pred_mask[u] ⊆ placed).
constexpr bool contains_all(std::uint64_t mask,
                            std::uint64_t required) noexcept {
  return (mask & required) == required;
}

/// The n lowest bits set. Precondition: n <= 64.
constexpr std::uint64_t full_mask64(std::size_t n) noexcept {
  return n >= 64 ? ~std::uint64_t{0} : bit64(n) - 1;
}

/// Membership set over service ids 0..n-1. Ids below 64 live in one
/// inline word — test/set/reset are branch-predictable single-word ops on
/// every instance the exact engines can touch — and larger ids spill into
/// overflow words so arbitrary-n callers (greedy, exhaustive on generated
/// workloads) keep working unchanged.
class Member_mask {
 public:
  Member_mask() = default;
  explicit Member_mask(std::size_t n) { resize(n); }

  /// Resizes to cover ids 0..n-1 and clears every bit.
  void resize(std::size_t n) {
    word_ = 0;
    overflow_.assign(n > 64 ? (n - 1) / 64 : 0, 0);
  }

  bool test(std::size_t i) const noexcept {
    return i < 64 ? has_bit(word_, i) : has_bit(overflow_[i / 64 - 1], i % 64);
  }

  void set(std::size_t i) noexcept {
    if (i < 64) {
      word_ |= bit64(i);
    } else {
      overflow_[i / 64 - 1] |= bit64(i % 64);
    }
  }

  void reset(std::size_t i) noexcept {
    if (i < 64) {
      word_ &= ~bit64(i);
    } else {
      overflow_[i / 64 - 1] &= ~bit64(i % 64);
    }
  }

  void clear() noexcept {
    word_ = 0;
    for (auto& word : overflow_) word = 0;
  }

  /// Bits 0..63 as a raw word — the fast-path view the mask-indexed
  /// helpers consume when n <= 64.
  std::uint64_t word() const noexcept { return word_; }

  /// True iff no bit is set.
  bool none() const noexcept {
    if (word_ != 0) return false;
    for (const auto word : overflow_) {
      if (word != 0) return false;
    }
    return true;
  }

  /// The ids 0..n-1 this mask does not hold. Precondition: the mask was
  /// sized for n (Member_mask(n) or resize(n)).
  Member_mask complement(std::size_t n) const {
    Member_mask out;
    out.word_ = ~word_ & full_mask64(n);
    out.overflow_.resize(overflow_.size());
    for (std::size_t w = 0; w < overflow_.size(); ++w) {
      out.overflow_[w] = ~overflow_[w] & full_mask64(n - 64 * (w + 1));
    }
    return out;
  }

  /// Forward iterator over the set bits in ascending order:
  /// `for (std::size_t id : mask)`. Each step costs one count-trailing-
  /// zeros; empty words are skipped whole.
  class iterator {
   public:
    std::size_t operator*() const noexcept {
      return 64 * index_ + lowest_bit(bits_);
    }

    iterator& operator++() noexcept {
      bits_ = drop_lowest(bits_);
      skip_empty();
      return *this;
    }

    friend bool operator==(const iterator& a, const iterator& b) noexcept {
      return a.index_ == b.index_ && a.bits_ == b.bits_;
    }

   private:
    friend class Member_mask;

    iterator(const Member_mask* mask, std::size_t index) noexcept
        : mask_(mask), index_(index), bits_(mask->word_at(index)) {
      skip_empty();
    }

    void skip_empty() noexcept {
      while (bits_ == 0 && index_ < mask_->overflow_.size() + 1) {
        ++index_;
        bits_ = mask_->word_at(index_);
      }
    }

    const Member_mask* mask_ = nullptr;
    std::size_t index_ = 0;
    std::uint64_t bits_ = 0;
  };

  iterator begin() const noexcept { return iterator(this, 0); }
  iterator end() const noexcept {
    return iterator(this, overflow_.size() + 1);
  }

 private:
  /// Word `index` of the mask (0 is the inline word); 0 past the end.
  std::uint64_t word_at(std::size_t index) const noexcept {
    if (index == 0) return word_;
    return index <= overflow_.size() ? overflow_[index - 1] : 0;
  }

  std::uint64_t word_ = 0;
  std::vector<std::uint64_t> overflow_;
};

}  // namespace quest

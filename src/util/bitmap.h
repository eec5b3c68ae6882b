// Atomic dynamic bitmaps used for dirty-block and dirty-segment tracking.
//
// The dirty block bitmap is the hottest DRAM structure in libcrpm: the
// instrumented write hook sets one bit per touched 256-byte block, and the
// copy-on-write path scans a segment-sized window of bits. Both operations
// must be cheap and thread-safe, hence a flat array of atomic 64-bit words.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace crpm {

// Fixed-capacity bitmap with atomic bit operations.
//
// Concurrent set/test/clear on distinct or identical bits are safe. Bulk
// operations (clear_range, count, for_each_set) are not atomic snapshots;
// callers serialize them against writers (libcrpm does so with per-segment
// locks and the collective checkpoint barrier).
class AtomicBitmap {
 public:
  AtomicBitmap() = default;
  explicit AtomicBitmap(size_t nbits) { reset_size(nbits); }

  AtomicBitmap(const AtomicBitmap&) = delete;
  AtomicBitmap& operator=(const AtomicBitmap&) = delete;

  // Discards all contents and resizes. Not thread-safe.
  void reset_size(size_t nbits);

  size_t size_bits() const { return nbits_; }

  // Sets bit `i`; returns true if this call changed it from 0 to 1.
  bool set(size_t i) {
    uint64_t mask = uint64_t{1} << (i & 63);
    uint64_t old = words_[i >> 6].fetch_or(mask, std::memory_order_acq_rel);
    return (old & mask) == 0;
  }

  bool test(size_t i) const {
    uint64_t mask = uint64_t{1} << (i & 63);
    return (words_[i >> 6].load(std::memory_order_acquire) & mask) != 0;
  }

  // Clears bit `i`; returns true if this call changed it from 1 to 0.
  bool clear(size_t i) {
    uint64_t mask = uint64_t{1} << (i & 63);
    uint64_t old = words_[i >> 6].fetch_and(~mask, std::memory_order_acq_rel);
    return (old & mask) != 0;
  }

  // Clears bits [first, first + n). Word-sliced for speed.
  void clear_range(size_t first, size_t n);

  // Clears every bit.
  void clear_all();

  // Number of set bits in [first, first + n).
  size_t count_range(size_t first, size_t n) const;

  // Number of set bits overall.
  size_t count() const { return count_range(0, nbits_); }

  // Invokes fn(index) for every set bit in [first, first + n), ascending.
  template <typename Fn>
  void for_each_set(size_t first, size_t n, Fn&& fn) const {
    if (n == 0) return;
    size_t last = first + n;  // exclusive
    size_t w = first >> 6;
    size_t w_end = (last + 63) >> 6;
    for (; w < w_end; ++w) {
      uint64_t bits = words_[w].load(std::memory_order_acquire);
      if (bits == 0) continue;
      // Mask off bits outside [first, last).
      if (w == (first >> 6) && (first & 63) != 0) {
        bits &= ~uint64_t{0} << (first & 63);
      }
      if (w == (last >> 6) && (last & 63) != 0) {
        bits &= (uint64_t{1} << (last & 63)) - 1;
      }
      while (bits != 0) {
        unsigned tz = static_cast<unsigned>(__builtin_ctzll(bits));
        fn(w * 64 + tz);
        bits &= bits - 1;
      }
    }
  }

  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for_each_set(0, nbits_, std::forward<Fn>(fn));
  }

  // True if any bit in [first, first + n) is set.
  bool any_in_range(size_t first, size_t n) const {
    bool found = false;
    // Word-sliced scan with early exit.
    size_t last = first + n;
    size_t w = first >> 6;
    size_t w_end = (last + 63) >> 6;
    for (; w < w_end && !found; ++w) {
      uint64_t bits = words_[w].load(std::memory_order_acquire);
      if (w == (first >> 6) && (first & 63) != 0) {
        bits &= ~uint64_t{0} << (first & 63);
      }
      if (w == (last >> 6) && (last & 63) != 0) {
        bits &= (uint64_t{1} << (last & 63)) - 1;
      }
      found = bits != 0;
    }
    return found;
  }

  // Invokes fn(index) for every bit set in `a` OR `b` within
  // [first, first + n). Both bitmaps must have the same capacity.
  template <typename Fn>
  static void for_each_set_union(const AtomicBitmap& a, const AtomicBitmap& b,
                                 size_t first, size_t n, Fn&& fn) {
    if (n == 0) return;
    size_t last = first + n;
    size_t w = first >> 6;
    size_t w_end = (last + 63) >> 6;
    for (; w < w_end; ++w) {
      uint64_t bits = a.words_[w].load(std::memory_order_acquire) |
                      b.words_[w].load(std::memory_order_acquire);
      if (bits == 0) continue;
      if (w == (first >> 6) && (first & 63) != 0) {
        bits &= ~uint64_t{0} << (first & 63);
      }
      if (w == (last >> 6) && (last & 63) != 0) {
        bits &= (uint64_t{1} << (last & 63)) - 1;
      }
      while (bits != 0) {
        unsigned tz = static_cast<unsigned>(__builtin_ctzll(bits));
        fn(w * 64 + tz);
        bits &= bits - 1;
      }
    }
  }

  // Number of bits set in `a` OR `b` within [first, first + n).
  static size_t count_union(const AtomicBitmap& a, const AtomicBitmap& b,
                            size_t first, size_t n) {
    size_t total = 0;
    for_each_set_union(a, b, first, n, [&](size_t) { ++total; });
    return total;
  }

  // Moves contents of `src` into this bitmap and clears `src`. Not atomic;
  // callers serialize against writers.
  void assign_and_clear(AtomicBitmap& src) {
    for (size_t w = 0; w < words_.size(); ++w) {
      words_[w].store(src.words_[w].exchange(0, std::memory_order_acq_rel),
                      std::memory_order_release);
    }
  }

 private:
  size_t nbits_ = 0;
  std::vector<std::atomic<uint64_t>> words_;
};

}  // namespace crpm

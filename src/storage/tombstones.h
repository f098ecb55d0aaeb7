// Atomic tombstone bitmap. The serving engine's select path reads delete
// markers while other threads may be tombstoning rows; the previous
// std::vector<bool> representation packs 8 rows per byte with plain
// (non-atomic) read-modify-write, so a concurrent DeleteRow raced every
// reader of the 63 neighboring bits. This bitmap stores one bit per row in
// 64-bit atomic words: Set() is a fetch_or and Test() an acquire load, so
// marking a row deleted is safe against concurrent readers -- the
// prerequisite for delete support in the serving engine.
//
// Capacity contract (same as Column reallocation, see storage/table.h):
// Test/Set never allocate, but EnsureCapacity reallocates the word array
// and must not run concurrently with readers. Table::Reserve pre-sizes the
// bitmap together with the columns, so during concurrent serving the
// bitmap never grows.
#ifndef CORRMAP_STORAGE_TOMBSTONES_H_
#define CORRMAP_STORAGE_TOMBSTONES_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>

#include "storage/page.h"

namespace corrmap {

class TombstoneBitmap {
 public:
  TombstoneBitmap() = default;

  TombstoneBitmap(const TombstoneBitmap& o) { *this = o; }
  TombstoneBitmap& operator=(const TombstoneBitmap& o) {
    if (this == &o) return *this;
    num_words_ = o.num_words_;
    words_ = num_words_ > 0
                 ? std::make_unique<std::atomic<uint64_t>[]>(num_words_)
                 : nullptr;
    for (size_t w = 0; w < num_words_; ++w) {
      words_[w].store(o.words_[w].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    }
    return *this;
  }
  TombstoneBitmap(TombstoneBitmap&&) = default;
  TombstoneBitmap& operator=(TombstoneBitmap&&) = default;

  /// True if `row` is tombstoned. Rows past the capacity were never
  /// deleted (appends do not touch the bitmap), so they read false without
  /// allocating. Safe against concurrent Set.
  bool Test(RowId row) const {
    const size_t w = size_t(row >> 6);
    if (w >= num_words_) return false;
    return (words_[w].load(std::memory_order_acquire) >> (row & 63)) & 1;
  }

  /// Bits of rows [64 * w, 64 * w + 64) in one acquire load (bit i is row
  /// 64 * w + i), so block readers test 64 rows with the ordering Test
  /// gives one. Words past the capacity read 0, like Test.
  uint64_t Word(size_t w) const {
    if (w >= num_words_) return 0;
    return words_[w].load(std::memory_order_acquire);
  }

  /// Marks `row` deleted; returns whether it already was. Requires
  /// row < capacity_rows(). Safe against concurrent Test and Set.
  bool Set(RowId row) {
    const uint64_t mask = uint64_t{1} << (row & 63);
    return (words_[size_t(row >> 6)].fetch_or(mask,
                                              std::memory_order_acq_rel) &
            mask) != 0;
  }

  /// Clears the mark (recovery/undo paths). Same capacity requirement.
  void Reset(RowId row) {
    const uint64_t mask = uint64_t{1} << (row & 63);
    words_[size_t(row >> 6)].fetch_and(~mask, std::memory_order_acq_rel);
  }

  /// Grows the bitmap to cover at least `rows` rows (never shrinks).
  /// NOT safe against concurrent Test/Set: call only while no readers are
  /// attached (setup, Table::Reserve, offline maintenance).
  void EnsureCapacity(size_t rows) {
    const size_t want = (rows + 63) / 64;
    if (want <= num_words_) return;
    auto grown = std::make_unique<std::atomic<uint64_t>[]>(want);
    for (size_t w = 0; w < num_words_; ++w) {
      grown[w].store(words_[w].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    }
    // make_unique value-initializes, so the new words are already zero.
    words_ = std::move(grown);
    num_words_ = want;
  }

  /// Number of tombstoned rows in [begin, end), word-wise popcount. Rows
  /// past the capacity read as live. Safe against concurrent Set; the
  /// result is a snapshot (exact once writers have quiesced).
  size_t CountSetInRange(RowId begin, RowId end) const {
    const size_t hi = std::min(size_t(end), capacity_rows());
    size_t count = 0;
    for (size_t r = size_t(begin); r < hi;) {
      const size_t w = r >> 6;
      uint64_t word = words_[w].load(std::memory_order_acquire);
      const size_t word_end = std::min(hi, (w + 1) * 64);
      if (r & 63) word &= ~uint64_t{0} << (r & 63);
      if (word_end & 63) word &= (uint64_t{1} << (word_end & 63)) - 1;
      count += size_t(std::popcount(word));
      r = word_end;
    }
    return count;
  }

  size_t capacity_rows() const { return num_words_ * 64; }

 private:
  std::unique_ptr<std::atomic<uint64_t>[]> words_;
  size_t num_words_ = 0;
};

}  // namespace corrmap

#endif  // CORRMAP_STORAGE_TOMBSTONES_H_

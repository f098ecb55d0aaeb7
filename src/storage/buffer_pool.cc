#include "storage/buffer_pool.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace corrmap {

std::string BufferPoolStats::ToString() const {
  std::string out = "hits=";
  out += std::to_string(hits);
  out += " misses=";
  out += std::to_string(misses);
  out += " evictions=";
  out += std::to_string(evictions);
  out += " dirty_evictions=";
  out += std::to_string(dirty_evictions);
  return out;
}

BufferPool::BufferPool(size_t capacity_pages, size_t num_stripes)
    : capacity_pages_(capacity_pages == 0 ? 1 : capacity_pages) {
  // Every stripe must hold at least one page; a tiny pool degenerates to
  // fewer stripes rather than zero-capacity partitions.
  num_stripes = std::clamp<size_t>(
      num_stripes, 1, std::min(kMaxStripes, capacity_pages_));
  stripes_ = std::vector<Stripe>(num_stripes);
  const size_t base = capacity_pages_ / num_stripes;
  size_t extra = capacity_pages_ % num_stripes;
  for (Stripe& s : stripes_) {
    s.Init(base + (extra > 0 ? 1 : 0));
    if (extra > 0) --extra;
  }
}

void BufferPool::Stripe::Init(size_t capacity) {
  // Frame numbers are 32-bit; a stripe of 2^31 frames (64 GiB of them)
  // fails to allocate long before it could overflow one.
  assert(capacity > 0 && capacity < kNoFrame / 2);
  frames.resize(capacity);
  const size_t slots = std::bit_ceil(2 * capacity);
  index.assign(slots, kNoFrame);
  index_shift = 64 - unsigned(std::countr_zero(slots));
}

uint32_t BufferPool::Stripe::Find(PageId page, uint64_t hash) const {
  const size_t mask = index.size() - 1;
  for (size_t slot = hash >> index_shift;; slot = (slot + 1) & mask) {
    const uint32_t f = index[slot];
    if (f == kNoFrame || frames[f].page == page) return f;
  }
}

void BufferPool::Stripe::IndexInsert(uint32_t frame, uint64_t hash) {
  const size_t mask = index.size() - 1;
  size_t slot = hash >> index_shift;
  while (index[slot] != kNoFrame) slot = (slot + 1) & mask;
  index[slot] = frame;
}

void BufferPool::Stripe::IndexErase(uint32_t frame) {
  const size_t mask = index.size() - 1;
  size_t hole = Hash(frames[frame].page) >> index_shift;
  while (index[hole] != frame) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull each later entry of the probe cluster
  // into the hole unless that would move it before its home slot, so
  // every remaining entry stays reachable from its home without
  // tombstones.
  for (size_t j = (hole + 1) & mask; index[j] != kNoFrame;
       j = (j + 1) & mask) {
    const size_t home = Hash(frames[index[j]].page) >> index_shift;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index[hole] = index[j];
      hole = j;
    }
  }
  index[hole] = kNoFrame;
}

void BufferPool::Stripe::Unlink(uint32_t frame) {
  Frame& f = frames[frame];
  (f.prev == kNoFrame ? mru : frames[f.prev].next) = f.next;
  (f.next == kNoFrame ? lru : frames[f.next].prev) = f.prev;
}

void BufferPool::Stripe::PushMru(uint32_t frame) {
  Frame& f = frames[frame];
  f.prev = kNoFrame;
  f.next = mru;
  (mru == kNoFrame ? lru : frames[mru].prev) = frame;
  mru = frame;
}

size_t BufferPool::num_cached() const {
  size_t n = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.used;
  }
  return n;
}

size_t BufferPool::num_dirty() const {
  size_t n = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.num_dirty;
  }
  return n;
}

uint32_t BufferPool::EvictOne(Stripe& s) {
  assert(s.lru != kNoFrame);
  const uint32_t victim = s.lru;
  Frame& f = s.frames[victim];
  ++s.stats.evictions;
  if (f.dirty) {
    ++s.stats.dirty_evictions;
    ++s.io.pages_written;
    --s.num_dirty;
  }
  s.IndexErase(victim);
  s.Unlink(victim);
  auto fc = s.extent_counters.find(
      ExtentKey(f.page.file, ExtentOfPage(f.page.page)));
  if (fc != s.extent_counters.end() && fc->second.resident_pages > 0) {
    --fc->second.resident_pages;
  }
  return victim;
}

bool BufferPool::TouchLocked(Stripe& s, PageId page, uint64_t hash,
                             bool mark_dirty, ExtentCounters& fc) {
  const uint32_t found = s.Find(page, hash);
  const bool hit = found != kNoFrame;
  const double keep = 1.0 - 1.0 / kResidencyDecayWindow;
  fc.decayed_hits *= keep;
  fc.decayed_misses *= keep;
  (hit ? fc.decayed_hits : fc.decayed_misses) += 1.0;
  if (hit) {
    ++s.stats.hits;
    s.Unlink(found);
    s.PushMru(found);
    Frame& f = s.frames[found];
    if (mark_dirty && !f.dirty) {
      f.dirty = true;
      ++s.num_dirty;
    }
    return true;
  }
  ++s.stats.misses;
  // Admit into a free frame, or reuse the LRU victim's.
  const uint32_t frame = s.used < s.frames.size() ? s.used++ : EvictOne(s);
  Frame& f = s.frames[frame];
  f.page = page;
  f.dirty = mark_dirty;
  if (mark_dirty) ++s.num_dirty;
  s.PushMru(frame);
  s.IndexInsert(frame, hash);
  ++fc.resident_pages;
  return false;
}

void BufferPool::Access(PageId page, bool mark_dirty) {
  const uint64_t hash = Hash(page);
  Stripe& s = stripes_[StripeIndex(hash)];
  std::lock_guard<std::mutex> lock(s.mu);
  ExtentCounters& fc =
      s.extent_counters[ExtentKey(page.file, ExtentOfPage(page.page))];
  if (!TouchLocked(s, page, hash, mark_dirty, fc)) ++s.io.seeks;  // read
}

bool BufferPool::Touch(PageId page) {
  const uint64_t hash = Hash(page);
  Stripe& s = stripes_[StripeIndex(hash)];
  std::lock_guard<std::mutex> lock(s.mu);
  ExtentCounters& fc =
      s.extent_counters[ExtentKey(page.file, ExtentOfPage(page.page))];
  return TouchLocked(s, page, hash, /*mark_dirty=*/false, fc);
}

void BufferPool::TouchRun(uint32_t file, PageNo first, uint64_t length,
                          uint8_t* hit) {
  // Hash each page once and bucket the run's pages by stripe in
  // per-stripe bitmaps, then lock each stripe once and walk its bitmap
  // low to high -- its pages in ascending order. hashes[i] is written
  // before it is read, and pages_of[s] is zeroed when stripe s first
  // enters stripes_hit, so neither array is cleared whole on every call.
  static_assert(kTouchRunWindow % 64 == 0);
  assert(length <= kTouchRunWindow);
  constexpr uint64_t kWords = kTouchRunWindow / 64;
  uint64_t hashes[kTouchRunWindow];
  uint64_t pages_of[kMaxStripes][kWords];
  uint64_t stripes_hit = 0;
  for (uint64_t i = 0; i < length; ++i) {
    hashes[i] = Hash({file, first + i});
    const size_t stripe = StripeIndex(hashes[i]);
    if ((stripes_hit >> stripe & 1) == 0) {
      stripes_hit |= uint64_t(1) << stripe;
      std::fill_n(pages_of[stripe], kWords, 0);
    }
    pages_of[stripe][i / 64] |= uint64_t(1) << (i % 64);
  }
  for (; stripes_hit != 0; stripes_hit &= stripes_hit - 1) {
    const unsigned stripe = unsigned(std::countr_zero(stripes_hit));
    Stripe& s = stripes_[stripe];
    std::lock_guard<std::mutex> lock(s.mu);
    // Each extent's counter is looked up once per stretch of this
    // stripe's pages that share the extent.
    ExtentCounters* fc = nullptr;
    uint64_t fc_extent = 0;
    for (uint64_t w = 0; w < kWords; ++w) {
      for (uint64_t bits = pages_of[stripe][w]; bits != 0;
           bits &= bits - 1) {
        const uint64_t i = w * 64 + uint64_t(std::countr_zero(bits));
        const PageId page{file, first + i};
        const uint64_t extent = ExtentOfPage(page.page);
        if (fc == nullptr || extent != fc_extent) {
          fc = &s.extent_counters[ExtentKey(file, extent)];
          fc_extent = extent;
        }
        hit[i] = TouchLocked(s, page, hashes[i], /*mark_dirty=*/false, *fc);
      }
    }
  }
}

bool BufferPool::IsCached(PageId page) const {
  const uint64_t hash = Hash(page);
  const Stripe& s = stripes_[StripeIndex(hash)];
  std::lock_guard<std::mutex> lock(s.mu);
  return s.Find(page, hash) != kNoFrame;
}

void BufferPool::SumFileCounters(const Stripe& s, uint32_t file,
                                 ExtentCounters* sum,
                                 std::span<ExtentCounters> extents) {
  for (const auto& [key, fc] : s.extent_counters) {
    if (!KeyOfFile(key, file)) continue;
    sum->decayed_hits += fc.decayed_hits;
    sum->decayed_misses += fc.decayed_misses;
    sum->resident_pages += fc.resident_pages;
    const uint64_t extent = key & uint64_t(0xff'ffff'ffff);
    if (extent < extents.size()) {
      extents[extent].decayed_hits += fc.decayed_hits;
      extents[extent].decayed_misses += fc.decayed_misses;
      extents[extent].resident_pages += fc.resident_pages;
    }
  }
}

FileResidency BufferPool::ResidencyFrom(const ExtentCounters& sum,
                                        uint64_t pages) {
  FileResidency out;
  out.resident_pages = sum.resident_pages;
  const double touches = sum.decayed_hits + sum.decayed_misses;
  out.observed_touches = touches;
  if (touches > 0) out.hit_rate = sum.decayed_hits / touches;
  if (pages > 0) {
    out.resident_fraction =
        std::min(1.0, double(out.resident_pages) / double(pages));
  }
  return out;
}

FileResidency BufferPool::ResidencyOf(uint32_t file,
                                      uint64_t file_pages) const {
  // Aggregate the file's extents across every stripe. The decayed sums
  // weight each extent by how recently it was touched, so the whole-file
  // hit rate tracks the live access mix the way the old per-file counter
  // did.
  ExtentCounters sum;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    SumFileCounters(s, file, &sum, {});
  }
  return ResidencyFrom(sum, file_pages);
}

FileResidency BufferPool::ResidencyOfWithExtents(
    uint32_t file, uint64_t file_pages, std::vector<FileResidency>* out) const {
  // Each extent key occurs at most once per stripe, so an extent's sum
  // takes one term per stripe, in stripe order.
  ExtentCounters sum;
  std::vector<ExtentCounters> sums(NumExtents(file_pages));
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    SumFileCounters(s, file, &sum, sums);
  }
  out->clear();
  out->reserve(sums.size());
  for (const ExtentCounters& e : sums) {
    out->push_back(ResidencyFrom(e, kExtentPages));
  }
  return ResidencyFrom(sum, file_pages);
}

void BufferPool::ForgetFile(uint32_t file) {
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    std::erase_if(s.extent_counters,
                  [file](const auto& kv) { return KeyOfFile(kv.first, file); });
  }
}

size_t BufferPool::NumExtentCounters() const {
  size_t n = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.extent_counters.size();
  }
  return n;
}

void BufferPool::FlushAll() {
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    for (uint32_t f = 0; f < s.used; ++f) {
      if (s.frames[f].dirty) {
        s.frames[f].dirty = false;
        ++s.io.pages_written;
      }
    }
    s.num_dirty = 0;
  }
}

void BufferPool::Clear() {
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.used = 0;
    s.mru = s.lru = kNoFrame;
    std::fill(s.index.begin(), s.index.end(), kNoFrame);
    s.num_dirty = 0;
    // drop_caches semantics between experiment trials: the decayed
    // touch history resets with the frames so the next trial (a cold
    // A/B leg) starts calibrating from a genuinely cold state.
    s.extent_counters.clear();
  }
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats out;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    out.hits += s.stats.hits;
    out.misses += s.stats.misses;
    out.evictions += s.stats.evictions;
    out.dirty_evictions += s.stats.dirty_evictions;
  }
  return out;
}

BufferPoolSnapshot BufferPool::StatsSnapshot() const {
  BufferPoolSnapshot out;
  out.capacity_pages = capacity_pages_;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    out.stats.hits += s.stats.hits;
    out.stats.misses += s.stats.misses;
    out.stats.evictions += s.stats.evictions;
    out.stats.dirty_evictions += s.stats.dirty_evictions;
    out.num_cached += s.used;
    out.num_dirty += s.num_dirty;
  }
  return out;
}

DiskStats BufferPool::DrainIo() {
  DiskStats out;
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    out += s.io;
    s.io = DiskStats{};
  }
  return out;
}

}  // namespace corrmap

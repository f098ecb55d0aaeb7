#include "storage/buffer_pool.h"

#include <algorithm>
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
  num_stripes = std::max<size_t>(1, std::min(num_stripes, capacity_pages_));
  stripes_ = std::vector<Stripe>(num_stripes);
  const size_t base = capacity_pages_ / num_stripes;
  size_t extra = capacity_pages_ % num_stripes;
  for (Stripe& s : stripes_) {
    s.capacity = base + (extra > 0 ? 1 : 0);
    if (extra > 0) --extra;
  }
}

size_t BufferPool::num_cached() const {
  size_t n = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.frames.size();
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

void BufferPool::NoteTouch(Stripe& s, PageId page, bool hit) {
  ExtentCounters& fc =
      s.extent_counters[ExtentKey(page.file, ExtentOfPage(page.page))];
  const double keep = 1.0 - 1.0 / kResidencyDecayWindow;
  fc.decayed_hits *= keep;
  fc.decayed_misses *= keep;
  (hit ? fc.decayed_hits : fc.decayed_misses) += 1.0;
}

void BufferPool::AdmitLocked(Stripe& s, PageId page, bool mark_dirty) {
  if (s.frames.size() >= s.capacity) EvictOne(s);
  s.lru.push_front(page);
  Frame f;
  f.lru_it = s.lru.begin();
  f.dirty = mark_dirty;
  if (mark_dirty) ++s.num_dirty;
  s.frames.emplace(page, f);
  ++s.extent_counters[ExtentKey(page.file, ExtentOfPage(page.page))]
        .resident_pages;
}

bool BufferPool::TouchLocked(Stripe& s, PageId page, bool mark_dirty) {
  auto it = s.frames.find(page);
  const bool hit = it != s.frames.end();
  NoteTouch(s, page, hit);
  if (!hit) {
    ++s.stats.misses;
    AdmitLocked(s, page, mark_dirty);
    return false;
  }
  ++s.stats.hits;
  s.lru.erase(it->second.lru_it);
  s.lru.push_front(page);
  it->second.lru_it = s.lru.begin();
  if (mark_dirty && !it->second.dirty) {
    it->second.dirty = true;
    ++s.num_dirty;
  }
  return true;
}

void BufferPool::Access(PageId page, bool mark_dirty) {
  Stripe& s = StripeOf(page);
  std::lock_guard<std::mutex> lock(s.mu);
  if (!TouchLocked(s, page, mark_dirty)) ++s.io.seeks;  // random read
}

bool BufferPool::Touch(PageId page) {
  // The serving hot path runs this once per swept page: one hash lookup
  // under this page's stripe lock, not an IsCached probe plus a touch.
  Stripe& s = StripeOf(page);
  std::lock_guard<std::mutex> lock(s.mu);
  return TouchLocked(s, page, /*mark_dirty=*/false);
}

bool BufferPool::IsCached(PageId page) const {
  const Stripe& s = StripeOf(page);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.frames.count(page) > 0;
}

FileResidency BufferPool::ResidencyOf(uint32_t file,
                                      uint64_t file_pages) const {
  // Aggregate the file's extents across every stripe. The decayed sums
  // weight each extent by how recently it was touched, so the whole-file
  // hit rate tracks the live access mix the way the old per-file counter
  // did.
  FileResidency out;
  double hits = 0, misses = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& [key, fc] : s.extent_counters) {
      if (!KeyOfFile(key, file)) continue;
      hits += fc.decayed_hits;
      misses += fc.decayed_misses;
      out.resident_pages += fc.resident_pages;
    }
  }
  const double touches = hits + misses;
  out.observed_touches = touches;
  if (touches > 0) out.hit_rate = hits / touches;
  if (file_pages > 0) {
    out.resident_fraction =
        std::min(1.0, double(out.resident_pages) / double(file_pages));
  }
  return out;
}

FileResidency BufferPool::ResidencyOfExtent(uint32_t file,
                                            uint64_t extent) const {
  FileResidency out;
  const uint64_t key = ExtentKey(file, extent);
  double hits = 0, misses = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.extent_counters.find(key);
    if (it == s.extent_counters.end()) continue;
    hits += it->second.decayed_hits;
    misses += it->second.decayed_misses;
    out.resident_pages += it->second.resident_pages;
  }
  const double touches = hits + misses;
  out.observed_touches = touches;
  if (touches > 0) out.hit_rate = hits / touches;
  out.resident_fraction =
      std::min(1.0, double(out.resident_pages) / double(kExtentPages));
  return out;
}

void BufferPool::EvictOne(Stripe& s) {
  assert(!s.lru.empty());
  const PageId victim = s.lru.back();
  s.lru.pop_back();
  auto it = s.frames.find(victim);
  assert(it != s.frames.end());
  ++s.stats.evictions;
  if (it->second.dirty) {
    ++s.stats.dirty_evictions;
    ++s.io.pages_written;
    --s.num_dirty;
  }
  s.frames.erase(it);
  auto fc = s.extent_counters.find(
      ExtentKey(victim.file, ExtentOfPage(victim.page)));
  if (fc != s.extent_counters.end() && fc->second.resident_pages > 0) {
    --fc->second.resident_pages;
  }
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
    for (auto& [page, frame] : s.frames) {
      if (frame.dirty) {
        frame.dirty = false;
        ++s.io.pages_written;
      }
    }
    s.num_dirty = 0;
  }
}

void BufferPool::Clear() {
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.frames.clear();
    s.lru.clear();
    s.num_dirty = 0;
    // drop_caches semantics between experiment trials: the decayed
    // NoteTouch history resets with the frames so the next trial (a cold
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
    out.num_cached += s.frames.size();
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

#include "serve/shared_lookup_cache.h"

#include <bit>

namespace corrmap::serve {

SharedLookupCache::SharedLookupCache(size_t num_stripes) {
  stripes_.reserve(num_stripes == 0 ? 1 : num_stripes);
  for (size_t i = 0; i < std::max<size_t>(1, num_stripes); ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

uint64_t SharedLookupCache::Fingerprint(
    std::span<const CmColumnPredicate> preds) {
  return FingerprintCmPredicates(preds);
}

SharedLookupCache::ResultPtr SharedLookupCache::Get(const void* cm_id,
                                                    uint64_t fingerprint,
                                                    uint64_t epoch) {
  const EntryKey key{cm_id, fingerprint};
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.map.find(key);
  if (it == stripe.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (it->second.epoch < epoch) {
    // Lazy stale eviction: maintenance moved the CM past this entry.
    stripe.map.erase(it);
    stale_evictions_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (it->second.epoch > epoch) {
    // The entry is fresher than the caller's epoch snapshot (a faster
    // reader republished after newer maintenance): a plain miss, but do
    // not discard the newer result.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second.result;
}

void SharedLookupCache::Put(const void* cm_id, uint64_t fingerprint,
                            uint64_t epoch, ResultPtr result) {
  const EntryKey key{cm_id, fingerprint};
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto [it, inserted] = stripe.map.try_emplace(key);
  if (!inserted && it->second.epoch > epoch) return;  // never downgrade
  it->second.epoch = epoch;
  it->second.result = std::move(result);
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

void SharedLookupCache::Clear() {
  for (auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    stripe->map.clear();
  }
}

size_t SharedLookupCache::Size() const {
  size_t n = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    n += stripe->map.size();
  }
  return n;
}

SharedLookupCache::Stats SharedLookupCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.stale_evictions = stale_evictions_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace corrmap::serve

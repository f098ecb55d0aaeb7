// Process-wide, cross-query cache of CmLookupResult runs. The per-query
// CmLookupCache (exec/access_path.h) shares one lookup between costing and
// execution of a single query; this cache extends the reuse across a whole
// stream of queries: entries are keyed by (CM identity, predicate
// fingerprint, CM epoch), so a burst of similar point/range queries pays
// one cm_lookup and every maintenance operation -- which bumps the CM's
// epoch -- implicitly invalidates all of that CM's entries. Stale epochs
// are evicted lazily: a probe that finds an entry under a different epoch
// erases it on the spot rather than paying a sweep.
//
// Thread safety: the cache is striped by key hash; each stripe is a small
// mutex-guarded map, so concurrent readers on different fingerprints
// rarely contend. Results are handed out as shared_ptr so an entry evicted
// mid-use stays alive for the reader holding it.
#ifndef CORRMAP_SERVE_SHARED_LOOKUP_CACHE_H_
#define CORRMAP_SERVE_SHARED_LOOKUP_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/correlation_map.h"

namespace corrmap::serve {

class SharedLookupCache {
 public:
  using ResultPtr = std::shared_ptr<const CmLookupResult>;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t stale_evictions = 0;
  };

  explicit SharedLookupCache(size_t num_stripes = 16);

  /// FingerprintCmPredicates (core/correlation_map.h) under the cache's
  /// name. Collisions are possible in principle (64-bit mix) but never
  /// unsafe for correctness here beyond serving the colliding query's
  /// runs; the executor re-filters swept rows on the full predicate
  /// either way.
  static uint64_t Fingerprint(std::span<const CmColumnPredicate> preds);

  /// The cached result for (cm_id, fingerprint) at exactly `epoch`, or
  /// null. Finding the pair under an older epoch lazily evicts it; a
  /// fresher entry (published by a reader that saw newer maintenance) is
  /// left in place and reported as a miss.
  ResultPtr Get(const void* cm_id, uint64_t fingerprint, uint64_t epoch);

  /// Publishes a result computed at `epoch`. Never downgrades: an entry
  /// already present under a newer epoch wins over this insert.
  void Put(const void* cm_id, uint64_t fingerprint, uint64_t epoch,
           ResultPtr result);

  /// Drops every entry (tests / reconfiguration).
  void Clear();

  size_t Size() const;
  Stats stats() const;

 private:
  struct EntryKey {
    const void* cm_id;
    uint64_t fingerprint;
    bool operator==(const EntryKey&) const = default;
  };
  struct EntryKeyHash {
    size_t operator()(const EntryKey& k) const {
      return Mix64(uint64_t(reinterpret_cast<uintptr_t>(k.cm_id)) ^
                   Mix64(k.fingerprint));
    }
  };
  struct Entry {
    uint64_t epoch = 0;
    ResultPtr result;
  };
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<EntryKey, Entry, EntryKeyHash> map;
  };

  Stripe& StripeFor(const EntryKey& key) {
    return *stripes_[EntryKeyHash{}(key) % stripes_.size()];
  }

  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> stale_evictions_{0};
};

}  // namespace corrmap::serve

#endif  // CORRMAP_SERVE_SHARED_LOOKUP_CACHE_H_

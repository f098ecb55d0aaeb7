// Concurrent Correlation Map: the per-CM building block of the serving
// layer (src/serve/serving_engine.h). One CorrelationMap (hash map +
// sorted bucket-ordinal directory) behind one std::shared_mutex. Lookups
// take the shared lock; maintenance buckets its rows outside the lock and
// takes the exclusive lock only to apply the precomputed pairs. Every
// write already serializes on the engine's append lock, so one map loses
// no writer parallelism, and a range lookup is one directory probe.
// std::shared_mutex may prefer readers (glibc's does), and back-to-back
// lookups would then starve maintenance, so a writer first queues on a
// turnstile mutex that every reader passes through before locking.
//
// Epoch protocol (consumed by SharedLookupCache): a single atomic epoch is
// bumped once before a maintenance operation touches the map and once
// after it finishes. A lookup result is safe to cache under the epoch read
// before the lookup iff the epoch is unchanged after it -- any concurrent
// writer would have bumped at least the begin mark. Writers sync the
// directory before releasing the exclusive lock (an incremental merge for
// small deltas), keeping readers on the shared-lock fast path.
#ifndef CORRMAP_SERVE_CONCURRENT_CM_H_
#define CORRMAP_SERVE_CONCURRENT_CM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/correlation_map.h"
#include "exec/plan_choice.h"

namespace corrmap::serve {

/// A CorrelationMap made safe for concurrent lookups and maintenance.
class ConcurrentCorrelationMap {
 public:
  /// Creates an empty CM; same validation as CorrelationMap::Create.
  static Result<ConcurrentCorrelationMap> Create(const Table* table,
                                                 CmOptions options);

  /// Moves transfer the map; the epoch value carries over. Not
  /// thread-safe (move only while no one else holds a reference).
  ConcurrentCorrelationMap(ConcurrentCorrelationMap&& o) noexcept
      : locks_(std::make_unique<Locks>()),
        cm_(std::move(o.cm_)),
        epoch_(o.epoch_.load()) {}

  /// Bulk build of a freshly created map over the live rows below
  /// `row_limit`: CorrelationMap::LiveRecords aggregates the rows into
  /// their distinct pairs outside the lock, then LoadRecords inserts them
  /// in (u-key, ordinal) order and the directory is synced, inside one
  /// pair of epoch bumps (none when no row qualifies). The content,
  /// ToRecords order and directory equal InsertRowsBatched over the same
  /// rows. Run it before serving starts or on a not-yet-published
  /// recluster successor; attach, recluster and recovery bound a
  /// c-bucketed CM's build to exactly the clustered region this way.
  Status BuildFromTable(size_t row_limit = ~size_t{0});

  /// Thread-safe maintenance: buckets each row to its (u-key, clustered
  /// ordinal) pair before taking the exclusive lock, applies the pairs,
  /// syncs the directory, and brackets the whole operation with epoch
  /// bumps. Deleted rows' column values must still be readable
  /// (tombstoning keeps them). Empty batches do not bump the epoch.
  void InsertRow(RowId row);
  Status DeleteRow(RowId row);
  size_t InsertRowsBatched(std::span<const RowId> rows);
  Status DeleteRowsBatched(std::span<const RowId> rows);
  void InsertValues(std::span<const Key> u_keys, int64_t c_ordinal);
  Status DeleteValues(std::span<const Key> u_keys, int64_t c_ordinal);

  /// Thread-safe cm_lookup under the shared lock; a range lookup whose
  /// directory is out of date (only after maintenance that bypassed the
  /// sync, e.g. a bulk load) rebuilds it under the exclusive lock.
  CmLookupResult Lookup(std::span<const CmColumnPredicate> preds) const;

  /// Costing adapter for the serving plan choice: the CmPlanView
  /// (exec/plan_choice.h) for this CM, wrapping an already-computed lookup
  /// -- typically served from the SharedLookupCache, so costing and
  /// execution share one cm_lookup per (CM, predicate, epoch). Pass
  /// nullptr to mark the CM inapplicable for the query.
  CmPlanView PlanView(const CmLookupResult* lookup) const;

  /// Maintenance version counter; see the epoch protocol above.
  uint64_t Epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Raises the epoch to at least `floor`. The recluster pass calls this
  /// on the successor CM before publishing it under the predecessor's
  /// stable cache slot, so every cache entry keyed to a pre-recluster
  /// epoch compares stale and is lazily evicted, never served.
  void EnsureEpochAtLeast(uint64_t floor) {
    uint64_t cur = epoch_.load(std::memory_order_relaxed);
    while (cur < floor && !epoch_.compare_exchange_weak(
                              cur, floor, std::memory_order_release,
                              std::memory_order_relaxed)) {
    }
  }

  /// Immutable after Create, so readable without the lock.
  const CmOptions& options() const { return cm_.options(); }
  const Table& table() const { return cm_.table(); }
  bool has_clustered_buckets() const { return cm_.has_clustered_buckets(); }
  std::string Name() const { return cm_.Name(); }

  /// Taken under the shared lock.
  size_t NumUKeys() const;
  size_t NumEntries() const;
  uint64_t SizeBytes() const;
  /// Every (u-key, c ordinal, count) pair (CorrelationMap::ToRecords).
  std::vector<CorrelationMap::Record> ToRecords() const;

  /// Snapshot copy re-pointed at `table` (a reordered clone of this CM's
  /// table) under the shared lock; epoch carries over. Only valid without
  /// clustered bucketing (ordinals encode values, not positions -- see
  /// CorrelationMap::CloneRetargeted). The recluster swap uses this under
  /// the append lock, where the predecessor's content is exactly the live
  /// rows' pairs, instead of an O(rows) re-hash.
  ConcurrentCorrelationMap CloneRetargeted(const Table* table) const;

  Status CheckInvariants() const;

 private:
  using Pairs = std::vector<std::pair<CmKey, int64_t>>;

  /// Heap-held so the map stays movable.
  struct Locks {
    std::shared_mutex mu;  ///< guards cm_
    std::mutex turnstile;  ///< writers hold it while waiting for mu
  };

  explicit ConcurrentCorrelationMap(CorrelationMap cm)
      : locks_(std::make_unique<Locks>()), cm_(std::move(cm)) {}

  /// Shared access, queued behind any writer already waiting.
  std::shared_lock<std::shared_mutex> ReadLock() const {
    { std::lock_guard pass(locks_->turnstile); }
    return std::shared_lock(locks_->mu);
  }
  /// Exclusive access; new readers wait until it is granted.
  std::unique_lock<std::shared_mutex> WriteLock() const {
    std::lock_guard queue(locks_->turnstile);
    return std::unique_lock(locks_->mu);
  }

  /// Buckets `rows` to their (u-key, ordinal) pairs without locking: the
  /// bucketers are immutable and the rows' columns are published.
  Pairs PairsOf(std::span<const RowId> rows) const;

  /// Epoch brackets around one maintenance operation.
  void BeginMaintenance() { epoch_.fetch_add(1, std::memory_order_release); }
  void EndMaintenance() { epoch_.fetch_add(1, std::memory_order_release); }

  std::unique_ptr<Locks> locks_;
  CorrelationMap cm_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace corrmap::serve

#endif  // CORRMAP_SERVE_CONCURRENT_CM_H_

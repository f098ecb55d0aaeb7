// Partitioned serving: N range-partitioned ServingEngine shards behind a
// CM-guided scatter-gather router.
//
// The router splits a clustered table into contiguous clustered-key ranges
// (distinct keys never span shards) and gives each range to its own
// ServingEngine. All shards share one lock-striped BufferPool and one
// SharedLookupCache owned by the router, so residency calibration and CM
// lookup reuse keep working across the partition while appends, CM
// maintenance, tail sweeps, and recluster/compact passes run under
// per-shard locks -- a write stream that serialized behind one append
// mutex now spreads over N of them, and every select sweeps only its
// shards' tails.
//
// Select routing, in order of preference:
//   1. A predicate on the clustered column routes by key range: the
//      predicate's point keys / range bounds map through the split keys to
//      exactly the owning shard(s). (clustered_routed)
//   2. Otherwise each shard is asked CanSkipForQuery: when an attached CM
//      applies to the query, a shard whose CM lookup is empty AND whose
//      tail is empty provably holds no matches and is skipped; the lookup
//      goes through the shared cache, so a visited shard's ExecuteSelect
//      reuses it. (cm_pruned when at least one shard was skipped)
//   3. No clustered predicate and no applicable CM: full scatter-gather.
// Visited shards run their ordinary cost-based deliberation. The scatter
// is parallel: each visited shard's select is posted to that shard's own
// worker pool and the router blocks on the gathered futures, so a
// multi-shard select costs one shard's latency instead of the sum; a
// single-target select, and any select over pool-less engines
// (num_workers == 0), visits its shards inline in ascending order. The
// merge stays single-threaded and walks the results in ascending shard
// order, so merged counts never depend on completion order.
//
// Writes route by clustered key and run the engines' one write
// transaction (ServingEngine::Prepare / Commit): ApplyAppend groups rows
// by owning shard and prepares every target shard before any commits, so
// the groups apply all-or-nothing; deletes/updates address (shard, row)
// and carry the shard's own recluster epoch (row ids are per-shard; a
// recluster in shard i permutes only shard i's ids and aborts only
// writers holding shard i's stale epoch). An update whose new clustered
// key moves it across the partition prepares the delete on its old shard
// and the append on its new owner before committing either, so a refusal
// on either side changes nothing; between the two commits neither version
// is visible, the same invariant the engine's own update keeps.
#ifndef CORRMAP_SERVE_SHARD_ROUTER_H_
#define CORRMAP_SERVE_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "core/correlation_map.h"
#include "exec/predicate.h"
#include "index/clustered_index.h"
#include "serve/serving_engine.h"
#include "serve/shared_lookup_cache.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"

namespace corrmap::serve {

struct RouterOptions {
  /// Requested shard count; the effective count is capped by the number
  /// of distinct clustered keys (a distinct key never spans shards).
  size_t num_shards = 4;
  /// Per-shard engine configuration. buffer_pool_pages sizes the single
  /// router-owned pool shared by every shard (0 disables pooling);
  /// shared_pool/shared_cache are overwritten by the router.
  ServingOptions engine;
  /// Lock stripes of the router-owned shared pool.
  static constexpr size_t kPoolStripes = 16;
  /// Per-shard durability managers (serve/durability.h). Empty disables
  /// durable serving; otherwise one entry per *requested* shard
  /// (num_shards) -- each shard logs its own writes and checkpoints its
  /// own epochs, so recovery is shard-local. engine.durability is always
  /// ignored by the router (a single WAL cannot speak N independent
  /// row-id spaces). All managers must outlive the router.
  std::vector<Durability*> shard_durability;
  /// Test/bench hook: called once per shard visit with that shard's own
  /// SelectResult, from whichever thread ran the visit (must be
  /// thread-safe). The bench injects the simulated device stall here so
  /// it overlaps across shards the way real device waits would; fuzz
  /// tests inject seeded delays to stretch the window in which a
  /// recluster publish races the gather.
  std::function<void(const SelectResult&)> on_shard_visit;
};

/// Merged outcome of one routed select.
struct RoutedSelectResult {
  /// Per-shard SelectResults merged: counts, simulated/estimated costs and
  /// deliberated candidates summed; used_cm/cache_hit OR-ed; plan fields
  /// taken from the first visited shard (diagnostics only).
  SelectResult merged;
  size_t shards_visited = 0;
  size_t shards_pruned = 0;      ///< skipped without executing
  bool clustered_routed = false; ///< pruned by clustered-key range
  bool cm_pruned = false;        ///< pruned by per-shard CM lookups
};

class ShardRouter {
 public:
  /// Partitions `table` -- already clustered on `c_col` -- into contiguous
  /// key ranges balanced by row count and builds one engine per range.
  /// The source table is deep-copied per shard (dictionaries preserved,
  /// so physical keys keep their codes across the partition); it only
  /// needs to outlive this call. The copies and their clustered indexes
  /// are built on up to one thread per core; the engines are then
  /// constructed in shard order, so pool file ids follow shard order.
  static Result<std::unique_ptr<ShardRouter>> Create(const Table& table,
                                                     size_t c_col,
                                                     RouterOptions options =
                                                         {});

  /// Rebuilds a router from per-shard durability state after a crash:
  /// each shard recovers through ServingEngine::Recover against
  /// options.shard_durability[i] (which must hold that shard's checkpoint
  /// + log), and the partition layout is restored from `splits` -- the
  /// split_keys() of the pre-crash router, which the operator persists
  /// alongside the shard logs (they change only on re-partitioning).
  /// `spec` lists the replay-derived structures to rebuild per shard;
  /// clustered-bucketing targets are re-based per shard exactly as
  /// AttachCm does. Shards open in order -- each draws every pool file
  /// id it will hold -- and then rebuild and replay at once on up to one
  /// thread per core, so the router comes back exactly as recovering its
  /// shards one at a time would bring it. On failure, returns the
  /// lowest-numbered failing shard's error. On success, per-shard
  /// RecoveryStats are appended to `stats` (when non-null) in shard
  /// order.
  static Result<std::unique_ptr<ShardRouter>> Recover(
      size_t c_col, std::vector<Key> splits, RouterOptions options,
      const ServingEngine::RecoverSpec& spec,
      std::vector<RecoveryStats>* stats = nullptr);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;
  ~ShardRouter();

  /// Attaches a CM / secondary index to every shard (setup phase only,
  /// like the engine's own attach APIs). A clustered-bucketing target is
  /// re-based per shard over the shard's own key range. The shards build
  /// at once on up to one thread per core; secondary indexes install in
  /// shard order, so their pool file ids follow shard order. On failure,
  /// returns the lowest-numbered failing shard's error: a failed
  /// secondary-index attach attaches nothing, while a failed AttachCm
  /// may leave other shards with the CM (discard the router).
  Status AttachCm(const CmOptions& cm_options);
  Status AttachSecondaryIndex(const std::vector<size_t>& columns);

  /// Scatter-gather select (see the file comment for the routing tiers).
  RoutedSelectResult ExecuteSelect(const Query& query) const;

  /// Routes each row to its owning shard by clustered key and applies the
  /// per-shard groups all-or-nothing: every target shard prepares its
  /// slice (schema arity, capacity) and holds its append lock before any
  /// shard applies, so an error -- bad routing key, arity mismatch, one
  /// shard out of reserved capacity -- leaves every shard untouched and
  /// nothing WAL-logged. Locks are taken in ascending shard order, which
  /// totally orders concurrent multi-shard writes (no deadlock).
  Status ApplyAppend(std::span<const std::vector<Key>> rows);

  /// Tombstones row `row` *of shard `shard`*. expected_epoch is checked
  /// against that shard's recluster epoch (ServingEngine::ApplyDelete).
  Status ApplyDelete(size_t shard, RowId row,
                     uint64_t expected_epoch = ServingEngine::kAnyEpoch);

  /// Updates row `row` of shard `shard` to `new_values` (schema arity).
  /// When the new clustered key stays in `shard`, this is the engine's
  /// atomic tombstone+re-append; when it moves, the row is deleted from
  /// `shard` and appended to its new owner (neither version visible in
  /// between). Both shards validate -- source epoch, bounds, liveness;
  /// target arity, capacity -- before either changes, so an error leaves
  /// both untouched. Crash atomicity across the two shard WALs is not
  /// covered: each shard logs its own half.
  Status ApplyUpdate(size_t shard, RowId row, std::span<const Key> new_values,
                     uint64_t expected_epoch = ServingEngine::kAnyEpoch);

  /// Per-shard recluster/compact passes (each fires independently; the
  /// *All forms run every shard sequentially and fail fast).
  Result<ReclusterStats> Recluster(size_t shard);
  Result<ReclusterStats> Compact(size_t shard);
  Status ReclusterAll();
  Status CompactAll();

  /// Owning shard of clustered key `k`.
  size_t RouteKey(const Key& k) const;

  size_t num_shards() const { return shards_.size(); }
  ServingEngine& shard(size_t i) { return *shards_[i].engine; }
  const ServingEngine& shard(size_t i) const { return *shards_[i].engine; }
  /// Recluster epoch of shard `i` (pass back as expected_epoch).
  uint64_t ShardEpoch(size_t i) const {
    return shards_[i].engine->ReclusterEpoch();
  }
  /// First clustered key of shard i+1, ascending (num_shards()-1 entries).
  const std::vector<Key>& split_keys() const { return splits_; }
  BufferPool* pool() const { return pool_.get(); }
  SharedLookupCache& cache() const { return *cache_; }
  /// The shared observability bundle, when one was attached through
  /// RouterOptions::engine.metrics (null otherwise). Shards record their
  /// own selects into it; the router owns the partition-level gauges and
  /// the router-level trace per scatter.
  obs::ServingMetrics* metrics() const { return metrics_; }

  /// Drops every shared-pool frame and resets each shard's calibration.
  void ResetBufferPool();

  /// Cumulative routing statistics.
  uint64_t SelectsExecuted() const { return selects_.load(); }
  uint64_t ShardsVisitedTotal() const { return shards_visited_.load(); }
  uint64_t ShardsPrunedTotal() const { return shards_pruned_.load(); }
  uint64_t CmPrunedSelects() const { return cm_pruned_selects_.load(); }
  uint64_t ClusteredRoutedSelects() const {
    return clustered_routed_selects_.load();
  }

  /// Every shard's own invariants plus the partition's: split keys
  /// strictly ascending and every live row's clustered key owned by the
  /// shard holding it (call at quiescence).
  Status CheckInvariants() const;

 private:
  struct Shard {
    std::unique_ptr<Table> table;          ///< backs the engine's epoch 0
    std::unique_ptr<ClusteredIndex> cidx;  ///< ditto
    std::unique_ptr<ServingEngine> engine;
  };

  ShardRouter() = default;

  /// The set-up Create and Recover share: builds the shared pool and
  /// cache, adopts the metrics sink and scatter hook, and returns the
  /// per-shard engine options wired to them.
  ServingOptions SharedSetup(const RouterOptions& options);
  void RegisterMetricsGauges();

  size_t c_col_ = 0;
  std::vector<Key> splits_;
  /// Declared before shards_ so they outlive the engines: a shard's
  /// epoch states release their pool files as they are destroyed.
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<SharedLookupCache> cache_;
  std::vector<Shard> shards_;
  obs::ServingMetrics* metrics_ = nullptr;
  std::vector<std::string> gauge_names_;
  /// Shards own worker pools (engine.num_workers > 0): scatter tasks ride
  /// them; otherwise the scatter visits its shards inline.
  bool engines_pooled_ = true;
  std::function<void(const SelectResult&)> on_shard_visit_;

  mutable std::atomic<uint64_t> selects_{0};
  mutable std::atomic<uint64_t> shards_visited_{0};
  mutable std::atomic<uint64_t> shards_pruned_{0};
  mutable std::atomic<uint64_t> cm_pruned_selects_{0};
  mutable std::atomic<uint64_t> clustered_routed_selects_{0};
};

}  // namespace corrmap::serve

#endif  // CORRMAP_SERVE_SHARD_ROUTER_H_

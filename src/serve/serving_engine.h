// The concurrent serving layer: one ServingEngine owns a clustered table
// plus its CorrelationMaps and exposes thread-safe Submit(Query) /
// Append(rows) APIs backed by a fixed worker pool, the shape the paper's
// Fig. 9 mixed insert/select stream takes when driven by many clients.
//
// Epoch-swapped state: everything a select consults -- table, clustered
// index, tail boundary, CM set -- lives in one immutable-shape EpochState
// published through an acquire/release shared_ptr swap. Readers pin the
// current epoch for the duration of a select, so a background Recluster
// (src/serve/recluster.h) can build a successor epoch off to the side and
// swap it in without a reader ever observing a half-moved row.
//
// Read path: every select runs through the cost-based plan choice of
// exec/plan_choice.h -- the same arbiter the offline Executor consults.
// The candidates are a full scan, a clustered-range scan when the query
// predicates the clustered column, and one CM probe per applicable
// attached CM (several CMs over one column compete on cost); each CM
// candidate is costed from the exact CmLookupResult its execution would
// sweep, served from the process-wide SharedLookupCache so costing and
// execution pay one cm_lookup per (CM, predicate, epoch). Costs are
// calibrated by live buffer-pool residency: the engine routes targeted
// sweeps (clustered ranges, CM runs, the tail) through a BufferPool and
// periodically publishes each epoch's decayed per-file hit rates into a
// per-epoch calibration snapshot, so a clustered range the workload keeps
// hot is priced near CPU cost instead of cold I/O (the Fig. 9 gap). Full
// scans read around the pool (ring-buffer style) and stay cold-priced.
// A select runs in three steps: deliberate (resolve lookups, translate
// runs, price every candidate), execute the winner through the shared
// exec/access_path row filters, and record.
//
// Rows appended after the table was clustered live in an unclustered tail
// [clustered_boundary, NumRows); the clustered index does not cover them,
// so every non-scan plan finishes with a sequential tail sweep (a cost
// term every candidate carries). That keeps the probe==scan invariant
// exact under concurrent appends: a row is visible to selects as soon as
// the table publishes it, whether or not its CM entries have landed. A
// recluster returns the tail to zero, bounding the sweep.
//
// Write path: every write -- append, delete, batched delete, update, and
// each engine's share of a router write -- is one transaction: Prepare
// takes the append lock, pins the epoch, and validates everything (epoch,
// arity, row bounds and liveness, capacity) before anything changes;
// Commit then tombstones first, appends second (heap rows, then CM
// maintenance), and logs last. A refused write changes nothing. The table
// publishes each row with a release store and each CM takes its exclusive
// lock only to apply pre-bucketed pairs, so concurrent selects never
// block for longer than one CM update. When the tail reaches
// `recluster_tail_rows`, the write schedules a background recluster on
// the worker pool.
#ifndef CORRMAP_SERVE_SERVING_ENGINE_H_
#define CORRMAP_SERVE_SERVING_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/bucketing.h"
#include "core/cost_model.h"
#include "exec/access_path.h"
#include "exec/plan_choice.h"
#include "exec/predicate.h"
#include "index/clustered_index.h"
#include "index/secondary_index.h"
#include "obs/serving_metrics.h"
#include "serve/concurrent_cm.h"
#include "serve/durability.h"
#include "serve/recluster.h"
#include "serve/shared_lookup_cache.h"
#include "storage/buffer_pool.h"
#include "storage/disk_model.h"
#include "storage/table.h"

namespace corrmap::serve {

/// Registers one callback gauge; the owner records the name so it can
/// unregister the gauge before the state the callback reads goes away.
using GaugeAdder =
    std::function<void(const std::string&, std::function<double()>)>;

/// Registers the five cache_* gauges over `cache` and, when `pool` is
/// non-null, the seven pool_* gauges over it. A standalone engine
/// registers them over its own cache and pool, a ShardRouter over the
/// ones its shards share.
void RegisterCacheAndPoolGauges(const GaugeAdder& add,
                                const SharedLookupCache& cache,
                                const BufferPool* pool);

struct ServingOptions {
  /// Fixed worker pool size for the async Submit/Append APIs.
  size_t num_workers = 4;
  /// Row capacity to pre-reserve in the table. Concurrent readers require
  /// append-without-reallocation (see storage/table.h), so Append refuses
  /// rows beyond the reservation instead of growing it. 0 reserves the
  /// current row count plus kDefaultAppendHeadroom so Append works out of
  /// the box. Each recluster re-reserves the successor table with fresh
  /// headroom, so capacity renews as long as reclusters run.
  size_t reserve_rows = 0;
  static constexpr size_t kDefaultAppendHeadroom = 1 << 16;
  /// Background re-clustering: when > 0, an append that grows the
  /// unclustered tail to this many rows schedules one Recluster pass on
  /// the worker pool (at most one in flight). 0 disables the trigger;
  /// Recluster() can still be called explicitly.
  size_t recluster_tail_rows = 0;
  /// Background compaction: when > 0, a delete/update that raises the
  /// tombstone fraction (NumDeleted / NumRows) to this value schedules one
  /// Compact pass instead -- same single-flight slot as the tail trigger,
  /// and a Compact also drains the tail. 0 disables; Compact() can still
  /// be called explicitly.
  double compact_deleted_fraction = 0;
  /// Buffer pool (in pages) behind the serving read path: targeted sweeps
  /// are routed through it, per-select cost prices hits near CPU cost,
  /// and its decayed per-file hit rates calibrate plan costing. 0
  /// disables the pool -- every page is charged cold and plan costing
  /// runs uncalibrated, the pre-buffer-pool behavior.
  size_t buffer_pool_pages = 4096;
  /// Lock stripes of an engine-owned pool (BufferPool's num_stripes):
  /// concurrent readers charging sweeps lock only their pages' stripes.
  static constexpr size_t kBufferPoolStripes = 8;
  /// Shared infrastructure for engines living behind a ShardRouter: when
  /// non-null the engine uses the router-owned striped pool / lookup cache
  /// instead of creating its own (both must outlive the engine; the pool
  /// is internally thread-safe). buffer_pool_pages is ignored when
  /// shared_pool is set. An engine given a shared_cache is a router shard:
  /// it registers no callback gauges (per-shard registrations would
  /// collide on one name) and leaves the partition-wide ones to the router.
  BufferPool* shared_pool = nullptr;
  SharedLookupCache* shared_cache = nullptr;
  /// Selects between calibration refreshes (pool-stats snapshots into the
  /// current epoch's PlanCalibration). 0 never refreshes.
  size_t calibration_period = 64;
  /// Observability sink (obs/serving_metrics.h): when non-null every
  /// select/write/recluster records counters, cost histograms, a
  /// SelectTrace, and est-vs-actual drift into it (must outlive the
  /// engine). Null -- the default -- skips all instrumentation, so an
  /// unobserved engine pays nothing.
  obs::ServingMetrics* metrics = nullptr;
  /// Durability manager (serve/durability.h): when non-null every
  /// committed write logs one row-write record through its group-commit
  /// WAL and every recluster/compact publish checkpoints the successor
  /// table into it; ServingEngine::Recover rebuilds an engine from its
  /// state after a crash. The engine hands the manager its `metrics` sink,
  /// so the WAL and checkpoint series land where the engine's do. Must
  /// outlive the engine. Null -- the default -- logs nothing and pays
  /// nothing.
  Durability* durability = nullptr;
  /// Simulated-cost reporting (paper Table 1 constants by default).
  DiskModel disk;
};

/// Buffer-pool residency inputs plan costing ran with, snapshotted per
/// epoch (stable between refreshes; a recluster swap starts the successor
/// epoch cold so it re-calibrates against its own files).
struct PlanCalibration {
  double heap_residency = 0;
  double cidx_residency = 0;
  /// Per-extent decayed hit rates of the epoch's heap file
  /// (BufferPool::ResidencyOfWithExtents; entry i covers heap pages
  /// [i*BufferPool::kExtentPages, ...)). Empty until the first refresh;
  /// plan costing falls back to the scalar, so a cold epoch prices
  /// exactly as before extents existed.
  std::vector<double> heap_extents;
  /// Decayed hit rate per attached secondary index's file (attach order).
  std::vector<double> sidx_residency;
};

/// Outcome of one select through the engine.
struct SelectResult {
  uint64_t num_matches = 0;
  uint64_t rows_examined = 0;
  /// Simulated cost of the access pattern; buffer-pool hits are priced at
  /// CPU cost, misses at device cost (all-cold when the pool is off).
  double simulated_ms = 0;
  bool used_cm = false;     ///< answered via a CM probe (plan_kind alias)
  bool cache_hit = false;   ///< chosen CM's lookup came from the cache
  uint64_t recluster_epoch = 0;  ///< EpochState version that served this
  /// Unclustered-tail rows the select swept (0 for seq scans, whose pass
  /// over the tail is part of the scan itself).
  uint64_t tail_rows_swept = 0;

  /// ChosenPlan test hook: what the engine decided and why. `plan` is the
  /// candidate description ("seq_scan", "clustered_index_scan",
  /// "cm_scan(<name>)"), `plan_est_ms` its estimate, and the residency
  /// fields are the calibration snapshot the deliberation used -- enough
  /// for a test to replay the identical choice through
  /// exec::ChooseAccessPlan offline.
  static constexpr size_t kNoCmSlot = ~size_t{0};
  PlanKind plan_kind = PlanKind::kSeqScan;
  std::string plan;
  double plan_est_ms = 0;
  size_t plan_cm_slot = kNoCmSlot;  ///< attach-order slot of the chosen CM
  uint64_t plan_candidates = 0;     ///< candidates deliberated
  double heap_residency = 0;
  double cidx_residency = 0;
};

class ServingEngine {
  // Forward declaration so the public WriteGuard can pin the epoch it
  // validated against (definition in the private section below).
  struct EpochState;

 public:
  /// `table` must already be clustered with `cidx` built over the
  /// clustered column. Both must outlive the engine (they back epoch 0;
  /// after the first recluster the engine serves its own successor
  /// copies, see table()).
  ServingEngine(Table* table, const ClusteredIndex* cidx,
                ServingOptions options = {});
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// One CM to rebuild during recovery. CMs are replay-derived, not
  /// logged (Hermit's stance: correlation structures must be cheaply
  /// rebuildable from base data), so recovery re-attaches them from this
  /// spec. `options.c_buckets` must be null; a positive
  /// `c_bucket_target` rebuilds the positional bucketing over the
  /// recovered clustered region (the per-epoch build parameter AttachCm
  /// remembers anyway).
  struct RecoverCmSpec {
    CmOptions options;
    uint64_t c_bucket_target = 0;
  };
  /// Everything replay-derived that Recover must rebuild on top of the
  /// recovered base table.
  struct RecoverSpec {
    std::vector<RecoverCmSpec> cms;
    std::vector<std::vector<size_t>> secondary_indexes;
  };

  /// Rebuilds a serving engine from `options.durability`'s state after a
  /// crash: clones the last checkpoint snapshot, rebuilds the clustered
  /// index, `spec`'s secondary indexes and its c-bucketed CMs' positional
  /// bucketings over it, replays the committed WAL tail through the
  /// ordinary write path with no CM attached -- row ids re-land exactly
  /// because ids are stable between checkpoints and the recovered row
  /// count evolves identically to the pre-crash run -- and then builds
  /// each of `spec`'s CMs once over the recovered table (calibration
  /// starts cold). Records of uncommitted txns and the torn log tail are
  /// never replayed. The engine comes back with its capacity reservation
  /// re-established and durability re-attached, ready to serve.
  static Result<std::unique_ptr<ServingEngine>> Recover(
      size_t c_col, const ServingOptions& options, const RecoverSpec& spec,
      RecoveryStats* stats = nullptr);

  /// Builds a CM over the current table contents and attaches it.
  /// Setup-phase only: attach every CM before traffic starts (the CM list
  /// itself is unsynchronized; concurrent Submit/ExecuteSelect iterate
  /// it). Clustered-attribute bucketing is admitted: the engine copies the
  /// bucketing, skips CM maintenance for tail rows (positional bucket ids
  /// do not extend past the clustered region; the tail sweep covers them),
  /// and every recluster rebuilds the bucketing over the merged region.
  /// A c-bucketed CM therefore goes stale only as far as the tail the
  /// sweep already pays for, and reclusters re-base it.
  Status AttachCm(CmOptions cm_options);

  /// Builds a secondary B+Tree index over `columns` and attaches it, so
  /// the sorted-index plan family competes in ChooseAccessPlan. Setup
  /// phase only, like AttachCm. Per-epoch contract mirrors c-bucketed
  /// CMs: the index covers exactly the clustered region [0, boundary) --
  /// appends do NOT maintain it (the tail sweep serves tail rows), rows
  /// tombstoned mid-epoch stay indexed (execution re-filters them), and
  /// every recluster rebuilds it over the successor's merged region. The
  /// per-epoch index is therefore immutable once built: lock-free reads.
  Status AttachSecondaryIndex(std::vector<size_t> columns);

  /// Synchronous thread-safe select; Submit routes here from the pool.
  SelectResult ExecuteSelect(const Query& query) const;

  /// What one write changes on one engine: rows to tombstone, then rows
  /// to append (physical keys, schema arity). A committed write is one
  /// WAL record of the rows it tombstoned and the rows it appended; one
  /// that does both is an update (kRowUpdate, counted as an update).
  struct WriteSet {
    std::span<const RowId> deletes{};
    std::span<const std::vector<Key>> appends{};
    /// Batched-delete idempotence: rows already tombstoned (before or
    /// earlier in this batch) are skipped instead of refused with NotFound.
    bool skip_dead = false;
  };

  /// A validated, not yet applied write holding this engine's append lock
  /// and the epoch it validated against, so nothing the validation checked
  /// can change before Commit. Obtained from Prepare; pass it to Commit to
  /// apply, or let it go out of scope to abort with nothing applied and
  /// the lock released. Movable, not copyable.
  class WriteGuard {
   public:
    WriteGuard() = default;
    WriteGuard(WriteGuard&&) = default;
    WriteGuard& operator=(WriteGuard&&) = default;
    bool valid() const { return lock_.owns_lock(); }

   private:
    friend class ServingEngine;
    std::unique_lock<std::mutex> lock_;
    std::shared_ptr<EpochState> state_;
  };

  /// Epoch sentinel for writes: apply against whatever epoch is current.
  static constexpr uint64_t kAnyEpoch = ~uint64_t{0};

  /// Phase 1 of every write: takes the append lock, pins the current
  /// epoch, and validates all of `w` against it, changing nothing. Errors,
  /// checked in this order: Aborted when `expected_epoch` is not kAnyEpoch
  /// and the epoch has moved (row ids were permuted; counted once in
  /// write_conflicts -- re-resolve and retry); InvalidArgument for an
  /// append row of the wrong arity; OutOfRange for a delete past the
  /// published row count; NotFound for a delete of a tombstoned row
  /// (unless skip_dead); ResourceExhausted when the appends overrun the
  /// table's reservation (a recluster renews it). On error the lock is
  /// released and `out` stays invalid. A ShardRouter prepares every shard
  /// a write touches in ascending shard order, which totally orders the
  /// cross-shard lock acquisition (no deadlock).
  Status Prepare(uint64_t expected_epoch, const WriteSet& w,
                 WriteGuard* out);

  /// Phase 2: applies `w` -- the exact write `guard` validated -- under
  /// the still-held lock, then releases it. Tombstones first, then
  /// retracts the dead rows' pairs from every CM covering them (between
  /// the two a probe may over-cover, never under-cover: every access path
  /// re-filters through the tombstone bitmap); then appends the rows to
  /// the heap and only then to the CMs (a select racing it finds the new
  /// rows through the tail sweep); then logs the rows it tombstoned and
  /// appended, so the log order is the apply order. c-bucketed CMs never
  /// cover tail rows: appends skip them and so do retractions of tail
  /// rows. Returns a CM's error only
  /// if its pairs had drifted from the live rows (an invariant violation);
  /// the write is applied and logged regardless.
  Status Commit(WriteGuard* guard, const WriteSet& w);

  /// Synchronous thread-safe append of whole rows (physical keys, schema
  /// arity): Prepare + Commit of an append-only WriteSet.
  Status ApplyAppend(std::span<const std::vector<Key>> rows);

  /// Synchronous thread-safe delete of one live row: the retraction's
  /// epoch bump makes SharedLookupCache entries covering its key go
  /// stale. Row ids are permuted by recluster/compaction swaps, so a
  /// caller holding a row id resolved against epoch E passes
  /// expected_epoch=E and gets Aborted if the engine has moved on.
  Status ApplyDelete(RowId row, uint64_t expected_epoch = kAnyEpoch);

  /// Batched ApplyDelete under one lock acquisition and one epoch bracket
  /// per CM. Rows already tombstoned are skipped (idempotent, so a batch
  /// never half-fails on a double delete); one row past the end refuses
  /// the whole batch.
  Status ApplyDeletes(std::span<const RowId> rows,
                      uint64_t expected_epoch = kAnyEpoch);

  /// Synchronous thread-safe update = tombstone + tail re-append in one
  /// transaction: the new version gets a new row id (epochs permute ids
  /// anyway); a concurrent select between the two steps sees neither
  /// version, which keeps probe==scan exact (both sides miss it).
  Status ApplyUpdate(RowId row, std::span<const Key> new_values,
                     uint64_t expected_epoch = kAnyEpoch);

  /// Async APIs backed by the worker pool.
  std::future<SelectResult> Submit(Query query) {
    return Async([this, q = std::move(query)] { return ExecuteSelect(q); });
  }
  std::future<Status> Append(std::vector<std::vector<Key>> rows) {
    return Async([this, r = std::move(rows)] { return ApplyAppend(r); });
  }
  std::future<Status> Delete(RowId row) {
    return Async([this, row] { return ApplyDelete(row); });
  }
  std::future<Status> Update(RowId row, std::vector<Key> new_values) {
    return Async([this, row, v = std::move(new_values)] {
      return ApplyUpdate(row, v);
    });
  }

  /// Runs `fn` on this engine's worker pool -- the router's parallel
  /// scatter posts its per-shard select tasks here so the gather rides
  /// the pools the shards already own. Requires num_workers > 0 (a
  /// pool-less engine never drains its queue; the router visits
  /// pool-less shards inline instead).
  void Post(std::function<void()> fn);

  /// Runs one synchronous recluster pass (serialized against concurrent
  /// passes): merges the tail into the clustered region, patches the
  /// clustered index, rebuilds/re-bases the CMs, and swaps the epoch.
  /// Selects and appends keep running throughout. No-op when the tail is
  /// empty.
  Result<ReclusterStats> Recluster();

  /// Runs one synchronous compacting recluster: same two-phase pass as
  /// Recluster(), but tombstoned rows are dropped from the successor copy
  /// (heap shrinks, index boundaries contract, CMs rebuild over live rows
  /// only). Deletes racing the pass are carried as successor tombstones,
  /// never resurrected. No-op when the tail is empty and nothing is
  /// tombstoned.
  Result<ReclusterStats> Compact();

  /// Re-arms the background trigger (ServingOptions::recluster_tail_rows)
  /// at runtime; benches toggle this between phases.
  void set_recluster_tail_rows(size_t rows) {
    recluster_tail_rows_.store(rows, std::memory_order_relaxed);
  }

  /// Re-arms the background compaction trigger
  /// (ServingOptions::compact_deleted_fraction) at runtime.
  void set_compact_deleted_fraction(double fraction) {
    compact_deleted_fraction_.store(fraction, std::memory_order_relaxed);
  }

  /// The calibration snapshot the current epoch's selects are pricing
  /// with (zeros when the pool is disabled or not yet refreshed).
  PlanCalibration CurrentCalibration() const;

  /// Drops every buffer-pool frame and resets the current epoch's
  /// calibration to cold -- the drop_caches step between A/B trials.
  void ResetBufferPool();

  /// The deliberation ExecuteSelect would run right now (candidates,
  /// estimates, winner), without executing: ExecuteSelect's own first
  /// step, on the same epoch snapshot, shared lookup cache, and
  /// calibration inputs.
  PlanSet PlanSelect(const Query& query) const;

  /// Stops the pool, waits for queued work, and restarts with `n` workers
  /// (benchmarks sweep pool sizes on one engine).
  void ResizeWorkerPool(size_t n);

  /// Router pruning hook: true when this engine provably has no rows
  /// matching `query` -- the first applicable CM's lookup is empty AND the
  /// unclustered tail is empty (a non-empty tail may hold matches the CM
  /// has not indexed yet, so it always forces a visit). `*applicable` says
  /// whether any attached CM applied; when false the router must fall back
  /// to a full scatter. The CM lookup is resolved through the shared
  /// cache, so a subsequent ExecuteSelect on this engine reuses it.
  bool CanSkipForQuery(const Query& query, bool* applicable) const;

  /// Unbucketed CMs carried across recluster swaps by snapshot copy
  /// instead of an O(rows) re-hash (test hook for the satellite).
  uint64_t CmSnapshotCopies() const {
    return cm_snapshot_copies_.load(std::memory_order_relaxed);
  }

  size_t num_cms() const;
  size_t num_secondary_indexes() const { return sidx_columns_.size(); }
  SharedLookupCache& cache() const { return *cache_; }
  /// The observability sink selects/writes record into (null when
  /// unobserved). The WorkloadDriver mirrors its wall latencies here so
  /// driver reports and registry quantiles agree.
  obs::ServingMetrics* metrics() const { return metrics_; }
  /// Jobs waiting in the worker-pool queue right now (exported as the
  /// serve_queue_depth gauge).
  size_t QueueDepth() const {
    std::lock_guard<std::mutex> lock(queue_mu_);
    return queue_.size();
  }
  /// The pool behind the serving read path (null when disabled). Shared
  /// with the router and sibling shards when options.shared_pool was set.
  BufferPool* pool() const { return pool_; }
  /// First row of the unclustered append tail (current epoch).
  RowId clustered_boundary() const;
  /// Rows currently in the unclustered tail (current epoch).
  size_t TailRows() const;
  /// Version of the current EpochState (bumped by every recluster swap).
  uint64_t ReclusterEpoch() const;
  /// Recluster passes that actually swapped an epoch.
  uint64_t ReclustersCompleted() const {
    return reclusters_completed_.load(std::memory_order_acquire);
  }
  /// Background passes that returned an error (each failed attempt still
  /// paid its phase-1 build; a nonzero count with a growing tail means
  /// the engine is burning copies without ever swapping -- investigate).
  uint64_t ReclusterFailures() const {
    return recluster_failures_.load(std::memory_order_acquire);
  }
  /// The table / i-th CM of the *current* epoch. References are only
  /// stable while no recluster can run (setup, quiescent checks): a swap
  /// retires the epoch that backs them once the last reader drops it.
  const Table& table() const;
  const ConcurrentCorrelationMap& cm(size_t i) const;
  /// Clustered index of the current epoch (same stability caveat).
  const ClusteredIndex& cidx() const;
  /// Buffer-pool file ids of the current epoch: heap, clustered index,
  /// then each secondary index in attach order (all 0 with no pool). The
  /// ids pick the pool stripes, so they decide hit/miss sequences.
  std::vector<uint32_t> PoolFiles() const;

  /// Invariants of every attached CM plus the epoch's physical
  /// layout: the clustered region must be sorted on the clustered column
  /// and the boundary within the row count (call at quiescence).
  Status CheckInvariants() const;

 private:
  friend class Reclusterer;
  friend class ShardRouter;

  /// Recover's two halves, split so a router can open its shards in
  /// order and then rebuild and replay them all at once. OpenCheckpoint
  /// clones the checkpoint, builds its clustered index and constructs the
  /// engine with durability detached and the background triggers
  /// disarmed; it draws every pool file id the recovered engine will hold,
  /// one per `spec` secondary index included (`*sidx_files`), so opening
  /// shards in order issues ids exactly as recovering them one after
  /// another does. ReplayTail builds `spec`'s secondary indexes into those
  /// ids, replays the committed log tail, builds `spec`'s CMs and
  /// re-attaches durability; it touches no state another engine's
  /// ReplayTail does.
  /// Each half adds its own wall time to `stats->wall_seconds`.
  static Result<std::unique_ptr<ServingEngine>> OpenCheckpoint(
      size_t c_col, const ServingOptions& options, const RecoverSpec& spec,
      std::vector<uint32_t>* sidx_files, RecoveryStats* stats);
  Status ReplayTail(const ServingOptions& options, const RecoverSpec& spec,
                    std::span<const uint32_t> sidx_files,
                    RecoveryStats* stats);

  /// AttachSecondaryIndex's two halves: the build reads only the current
  /// epoch's table, so a router builds every shard's index at once; the
  /// install publishes it under pool file id `file`, which the caller
  /// draws (RegisterPoolFile) in the order a one-shard-at-a-time attach
  /// would.
  Result<std::unique_ptr<SecondaryIndex>> BuildSecondaryIndex(
      const std::vector<size_t>& columns) const;
  void InstallSecondaryIndex(std::vector<size_t> columns,
                             std::unique_ptr<SecondaryIndex> idx,
                             uint32_t file);
  /// A fresh pool file id (0 with no pool).
  uint32_t RegisterPoolFile() const;

  /// Mutable calibration slot of one epoch: the published residency
  /// snapshot plan costing reads (stable between refreshes) plus the
  /// refresh countdown. Lives behind a unique_ptr inside the
  /// immutable-shape EpochState so refreshes never move the epoch.
  struct CalibrationCell {
    mutable std::shared_mutex mu;
    PlanCalibration calib;
    std::atomic<uint64_t> selects_since{0};
  };

  /// One immutable serving epoch. Readers pin it (shared_ptr) for the
  /// duration of a select; the recluster pass publishes a successor and
  /// the predecessor dies with its last reader. Epoch 0 borrows the
  /// caller's table/cidx; successors own theirs.
  struct EpochState {
    EpochState() = default;
    EpochState(const EpochState&) = delete;
    EpochState& operator=(const EpochState&) = delete;
    /// Releases this epoch's pool files (BufferPool::ForgetFile): once the
    /// last reader drops the state nothing touches them again.
    ~EpochState();

    uint64_t version = 0;
    Table* table = nullptr;
    const ClusteredIndex* cidx = nullptr;
    RowId clustered_boundary = 0;
    /// Parallel to the attach order. c_bucketings[i] owns the clustered
    /// bucketing cms[i] points at (null for unbucketed CMs).
    std::vector<std::unique_ptr<ConcurrentCorrelationMap>> cms;
    std::vector<std::unique_ptr<ClusteredBucketing>> c_bucketings;
    std::unique_ptr<Table> owned_table;
    std::unique_ptr<ClusteredIndex> owned_cidx;
    /// Buffer-pool identities of this epoch's heap and clustered-index
    /// "files" (a recluster successor gets fresh ids, so the
    /// predecessor's frames age out instead of aliasing), plus the
    /// epoch's calibration snapshot (starts cold, re-calibrates from the
    /// pool's decayed per-file hit rates every calibration_period
    /// selects).
    uint32_t heap_file = 0;
    uint32_t cidx_file = 0;
    /// The pool the files above belong to (null when pool-less); it
    /// outlives every epoch state of the engine.
    BufferPool* pool = nullptr;
    std::unique_ptr<CalibrationCell> calibration;
    /// Attached secondary indexes (attach order), each covering exactly
    /// the clustered region [0, clustered_boundary) of THIS epoch and
    /// immutable once the epoch is published (appends/deletes do not
    /// maintain them; see AttachSecondaryIndex), so reads are lock-free.
    std::vector<std::unique_ptr<SecondaryIndex>> sidx;
    std::vector<uint32_t> sidx_files;  ///< pool identities, attach order
  };

  std::shared_ptr<EpochState> CurrentState() const {
    std::shared_lock lock(state_mu_);
    return state_;
  }
  void PublishState(std::shared_ptr<EpochState> next) {
    std::unique_lock lock(state_mu_);
    state_ = std::move(next);
  }

  void StartWorkers(size_t n);
  void StopWorkers();
  void Enqueue(std::function<void()> fn);
  /// Queues `fn` on the worker pool; the future carries its result.
  template <class Fn>
  auto Async(Fn fn) -> std::future<decltype(fn())> {
    auto task =
        std::make_shared<std::packaged_task<decltype(fn())()>>(std::move(fn));
    auto fut = task->get_future();
    Enqueue([task] { (*task)(); });
    return fut;
  }
  void WorkerLoop();
  void MaybeScheduleRecluster(const EpochState& st);

  /// Registers this engine's callback gauges with metrics_'s registry
  /// (and records their names so the destructor can unregister before the
  /// captured `this` dangles). Not called for router shards.
  void RegisterMetricsGauges();

  /// Prepare + Commit: the whole single-engine write transaction.
  Status Write(uint64_t expected_epoch, const WriteSet& w);

  /// Registers the epoch's heap/cidx files with the pool and installs a
  /// cold calibration cell. Called for epoch 0 and for every recluster
  /// successor before it is published.
  void InitEpochCalibration(EpochState* st) const;
  PlanCalibration CalibrationOf(const EpochState& st) const;
  /// Counts this select toward the epoch's refresh period and, when it
  /// elapses, republishes the calibration from the pool's decayed
  /// per-file hit rates.
  void MaybeRefreshCalibration(const EpochState& st) const;

  /// Slot `slot`'s lookup for `preds`, from or published to the shared
  /// cache (`*hit` says which).
  SharedLookupCache::ResultPtr LookupThroughCache(
      const EpochState& st, size_t slot,
      std::span<const CmColumnPredicate> preds, bool* hit) const;

  /// Prices a set of heap page runs through the buffer pool (hits near
  /// CPU cost, misses at device cost, one seek per run) and admits the
  /// touched pages; cold DiskModel arithmetic when the pool is off.
  double ChargeHeapRuns(const EpochState& st,
                        std::span<const PageRun> runs) const;
  /// Prices `leaves.size()` clustered-index descents: per descent, the
  /// shared upper levels plus one leaf page (leaves are proxied by the
  /// heap page of the range start, so leaf residency tracks hot ranges).
  double ChargeDescents(const EpochState& st,
                        std::span<const PageNo> leaves) const;
  /// ChargeDescents generalized to any index file/height (secondary
  /// indexes price through it with their own pool identity).
  double ChargeDescentsOf(uint32_t file, size_t height,
                          std::span<const PageNo> leaves) const;

  /// One resolved sorted-index candidate: the exact sorted rid set the
  /// execution would sweep (clustered-region rows, live at resolve time)
  /// plus its coalesced heap page runs. Resolved once per select and
  /// shared between costing (SortedIndexCostMs) and execution.
  struct SidxPlan {
    size_t slot = 0;
    std::vector<RowId> rids;
    std::vector<PageRun> runs;
    size_t n_probes = 1;
  };
  /// Resolves every applicable attached secondary index for `query` (a
  /// predicate on the index's first column makes it applicable -- the
  /// composite-prefix rule of SecondaryIndex::LookupRange).
  void ResolveSidxPlans(const EpochState& st, const Query& query,
                        std::vector<SidxPlan>* plans) const;

  /// Everything one select decided in its deliberate step, kept for the
  /// execute step so it reuses the lookups, translations, and rid sets
  /// the winner was priced from instead of redoing them. Vectors over CM
  /// slots are parallel to the attach order.
  struct SelectPlan {
    PlanSet plans;
    PlanCalibration calib;
    /// Published row count snapshotted once: every row below it is fully
    /// written (release/acquire pairing with the append path).
    size_t n_rows = 0;
    /// views[i].lookup points into lookups[i], views[i].row_ranges into
    /// cm_ranges[i].ranges.
    std::vector<CmPlanView> views;
    std::vector<SharedLookupCache::ResultPtr> lookups;
    std::vector<uint8_t> cache_hits;
    std::vector<CmRowRanges> cm_ranges;
    std::vector<SidxPlan> sidx_plans;
  };

  /// Deliberate: resolves every applicable CM's lookup through the shared
  /// cache and translates its runs (the row ranges also feed the
  /// extent-granular residency refinement), resolves the sorted-index
  /// candidates, and prices everything through ChooseAccessPlan under the
  /// epoch's calibration.
  SelectPlan Deliberate(const EpochState& st, const Query& query) const;
  /// Execute: runs the plan's winner plus the tail sweep through the
  /// shared row filters, pricing every targeted page through the buffer
  /// pool (full scans read around it and stay cold).
  SelectResult ExecutePlan(const EpochState& st, const Query& query,
                           const SelectPlan& plan) const;
  /// Record: advances the calibration refresh period and, when observed,
  /// records the select's trace.
  void RecordSelect(const EpochState& st, const Query& query,
                    const SelectPlan& plan, const SelectResult& out) const;

  ServingOptions options_;
  std::atomic<size_t> recluster_tail_rows_;
  std::atomic<double> compact_deleted_fraction_;
  CostModel cost_model_;
  /// Serving-path buffer pool (null when disabled); internally
  /// thread-safe via lock striping. Either owned by this engine or shared
  /// across sibling shards through ServingOptions::shared_pool.
  BufferPool* pool_ = nullptr;
  std::unique_ptr<BufferPool> owned_pool_;
  /// Attach-order CM configs (c_buckets cleared; targets kept aside) so a
  /// recluster can re-instantiate every CM against the successor table.
  std::vector<CmOptions> attached_;
  std::vector<uint64_t> c_bucket_targets_;  ///< 0 = unbucketed slot
  /// Attach-order secondary-index column sets (recluster rebuilds each
  /// per successor epoch).
  std::vector<std::vector<size_t>> sidx_columns_;
  /// Stable cache identities, one per attached CM: the SharedLookupCache
  /// keys on (slot address, fingerprint, epoch), and the slot address
  /// outlives the per-epoch CM objects, so successor epochs lazily evict
  /// predecessors' entries through the ordinary stale-epoch path.
  std::vector<std::unique_ptr<uint64_t>> cm_slot_tags_;

  std::shared_ptr<EpochState> state_;
  mutable std::shared_mutex state_mu_;
  SharedLookupCache* cache_ = nullptr;  ///< owned or router-shared
  std::unique_ptr<SharedLookupCache> owned_cache_;
  mutable std::atomic<uint64_t> cm_snapshot_copies_{0};

  std::mutex append_mu_;     ///< serializes write transactions end-to-end
  /// Rows deleted in the current epoch's id space, in order (guarded by
  /// append_mu_). A recluster snapshots its watermark before the phase-1
  /// tombstone reads and replays everything logged after it against the
  /// successor, so a delete racing the deep copy is carried, never
  /// resurrected; the publishing pass clears the log.
  std::vector<RowId> delete_log_;
  std::mutex recluster_mu_;  ///< serializes recluster passes
  std::atomic<bool> recluster_pending_{false};
  std::atomic<uint64_t> reclusters_completed_{0};
  std::atomic<uint64_t> recluster_failures_{0};

  /// Durability manager (null = no logging). Writes log through it under
  /// append_mu_; the recluster publish checkpoints into it under the same
  /// lock, so log order always equals apply order.
  Durability* durability_ = nullptr;

  /// Observability sink plus the gauge names this engine registered (to
  /// unregister in the destructor; the callbacks capture `this`).
  obs::ServingMetrics* metrics_ = nullptr;
  std::vector<std::string> gauge_names_;

  /// One queued job; `enqueued` is stamped only when metrics_ is set (it
  /// feeds the serve_queue_wait_us histogram).
  struct QueuedJob {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };
  std::vector<std::thread> workers_;
  std::deque<QueuedJob> queue_;
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  bool stopping_ = false;
};

}  // namespace corrmap::serve

#endif  // CORRMAP_SERVE_SERVING_ENGINE_H_

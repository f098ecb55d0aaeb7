// The Correlation Map (paper §5): a compressed secondary access structure
// mapping each distinct (possibly bucketed, possibly composite) value of an
// unclustered attribute set Au to the set of co-occurring clustered values
// (or clustered bucket ids) of Ac, with per-pair co-occurrence counts so
// deletes can retract entries (Algorithm 1).
//
// A CM answers cm_lookup({v1..vN}) with the clustered ordinals whose ranges
// must be swept; the executor re-filters swept rows on the original
// predicate, so bucketing introduces false positives but never false
// negatives.
//
// Two lookup paths exist. Point predicates probe the hash map directly.
// Range predicates binary-search a sorted bucket-ordinal directory (one
// sorted (ordinal, entry) vector per CM attribute) to a contiguous run of
// u-keys, instead of scanning the whole map as the original representation
// required. Maintenance queues added/erased u-keys as a delta; the next
// sync merges a small sorted delta into the directory in place and only
// rebuilds wholesale when the dirty set is large.
#ifndef CORRMAP_CORE_CORRELATION_MAP_H_
#define CORRMAP_CORE_CORRELATION_MAP_H_

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "core/bucketing.h"
#include "storage/table.h"

namespace corrmap {

/// Packed CM key: bucket ordinals of up to kMaxCmAttributes unclustered
/// attributes.
struct CmKey {
  std::array<int64_t, kMaxCmAttributes> v{};
  uint8_t n = 0;

  /// Appends one ordinal. Appending beyond kMaxCmAttributes is a bug
  /// (asserts in debug builds) and is clamped -- never written past the
  /// array -- in release builds.
  void Append(int64_t ordinal) {
    assert(n < kMaxCmAttributes && "CmKey arity exceeded");
    if (n >= kMaxCmAttributes) return;
    v[n++] = ordinal;
  }
  bool operator==(const CmKey& o) const {
    if (n != o.n) return false;
    for (size_t i = 0; i < n; ++i) {
      if (v[i] != o.v[i]) return false;
    }
    return true;
  }
  /// Lexicographic order over (arity, ordinals); used by the batched
  /// maintenance path to sort-and-group a batch by u-key.
  bool operator<(const CmKey& o) const {
    if (n != o.n) return n < o.n;
    for (size_t i = 0; i < n; ++i) {
      if (v[i] != o.v[i]) return v[i] < o.v[i];
    }
    return false;
  }
  std::string ToString() const;
};

struct CmKeyHash {
  size_t operator()(const CmKey& k) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ k.n;
    for (size_t i = 0; i < k.n; ++i) h = Mix64(h ^ uint64_t(k.v[i]));
    return h;
  }
};

/// Per-CM-column predicate for cm_lookup.
struct CmColumnPredicate {
  enum class Kind : uint8_t { kPoints, kRange };
  Kind kind = Kind::kPoints;
  std::vector<Key> points;  ///< kPoints: equality / IN literals (physical)
  double lo = 0, hi = 0;    ///< kRange: closed numeric interval

  static CmColumnPredicate Points(std::vector<Key> pts) {
    CmColumnPredicate p;
    p.kind = Kind::kPoints;
    p.points = std::move(pts);
    return p;
  }
  static CmColumnPredicate Range(double lo, double hi) {
    CmColumnPredicate p;
    p.kind = Kind::kRange;
    p.lo = lo;
    p.hi = hi;
    return p;
  }
};

/// Order-sensitive 64-bit fingerprint of a compiled CM predicate vector
/// (kind, point keys, range bounds per column). Cache layers use it --
/// together with CM identity and the concurrent wrapper's maintenance
/// epoch -- to key reusable lookup results.
uint64_t FingerprintCmPredicates(std::span<const CmColumnPredicate> preds);

/// Closed, contiguous run [lo, hi] of clustered ordinals.
struct OrdinalRange {
  int64_t lo = 0;
  int64_t hi = 0;
  bool operator==(const OrdinalRange&) const = default;
};

/// Result of one cm_lookup, shaped for reuse: the sorted distinct clustered
/// ordinals are run-length encoded into maximal runs of consecutive
/// ordinals (adjacent clustered bucket ids, adjacent raw keys). The
/// executor computes this once per (CM, Query) and shares it between
/// costing and execution (see CmLookupCache in exec/access_path.h).
struct CmLookupResult {
  std::vector<OrdinalRange> ranges;  ///< sorted, disjoint, coalesced
  uint64_t num_ordinals = 0;         ///< distinct ordinals across all ranges
  /// (u-key, ordinal) pairs inspected to answer -- the unit of NumEntries
  /// and of the paper's one-row-per-pair physical representation, so this
  /// is what an uncached lookup would read from disk.
  uint64_t entries_probed = 0;
  bool used_directory = false;       ///< answered via the sorted directory

  bool empty() const { return ranges.empty(); }
  /// Expands the runs back into the sorted distinct ordinal list.
  std::vector<int64_t> ToOrdinals() const;
};

/// Configuration of one CM.
struct CmOptions {
  std::vector<size_t> u_cols;        ///< CM attributes (<= 4)
  std::vector<Bucketer> u_bucketers; ///< parallel to u_cols
  size_t c_col = 0;                  ///< clustered attribute
  /// Optional clustered-attribute bucketing; when null the CM maps to raw
  /// clustered values (the paper's base structure, e.g. city -> {states}).
  const ClusteredBucketing* c_buckets = nullptr;
};

/// The Correlation Map.
class CorrelationMap {
 public:
  /// Creates an empty CM over `table` with the given options.
  static Result<CorrelationMap> Create(const Table* table, CmOptions options);

  /// Moves keep the directory: its entry pointers target map nodes, which
  /// unordered_map moves intact. Copies must NOT share it -- the copied
  /// pointers would still target the source's nodes -- so a copy starts
  /// with a dirty directory and rebuilds on first range lookup.
  CorrelationMap(CorrelationMap&& o) noexcept
      : table_(o.table_),
        options_(std::move(o.options_)),
        map_(std::move(o.map_)),
        num_entries_(o.num_entries_),
        directory_(std::move(o.directory_)),
        directory_full_rebuild_(o.directory_full_rebuild_),
        delta_added_(std::move(o.delta_added_)),
        delta_erased_(std::move(o.delta_erased_)),
        directory_full_rebuilds_(o.directory_full_rebuilds_),
        directory_incremental_merges_(o.directory_incremental_merges_),
        lookups_computed_(o.lookups_computed_.load()) {}
  CorrelationMap& operator=(CorrelationMap&& o) noexcept {
    if (this != &o) {
      table_ = o.table_;
      options_ = std::move(o.options_);
      map_ = std::move(o.map_);
      num_entries_ = o.num_entries_;
      directory_ = std::move(o.directory_);
      directory_full_rebuild_ = o.directory_full_rebuild_;
      delta_added_ = std::move(o.delta_added_);
      delta_erased_ = std::move(o.delta_erased_);
      directory_full_rebuilds_ = o.directory_full_rebuilds_;
      directory_incremental_merges_ = o.directory_incremental_merges_;
      lookups_computed_.store(o.lookups_computed_.load());
    }
    return *this;
  }
  CorrelationMap(const CorrelationMap& o)
      : table_(o.table_),
        options_(o.options_),
        map_(o.map_),
        num_entries_(o.num_entries_) {}
  CorrelationMap& operator=(const CorrelationMap& o) {
    if (this != &o) *this = CorrelationMap(o);  // copy, then move-assign
    return *this;
  }

  /// One (u-key, clustered ordinal, co-occurrence count) row of the map.
  struct Record {
    CmKey u;
    int64_t c_ordinal;
    uint32_t count;
  };

  /// Algorithm 1: full-scan build (also usable after Create on a non-empty
  /// table). Skips deleted rows.
  Status BuildFromTable();

  /// Algorithm 1's scan, aggregated as it goes: one record per distinct
  /// (u-key, clustered ordinal) pair of the live rows below `row_limit`,
  /// counting the rows that share it, sorted by (u-key, ordinal). Rows fold
  /// into a flat hash index, so only the distinct pairs -- not one pair per
  /// row -- are sorted. Reads the table only, so the serving wrapper's bulk
  /// build runs it outside its lock and hands the result to LoadRecords.
  std::vector<Record> LiveRecords(size_t row_limit = ~size_t{0}) const;

  /// Maintenance for a single row currently present in the table.
  void InsertRow(RowId row);
  Status DeleteRow(RowId row);

  /// Batched maintenance (ROADMAP sort-and-merge): buckets each row once,
  /// sorts the batch by (u-key, clustered ordinal), and applies one map
  /// upsert per distinct pair instead of one hash traversal per row.
  /// Post-state is identical to calling InsertRow per row. Returns the
  /// number of distinct (u-key, ordinal) groups applied.
  size_t InsertRowsBatched(std::span<const RowId> rows);

  /// Maintenance from explicit attribute values (used by batched loaders
  /// before rows land in the table). `u_keys` parallel to u_cols.
  void InsertValues(std::span<const Key> u_keys, int64_t c_ordinal);
  Status DeleteValues(std::span<const Key> u_keys, int64_t c_ordinal);

  /// Precomputed-pair maintenance: the caller already bucketed the row to
  /// its (u-key, clustered ordinal) pair. The concurrent serving wrapper
  /// (src/serve/concurrent_cm.h) buckets rows before taking its exclusive
  /// lock and passes the pairs down, so the lock covers only the map
  /// update. Post-state is identical to InsertRow/DeleteRow on the source
  /// row.
  void UpsertPair(const CmKey& u_key, int64_t c_ordinal, uint32_t count = 1);
  Status RetractPair(const CmKey& u_key, int64_t c_ordinal);
  /// Batched UpsertPair: sorts the batch and applies one map upsert per
  /// distinct pair (the InsertRowsBatched engine underneath). Takes the
  /// batch by value -- callers hand over their freshly built vector --
  /// because sorting mutates it; no copy on the serving hot path. Returns
  /// the number of distinct (u-key, ordinal) groups applied.
  size_t UpsertPairsBatched(std::vector<std::pair<CmKey, int64_t>> pairs);
  /// Batched RetractPair: sorts the batch and subtracts one aggregated
  /// count per distinct pair. NotFound if any pair is not mapped (the
  /// retraction then stops; the map is corrupt regardless, since counts
  /// must mirror live rows).
  Status RetractPairsBatched(std::vector<std::pair<CmKey, int64_t>> pairs);

  /// Clustered ordinal for a row (bucket id, or the order-preserving
  /// raw-key encoding when the clustered attribute is unbucketed).
  int64_t ClusteredOrdinalOfRow(RowId row) const;

  /// Bucketed u-key of a row / of explicit attribute values. Public so the
  /// concurrent wrapper can bucket outside its lock without
  /// re-implementing the bucketing.
  CmKey UKeyOfRow(RowId row) const;
  CmKey UKeyOfValues(std::span<const Key> u_keys) const;

  /// cm_lookup (§5.2): clustered ordinals co-occurring with any u-key
  /// matching all column predicates (one per CM attribute, in u_cols
  /// order), as coalesced sorted runs. Point predicates probe the hash
  /// map; range predicates binary-search the sorted bucket-ordinal
  /// directory to a contiguous run of u-keys (rebuilt lazily after
  /// maintenance) instead of scanning the map.
  CmLookupResult Lookup(std::span<const CmColumnPredicate> preds) const;

  /// Reference implementation of Lookup that always scans every u-key of
  /// the map (the pre-directory behavior). Kept for equivalence tests and
  /// the scan-vs-probe benches; returns identical ordinals to Lookup.
  CmLookupResult LookupViaScan(std::span<const CmColumnPredicate> preds) const;

  /// True when any column carries a range predicate (those take the
  /// sorted-directory path; all-points vectors probe the hash map).
  static bool HasRangePredicate(std::span<const CmColumnPredicate> preds);

  /// Legacy vector-of-ordinals facade over Lookup(). Sorted ascending,
  /// deduplicated.
  std::vector<int64_t> CmLookup(std::span<const CmColumnPredicate> preds) const;

  /// Decodes a clustered ordinal back to a Key when unbucketed (raw-key
  /// encoding); only valid if !has_clustered_buckets().
  Key DecodeClusteredOrdinal(int64_t ordinal) const;

  bool has_clustered_buckets() const { return options_.c_buckets != nullptr; }
  const CmOptions& options() const { return options_; }
  const Table& table() const { return *table_; }

  /// Distinct u-keys currently mapped.
  size_t NumUKeys() const { return map_.size(); }
  /// Total (u-key, clustered ordinal) pairs ("every unique pair", §5.3).
  size_t NumEntries() const { return num_entries_; }

  /// Lookups actually computed (Lookup/LookupViaScan calls). Executor
  /// cache hits reuse a result without recomputing, so this is the test
  /// hook for the one-lookup-per-(CM, Query) guarantee.
  uint64_t LookupsComputed() const {
    return lookups_computed_.load(std::memory_order_relaxed);
  }

  /// True when the sorted bucket-ordinal directory reflects the map exactly
  /// (no pending delta, no rebuild scheduled): a range Lookup will not
  /// mutate directory state. Concurrent wrappers use this to decide
  /// between a shared-lock fast path and an exclusive-lock rebuild.
  bool DirectoryClean() const {
    return !directory_full_rebuild_ && delta_added_.empty() &&
           delta_erased_.empty();
  }
  /// Brings the directory up to date now (incremental merge when the dirty
  /// set is small, wholesale rebuild otherwise) instead of lazily on the
  /// next range lookup. Writers holding exclusive access call this so
  /// readers stay on the shared-lock fast path.
  void SyncDirectory() const { EnsureDirectory(); }
  /// Observability for the two directory maintenance paths (tests assert
  /// that small dirty sets merge instead of rebuilding).
  uint64_t DirectoryFullRebuilds() const { return directory_full_rebuilds_; }
  uint64_t DirectoryIncrementalMerges() const {
    return directory_incremental_merges_;
  }

  /// Bytes of one (u-key, ordinal) pair row under the paper's physical
  /// representation: 8 bytes per u attribute + 8-byte clustered ordinal +
  /// 4-byte count.
  uint64_t EntryBytes() const { return 8 * options_.u_cols.size() + 8 + 4; }
  /// Size under that representation: one row per pair.
  uint64_t SizeBytes() const;
  /// Pages the CM occupies (for lookup-cost accounting when uncached).
  uint64_t NumPages(size_t page_size = kDefaultPageSizeBytes) const {
    return (SizeBytes() + page_size - 1) / page_size;
  }
  /// Pages covering `entries` CM entries under the same representation
  /// (what an uncached directory probe reads, vs NumPages for a full scan).
  uint64_t PagesForEntries(uint64_t entries,
                           size_t page_size = kDefaultPageSizeBytes) const;

  std::string Name() const;

  /// Snapshot copy re-pointed at `table` (a reordered clone of this CM's
  /// table). Only valid for CMs WITHOUT clustered bucketing: their
  /// ordinals encode clustered VALUES, not positions, so the mapping
  /// survives any physical reorder of the same logical rows. The copy's
  /// directory starts dirty (rebuilt lazily, as for any copy). This is the
  /// recluster swap's O(pairs) alternative to an O(rows) BuildFromTable
  /// re-hash.
  CorrelationMap CloneRetargeted(const Table* table) const;

  /// Structural check: counts are positive, num_entries consistent.
  Status CheckInvariants() const;

  /// Every (u-key, ordinal, count) pair, in the hash map's iteration order.
  std::vector<Record> ToRecords() const;
  /// Replaces the map's content with `records` and schedules a wholesale
  /// directory rebuild: the serving wrapper's bulk-build loader
  /// (ConcurrentCorrelationMap::BuildFromTable). u-keys enter the hash map
  /// in first-occurrence order, so records sorted by (u-key, ordinal), as
  /// LiveRecords returns them, give a fresh map the same layout -- hence
  /// the same ToRecords order -- as UpsertPairsBatched over the rows they
  /// count. Corruption on an arity mismatch, a zero count or a repeated
  /// pair.
  Status LoadRecords(std::span<const Record> records);

 private:
  using CountMap = std::map<int64_t, uint32_t>;
  using HashMap = std::unordered_map<CmKey, CountMap, CmKeyHash>;

  /// One sorted-directory slot: the bucket ordinal of one u-attribute and
  /// the map entry carrying it. Entry pointers are stable across rehashes.
  /// The u-key is duplicated by value so an incremental merge can drop
  /// slots whose map node was erased (the pointer dangles and must not be
  /// dereferenced) by comparing keys alone.
  struct DirEntry {
    int64_t ordinal;
    const HashMap::value_type* entry;
    CmKey key;
  };

  /// Per-column ordinal constraint compiled from a CmColumnPredicate.
  struct ColumnConstraint {
    bool is_range = false;
    int64_t lo = 0, hi = 0;           ///< is_range: closed ordinal interval
    std::vector<int64_t> points;      ///< !is_range: sorted distinct ordinals
  };

  CorrelationMap(const Table* table, CmOptions options)
      : table_(table), options_(std::move(options)) {}

  /// Compiles an all-points predicate vector to the exact cross product of
  /// bucketed CmKeys a point lookup probes. Returns false when any column
  /// carries a range predicate (the directory path answers those) or a
  /// constraint is provably empty -- disambiguate with HasRangePredicate.
  bool CompilePointProbeKeys(std::span<const CmColumnPredicate> preds,
                             std::vector<CmKey>* out) const;

  /// Probes exactly `keys` in the hash map and coalesces the co-occurring
  /// clustered ordinals (the all-points half of Lookup). Keys must be
  /// pre-bucketed.
  CmLookupResult LookupKeys(std::span<const CmKey> keys) const;

  /// Compiles predicates to ordinal constraints; returns false when any
  /// column's constraint is provably empty (no key can match).
  bool BuildConstraints(std::span<const CmColumnPredicate> preds,
                        std::vector<ColumnConstraint>* out) const;
  /// True when `key` satisfies every constraint except index `skip`
  /// (pass constraints.size() to check all).
  static bool MatchesConstraints(const CmKey& key,
                                 std::span<const ColumnConstraint> cons,
                                 size_t skip);

  /// Brings the directory up to date if maintenance outdated it: merges
  /// the sorted delta in place when the dirty set is small, rebuilds
  /// wholesale otherwise.
  void EnsureDirectory() const;
  void RebuildDirectory() const;
  void MergeDirectoryDelta() const;

  /// Records a u-key added to / erased from the map since the last
  /// directory sync; degrades to a full rebuild when the delta outgrows
  /// the incremental-merge threshold.
  void NoteKeyDirty(std::vector<CmKey>* delta, const CmKey& key);
  void NoteKeyAdded(const CmKey& key);
  void NoteKeyErased(const CmKey& key);

  const Table* table_;
  CmOptions options_;
  HashMap map_;
  size_t num_entries_ = 0;

  /// Incremental-merge threshold: degrade to a wholesale rebuild once the
  /// delta exceeds 1/kDirectoryDeltaMaxInverseFraction of the mapped keys
  /// (but never below kDirectoryDeltaMinKeys, so tiny maps still merge).
  static constexpr size_t kDirectoryDeltaMaxInverseFraction = 8;
  static constexpr size_t kDirectoryDeltaMinKeys = 64;

  /// Sorted secondary directory: directory_[i] holds every mapped u-key
  /// ordered by its i-th attribute's bucket ordinal. Maintenance that adds
  /// or erases u-keys queues a delta (count-only changes keep it valid);
  /// the next sync merges a small delta in place and falls back to a
  /// wholesale rebuild past the threshold above.
  mutable std::vector<std::vector<DirEntry>> directory_;
  mutable bool directory_full_rebuild_ = true;
  mutable std::vector<CmKey> delta_added_;
  mutable std::vector<CmKey> delta_erased_;
  mutable uint64_t directory_full_rebuilds_ = 0;
  mutable uint64_t directory_incremental_merges_ = 0;
  mutable std::atomic<uint64_t> lookups_computed_{0};
};

}  // namespace corrmap

#endif  // CORRMAP_CORE_CORRELATION_MAP_H_

// The five access paths the paper compares (§3, §5.2), each executed
// against the in-memory table while charging simulated I/O for the page
// access pattern it would generate on disk:
//
//   FullTableScan      -- sequential sweep of every heap page.
//   ClusteredIndexScan -- descend the clustered index, sweep one range.
//   PipelinedIndexScan -- per-value secondary B+Tree probes, heap access in
//                         index order (§3.1, the uncorrelated disaster case).
//   SortedIndexScan    -- bitmap-style: collect matching RIDs, dedupe pages,
//                         sweep page runs in order (§3.2).
//   CmScan             -- cm_lookup -> clustered ranges -> sweep -> refilter
//                         on the original predicate (§5.2).
//
// Every path returns the exact matching rows plus DiskStats and simulated
// milliseconds, so benches can compare result sets for correctness and
// costs for the paper's figures.
#ifndef CORRMAP_EXEC_ACCESS_PATH_H_
#define CORRMAP_EXEC_ACCESS_PATH_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/correlation_map.h"
#include "core/cost_model.h"
#include "exec/plan_choice.h"
#include "exec/predicate.h"
#include "index/clustered_index.h"
#include "index/secondary_index.h"
#include "storage/disk_model.h"
#include "storage/table.h"

namespace corrmap {

/// Result of one access-path execution.
struct ExecResult {
  std::vector<RowId> rows;      ///< matching live rows, ascending
  uint64_t rows_examined = 0;   ///< rows touched (false positives included)
  DiskStats io;
  double ms = 0;                ///< simulated elapsed time
  std::string path;             ///< which access path produced this
  AccessTrace trace;            ///< pages touched, for Fig. 1 rendering

  uint64_t NumMatches() const { return rows.size(); }
};

/// Options shared by the path executors.
struct ExecOptions {
  DiskModel disk;
  /// CM lookups read the map from RAM when true (the paper's normal case);
  /// when false the CM's own pages are charged as sequential reads.
  bool cm_cached = true;
  /// Merge page runs separated by at most this many pages: reading through
  /// a small hole is cheaper than seeking over it. kAutoGapTolerance
  /// takes the disk's break-even gap (DiskModel::RunGapPages).
  static constexpr uint64_t kAutoGapTolerance = ~uint64_t{0};
  uint64_t run_gap_tolerance = kAutoGapTolerance;
  /// Sorted/bitmap-style paths whose sweep would cost more than a full
  /// sequential scan degrade to the scan instead (the paper's
  /// min(..., cost_scan) bound, §4.1; PostgreSQL's planner does the same).
  /// Pipelined scans cannot degrade mid-flight and are never capped.
  bool degrade_to_scan = true;
  /// Record the page-access trace (costs a vector push per page).
  bool keep_trace = false;

  uint64_t EffectiveGapTolerance() const {
    if (run_gap_tolerance != kAutoGapTolerance) return run_gap_tolerance;
    return disk.RunGapPages();
  }
};

/// Sequential scan of the whole heap, evaluating `query` on live rows.
ExecResult FullTableScan(const Table& table, const Query& query,
                         const ExecOptions& opts = {});

/// Clustered-index driven scan; `query` must contain a predicate on the
/// clustered column (Eq/In/Range); other predicates are applied as filters.
ExecResult ClusteredIndexScan(const Table& table, const ClusteredIndex& cidx,
                              const Query& query,
                              const ExecOptions& opts = {});

/// Pipelined (unsorted) secondary index scan on `index` for the predicate
/// over its first column; heap pages are visited in index order, seeking
/// whenever the page changes (§3.1).
ExecResult PipelinedIndexScan(const Table& table, const SecondaryIndex& index,
                              const Query& query,
                              const ExecOptions& opts = {});

/// Sorted (bitmap) secondary index scan (§3.2): probe the index for all
/// matching RIDs, sort/dedupe their pages, sweep runs in page order.
ExecResult SortedIndexScan(const Table& table, const SecondaryIndex& index,
                           const Query& query, const ExecOptions& opts = {});

/// Sorted index scan with the index I/O costed analytically from the
/// matching-RID set (no materialized B+Tree needed). Cost-equivalent to
/// SortedIndexScan for a freshly built index; used by wide parameter sweeps
/// (Fig. 2) where building 39 B+Trees per clustering is pointless.
ExecResult VirtualSortedIndexScan(const Table& table, const Query& query,
                                  size_t index_col,
                                  const ExecOptions& opts = {});

/// Per-query cache of CM lookup results. The executor prices a candidate
/// CM from the same CmLookupResult the chosen plan later executes with, so
/// each (CM, Query) pair performs exactly one cm_lookup across costing and
/// execution. Entries are keyed by (CM, predicate fingerprint), so reuse
/// across queries is safe -- but the cache never observes maintenance, so
/// do not reuse it across CM updates (the serving layer's epoch-keyed
/// SharedLookupCache covers that case).
class CmLookupCache {
 public:
  /// The lookup result for `cm` against `query`, computed on first use.
  /// Returns nullptr when the CM is inapplicable (some CM attribute is not
  /// predicated by the query). The pointer stays valid for the cache's
  /// lifetime.
  const CmLookupResult* GetOrCompute(const CorrelationMap& cm,
                                     const Query& query);

 private:
  struct EntryKey {
    const CorrelationMap* cm;
    uint64_t fingerprint;
    bool operator==(const EntryKey&) const = default;
  };
  struct EntryKeyHash {
    size_t operator()(const EntryKey& k) const {
      return Mix64(uint64_t(reinterpret_cast<uintptr_t>(k.cm)) ^
                   Mix64(k.fingerprint));
    }
  };
  std::unordered_map<EntryKey, std::optional<CmLookupResult>, EntryKeyHash>
      cache_;
};

/// CM-driven scan (§5.2): cm_lookup on the predicates over the CM's
/// attributes, translate the co-occurring clustered ordinal runs to row
/// ranges (TranslateCmRuns), sweep, and re-filter every examined row on
/// the full query. When `cache` is given, the lookup result is shared
/// with (or reused from) plan costing.
ExecResult CmScan(const Table& table, const CorrelationMap& cm,
                  const ClusteredIndex& cidx, const Query& query,
                  const ExecOptions& opts = {},
                  CmLookupCache* cache = nullptr);

/// Compiles the CmColumnPredicate vector over `u_cols` (a CM's attributes,
/// in order) from `query`; false when some attribute has no predicate
/// (§6.2.1: a CM applies only when its attributes are predicated), with
/// `out` holding the predicates of the attributes before it.
bool CompileCmPredicates(std::span<const size_t> u_cols, const Query& query,
                         std::vector<CmColumnPredicate>* out);

/// CompileCmPredicates for `cm`, naming the unpredicated attribute in the
/// error.
Result<std::vector<CmColumnPredicate>> CmPredicatesFor(
    const CorrelationMap& cm, const Query& query);

/// Clustered row ranges one CM lookup covers, and the index descents
/// executing it pays -- the one translation the offline CmScan and the
/// serving engine's CM arm share.
struct CmRowRanges {
  /// Non-empty ranges, each clamped to the translation's `clamp_end`,
  /// sorted by first row.
  std::vector<RowRange> ranges;
  /// Heap page each clustered-index descent lands on (the leaf proxy
  /// buffer-pool pricing touches): one per ordinal run for raw-key
  /// ordinals (each run is one range probe), one for the whole sorted set
  /// when the CM is c-bucketed (bucket ids resolve positionally) -- what
  /// CmProbeCostMs prices. A raw-key run whose rows all lie past the
  /// clamp lands nowhere and adds none.
  std::vector<PageNo> leaves;
};

/// Translates `res` -- a lookup on a CM with options `cm` over `table`,
/// whose clustered column `cidx` indexes -- to row ranges clamped to
/// `clamp_end` (the serving clustered boundary; the clustered index closes
/// its last key's range at the live row count, which may include an
/// unclustered tail).
CmRowRanges TranslateCmRuns(const Table& table, const ClusteredIndex& cidx,
                            const CmOptions& cm, const CmLookupResult& res,
                            RowId clamp_end = ~RowId{0});

/// The secondary-index rids `pred` (a predicate on the index's first
/// column) selects, in index order: one range probe for a range predicate,
/// one prefix probe per point otherwise (`*n_probes` says how many).
/// Integral columns round a range inward (ceil lo, floor hi), so a
/// fractional endpoint never widens the probe; infinite endpoints
/// saturate (Column::EncodeKey).
std::vector<RowId> SecondaryIndexRids(const Table& table,
                                      const SecondaryIndex& index,
                                      const Predicate& pred,
                                      size_t* n_probes);

/// What one row-filter sweep saw.
struct RowFilterCounts {
  uint64_t examined = 0;  ///< rows read, tombstoned ones included
  uint64_t dead = 0;      ///< tombstoned rows skipped
  uint64_t matches = 0;   ///< live rows satisfying the query
};

/// THE row filter over a row range, shared by every access path: counts
/// each row of [range.begin, range.end) as examined, skips tombstones, and
/// evaluates `query` on the rest. Matching rows are appended to `*matches`
/// and the heap pages the range covers (ascending, one entry per page) to
/// `*pages`, each only when non-null.
void FilterRowRange(const Table& table, const Query& query, RowRange range,
                    RowFilterCounts* counts,
                    std::vector<RowId>* matches = nullptr,
                    std::vector<PageNo>* pages = nullptr);

/// The same filter over an explicit rid list, in list order; `*pages`
/// gets the page of every rid (duplicates included).
void FilterRidList(const Table& table, const Query& query,
                   std::span<const RowId> rids, RowFilterCounts* counts,
                   std::vector<RowId>* matches = nullptr,
                   std::vector<PageNo>* pages = nullptr);

}  // namespace corrmap

#endif  // CORRMAP_EXEC_ACCESS_PATH_H_

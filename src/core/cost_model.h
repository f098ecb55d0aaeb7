// The paper's correlation-aware analytical cost model (§3, §4). Predicts
// the I/O cost of the three access methods -- full scan, pipelined
// secondary-index scan, sorted (bitmap) index scan -- from the Table 1/2
// statistics, including the correlation statistic c_per_u.
#ifndef CORRMAP_CORE_COST_MODEL_H_
#define CORRMAP_CORE_COST_MODEL_H_

#include <cstdint>
#include <span>
#include <string>

#include "storage/disk_model.h"

namespace corrmap {

/// The statistics of paper Tables 1 and 2 for one (Au, Ac) pairing.
struct CostInputs {
  double tups_per_page = 0;  ///< tuples per heap page
  double total_tups = 0;     ///< rows in the table
  double btree_height = 0;   ///< root-to-leaf seeks per index descent
  double n_lookups = 1;      ///< distinct Au values probed by the query
  double u_tups = 0;         ///< avg tuples per Au value
  double c_tups = 0;         ///< avg tuples per Ac value (Table 2)
  double c_per_u = 1;        ///< avg distinct Ac values per Au value (Table 2)

  /// Heap pages ("p" in §3).
  double TotalPages() const {
    return tups_per_page > 0 ? total_tups / tups_per_page : 0;
  }
  /// Pages spanned by one clustered value ("c_pages", §4.1).
  double CPages() const {
    return tups_per_page > 0 ? c_tups / tups_per_page : 0;
  }

  std::string ToString() const;
};

/// Evaluates the §3/§4 formulas under a DiskModel's constants.
class CostModel {
 public:
  explicit CostModel(DiskModel disk = DiskModel()) : disk_(disk) {}

  const DiskModel& disk() const { return disk_; }

  /// CPU milliseconds to touch one page that is resident in the buffer
  /// pool (no device involved; locate the frame, read the tuples).
  static constexpr double kResidentPageMs = 1e-4;
  /// CPU milliseconds for a "seek" that never reaches the device: a B+Tree
  /// descent through cached nodes or repositioning within cached frames.
  static constexpr double kResidentSeekMs = 1e-3;

  /// Expected cost of one sequentially read page when a `residency`
  /// fraction of touches hit the buffer pool: the blend
  /// seq_page_ms*(1-r) + kResidentPageMs*r. residency==0 is exactly the
  /// historical seq_page_ms charge.
  double EffectiveSeqPageMs(double residency) const;

  /// Extent-granular residency for one page run: the page-weighted mean of
  /// `extent_hit_rates` over [first_page, first_page + pages), where entry
  /// i covers pages [i*extent_pages, (i+1)*extent_pages). Pages past the
  /// span's coverage -- and every page when the span is empty -- fall back
  /// to `fallback`, the per-file scalar, so callers without extent data
  /// price exactly as before. This is how a hot range of a file is priced
  /// near-CPU while a cold range of the same file stays at device cost.
  static double RunResidency(std::span<const double> extent_hit_rates,
                             uint64_t extent_pages, uint64_t first_page,
                             uint64_t pages, double fallback);
  /// Same blend for a random repositioning: seek_ms*(1-r)+kResidentSeekMs*r.
  double EffectiveSeekMs(double residency) const;

  /// The §3/§4 formulas below price every page at device cost -- the
  /// paper's cold-cache assumption. Buffer-pool residency enters serving
  /// plan costs in exec/plan_choice.h (PlanContext), through
  /// EffectiveSeqPageMs / EffectiveSeekMs / RunResidency above.
  ///
  /// cost_scan = seq_page_cost * p (§3).
  double ScanCost(const CostInputs& in) const;

  /// cost_uncorrelated = n_lookups * u_tups * seek_cost * btree_height
  /// (§3.1, pipelined probes with no correlation awareness).
  double PipelinedCost(const CostInputs& in) const;

  /// cost_sorted = min(n_lookups * c_per_u * (seek*height + seq*c_pages),
  /// cost_scan) (§4.1) -- the correlation-aware sorted index scan cost.
  double SortedCost(const CostInputs& in) const;

  /// Sentinel for CmCost's probed_pages: the lookup touched the whole CM.
  static constexpr uint64_t kAllCmPages = ~uint64_t{0};

  /// SortedCost for a CM access: identical heap access pattern, but adds
  /// the (usually negligible) cost of reading the CM itself when it does
  /// not fit in memory (§6.2: large CMs stop paying off). `probed_pages`
  /// is how much of the CM the lookup actually touched: a directory probe
  /// reads only its run, so the uncached charge is
  /// min(probed_pages, cm_pages) sequential reads instead of the full map.
  double CmCost(const CostInputs& in, uint64_t cm_pages, bool cm_cached = true,
                uint64_t probed_pages = kAllCmPages) const;

  /// CPU milliseconds per CM entry visited by cm_lookup (in-RAM work).
  static constexpr double kCmCpuPerEntryMs = 1e-5;

  /// CPU milliseconds to examine and skip one tombstoned row (the select
  /// paths' IsDeleted re-filter). Plan costing charges each candidate for
  /// the dead rows its sweep would examine; execution charges the rows it
  /// actually skipped, keeping estimates and measured costs coherent.
  static constexpr double kTombstoneCpuMs = 1e-5;

  /// Range-probe term: the in-RAM cost of answering cm_lookup through the
  /// sorted bucket-ordinal directory -- a binary search over the u-keys
  /// plus the probed run. Replaces CmLookupScanCost for range predicates.
  double CmLookupProbeCost(double num_ukeys, double entries_probed) const;

  /// The replaced term: a range lookup that scans every u-key of the map
  /// (the pre-directory behavior; kept for comparison and benches).
  double CmLookupScanCost(double num_ukeys) const;

 private:
  DiskModel disk_;
};

}  // namespace corrmap

#endif  // CORRMAP_CORE_COST_MODEL_H_

// Shared access-plan enumeration: the one arbiter both the offline
// Executor and the serving engine's ExecuteSelect consult, so "which plan
// wins for this query on this snapshot" has a single deterministic answer
// (the plan-parity test battery holds the two to it). Candidates are
// costed with the §3/§4 model extended with buffer-pool residency
// calibration (PlanContext's heap / clustered-index residency): a hot
// clustered range is priced near CPU cost instead of cold I/O, which is
// exactly the Fig. 9 mixed-workload gap.
//
// The snapshot is described by PlanContext: table, clustered index, the
// clustered boundary (rows beyond it live in an unclustered serving tail
// that every non-scan plan must sweep), and the residency fractions the
// storage layer published. CM candidates are passed as CmPlanViews -- a
// view over any CM implementation (CorrelationMap or the serving
// layer's concurrent wrapper) carrying the already-computed
// CmLookupResult, so costing never triggers a second cm_lookup (the
// caller's lookup cache feeds costing and execution with one lookup per
// (CM, predicate, epoch)).
#ifndef CORRMAP_EXEC_PLAN_CHOICE_H_
#define CORRMAP_EXEC_PLAN_CHOICE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/bucketing.h"
#include "core/correlation_map.h"
#include "core/cost_model.h"
#include "exec/predicate.h"
#include "index/clustered_index.h"
#include "storage/table.h"

namespace corrmap {

enum class PlanKind : uint8_t {
  kSeqScan = 0,
  kClusteredRange,
  kSortedIndex,
  kCmProbe,
};

const char* PlanKindName(PlanKind kind);

/// One costed candidate. `slot` indexes the caller's CM list (kCmProbe) or
/// secondary-index list (kSortedIndex); 0 otherwise.
struct PlanCandidate {
  PlanKind kind = PlanKind::kSeqScan;
  std::string description;
  double est_ms = 0;
  size_t slot = 0;
  bool chosen = false;
};

/// Costing view over one applicable CM candidate. `lookup` must outlive
/// the call; nullptr marks the CM inapplicable for this query (some CM
/// attribute unpredicated), which suppresses the candidate.
struct CmPlanView {
  const CmLookupResult* lookup = nullptr;
  /// Positional clustered bucketing when the CM is c-bucketed (ordinals
  /// are bucket ids); null when ordinals encode raw clustered keys.
  const ClusteredBucketing* c_buckets = nullptr;
  size_t num_ukeys = 0;
  std::string name;
  /// Optional: the clustered row ranges this CM's ordinal runs translate
  /// to (already clamped to the boundary), when the caller pre-translated
  /// them (the serving engine does, and reuses them at execution). Used
  /// ONLY to refine the residency input of the heap term per extent; the
  /// page arithmetic stays formulaic so estimates without them are
  /// unchanged.
  std::span<const RowRange> row_ranges{};
};

/// The snapshot plans are costed against. For an offline, fully clustered
/// table leave clustered_boundary at its no-tail default (any value
/// >= n_rows means no tail term) and the residency fractions at 0 (the
/// paper's cold-cache assumption).
struct PlanContext {
  const Table* table = nullptr;
  const ClusteredIndex* cidx = nullptr;
  /// First unclustered row. Defaults to "everything is clustered" -- a
  /// forgotten assignment must not silently tax every non-scan candidate
  /// with a full-table tail sweep.
  RowId clustered_boundary = ~RowId{0};
  size_t n_rows = 0;
  /// Decayed buffer-pool hit fractions for the heap file and the
  /// clustered-index file (BufferPool::ResidencyOf), clamped to [0, 1].
  double heap_residency = 0;
  double cidx_residency = 0;
  /// Extent-granular heap residency (BufferPool::ResidencyOfWithExtents hit
  /// rates; entry i covers heap pages [i*heap_extent_pages, ...)). When
  /// non-empty, candidates refine the scalar heap_residency per page run
  /// via CostModel::RunResidency -- a hot clustered range prices near-CPU
  /// while a cold range of the same file stays at device cost. An empty
  /// span (the offline Executor, cold epochs) keeps the scalar everywhere,
  /// so costs replay bit-identically without extent data.
  std::span<const double> heap_extent_residency{};
  uint64_t heap_extent_pages = 0;
  /// Tombstoned rows in the snapshot (Table::NumDeleted). Every candidate
  /// pays a CPU term for the dead rows its sweep examines and re-filters,
  /// assumed uniformly spread over the heap; 0 leaves all costs exactly as
  /// before deletes existed.
  size_t num_deleted = 0;
  const CostModel* cost_model = nullptr;
};

/// Outcome: every enumerated candidate (estimates filled, exactly one
/// `chosen`) in deterministic order -- seq scan, clustered range, caller
/// extras (sorted indexes), CM probes in slot order. Ties break toward the
/// earlier candidate, so adding a strictly cheaper CM is what it takes to
/// displace an incumbent.
struct PlanSet {
  std::vector<PlanCandidate> candidates;
  size_t chosen = 0;
  const PlanCandidate& chosen_plan() const { return candidates[chosen]; }
};

/// First predicate on `col` in `query`, or null. THE predicate-selection
/// rule: the planner's candidate enumeration and the serving engine's
/// execution arms share this one definition so plan estimates always
/// price the predicate execution runs with.
const Predicate* FindPredicateOn(const Query& query, size_t col);

/// Row ranges the clustered index answers `pred` with, each clamped to
/// `clamp_end` (the clustered boundary; the index closes its last range at
/// the live row count, which may include the unclustered tail).
std::vector<RowRange> ClusteredRangesFor(const Table& table,
                                         const ClusteredIndex& cidx,
                                         const Predicate& pred,
                                         RowId clamp_end);

/// Clustered-index descents `pred` costs: one per probe key (a range
/// predicate probes once), whether or not the key finds rows.
inline size_t ClusteredProbeCount(const Predicate& pred) {
  return pred.op() == Predicate::Op::kRange ? 1 : pred.keys().size();
}

/// Cost of sequentially sweeping the unclustered tail [boundary, n_rows);
/// 0 when the snapshot has no tail. Added to every non-scan candidate.
double TailSweepCostMs(const PlanContext& ctx);

/// Full heap sweep, always priced cold: large sweeps read around the
/// buffer pool (ring-buffer style), so residency never discounts them.
double SeqScanCostMs(const PlanContext& ctx);

/// Clustered-index descent(s) plus the clamped range sweep plus the tail.
double ClusteredRangeCostMs(const PlanContext& ctx,
                            std::span<const RowRange> ranges,
                            size_t n_probes);

/// CM probe: in-RAM cm_lookup probe term, index descents for the ordinal
/// runs, the co-occurring ranges' heap sweep, plus the tail. Capped at the
/// scan cost (§4.1's min bound).
double CmProbeCostMs(const PlanContext& ctx, const CmPlanView& cm);

/// Caller-priced sorted secondary-index candidate (the §4.1 sorted-scan
/// shape over an exact rid set): `n_probes` B+Tree descents of `height`
/// levels at `index_residency`, then one seek plus a sequential sweep per
/// coalesced heap page run of the sorted rids, the dead-row CPU term for
/// the `rows` rows examined, plus the tail sweep. Capped at the scan cost
/// (§4.1's min bound). The result feeds ChooseAccessPlan's `extra` slot.
double SortedIndexCostMs(const PlanContext& ctx, std::span<const PageRun> runs,
                         uint64_t rows, size_t n_probes, size_t height,
                         double index_residency);

/// Enumerates and costs every applicable candidate and marks the cheapest
/// chosen. `extra` carries caller-priced candidates (the Executor's sorted
/// secondary-index scans) inserted between the clustered and CM
/// candidates; their est_ms must already include any tail term.
PlanSet ChooseAccessPlan(const PlanContext& ctx, const Query& query,
                         std::span<const CmPlanView> cms,
                         std::span<const PlanCandidate> extra = {});

}  // namespace corrmap

#endif  // CORRMAP_EXEC_PLAN_CHOICE_H_

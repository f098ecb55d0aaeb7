#include "exec/plan_choice.h"

#include <algorithm>

namespace corrmap {

namespace {

uint64_t RangePages(const PageLayout& layout, const RowRange& r) {
  if (r.empty()) return 0;
  return layout.PageOfRow(r.end - 1) - layout.PageOfRow(r.begin) + 1;
}

// Dead-row share of a sweep over `rows_swept` physical rows: tombstones
// are assumed uniform over the heap, and each dead row examined costs the
// IsDeleted re-filter CPU term. Exactly 0 with no deletes.
double DeadRowCpuMs(const PlanContext& ctx, double rows_swept) {
  if (ctx.num_deleted == 0 || ctx.n_rows == 0) return 0;
  const double frac = double(ctx.num_deleted) / double(ctx.n_rows);
  return rows_swept * frac * CostModel::kTombstoneCpuMs;
}

// Residency of one heap page run: the extent-refined page-weighted mean
// when the context carries extent data, the per-file scalar otherwise.
// Refinement touches only the residency INPUT of a candidate's heap term
// -- never its page arithmetic -- so contexts without extent data cost
// bit-identically to the scalar-only planner.
double HeapRunResidency(const PlanContext& ctx, uint64_t first_page,
                        uint64_t pages) {
  return CostModel::RunResidency(ctx.heap_extent_residency,
                                 ctx.heap_extent_pages, first_page, pages,
                                 ctx.heap_residency);
}

// Extent-refined residency for a clustered row range.
double RangeResidency(const PlanContext& ctx, const RowRange& r) {
  if (r.empty()) return ctx.heap_residency;
  const PageLayout& layout = ctx.table->layout();
  return HeapRunResidency(ctx, layout.PageOfRow(r.begin),
                          RangePages(layout, r));
}

}  // namespace

const Predicate* FindPredicateOn(const Query& query, size_t col) {
  for (const auto& p : query.predicates()) {
    if (p.column() == col) return &p;
  }
  return nullptr;
}

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kSeqScan: return "seq_scan";
    case PlanKind::kClusteredRange: return "clustered_index_scan";
    case PlanKind::kSortedIndex: return "sorted_index_scan";
    case PlanKind::kCmProbe: return "cm_scan";
  }
  return "unknown";
}

std::vector<RowRange> ClusteredRangesFor(const Table& table,
                                         const ClusteredIndex& cidx,
                                         const Predicate& pred,
                                         RowId clamp_end) {
  std::vector<RowRange> ranges;
  if (pred.op() == Predicate::Op::kRange) {
    const Key lo = table.column(cidx.column()).EncodeKey(Value(pred.lo()));
    const Key hi = table.column(cidx.column()).EncodeKey(Value(pred.hi()));
    ranges.push_back(cidx.LookupRange(lo, hi));
  } else {
    for (const Key& k : pred.keys()) ranges.push_back(cidx.LookupEqual(k));
  }
  std::vector<RowRange> out;
  out.reserve(ranges.size());
  for (RowRange r : ranges) {
    r.end = std::min<RowId>(r.end, clamp_end);
    if (!r.empty()) out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const RowRange& a, const RowRange& b) {
              return a.begin < b.begin;
            });
  return out;
}

double TailSweepCostMs(const PlanContext& ctx) {
  if (ctx.clustered_boundary >= RowId(ctx.n_rows)) return 0;
  const PageLayout& layout = ctx.table->layout();
  const uint64_t first = layout.PageOfRow(ctx.clustered_boundary);
  const uint64_t pages = layout.PageOfRow(ctx.n_rows - 1) - first + 1;
  const double r = HeapRunResidency(ctx, first, pages);
  return ctx.cost_model->EffectiveSeekMs(r) +
         double(pages) * ctx.cost_model->EffectiveSeqPageMs(r) +
         DeadRowCpuMs(ctx, double(ctx.n_rows - ctx.clustered_boundary));
}

double SeqScanCostMs(const PlanContext& ctx) {
  // Mirror CostModel::ScanCost exactly (un-ceiled pages): §4.1 caps the
  // sorted and CM candidates at that value, and an estimate that differs
  // in the last page would let a capped candidate undercut the scan.
  // Priced cold on purpose: a full sweep reads around the buffer pool
  // (PostgreSQL-style ring buffer) both in execution and here, so the
  // residency calibration discounts the targeted plans, never the scan.
  CostInputs in;
  in.tups_per_page = double(ctx.table->TuplesPerPage());
  in.total_tups = double(ctx.n_rows);
  return ctx.cost_model->ScanCost(in) +
         double(ctx.num_deleted) * CostModel::kTombstoneCpuMs;
}

double ClusteredRangeCostMs(const PlanContext& ctx,
                            std::span<const RowRange> ranges,
                            size_t n_probes) {
  double sweep_ms = 0;
  uint64_t rows = 0;
  for (const RowRange& r : ranges) {
    const uint64_t pages = RangePages(ctx.table->layout(), r);
    sweep_ms += double(pages) *
                ctx.cost_model->EffectiveSeqPageMs(RangeResidency(ctx, r));
    rows += r.size();
  }
  const double descents =
      double(std::max<size_t>(n_probes, 1)) * double(ctx.cidx->BTreeHeight());
  return descents * ctx.cost_model->EffectiveSeekMs(ctx.cidx_residency) +
         sweep_ms + DeadRowCpuMs(ctx, double(rows)) + TailSweepCostMs(ctx);
}

double CmProbeCostMs(const PlanContext& ctx, const CmPlanView& cm) {
  const CmLookupResult& res = *cm.lookup;
  const double tail = TailSweepCostMs(ctx);
  const double probe = ctx.cost_model->CmLookupProbeCost(
      double(std::max<size_t>(cm.num_ukeys, 1)), double(res.entries_probed));
  if (res.empty()) return probe + tail;
  double sweep_ms = 0;
  double rows = 0;
  uint64_t n_seeks = 0;
  if (cm.c_buckets != nullptr) {
    // Bucket runs translate positionally; clamp to the clustered boundary
    // exactly as execution does (tail rows are the sweep's, not ours).
    for (const OrdinalRange& r : res.ranges) {
      RowRange range = cm.c_buckets->RangeOfBucketRun(r.lo, r.hi);
      range.end = std::min<RowId>(range.end, ctx.clustered_boundary);
      if (!range.empty()) {
        const double pages =
            double(range.size()) / double(ctx.table->TuplesPerPage());
        sweep_ms += pages * ctx.cost_model->EffectiveSeqPageMs(
                                RangeResidency(ctx, range));
        rows += double(range.size());
      }
    }
    n_seeks = res.ranges.size() + ctx.cidx->BTreeHeight();
  } else {
    // Statistical page count (num_ordinals * c_pages); when the caller
    // pre-translated the ordinal runs to row ranges, refine the residency
    // those pages are priced at (the ranges say WHERE the sweep lands).
    const double pages = double(res.num_ordinals) * ctx.cidx->CPages();
    double residency = ctx.heap_residency;
    if (!cm.row_ranges.empty() && !ctx.heap_extent_residency.empty()) {
      double weighted = 0, weight = 0;
      for (const RowRange& r : cm.row_ranges) {
        if (r.empty()) continue;
        const double w = double(RangePages(ctx.table->layout(), r));
        weighted += RangeResidency(ctx, r) * w;
        weight += w;
      }
      if (weight > 0) residency = weighted / weight;
    }
    sweep_ms = pages * ctx.cost_model->EffectiveSeqPageMs(residency);
    rows = double(res.num_ordinals) * ctx.cidx->CTups();
    n_seeks = res.ranges.size() * ctx.cidx->BTreeHeight();
  }
  const double cost =
      double(n_seeks) * ctx.cost_model->EffectiveSeekMs(ctx.cidx_residency) +
      sweep_ms + probe + DeadRowCpuMs(ctx, rows) + tail;
  // §4.1's min bound: a probe never costs more than giving up and
  // scanning. On a tie the earlier seq-scan candidate wins the choice.
  return std::min(cost, SeqScanCostMs(ctx));
}

double SortedIndexCostMs(const PlanContext& ctx, std::span<const PageRun> runs,
                         uint64_t rows, size_t n_probes, size_t height,
                         double index_residency) {
  const double descents =
      double(std::max<size_t>(n_probes, 1)) * double(height);
  double cost = descents * ctx.cost_model->EffectiveSeekMs(index_residency);
  for (const PageRun& run : runs) {
    const double r = HeapRunResidency(ctx, run.first, run.length);
    cost += ctx.cost_model->EffectiveSeekMs(r) +
            double(run.length) * ctx.cost_model->EffectiveSeqPageMs(r);
  }
  cost += DeadRowCpuMs(ctx, double(rows)) + TailSweepCostMs(ctx);
  // §4.1's min bound, as for the CM probe: never price past giving up and
  // scanning (ties break toward the earlier seq-scan candidate).
  return std::min(cost, SeqScanCostMs(ctx));
}

PlanSet ChooseAccessPlan(const PlanContext& ctx, const Query& query,
                         std::span<const CmPlanView> cms,
                         std::span<const PlanCandidate> extra) {
  PlanSet out;
  out.candidates.push_back(
      {PlanKind::kSeqScan, "seq_scan", SeqScanCostMs(ctx), 0, false});

  const Predicate* cpred = FindPredicateOn(query, ctx.cidx->column());
  if (cpred != nullptr) {
    const std::vector<RowRange> ranges = ClusteredRangesFor(
        *ctx.table, *ctx.cidx, *cpred, ctx.clustered_boundary);
    out.candidates.push_back(
        {PlanKind::kClusteredRange, "clustered_index_scan",
         ClusteredRangeCostMs(ctx, ranges, ClusteredProbeCount(*cpred)), 0,
         false});
  }

  for (const PlanCandidate& e : extra) out.candidates.push_back(e);

  for (size_t i = 0; i < cms.size(); ++i) {
    if (cms[i].lookup == nullptr) continue;  // inapplicable for this query
    out.candidates.push_back({PlanKind::kCmProbe,
                              "cm_scan(" + cms[i].name + ")",
                              CmProbeCostMs(ctx, cms[i]), i, false});
  }

  for (size_t i = 1; i < out.candidates.size(); ++i) {
    if (out.candidates[i].est_ms < out.candidates[out.chosen].est_ms) {
      out.chosen = i;
    }
  }
  out.candidates[out.chosen].chosen = true;
  return out;
}

}  // namespace corrmap

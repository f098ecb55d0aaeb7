#include "exec/executor.h"

#include <algorithm>
#include <unordered_set>

#include "stats/correlation_stats.h"

namespace corrmap {

Executor::Executor(const Table* table, const ClusteredIndex* cidx,
                   ExecOptions exec_options, size_t sample_size)
    : table_(table),
      cidx_(cidx),
      exec_options_(exec_options),
      sample_(RowSample::Collect(*table, sample_size)),
      cost_model_(exec_options.disk) {}

double Executor::EstimateScanMs() const {
  // Always cold: executed scans read around the buffer pool, so the
  // residency calibration never discounts them (see SeqScanCostMs). All
  // rows, not live rows: tombstones do not shrink the page count a sweep
  // reads.
  CostInputs in;
  in.tups_per_page = double(table_->TuplesPerPage());
  in.total_tups = double(table_->NumRows());
  return cost_model_.ScanCost(in);
}

double Executor::EstimateSortedIndexMs(const SecondaryIndex& index,
                                       const Query& query) const {
  const size_t icol = index.columns().front();
  const Predicate* pred = FindPredicateOn(query, icol);
  if (pred == nullptr) return -1;  // inapplicable

  std::vector<size_t> u_cols{icol};
  CorrelationStats stats =
      EstimateCorrelationStats(*table_, sample_, u_cols, cidx_->column());
  CostInputs in;
  in.tups_per_page = double(table_->TuplesPerPage());
  // NumRows, not live rows, so the §4.1 degrade-to-scan cap inside
  // SortedCost prices the same sweep as the seq-scan candidate -- a
  // capped candidate must tie the scan, never undercut it.
  in.total_tups = double(table_->NumRows());
  in.btree_height = double(index.Height());
  in.u_tups = stats.u_tups;
  in.c_tups = cidx_->CTups();
  in.c_per_u = stats.c_per_u;
  // Distinct predicated values: count in the sample, scale by D(u).
  std::unordered_set<uint64_t> matching, all;
  for (RowId r : sample_.rows()) {
    const Key k = table_->GetKey(r, icol);
    all.insert(k.Hash());
    if (pred->MatchesKey(k)) matching.insert(k.Hash());
  }
  const double scale = all.empty() ? 1.0 : stats.d_u / double(all.size());
  in.n_lookups = std::max(1.0, double(matching.size()) * scale);
  return cost_model_.SortedCost(in);
}

PlanSet Executor::Plan(const Query& query) const {
  CmLookupCache lookups;
  return PlanWith(query, &lookups);
}

PlanSet Executor::PlanWith(const Query& query, CmLookupCache* lookups) const {
  PlanContext ctx;
  ctx.table = table_;
  ctx.cidx = cidx_;
  ctx.n_rows = table_->NumRows();
  ctx.cost_model = &cost_model_;

  // Sorted secondary-index candidates keep their sample-driven §4.1
  // estimate (the planner has no exact-range shortcut for them). An
  // offline table is fully clustered and costed cold, so they carry no
  // tail-sweep term and no residency discount.
  std::vector<PlanCandidate> extras;
  for (size_t i = 0; i < indexes_.size(); ++i) {
    const double est = EstimateSortedIndexMs(*indexes_[i], query);
    if (est < 0) continue;
    extras.push_back({PlanKind::kSortedIndex,
                      "sorted_index_scan(" + indexes_[i]->Name() + ")",
                      est, i, false});
  }

  // Every CM candidate is costed from the lookup CmScan would execute
  // with, via the shared cache: one cm_lookup per (CM, Query).
  std::vector<CmPlanView> views(cms_.size());
  for (size_t i = 0; i < cms_.size(); ++i) {
    views[i].lookup = lookups->GetOrCompute(*cms_[i], query);
    views[i].c_buckets = cms_[i]->options().c_buckets;
    views[i].num_ukeys = cms_[i]->NumUKeys();
    views[i].name = cms_[i]->Name();
  }
  return ChooseAccessPlan(ctx, query, views, extras);
}

ExecutorResult Executor::Execute(const Query& query) const {
  // Costing fills the cache, execution reuses it.
  CmLookupCache lookups;
  ExecutorResult out;

  const PlanSet plans = PlanWith(query, &lookups);
  out.candidates.reserve(plans.candidates.size());
  for (const PlanCandidate& c : plans.candidates) {
    out.candidates.push_back({c.description, c.est_ms, c.chosen});
  }

  const PlanCandidate& win = plans.chosen_plan();
  switch (win.kind) {
    case PlanKind::kSeqScan:
      out.result = FullTableScan(*table_, query, exec_options_);
      break;
    case PlanKind::kClusteredRange:
      out.result = ClusteredIndexScan(*table_, *cidx_, query, exec_options_);
      break;
    case PlanKind::kSortedIndex:
      out.result =
          SortedIndexScan(*table_, *indexes_[win.slot], query, exec_options_);
      break;
    case PlanKind::kCmProbe:
      out.result = CmScan(*table_, *cms_[win.slot], *cidx_, query,
                          exec_options_, &lookups);
      break;
  }
  return out;
}

}  // namespace corrmap

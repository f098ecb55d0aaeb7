// Cost-based access-path selection: given a query and the structures
// available on a table (clustered index, secondary B+Trees, CMs), estimate
// each candidate's cost with the §4 model, pick the cheapest, and execute
// it. This is the engine-internal integration the paper says CMs would
// ideally use (§7.1) in place of SQL-text rewriting.
#ifndef CORRMAP_EXEC_EXECUTOR_H_
#define CORRMAP_EXEC_EXECUTOR_H_

#include <string>
#include <vector>

#include "core/correlation_map.h"
#include "core/cost_model.h"
#include "exec/access_path.h"
#include "exec/plan_choice.h"
#include "exec/predicate.h"
#include "index/clustered_index.h"
#include "index/secondary_index.h"
#include "stats/sampler.h"

namespace corrmap {

/// One candidate plan with its estimated and (after execution) actual cost.
struct PlanChoice {
  std::string description;
  double estimated_ms = 0;
  bool chosen = false;
};

/// Execution outcome plus the optimizer's deliberation.
struct ExecutorResult {
  ExecResult result;
  std::vector<PlanChoice> candidates;
};

/// Cost-based executor over one clustered table.
class Executor {
 public:
  /// `sample` drives selectivity / c_per_u estimation for costing.
  Executor(const Table* table, const ClusteredIndex* cidx,
           ExecOptions exec_options = {}, size_t sample_size = 30000);

  void AttachSecondaryIndex(const SecondaryIndex* index) {
    indexes_.push_back(index);
  }
  void AttachCm(const CorrelationMap* cm) { cms_.push_back(cm); }

  /// Estimates every applicable plan, runs the cheapest. CM candidates are
  /// costed and executed from one per-query CmLookupCache, so each
  /// (CM, Query) pair performs exactly one cm_lookup.
  ExecutorResult Execute(const Query& query) const;

  /// Costs only -- the deliberation Execute would run, without executing
  /// the winner. Candidate enumeration, costing, and the choice itself are
  /// delegated to exec/plan_choice.h, the same arbiter the serving engine
  /// consults, so offline and serving decisions over identical snapshots
  /// (fully clustered, cold calibration) agree by construction -- the
  /// plan-parity tests hold both to this.
  PlanSet Plan(const Query& query) const;

  /// Cost estimate for answering `query` by full scan.
  double EstimateScanMs() const;

 private:
  double EstimateSortedIndexMs(const SecondaryIndex& index,
                               const Query& query) const;
  /// Plan with CM lookups drawn from (and left in) `lookups`, so Execute
  /// runs the winner on the lookup costing used.
  PlanSet PlanWith(const Query& query, CmLookupCache* lookups) const;

  const Table* table_;
  const ClusteredIndex* cidx_;
  ExecOptions exec_options_;
  RowSample sample_;
  CostModel cost_model_;
  std::vector<const SecondaryIndex*> indexes_;
  std::vector<const CorrelationMap*> cms_;
};

}  // namespace corrmap

#endif  // CORRMAP_EXEC_EXECUTOR_H_

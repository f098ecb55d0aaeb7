// Plan-parity battery for the cost-based serving engine: for a matrix of
// predicates x CM configurations x tail sizes,
//   (a) probe==scan row-exactness holds for whichever plan wins,
//   (b) the engine's chosen plan equals the offline arbiter's choice on
//       the same epoch snapshot -- both the engine's own PlanSelect
//       deliberation and, at quiescence, a from-scratch offline Executor
//       over mirrored structures,
//   (c) attaching a strictly cheaper CM actually switches the winner,
// plus buffer-pool calibration behavior: residency warms with the
// workload, prices hot clustered ranges down monotonically, never touches
// the in-RAM CM probe term, and resets cold across a recluster swap.
#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "exec/access_path.h"
#include "exec/executor.h"
#include "exec/plan_choice.h"
#include "index/clustered_index.h"
#include "index/secondary_index.h"
#include "obs/serving_metrics.h"
#include "serve/serving_engine.h"
#include "storage/table.h"

namespace corrmap {
namespace {

using serve::PlanCalibration;
using serve::SelectResult;
using serve::ServingEngine;
using serve::ServingOptions;

/// Correlated three-column world: c ~ u/4 (strong soft FD), v random
/// (uncorrelated with c -- a CM over v is a deliberately bad candidate).
struct PlanWorld {
  std::unique_ptr<Table> table;
  std::unique_ptr<ClusteredIndex> cidx;
  std::unique_ptr<ServingEngine> engine;

  explicit PlanWorld(ServingOptions opts = MakeOptions(), int rows = 120000) {
    Schema schema({ColumnDef::Int64("c"), ColumnDef::Int64("u"),
                   ColumnDef::Int64("v")});
    table = std::make_unique<Table>("t", std::move(schema));
    Rng rng(91);
    for (int i = 0; i < rows; ++i) {
      const int64_t u = rng.UniformInt(0, 1999);
      std::array<Value, 3> row = {Value(u / 4 + rng.UniformInt(0, 1)),
                                  Value(u), Value(rng.UniformInt(0, 99))};
      EXPECT_TRUE(table->AppendRow(row).ok());
    }
    EXPECT_TRUE(table->ClusterBy(0).ok());
    auto ci = ClusteredIndex::Build(*table, 0);
    EXPECT_TRUE(ci.ok());
    cidx = std::make_unique<ClusteredIndex>(std::move(*ci));
    engine = std::make_unique<ServingEngine>(table.get(), cidx.get(), opts);
  }

  static ServingOptions MakeOptions() {
    ServingOptions opts;
    opts.num_workers = 1;
    opts.reserve_rows = 120000 + 80000;
    // Deterministic parity runs: never refresh calibration, so plan
    // costing stays at the cold snapshot an offline Executor also uses.
    opts.calibration_period = 0;
    return opts;
  }

  Status AttachIdentityCm(size_t col) {
    CmOptions copts;
    copts.u_cols = {col};
    copts.u_bucketers = {Bucketer::Identity()};
    copts.c_col = 0;
    return engine->AttachCm(copts);
  }

  Status AttachWidthCm(size_t col, double width) {
    CmOptions copts;
    copts.u_cols = {col};
    copts.u_bucketers = {Bucketer::NumericWidth(width)};
    copts.c_col = 0;
    return engine->AttachCm(copts);
  }

  std::vector<std::vector<Key>> MakeRows(int n, uint64_t seed) {
    Rng rng(seed);
    std::vector<std::vector<Key>> rows;
    rows.reserve(size_t(n));
    for (int i = 0; i < n; ++i) {
      const int64_t u = rng.UniformInt(0, 1999);
      rows.push_back(
          {Key(u / 4), Key(u), Key(rng.UniformInt(0, 99))});
    }
    return rows;
  }

  std::vector<Query> QueryMatrix() const {
    const Table& t = *table;
    return {
        Query({Predicate::Eq(t, "u", Value(777))}),
        Query({Predicate::Between(t, "u", Value(100), Value(140))}),
        // Fractional endpoints on an integer column round inward.
        Query({Predicate::Between(t, "u", Value(100.5), Value(140.5))}),
        Query({Predicate::Between(t, "u", Value(0), Value(1900))}),
        Query({Predicate::Eq(t, "c", Value(100))}),
        Query({Predicate::Between(t, "c", Value(40), Value(80))}),
        Query({Predicate::Eq(t, "v", Value(55))}),
        Query({Predicate::Between(t, "v", Value(10), Value(20))}),
        Query({Predicate::Eq(t, "u", Value(400)),
               Predicate::Between(t, "c", Value(90), Value(120))}),
    };
  }
};

/// (a) + (b): whichever plan wins must count exactly what a scan counts,
/// and the engine's executed choice must equal the offline deliberation
/// on the same snapshot.
void ExpectExactAndParity(PlanWorld& w, const Query& q) {
  const PlanSet offline = w.engine->PlanSelect(q);
  const SelectResult probe = w.engine->ExecuteSelect(q);
  const ExecResult scan = FullTableScan(w.engine->table(), q);
  ASSERT_EQ(probe.num_matches, scan.NumMatches())
      << "plan " << probe.plan << " diverged from scan";
  EXPECT_EQ(probe.plan_kind, offline.chosen_plan().kind);
  EXPECT_EQ(probe.plan, offline.chosen_plan().description);
  EXPECT_DOUBLE_EQ(probe.plan_est_ms, offline.chosen_plan().est_ms);
  if (probe.plan_kind == PlanKind::kCmProbe) {
    EXPECT_EQ(probe.plan_cm_slot, offline.chosen_plan().slot);
  } else {
    EXPECT_EQ(probe.plan_cm_slot, SelectResult::kNoCmSlot);
  }
  EXPECT_GE(probe.plan_candidates, 1u);
}

TEST(ServePlanChoiceTest, MatrixProbeEqualsScanAndEngineMatchesOffline) {
  PlanWorld w;
  ASSERT_TRUE(w.AttachIdentityCm(1).ok());   // good CM over u
  ASSERT_TRUE(w.AttachWidthCm(1, 200).ok()); // coarse competitor over u
  ASSERT_TRUE(w.AttachIdentityCm(2).ok());   // uncorrelated CM over v

  const std::vector<Query> queries = w.QueryMatrix();

  for (const size_t tail : {size_t(0), size_t(3000), size_t(40000)}) {
    if (tail > 0) {
      const size_t grow = tail - (w.engine->table().NumRows() -
                                  size_t(w.engine->clustered_boundary()));
      ASSERT_TRUE(
          w.engine->ApplyAppend(w.MakeRows(int(grow), 0x77 + tail)).ok());
      ASSERT_EQ(w.engine->TailRows(), tail);
    }
    for (const Query& q : queries) ExpectExactAndParity(w, q);
  }

  // Recluster back to a clean epoch: parity and exactness must hold on
  // the successor too (fresh cidx, re-based CMs, cold calibration).
  auto stats = w.engine->Recluster();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(w.engine->TailRows(), 0u);
  for (const Query& q : queries) ExpectExactAndParity(w, q);
}

TEST(ServePlanChoiceTest, EngineMatchesFromScratchOfflineExecutorAtQuiescence) {
  // The strongest parity form: rebuild the deliberation from nothing but
  // the epoch snapshot -- a fresh Executor over the engine's table with
  // its own ClusteredIndex and plain CMs mirroring the attached set --
  // and require the same winner kind and CM slot.
  PlanWorld w;
  ASSERT_TRUE(w.AttachIdentityCm(1).ok());
  ASSERT_TRUE(w.AttachIdentityCm(2).ok());
  ASSERT_TRUE(w.engine->ApplyAppend(w.MakeRows(8000, 0x99)).ok());
  ASSERT_TRUE(w.engine->Recluster().ok());
  ASSERT_EQ(w.engine->TailRows(), 0u);

  const Table& table = w.engine->table();
  auto cidx = ClusteredIndex::Build(table, 0);
  ASSERT_TRUE(cidx.ok());
  Executor ex(&table, &*cidx);

  std::vector<std::unique_ptr<CorrelationMap>> mirrors;
  for (const size_t col : {size_t(1), size_t(2)}) {
    CmOptions copts;
    copts.u_cols = {col};
    copts.u_bucketers = {Bucketer::Identity()};
    copts.c_col = 0;
    auto cm = CorrelationMap::Create(&table, copts);
    ASSERT_TRUE(cm.ok());
    ASSERT_TRUE(cm->BuildFromTable().ok());
    mirrors.push_back(std::make_unique<CorrelationMap>(std::move(*cm)));
    ex.AttachCm(mirrors.back().get());
  }

  const std::vector<Query> queries = w.QueryMatrix();
  for (const Query& q : queries) {
    const SelectResult probe = w.engine->ExecuteSelect(q);
    const PlanSet offline = ex.Plan(q);
    EXPECT_EQ(probe.plan_kind, offline.chosen_plan().kind)
        << "engine chose " << probe.plan << ", offline Executor chose "
        << offline.chosen_plan().description;
    if (probe.plan_kind == PlanKind::kCmProbe) {
      EXPECT_EQ(probe.plan_cm_slot, offline.chosen_plan().slot);
    }
    // And the Executor's executed answer agrees with the engine's count.
    const ExecutorResult run = ex.Execute(q);
    EXPECT_EQ(probe.num_matches, run.result.NumMatches());
  }
}

TEST(ServePlanChoiceTest, CheaperCmAttachedSwitchesTheWinner) {
  // (c): with only a coarse (width-200 bucketed) CM over u attached, the
  // CM probe sweeps ~50 clustered values per lookup; attaching an
  // identity CM over the same column must flip the winner to the new
  // slot.
  PlanWorld w;
  ASSERT_TRUE(w.AttachWidthCm(1, 200).ok());
  const Query eq({Predicate::Eq(*w.table, "u", Value(777))});

  const SelectResult before = w.engine->ExecuteSelect(eq);
  ASSERT_EQ(before.plan_kind, PlanKind::kCmProbe);
  ASSERT_EQ(before.plan_cm_slot, 0u);

  ASSERT_TRUE(w.AttachIdentityCm(1).ok());
  const SelectResult after = w.engine->ExecuteSelect(eq);
  EXPECT_EQ(after.plan_kind, PlanKind::kCmProbe);
  EXPECT_EQ(after.plan_cm_slot, 1u);  // the cheaper newcomer wins
  EXPECT_LT(after.plan_est_ms, before.plan_est_ms);

  // Both answered exactly.
  const ExecResult scan = FullTableScan(w.engine->table(), eq);
  EXPECT_EQ(before.num_matches, scan.NumMatches());
  EXPECT_EQ(after.num_matches, scan.NumMatches());
}

TEST(ServePlanChoiceTest, ClusteredPredicateBeatsFirstMatchScan) {
  // A query on the clustered column has no applicable CM, so a policy
  // that only knows CM probes (first match) falls back to a full scan;
  // the cost-based engine descends the clustered index at a fraction of
  // the scan's cost.
  PlanWorld w;
  ASSERT_TRUE(w.AttachIdentityCm(1).ok());
  const Query eq({Predicate::Eq(*w.table, "c", Value(123))});

  const SelectResult cost_based = w.engine->ExecuteSelect(eq);
  EXPECT_EQ(cost_based.plan_kind, PlanKind::kClusteredRange);
  EXPECT_FALSE(cost_based.used_cm);

  const ExecResult scan = FullTableScan(w.engine->table(), eq);
  EXPECT_EQ(cost_based.num_matches, scan.NumMatches());
  EXPECT_LT(cost_based.simulated_ms, scan.ms);
}

TEST(ServePlanChoiceTest, UnpredicatedQueriesStillScanExactly) {
  PlanWorld w;
  ASSERT_TRUE(w.AttachIdentityCm(1).ok());
  Query all;  // no predicates: nothing applies, scan must win
  const SelectResult probe = w.engine->ExecuteSelect(all);
  EXPECT_EQ(probe.plan_kind, PlanKind::kSeqScan);
  EXPECT_EQ(probe.num_matches, w.engine->table().NumLiveRows());
}

TEST(ServePlanChoiceTest, ResidencyWarmsAndPricesHotClusteredRangeDown) {
  ServingOptions opts = PlanWorld::MakeOptions();
  opts.calibration_period = 8;  // refresh quickly for the test
  PlanWorld w(opts);
  ASSERT_TRUE(w.AttachIdentityCm(1).ok());
  const Query hot({Predicate::Between(*w.table, "c", Value(100),
                                      Value(130))});

  const SelectResult cold = w.engine->ExecuteSelect(hot);
  ASSERT_EQ(cold.plan_kind, PlanKind::kClusteredRange);
  EXPECT_DOUBLE_EQ(cold.heap_residency, 0.0);

  // Hammer the same range: its pages become resident, the decayed hit
  // rate climbs, and the periodic refresh publishes it into the epoch's
  // calibration snapshot.
  SelectResult last;
  for (int i = 0; i < 64; ++i) last = w.engine->ExecuteSelect(hot);
  const PlanCalibration calib = w.engine->CurrentCalibration();
  EXPECT_GT(calib.heap_residency, 0.5);
  EXPECT_LE(calib.heap_residency, 1.0);
  EXPECT_GT(calib.cidx_residency, 0.5);

  // The warm run is cheaper in both the estimate and the charged cost,
  // and monotone in residency by the effective-cost blend.
  EXPECT_LT(last.plan_est_ms, cold.plan_est_ms);
  EXPECT_LT(last.simulated_ms, cold.simulated_ms * 0.5);
  EXPECT_EQ(last.num_matches, cold.num_matches);

  // A recluster retires the hot epoch: the successor starts cold.
  ASSERT_TRUE(w.engine->ApplyAppend(w.MakeRows(1000, 0xAB)).ok());
  ASSERT_TRUE(w.engine->Recluster().ok());
  const PlanCalibration fresh = w.engine->CurrentCalibration();
  EXPECT_DOUBLE_EQ(fresh.heap_residency, 0.0);
  EXPECT_DOUBLE_EQ(fresh.cidx_residency, 0.0);
  const SelectResult post = w.engine->ExecuteSelect(hot);
  EXPECT_EQ(post.num_matches,
            FullTableScan(w.engine->table(), hot).NumMatches());
}

TEST(ServePlanChoiceTest, PlannerCostsMonotoneInResidencyCmProbeTermFixed) {
  // Planner-level calibration regression: the clustered-range candidate's
  // estimate falls monotonically with the published hit rate, the full
  // scan never gets the discount (it reads around the pool), and the CM
  // candidate's in-RAM probe term is residency-invariant.
  PlanWorld w;
  ASSERT_TRUE(w.AttachIdentityCm(1).ok());
  const Table& table = w.engine->table();
  auto cidx = ClusteredIndex::Build(table, 0);
  ASSERT_TRUE(cidx.ok());
  const CostModel model;

  CmOptions copts;
  copts.u_cols = {1};
  copts.u_bucketers = {Bucketer::Identity()};
  copts.c_col = 0;
  auto cm = CorrelationMap::Create(&table, copts);
  ASSERT_TRUE(cm.ok());
  ASSERT_TRUE(cm->BuildFromTable().ok());
  const std::array<CmColumnPredicate, 1> preds = {
      CmColumnPredicate::Points({Key(int64_t{777})})};
  const CmLookupResult lookup = cm->Lookup(preds);
  CmPlanView view;
  view.lookup = &lookup;
  view.num_ukeys = cm->NumUKeys();
  view.name = cm->Name();

  const Query hot({Predicate::Between(*w.table, "c", Value(100),
                                      Value(130))});
  const Predicate& cpred = hot.predicates().front();

  auto ctx_at = [&](double r) {
    PlanContext ctx;
    ctx.table = &table;
    ctx.cidx = &*cidx;
    ctx.clustered_boundary = RowId(table.NumRows());
    ctx.n_rows = table.NumRows();
    ctx.heap_residency = r;
    ctx.cidx_residency = r;
    ctx.cost_model = &model;
    return ctx;
  };

  double prev_clustered = std::numeric_limits<double>::infinity();
  const double probe_term = model.CmLookupProbeCost(
      double(view.num_ukeys), double(lookup.entries_probed));
  double prev_cm = std::numeric_limits<double>::infinity();
  for (double r = 0.0; r <= 1.0; r += 0.25) {
    const PlanContext ctx = ctx_at(r);
    const std::vector<RowRange> ranges = ClusteredRangesFor(
        table, *cidx, cpred, ctx.clustered_boundary);
    const double clustered = ClusteredRangeCostMs(ctx, ranges, 1);
    EXPECT_LT(clustered, prev_clustered);
    prev_clustered = clustered;
    // Scan is residency-blind.
    EXPECT_DOUBLE_EQ(SeqScanCostMs(ctx), SeqScanCostMs(ctx_at(0.0)));
    // The CM candidate keeps the exact in-RAM probe term at every
    // residency; only its heap/descent terms shrink.
    const double cm_cost = CmProbeCostMs(ctx, view);
    EXPECT_GE(cm_cost, probe_term);
    EXPECT_LE(cm_cost, prev_cm);
    prev_cm = cm_cost;
  }
  // Fully hot clustered range is priced near CPU: far below cold.
  const std::vector<RowRange> cold_ranges =
      ClusteredRangesFor(table, *cidx, cpred, RowId(table.NumRows()));
  EXPECT_LT(prev_clustered * 100,
            ClusteredRangeCostMs(ctx_at(0.0), cold_ranges, 1));
}

TEST(ServePlanChoiceTest, SecondaryIndexEntersTheSameDeliberationAsCms) {
  // A secondary index over u competes in the exact same ChooseAccessPlan
  // call as the CM candidates: both kinds must appear, the chosen plan
  // must be the estimated minimum over ALL of them, and execution stays
  // row-exact whichever wins.
  PlanWorld w;
  ASSERT_TRUE(w.AttachIdentityCm(1).ok());
  ASSERT_TRUE(w.engine->AttachSecondaryIndex({1}).ok());
  EXPECT_EQ(w.engine->num_secondary_indexes(), 1u);

  const Query q({Predicate::Eq(*w.table, "u", Value(777))});
  const PlanSet offline = w.engine->PlanSelect(q);
  bool saw_sidx = false;
  bool saw_cm = false;
  for (const PlanCandidate& c : offline.candidates) {
    saw_sidx = saw_sidx || c.kind == PlanKind::kSortedIndex;
    saw_cm = saw_cm || c.kind == PlanKind::kCmProbe;
    EXPECT_GE(c.est_ms, offline.chosen_plan().est_ms)
        << c.description << " beat the chosen " <<
        offline.chosen_plan().description;
  }
  EXPECT_TRUE(saw_sidx) << "sorted-index candidate missing from PlanSelect";
  EXPECT_TRUE(saw_cm);
  ExpectExactAndParity(w, q);
}

TEST(ServePlanChoiceTest, SecondaryIndexWinsNarrowSelectionWithoutACm) {
  // No CM attached: the only exact alternatives for Eq(u) are a full scan
  // and the secondary index. u=777 matches ~60 of 120k rows and the soft
  // FD keeps them physically near-contiguous, so the index's few short
  // runs must price below the scan and win.
  PlanWorld w;
  ASSERT_TRUE(w.engine->AttachSecondaryIndex({1}).ok());
  const Query q({Predicate::Eq(*w.table, "u", Value(777))});
  const PlanSet offline = w.engine->PlanSelect(q);
  EXPECT_EQ(offline.chosen_plan().kind, PlanKind::kSortedIndex);
  ExpectExactAndParity(w, q);
}

TEST(ServePlanChoiceTest, SecondaryIndexRidsMatchOfflineScanOnFractionalRange) {
  // The engine's sorted-index arm and the offline SortedIndexScan collect
  // rids through one rule: a fractional range on an integer column rounds
  // inward (u in [776.5, 778.5] probes keys 777..778), so both examine
  // exactly the same rows.
  PlanWorld w;
  ASSERT_TRUE(w.engine->AttachSecondaryIndex({1}).ok());
  const Query q(
      {Predicate::Between(*w.table, "u", Value(776.5), Value(778.5))});
  const SelectResult served = w.engine->ExecuteSelect(q);
  ASSERT_EQ(served.plan_kind, PlanKind::kSortedIndex);

  SecondaryIndex offline_idx(&w.engine->table(), {1});
  ASSERT_TRUE(offline_idx.BuildFromTable().ok());
  ExecOptions eo;
  eo.degrade_to_scan = false;
  const ExecResult offline =
      SortedIndexScan(w.engine->table(), offline_idx, q, eo);
  EXPECT_EQ(served.num_matches, offline.NumMatches());
  EXPECT_EQ(served.rows_examined, offline.rows_examined);
  EXPECT_EQ(served.num_matches, offline.rows_examined);  // no false hits
}

TEST(ServePlanChoiceTest, SecondaryIndexStaysExactThroughCrudAndRecluster) {
  // The per-epoch index covers only the build-time clustered region:
  // appends are swept from the tail, deleted rids are re-filtered at
  // execution, and a recluster rebuilds the index over the successor.
  // probe==scan must hold at every step.
  PlanWorld w;
  ASSERT_TRUE(w.engine->AttachSecondaryIndex({2}).ok());
  const Query q({Predicate::Eq(*w.table, "v", Value(55))});
  const Query qr(
      {Predicate::Between(*w.table, "v", Value(10), Value(20))});
  ExpectExactAndParity(w, q);
  ExpectExactAndParity(w, qr);

  ASSERT_TRUE(w.engine->ApplyAppend(w.MakeRows(4000, 7)).ok());
  for (RowId r = 0; r < 500; ++r) {
    ASSERT_TRUE(w.engine->ApplyDelete(r * 7).ok());
  }
  ExpectExactAndParity(w, q);
  ExpectExactAndParity(w, qr);

  auto stats = w.engine->Recluster();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->performed());
  EXPECT_EQ(w.engine->num_secondary_indexes(), 1u);
  EXPECT_EQ(w.engine->TailRows(), 0u);
  ExpectExactAndParity(w, q);
  ExpectExactAndParity(w, qr);
}

TEST(ServePlanChoiceTest, DriftRatiosStayWithinFactorTwoOnKnownEstimates) {
  // Drift-tracker acceptance gate on a workload where the estimates are
  // exactly knowable: with the buffer pool off, deliberation and
  // execution price the identical page runs through the identical cold
  // DiskModel arithmetic, so every plan kind's actual/estimated ratio
  // must sit near 1 -- gated at a factor of 2 in either direction. A kind
  // escaping that band means the cost model prices something execution
  // does not pay (or vice versa), which is exactly the regression this
  // series exists to catch. (With the pool on, the ratio instead measures
  // calibration lag -- see ResidencyWarmsAndPricesHotClusteredRangeDown
  // for that axis.)
  obs::ServingMetrics metrics;
  ServingOptions opts = PlanWorld::MakeOptions();
  opts.buffer_pool_pages = 0;  // cold-priced: estimates are exact
  opts.metrics = &metrics;
  PlanWorld w(opts);
  ASSERT_TRUE(w.AttachIdentityCm(1).ok());

  const std::vector<Query> matrix = w.QueryMatrix();
  for (int round = 0; round < 10; ++round) {
    for (const Query& q : matrix) (void)w.engine->ExecuteSelect(q);
    // Keep a tail in play so the tail-sweep term is exercised too.
    ASSERT_TRUE(w.engine->ApplyAppend(w.MakeRows(200, 17 + round)).ok());
  }

  const obs::DriftTracker::Snapshot s = metrics.drift().snapshot();
  uint64_t sampled = 0;
  for (size_t k = 0; k < obs::DriftTracker::kNumKinds; ++k) {
    const obs::DriftTracker::KindDrift& d = s.lifetime[k];
    if (d.selects == 0 || d.est_ms <= 0) continue;
    sampled += d.selects;
    EXPECT_GE(d.Ratio(), 0.5) << "plan kind " << k << " underestimated "
                              << d.Ratio() << "x over " << d.selects
                              << " selects";
    EXPECT_LE(d.Ratio(), 2.0) << "plan kind " << k << " overestimated "
                              << d.Ratio() << "x over " << d.selects
                              << " selects";
  }
  // The matrix spans scans, clustered ranges, and CM probes; most of the
  // cost-based selects must have contributed estimate mass.
  EXPECT_GT(sampled, 40u);
}

}  // namespace
}  // namespace corrmap

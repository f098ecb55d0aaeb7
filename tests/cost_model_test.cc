// Unit tests for the §3/§4 cost model: formula values, the min-cap against
// a full scan, and monotonicity properties the optimizer relies on.
#include <gtest/gtest.h>

#include "core/cost_model.h"

namespace corrmap {
namespace {

CostInputs BaseInputs() {
  CostInputs in;
  in.tups_per_page = 60;
  in.total_tups = 1'800'000;
  in.btree_height = 3;
  in.n_lookups = 1;
  in.u_tups = 700;
  in.c_tups = 700;
  in.c_per_u = 7;
  return in;
}

TEST(CostInputsTest, DerivedQuantities) {
  CostInputs in = BaseInputs();
  EXPECT_DOUBLE_EQ(in.TotalPages(), 30000.0);
  EXPECT_NEAR(in.CPages(), 700.0 / 60.0, 1e-9);
}

TEST(CostModelTest, ScanCostFormula) {
  CostModel m;
  CostInputs in = BaseInputs();
  // cost_scan = seq_page_cost * p = 0.078 * 30000.
  EXPECT_DOUBLE_EQ(m.ScanCost(in), 0.078 * 30000.0);
}

TEST(CostModelTest, PipelinedCostFormula) {
  CostModel m;
  CostInputs in = BaseInputs();
  in.n_lookups = 2;
  // n * u_tups * seek * height = 2 * 700 * 5.5 * 3.
  EXPECT_DOUBLE_EQ(m.PipelinedCost(in), 2 * 700 * 5.5 * 3);
}

TEST(CostModelTest, SortedCostFormula) {
  CostModel m;
  CostInputs in = BaseInputs();
  const double per_lookup = 7.0 * (5.5 * 3 + 0.078 * (700.0 / 60.0));
  EXPECT_DOUBLE_EQ(m.SortedCost(in), per_lookup);
}

TEST(CostModelTest, SortedCostCappedAtScan) {
  CostModel m;
  CostInputs in = BaseInputs();
  in.n_lookups = 100000;  // absurdly many lookups
  EXPECT_DOUBLE_EQ(m.SortedCost(in), m.ScanCost(in));
}

TEST(CostModelTest, SortedCostMonotoneInNLookups) {
  CostModel m;
  CostInputs in = BaseInputs();
  double prev = 0;
  for (double n = 1; n <= 128; n *= 2) {
    in.n_lookups = n;
    const double c = m.SortedCost(in);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(CostModelTest, SortedCostMonotoneInCPerU) {
  CostModel m;
  CostInputs in = BaseInputs();
  double prev = 0;
  for (double cpu = 1; cpu <= 64; cpu *= 2) {
    in.c_per_u = cpu;
    const double c = m.SortedCost(in);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(CostModelTest, StrongCorrelationBeatsWeak) {
  // The paper's core claim: small c_per_u (strong soft FD) makes a
  // secondary access far cheaper than a scan; large c_per_u approaches it.
  CostModel m;
  CostInputs strong = BaseInputs();
  strong.c_per_u = 1.2;
  CostInputs weak = BaseInputs();
  weak.c_per_u = 2000;
  EXPECT_LT(m.SortedCost(strong) * 10, m.ScanCost(strong));
  EXPECT_DOUBLE_EQ(m.SortedCost(weak), m.ScanCost(weak));
}

TEST(CostModelTest, CmCostAddsUncachedMapRead) {
  CostModel m;
  CostInputs in = BaseInputs();
  const double cached = m.CmCost(in, /*cm_pages=*/100, /*cm_cached=*/true);
  const double uncached = m.CmCost(in, /*cm_pages=*/100, /*cm_cached=*/false);
  EXPECT_DOUBLE_EQ(cached, m.SortedCost(in));
  EXPECT_DOUBLE_EQ(uncached, cached + 5.5 + 0.078 * 100);
}

TEST(CostModelTest, UncachedProbeChargesOnlyItsRun) {
  // Range-probe term: an uncached directory probe reads min(probed, all)
  // pages of the CM, not the whole map.
  CostModel m;
  CostInputs in = BaseInputs();
  const double probed =
      m.CmCost(in, /*cm_pages=*/100, /*cm_cached=*/false, /*probed_pages=*/3);
  const double full = m.CmCost(in, /*cm_pages=*/100, /*cm_cached=*/false);
  EXPECT_DOUBLE_EQ(probed, m.SortedCost(in) + 5.5 + 0.078 * 3);
  EXPECT_DOUBLE_EQ(full, m.SortedCost(in) + 5.5 + 0.078 * 100);
  EXPECT_LT(probed, full);
}

TEST(CostModelTest, LookupProbeCostBeatsScanCostForNarrowRuns) {
  CostModel m;
  // 1e6 u-keys, 100-entry run: the directory probe term must be orders of
  // magnitude below the replaced full-scan term, and both grow monotonely.
  EXPECT_LT(m.CmLookupProbeCost(1e6, 100) * 100, m.CmLookupScanCost(1e6));
  EXPECT_LT(m.CmLookupProbeCost(1e6, 100), m.CmLookupProbeCost(1e6, 1e5));
  // A probe that touches everything degenerates to ~the scan term.
  EXPECT_GE(m.CmLookupProbeCost(1e6, 1e6), m.CmLookupScanCost(1e6));
}

TEST(CostModelTest, CustomDiskConstants) {
  CostModel m(DiskModel(/*seek_ms=*/10.0, /*seq_page_ms=*/0.1));
  CostInputs in = BaseInputs();
  EXPECT_DOUBLE_EQ(m.ScanCost(in), 0.1 * 30000.0);
  in.n_lookups = 1;
  EXPECT_DOUBLE_EQ(m.PipelinedCost(in), 700 * 10.0 * 3);
}

// ---------------------------------------------------------------------
// Buffer-pool residency calibration (the Fig. 9 over-pricing fix): the
// effective page/seek costs blend device and CPU cost by hit rate, the
// clustered/sorted access cost falls monotonically with residency, and
// the in-RAM CM lookup terms are unaffected.
// ---------------------------------------------------------------------

TEST(CostModelCalibrationTest, EffectiveCostsBlendGolden) {
  CostModel m;
  // residency 0.0: exactly the paper's device constants.
  EXPECT_DOUBLE_EQ(m.EffectiveSeqPageMs(0.0), 0.078);
  EXPECT_DOUBLE_EQ(m.EffectiveSeekMs(0.0), 5.5);
  // residency 1.0: pure CPU cost.
  EXPECT_DOUBLE_EQ(m.EffectiveSeqPageMs(1.0), CostModel::kResidentPageMs);
  EXPECT_DOUBLE_EQ(m.EffectiveSeekMs(1.0), CostModel::kResidentSeekMs);
  // residency 0.5: the midpoint blend.
  EXPECT_DOUBLE_EQ(m.EffectiveSeqPageMs(0.5),
                   0.5 * 0.078 + 0.5 * CostModel::kResidentPageMs);
  EXPECT_DOUBLE_EQ(m.EffectiveSeekMs(0.5),
                   0.5 * 5.5 + 0.5 * CostModel::kResidentSeekMs);
  // Out-of-range inputs clamp instead of extrapolating.
  EXPECT_DOUBLE_EQ(m.EffectiveSeqPageMs(-3.0), m.EffectiveSeqPageMs(0.0));
  EXPECT_DOUBLE_EQ(m.EffectiveSeqPageMs(7.0), m.EffectiveSeqPageMs(1.0));
}

TEST(CostModelCalibrationTest, DefaultInputsReproduceHistoricalCosts) {
  // The §3/§4 formulas price cold (residency calibration lives in plan
  // costing), so they reproduce the exact pre-calibration numbers.
  CostModel m;
  CostInputs in = BaseInputs();
  EXPECT_DOUBLE_EQ(m.ScanCost(in), 0.078 * 30000.0);
  EXPECT_DOUBLE_EQ(m.PipelinedCost(in), 700 * 5.5 * 3);
  EXPECT_DOUBLE_EQ(m.SortedCost(in),
                   7.0 * (5.5 * 3 + 0.078 * (700.0 / 60.0)));
}

TEST(CostModelTest, FewValuedClusteredAttributeIsPoorTarget) {
  // §4.1's second key fact: tiny c_per_u from a few-valued clustered
  // attribute (e.g. gender) still costs ~half a scan because c_pages is
  // huge.
  CostModel m;
  CostInputs in = BaseInputs();
  in.c_per_u = 1;                       // perfectly predicted...
  in.c_tups = in.total_tups / 2;        // ...but only 2 clustered values
  EXPECT_GT(m.SortedCost(in), 0.4 * m.ScanCost(in));
}

}  // namespace
}  // namespace corrmap

// Tier-1 coverage for the ordered lookup path: range cm_lookup on
// point-mapped CMs through the sorted bucket-ordinal directory must return
// exactly the ordinals the legacy full-map scan returns (empty ranges,
// all-covering ranges, ranges straddling bucket edges, range + point
// composites), the order-preserving double-ordinal encoding must sort and
// round-trip negatives and signed zeros, and CmKey::Append must clamp at
// capacity instead of writing past the array.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/correlation_map.h"
#include "exec/access_path.h"
#include "index/clustered_index.h"
#include "serve/concurrent_cm.h"
#include "storage/table.h"

namespace corrmap {
namespace {

/// Asserts Lookup (directory probe) and LookupViaScan (legacy full scan)
/// agree ordinal-for-ordinal, and returns the probe result.
CmLookupResult ExpectProbeMatchesScan(const CorrelationMap& cm,
                                      std::span<const CmColumnPredicate> preds) {
  const CmLookupResult probe = cm.Lookup(preds);
  const CmLookupResult scan = cm.LookupViaScan(preds);
  EXPECT_EQ(probe.ToOrdinals(), scan.ToOrdinals());
  EXPECT_EQ(probe.num_ordinals, scan.num_ordinals);
  return probe;
}

/// Correlated int table clustered on c with an identity (point-mapped) CM
/// on u: u in [0, 999], c ~ u / 10.
struct PointMappedFixture {
  std::unique_ptr<Table> table;
  std::unique_ptr<CorrelationMap> cm;

  PointMappedFixture() {
    Schema schema({ColumnDef::Int64("c"), ColumnDef::Int64("u")});
    table = std::make_unique<Table>("t", std::move(schema));
    Rng rng(17);
    for (int i = 0; i < 30000; ++i) {
      const int64_t u = rng.UniformInt(0, 999);
      std::array<Value, 2> row = {Value(u / 10 + rng.UniformInt(0, 1)),
                                  Value(u)};
      EXPECT_TRUE(table->AppendRow(row).ok());
    }
    EXPECT_TRUE(table->ClusterBy(0).ok());
    CmOptions opts;
    opts.u_cols = {1};
    opts.u_bucketers = {Bucketer::Identity()};
    opts.c_col = 0;
    auto m = CorrelationMap::Create(table.get(), opts);
    EXPECT_TRUE(m.ok());
    EXPECT_TRUE(m->BuildFromTable().ok());
    cm = std::make_unique<CorrelationMap>(std::move(*m));
  }
};

TEST(CmRangeLookupTest, EmptyRangeReturnsNothing) {
  PointMappedFixture f;
  std::array<CmColumnPredicate, 1> preds = {
      CmColumnPredicate::Range(5000, 6000)};  // beyond the u domain
  auto r = ExpectProbeMatchesScan(*f.cm, preds);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.num_ordinals, 0u);

  std::array<CmColumnPredicate, 1> inverted = {
      CmColumnPredicate::Range(600, 400)};  // lo > hi
  r = ExpectProbeMatchesScan(*f.cm, inverted);
  EXPECT_TRUE(r.empty());
}

TEST(CmRangeLookupTest, RangeCoveringAllBucketsReturnsEveryOrdinal) {
  PointMappedFixture f;
  std::array<CmColumnPredicate, 1> preds = {
      CmColumnPredicate::Range(-100, 10000)};
  auto r = ExpectProbeMatchesScan(*f.cm, preds);
  // Every u-key matched, so every (u-key, ordinal) pair was inspected and
  // every mapped clustered ordinal comes back.
  EXPECT_EQ(r.entries_probed, f.cm->NumEntries());
  std::vector<int64_t> all;
  for (int64_t c = 0; c <= 100; ++c) all.push_back(c);
  EXPECT_EQ(r.ToOrdinals(), all);
}

TEST(CmRangeLookupTest, SelectiveRangeProbesOnlyItsRun) {
  PointMappedFixture f;
  std::array<CmColumnPredicate, 1> preds = {CmColumnPredicate::Range(200, 240)};
  auto r = ExpectProbeMatchesScan(*f.cm, preds);
  EXPECT_TRUE(r.used_directory);
  // The probe inspects only the pairs of the 41 matching u-keys (each u
  // maps to ~2 clustered values here), not the whole map.
  EXPECT_GE(r.entries_probed, 41u);
  EXPECT_LE(r.entries_probed, 3u * 41u);
  EXPECT_LT(r.entries_probed, f.cm->NumEntries());
  // Dense correlated ordinals coalesce into few runs, far below one range
  // per ordinal.
  EXPECT_GT(r.num_ordinals, 0u);
  EXPECT_LT(r.ranges.size(), r.num_ordinals);
}

TEST(CmRangeLookupTest, FractionalBoundsRoundInward) {
  PointMappedFixture f;
  // Identity on an int domain: [99.5, 200.5] covers u in [100, 200].
  std::array<CmColumnPredicate, 1> frac = {
      CmColumnPredicate::Range(99.5, 200.5)};
  std::array<CmColumnPredicate, 1> whole = {CmColumnPredicate::Range(100, 200)};
  EXPECT_EQ(ExpectProbeMatchesScan(*f.cm, frac).ToOrdinals(),
            f.cm->Lookup(whole).ToOrdinals());
}

TEST(CmRangeLookupTest, RangeStraddlingBucketEdges) {
  // ValueOrdinal bucketing at level 3 (8 values per bucket): ranges whose
  // endpoints fall inside buckets must still cover the straddled buckets.
  Schema schema({ColumnDef::Int64("c"), ColumnDef::Double("u")});
  Table t("t", std::move(schema));
  Rng rng(19);
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.UniformDouble(0, 1000);
    std::array<Value, 2> row = {Value(int64_t(u / 10)), Value(u)};
    ASSERT_TRUE(t.AppendRow(row).ok());
  }
  ASSERT_TRUE(t.ClusterBy(0).ok());
  CmOptions opts;
  opts.u_cols = {1};
  opts.u_bucketers = {Bucketer::ValueOrdinalFromColumn(t, 1, 3)};
  opts.c_col = 0;
  auto cm = CorrelationMap::Create(&t, opts);
  ASSERT_TRUE(cm.ok());
  ASSERT_TRUE(cm->BuildFromTable().ok());

  Rng trials(23);
  for (int i = 0; i < 25; ++i) {
    const double lo = trials.UniformDouble(0, 900);
    const double hi = lo + trials.UniformDouble(0, 120);
    std::array<CmColumnPredicate, 1> preds = {CmColumnPredicate::Range(lo, hi)};
    auto r = ExpectProbeMatchesScan(*cm, preds);
    // No false negatives: every truly matching row's ordinal is covered.
    std::vector<int64_t> ordinals = r.ToOrdinals();
    for (RowId row = 0; row < t.NumRows(); ++row) {
      const double u = t.GetKey(row, 1).Numeric();
      if (u < lo || u > hi) continue;
      ASSERT_TRUE(std::binary_search(ordinals.begin(), ordinals.end(),
                                     cm->ClusteredOrdinalOfRow(row)))
          << "false negative at u=" << u;
    }
  }
}

TEST(CmRangeLookupTest, CompositeRangePlusPointPredicates) {
  // 2-attribute CM: point predicate on x, range on y; the probe filters
  // the y-run on the x constraint.
  Schema schema(
      {ColumnDef::Int64("z"), ColumnDef::Int64("x"), ColumnDef::Int64("y")});
  Table t("t", std::move(schema));
  Rng rng(29);
  for (int i = 0; i < 20000; ++i) {
    const int64_t x = rng.UniformInt(0, 19);
    const int64_t y = rng.UniformInt(0, 499);
    std::array<Value, 3> row = {Value(x * 500 + y), Value(x), Value(y)};
    ASSERT_TRUE(t.AppendRow(row).ok());
  }
  ASSERT_TRUE(t.ClusterBy(0).ok());
  CmOptions opts;
  opts.u_cols = {1, 2};
  opts.u_bucketers = {Bucketer::Identity(), Bucketer::Identity()};
  opts.c_col = 0;
  auto cm = CorrelationMap::Create(&t, opts);
  ASSERT_TRUE(cm.ok());
  ASSERT_TRUE(cm->BuildFromTable().ok());

  std::array<CmColumnPredicate, 2> preds = {
      CmColumnPredicate::Points({Key(int64_t{7}), Key(int64_t{11})}),
      CmColumnPredicate::Range(100, 130)};
  auto r = ExpectProbeMatchesScan(*cm, preds);
  EXPECT_TRUE(r.used_directory);
  // Expected ordinals from the table directly: z of every row with
  // x in {7, 11} and y in [100, 130].
  std::vector<int64_t> expect;
  for (RowId row = 0; row < t.NumRows(); ++row) {
    const int64_t x = t.GetKey(row, 1).AsInt64();
    const int64_t y = t.GetKey(row, 2).AsInt64();
    if ((x == 7 || x == 11) && y >= 100 && y <= 130) {
      expect.push_back(t.GetKey(row, 0).AsInt64());
    }
  }
  std::sort(expect.begin(), expect.end());
  expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
  EXPECT_EQ(r.ToOrdinals(), expect);

  // Two ranges: the probe picks the narrower run and filters on the other.
  std::array<CmColumnPredicate, 2> two_ranges = {
      CmColumnPredicate::Range(3, 4), CmColumnPredicate::Range(0, 499)};
  ExpectProbeMatchesScan(*cm, two_ranges);
}

TEST(CmRangeLookupTest, BucketedClusteredSideAgreesWithScan) {
  Schema schema({ColumnDef::Int64("c"), ColumnDef::Double("u")});
  Table t("t", std::move(schema));
  Rng rng(31);
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.UniformDouble(0, 100000);
    std::array<Value, 2> row = {
        Value(int64_t(u / 1000.0) + rng.UniformInt(0, 2)), Value(u)};
    ASSERT_TRUE(t.AppendRow(row).ok());
  }
  ASSERT_TRUE(t.ClusterBy(0).ok());
  auto cb = ClusteredBucketing::Build(t, 0, 512);
  ASSERT_TRUE(cb.ok());
  CmOptions opts;
  opts.u_cols = {1};
  opts.u_bucketers = {Bucketer::ValueOrdinalFromColumn(t, 1, 5)};
  opts.c_col = 0;
  opts.c_buckets = &*cb;
  auto cm = CorrelationMap::Create(&t, opts);
  ASSERT_TRUE(cm.ok());
  ASSERT_TRUE(cm->BuildFromTable().ok());
  Rng trials(37);
  for (int i = 0; i < 20; ++i) {
    const double lo = trials.UniformDouble(0, 90000);
    std::array<CmColumnPredicate, 1> preds = {
        CmColumnPredicate::Range(lo, lo + trials.UniformDouble(0, 8000))};
    ExpectProbeMatchesScan(*cm, preds);
  }
}

TEST(CmRangeLookupTest, DirectoryTracksMaintenance) {
  PointMappedFixture f;
  std::array<CmColumnPredicate, 1> preds = {
      CmColumnPredicate::Range(2000, 3000)};
  EXPECT_TRUE(f.cm->Lookup(preds).empty());

  // A new u-key inside the probed range must be visible to the next probe
  // (the directory is rebuilt from its dirty flag).
  const std::array<Key, 1> u = {Key(int64_t{2500})};
  f.cm->InsertValues(u, 777);
  auto r = ExpectProbeMatchesScan(*f.cm, preds);
  EXPECT_EQ(r.ToOrdinals(), std::vector<int64_t>{777});

  ASSERT_TRUE(f.cm->DeleteValues(u, 777).ok());
  EXPECT_TRUE(f.cm->Lookup(preds).empty());

  // LoadRecords replaces the whole map; the directory must follow.
  auto records = f.cm->ToRecords();
  CmOptions opts = f.cm->options();
  auto reloaded = CorrelationMap::Create(f.table.get(), opts);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_TRUE(reloaded->LoadRecords(records).ok());
  std::array<CmColumnPredicate, 1> wide = {CmColumnPredicate::Range(0, 999)};
  EXPECT_EQ(reloaded->Lookup(wide).ToOrdinals(),
            f.cm->Lookup(wide).ToOrdinals());
}

TEST(CmRangeLookupTest, SmallDeltaMergesIncrementally) {
  PointMappedFixture f;
  std::array<CmColumnPredicate, 1> wide = {CmColumnPredicate::Range(0, 9999)};
  ExpectProbeMatchesScan(*f.cm, wide);  // builds the directory
  const uint64_t rebuilds = f.cm->DirectoryFullRebuilds();
  EXPECT_EQ(f.cm->DirectoryIncrementalMerges(), 0u);
  EXPECT_TRUE(f.cm->DirectoryClean());

  // A handful of new u-keys is far below the rebuild threshold: the next
  // probe merges the sorted delta instead of rebuilding, and returns
  // exactly what the full-map scan returns.
  for (int64_t u = 2000; u < 2010; ++u) {
    const std::array<Key, 1> key = {Key(u)};
    f.cm->InsertValues(key, 700 + u);
  }
  EXPECT_FALSE(f.cm->DirectoryClean());
  ExpectProbeMatchesScan(*f.cm, wide);
  EXPECT_EQ(f.cm->DirectoryFullRebuilds(), rebuilds);
  EXPECT_EQ(f.cm->DirectoryIncrementalMerges(), 1u);
  EXPECT_TRUE(f.cm->DirectoryClean());

  // Erases merge incrementally too: the erased keys' slots are dropped by
  // key comparison (their map nodes are gone).
  for (int64_t u = 2000; u < 2005; ++u) {
    const std::array<Key, 1> key = {Key(u)};
    ASSERT_TRUE(f.cm->DeleteValues(key, 700 + u).ok());
  }
  auto r = ExpectProbeMatchesScan(*f.cm, wide);
  EXPECT_EQ(f.cm->DirectoryFullRebuilds(), rebuilds);
  EXPECT_EQ(f.cm->DirectoryIncrementalMerges(), 2u);
  // Erase-then-readd within one delta window resolves to the fresh node.
  const std::array<Key, 1> back = {Key(int64_t{2007})};
  ASSERT_TRUE(f.cm->DeleteValues(back, 2707).ok());
  f.cm->InsertValues(back, 2777);
  r = ExpectProbeMatchesScan(*f.cm, wide);
  std::vector<int64_t> ordinals = r.ToOrdinals();
  EXPECT_TRUE(std::binary_search(ordinals.begin(), ordinals.end(), 2777));
  EXPECT_FALSE(std::binary_search(ordinals.begin(), ordinals.end(), 2707));
}

TEST(CmRangeLookupTest, LargeDeltaFallsBackToFullRebuild) {
  PointMappedFixture f;
  std::array<CmColumnPredicate, 1> wide = {CmColumnPredicate::Range(0, 99999)};
  ExpectProbeMatchesScan(*f.cm, wide);
  const uint64_t rebuilds = f.cm->DirectoryFullRebuilds();
  const uint64_t merges = f.cm->DirectoryIncrementalMerges();
  // Adding more than map_size/8 fresh u-keys degrades the delta to a
  // wholesale rebuild (1000 existing keys; add 600).
  for (int64_t u = 10000; u < 10600; ++u) {
    const std::array<Key, 1> key = {Key(u)};
    f.cm->InsertValues(key, u);
  }
  ExpectProbeMatchesScan(*f.cm, wide);
  EXPECT_EQ(f.cm->DirectoryFullRebuilds(), rebuilds + 1);
  EXPECT_EQ(f.cm->DirectoryIncrementalMerges(), merges);
}

TEST(CmRangeLookupTest, EpochBumpsOnEveryMaintenanceEntryPoint) {
  // The lookup cache keys results on the concurrent wrapper's epoch, so
  // every maintenance entry point must move it; an empty batch must not.
  PointMappedFixture f;
  const CmOptions opts = f.cm->options();
  auto built = serve::ConcurrentCorrelationMap::Create(f.table.get(), opts);
  ASSERT_TRUE(built.ok());
  serve::ConcurrentCorrelationMap& cm = *built;
  uint64_t e = cm.Epoch();
  ASSERT_TRUE(cm.BuildFromTable().ok());
  EXPECT_GT(cm.Epoch(), e);
  e = cm.Epoch();
  cm.InsertRow(0);
  EXPECT_GT(cm.Epoch(), e);
  e = cm.Epoch();
  ASSERT_TRUE(cm.DeleteRow(0).ok());
  EXPECT_GT(cm.Epoch(), e);
  e = cm.Epoch();
  const std::array<RowId, 2> rows = {1, 2};
  cm.InsertRowsBatched(rows);
  EXPECT_GT(cm.Epoch(), e);
  e = cm.Epoch();
  ASSERT_TRUE(cm.DeleteRowsBatched(rows).ok());
  EXPECT_GT(cm.Epoch(), e);
  e = cm.Epoch();
  const std::array<Key, 1> u = {Key(int64_t{42})};
  cm.InsertValues(u, 4);
  EXPECT_GT(cm.Epoch(), e);
  e = cm.Epoch();
  ASSERT_TRUE(cm.DeleteValues(u, 4).ok());
  EXPECT_GT(cm.Epoch(), e);
  e = cm.Epoch();
  cm.InsertRowsBatched({});
  ASSERT_TRUE(cm.DeleteRowsBatched({}).ok());
  EXPECT_EQ(cm.Epoch(), e);
}

TEST(CmRangeLookupTest, SharedCacheComputesOnce) {
  PointMappedFixture f;
  auto cidx = ClusteredIndex::Build(*f.table, 0);
  ASSERT_TRUE(cidx.ok());
  Query q({Predicate::Between(*f.table, "u", Value(100), Value(140))});
  auto plain = CmScan(*f.table, *f.cm, *cidx, q);

  CmLookupCache cache;
  const uint64_t before = f.cm->LookupsComputed();
  auto first = CmScan(*f.table, *f.cm, *cidx, q, ExecOptions{}, &cache);
  auto second = CmScan(*f.table, *f.cm, *cidx, q, ExecOptions{}, &cache);
  EXPECT_EQ(f.cm->LookupsComputed(), before + 1);  // second hit the cache
  EXPECT_EQ(first.rows, plain.rows);
  EXPECT_EQ(second.rows, plain.rows);
}

TEST(OrderedDoubleOrdinalTest, PreservesOrderAcrossSignsAndMagnitudes) {
  const std::vector<double> ascending = {
      -1e300, -3.5, -1.0, -1e-300, 0.0, 1e-300, 2.5, 3.14159, 1e300};
  for (size_t i = 1; i < ascending.size(); ++i) {
    EXPECT_LT(OrderedDoubleOrdinal(ascending[i - 1]),
              OrderedDoubleOrdinal(ascending[i]))
        << ascending[i - 1] << " vs " << ascending[i];
  }
  for (double v : ascending) {
    EXPECT_EQ(OrderedOrdinalToDouble(OrderedDoubleOrdinal(v)), v);
  }
}

TEST(OrderedDoubleOrdinalTest, SignedZerosEncodeIdentically) {
  EXPECT_EQ(OrderedDoubleOrdinal(-0.0), OrderedDoubleOrdinal(0.0));
  EXPECT_FALSE(std::signbit(OrderedOrdinalToDouble(OrderedDoubleOrdinal(-0.0))));
}

TEST(OrderedDoubleOrdinalTest, NegativeClusteredDoublesLookupCorrectly) {
  // Unbucketed CM over a double clustered column with negative values: the
  // regression the raw bit_cast encoding had (negatives sorted descending,
  // so ordinal runs and index range probes were wrong).
  Schema schema({ColumnDef::Double("c"), ColumnDef::Int64("u")});
  Table t("t", std::move(schema));
  Rng rng(41);
  for (int i = 0; i < 20000; ++i) {
    const int64_t u = rng.UniformInt(0, 999);
    const double c = double(u - 500) / 10.0 + 0.05 * double(rng.UniformInt(0, 1));
    std::array<Value, 2> row = {Value(c), Value(u)};
    ASSERT_TRUE(t.AppendRow(row).ok());
  }
  ASSERT_TRUE(t.ClusterBy(0).ok());
  auto cidx = ClusteredIndex::Build(t, 0);
  ASSERT_TRUE(cidx.ok());
  CmOptions opts;
  opts.u_cols = {1};
  opts.u_bucketers = {Bucketer::Identity()};
  opts.c_col = 0;
  auto cm = CorrelationMap::Create(&t, opts);
  ASSERT_TRUE(cm.ok());
  ASSERT_TRUE(cm->BuildFromTable().ok());

  // Ordinals decode to ascending doubles (order-preserving encoding).
  std::array<CmColumnPredicate, 1> all = {CmColumnPredicate::Range(0, 999)};
  const std::vector<int64_t> ordinals = cm->CmLookup(all);
  for (size_t i = 1; i < ordinals.size(); ++i) {
    EXPECT_LT(cm->DecodeClusteredOrdinal(ordinals[i - 1]).AsDouble(),
              cm->DecodeClusteredOrdinal(ordinals[i]).AsDouble());
  }

  // CmScan over negative clustered values returns exactly the scan rows.
  for (const auto& q :
       {Query({Predicate::Eq(t, "u", Value(123))}),
        Query({Predicate::Between(t, "u", Value(0), Value(80))}),
        Query({Predicate::Between(t, "u", Value(450), Value(550))})}) {
    auto scan = FullTableScan(t, q);
    auto cms = CmScan(t, *cm, *cidx, q);
    ASSERT_GT(scan.rows.size(), 0u);
    EXPECT_EQ(cms.rows, scan.rows);
  }
}

TEST(OrderedDoubleOrdinalTest, SignedZeroClusteredValuesShareOneOrdinal) {
  Schema schema({ColumnDef::Double("c"), ColumnDef::Int64("u")});
  Table t("t", std::move(schema));
  std::array<Value, 2> r1 = {Value(-0.0), Value(int64_t{1})};
  std::array<Value, 2> r2 = {Value(0.0), Value(int64_t{1})};
  std::array<Value, 2> r3 = {Value(-1.5), Value(int64_t{2})};
  ASSERT_TRUE(t.AppendRow(r1).ok());
  ASSERT_TRUE(t.AppendRow(r2).ok());
  ASSERT_TRUE(t.AppendRow(r3).ok());
  ASSERT_TRUE(t.ClusterBy(0).ok());
  CmOptions opts;
  opts.u_cols = {1};
  opts.u_bucketers = {Bucketer::Identity()};
  opts.c_col = 0;
  auto cm = CorrelationMap::Create(&t, opts);
  ASSERT_TRUE(cm.ok());
  ASSERT_TRUE(cm->BuildFromTable().ok());
  // -0.0 and 0.0 are the same clustered value: one (u=1, c=0.0) pair with
  // count 2, deletable from either representation.
  std::array<CmColumnPredicate, 1> preds = {
      CmColumnPredicate::Points({Key(int64_t{1})})};
  EXPECT_EQ(cm->CmLookup(preds).size(), 1u);
  RowId zero_row = 0;  // first u=1 row (c is one of the signed zeros)
  for (RowId r = 0; r < t.NumRows(); ++r) {
    if (t.GetKey(r, 1).AsInt64() == 1) {
      zero_row = r;
      break;
    }
  }
  ASSERT_TRUE(cm->DeleteRow(zero_row).ok());
  EXPECT_EQ(cm->CmLookup(preds).size(), 1u);  // count 2 -> 1, pair remains
}

TEST(CmKeyTest, AppendClampsAtCapacity) {
  CmKey k;
  for (size_t i = 0; i < kMaxCmAttributes; ++i) {
    k.Append(int64_t(i) + 10);
  }
  ASSERT_EQ(k.n, kMaxCmAttributes);
  // Over-appending asserts in debug builds and must be a clamping no-op in
  // release builds -- never a write past the array.
  EXPECT_DEBUG_DEATH(k.Append(99), "arity");
  EXPECT_EQ(k.n, kMaxCmAttributes);
  for (size_t i = 0; i < kMaxCmAttributes; ++i) {
    EXPECT_EQ(k.v[i], int64_t(i) + 10);
  }
}

TEST(CmLookupResultTest, RangesCoalesceConsecutiveOrdinals) {
  PointMappedFixture f;
  // u in [100, 109] maps to c in {10, 11} (plus noise +1): consecutive
  // ordinals collapse into a single run.
  std::array<CmColumnPredicate, 1> preds = {CmColumnPredicate::Range(100, 109)};
  auto r = f.cm->Lookup(preds);
  ASSERT_EQ(r.ranges.size(), 1u);
  EXPECT_EQ(r.ranges[0], (OrdinalRange{10, 11}));
  EXPECT_EQ(r.num_ordinals, 2u);
  EXPECT_EQ(r.ToOrdinals(), (std::vector<int64_t>{10, 11}));
}

}  // namespace
}  // namespace corrmap

// Tier-1 coverage for the serving layer: ConcurrentCorrelationMap must
// agree lookup-for-lookup with a plain CorrelationMap built from the same
// rows (point, range, and after row- and value-level maintenance),
// SharedLookupCache must hit only at the exact (CM, fingerprint, epoch)
// and evict stale epochs lazily, and the ServingEngine's CM probe must
// count exactly what a full scan counts before and after appends into the
// unclustered tail.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "exec/access_path.h"
#include "exec/executor.h"
#include "index/clustered_index.h"
#include "serve/driver.h"
#include "serve/serving_engine.h"
#include "serve/concurrent_cm.h"
#include "serve/shared_lookup_cache.h"
#include "storage/table.h"

namespace corrmap {
namespace {

using serve::ConcurrentCorrelationMap;
using serve::ServingEngine;
using serve::ServingOptions;
using serve::SharedLookupCache;

/// Correlated two-column table (c ~ u / 10) clustered on c, with one plain
/// CM and one concurrent serving CM built over the same rows.
struct ServedCmFixture {
  std::unique_ptr<Table> table;
  std::unique_ptr<CorrelationMap> plain;
  std::unique_ptr<ConcurrentCorrelationMap> served;

  explicit ServedCmFixture(int rows = 20000) {
    Schema schema({ColumnDef::Int64("c"), ColumnDef::Int64("u")});
    table = std::make_unique<Table>("t", std::move(schema));
    Rng rng(53);
    for (int i = 0; i < rows; ++i) {
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
    auto p = CorrelationMap::Create(table.get(), opts);
    EXPECT_TRUE(p.ok());
    EXPECT_TRUE(p->BuildFromTable().ok());
    plain = std::make_unique<CorrelationMap>(std::move(*p));
    auto s = ConcurrentCorrelationMap::Create(table.get(), opts);
    EXPECT_TRUE(s.ok());
    EXPECT_TRUE(s->BuildFromTable().ok());
    served = std::make_unique<ConcurrentCorrelationMap>(std::move(*s));
  }
};

void ExpectServedMatchesPlain(const ServedCmFixture& f,
                               std::span<const CmColumnPredicate> preds) {
  const CmLookupResult served = f.served->Lookup(preds);
  const CmLookupResult single = f.plain->Lookup(preds);
  EXPECT_EQ(served.ranges, single.ranges);
  EXPECT_EQ(served.num_ordinals, single.num_ordinals);
  EXPECT_EQ(served.entries_probed, single.entries_probed);
}

TEST(ConcurrentCmTest, LookupMatchesSingleMapAcrossPredicateShapes) {
  ServedCmFixture f;
  EXPECT_EQ(f.served->NumUKeys(), f.plain->NumUKeys());
  EXPECT_EQ(f.served->NumEntries(), f.plain->NumEntries());
  EXPECT_TRUE(f.served->CheckInvariants().ok());

  std::array<CmColumnPredicate, 1> point = {
      CmColumnPredicate::Points({Key(int64_t{123}), Key(int64_t{456})})};
  ExpectServedMatchesPlain(f, point);
  std::array<CmColumnPredicate, 1> range = {CmColumnPredicate::Range(200, 340)};
  ExpectServedMatchesPlain(f, range);
  std::array<CmColumnPredicate, 1> all = {CmColumnPredicate::Range(-1, 10000)};
  ExpectServedMatchesPlain(f, all);
  std::array<CmColumnPredicate, 1> none = {
      CmColumnPredicate::Range(5000, 6000)};
  ExpectServedMatchesPlain(f, none);
}

TEST(ConcurrentCmTest, MaintenanceRoutesToShardsAndStaysEquivalent) {
  ServedCmFixture f;
  Rng rng(59);
  for (int i = 0; i < 500; ++i) {
    const std::array<Key, 1> u = {Key(rng.UniformInt(0, 1999))};
    const int64_t c = rng.UniformInt(0, 150);
    f.plain->InsertValues(u, c);
    f.served->InsertValues(u, c);
  }
  for (int i = 0; i < 200; ++i) {
    const std::array<Key, 1> u = {Key(rng.UniformInt(0, 1999))};
    const int64_t c = rng.UniformInt(0, 150);
    const Status a = f.plain->DeleteValues(u, c);
    const Status b = f.served->DeleteValues(u, c);
    EXPECT_EQ(a.code(), b.code());
  }
  EXPECT_TRUE(f.served->CheckInvariants().ok());
  EXPECT_EQ(f.served->NumEntries(), f.plain->NumEntries());
  std::array<CmColumnPredicate, 1> wide = {CmColumnPredicate::Range(0, 2500)};
  ExpectServedMatchesPlain(f, wide);
}

TEST(ConcurrentCmTest, InsertRowsBatchedMatchesRowAtATime) {
  ServedCmFixture f;
  // Append fresh rows to the table (tail; ordinals are raw keys so no
  // clustering requirement for CM maintenance).
  Rng rng(61);
  std::vector<RowId> fresh;
  for (int i = 0; i < 1000; ++i) {
    const int64_t u = rng.UniformInt(1000, 1499);
    const std::array<Key, 2> row = {Key(u / 10), Key(u)};
    fresh.push_back(RowId(f.table->NumRows()));
    f.table->AppendRowKeys(row);
  }
  for (RowId r : fresh) f.plain->InsertRow(r);
  f.served->InsertRowsBatched(fresh);
  EXPECT_EQ(f.served->NumEntries(), f.plain->NumEntries());
  std::array<CmColumnPredicate, 1> wide = {CmColumnPredicate::Range(0, 2000)};
  ExpectServedMatchesPlain(f, wide);
  EXPECT_TRUE(f.served->CheckInvariants().ok());
}

TEST(ConcurrentCmTest, RoutedPointLookupMatchesAllShardProbe) {
  // Random point lookups -- several keys each, including keys the map
  // does not hold -- answer exactly as the plain map does, probing the
  // same entries.
  ServedCmFixture f;
  Rng rng(79);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Key> pts;
    const int n = int(rng.UniformInt(1, 5));
    for (int i = 0; i < n; ++i) pts.push_back(Key(rng.UniformInt(0, 1100)));
    std::array<CmColumnPredicate, 1> preds = {
        CmColumnPredicate::Points(pts)};
    ExpectServedMatchesPlain(f, preds);
  }
}

TEST(ConcurrentCmTest, PrecomputedPairWritePathMatchesRowMaintenance) {
  // The concurrent write path buckets each row before locking and hands
  // (u-key, ordinal) pairs down; the post-state must equal per-row
  // maintenance on the plain map, including deletes.
  ServedCmFixture f;
  Rng rng(83);
  std::vector<RowId> fresh;
  for (int i = 0; i < 600; ++i) {
    const int64_t u = rng.UniformInt(0, 1499);
    const std::array<Key, 2> row = {Key(u / 10), Key(u)};
    fresh.push_back(RowId(f.table->NumRows()));
    f.table->AppendRowKeys(row);
  }
  // Half through the batched pair path, half through single-row upserts.
  const std::span<const RowId> head(fresh.data(), fresh.size() / 2);
  f.served->InsertRowsBatched(head);
  for (size_t i = fresh.size() / 2; i < fresh.size(); ++i) {
    f.served->InsertRow(fresh[i]);
  }
  for (RowId r : fresh) f.plain->InsertRow(r);
  EXPECT_EQ(f.served->NumEntries(), f.plain->NumEntries());
  EXPECT_EQ(f.served->NumUKeys(), f.plain->NumUKeys());
  // Delete through the pair path too.
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(f.served->DeleteRow(fresh[i]).code(),
              f.plain->DeleteRow(fresh[i]).code());
  }
  EXPECT_EQ(f.served->NumEntries(), f.plain->NumEntries());
  std::array<CmColumnPredicate, 1> wide = {CmColumnPredicate::Range(0, 2000)};
  ExpectServedMatchesPlain(f, wide);
  EXPECT_TRUE(f.served->CheckInvariants().ok());
}

TEST(ConcurrentCmTest, EpochBracketsMaintenance) {
  ServedCmFixture f;
  const uint64_t e0 = f.served->Epoch();
  const std::array<Key, 1> u = {Key(int64_t{5000})};
  f.served->InsertValues(u, 77);
  // Begin + end bump: quiescent epochs advance by two per operation.
  EXPECT_EQ(f.served->Epoch(), e0 + 2);
  ASSERT_TRUE(f.served->DeleteValues(u, 77).ok());
  EXPECT_EQ(f.served->Epoch(), e0 + 4);
}

/// Builds `opts` over `table` twice -- BuildFromTable(row_limit), and
/// InsertRowsBatched over the same live rows -- and expects the same
/// records in the same order, the same u-key count and the same lookups.
void ExpectBulkBuildMatchesBatched(const Table& table, const CmOptions& opts,
                                   size_t row_limit,
                                   std::span<const CmColumnPredicate> probe) {
  auto bulk = ConcurrentCorrelationMap::Create(&table, opts);
  auto batched = ConcurrentCorrelationMap::Create(&table, opts);
  ASSERT_TRUE(bulk.ok() && batched.ok());
  ASSERT_TRUE(bulk->BuildFromTable(row_limit).ok());
  std::vector<RowId> live;
  for (RowId r = 0; r < std::min(row_limit, table.NumRows()); ++r) {
    if (!table.IsDeleted(r)) live.push_back(r);
  }
  batched->InsertRowsBatched(live);
  const auto want = batched->ToRecords();
  const auto got = bulk->ToRecords();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].u == want[i].u) << "record " << i;
    EXPECT_EQ(got[i].c_ordinal, want[i].c_ordinal) << "record " << i;
    EXPECT_EQ(got[i].count, want[i].count) << "record " << i;
  }
  EXPECT_EQ(bulk->NumUKeys(), batched->NumUKeys());
  EXPECT_EQ(bulk->NumEntries(), batched->NumEntries());
  const CmLookupResult a = bulk->Lookup(probe);
  const CmLookupResult b = batched->Lookup(probe);
  EXPECT_EQ(a.ranges, b.ranges);
  EXPECT_EQ(a.entries_probed, b.entries_probed);
  EXPECT_TRUE(bulk->CheckInvariants().ok());
}

TEST(ConcurrentCmTest, BulkBuildMatchesBatchedInsertInOrder) {
  // A double-clustered table whose clustered region mixes -0.0 and +0.0
  // and whose unclustered u2 holds NaN, -NaN and both zeros; an unsorted
  // tail follows, and every seventh row is tombstoned.
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  Schema schema({ColumnDef::Double("c"), ColumnDef::Int64("u1"),
                 ColumnDef::Double("u2")});
  Table table("t", std::move(schema));
  Rng rng(89);
  const auto row = [&](double c) {
    const int64_t u1 = rng.UniformInt(0, 299);
    const double specials[] = {kNaN, -kNaN, 0.0, -0.0};
    double u2 = double(rng.UniformInt(0, 40)) / 4;
    if (rng.UniformInt(0, 9) == 0) u2 = specials[rng.UniformInt(0, 3)];
    const std::array<Key, 3> keys = {Key(c), Key(u1), Key(u2)};
    table.AppendRowKeys(keys);
  };
  for (int i = 0; i < 6000; ++i) {
    const int64_t c = rng.UniformInt(-20, 60);
    row(c == 0 && rng.UniformInt(0, 1) == 0 ? -0.0 : double(c));
  }
  ASSERT_TRUE(table.ClusterBy(0).ok());
  const size_t boundary = table.NumRows();
  for (int i = 0; i < 1500; ++i) row(double(rng.UniformInt(-25, 65)));
  for (RowId r = 3; r < table.NumRows(); r += 7) {
    ASSERT_TRUE(table.DeleteRow(r).ok());
  }

  CmOptions single;
  single.u_cols = {1};
  single.u_bucketers = {Bucketer::Identity()};
  single.c_col = 0;
  CmOptions composite;
  composite.u_cols = {1, 2};
  composite.u_bucketers = {Bucketer::NumericWidth(25), Bucketer::Identity()};
  composite.c_col = 0;
  const std::array<CmColumnPredicate, 1> range1 = {
      CmColumnPredicate::Range(40, 180)};
  const std::array<CmColumnPredicate, 2> range2 = {
      CmColumnPredicate::Range(0, 120),
      CmColumnPredicate::Points({Key(kNaN), Key(-0.0), Key(2.5)})};
  for (const size_t limit : {~size_t{0}, boundary, boundary / 3}) {
    SCOPED_TRACE(limit);
    ExpectBulkBuildMatchesBatched(table, single, limit, range1);
    ExpectBulkBuildMatchesBatched(table, composite, limit, range2);
  }
  // c-bucketed: positional bucket ids over a clustered prefix.
  Table prefix("p", table.schema());
  for (RowId r = 0; r < boundary; ++r) {
    std::array<Key, 3> keys;
    for (size_t c = 0; c < 3; ++c) keys[c] = table.GetKey(r, c);
    prefix.AppendRowKeys(keys);
  }
  ASSERT_TRUE(prefix.ClusterBy(0).ok());
  for (RowId r = 5; r < prefix.NumRows(); r += 11) {
    ASSERT_TRUE(prefix.DeleteRow(r).ok());
  }
  auto cb = ClusteredBucketing::Build(prefix, 0, 200);
  ASSERT_TRUE(cb.ok());
  CmOptions bucketed = composite;
  bucketed.c_buckets = &*cb;
  ExpectBulkBuildMatchesBatched(prefix, bucketed, ~size_t{0}, range2);
  ExpectBulkBuildMatchesBatched(prefix, bucketed, boundary / 2, range2);
}

TEST(ConcurrentCmTest, EmptyBulkBuildBumpsNothing) {
  Schema schema({ColumnDef::Int64("c"), ColumnDef::Int64("u")});
  Table table("t", std::move(schema));
  ASSERT_TRUE(table.ClusterBy(0).ok());
  CmOptions opts;
  opts.u_cols = {1};
  opts.u_bucketers = {Bucketer::Identity()};
  opts.c_col = 0;
  auto cm = ConcurrentCorrelationMap::Create(&table, opts);
  ASSERT_TRUE(cm.ok());
  const uint64_t e0 = cm->Epoch();
  ASSERT_TRUE(cm->BuildFromTable().ok());
  EXPECT_EQ(cm->Epoch(), e0);
  EXPECT_EQ(cm->NumEntries(), 0u);
  // Rows that are all tombstoned, or all past the limit, build nothing too.
  for (int64_t i = 0; i < 4; ++i) {
    const std::array<Key, 2> keys = {Key(i), Key(i * 3)};
    table.AppendRowKeys(keys);
  }
  ASSERT_TRUE(cm->BuildFromTable(0).ok());
  for (RowId r = 0; r < 4; ++r) ASSERT_TRUE(table.DeleteRow(r).ok());
  ASSERT_TRUE(cm->BuildFromTable().ok());
  EXPECT_EQ(cm->Epoch(), e0);
  EXPECT_EQ(cm->NumEntries(), 0u);
}

TEST(SharedLookupCacheTest, HitsOnlyAtExactEpochAndEvictsStaleLazily) {
  SharedLookupCache cache(4);
  const int cm_a = 0, cm_b = 0;  // two distinct addresses
  auto result = std::make_shared<const CmLookupResult>();
  cache.Put(&cm_a, 0xfeed, 7, result);
  EXPECT_EQ(cache.Size(), 1u);

  EXPECT_EQ(cache.Get(&cm_a, 0xfeed, 7), result);      // exact hit
  EXPECT_EQ(cache.Get(&cm_a, 0xbeef, 7), nullptr);     // other fingerprint
  EXPECT_EQ(cache.Get(&cm_b, 0xfeed, 7), nullptr);     // other CM
  EXPECT_EQ(cache.stats().hits, 1u);

  // Probing under a newer epoch evicts the stale entry on the spot.
  EXPECT_EQ(cache.Get(&cm_a, 0xfeed, 9), nullptr);
  EXPECT_EQ(cache.stats().stale_evictions, 1u);
  EXPECT_EQ(cache.Size(), 0u);
  // ...and the old epoch no longer hits either (entry is gone).
  EXPECT_EQ(cache.Get(&cm_a, 0xfeed, 7), nullptr);

  // Put never downgrades an entry to an older epoch.
  auto newer = std::make_shared<const CmLookupResult>();
  cache.Put(&cm_a, 0xfeed, 9, newer);
  cache.Put(&cm_a, 0xfeed, 7, result);
  EXPECT_EQ(cache.Get(&cm_a, 0xfeed, 9), newer);
}

TEST(SharedLookupCacheTest, FingerprintSeparatesPredicateShapes) {
  std::array<CmColumnPredicate, 1> p1 = {
      CmColumnPredicate::Points({Key(int64_t{1})})};
  std::array<CmColumnPredicate, 1> p2 = {
      CmColumnPredicate::Points({Key(int64_t{2})})};
  std::array<CmColumnPredicate, 1> r1 = {CmColumnPredicate::Range(1, 2)};
  std::array<CmColumnPredicate, 1> r2 = {CmColumnPredicate::Range(1, 3)};
  const uint64_t h_p1 = SharedLookupCache::Fingerprint(p1);
  EXPECT_NE(h_p1, SharedLookupCache::Fingerprint(p2));
  EXPECT_NE(SharedLookupCache::Fingerprint(r1),
            SharedLookupCache::Fingerprint(r2));
  EXPECT_NE(h_p1, SharedLookupCache::Fingerprint(r1));
  EXPECT_EQ(h_p1, SharedLookupCache::Fingerprint(p1));  // deterministic
}

/// A disk on which sequential pages cost far more than seeks, so a CM
/// sweep of a few ranges beats the full scan even on the small tables
/// below (on the paper's disk the cost model rightly prefers the scan).
/// Tests about the CM machinery -- cache semantics, used_cm expectations
/// -- serve through it; tests/serve_plan_choice_test.cc covers the
/// deliberation itself.
DiskModel ScanAverseDisk() {
  return DiskModel(/*seek_ms=*/0.01, /*seq_page_ms=*/5.0);
}

/// Engine over the correlated table with one CM on u; `disk` prices its
/// plans.
struct EngineFixture {
  std::unique_ptr<Table> table;
  std::unique_ptr<ClusteredIndex> cidx;
  std::unique_ptr<ServingEngine> engine;

  explicit EngineFixture(DiskModel disk = DiskModel()) {
    Schema schema({ColumnDef::Int64("c"), ColumnDef::Int64("u")});
    table = std::make_unique<Table>("t", std::move(schema));
    Rng rng(67);
    for (int i = 0; i < 20000; ++i) {
      const int64_t u = rng.UniformInt(0, 999);
      std::array<Value, 2> row = {Value(u / 10 + rng.UniformInt(0, 1)),
                                  Value(u)};
      EXPECT_TRUE(table->AppendRow(row).ok());
    }
    EXPECT_TRUE(table->ClusterBy(0).ok());
    auto ci = ClusteredIndex::Build(*table, 0);
    EXPECT_TRUE(ci.ok());
    cidx = std::make_unique<ClusteredIndex>(std::move(*ci));
    ServingOptions opts;
    opts.num_workers = 2;
    opts.reserve_rows = table->NumRows() + 50000;
    opts.disk = disk;
    engine = std::make_unique<ServingEngine>(table.get(), cidx.get(), opts);
    CmOptions copts;
    copts.u_cols = {1};
    copts.u_bucketers = {Bucketer::Identity()};
    copts.c_col = 0;
    EXPECT_TRUE(engine->AttachCm(copts).ok());
  }

  void ExpectProbeEqualsScan(const Query& q) {
    const serve::SelectResult probe = engine->ExecuteSelect(q);
    const ExecResult scan = FullTableScan(*table, q);
    EXPECT_EQ(probe.num_matches, scan.NumMatches());
  }
};

TEST(ServingEngineTest, ProbeEqualsScanBeforeAndAfterTailAppends) {
  EngineFixture f;
  const Query eq({Predicate::Eq(*f.table, "u", Value(321))});
  const Query range(
      {Predicate::Between(*f.table, "u", Value(150), Value(260))});
  const Query no_cm({Predicate::Eq(*f.table, "c", Value(12))});
  f.ExpectProbeEqualsScan(eq);
  f.ExpectProbeEqualsScan(range);
  f.ExpectProbeEqualsScan(no_cm);  // full-scan fallback

  // Appends land in the unclustered tail; selects must see them at once.
  Rng rng(71);
  std::vector<std::vector<Key>> rows;
  for (int i = 0; i < 5000; ++i) {
    const int64_t u = rng.UniformInt(0, 999);
    rows.push_back({Key(u / 10), Key(u)});
  }
  ASSERT_TRUE(f.engine->ApplyAppend(rows).ok());
  EXPECT_EQ(f.table->NumRows(), 25000u);
  f.ExpectProbeEqualsScan(eq);
  f.ExpectProbeEqualsScan(range);
  f.ExpectProbeEqualsScan(no_cm);
  EXPECT_TRUE(f.engine->CheckInvariants().ok());

  // Second round: the cache entries from the first round are stale (the
  // appends bumped every CM's epoch) and must not leak wrong counts.
  ASSERT_TRUE(f.engine->ApplyAppend(rows).ok());
  f.ExpectProbeEqualsScan(eq);
  f.ExpectProbeEqualsScan(range);
}

TEST(ServingEngineTest, AppendPastReservationIsRefused) {
  EngineFixture f;
  std::vector<std::vector<Key>> huge(
      f.table->ReservedRows() - f.table->NumRows() + 1,
      {Key(int64_t{1}), Key(int64_t{1})});
  const Status s = f.engine->ApplyAppend(huge);
  EXPECT_EQ(s.code(), Status::Code::kResourceExhausted);
}

TEST(ServingEngineTest, ClusteredBucketingCmServesExactlyAcrossTailAndSwap) {
  // c-bucketed CMs are admissible: tail rows are skipped by CM
  // maintenance (positional ids do not cover them) and served by the
  // sweep, and a recluster re-bases the bucketing over the merged region.
  // Build the engine without any other CM over u so every select below
  // actually runs through the positional bucket-run translation.
  Schema schema({ColumnDef::Int64("c"), ColumnDef::Int64("u")});
  Table table("t", std::move(schema));
  Rng rng(73);
  for (int i = 0; i < 20000; ++i) {
    const int64_t u = rng.UniformInt(0, 999);
    std::array<Value, 2> row = {Value(u / 10 + rng.UniformInt(0, 1)),
                                Value(u)};
    ASSERT_TRUE(table.AppendRow(row).ok());
  }
  ASSERT_TRUE(table.ClusterBy(0).ok());
  auto cidx = ClusteredIndex::Build(table, 0);
  ASSERT_TRUE(cidx.ok());
  ServingOptions opts;
  opts.num_workers = 2;
  opts.reserve_rows = table.NumRows() + 50000;
  // This test asserts the bucket-run translation path runs (used_cm),
  // which the paper's disk would rightly skip for a scan on a table this
  // small.
  opts.disk = ScanAverseDisk();
  ServingEngine engine(&table, &*cidx, opts);
  auto cb = ClusteredBucketing::Build(table, 0, 64);
  ASSERT_TRUE(cb.ok());
  CmOptions copts;
  copts.u_cols = {1};
  copts.u_bucketers = {Bucketer::Identity()};
  copts.c_col = 0;
  copts.c_buckets = &*cb;
  ASSERT_TRUE(engine.AttachCm(copts).ok());
  ASSERT_TRUE(engine.cm(0).has_clustered_buckets());

  auto expect_exact = [&](const Query& q) {
    const serve::SelectResult probe = engine.ExecuteSelect(q);
    EXPECT_TRUE(probe.used_cm);
    const ExecResult scan = FullTableScan(engine.table(), q);
    EXPECT_EQ(probe.num_matches, scan.NumMatches());
  };
  const Query eq({Predicate::Eq(table, "u", Value(444))});
  const Query range({Predicate::Between(table, "u", Value(100), Value(180))});
  expect_exact(eq);
  expect_exact(range);

  std::vector<std::vector<Key>> rows;
  for (int i = 0; i < 3000; ++i) {
    const int64_t u = rng.UniformInt(0, 999);
    rows.push_back({Key(u / 10), Key(u)});
  }
  ASSERT_TRUE(engine.ApplyAppend(rows).ok());
  expect_exact(eq);  // tail rows come from the sweep
  expect_exact(range);

  auto stats = engine.Recluster();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->performed());
  EXPECT_EQ(engine.TailRows(), 0u);
  // Post-swap the re-based bucketing covers the merged region.
  expect_exact(eq);
  expect_exact(range);
  EXPECT_TRUE(engine.CheckInvariants().ok());
}

TEST(ServingEngineTest, CBucketedCmArmChargesWhatThePlannerPrices) {
  // A c-bucketed CM's bucket ids resolve positionally, so its sorted range
  // set costs one clustered-index descent, not one per bucket run: the
  // planner prices it so and so does the offline CmScan. With the pool
  // off and no tail, the engine's CM arm must charge exactly CmScan's
  // simulated cost plus the in-RAM lookup probe term.
  Schema schema({ColumnDef::Int64("c"), ColumnDef::Int64("u")});
  Table table("t", std::move(schema));
  Rng rng(89);
  for (int i = 0; i < 20000; ++i) {
    const int64_t u = rng.UniformInt(0, 999);
    std::array<Value, 2> row = {Value(u / 10 + rng.UniformInt(0, 1)),
                                Value(u)};
    ASSERT_TRUE(table.AppendRow(row).ok());
  }
  ASSERT_TRUE(table.ClusterBy(0).ok());
  auto cidx = ClusteredIndex::Build(table, 0);
  ASSERT_TRUE(cidx.ok());
  ServingOptions opts;
  opts.num_workers = 0;
  opts.buffer_pool_pages = 0;
  opts.disk = ScanAverseDisk();
  ServingEngine engine(&table, &*cidx, opts);
  auto cb = ClusteredBucketing::Build(table, 0, 64);
  ASSERT_TRUE(cb.ok());
  CmOptions copts;
  copts.u_cols = {1};
  copts.u_bucketers = {Bucketer::Identity()};
  copts.c_col = 0;
  copts.c_buckets = &*cb;
  ASSERT_TRUE(engine.AttachCm(copts).ok());
  auto plain = CorrelationMap::Create(&table, copts);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(plain->BuildFromTable().ok());

  // Two u values far apart: their clustered buckets form separate runs.
  const Query q({Predicate::In(table, "u", {Value(100), Value(500)})});
  auto preds = CmPredicatesFor(*plain, q);
  ASSERT_TRUE(preds.ok());
  const CmLookupResult lookup = engine.cm(0).Lookup(*preds);
  ASSERT_GE(lookup.ranges.size(), 2u);

  const serve::SelectResult served = engine.ExecuteSelect(q);
  ASSERT_TRUE(served.used_cm);
  ASSERT_EQ(served.tail_rows_swept, 0u);
  ExecOptions eo;
  eo.disk = opts.disk;
  const ExecResult offline = CmScan(table, *plain, *cidx, q, eo);
  EXPECT_EQ(served.num_matches, offline.NumMatches());
  EXPECT_EQ(served.rows_examined, offline.rows_examined);
  const double probe = CostModel(opts.disk).CmLookupProbeCost(
      double(engine.cm(0).NumUKeys()), double(lookup.entries_probed));
  EXPECT_NEAR(served.simulated_ms, offline.ms + probe, 1e-9);
}

TEST(ServingEngineTest, ClusteredArmChargesOneDescentPerProbe) {
  // ClusteredRangeCostMs and the offline ClusteredIndexScan charge one
  // clustered-index descent per IN key; so must the engine's arm, also for
  // a key with no rows (its descent lands on page 0). With the pool off and
  // no tail the served cost must equal the offline scan's.
  Schema schema({ColumnDef::Int64("c"), ColumnDef::Int64("u")});
  Table table("t", std::move(schema));
  Rng rng(97);
  for (int i = 0; i < 20000; ++i) {
    const int64_t u = rng.UniformInt(0, 999);
    std::array<Value, 2> row = {Value(2 * (u / 10)), Value(u)};  // c even
    ASSERT_TRUE(table.AppendRow(row).ok());
  }
  ASSERT_TRUE(table.ClusterBy(0).ok());
  auto cidx = ClusteredIndex::Build(table, 0);
  ASSERT_TRUE(cidx.ok());
  ServingOptions opts;
  opts.num_workers = 0;
  opts.buffer_pool_pages = 0;
  opts.disk = ScanAverseDisk();
  ServingEngine engine(&table, &*cidx, opts);

  // 11 is odd, so its probe finds nothing.
  const Query q(
      {Predicate::In(table, "c", {Value(10), Value(11), Value(40)})});
  const serve::SelectResult served = engine.ExecuteSelect(q);
  ASSERT_EQ(served.plan_kind, PlanKind::kClusteredRange);
  ASSERT_EQ(served.tail_rows_swept, 0u);
  ExecOptions eo;
  eo.disk = opts.disk;
  const ExecResult offline = ClusteredIndexScan(table, *cidx, q, eo);
  EXPECT_GT(served.num_matches, 0u);
  EXPECT_EQ(served.num_matches, offline.NumMatches());
  EXPECT_NEAR(served.simulated_ms, offline.ms, 1e-9);
}

TEST(ServingEngineTest, AttachRejectsStaleClusteredBucketing) {
  // A bucketing that does not cover exactly the clustered region (here:
  // built over a table that already grew an unclustered tail, so its
  // positional ids extend past the boundary) must be refused.
  EngineFixture f;
  std::vector<std::vector<Key>> rows(10, {Key(int64_t{1}), Key(int64_t{1})});
  ASSERT_TRUE(f.engine->ApplyAppend(rows).ok());
  auto cb = ClusteredBucketing::Build(*f.table, 0, 64);
  ASSERT_TRUE(cb.ok());
  CmOptions copts;
  copts.u_cols = {1};
  copts.u_bucketers = {Bucketer::Identity()};
  copts.c_col = 0;
  copts.c_buckets = &*cb;
  EXPECT_EQ(f.engine->AttachCm(copts).code(),
            Status::Code::kInvalidArgument);
}

TEST(ServingEngineTest, SubmitAndAppendRunThroughWorkerPool) {
  EngineFixture f;
  const Query eq({Predicate::Eq(*f.table, "u", Value(500))});
  const ExecResult scan = FullTableScan(*f.table, eq);
  // One select at a time: two in flight on two workers could both miss
  // the cache before either publishes its lookup.
  EXPECT_EQ(f.engine->Submit(eq).get().num_matches, scan.NumMatches());
  EXPECT_EQ(f.engine->Submit(eq).get().num_matches, scan.NumMatches());
  // The second submit hit the shared cache (same fingerprint and epoch).
  EXPECT_GE(f.engine->cache().stats().hits, 1u);

  std::vector<std::vector<Key>> rows(
      100, {Key(int64_t{50}), Key(int64_t{500})});
  EXPECT_TRUE(f.engine->Append(std::move(rows)).get().ok());
  EXPECT_EQ(f.engine->Submit(eq).get().num_matches, scan.NumMatches() + 100);
}

TEST(ServingEngineTest, CacheServesRepeatsWithoutRecomputingLookups) {
  EngineFixture f(ScanAverseDisk());
  const Query eq({Predicate::Eq(*f.table, "u", Value(700))});
  (void)f.engine->ExecuteSelect(eq);
  const auto before = f.engine->cache().stats();
  for (int i = 0; i < 10; ++i) {
    const serve::SelectResult r = f.engine->ExecuteSelect(eq);
    EXPECT_TRUE(r.cache_hit);
  }
  const auto after = f.engine->cache().stats();
  EXPECT_EQ(after.hits, before.hits + 10);
  EXPECT_EQ(after.insertions, before.insertions);
}

TEST(ServingEngineTest, CacheEntriesFromPreReclusterEpochAreEvictedNotServed) {
  // Entries keyed to the pre-recluster epoch must never be served after
  // the swap: the successor CM is published under the same stable cache
  // slot with a strictly higher epoch, so the old entry compares stale on
  // its next probe and is lazily evicted. The scan-averse disk makes the
  // CM probe win, so cache_hit reflects exactly this CM's entry.
  EngineFixture f(ScanAverseDisk());
  const Query eq({Predicate::Eq(*f.table, "u", Value(321))});

  // Grow a tail, then warm the cache so the entry is *fresh* at the
  // pre-recluster epoch (appends themselves also bump epochs; warming
  // after them isolates the recluster swap as the only invalidation).
  std::vector<std::vector<Key>> rows(
      250, {Key(int64_t{32}), Key(int64_t{321})});
  ASSERT_TRUE(f.engine->ApplyAppend(rows).ok());
  (void)f.engine->ExecuteSelect(eq);
  const serve::SelectResult warmed = f.engine->ExecuteSelect(eq);
  EXPECT_TRUE(warmed.cache_hit);
  const uint64_t matches = warmed.num_matches;

  const auto evictions_before = f.engine->cache().stats().stale_evictions;
  auto stats = f.engine->Recluster();
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->performed());
  EXPECT_EQ(f.engine->TailRows(), 0u);

  // First select after the swap must not serve the pre-recluster entry:
  // the successor CM was published under the same stable slot with a
  // strictly higher epoch, so the probe misses, recomputes against the
  // successor, and lazily evicts the stale entry.
  const serve::SelectResult after = f.engine->ExecuteSelect(eq);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.num_matches, matches);  // rows merged, count unchanged
  EXPECT_EQ(after.recluster_epoch, stats->epoch);
  EXPECT_GT(f.engine->cache().stats().stale_evictions, evictions_before);

  // The recomputed entry is publishable and serves at the new epoch.
  const serve::SelectResult repeat = f.engine->ExecuteSelect(eq);
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_EQ(repeat.num_matches, matches);
}

/// First live row whose column `col` equals `v` in the engine's current
/// epoch (row ids are only stable between recluster swaps).
RowId ResolveRow(const Table& t, size_t col, int64_t v) {
  for (RowId r = 0; r < t.NumRows(); ++r) {
    if (!t.IsDeleted(r) && t.GetKey(r, col) == Key(v)) return r;
  }
  ADD_FAILURE() << "no live row with col" << col << "=" << v;
  return 0;
}

TEST(ServingEngineTest, DeleteRetractsFromCmsAndFiltersEveryAccessPath) {
  // Regression lock-in: every access path -- CM probe, clustered-index
  // range, and the tail sweep -- must skip tombstoned rows, and the
  // delete must retract the row's pairs from the CM so its books still
  // balance. The scan-averse disk makes the CM probe win the u queries.
  EngineFixture f(ScanAverseDisk());
  const Query eq_u({Predicate::Eq(*f.table, "u", Value(321))});
  const Query eq_c({Predicate::Eq(*f.table, "c", Value(12))});
  // Put a known row in the unclustered tail so the sweep has a victim.
  std::vector<std::vector<Key>> rows(
      10, {Key(int64_t{32}), Key(int64_t{321})});
  ASSERT_TRUE(f.engine->ApplyAppend(rows).ok());

  const uint64_t u_before = f.engine->ExecuteSelect(eq_u).num_matches;
  const uint64_t c_before = f.engine->ExecuteSelect(eq_c).num_matches;
  ASSERT_GT(u_before, 0u);
  ASSERT_GT(c_before, 0u);

  // One victim per path: clustered-region row reached through the CM
  // probe, a row under the c predicate (clustered-index range), and a
  // tail row (sweep).
  const RowId in_clustered = ResolveRow(f.engine->table(), 1, 321);
  ASSERT_LT(in_clustered, f.engine->clustered_boundary());
  const RowId under_c = ResolveRow(f.engine->table(), 0, 12);
  const RowId in_tail = RowId(f.engine->table().NumRows() - 1);
  ASSERT_GE(in_tail, f.engine->clustered_boundary());
  ASSERT_TRUE(f.engine->ApplyDelete(in_clustered).ok());
  ASSERT_TRUE(f.engine->ApplyDelete(under_c).ok());
  ASSERT_TRUE(f.engine->ApplyDelete(in_tail).ok());

  const serve::SelectResult u_after = f.engine->ExecuteSelect(eq_u);
  EXPECT_TRUE(u_after.used_cm);
  EXPECT_EQ(u_after.num_matches, u_before - 2);  // clustered + tail victim
  EXPECT_EQ(f.engine->ExecuteSelect(eq_c).num_matches, c_before - 1);
  f.ExpectProbeEqualsScan(eq_u);
  f.ExpectProbeEqualsScan(eq_c);
  EXPECT_EQ(f.engine->table().NumDeleted(), 3u);
  EXPECT_TRUE(f.engine->CheckInvariants().ok());
}

TEST(ServingEngineTest, CachedLookupCoveringDeletedKeyGoesStaleOnDelete) {
  // A cached lookup whose covered u-key loses a row must not be served
  // after the delete: the CM retraction bumps the epoch, so the next
  // probe compares stale, recomputes, and re-caches at the new epoch.
  EngineFixture f(ScanAverseDisk());
  const Query eq({Predicate::Eq(*f.table, "u", Value(700))});
  (void)f.engine->ExecuteSelect(eq);
  const serve::SelectResult warmed = f.engine->ExecuteSelect(eq);
  ASSERT_TRUE(warmed.cache_hit);
  ASSERT_GT(warmed.num_matches, 0u);

  const auto evictions_before = f.engine->cache().stats().stale_evictions;
  const RowId victim = ResolveRow(f.engine->table(), 1, 700);
  ASSERT_TRUE(f.engine->ApplyDelete(victim).ok());

  const serve::SelectResult after = f.engine->ExecuteSelect(eq);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.num_matches, warmed.num_matches - 1);
  EXPECT_GT(f.engine->cache().stats().stale_evictions, evictions_before);
  const ExecResult scan = FullTableScan(f.engine->table(), eq);
  EXPECT_EQ(after.num_matches, scan.NumMatches());

  // The recomputed entry serves repeats at the post-delete epoch.
  const serve::SelectResult repeat = f.engine->ExecuteSelect(eq);
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_EQ(repeat.num_matches, warmed.num_matches - 1);
}

TEST(ServingEngineTest, DeleteEdgeCasesAndBatchIdempotence) {
  EngineFixture f;
  const size_t n = f.engine->table().NumRows();
  // Past the end of the heap.
  EXPECT_EQ(f.engine->ApplyDelete(RowId(n)).code(),
            Status::Code::kOutOfRange);
  // Double delete of the same row.
  ASSERT_TRUE(f.engine->ApplyDelete(5).ok());
  EXPECT_EQ(f.engine->ApplyDelete(5).code(), Status::Code::kNotFound);
  // Batch deletes tolerate duplicates and already-dead rows: each row is
  // tombstoned and retracted at most once.
  const std::vector<RowId> batch = {5, 9, 9, 12};
  ASSERT_TRUE(f.engine->ApplyDeletes(batch).ok());
  EXPECT_EQ(f.engine->table().NumDeleted(), 3u);
  EXPECT_EQ(f.engine->table().NumLiveRows(), n - 3);
  EXPECT_TRUE(f.engine->CheckInvariants().ok());

  // Async wrappers run the same paths through the worker pool.
  const RowId victim = ResolveRow(f.engine->table(), 1, 123);
  EXPECT_TRUE(f.engine->Delete(victim).get().ok());
  const RowId moved = ResolveRow(f.engine->table(), 1, 456);
  EXPECT_TRUE(
      f.engine->Update(moved, {Key(int64_t{45}), Key(int64_t{457})})
          .get()
          .ok());
  EXPECT_EQ(f.engine->table().NumDeleted(), 5u);
  const Query q({Predicate::Eq(*f.table, "u", Value(457))});
  f.ExpectProbeEqualsScan(q);
}

TEST(ServingEngineTest, SuccessorCmEpochIsRaisedAboveRetiredPredecessor) {
  // The lazy-eviction guarantee rests on epochs increasing across the
  // swap; pin the property directly.
  EngineFixture f;
  std::vector<std::vector<Key>> rows(
      100, {Key(int64_t{5}), Key(int64_t{55})});
  ASSERT_TRUE(f.engine->ApplyAppend(rows).ok());
  const uint64_t epoch_before = f.engine->cm(0).Epoch();
  auto stats = f.engine->Recluster();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(f.engine->cm(0).Epoch(), epoch_before);
  EXPECT_EQ(f.engine->ReclusterEpoch(), stats->epoch);
  EXPECT_EQ(f.engine->ReclustersCompleted(), 1u);
}

TEST(WorkloadDriverTest, SingleThreadedRunReportsThroughputAndLatency) {
  EngineFixture f;
  std::vector<Query> pool;
  for (int64_t u = 0; u < 20; ++u) {
    pool.push_back(Query({Predicate::Eq(*f.table, "u", Value(u * 40))}));
  }
  serve::DriverOptions dopts;
  dopts.reader_threads = 1;
  dopts.writer_threads = 1;
  dopts.lookups_per_reader = 50;
  dopts.batches_per_writer = 3;
  dopts.use_worker_pool = false;
  std::vector<std::vector<std::vector<Key>>> batches(
      3, std::vector<std::vector<Key>>(200, {Key(int64_t{5}),
                                             Key(int64_t{55})}));
  serve::WorkloadDriver driver(f.engine.get(), dopts);
  const serve::DriverReport rep = driver.Run(pool, batches);
  EXPECT_EQ(rep.lookups, 50u);
  EXPECT_EQ(rep.batches_appended, 3u);
  EXPECT_EQ(rep.rows_appended, 600u);
  EXPECT_GT(rep.lookups_per_second, 0.0);
  EXPECT_GT(rep.lookup_latency.p99_us, 0.0);
  EXPECT_GE(rep.lookup_latency.p99_us, rep.lookup_latency.p50_us);
  // Post-run: probe still equals scan.
  for (const Query& q : pool) f.ExpectProbeEqualsScan(q);
}

}  // namespace
}  // namespace corrmap

// Tests for the five access paths: every path must return exactly the rows
// a full scan returns (no false positives/negatives in results), and their
// relative simulated costs must follow the paper's §3 analysis.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>

#include "common/rng.h"
#include "exec/access_path.h"
#include "workload/tpch_gen.h"

namespace corrmap {
namespace {

/// Correlated numeric workload: table clustered on c; u ~ soft FD of c.
struct Fixture {
  std::unique_ptr<Table> table;
  std::unique_ptr<ClusteredIndex> cidx;
  std::unique_ptr<SecondaryIndex> sidx;
  std::unique_ptr<CorrelationMap> cm;

  explicit Fixture(size_t rows = 30000, bool correlated = true) {
    Schema schema({ColumnDef::Int64("c"), ColumnDef::Int64("u"),
                   ColumnDef::Double("payload")});
    table = std::make_unique<Table>("t", std::move(schema));
    Rng rng(59);
    for (size_t i = 0; i < rows; ++i) {
      const int64_t u = rng.UniformInt(0, 999);
      const int64_t c = correlated ? u / 10 + rng.UniformInt(0, 1)
                                   : rng.UniformInt(0, 99);
      std::array<Value, 3> row = {Value(c), Value(u),
                                  Value(rng.UniformDouble(0, 1))};
      EXPECT_TRUE(table->AppendRow(row).ok());
    }
    EXPECT_TRUE(table->ClusterBy(0).ok());
    auto ci = ClusteredIndex::Build(*table, 0);
    EXPECT_TRUE(ci.ok());
    cidx = std::make_unique<ClusteredIndex>(std::move(*ci));
    sidx = std::make_unique<SecondaryIndex>(table.get(),
                                            std::vector<size_t>{1});
    EXPECT_TRUE(sidx->BuildFromTable().ok());
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

TEST(AccessPathTest, AllPathsAgreeOnEqualityResults) {
  Fixture f;
  Query q({Predicate::Eq(*f.table, "u", Value(137))});
  auto scan = FullTableScan(*f.table, q);
  auto pipelined = PipelinedIndexScan(*f.table, *f.sidx, q);
  auto sorted = SortedIndexScan(*f.table, *f.sidx, q);
  auto virt = VirtualSortedIndexScan(*f.table, q, 1);
  auto cms = CmScan(*f.table, *f.cm, *f.cidx, q);
  ASSERT_GT(scan.rows.size(), 0u);
  EXPECT_EQ(pipelined.rows, scan.rows);
  EXPECT_EQ(sorted.rows, scan.rows);
  EXPECT_EQ(virt.rows, scan.rows);
  EXPECT_EQ(cms.rows, scan.rows);
}

TEST(AccessPathTest, AllPathsAgreeOnInListResults) {
  Fixture f;
  Query q({Predicate::In(*f.table, "u", {Value(5), Value(500), Value(990)})});
  auto scan = FullTableScan(*f.table, q);
  auto sorted = SortedIndexScan(*f.table, *f.sidx, q);
  auto cms = CmScan(*f.table, *f.cm, *f.cidx, q);
  EXPECT_EQ(sorted.rows, scan.rows);
  EXPECT_EQ(cms.rows, scan.rows);
}

TEST(AccessPathTest, RangePredicateResultsAgree) {
  Fixture f;
  Query q({Predicate::Between(*f.table, "u", Value(100), Value(140))});
  auto scan = FullTableScan(*f.table, q);
  auto sorted = SortedIndexScan(*f.table, *f.sidx, q);
  auto cms = CmScan(*f.table, *f.cm, *f.cidx, q);
  ASSERT_GT(scan.rows.size(), 0u);
  EXPECT_EQ(sorted.rows, scan.rows);
  EXPECT_EQ(cms.rows, scan.rows);
}

TEST(AccessPathTest, ClusteredIndexScanMatchesScan) {
  // Large enough that the clustered descent's seeks beat a full sweep (on
  // tiny tables the 5.5 ms seek floor exceeds the scan, per the model).
  Fixture f(150000);
  Query q({Predicate::Between(*f.table, "c", Value(10), Value(20))});
  auto scan = FullTableScan(*f.table, q);
  auto clustered = ClusteredIndexScan(*f.table, *f.cidx, q);
  EXPECT_EQ(clustered.rows, scan.rows);
  EXPECT_LT(clustered.ms, scan.ms);
}

TEST(AccessPathTest, ScanCostIsPagesTimesSeqCost) {
  Fixture f;
  Query q({Predicate::Eq(*f.table, "u", Value(1))});
  auto scan = FullTableScan(*f.table, q);
  EXPECT_EQ(scan.io.seq_pages, f.table->NumPages());
  EXPECT_EQ(scan.io.seeks, 0u);
  EXPECT_DOUBLE_EQ(scan.ms, 0.078 * double(f.table->NumPages()));
}

TEST(AccessPathTest, CorrelationMakesSortedScanCheap) {
  Fixture corr(200000, /*correlated=*/true);
  Fixture uncorr(200000, /*correlated=*/false);
  Query qc({Predicate::Eq(*corr.table, "u", Value(321))});
  Query qu({Predicate::Eq(*uncorr.table, "u", Value(321))});
  auto sc = SortedIndexScan(*corr.table, *corr.sidx, qc);
  auto su = SortedIndexScan(*uncorr.table, *uncorr.sidx, qu);
  // Same matching rows scattered vs clustered: correlated must be much
  // cheaper (the Fig. 1 effect); the uncorrelated sweep degrades to ~scan.
  EXPECT_LT(sc.ms * 3, su.ms);
}

TEST(AccessPathTest, PipelinedWorseThanSortedWhenScattered) {
  Fixture f(30000, /*correlated=*/false);
  Query q(
      {Predicate::In(*f.table, "u", {Value(1), Value(2), Value(3), Value(4)})});
  auto pipelined = PipelinedIndexScan(*f.table, *f.sidx, q);
  auto sorted = SortedIndexScan(*f.table, *f.sidx, q);
  EXPECT_EQ(pipelined.rows, sorted.rows);
  EXPECT_GE(pipelined.ms, sorted.ms);
}

TEST(AccessPathTest, CmScanExaminesSuperset) {
  // Bucketed CM reads false-positive rows but filters them out.
  Schema schema({ColumnDef::Int64("c"), ColumnDef::Double("u")});
  Table t("t", std::move(schema));
  Rng rng(61);
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.UniformDouble(0, 10000);
    std::array<Value, 2> row = {Value(int64_t(u / 100)), Value(u)};
    ASSERT_TRUE(t.AppendRow(row).ok());
  }
  ASSERT_TRUE(t.ClusterBy(0).ok());
  auto cidx = ClusteredIndex::Build(t, 0);
  ASSERT_TRUE(cidx.ok());
  auto cb = ClusteredBucketing::Build(t, 0, 256);
  ASSERT_TRUE(cb.ok());
  CmOptions opts;
  opts.u_cols = {1};
  opts.u_bucketers = {Bucketer::ValueOrdinalFromColumn(t, 1, 6)};
  opts.c_col = 0;
  opts.c_buckets = &*cb;
  auto cm = CorrelationMap::Create(&t, opts);
  ASSERT_TRUE(cm.ok());
  ASSERT_TRUE(cm->BuildFromTable().ok());

  Query q({Predicate::Between(t, "u", Value(2000.0), Value(2200.0))});
  auto scan = FullTableScan(t, q);
  auto cms = CmScan(t, *cm, *cidx, q);
  EXPECT_EQ(cms.rows, scan.rows);           // exact answers
  EXPECT_GT(cms.rows_examined, cms.rows.size());  // but superset examined
  EXPECT_LT(cms.ms, scan.ms);               // and still cheaper than a scan
}

TEST(AccessPathTest, UncachedCmChargesItsPages) {
  Fixture f(200000);
  Query q({Predicate::Eq(*f.table, "u", Value(10))});
  ExecOptions cached;
  ExecOptions uncached;
  uncached.cm_cached = false;
  auto a = CmScan(*f.table, *f.cm, *f.cidx, q, cached);
  auto b = CmScan(*f.table, *f.cm, *f.cidx, q, uncached);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_GT(b.ms, a.ms);
}

TEST(AccessPathTest, TraceRecordsTouchedPages) {
  Fixture f;
  Query q({Predicate::Eq(*f.table, "u", Value(77))});
  ExecOptions opts;
  opts.keep_trace = true;
  auto sorted = SortedIndexScan(*f.table, *f.sidx, q, opts);
  EXPECT_GT(sorted.trace.NumDistinctPages(), 0u);
  EXPECT_LE(sorted.trace.NumDistinctPages(), f.table->NumPages());
}

TEST(AccessPathTest, CmPredicatesForRejectsUnpredicatedAttr) {
  Fixture f;
  Query q({Predicate::Eq(*f.table, "payload", Value(0.5))});
  auto preds = CmPredicatesFor(*f.cm, q);
  EXPECT_FALSE(preds.ok());
}

TEST(AccessPathTest, DeletedRowsExcludedEverywhere) {
  Fixture f;
  Query q({Predicate::Eq(*f.table, "u", Value(137))});
  auto before = FullTableScan(*f.table, q);
  ASSERT_GT(before.rows.size(), 0u);
  ASSERT_TRUE(f.table->DeleteRow(before.rows[0]).ok());
  auto scan = FullTableScan(*f.table, q);
  auto sorted = SortedIndexScan(*f.table, *f.sidx, q);
  auto cms = CmScan(*f.table, *f.cm, *f.cidx, q);
  EXPECT_EQ(scan.rows.size(), before.rows.size() - 1);
  EXPECT_EQ(sorted.rows, scan.rows);
  EXPECT_EQ(cms.rows, scan.rows);
}

// --- The block row filter against the row-at-a-time reference ----------

/// What FilterRowRange / FilterRidList must report, computed the plain way:
/// IsDeleted + Query::Matches on every row.
struct ReferenceFilter {
  RowFilterCounts counts;
  std::vector<RowId> matches;
  std::vector<PageNo> pages;
};

ReferenceFilter ReferenceOverRange(const Table& t, const Query& q,
                                   RowRange range) {
  ReferenceFilter ref;
  if (range.empty()) return ref;
  for (PageNo p = t.layout().PageOfRow(range.begin);
       p <= t.layout().PageOfRow(range.end - 1); ++p) {
    ref.pages.push_back(p);
  }
  for (RowId r = range.begin; r < range.end; ++r) {
    ++ref.counts.examined;
    if (t.IsDeleted(r)) {
      ++ref.counts.dead;
    } else if (q.Matches(t, r)) {
      ++ref.counts.matches;
      ref.matches.push_back(r);
    }
  }
  return ref;
}

ReferenceFilter ReferenceOverRids(const Table& t, const Query& q,
                                  const std::vector<RowId>& rids) {
  ReferenceFilter ref;
  for (const RowId r : rids) {
    ref.pages.push_back(t.layout().PageOfRow(r));
    ++ref.counts.examined;
    if (t.IsDeleted(r)) {
      ++ref.counts.dead;
    } else if (q.Matches(t, r)) {
      ++ref.counts.matches;
      ref.matches.push_back(r);
    }
  }
  return ref;
}

void ExpectSameFilter(const ReferenceFilter& want, const RowFilterCounts& c,
                      const std::vector<RowId>& matches,
                      const std::vector<PageNo>& pages,
                      const std::string& what) {
  EXPECT_EQ(c.examined, want.counts.examined) << what;
  EXPECT_EQ(c.dead, want.counts.dead) << what;
  EXPECT_EQ(c.matches, want.counts.matches) << what;
  EXPECT_EQ(matches, want.matches) << what;
  EXPECT_EQ(pages, want.pages) << what;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

/// Doubles whose comparisons are easy to get wrong: NaN, both zeros, both
/// infinities, and integers just past 2^53.
const std::vector<double>& EdgeDoubles() {
  static const std::vector<double> v = {
      kNaN, -0.0, 0.0, kInf, -kInf, 1.5, -2.5, 3.0, 9007199254740993.0,
      -1e300, 1e300, 0.1};
  return v;
}

/// Ints including the extremes and values int64 -> double rounds.
const std::vector<int64_t>& EdgeInts() {
  static const std::vector<int64_t> v = {
      kI64Min, kI64Max, (int64_t{1} << 53) + 1, -(int64_t{1} << 53) - 1,
      0, -1, 3, 7};
  return v;
}

template <typename T>
T PickFrom(Rng& rng, const std::vector<T>& v) {
  return v[size_t(rng.UniformInt(0, int64_t(v.size()) - 1))];
}

/// Table over int `i`, double `d` and string `s` mixing small random
/// domains with the edge values above. `deleted_upto` rows are appended
/// first and about a quarter of them tombstoned, so the tombstone bitmap
/// ends near there and later rows lie past its capacity.
std::unique_ptr<Table> FilterTable(Rng& rng, size_t rows,
                                   size_t deleted_upto) {
  Schema schema({ColumnDef::Int64("i"), ColumnDef::Double("d"),
                 ColumnDef::String("s")});
  auto t = std::make_unique<Table>("f", std::move(schema));
  static const std::array<const char*, 4> kWords = {"ant", "bee", "cat",
                                                    "dog"};
  auto append = [&](size_t n) {
    for (size_t k = 0; k < n; ++k) {
      const int64_t i = rng.UniformInt(0, 9) == 0 ? PickFrom(rng, EdgeInts())
                                                  : rng.UniformInt(-8, 8);
      const double d = rng.UniformInt(0, 4) == 0
                           ? PickFrom(rng, EdgeDoubles())
                           : double(rng.UniformInt(-16, 16)) / 2;
      std::array<Value, 3> row = {Value(i), Value(d),
                                  Value(kWords[size_t(rng.UniformInt(0, 3))])};
      EXPECT_TRUE(t->AppendRow(row).ok());
    }
  };
  append(deleted_upto);
  for (RowId r = 0; r < deleted_upto; ++r) {
    if (rng.UniformInt(0, 3) == 0) {
      EXPECT_TRUE(t->DeleteRow(r).ok());
    }
  }
  append(rows - deleted_upto);
  return t;
}

/// One random predicate over `t`. `twin` has `t`'s column names with int
/// and double swapped, so predicates built on it carry keys of the other
/// physical type (Eq on `i` with a double key; In on `d` with int keys).
Predicate RandomPredicate(Rng& rng, const Table& t, const Table& twin) {
  auto pick_double = [&] {
    return rng.UniformInt(0, 2) == 0 ? PickFrom(rng, EdgeDoubles())
                                     : double(rng.UniformInt(-20, 20)) / 2;
  };
  auto pick_int = [&] {
    return rng.UniformInt(0, 3) == 0 ? PickFrom(rng, EdgeInts())
                                     : rng.UniformInt(-9, 9);
  };
  const char* col = rng.UniformInt(0, 1) == 0 ? "i" : "d";
  switch (rng.UniformInt(0, 7)) {
    case 0:
    case 1:
      return Predicate::Between(t, col, Value(pick_double()),
                                Value(pick_double()));
    case 2:
      return rng.UniformInt(0, 1) == 0
                 ? Predicate::Le(t, col, Value(pick_double()))
                 : Predicate::Ge(t, col, Value(pick_double()));
    case 3:
      return std::string(col) == "i"
                 ? Predicate::Eq(t, col, Value(pick_int()))
                 : Predicate::Eq(t, col, Value(pick_double()));
    case 4: {
      // IN lists with duplicates; NaN stays out (Predicate::In sorts its
      // keys and NaN has no order).
      std::vector<Value> vs;
      const int n = int(rng.UniformInt(0, 6));
      for (int k = 0; k < n; ++k) {
        if (std::string(col) == "i") {
          vs.emplace_back(pick_int());
        } else {
          double d = pick_double();
          if (std::isnan(d)) d = -0.0;
          vs.emplace_back(d);
        }
        if (rng.UniformInt(0, 2) == 0) vs.push_back(vs.back());
      }
      return Predicate::In(t, col, vs);
    }
    case 5:
      // Key type differs from the column's.
      return std::string(col) == "i"
                 ? Predicate::Eq(twin, col, Value(pick_double()))
                 : Predicate::Eq(twin, col, Value(pick_int()));
    case 6: {
      std::vector<Value> vs;
      for (int k = 0; k < 3; ++k) vs.emplace_back(pick_int());
      return Predicate::In(twin, "d", vs);  // int keys on the double column
    }
    default: {
      // "eel" is not in the dictionary: its code matches nothing.
      static const std::vector<std::string> kProbe = {"bee", "dog", "eel"};
      return Predicate::Eq(t, "s", Value(PickFrom(rng, kProbe)));
    }
  }
}

TEST(RowFilterTest, BlockFilterMatchesRowAtATimeReference) {
  Rng rng(0xB10C);
  for (int round = 0; round < 6; ++round) {
    const size_t rows = size_t(rng.UniformInt(1, 700));
    const size_t deleted_upto = size_t(rng.UniformInt(0, int64_t(rows)));
    const auto t = FilterTable(rng, rows, deleted_upto);
    Table twin("twin", Schema({ColumnDef::Double("i"), ColumnDef::Int64("d"),
                               ColumnDef::String("s")}));
    for (int qi = 0; qi < 60; ++qi) {
      std::vector<Predicate> preds;
      const int n_preds = int(rng.UniformInt(0, 3));
      for (int k = 0; k < n_preds; ++k) {
        preds.push_back(RandomPredicate(rng, *t, twin));
      }
      const Query q(std::move(preds));
      const std::string what = "round " + std::to_string(round) + " query " +
                               std::to_string(qi) + ": " + q.ToString(*t);

      // Ranges: whole table, aligned and unaligned ends, shorter than one
      // word, empty, and ones starting past the tombstone capacity.
      std::vector<RowRange> ranges = {{0, RowId(rows)},
                                      {RowId(rows), RowId(rows)}};
      for (int k = 0; k < 6; ++k) {
        const RowId a = RowId(rng.UniformInt(0, int64_t(rows)));
        const RowId b = RowId(rng.UniformInt(0, int64_t(rows)));
        ranges.push_back({std::min(a, b), std::max(a, b)});
      }
      const RowId a = RowId(rng.UniformInt(0, int64_t(rows) - 1));
      const RowId word = a & ~RowId{63};
      ranges.push_back({a, std::min<RowId>(RowId(rows), a + 5)});
      ranges.push_back({word, std::min<RowId>(RowId(rows), word + 64)});
      ranges.push_back({RowId(deleted_upto), RowId(rows)});
      for (const RowRange& range : ranges) {
        RowFilterCounts counts;
        std::vector<RowId> matches;
        std::vector<PageNo> pages;
        FilterRowRange(*t, q, range, &counts, &matches, &pages);
        ExpectSameFilter(ReferenceOverRange(*t, q, range), counts, matches,
                         pages,
                         what + " range [" + std::to_string(range.begin) +
                             ", " + std::to_string(range.end) + ")");
        RowFilterCounts counts_only;
        FilterRowRange(*t, q, range, &counts_only);
        EXPECT_EQ(counts_only.matches, counts.matches) << what;
        EXPECT_EQ(counts_only.dead, counts.dead) << what;
      }

      // Rid lists: unsorted, with duplicates, in list order.
      std::vector<RowId> rids;
      const int n_rids = int(rng.UniformInt(0, 80));
      for (int k = 0; k < n_rids; ++k) {
        rids.push_back(RowId(rng.UniformInt(0, int64_t(rows) - 1)));
      }
      RowFilterCounts counts;
      std::vector<RowId> matches;
      std::vector<PageNo> pages;
      FilterRidList(*t, q, rids, &counts, &matches, &pages);
      ExpectSameFilter(ReferenceOverRids(*t, q, rids), counts, matches, pages,
                       what + " rid list");
    }
  }
}

TEST(RowFilterTest, CountsStayBetweenSnapshotsWhileRowsAreTombstoned) {
  // Readers filter while a writer tombstones rows inside the reserved
  // capacity (the serving engine's concurrent-delete contract): every
  // count must lie between the before- and after-delete snapshots.
  constexpr size_t kRows = 8192;
  Schema schema({ColumnDef::Int64("i"), ColumnDef::Double("d")});
  Table t("c", std::move(schema));
  t.Reserve(kRows);
  Rng rng(0xDEAD);
  for (size_t r = 0; r < kRows; ++r) {
    const std::array<Key, 2> row = {Key(rng.UniformInt(0, 9)),
                                    Key(rng.UniformDouble(0, 1))};
    t.AppendRowKeys(row);
  }
  const Query q({Predicate::Between(t, "d", Value(0.2), Value(0.7)),
                 Predicate::Le(t, "i", Value(int64_t{6}))});
  const RowRange all{0, RowId(kRows)};
  std::vector<RowId> rids;
  for (RowId r = 0; r < kRows; r += 3) rids.push_back(r);
  std::vector<RowId> doomed;
  for (RowId r = 0; r < kRows; ++r) {
    if (rng.UniformInt(0, 4) == 0) doomed.push_back(r);
  }

  auto count = [&](RowRange range, std::span<const RowId> list) {
    RowFilterCounts c;
    if (list.empty()) {
      FilterRowRange(t, q, range, &c);
    } else {
      FilterRidList(t, q, list, &c);
    }
    return c;
  };
  const RowFilterCounts range_before = count(all, {});
  const RowFilterCounts rids_before = count(all, rids);

  // Each reader records what it saw; the checks run after the join.
  std::atomic<bool> done{false};
  std::vector<RowFilterCounts> seen_range, seen_rids;
  auto reader = [&](bool use_rids, std::vector<RowFilterCounts>* seen) {
    while (!done.load(std::memory_order_acquire) || seen->size() < 4) {
      seen->push_back(use_rids ? count(all, rids) : count(all, {}));
    }
  };
  std::thread r1(reader, false, &seen_range);
  std::thread r2(reader, true, &seen_rids);
  for (const RowId r : doomed) EXPECT_TRUE(t.DeleteRow(r).ok());
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();

  const RowFilterCounts range_after = count(all, {});
  const RowFilterCounts rids_after = count(all, rids);
  EXPECT_EQ(range_after.dead, doomed.size());
  EXPECT_LT(range_after.matches, range_before.matches);
  auto expect_between = [](const std::vector<RowFilterCounts>& seen,
                           const RowFilterCounts& before,
                           const RowFilterCounts& after) {
    for (const RowFilterCounts& c : seen) {
      EXPECT_EQ(c.examined, before.examined);
      EXPECT_LE(c.matches, before.matches);
      EXPECT_GE(c.matches, after.matches);
      EXPECT_GE(c.dead, before.dead);
      EXPECT_LE(c.dead, after.dead);
    }
  };
  expect_between(seen_range, range_before, range_after);
  expect_between(seen_rids, rids_before, rids_after);
}

/// Property sweep over TPC-H shipdate lookups: result-set agreement for
/// every path at several IN-list sizes.
class TpchPathAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchPathAgreementTest, ResultsAgree) {
  const int n_dates = GetParam();
  TpchGenConfig cfg;
  cfg.num_rows = 60000;
  auto table = GenerateLineitem(cfg);
  ASSERT_TRUE(table->ClusterBy(kTpch.receiptdate).ok());
  auto cidx = ClusteredIndex::Build(*table, kTpch.receiptdate);
  ASSERT_TRUE(cidx.ok());
  SecondaryIndex sidx(table.get(), {kTpch.shipdate});
  ASSERT_TRUE(sidx.BuildFromTable().ok());
  CmOptions opts;
  opts.u_cols = {kTpch.shipdate};
  opts.u_bucketers = {Bucketer::Identity()};
  opts.c_col = kTpch.receiptdate;
  auto cm = CorrelationMap::Create(table.get(), opts);
  ASSERT_TRUE(cm.ok());
  ASSERT_TRUE(cm->BuildFromTable().ok());

  Rng rng{uint64_t(n_dates)};
  std::vector<Value> dates;
  dates.reserve(size_t(n_dates));
  for (int i = 0; i < n_dates; ++i) {
    dates.emplace_back(rng.UniformInt(0, 2525));
  }
  Query q({Predicate::In(*table, "shipdate", dates)});
  auto scan = FullTableScan(*table, q);
  auto sorted = SortedIndexScan(*table, sidx, q);
  auto cms = CmScan(*table, *cm, *cidx, q);
  EXPECT_EQ(sorted.rows, scan.rows);
  EXPECT_EQ(cms.rows, scan.rows);
}

INSTANTIATE_TEST_SUITE_P(InListSizes, TpchPathAgreementTest,
                         ::testing::Values(1, 4, 16, 64));

}  // namespace
}  // namespace corrmap

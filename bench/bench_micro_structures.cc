// Micro-benchmarks (google-benchmark): raw operation throughput of the
// core structures -- CM build/lookup/insert/delete, B+Tree
// insert/lookup/scan, bucketer mapping, clustered-index probes, the shared
// row filter every access path re-checks its rows with, and the
// buffer-pool touches a serving select prices its heap sweep with. These
// complement the paper-figure benches with wall-clock numbers for the
// in-memory hot paths.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/correlation_map.h"
#include "exec/access_path.h"
#include "index/btree.h"
#include "index/clustered_index.h"
#include "serve/concurrent_cm.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"

namespace corrmap {
namespace {

std::unique_ptr<Table> MakeTable(size_t rows) {
  Schema schema({ColumnDef::Int64("c"), ColumnDef::Int64("u")});
  auto t = std::make_unique<Table>("t", std::move(schema));
  Rng rng(1);
  t->Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    const int64_t u = rng.UniformInt(0, 9999);
    const std::array<Key, 2> row = {Key(u / 8 + rng.UniformInt(0, 1)), Key(u)};
    t->AppendRowKeys(row);
  }
  (void)t->ClusterBy(0);
  return t;
}

CorrelationMap MakeCm(const Table* t) {
  CmOptions opts;
  opts.u_cols = {1};
  opts.u_bucketers = {Bucketer::Identity()};
  opts.c_col = 0;
  auto cm = CorrelationMap::Create(t, opts);
  (void)cm->BuildFromTable();
  return std::move(*cm);
}

void BM_CmBuild(benchmark::State& state) {
  auto t = MakeTable(size_t(state.range(0)));
  for (auto _ : state) {
    CorrelationMap cm = MakeCm(t.get());
    benchmark::DoNotOptimize(cm.NumEntries());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CmBuild)->Arg(10000)->Arg(100000);

void BM_ConcurrentCmBuild(benchmark::State& state) {
  // The serving engine's bulk build (attach, recluster, recovery) into a
  // fresh map, directory sync included; creating and freeing the map are
  // not timed.
  auto t = MakeTable(size_t(state.range(0)));
  CmOptions opts;
  opts.u_cols = {1};
  opts.u_bucketers = {Bucketer::Identity()};
  opts.c_col = 0;
  for (auto _ : state) {
    state.PauseTiming();
    {
      auto cm = serve::ConcurrentCorrelationMap::Create(t.get(), opts);
      state.ResumeTiming();
      benchmark::DoNotOptimize(cm->BuildFromTable());
      state.PauseTiming();
      benchmark::DoNotOptimize(cm->NumEntries());
    }
    state.ResumeTiming();
  }
  state.counters["ns_per_row"] = benchmark::Counter(
      double(state.range(0)),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_ConcurrentCmBuild)->Arg(100000)->Arg(1000000);

void BM_CmLookupPoint(benchmark::State& state) {
  auto t = MakeTable(100000);
  CorrelationMap cm = MakeCm(t.get());
  Rng rng(2);
  for (auto _ : state) {
    std::array<CmColumnPredicate, 1> preds = {
        CmColumnPredicate::Points({Key(rng.UniformInt(0, 9999))})};
    benchmark::DoNotOptimize(cm.CmLookup(preds));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CmLookupPoint);

void BM_CmLookupRangeScan(benchmark::State& state) {
  // Legacy range path: every lookup scans all u-keys of the map.
  auto t = MakeTable(100000);
  CorrelationMap cm = MakeCm(t.get());
  Rng rng(3);
  for (auto _ : state) {
    const double lo = rng.UniformDouble(0, 9000);
    std::array<CmColumnPredicate, 1> preds = {
        CmColumnPredicate::Range(lo, lo + 500)};
    benchmark::DoNotOptimize(cm.LookupViaScan(preds));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CmLookupRangeScan);

void BM_CmLookupRangeProbe(benchmark::State& state) {
  // Directory path: binary search to the contiguous run of matching
  // ordinals (the default for range predicates).
  auto t = MakeTable(100000);
  CorrelationMap cm = MakeCm(t.get());
  Rng rng(3);
  for (auto _ : state) {
    const double lo = rng.UniformDouble(0, 9000);
    std::array<CmColumnPredicate, 1> preds = {
        CmColumnPredicate::Range(lo, lo + 500)};
    benchmark::DoNotOptimize(cm.Lookup(preds));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CmLookupRangeProbe);

void BM_CmInsertDelete(benchmark::State& state) {
  auto t = MakeTable(100000);
  CorrelationMap cm = MakeCm(t.get());
  Rng rng(4);
  for (auto _ : state) {
    const std::array<Key, 1> u = {Key(rng.UniformInt(0, 9999))};
    const int64_t c = rng.UniformInt(0, 1300);
    cm.InsertValues(u, c);
    benchmark::DoNotOptimize(cm.DeleteValues(u, c));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_CmInsertDelete);

void BM_BTreeInsert(benchmark::State& state) {
  Rng rng(5);
  BTree tree;
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Insert(CompositeKey(Key(rng.UniformInt(0, 1 << 30))), RowId(i++)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeLookup(benchmark::State& state) {
  BTree tree;
  Rng rng(6);
  for (int64_t i = 0; i < 200000; ++i) {
    (void)tree.Insert(CompositeKey(Key(rng.UniformInt(0, 99999))), RowId(i));
  }
  std::vector<RowId> out;
  for (auto _ : state) {
    out.clear();
    tree.Lookup(CompositeKey(Key(rng.UniformInt(0, 99999))), &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup);

void BM_BTreeRangeScan(benchmark::State& state) {
  BTree tree;
  for (int64_t i = 0; i < 200000; ++i) {
    (void)tree.Insert(CompositeKey(Key(i)), RowId(i));
  }
  Rng rng(7);
  for (auto _ : state) {
    const int64_t lo = rng.UniformInt(0, 190000);
    size_t n = 0;
    tree.Scan(CompositeKey(Key(lo)), CompositeKey(Key(lo + 1000)),
              [&](const CompositeKey&, RowId) {
                ++n;
                return true;
              });
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_BTreeRangeScan);

void BM_BucketerValueOrdinal(benchmark::State& state) {
  Rng rng(8);
  std::vector<double> vals;
  for (int i = 0; i < 100000; ++i) vals.push_back(double(i) * 1.7);
  Bucketer b = Bucketer::ValueOrdinalFromValues(vals, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.BucketOf(Key(rng.UniformDouble(0, 170000))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BucketerValueOrdinal);

void BM_ClusteredIndexLookup(benchmark::State& state) {
  auto t = MakeTable(200000);
  auto cidx = ClusteredIndex::Build(*t, 0);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cidx->LookupEqual(Key(rng.UniformInt(0, 1300))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClusteredIndexLookup);

/// Table the filter benches sweep: clustered int `c`, int `u` (soft FD of
/// c) and a double `price`, with `tombstone_pct` percent of rows deleted.
std::unique_ptr<Table> MakeFilterTable(size_t rows, int tombstone_pct) {
  Schema schema({ColumnDef::Int64("c"), ColumnDef::Int64("u"),
                 ColumnDef::Double("price")});
  auto t = std::make_unique<Table>("f", std::move(schema));
  Rng rng(10);
  t->Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    const int64_t u = rng.UniformInt(0, 9999);
    const std::array<Key, 3> row = {Key(u / 8 + rng.UniformInt(0, 1)),
                                    Key(u), Key(rng.UniformDouble(0, 1000))};
    t->AppendRowKeys(row);
  }
  for (size_t r = 0; r < rows; ++r) {
    if (rng.UniformInt(0, 99) < tombstone_pct) (void)t->DeleteRow(RowId(r));
  }
  return t;
}

/// ns/row of one FilterRowRange call, counts only (what a serving select
/// collects). Args: rows swept (a 4000-row tail at the end of a
/// 100k-row table, or all 100k rows), predicate (0 = a 5% price range,
/// 1 = a u point), percent of rows tombstoned.
void BM_FilterRowRange(benchmark::State& state) {
  constexpr size_t kRows = 100000;
  auto t = MakeFilterTable(kRows, int(state.range(2)));
  const size_t swept = size_t(state.range(0));
  const RowRange range{RowId(kRows - swept), RowId(kRows)};
  const Query q = state.range(1) == 0
                      ? Query({Predicate::Between(*t, "price", Value(400.0),
                                                  Value(450.0))})
                      : Query({Predicate::Eq(*t, "u", Value(int64_t{4242}))});
  for (auto _ : state) {
    RowFilterCounts counts;
    FilterRowRange(*t, q, range, &counts);
    benchmark::DoNotOptimize(counts);
  }
  state.counters["ns_per_row"] = benchmark::Counter(
      double(swept),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_FilterRowRange)
    ->ArgNames({"rows", "point", "dead_pct"})
    ->Args({4000, 0, 0})
    ->Args({4000, 1, 0})
    ->Args({4000, 0, 5})
    ->Args({100000, 0, 0})
    ->Args({100000, 1, 0})
    ->Args({100000, 0, 5});

/// ns/rid of FilterRidList over 4096 sorted random rids (a sorted
/// secondary-index sweep) with the price range predicate, 5% tombstoned.
void BM_FilterRidList(benchmark::State& state) {
  constexpr size_t kRows = 100000;
  auto t = MakeFilterTable(kRows, 5);
  Rng rng(11);
  std::vector<RowId> rids(4096);
  for (RowId& r : rids) r = RowId(rng.UniformInt(0, int64_t(kRows) - 1));
  std::sort(rids.begin(), rids.end());
  const Query q({Predicate::Between(*t, "price", Value(400.0),
                                    Value(450.0))});
  for (auto _ : state) {
    RowFilterCounts counts;
    FilterRidList(*t, q, rids, &counts);
    benchmark::DoNotOptimize(counts);
  }
  state.counters["ns_per_row"] = benchmark::Counter(
      double(rids.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_FilterRidList);

/// Shared setup of the pool-touch benches: the serving engine's pool shape
/// (4096 pages, 8 stripes) and 4096 run starts for 64-page runs. Pattern 0
/// keeps every run inside a working set of half the pool, so after warm-up
/// every touch hits; pattern 1 spreads runs over a working set 6x the pool,
/// like the heap of the crud_churn serving workload, so most touches miss
/// and evict. Multi-threaded cases share one rig, built by thread 0 before
/// the timed loop, as concurrent readers share the engine's pool.
struct PoolTouchRig {
  static constexpr uint64_t kRunPages = 64;
  BufferPool pool{4096, 8};
  uint32_t file = pool.RegisterFile();
  std::vector<PageNo> starts;

  explicit PoolTouchRig(int64_t pattern) {
    const uint64_t working_set =
        pattern == 0 ? pool.capacity_pages() / 2 : pool.capacity_pages() * 6;
    Rng rng(12);
    starts.resize(4096);
    for (PageNo& p : starts) {
      p = PageNo(rng.UniformInt(0, int64_t(working_set - kRunPages)));
    }
    for (uint64_t p = 0; p < working_set; ++p) pool.Touch({file, p});
  }
};

std::unique_ptr<PoolTouchRig> pool_touch_rig;

/// Builds the shared rig on thread 0; the timed loop's start barrier keeps
/// the other threads off it until it exists.
void SetUpPoolTouchRig(const benchmark::State& state) {
  if (state.thread_index() == 0) {
    pool_touch_rig = std::make_unique<PoolTouchRig>(state.range(0));
  }
}

/// ns/page per thread: the cost each reader pays, so contention between
/// threads shows as a higher figure than the single-threaded case.
void SetNsPerPage(benchmark::State& state) {
  state.counters["ns_per_page"] = benchmark::Counter(
      double(PoolTouchRig::kRunPages),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kAvgThreads | benchmark::Counter::kInvert);
}

/// ns/page of pricing one 64-page run with a Touch call per page.
void BM_PoolTouch(benchmark::State& state) {
  SetUpPoolTouchRig(state);
  size_t next = size_t(state.thread_index()) * 997;
  for (auto _ : state) {
    PoolTouchRig& rig = *pool_touch_rig;
    const PageNo first = rig.starts[next++ % rig.starts.size()];
    uint64_t hits = 0;
    for (uint64_t i = 0; i < PoolTouchRig::kRunPages; ++i) {
      hits += rig.pool.Touch({rig.file, first + i});
    }
    benchmark::DoNotOptimize(hits);
  }
  SetNsPerPage(state);
}
BENCHMARK(BM_PoolTouch)
    ->ArgName("thrash")
    ->Arg(0)
    ->Arg(1)
    ->Threads(1)
    ->Threads(3)
    ->UseRealTime();

/// ns/page of pricing the same runs with one TouchRun call each.
void BM_PoolTouchRun(benchmark::State& state) {
  SetUpPoolTouchRig(state);
  std::array<uint8_t, PoolTouchRig::kRunPages> hit{};
  size_t next = size_t(state.thread_index()) * 997;
  for (auto _ : state) {
    PoolTouchRig& rig = *pool_touch_rig;
    const PageNo first = rig.starts[next++ % rig.starts.size()];
    rig.pool.TouchRun(rig.file, first, hit.size(), hit.data());
    benchmark::DoNotOptimize(hit.data());
    benchmark::ClobberMemory();
  }
  SetNsPerPage(state);
}
BENCHMARK(BM_PoolTouchRun)
    ->ArgName("thrash")
    ->Arg(0)
    ->Arg(1)
    ->Threads(1)
    ->Threads(3)
    ->UseRealTime();

}  // namespace
}  // namespace corrmap

BENCHMARK_MAIN();

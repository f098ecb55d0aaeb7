// ShardRouter coverage: routing correctness (clustered predicates visit
// exactly the owning shards, appends land where their key routes),
// CM-pruned scatter parity with a full scatter-gather, cross-shard merge
// determinism, per-shard recluster epochs (a swap in one shard aborts only
// that shard's stale writers), and cross-shard update moves.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "exec/access_path.h"
#include "index/clustered_index.h"
#include "obs/serving_metrics.h"
#include "serve/durability.h"
#include "serve/shard_router.h"
#include "storage/table.h"

namespace corrmap {
namespace {

using serve::Durability;
using serve::DurabilityOptions;
using serve::RoutedSelectResult;
using serve::RouterOptions;
using serve::ServingEngine;
using serve::ServingOptions;
using serve::ShardRouter;

/// Correlated (c ~ u/10) three-column table clustered on c, partitioned
/// four ways, with an unbucketed CM over u -- so u-queries can prune
/// shards through the CM and c-queries route by key range.
struct RouterFixture {
  std::unique_ptr<Table> table;
  std::unique_ptr<ShardRouter> router;
  Rng rng;

  explicit RouterFixture(size_t num_shards = 4, int rows = 12000,
                         bool attach_cm = true,
                         obs::ServingMetrics* metrics = nullptr)
      : rng(0x5AD) {
    Schema schema({ColumnDef::Int64("c"), ColumnDef::Int64("u"),
                   ColumnDef::Int64("v")});
    table = std::make_unique<Table>("t", std::move(schema));
    for (int i = 0; i < rows; ++i) {
      const int64_t u = rng.UniformInt(0, 999);
      std::array<Value, 3> row = {Value(u / 10 + rng.UniformInt(0, 1)),
                                  Value(u), Value(rng.UniformInt(0, 49))};
      EXPECT_TRUE(table->AppendRow(row).ok());
    }
    EXPECT_TRUE(table->ClusterBy(0).ok());
    RouterOptions opts;
    opts.num_shards = num_shards;
    opts.engine.num_workers = 1;
    opts.engine.reserve_rows = size_t(rows) + 65536;
    opts.engine.metrics = metrics;
    auto r = ShardRouter::Create(*table, 0, opts);
    EXPECT_TRUE(r.ok());
    router = std::move(*r);
    if (attach_cm) {
      CmOptions cm;
      cm.u_cols = {1};
      cm.u_bucketers = {Bucketer::Identity()};
      cm.c_col = 0;
      EXPECT_TRUE(router->AttachCm(cm).ok());
    }
  }

  /// Oracle: sum of full scans over every shard's current table.
  uint64_t ScanAllShards(const Query& q) const {
    uint64_t n = 0;
    for (size_t s = 0; s < router->num_shards(); ++s) {
      n += FullTableScan(router->shard(s).table(), q).NumMatches();
    }
    return n;
  }
};

/// Oracle over any router (RouterFixture::ScanAllShards for bespoke ones).
uint64_t ScanAll(const ShardRouter& r, const Query& q) {
  uint64_t n = 0;
  for (size_t s = 0; s < r.num_shards(); ++s) {
    n += FullTableScan(r.shard(s).table(), q).NumMatches();
  }
  return n;
}

TEST(ShardRouterTest, PartitionCoversEveryRowExactlyOnce) {
  RouterFixture f;
  ASSERT_EQ(f.router->num_shards(), 4u);
  ASSERT_EQ(f.router->split_keys().size(), 3u);
  uint64_t rows = 0;
  for (size_t s = 0; s < f.router->num_shards(); ++s) {
    rows += f.router->shard(s).table().NumRows();
    EXPECT_GT(f.router->shard(s).table().NumRows(), 0u);
  }
  EXPECT_EQ(rows, f.table->NumRows());
  EXPECT_TRUE(f.router->CheckInvariants().ok());
  // Shards share one pool and one cache.
  ASSERT_NE(f.router->pool(), nullptr);
  for (size_t s = 0; s < f.router->num_shards(); ++s) {
    EXPECT_EQ(f.router->shard(s).pool(), f.router->pool());
    EXPECT_EQ(&f.router->shard(s).cache(), &f.router->cache());
  }
}

TEST(ShardRouterTest, ClusteredPredicatesRouteToOwningShardsOnly) {
  RouterFixture f;
  // A clustered point key lives in exactly one shard.
  const Query eq({Predicate::Eq(*f.table, "c", Value(42))});
  const RoutedSelectResult point = f.router->ExecuteSelect(eq);
  EXPECT_TRUE(point.clustered_routed);
  EXPECT_EQ(point.shards_visited, 1u);
  EXPECT_EQ(point.shards_pruned, 3u);
  EXPECT_EQ(point.merged.num_matches, f.ScanAllShards(eq));
  EXPECT_EQ(point.merged.num_matches,
            FullTableScan(*f.table, eq).NumMatches());

  // A clustered range spans a contiguous shard span.
  const Query wide({Predicate::Between(*f.table, "c", Value(0),
                                       Value(1000))});
  const RoutedSelectResult all = f.router->ExecuteSelect(wide);
  EXPECT_TRUE(all.clustered_routed);
  EXPECT_EQ(all.shards_visited, 4u);
  EXPECT_EQ(all.merged.num_matches, f.table->NumRows());

  const Query narrow({Predicate::Between(*f.table, "c", Value(10),
                                         Value(30))});
  const RoutedSelectResult span = f.router->ExecuteSelect(narrow);
  EXPECT_TRUE(span.clustered_routed);
  EXPECT_LT(span.shards_visited, 4u);
  EXPECT_EQ(span.merged.num_matches, f.ScanAllShards(narrow));
  EXPECT_EQ(f.router->ClusteredRoutedSelects(), 3u);
}

TEST(ShardRouterTest, CmPrunedScatterMatchesFullScatter) {
  RouterFixture f;
  // u is correlated with the clustered key (c ~ u/10), so a u-point query
  // touches one or two c values and the per-shard CM lookups empty out
  // every other shard. Parity: the pruned scatter must count exactly what
  // visiting every shard counts.
  uint64_t pruned_selects = 0;
  for (int64_t u = 5; u < 1000; u += 97) {
    const Query q({Predicate::Eq(*f.table, "u", Value(u))});
    const RoutedSelectResult res = f.router->ExecuteSelect(q);
    EXPECT_FALSE(res.clustered_routed);
    EXPECT_EQ(res.shards_visited + res.shards_pruned,
              f.router->num_shards());
    EXPECT_EQ(res.merged.num_matches, f.ScanAllShards(q));
    if (res.cm_pruned) {
      ++pruned_selects;
      EXPECT_LT(res.shards_visited, f.router->num_shards());
    }
  }
  // The correlation must actually prune: a u-point maps to <= 2 adjacent
  // c values, which intersect at most 2 of the 4 ranges.
  EXPECT_GT(pruned_selects, 0u);
  EXPECT_EQ(f.router->CmPrunedSelects(), pruned_selects);
  EXPECT_GT(f.router->ShardsPrunedTotal(), 0u);
}

TEST(ShardRouterTest, UnprunableQueriesFallBackToFullScatter) {
  RouterFixture f(/*num_shards=*/4, /*rows=*/12000, /*attach_cm=*/false);
  // No CM attached: an unclustered predicate cannot prune anything.
  const Query q({Predicate::Eq(*f.table, "u", Value(123))});
  const RoutedSelectResult res = f.router->ExecuteSelect(q);
  EXPECT_FALSE(res.clustered_routed);
  EXPECT_FALSE(res.cm_pruned);
  EXPECT_EQ(res.shards_visited, 4u);
  EXPECT_EQ(res.merged.num_matches, f.ScanAllShards(q));
}

TEST(ShardRouterTest, CrossShardMergeIsDeterministicAndSummed) {
  RouterFixture f;
  const Query q({Predicate::Between(*f.table, "u", Value(100),
                                    Value(900))});
  const RoutedSelectResult a = f.router->ExecuteSelect(q);
  const RoutedSelectResult b = f.router->ExecuteSelect(q);
  EXPECT_EQ(a.merged.num_matches, b.merged.num_matches);
  EXPECT_EQ(a.shards_visited, b.shards_visited);
  EXPECT_EQ(a.merged.num_matches, f.ScanAllShards(q));
  // Candidates were deliberated per visited shard and summed.
  EXPECT_GE(a.merged.plan_candidates, a.shards_visited);
}

TEST(ShardRouterTest, AppendsRouteByClusteredKey) {
  RouterFixture f;
  std::vector<std::vector<Key>> rows;
  for (int64_t c : {1, 30, 60, 95, 95, 1}) {
    rows.push_back({Key(c), Key(c * 10), Key(int64_t{7})});
  }
  ASSERT_TRUE(f.router->ApplyAppend(rows).ok());
  for (const auto& row : rows) {
    const size_t owner = f.router->RouteKey(row[0]);
    // The appended row must be a tail row of exactly its owning shard.
    EXPECT_GT(f.router->shard(owner).TailRows(), 0u);
  }
  const Query v7({Predicate::Eq(*f.table, "v", Value(7))});
  EXPECT_EQ(f.router->ExecuteSelect(v7).merged.num_matches,
            f.ScanAllShards(v7));
  EXPECT_TRUE(f.router->CheckInvariants().ok());

  // A tail row makes its shard unprunable even when the CM lookup is
  // empty: u=10*c values exist, but u=999999 does not -- shards with
  // tails must still be visited.
  const Query missing({Predicate::Eq(*f.table, "u", Value(999999))});
  const RoutedSelectResult res = f.router->ExecuteSelect(missing);
  EXPECT_EQ(res.merged.num_matches, 0u);
  for (size_t s = 0; s < f.router->num_shards(); ++s) {
    if (f.router->shard(s).TailRows() > 0) {
      // ... which bounds the pruning below a full skip.
      EXPECT_LT(res.shards_pruned, f.router->num_shards());
    }
  }
}

TEST(ShardRouterTest, PerShardEpochsAbortOnlyTheRecusteredShard) {
  RouterFixture f;
  // Give every shard a tail so any shard's recluster performs.
  std::vector<std::vector<Key>> rows;
  Rng rng(0xEE);
  for (int i = 0; i < 400; ++i) {
    const int64_t u = rng.UniformInt(0, 999);
    rows.push_back({Key(u / 10), Key(u), Key(rng.UniformInt(0, 49))});
  }
  ASSERT_TRUE(f.router->ApplyAppend(rows).ok());

  const uint64_t e0 = f.router->ShardEpoch(0);
  const uint64_t e1 = f.router->ShardEpoch(1);
  auto stats = f.router->Recluster(0);
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->performed());
  EXPECT_GT(f.router->ShardEpoch(0), e0);
  EXPECT_EQ(f.router->ShardEpoch(1), e1);  // untouched shard keeps its epoch

  // A writer pinned to shard 0's stale epoch is refused; the same epoch is
  // still valid for shard 1 (epochs are per shard).
  EXPECT_EQ(f.router->ApplyDelete(0, 0, e0).code(), Status::Code::kAborted);
  EXPECT_TRUE(f.router->ApplyDelete(1, 0, e1).ok());
  EXPECT_TRUE(f.router->ApplyDelete(0, 0, f.router->ShardEpoch(0)).ok());
  EXPECT_TRUE(f.router->CheckInvariants().ok());
}

TEST(ShardRouterTest, CrossShardUpdateMovesTheRow) {
  RouterFixture f;
  // Row 0 of shard 0 holds the partition's smallest clustered keys; move
  // it to the top shard by rewriting its clustered key.
  const ServingEngine& s0 = f.router->shard(0);
  const Query old_q({Predicate::Eq(*f.table, "u",
                                   s0.table().column(1).GetValue(0))});
  const uint64_t before = f.router->ExecuteSelect(old_q).merged.num_matches;
  ASSERT_GT(before, 0u);

  const std::vector<Key> fresh = {Key(int64_t{99}), Key(int64_t{990}),
                                  Key(int64_t{3})};
  const size_t target = f.router->RouteKey(fresh[0]);
  ASSERT_NE(target, 0u);
  ASSERT_TRUE(f.router->ApplyUpdate(0, 0, fresh,
                                    f.router->ShardEpoch(0)).ok());

  EXPECT_EQ(f.router->ExecuteSelect(old_q).merged.num_matches, before - 1);
  EXPECT_GT(f.router->shard(target).TailRows(), 0u);
  EXPECT_EQ(f.router->shard(0).table().NumDeleted(), 1u);
  const Query new_q({Predicate::Eq(*f.table, "u", Value(990))});
  EXPECT_EQ(f.router->ExecuteSelect(new_q).merged.num_matches,
            f.ScanAllShards(new_q));
  EXPECT_TRUE(f.router->CheckInvariants().ok());
}

TEST(ShardRouterTest, ReclusterAllSnapshotCopiesUnbucketedCms) {
  RouterFixture f;
  std::vector<std::vector<Key>> rows;
  Rng rng(0xAB);
  for (int i = 0; i < 600; ++i) {
    const int64_t u = rng.UniformInt(0, 999);
    rows.push_back({Key(u / 10), Key(u), Key(rng.UniformInt(0, 49))});
  }
  ASSERT_TRUE(f.router->ApplyAppend(rows).ok());
  ASSERT_TRUE(f.router->ReclusterAll().ok());
  for (size_t s = 0; s < f.router->num_shards(); ++s) {
    EXPECT_EQ(f.router->shard(s).TailRows(), 0u);
    // The unbucketed CM crossed the swap by snapshot copy, not re-hash.
    if (f.router->shard(s).ReclustersCompleted() > 0) {
      EXPECT_GT(f.router->shard(s).CmSnapshotCopies(), 0u);
    }
  }
  const Query q({Predicate::Eq(*f.table, "u", Value(250))});
  EXPECT_EQ(f.router->ExecuteSelect(q).merged.num_matches,
            f.ScanAllShards(q));
  EXPECT_TRUE(f.router->CheckInvariants().ok());
}

TEST(ShardRouterTest, SingleShardDegeneratesToOneEngine) {
  RouterFixture f(/*num_shards=*/1);
  ASSERT_EQ(f.router->num_shards(), 1u);
  EXPECT_TRUE(f.router->split_keys().empty());
  const Query q({Predicate::Eq(*f.table, "u", Value(321))});
  const RoutedSelectResult res = f.router->ExecuteSelect(q);
  EXPECT_EQ(res.shards_visited, 1u);
  EXPECT_EQ(res.shards_pruned, 0u);
  EXPECT_EQ(res.merged.num_matches, FullTableScan(*f.table, q).NumMatches());
}

TEST(ShardRouterTest, FewDistinctKeysCapTheShardCount) {
  Schema schema({ColumnDef::Int64("c"), ColumnDef::Int64("u")});
  Table t("tiny", std::move(schema));
  for (int i = 0; i < 100; ++i) {
    std::array<Value, 2> row = {Value(i % 2), Value(int64_t{i})};
    ASSERT_TRUE(t.AppendRow(row).ok());
  }
  ASSERT_TRUE(t.ClusterBy(0).ok());
  RouterOptions opts;
  opts.num_shards = 8;
  opts.engine.num_workers = 1;
  auto r = ShardRouter::Create(t, 0, opts);
  ASSERT_TRUE(r.ok());
  // Two distinct keys can fill at most two shards.
  EXPECT_EQ((*r)->num_shards(), 2u);
  EXPECT_TRUE((*r)->CheckInvariants().ok());
  const Query q({Predicate::Eq(t, "c", Value(1))});
  EXPECT_EQ((*r)->ExecuteSelect(q).merged.num_matches, 50u);
}

TEST(ShardRouterTest, MetricsRecordRoutingAndPartitionGauges) {
  obs::ServingMetrics metrics;
  {
    RouterFixture f(4, 12000, /*attach_cm=*/true, &metrics);
    const Query cpoint({Predicate::Eq(*f.table, "c", Value(12))});
    const Query upoint({Predicate::Eq(*f.table, "u", Value(444))});
    uint64_t visited = 0;
    for (int i = 0; i < 6; ++i) {
      visited += f.router->ExecuteSelect(cpoint).shards_visited;
    }
    uint64_t last_fanout = 0;
    for (int i = 0; i < 4; ++i) {
      const RoutedSelectResult res = f.router->ExecuteSelect(upoint);
      visited += res.shards_visited;
      last_fanout = res.shards_visited;
    }
    // Router-level counters: one select each, visited + pruned partitions
    // the shard set per select.
    EXPECT_EQ(metrics.router_selects->Value(), 10u);
    EXPECT_EQ(metrics.router_shards_visited->Value(), visited);
    // One visit-latency sample per visited shard; the fan-out gauge holds
    // the most recent scatter's visit count.
    EXPECT_EQ(metrics.router_shard_visit_us->Count(), visited);
    EXPECT_EQ(metrics.router_scatter_fanout->Value(), double(last_fanout));
    EXPECT_EQ(metrics.router_shards_visited->Value() +
                  metrics.router_shards_pruned->Value(),
              10u * f.router->num_shards());
    // The clustered point routed; something must have been pruned for it.
    EXPECT_GE(metrics.router_clustered_routed->Value(), 6u);
    EXPECT_GT(metrics.router_shards_pruned->Value(), 0u);
    // Shards share the bundle: every visited shard recorded its own
    // engine-level select, nothing more.
    EXPECT_EQ(metrics.selects->Value(), visited);
    // Traces carry both levels: 10 router scatters + per-shard records.
    EXPECT_EQ(metrics.traces().TotalRecorded(), 10u + visited);
    // The router registered partition-wide gauges under the single-engine
    // names (shards were told not to register their own).
    const std::string json = metrics.registry().ToJson();
    EXPECT_NE(json.find("\"router_num_shards\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"serve_live_rows\": 12000"), std::string::npos);
  }
  // Destroying the router unregistered its callback gauges; the plain
  // counters live on in the bundle for post-mortem export.
  const std::string json = metrics.registry().ToJson();
  EXPECT_EQ(json.find("\"router_num_shards\":"), std::string::npos);
  EXPECT_EQ(json.find("\"serve_live_rows\":"), std::string::npos);
  EXPECT_EQ(metrics.router_selects->Value(), 10u);
}

TEST(ShardRouterTest, EdgeCaseRangeEndpointsRouteLikeOneEngine) {
  RouterFixture f;
  // Parity baseline: one engine over the whole table must count exactly
  // what the routed scatter counts, for every endpoint shape.
  auto cidx = ClusteredIndex::Build(*f.table, 0);
  ASSERT_TRUE(cidx.ok());
  ServingOptions so;
  so.num_workers = 0;
  so.reserve_rows = f.table->NumRows() + 1024;
  ServingEngine single(f.table.get(), &*cidx, so);

  const std::vector<Query> probes = {
      // Open ranges: the +/-inf endpoint used to collapse through the
      // double->int64 cast to INT64_MIN and visit the wrong shard span.
      Query({Predicate::Ge(*f.table, "c", Value(42))}),
      Query({Predicate::Le(*f.table, "c", Value(37))}),
      // Endpoints outside the clustered domain ([0, 100] here).
      Query({Predicate::Between(*f.table, "c", Value(-500), Value(7))}),
      Query({Predicate::Between(*f.table, "c", Value(88), Value(100000))}),
      Query({Predicate::Between(*f.table, "c", Value(5000), Value(6000))}),
      Query({Predicate::Eq(*f.table, "c", Value(-3))}),
  };
  for (const Query& q : probes) {
    const RoutedSelectResult res = f.router->ExecuteSelect(q);
    EXPECT_TRUE(res.clustered_routed);
    EXPECT_EQ(res.shards_visited + res.shards_pruned,
              f.router->num_shards());
    EXPECT_EQ(res.merged.num_matches, single.ExecuteSelect(q).num_matches);
    EXPECT_EQ(res.merged.num_matches, f.ScanAllShards(q));
  }
  // The open ranges must actually route (not degrade to a full scatter):
  // each one-sided bound still excludes at least the far shard.
  EXPECT_GT(f.router->ExecuteSelect(probes[0]).shards_pruned, 0u);
  EXPECT_GT(f.router->ExecuteSelect(probes[1]).shards_pruned, 0u);

  // An inverted range (lo > hi) matches nothing and visits nothing.
  const Query inverted(
      {Predicate::Between(*f.table, "c", Value(60), Value(10))});
  const RoutedSelectResult none = f.router->ExecuteSelect(inverted);
  EXPECT_TRUE(none.clustered_routed);
  EXPECT_EQ(none.shards_visited, 0u);
  EXPECT_EQ(none.shards_pruned, f.router->num_shards());
  EXPECT_EQ(none.merged.num_matches, 0u);
  EXPECT_EQ(single.ExecuteSelect(inverted).num_matches, 0u);
}

TEST(ShardRouterTest, MultiShardAppendIsAllOrNothing) {
  RouterFixture f;
  // A bespoke router with tight per-shard reserve so one shard's capacity
  // is exhaustible in-test.
  RouterOptions opts;
  opts.num_shards = 4;
  opts.engine.num_workers = 1;
  opts.engine.reserve_rows = f.table->NumRows() / 4 + 2048;
  auto r = ShardRouter::Create(*f.table, 0, opts);
  ASSERT_TRUE(r.ok());
  ShardRouter& router = **r;
  const size_t last = router.num_shards() - 1;
  const size_t cap_last = router.shard(last).table().ReservedRows() -
                          router.shard(last).table().NumRows();
  ASSERT_LT(cap_last, 100000u);
  std::vector<uint64_t> before;
  for (size_t s = 0; s < router.num_shards(); ++s) {
    before.push_back(router.shard(s).table().NumRows());
  }

  // Overfill the last shard while shard 0's slice is small: pre-fix the
  // router applied shard 0's rows before discovering the overflow,
  // leaving a half-applied batch behind an error status.
  std::vector<std::vector<Key>> batch;
  batch.push_back({Key(int64_t{0}), Key(int64_t{1}), Key(int64_t{1})});
  batch.push_back({Key(int64_t{0}), Key(int64_t{2}), Key(int64_t{1})});
  for (size_t i = 0; i <= cap_last; ++i) {
    batch.push_back({Key(int64_t{99}), Key(int64_t{990}), Key(int64_t{1})});
  }
  EXPECT_EQ(router.ApplyAppend(batch).code(),
            Status::Code::kResourceExhausted);
  for (size_t s = 0; s < router.num_shards(); ++s) {
    EXPECT_EQ(router.shard(s).table().NumRows(), before[s]);
    EXPECT_EQ(router.shard(s).TailRows(), 0u);
  }

  // An arity-mismatched row anywhere in the batch also applies nothing.
  const std::vector<std::vector<Key>> bad = {
      {Key(int64_t{1}), Key(int64_t{10}), Key(int64_t{1})},
      {Key(int64_t{99}), Key(int64_t{990})}};
  EXPECT_EQ(router.ApplyAppend(bad).code(),
            Status::Code::kInvalidArgument);
  for (size_t s = 0; s < router.num_shards(); ++s) {
    EXPECT_EQ(router.shard(s).table().NumRows(), before[s]);
    EXPECT_EQ(router.shard(s).TailRows(), 0u);
  }

  // The same shards accept a batch that fits (the failed batches left no
  // lock or capacity residue behind).
  const size_t cap0 = router.shard(0).table().ReservedRows() -
                      router.shard(0).table().NumRows();
  ASSERT_GE(cap0, 3u);
  std::vector<std::vector<Key>> good;
  for (int i = 0; i < 3; ++i) {
    good.push_back({Key(int64_t{0}), Key(int64_t{5}), Key(int64_t{2})});
  }
  ASSERT_TRUE(router.ApplyAppend(good).ok());
  EXPECT_EQ(router.shard(0).TailRows(), 3u);
  EXPECT_TRUE(router.CheckInvariants().ok());
}

TEST(ShardRouterTest, ParallelScatterMatchesSequentialScatter) {
  // The parallel scatter's merged counts equal a sequential walk done by
  // hand -- every shard's own ExecuteSelect in ascending shard order
  // (pruned shards provably add nothing) -- and a full scan.
  RouterFixture f;
  std::vector<Query> probes;
  for (int64_t u = 3; u < 1000; u += 131) {
    probes.push_back(Query({Predicate::Eq(*f.table, "u", Value(u))}));
  }
  for (int64_t v = 0; v < 50; v += 11) {
    // v is uncorrelated and unindexed: guaranteed full scatter.
    probes.push_back(Query({Predicate::Eq(*f.table, "v", Value(v))}));
  }
  probes.push_back(
      Query({Predicate::Between(*f.table, "c", Value(12), Value(63))}));
  for (const Query& q : probes) {
    const RoutedSelectResult p = f.router->ExecuteSelect(q);
    uint64_t walked = 0;
    for (size_t s = 0; s < f.router->num_shards(); ++s) {
      walked += f.router->shard(s).ExecuteSelect(q).num_matches;
    }
    EXPECT_EQ(p.merged.num_matches, walked);
    EXPECT_EQ(p.merged.num_matches, f.ScanAllShards(q));
    EXPECT_EQ(p.shards_visited + p.shards_pruned, f.router->num_shards());
  }
}

TEST(ShardRouterTest, PoolLessEnginesScatterOnTheFallbackPool) {
  RouterFixture f;
  // num_workers == 0: engine queues never drain, so the scatter must
  // visit the shards inline instead of hanging on Post.
  RouterOptions opts;
  opts.num_shards = 4;
  opts.engine.num_workers = 0;
  opts.engine.reserve_rows = f.table->NumRows() + 1024;
  auto r = ShardRouter::Create(*f.table, 0, opts);
  ASSERT_TRUE(r.ok());
  for (int64_t v = 0; v < 8; ++v) {
    const Query q({Predicate::Eq(*f.table, "v", Value(v))});
    const RoutedSelectResult res = (*r)->ExecuteSelect(q);
    EXPECT_EQ(res.shards_visited, (*r)->num_shards());
    EXPECT_EQ(res.merged.num_matches, ScanAll(**r, q));
  }
}

/// Everything a built or recovered router's later behaviour depends on:
/// per shard, the pool file ids, row counts and every CM's pairs; then
/// the modeled cost, plan kind and matches of a fixed run of selects.
/// Pool-less engines (num_workers == 0) visit their shards inline and in
/// order, so the selects touch the shared pool in one fixed sequence.
struct RouterSignature {
  using Pair = std::tuple<CmKey, int64_t, uint32_t>;
  std::vector<std::vector<uint32_t>> files;
  std::vector<std::pair<size_t, size_t>> rows;  ///< (rows, live rows)
  std::vector<std::vector<std::vector<Pair>>> cms;
  std::vector<std::tuple<double, PlanKind, uint64_t>> selects;

  RouterSignature(ShardRouter& r, const std::vector<Query>& queries) {
    for (size_t s = 0; s < r.num_shards(); ++s) {
      const ServingEngine& e = r.shard(s);
      files.push_back(e.PoolFiles());
      rows.emplace_back(e.table().NumRows(), e.table().NumLiveRows());
      cms.emplace_back();
      for (size_t i = 0; i < e.num_cms(); ++i) {
        std::vector<Pair> pairs;
        for (const CorrelationMap::Record& rec : e.cm(i).ToRecords()) {
          pairs.emplace_back(rec.u, rec.c_ordinal, rec.count);
        }
        std::sort(pairs.begin(), pairs.end());
        cms.back().push_back(std::move(pairs));
      }
    }
    for (const Query& q : queries) {
      const serve::SelectResult res = r.ExecuteSelect(q).merged;
      selects.emplace_back(res.simulated_ms, res.plan_kind, res.num_matches);
    }
  }
  bool operator==(const RouterSignature&) const = default;
};

/// The fan-out fixture: a correlated four-column table (c ~ u/10, v, a
/// stable id), router options with pool-less engines and a pool far
/// smaller than the heap (so stripe choice shows in hits and misses),
/// the two CMs and secondary index every shard carries, and 50 fixed
/// selects over u, v and c.
struct FanOutFixture {
  std::unique_ptr<Table> table;
  RouterOptions opts;
  CmOptions plain_cm;
  CmOptions bucketed_cm;
  std::vector<size_t> sidx = {2};
  std::vector<Query> queries;

  FanOutFixture() {
    Schema schema({ColumnDef::Int64("c"), ColumnDef::Int64("u"),
                   ColumnDef::Int64("v"), ColumnDef::Int64("id")});
    table = std::make_unique<Table>("t", std::move(schema));
    Rng rng(0xFA17);
    for (int i = 0; i < 12000; ++i) {
      const int64_t u = rng.UniformInt(0, 999);
      std::array<Value, 4> row = {Value(u / 10 + rng.UniformInt(0, 1)),
                                  Value(u), Value(rng.UniformInt(0, 49)),
                                  Value(int64_t{i})};
      EXPECT_TRUE(table->AppendRow(row).ok());
    }
    EXPECT_TRUE(table->ClusterBy(0).ok());
    opts.num_shards = 4;
    opts.engine.num_workers = 0;
    opts.engine.buffer_pool_pages = 48;
    opts.engine.reserve_rows = table->NumRows() + 4096;
    plain_cm.u_cols = {1};
    plain_cm.u_bucketers = {Bucketer::Identity()};
    plain_cm.c_col = 0;
    bucketed_cm.u_cols = {2};
    bucketed_cm.u_bucketers = {Bucketer::NumericWidth(4)};
    bucketed_cm.c_col = 0;
    for (int i = 0; i < 50; ++i) {
      const int64_t lo = rng.UniformInt(0, 990);
      switch (i % 3) {
        case 0:
          queries.push_back(Query({Predicate::Between(
              *table, "u", Value(lo), Value(lo + rng.UniformInt(0, 40)))}));
          break;
        case 1:
          queries.push_back(
              Query({Predicate::Eq(*table, "v", Value(lo % 50))}));
          break;
        default:
          queries.push_back(Query({Predicate::Between(
              *table, "c", Value(lo / 10), Value(lo / 10 + 3))}));
          break;
      }
    }
  }

  /// Create + AttachCm (plain, then bucketed at 32 rows a bucket) +
  /// AttachSecondaryIndex, as a deployment sets a router up.
  std::unique_ptr<ShardRouter> Build(const RouterOptions& o) const {
    auto r = ShardRouter::Create(*table, 0, o);
    EXPECT_TRUE(r.ok());
    if (!r.ok()) return nullptr;
    EXPECT_TRUE((*r)->AttachCm(plain_cm).ok());
    auto cb = ClusteredBucketing::Build(*table, 0, 32);
    EXPECT_TRUE(cb.ok());
    CmOptions b = bucketed_cm;
    b.c_buckets = &*cb;
    EXPECT_TRUE((*r)->AttachCm(b).ok());
    EXPECT_TRUE((*r)->AttachSecondaryIndex(sidx).ok());
    return std::move(*r);
  }

  ServingEngine::RecoverSpec Spec() const {
    ServingEngine::RecoverSpec spec;
    spec.cms.push_back({plain_cm, 0});
    spec.cms.push_back({bucketed_cm, 32});
    spec.secondary_indexes.push_back(sidx);
    return spec;
  }
};

TEST(ShardRouterTest, CreateBuildsShardsIdenticallyEveryTime) {
  FanOutFixture f;
  std::unique_ptr<ShardRouter> first = f.Build(f.opts);
  std::unique_ptr<ShardRouter> second = f.Build(f.opts);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  const size_t n = first->num_shards();
  ASSERT_EQ(n, 4u);
  // The ids an in-order build issues: each engine draws its heap and
  // clustered-index files as it is constructed, then the attach draws
  // one secondary-index file per shard.
  for (size_t s = 0; s < n; ++s) {
    const std::vector<uint32_t> want = {uint32_t(2 * s), uint32_t(2 * s + 1),
                                        uint32_t(2 * n + s)};
    EXPECT_EQ(first->shard(s).PoolFiles(), want) << "shard " << s;
  }
  const RouterSignature a(*first, f.queries);
  const RouterSignature b(*second, f.queries);
  EXPECT_EQ(a.files, b.files);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.cms, b.cms);
  EXPECT_EQ(a.selects, b.selects);
}

TEST(ShardRouterTest, RecoverRebuildsShardsIdenticallyEveryTime) {
  FanOutFixture f;
  std::vector<std::unique_ptr<Durability>> managers;
  RouterOptions opts = f.opts;
  for (size_t s = 0; s < opts.num_shards; ++s) {
    DurabilityOptions dopts;
    dopts.group_commit_ops = 1;
    managers.push_back(std::make_unique<Durability>(dopts));
    opts.shard_durability.push_back(managers.back().get());
  }
  std::unique_ptr<ShardRouter> router = f.Build(opts);
  ASSERT_NE(router, nullptr);
  // A log tail on every shard: routed appends, deletes, a cross-shard
  // update, and one recluster that moves shard 2's checkpoint.
  Rng rng(0xBEEF);
  int64_t next_id = 100000;
  for (int batch = 0; batch < 6; ++batch) {
    std::vector<std::vector<Key>> rows;
    for (int i = 0; i < 80; ++i) {
      const int64_t u = rng.UniformInt(0, 999);
      rows.push_back({Key(u / 10), Key(u), Key(rng.UniformInt(0, 49)),
                      Key(next_id++)});
    }
    ASSERT_TRUE(router->ApplyAppend(rows).ok());
    if (batch == 2) {
      ASSERT_TRUE(router->Recluster(2).ok());
    }
  }
  for (size_t s = 0; s < router->num_shards(); ++s) {
    for (RowId r = 3; r < 60; r += 7) {
      ASSERT_TRUE(router->ApplyDelete(s, r).ok());
    }
  }
  const std::array<Key, 4> moved = {Key(int64_t{99}), Key(int64_t{990}),
                                    Key(int64_t{7}), Key(next_id++)};
  ASSERT_TRUE(router->ApplyUpdate(0, 61, moved).ok());
  const std::vector<Key> splits = router->split_keys();
  router.reset();
  for (auto& m : managers) m->Crash();

  auto recover = [&] {
    std::vector<serve::RecoveryStats> stats;
    auto r = ShardRouter::Recover(0, splits, opts, f.Spec(), &stats);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(stats.size(), opts.num_shards);
    // Stats stay in shard order: shard 2 alone checkpointed at epoch 1.
    for (size_t s = 0; s < stats.size(); ++s) {
      EXPECT_EQ(stats[s].checkpoint_epoch, s == 2 ? 1u : 0u) << "shard " << s;
      EXPECT_GT(stats[s].records_scanned, 0u) << "shard " << s;
    }
    return r.ok() ? std::move(*r) : nullptr;
  };
  std::unique_ptr<ShardRouter> first = recover();
  ASSERT_NE(first, nullptr);
  // The ids recovering one shard after another issues: heap, clustered
  // index and secondary index, shard by shard.
  for (size_t s = 0; s < first->num_shards(); ++s) {
    const std::vector<uint32_t> want = {uint32_t(3 * s), uint32_t(3 * s + 1),
                                        uint32_t(3 * s + 2)};
    EXPECT_EQ(first->shard(s).PoolFiles(), want) << "shard " << s;
  }
  ASSERT_TRUE(first->CheckInvariants().ok());
  const RouterSignature a(*first, f.queries);
  first.reset();
  std::unique_ptr<ShardRouter> second = recover();
  ASSERT_NE(second, nullptr);
  const RouterSignature b(*second, f.queries);
  EXPECT_EQ(a.files, b.files);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.cms, b.cms);
  EXPECT_EQ(a.selects, b.selects);
  for (const Query& q : f.queries) {
    EXPECT_EQ(second->ExecuteSelect(q).merged.num_matches, ScanAll(*second, q));
  }
}

TEST(ShardRouterTest, RecoverReturnsTheLowestFailingShardsError) {
  FanOutFixture f;
  std::vector<std::unique_ptr<Durability>> managers;
  RouterOptions opts = f.opts;
  opts.num_shards = 3;
  for (size_t s = 0; s < opts.num_shards; ++s) {
    DurabilityOptions dopts;
    dopts.group_commit_ops = 1;
    managers.push_back(std::make_unique<Durability>(dopts));
    opts.shard_durability.push_back(managers.back().get());
  }
  std::unique_ptr<ShardRouter> router = f.Build(opts);
  ASSERT_NE(router, nullptr);
  ASSERT_EQ(router->num_shards(), 3u);
  const std::vector<Key> splits = router->split_keys();
  router.reset();
  // Shard 1 logs an append whose row ids cannot re-land (Corruption);
  // shard 2 a delete past its heap (OutOfRange). Shard 0 stays clean.
  const std::vector<std::vector<Key>> row = {
      {Key(int64_t{50}), Key(int64_t{500}), Key(int64_t{5}), Key(int64_t{-1})}};
  managers[1]->LogWrite(RowId(1000000), {}, row);
  const RowId past[1] = {RowId(1000000)};
  managers[2]->LogWrite(RowId(0), past, {});
  for (auto& m : managers) m->Crash();
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto r = ShardRouter::Recover(0, splits, opts, f.Spec());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kCorruption)
        << r.status().ToString();
    EXPECT_NE(r.status().message().find("replay row ids diverged"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace corrmap

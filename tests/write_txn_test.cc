// The serving write contract, refusal by refusal: every ServingEngine and
// ShardRouter write validates everything before it changes anything, so a
// refused write leaves the row count, the tombstones, the WAL and the CMs
// exactly as they were, and write_conflicts counts each Aborted once. The
// CM check compares against a fresh build over the live rows -- the
// premise the recluster's snapshot copy of unbucketed CMs rests on.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "exec/access_path.h"
#include "index/clustered_index.h"
#include "obs/serving_metrics.h"
#include "serve/concurrent_cm.h"
#include "serve/durability.h"
#include "serve/serving_engine.h"
#include "serve/shard_router.h"
#include "storage/table.h"

namespace corrmap {
namespace {

using serve::Durability;
using serve::DurabilityOptions;
using serve::RouterOptions;
using serve::ServingEngine;
using serve::ServingOptions;
using serve::ShardRouter;
using Code = Status::Code;

CmOptions UCm() {
  CmOptions opts;
  opts.u_cols = {1};
  opts.u_bucketers = {Bucketer::Identity()};
  opts.c_col = 0;
  return opts;
}

/// Correlated (c ~ u/10) two-column table clustered on c.
std::unique_ptr<Table> MakeTable(int rows, uint64_t seed) {
  auto table = std::make_unique<Table>(
      "t", Schema({ColumnDef::Int64("c"), ColumnDef::Int64("u")}));
  Rng rng(seed);
  for (int i = 0; i < rows; ++i) {
    const int64_t u = rng.UniformInt(0, 999);
    std::array<Value, 2> row = {Value(u / 10 + rng.UniformInt(0, 1)),
                                Value(u)};
    EXPECT_TRUE(table->AppendRow(row).ok());
  }
  EXPECT_TRUE(table->ClusterBy(0).ok());
  return table;
}

DurabilityOptions SyncCommit() {
  DurabilityOptions opts;
  opts.group_commit_ops = 1;
  return opts;
}

/// Durable, observed engine with an unbucketed CM on u and only
/// kHeadroom rows of append capacity.
struct DurableEngine {
  static constexpr size_t kHeadroom = 16;
  std::unique_ptr<Table> table = MakeTable(2000, 0x3A1);
  std::unique_ptr<ClusteredIndex> cidx;
  obs::ServingMetrics metrics;
  Durability durability{SyncCommit()};
  ServingOptions opts;
  std::unique_ptr<ServingEngine> engine;

  DurableEngine() {
    auto ci = ClusteredIndex::Build(*table, 0);
    EXPECT_TRUE(ci.ok());
    cidx = std::make_unique<ClusteredIndex>(std::move(*ci));
    opts.num_workers = 0;
    opts.reserve_rows = table->NumRows() + kHeadroom;
    opts.durability = &durability;
    opts.metrics = &metrics;
    engine = std::make_unique<ServingEngine>(table.get(), cidx.get(), opts);
    EXPECT_TRUE(engine->AttachCm(UCm()).ok());
  }
};

/// Entries a CM over `e`'s live rows holds when built afresh.
size_t FreshCmEntries(const ServingEngine& e) {
  auto cm = serve::ConcurrentCorrelationMap::Create(&e.table(), UCm());
  EXPECT_TRUE(cm.ok());
  EXPECT_TRUE(cm->BuildFromTable().ok());
  return cm->NumEntries();
}

/// Everything a refused write must leave alone.
struct EngineState {
  size_t rows = 0;
  size_t deleted = 0;
  uint64_t ops_logged = 0;
  size_t cm_entries = 0;
  uint64_t conflicts = 0;
};

EngineState StateOf(const DurableEngine& f) {
  return {f.engine->table().NumRows(), f.engine->table().NumDeleted(),
          f.durability.ops_logged(), f.engine->cm(0).NumEntries(),
          f.metrics.write_conflicts->Value()};
}

struct EngineRefusal {
  const char* name;
  std::function<void(DurableEngine&)> setup;
  std::function<Status(DurableEngine&)> write;
  Code want;
};

TEST(WriteTxnTest, EveryRefusedEngineWriteChangesNothing) {
  const std::vector<Key> good = {Key(int64_t{7}), Key(int64_t{70})};
  const std::vector<Key> short_row = {Key(int64_t{7})};
  const auto past_end = [](DurableEngine& f) {
    return RowId(f.engine->table().NumRows());
  };
  const auto kill_row_5 = [](DurableEngine& f) {
    ASSERT_TRUE(f.engine->ApplyDelete(5).ok());
  };
  const auto fill_capacity = [&](DurableEngine& f) {
    const Table& t = f.engine->table();
    const std::vector<std::vector<Key>> rows(t.ReservedRows() - t.NumRows(),
                                             good);
    ASSERT_TRUE(f.engine->ApplyAppend(rows).ok());
  };
  // Moves the engine to epoch 1, so writes expecting epoch 0 are stale.
  const auto move_epoch = [&](DurableEngine& f) {
    const std::vector<std::vector<Key>> one = {good};
    ASSERT_TRUE(f.engine->ApplyAppend(one).ok());
    ASSERT_TRUE(f.engine->Recluster().ok());
    ASSERT_EQ(f.engine->ReclusterEpoch(), 1u);
  };

  const std::vector<EngineRefusal> cases = {
      {"ApplyAppend arity", nullptr,
       [&](DurableEngine& f) {
         const std::vector<std::vector<Key>> rows = {good, short_row};
         return f.engine->ApplyAppend(rows);
       },
       Code::kInvalidArgument},
      {"ApplyAppend capacity", nullptr,
       [&](DurableEngine& f) {
         const std::vector<std::vector<Key>> rows(
             DurableEngine::kHeadroom + 1, good);
         return f.engine->ApplyAppend(rows);
       },
       Code::kResourceExhausted},
      {"ApplyDelete out of range", nullptr,
       [&](DurableEngine& f) { return f.engine->ApplyDelete(past_end(f)); },
       Code::kOutOfRange},
      {"ApplyDelete already dead", kill_row_5,
       [](DurableEngine& f) { return f.engine->ApplyDelete(5); },
       Code::kNotFound},
      {"ApplyDelete stale epoch", move_epoch,
       [](DurableEngine& f) { return f.engine->ApplyDelete(5, 0); },
       Code::kAborted},
      {"ApplyDeletes out-of-range id mid-batch", nullptr,
       [&](DurableEngine& f) {
         const std::vector<RowId> rows = {5, past_end(f) + 10, 7};
         return f.engine->ApplyDeletes(rows);
       },
       Code::kOutOfRange},
      {"ApplyDeletes stale epoch", move_epoch,
       [](DurableEngine& f) {
         const std::vector<RowId> rows = {5, 7};
         return f.engine->ApplyDeletes(rows, 0);
       },
       Code::kAborted},
      {"ApplyUpdate arity", nullptr,
       [&](DurableEngine& f) { return f.engine->ApplyUpdate(5, short_row); },
       Code::kInvalidArgument},
      {"ApplyUpdate out of range", nullptr,
       [&](DurableEngine& f) {
         return f.engine->ApplyUpdate(past_end(f), good);
       },
       Code::kOutOfRange},
      {"ApplyUpdate dead row", kill_row_5,
       [&](DurableEngine& f) { return f.engine->ApplyUpdate(5, good); },
       Code::kNotFound},
      {"ApplyUpdate capacity", fill_capacity,
       [&](DurableEngine& f) { return f.engine->ApplyUpdate(5, good); },
       Code::kResourceExhausted},
      {"ApplyUpdate stale epoch", move_epoch,
       [&](DurableEngine& f) { return f.engine->ApplyUpdate(5, good, 0); },
       Code::kAborted},
  };
  for (const EngineRefusal& c : cases) {
    SCOPED_TRACE(c.name);
    DurableEngine f;
    if (c.setup) c.setup(f);
    const EngineState before = StateOf(f);
    EXPECT_EQ(c.write(f).code(), c.want);
    const EngineState after = StateOf(f);
    EXPECT_EQ(after.rows, before.rows);
    EXPECT_EQ(after.deleted, before.deleted);
    EXPECT_EQ(after.ops_logged, before.ops_logged);
    EXPECT_EQ(after.cm_entries, before.cm_entries);
    EXPECT_EQ(after.cm_entries, FreshCmEntries(*f.engine));
    EXPECT_EQ(after.conflicts - before.conflicts,
              c.want == Code::kAborted ? 1u : 0u);
    EXPECT_TRUE(f.engine->CheckInvariants().ok());
  }
}

TEST(WriteTxnTest, RefusedDeleteBatchLeavesWalRecoveryAndCompactionExact) {
  // Regression: a batch with one out-of-range id used to tombstone the
  // ids before it, push them onto the recluster delete log, skip their CM
  // retraction and log nothing -- so the served CM over-covered for good
  // (a compaction snapshot-copies it) and a crash brought the rows back.
  DurableEngine f;
  std::vector<RowId> batch;
  for (RowId r = 0; r < 200; ++r) batch.push_back(r * 7);
  batch.push_back(RowId(f.engine->table().NumRows() + 10));
  const EngineState before = StateOf(f);
  EXPECT_EQ(f.engine->ApplyDeletes(batch).code(), Code::kOutOfRange);
  EXPECT_EQ(f.engine->table().NumDeleted(), before.deleted);
  EXPECT_EQ(f.durability.ops_logged(), before.ops_logged);
  EXPECT_EQ(f.engine->cm(0).NumEntries(), FreshCmEntries(*f.engine));

  {
    // A crash now recovers exactly the pre-batch engine.
    f.durability.Crash();
    ServingEngine::RecoverSpec spec;
    spec.cms.push_back({UCm(), 0});
    ServingOptions ro = f.opts;
    ro.metrics = nullptr;  // the live engine owns the gauge names
    auto rec = ServingEngine::Recover(0, ro, spec);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ((*rec)->table().NumRows(), before.rows);
    EXPECT_EQ((*rec)->table().NumDeleted(), before.deleted);
    EXPECT_EQ((*rec)->cm(0).NumEntries(), before.cm_entries);
  }

  // The same ids without the bad one apply; a compaction then carries the
  // served CM across the swap and it still equals a fresh build.
  batch.pop_back();
  ASSERT_TRUE(f.engine->ApplyDeletes(batch).ok());
  EXPECT_EQ(f.engine->table().NumDeleted(), batch.size());
  auto compacted = f.engine->Compact();
  ASSERT_TRUE(compacted.ok());
  ASSERT_TRUE(compacted->performed());
  EXPECT_EQ(f.engine->table().NumRows(), before.rows - batch.size());
  EXPECT_EQ(f.engine->cm(0).NumEntries(), FreshCmEntries(*f.engine));
  EXPECT_TRUE(f.engine->CheckInvariants().ok());
}

/// One Prepare + Commit of `w` at any epoch.
Status Transact(ServingEngine& e, const ServingEngine::WriteSet& w) {
  ServingEngine::WriteGuard guard;
  Status s = e.Prepare(ServingEngine::kAnyEpoch, w, &guard);
  if (!s.ok()) return s;
  return e.Commit(&guard, w);
}

/// Crashes `f`'s WAL (nothing torn: every write is flushed at commit),
/// recovers an engine from it, and checks the recovered engine against
/// the live one row for row, and probe against scan query for query.
void ExpectCrashRecoversTheLiveEngine(DurableEngine& f) {
  f.durability.Crash();
  ServingEngine::RecoverSpec spec;
  spec.cms.push_back({UCm(), 0});
  ServingOptions ro = f.opts;
  ro.metrics = nullptr;  // the live engine owns the gauge names
  auto rec = ServingEngine::Recover(0, ro, spec);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  const Table& want = f.engine->table();
  const Table& got = (*rec)->table();
  ASSERT_EQ(got.NumRows(), want.NumRows());
  EXPECT_EQ(got.NumLiveRows(), want.NumLiveRows());
  for (RowId r = 0; r < want.NumRows(); ++r) {
    ASSERT_EQ(got.IsDeleted(r), want.IsDeleted(r)) << "row " << r;
    for (size_t c = 0; c < 2; ++c) {
      ASSERT_EQ(got.GetKey(r, c), want.GetKey(r, c)) << "row " << r;
    }
  }
  EXPECT_EQ((*rec)->cm(0).NumEntries(), f.engine->cm(0).NumEntries());
  const std::vector<Query> queries = {
      Query({Predicate::Eq(got, "u", Value(70))}),
      Query({Predicate::Between(got, "u", Value(40), Value(90))}),
      Query({Predicate::Eq(got, "c", Value(7))}),
  };
  for (const Query& q : queries) {
    const uint64_t probe = (*rec)->ExecuteSelect(q).num_matches;
    EXPECT_EQ(probe, FullTableScan(got, q).NumMatches());
    EXPECT_EQ(probe, f.engine->ExecuteSelect(q).num_matches);
  }
  EXPECT_TRUE((*rec)->CheckInvariants().ok());
}

TEST(WriteTxnTest, DeletesPlusAppendsLogEveryRow) {
  // Regression: a write that deleted two rows and appended one logged
  // only its first delete (as an update), so a crash brought the second
  // row back.
  DurableEngine f;
  const size_t live = f.engine->table().NumLiveRows();
  const std::vector<RowId> dels = {5, 6};
  const std::vector<std::vector<Key>> row = {
      {Key(int64_t{7}), Key(int64_t{70})}};
  const ServingEngine::WriteSet w = {.deletes = dels, .appends = row};
  ASSERT_TRUE(Transact(*f.engine, w).ok());
  EXPECT_EQ(f.engine->table().NumLiveRows(), live - 1);
  ExpectCrashRecoversTheLiveEngine(f);
}

TEST(WriteTxnTest, SkipDeadWriteOfOnlyDeadRowsLogsItsAppends) {
  // Regression: a skip_dead write whose delete was already dead but which
  // appended a row was logged as an update of the first row it tombstoned
  // -- the front of an empty list.
  DurableEngine f;
  ASSERT_TRUE(f.engine->ApplyDelete(5).ok());
  const size_t live = f.engine->table().NumLiveRows();
  const std::vector<RowId> dels = {5};
  const std::vector<std::vector<Key>> row = {
      {Key(int64_t{7}), Key(int64_t{70})}};
  ServingEngine::WriteSet w = {.deletes = dels, .appends = row};
  w.skip_dead = true;
  ASSERT_TRUE(Transact(*f.engine, w).ok());
  EXPECT_EQ(f.engine->table().NumLiveRows(), live + 1);
  ExpectCrashRecoversTheLiveEngine(f);
}

TEST(WriteTxnTest, WalSeriesFollowTheEngineSink) {
  // The manager has no sink of its own: the engine hands it its metrics,
  // at construction and again when Recover re-attaches it.
  const std::unique_ptr<Table> table = MakeTable(2000, 0x3A3);
  auto ci = ClusteredIndex::Build(*table, 0);
  ASSERT_TRUE(ci.ok());
  obs::ServingMetrics metrics;
  Durability durability;
  ServingOptions opts;
  opts.num_workers = 0;
  opts.durability = &durability;
  opts.metrics = &metrics;
  auto engine = std::make_unique<ServingEngine>(table.get(), &*ci, opts);
  const std::vector<std::vector<Key>> one = {
      {Key(int64_t{7}), Key(int64_t{70})}};
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(engine->ApplyAppend(one).ok());
  EXPECT_GT(metrics.wal_flushes->Value(), 0u);
  EXPECT_EQ(metrics.wal_flushes->Value(), durability.wal_flushes());
  EXPECT_GT(metrics.wal_records->Value(), 0u);
  EXPECT_EQ(metrics.wal_records->Value(), durability.ops_logged());
  EXPECT_GT(metrics.wal_bytes->Value(), 0u);
  EXPECT_GT(metrics.checkpoints->Value(), 0u);

  durability.Crash();
  engine.reset();
  obs::ServingMetrics recovered_metrics;
  opts.metrics = &recovered_metrics;
  auto rec = ServingEngine::Recover(0, opts, {});
  ASSERT_TRUE(rec.ok());
  for (int i = 0; i < 8; ++i) ASSERT_TRUE((*rec)->ApplyAppend(one).ok());
  EXPECT_GT(recovered_metrics.wal_flushes->Value(), 0u);
  EXPECT_GT(recovered_metrics.wal_records->Value(), 0u);
}

/// Four-shard durable router over the correlated table, each shard with
/// kHeadroom rows of append capacity.
struct DurableRouter {
  static constexpr size_t kHeadroom = 32;
  obs::ServingMetrics metrics;
  std::vector<std::unique_ptr<Durability>> durability;
  std::unique_ptr<ShardRouter> router;

  DurableRouter() {
    const std::unique_ptr<Table> table = MakeTable(4000, 0x3A2);
    RouterOptions opts;
    opts.num_shards = 4;
    opts.engine.num_workers = 1;
    opts.engine.reserve_rows = table->NumRows() / 4 + kHeadroom;
    opts.engine.metrics = &metrics;
    for (size_t s = 0; s < opts.num_shards; ++s) {
      durability.push_back(std::make_unique<Durability>(SyncCommit()));
      opts.shard_durability.push_back(durability.back().get());
    }
    auto r = ShardRouter::Create(*table, 0, opts);
    EXPECT_TRUE(r.ok());
    router = std::move(*r);
    EXPECT_EQ(router->num_shards(), 4u);
    EXPECT_TRUE(router->AttachCm(UCm()).ok());
  }

  /// First live row of shard `s`.
  RowId LiveRow(size_t s) const {
    const Table& t = router->shard(s).table();
    for (RowId r = 0; r < t.NumRows(); ++r) {
      if (!t.IsDeleted(r)) return r;
    }
    ADD_FAILURE() << "shard " << s << " has no live row";
    return 0;
  }

  /// Appends rows keyed into the last shard until it is full.
  void FillLastShard() {
    const ServingEngine& last = router->shard(router->num_shards() - 1);
    const std::vector<std::vector<Key>> rows(
        last.table().ReservedRows() - last.table().NumRows(),
        {Key(int64_t{99}), Key(int64_t{990})});
    ASSERT_TRUE(router->ApplyAppend(rows).ok());
  }
};

struct RouterRefusal {
  const char* name;
  std::function<void(DurableRouter&)> setup;
  std::function<Status(DurableRouter&)> write;
  Code want;
};

TEST(WriteTxnTest, EveryRefusedRouterWriteChangesNoShard) {
  const std::vector<Key> to_last = {Key(int64_t{99}), Key(int64_t{991})};
  const std::vector<RouterRefusal> cases = {
      {"ApplyDelete missing shard", nullptr,
       [](DurableRouter& f) { return f.router->ApplyDelete(4, 0); },
       Code::kOutOfRange},
      {"ApplyUpdate missing shard", nullptr,
       [&](DurableRouter& f) { return f.router->ApplyUpdate(4, 0, to_last); },
       Code::kOutOfRange},
      {"cross-shard ApplyUpdate into a full shard",
       [](DurableRouter& f) { f.FillLastShard(); },
       [&](DurableRouter& f) {
         return f.router->ApplyUpdate(0, f.LiveRow(0), to_last);
       },
       Code::kResourceExhausted},
      {"cross-shard ApplyUpdate of a dead row",
       [](DurableRouter& f) { ASSERT_TRUE(f.router->ApplyDelete(0, 3).ok()); },
       [&](DurableRouter& f) { return f.router->ApplyUpdate(0, 3, to_last); },
       Code::kNotFound},
      {"cross-shard ApplyUpdate at a stale source epoch",
       [](DurableRouter& f) {
         ASSERT_TRUE(f.router->ApplyDelete(0, 3).ok());
         ASSERT_TRUE(f.router->Compact(0).ok());
       },
       [&](DurableRouter& f) {
         return f.router->ApplyUpdate(0, f.LiveRow(0), to_last, 0);
       },
       Code::kAborted},
  };
  for (const RouterRefusal& c : cases) {
    SCOPED_TRACE(c.name);
    DurableRouter f;
    if (c.setup) c.setup(f);
    std::vector<EngineState> before;
    for (size_t s = 0; s < f.router->num_shards(); ++s) {
      const ServingEngine& e = f.router->shard(s);
      before.push_back({e.table().NumRows(), e.table().NumDeleted(),
                        f.durability[s]->ops_logged(), e.cm(0).NumEntries(),
                        0});
    }
    const uint64_t conflicts = f.metrics.write_conflicts->Value();
    EXPECT_EQ(c.write(f).code(), c.want);
    for (size_t s = 0; s < f.router->num_shards(); ++s) {
      SCOPED_TRACE(s);
      const ServingEngine& e = f.router->shard(s);
      EXPECT_EQ(e.table().NumRows(), before[s].rows);
      EXPECT_EQ(e.table().NumDeleted(), before[s].deleted);
      EXPECT_EQ(f.durability[s]->ops_logged(), before[s].ops_logged);
      EXPECT_EQ(e.cm(0).NumEntries(), FreshCmEntries(e));
    }
    EXPECT_EQ(f.metrics.write_conflicts->Value() - conflicts,
              c.want == Code::kAborted ? 1u : 0u);
    EXPECT_TRUE(f.router->CheckInvariants().ok());
  }
}

TEST(WriteTxnTest, CrossShardUpdateIntoFullShardKeepsTheRow) {
  // Regression: the cross-shard update tombstoned the source row before
  // appending to the target, so a full target shard lost the row from
  // memory while the call reported ResourceExhausted.
  DurableRouter f;
  f.FillLastShard();
  std::vector<size_t> live;
  for (size_t s = 0; s < f.router->num_shards(); ++s) {
    live.push_back(f.router->shard(s).table().NumLiveRows());
  }
  const std::vector<Key> to_last = {Key(int64_t{99}), Key(int64_t{991})};
  EXPECT_EQ(f.router->ApplyUpdate(0, f.LiveRow(0), to_last).code(),
            Code::kResourceExhausted);
  for (size_t s = 0; s < f.router->num_shards(); ++s) {
    EXPECT_EQ(f.router->shard(s).table().NumLiveRows(), live[s]);
  }
  // With room again (the recluster renews the reservation) the same move
  // goes through: one row leaves shard 0 and lands in the last shard.
  const size_t last = f.router->num_shards() - 1;
  ASSERT_TRUE(f.router->Recluster(last).ok());
  EXPECT_TRUE(f.router->ApplyUpdate(0, f.LiveRow(0), to_last).ok());
  EXPECT_EQ(f.router->shard(0).table().NumLiveRows(), live[0] - 1);
  EXPECT_EQ(f.router->shard(last).table().NumLiveRows(), live[last] + 1);
  EXPECT_TRUE(f.router->CheckInvariants().ok());
}

}  // namespace
}  // namespace corrmap

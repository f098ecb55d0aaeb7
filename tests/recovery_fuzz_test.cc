// Kill-and-recover differential fuzz for the durable serving stack:
// seeded-RNG CRUD interleavings run against a ServingEngine with a
// group-commit Durability manager attached, then a simulated crash
// (dropping the open commit batch and tearing a seeded number of bytes
// off the last WAL flush) followed by ServingEngine::Recover.
//
// The oracle exploits the survivor-prefix property: log order equals
// apply order (both happen under the append mutex), every logical op is
// exactly one data record + commit marker, and a torn tail can only cut a
// suffix of the last flush -- so the set of ops that survive a crash is
// always a strict prefix of the applied history. The harness records
// every op's logical effect; after the crash it computes the surviving
// prefix length as (ops covered by the last checkpoint) + |CommittedTail|
// and replays that prefix into a shadow oracle keyed by the stable "id"
// column. The recovered engine must then agree three ways -- CM probe ==
// full scan == shadow oracle, exactly -- and keep agreeing while serving
// fresh CRUD traffic (capacity reservation re-established). Some seeded
// delete batches carry a row id past the end of the heap; the engine must
// refuse such a batch whole, so it never reaches the log or the oracle.
//
// Crash points covered per run of the default suites: 12 random
// mid-interleaving crashes (random torn bytes, so group-commit batches
// tear mid-frame), 4 crashes injected between a recluster's phase-1 build
// and its publish (the window where the successor exists but the
// checkpoint does not, so recovery must replay the predecessor checkpoint
// plus the full tail -- including writes that landed during the build),
// a deterministic mid-batch torn tail, and a per-shard ShardRouter
// recovery. The Long variant multiplies seeds; it is skipped unless
// CORRMAP_LONG_TESTS is set (nightly ctest label of the same name).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exec/access_path.h"
#include "index/clustered_index.h"
#include "obs/serving_metrics.h"
#include "serve/durability.h"
#include "serve/recluster.h"
#include "serve/serving_engine.h"
#include "serve/shard_router.h"
#include "storage/table.h"

namespace corrmap {
namespace {

using serve::Durability;
using serve::DurabilityOptions;
using serve::RecoveryStats;
using serve::Reclusterer;
using serve::SelectResult;
using serve::ServingEngine;
using serve::ServingOptions;

using OracleMap = std::unordered_map<int64_t, std::array<int64_t, 3>>;

/// A sampled query plus the predicate in oracle-evaluable form.
struct QuerySpec {
  Query query;
  size_t col = 1;  // 0 = c, 1 = u, 2 = v
  int64_t lo = 0;
  int64_t hi = 0;
};

uint64_t OracleCount(const OracleMap& oracle, const QuerySpec& s) {
  uint64_t n = 0;
  for (const auto& [id, vals] : oracle) {
    const int64_t x = vals[s.col];
    if (x >= s.lo && x <= s.hi) ++n;
  }
  return n;
}

/// The three-way differential: engine probe == full scan of the engine's
/// current table == shadow oracle, exactly.
void ExpectThreeWayExact(ServingEngine& engine, const OracleMap& oracle,
                         const QuerySpec& s) {
  const SelectResult probe = engine.ExecuteSelect(s.query);
  const ExecResult scan = FullTableScan(engine.table(), s.query);
  ASSERT_EQ(probe.num_matches, scan.NumMatches())
      << "probe!=scan at epoch " << probe.recluster_epoch << " plan "
      << probe.plan;
  ASSERT_EQ(probe.num_matches, OracleCount(oracle, s))
      << "engine diverged from the shadow oracle at epoch "
      << probe.recluster_epoch << " plan " << probe.plan;
}

/// One applied op's logical effect, replayable into an OracleMap. The
/// surviving prefix of these is exactly what recovery must reconstruct.
struct OpEffect {
  enum Kind { kAppend, kDelete, kUpdate };
  Kind kind = kAppend;
  /// kAppend: the batch's (id, {c, u, v}) rows.
  std::vector<std::pair<int64_t, std::array<int64_t, 3>>> added;
  /// kUpdate: the victim id and its new values.
  int64_t id = 0;
  std::array<int64_t, 3> vals = {0, 0, 0};
  /// kDelete: every id the record deleted (one, or a whole batch).
  std::vector<int64_t> removed;
};

void ApplyEffect(const OpEffect& e, OracleMap* oracle) {
  switch (e.kind) {
    case OpEffect::kAppend:
      for (const auto& [id, vals] : e.added) (*oracle)[id] = vals;
      break;
    case OpEffect::kDelete:
      for (const int64_t id : e.removed) oracle->erase(id);
      break;
    case OpEffect::kUpdate:
      (*oracle)[e.id] = e.vals;
      break;
  }
}

struct RecoveryFuzzHarness {
  obs::ServingMetrics metrics;
  std::unique_ptr<Table> table;
  std::unique_ptr<ClusteredIndex> cidx;
  std::unique_ptr<ClusteredBucketing> cb;
  std::unique_ptr<Durability> durability;
  std::unique_ptr<ServingEngine> engine;
  Rng rng;
  ServingOptions opts;                   // reused verbatim by Recover
  ServingEngine::RecoverSpec spec;       // replay-derived structures
  OracleMap oracle;                      // all applied ops
  OracleMap base_oracle;                 // state at construction
  std::vector<int64_t> live_ids;
  int64_t next_id = 0;
  std::vector<OpEffect> history;         // applied ops, in log order
  size_t last_checkpoint_ops = 0;        // |history| at last checkpoint
  uint64_t seen_checkpoints = 0;

  RecoveryFuzzHarness(uint64_t seed, int base_rows, size_t reserve_extra,
                      size_t group_commit_ops)
      : rng(seed) {
    Schema schema({ColumnDef::Int64("c"), ColumnDef::Int64("u"),
                   ColumnDef::Int64("v"), ColumnDef::Int64("id")});
    table = std::make_unique<Table>("t", std::move(schema));
    for (int i = 0; i < base_rows; ++i) {
      const int64_t u = rng.UniformInt(0, 499);
      const int64_t v = rng.UniformInt(0, 49);
      const int64_t c = u / 10 + rng.UniformInt(0, 1);
      std::array<Value, 4> row = {Value(c), Value(u), Value(v),
                                  Value(next_id)};
      EXPECT_TRUE(table->AppendRow(row).ok());
      oracle[next_id] = {c, u, v};
      live_ids.push_back(next_id);
      ++next_id;
    }
    EXPECT_TRUE(table->ClusterBy(0).ok());
    auto ci = ClusteredIndex::Build(*table, 0);
    EXPECT_TRUE(ci.ok());
    cidx = std::make_unique<ClusteredIndex>(std::move(*ci));
    auto built = ClusteredBucketing::Build(*table, 0, 32);
    EXPECT_TRUE(built.ok());
    cb = std::make_unique<ClusteredBucketing>(std::move(*built));

    DurabilityOptions dopts;
    dopts.group_commit_ops = group_commit_ops;
    durability = std::make_unique<Durability>(dopts);

    opts.num_workers = 1;
    opts.reserve_rows = table->NumRows() + reserve_extra;
    opts.calibration_period = 16;
    opts.durability = durability.get();
    opts.metrics = &metrics;
    engine = std::make_unique<ServingEngine>(table.get(), cidx.get(), opts);
    // The CM spread of the CRUD fuzz: an unbucketed identity CM over u
    // and a width-4 u-bucketed + positionally c-bucketed CM over v, plus
    // a secondary index over u -- every replay-derived structure Recover
    // must rebuild, mirrored into `spec`.
    CmOptions c0;
    c0.u_cols = {1};
    c0.u_bucketers = {Bucketer::Identity()};
    c0.c_col = 0;
    EXPECT_TRUE(engine->AttachCm(c0).ok());
    CmOptions c1;
    c1.u_cols = {2};
    c1.u_bucketers = {Bucketer::NumericWidth(4)};
    c1.c_col = 0;
    c1.c_buckets = cb.get();
    EXPECT_TRUE(engine->AttachCm(c1).ok());
    EXPECT_TRUE(engine->AttachSecondaryIndex({1}).ok());
    spec.cms.push_back({c0, 0});
    CmOptions c1r = c1;
    c1r.c_buckets = nullptr;  // Recover rebuilds the positional bucketing
    spec.cms.push_back({c1r, 32});
    spec.secondary_indexes = {{1}};

    base_oracle = oracle;
    // The engine's constructor took checkpoint 0 over the base table.
    seen_checkpoints = durability->checkpoints_taken();
    EXPECT_EQ(seen_checkpoints, 1u);
  }

  // --- CRUD ops: mutate engine + full oracle, and record the effect -----

  void AppendBatch(int max_rows) {
    const int n = int(rng.UniformInt(1, max_rows));
    std::vector<std::vector<Key>> rows;
    rows.reserve(size_t(n));
    OpEffect e;
    e.kind = OpEffect::kAppend;
    for (int i = 0; i < n; ++i) {
      const int64_t u = rng.UniformInt(0, 499);
      const int64_t v = rng.UniformInt(0, 49);
      rows.push_back({Key(u / 10), Key(u), Key(v), Key(next_id)});
      e.added.push_back({next_id, {u / 10, u, v}});
      oracle[next_id] = {u / 10, u, v};
      live_ids.push_back(next_id);
      ++next_id;
    }
    ASSERT_TRUE(engine->ApplyAppend(rows).ok());
    history.push_back(std::move(e));
  }

  RowId ResolveId(int64_t id) const {
    const Table& t = engine->table();
    for (RowId r = 0; r < t.NumRows(); ++r) {
      if (!t.IsDeleted(r) && t.GetKey(r, 3) == Key(id)) return r;
    }
    ADD_FAILURE() << "live id " << id << " not found in the heap";
    return 0;
  }

  int64_t PickLiveId() {
    const size_t i = size_t(rng.UniformInt(0, int64_t(live_ids.size()) - 1));
    return live_ids[i];
  }

  void ForgetId(int64_t id) {
    const auto it = std::find(live_ids.begin(), live_ids.end(), id);
    ASSERT_NE(it, live_ids.end());
    *it = live_ids.back();
    live_ids.pop_back();
    oracle.erase(id);
  }

  void DeleteOne() {
    const int64_t id = PickLiveId();
    const RowId rid = ResolveId(id);
    ASSERT_TRUE(engine->ApplyDelete(rid, engine->ReclusterEpoch()).ok());
    OpEffect e;
    e.kind = OpEffect::kDelete;
    e.removed = {id};
    history.push_back(std::move(e));
    ForgetId(id);
  }

  /// Batched delete (one WAL record) of up to four live rows. Every third
  /// batch also carries a row id past the end of the heap: the whole batch
  /// must then be refused with nothing tombstoned and nothing logged, so
  /// neither the oracle nor the survivor accounting moves.
  void DeleteBatch() { DeleteBatch(rng.UniformInt(0, 2) == 0); }
  void DeleteBatch(bool poisoned) {
    std::vector<int64_t> ids;
    std::vector<RowId> rows;
    const int n = int(rng.UniformInt(1, 4));
    for (int i = 0; i < n; ++i) {
      const int64_t id = PickLiveId();
      if (std::find(ids.begin(), ids.end(), id) != ids.end()) continue;
      ids.push_back(id);
      rows.push_back(ResolveId(id));
    }
    if (poisoned) {
      const RowId bad =
          RowId(engine->table().NumRows() + size_t(rng.UniformInt(0, 64)));
      rows.insert(rows.begin() + rng.UniformInt(0, int64_t(rows.size())),
                  bad);
    }
    const uint64_t logged = durability->ops_logged();
    const size_t dead = engine->table().NumDeleted();
    const Status s = engine->ApplyDeletes(rows, engine->ReclusterEpoch());
    if (poisoned) {
      ASSERT_EQ(s.code(), Status::Code::kOutOfRange);
      ASSERT_EQ(durability->ops_logged(), logged);
      ASSERT_EQ(engine->table().NumDeleted(), dead);
      return;
    }
    ASSERT_TRUE(s.ok());
    OpEffect e;
    e.kind = OpEffect::kDelete;
    e.removed = ids;
    history.push_back(std::move(e));
    for (const int64_t id : ids) ForgetId(id);
  }

  void UpdateOne() {
    const int64_t id = PickLiveId();
    const RowId rid = ResolveId(id);
    const int64_t u = rng.UniformInt(0, 499);
    const int64_t v = rng.UniformInt(0, 49);
    const std::array<Key, 4> fresh = {Key(u / 10), Key(u), Key(v), Key(id)};
    ASSERT_TRUE(
        engine->ApplyUpdate(rid, fresh, engine->ReclusterEpoch()).ok());
    OpEffect e;
    e.kind = OpEffect::kUpdate;
    e.id = id;
    e.vals = {u / 10, u, v};
    history.push_back(std::move(e));
    oracle[id] = {u / 10, u, v};
  }

  /// Folds any checkpoint the last recluster/compact published into the
  /// survivor accounting: everything in `history` is now durably covered.
  void NoteCheckpoints() {
    const uint64_t taken = durability->checkpoints_taken();
    if (taken != seen_checkpoints) {
      seen_checkpoints = taken;
      last_checkpoint_ops = history.size();
    }
  }

  void Recluster() {
    auto stats = engine->Recluster();
    ASSERT_TRUE(stats.ok());
    NoteCheckpoints();
  }

  void Compact() {
    auto stats = engine->Compact();
    ASSERT_TRUE(stats.ok());
    NoteCheckpoints();
  }

  QuerySpec RandomSpec() {
    switch (rng.UniformInt(0, 3)) {
      case 0: {
        const int64_t u = rng.UniformInt(0, 520);
        return {Query({Predicate::Eq(*table, "u", Value(u))}), 1, u, u};
      }
      case 1: {
        const int64_t lo = rng.UniformInt(0, 480);
        const int64_t hi = lo + rng.UniformInt(0, 60);
        return {Query({Predicate::Between(*table, "u", Value(lo),
                                          Value(hi))}),
                1, lo, hi};
      }
      case 2: {
        const int64_t v = rng.UniformInt(0, 55);
        return {Query({Predicate::Eq(*table, "v", Value(v))}), 2, v, v};
      }
      default: {
        const int64_t lo = rng.UniformInt(0, 45);
        const int64_t hi = lo + rng.UniformInt(0, 10);
        return {Query({Predicate::Between(*table, "v", Value(lo),
                                          Value(hi))}),
                2, lo, hi};
      }
    }
  }

  // --- Crash & recovery --------------------------------------------------

  /// Crashes the durability state (tearing `torn` bytes off the last WAL
  /// flush), recovers a fresh engine from it, and differentially checks
  /// the recovered engine against the oracle replayed to the surviving
  /// op prefix. Returns the recovered engine and writes the surviving
  /// oracle to `oracle_out`; the caller decides whether to adopt them.
  /// Does NOT touch this->engine, so it is safe to call from inside a
  /// recluster hook while a pass is mid-flight on the live engine.
  std::unique_ptr<ServingEngine> CrashAndRecover(size_t torn,
                                                 OracleMap* oracle_out) {
    durability->Crash(torn);
    const size_t tail_ops = durability->CommittedTail().size();
    const size_t survivors = last_checkpoint_ops + tail_ops;
    EXPECT_GE(survivors, last_checkpoint_ops);
    EXPECT_LE(survivors, history.size())
        << "WAL retained more committed ops than were ever applied";

    OracleMap recovered = base_oracle;
    for (size_t i = 0; i < survivors; ++i) {
      ApplyEffect(history[i], &recovered);
    }

    RecoveryStats rstats;
    auto rec = ServingEngine::Recover(0, opts, spec, &rstats);
    EXPECT_TRUE(rec.ok());
    if (!rec.ok()) return nullptr;
    std::unique_ptr<ServingEngine> e = std::move(*rec);
    EXPECT_EQ(rstats.records_scanned, tail_ops);
    EXPECT_EQ(e->table().NumLiveRows(), recovered.size())
        << "recovered live-row count diverged (checkpoint epoch "
        << rstats.checkpoint_epoch << ", " << tail_ops << " tail ops)";
    EXPECT_TRUE(e->CheckInvariants().ok());
    for (int i = 0; i < 8; ++i) {
      ExpectThreeWayExact(*e, recovered, RandomSpec());
    }
    *oracle_out = std::move(recovered);
    return e;
  }

  /// Adopts a recovered engine as the live one and resets the survivor
  /// accounting to the recovered state. The WAL's retained tail predates
  /// the adoption, so the accounting is only valid again after the next
  /// checkpoint -- callers recluster before crashing a second time.
  void Adopt(std::unique_ptr<ServingEngine> recovered, OracleMap oracle2) {
    engine = std::move(recovered);
    oracle = std::move(oracle2);
    base_oracle.clear();
    history.clear();
    last_checkpoint_ops = 0;
    live_ids.clear();
    for (const auto& [id, vals] : oracle) live_ids.push_back(id);
    // Re-sync the base: force a checkpoint so the WAL tail and the
    // (now-empty) history agree again.
    Recluster();
    if (durability->checkpoints_taken() == seen_checkpoints) {
      // Nothing to recluster (empty tail, no tombstones): checkpoint the
      // current state explicitly through a compacting pass.
      Compact();
    }
    base_oracle = oracle;
  }
};

void RunOps(RecoveryFuzzHarness& h, int ops) {
  for (int op = 0; op < ops; ++op) {
    switch (h.rng.UniformInt(0, 11)) {
      case 0:
      case 1:
        h.AppendBatch(150);
        break;
      case 2:
        h.DeleteOne();
        break;
      case 3:
        h.DeleteBatch();
        break;
      case 4:
      case 5:
        h.UpdateOne();
        break;
      case 6:
        h.Recluster();
        break;
      case 7:
        h.Compact();
        break;
      case 8:
        ASSERT_TRUE(h.engine->CheckInvariants().ok());
        break;
      default:
        ExpectThreeWayExact(*h.engine, h.oracle, h.RandomSpec());
        break;
    }
    ASSERT_EQ(h.engine->table().NumLiveRows(), h.oracle.size());
  }
}

/// One full kill-and-recover cycle: CRUD traffic, a crash at a seeded
/// point with seeded torn bytes, differential recovery, adoption, then
/// more CRUD traffic against the recovered engine (proving the capacity
/// reservation and background triggers came back with it).
void RunKillRecover(uint64_t seed, int ops_before, int ops_after,
                    int base_rows, size_t group_commit_ops) {
  RecoveryFuzzHarness h(seed, base_rows,
                        /*reserve_extra=*/size_t(ops_before + ops_after) *
                                250 + 4096,
                        group_commit_ops);
  RunOps(h, ops_before);

  // Crash: half the seeds tear into the last flush mid-frame (a group
  // commit batch is several frames, so a couple hundred bytes lands
  // inside one), the rest cut cleanly at the flush boundary.
  const size_t torn =
      (seed % 2 == 0) ? 0 : size_t(h.rng.UniformInt(1, 400));
  OracleMap recovered_oracle;
  std::unique_ptr<ServingEngine> rec = h.CrashAndRecover(torn,
                                                         &recovered_oracle);
  ASSERT_NE(rec, nullptr);
  h.Adopt(std::move(rec), std::move(recovered_oracle));

  RunOps(h, ops_after);
  h.Compact();
  ASSERT_TRUE(h.engine->CheckInvariants().ok());
  for (int i = 0; i < 8; ++i) {
    ExpectThreeWayExact(*h.engine, h.oracle, h.RandomSpec());
  }
}

TEST(RecoveryFuzzTest, KillAndRecoverMatchesShadowOracle) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    RunKillRecover(seed * 0x51ed, /*ops_before=*/45, /*ops_after=*/20,
                   /*base_rows=*/1500, /*group_commit_ops=*/4);
  }
}

TEST(RecoveryFuzzTest, CrashBetweenBuildAndPublishReplaysOldCheckpoint) {
  // The recluster window the checkpoint protocol must get right: after
  // phase 1 built the successor but before the publish that would
  // checkpoint it. Writes that land inside the window are logged against
  // the OLD id space; a crash there has no successor checkpoint, so
  // recovery replays the predecessor checkpoint plus the full tail --
  // including the in-window writes.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RecoveryFuzzHarness h(seed * 0x9137, /*base_rows=*/1200,
                          /*reserve_extra=*/1 << 16,
                          /*group_commit_ops=*/4);
    RunOps(h, 25);
    h.AppendBatch(100);  // guarantee a tail so the pass actually runs

    bool hook_ran = false;
    Reclusterer pass(h.engine.get());
    pass.set_after_build_hook([&] {
      hook_ran = true;
      // Land writes inside the build->publish window, then crash there.
      h.AppendBatch(60);
      h.DeleteOne();
      h.UpdateOne();
      OracleMap recovered_oracle;
      std::unique_ptr<ServingEngine> rec = h.CrashAndRecover(
          size_t(h.rng.UniformInt(0, 200)), &recovered_oracle);
      EXPECT_NE(rec, nullptr);
      // The recovered engine was differentially verified inside
      // CrashAndRecover; discard it -- the live engine's pass is still
      // mid-flight and finishes below.
    });
    auto stats = pass.Run();
    ASSERT_TRUE(stats.ok());
    ASSERT_TRUE(hook_ran);
    ASSERT_TRUE(stats->performed());
    h.NoteCheckpoints();

    // The surviving engine published and checkpointed over the crashed
    // WAL (the checkpoint supersedes whatever the tear lost), so durable
    // state is consistent again: keep operating, then crash and recover
    // for real.
    RunOps(h, 15);
    OracleMap recovered_oracle;
    std::unique_ptr<ServingEngine> rec =
        h.CrashAndRecover(0, &recovered_oracle);
    ASSERT_NE(rec, nullptr);
    h.Adopt(std::move(rec), std::move(recovered_oracle));
    for (int i = 0; i < 6; ++i) {
      ExpectThreeWayExact(*h.engine, h.oracle, h.RandomSpec());
    }
  }
}

TEST(RecoveryFuzzTest, TornGroupCommitBatchDropsASuffixOfOps) {
  // Deterministic mid-batch tear: 8 single-row appends with
  // group_commit_ops=4 give two 4-op flush batches; tearing into the
  // last flush must drop a suffix of its ops (commit markers behind the
  // tear die with their data records) while the first batch survives
  // whole.
  RecoveryFuzzHarness h(0xBEEF, /*base_rows=*/600, /*reserve_extra=*/4096,
                        /*group_commit_ops=*/4);
  const uint64_t flushes_at_start = h.durability->wal_flushes();
  for (int i = 0; i < 8; ++i) h.AppendBatch(1);
  ASSERT_EQ(h.durability->wal_flushes(), flushes_at_start + 2);

  OracleMap recovered_oracle;
  std::unique_ptr<ServingEngine> rec =
      h.CrashAndRecover(/*torn=*/80, &recovered_oracle);
  ASSERT_NE(rec, nullptr);
  // 80 bytes tears at least the last op's frames; the first flushed
  // batch of 4 is beyond the tear's reach.
  const size_t survivors = recovered_oracle.size() - h.base_oracle.size();
  EXPECT_GE(survivors, 4u);
  EXPECT_LT(survivors, 8u);
}

TEST(RecoveryFuzzTest, RecoveryIsObservable) {
  RecoveryFuzzHarness h(0xFACE, /*base_rows=*/800, /*reserve_extra=*/1 << 14,
                        /*group_commit_ops=*/4);
  RunOps(h, 20);
  OracleMap recovered_oracle;
  std::unique_ptr<ServingEngine> rec =
      h.CrashAndRecover(0, &recovered_oracle);
  ASSERT_NE(rec, nullptr);
  // The shared bundle saw the WAL's flushes and records, at least the
  // constructor checkpoint, per-batch group-commit sizes, and the
  // recovery pass's wall time.
  EXPECT_GT(h.metrics.wal_flushes->Value(), 0u);
  EXPECT_GT(h.metrics.wal_records->Value(), 0u);
  EXPECT_GT(h.metrics.wal_bytes->Value(), 0u);
  EXPECT_GE(h.metrics.checkpoints->Value(), 1u);
  EXPECT_GT(h.metrics.wal_group_commit_ops->Count(), 0u);
  EXPECT_EQ(h.metrics.recovery_ms->Count(), 1u);
}

/// Sorted (u-key, ordinal, count) records: map iteration order depends on
/// how a CM was built, its content does not.
std::vector<std::tuple<std::string, int64_t, uint32_t>> SortedRecords(
    const serve::ConcurrentCorrelationMap& cm) {
  std::vector<std::tuple<std::string, int64_t, uint32_t>> out;
  for (const CorrelationMap::Record& r : cm.ToRecords()) {
    out.emplace_back(r.u.ToString(), r.c_ordinal, r.count);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RecoveryFuzzTest, RecoveredCmsEqualThePreCrashCms) {
  // Lossless crashes (group_commit_ops = 1, no torn tail): the recovered
  // engine's CMs -- built once over the recovered table -- must hold
  // exactly what the pre-crash engine's CMs reached through maintenance,
  // for the unbucketed CM and the c-bucketed one alike.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    RecoveryFuzzHarness h(seed * 0x2545, /*base_rows=*/1500,
                          /*reserve_extra=*/1 << 16,
                          /*group_commit_ops=*/1);
    const auto crud = [&h](int ops) {
      for (int op = 0; op < ops; ++op) {
        switch (h.rng.UniformInt(0, 3)) {
          case 0:
            h.AppendBatch(120);
            break;
          case 1:
            h.DeleteOne();
            break;
          case 2:
            h.DeleteBatch();
            break;
          default:
            h.UpdateOne();
            break;
        }
      }
    };
    crud(20);
    h.DeleteBatch(/*poisoned=*/true);
    h.Recluster();  // checkpoints; the replayed tail starts here
    crud(30);
    h.DeleteBatch(/*poisoned=*/true);
    // Clustered rows die after the recluster, so the c-bucketed CM
    // retracts during the tail as well as the unbucketed one.
    const size_t dead_before = h.engine->table().NumDeleted();
    for (int i = 0; i < 6; ++i) h.DeleteOne();
    ASSERT_GT(h.engine->table().NumDeleted(), dead_before);

    OracleMap recovered_oracle;
    std::unique_ptr<ServingEngine> rec =
        h.CrashAndRecover(/*torn=*/0, &recovered_oracle);
    ASSERT_NE(rec, nullptr);
    ASSERT_EQ(recovered_oracle, h.oracle);  // nothing was lost
    ASSERT_EQ(rec->num_cms(), h.engine->num_cms());
    for (size_t i = 0; i < rec->num_cms(); ++i) {
      SCOPED_TRACE(i);
      const serve::ConcurrentCorrelationMap& want = h.engine->cm(i);
      const serve::ConcurrentCorrelationMap& got = rec->cm(i);
      EXPECT_EQ(SortedRecords(got), SortedRecords(want));
      EXPECT_EQ(got.NumUKeys(), want.NumUKeys());
      std::vector<CmColumnPredicate> probes;
      for (const int64_t x : {0, 7, 23, 48, 130, 499, 600}) {
        probes.push_back(CmColumnPredicate::Points({Key(x)}));
      }
      const std::vector<Key> several = {Key(int64_t{3}), Key(int64_t{41})};
      probes.push_back(CmColumnPredicate::Points(several));
      for (const double lo : {0.0, 12.0, 40.0, 100.0}) {
        probes.push_back(CmColumnPredicate::Range(lo, lo + 30));
      }
      probes.push_back(CmColumnPredicate::Range(0, 600));
      for (const CmColumnPredicate& p : probes) {
        const std::array<CmColumnPredicate, 1> preds = {p};
        const CmLookupResult a = got.Lookup(preds);
        const CmLookupResult b = want.Lookup(preds);
        EXPECT_EQ(a.ranges, b.ranges);
        EXPECT_EQ(a.num_ordinals, b.num_ordinals);
        EXPECT_EQ(a.entries_probed, b.entries_probed);
      }
    }
  }
}

TEST(RecoveryFuzzTest, ShardRouterRecoversEveryShard) {
  // Router-mode recovery: three shards, each with its own Durability in
  // synchronous-commit mode (group_commit_ops=1, so the crash itself is
  // lossless and the full oracle applies; lossy recovery is pinned down
  // by the single-engine suites above). After mixed CRUD + per-shard
  // recluster traffic, every shard's manager crashes and
  // ShardRouter::Recover rebuilds the partition from the persisted split
  // keys + per-shard checkpoints/logs.
  Rng rng(0xC0FFEE);
  Schema schema({ColumnDef::Int64("c"), ColumnDef::Int64("u"),
                 ColumnDef::Int64("v"), ColumnDef::Int64("id")});
  Table table("t", std::move(schema));
  OracleMap oracle;
  std::vector<int64_t> live_ids;
  int64_t next_id = 0;
  for (int i = 0; i < 2400; ++i) {
    const int64_t u = rng.UniformInt(0, 499);
    const int64_t v = rng.UniformInt(0, 49);
    const int64_t c = u / 10 + rng.UniformInt(0, 1);
    std::array<Value, 4> row = {Value(c), Value(u), Value(v), Value(next_id)};
    ASSERT_TRUE(table.AppendRow(row).ok());
    oracle[next_id] = {c, u, v};
    live_ids.push_back(next_id);
    ++next_id;
  }
  ASSERT_TRUE(table.ClusterBy(0).ok());

  std::vector<std::unique_ptr<Durability>> managers;
  serve::RouterOptions opts;
  opts.num_shards = 3;
  for (size_t s = 0; s < opts.num_shards; ++s) {
    DurabilityOptions dopts;
    dopts.group_commit_ops = 1;
    managers.push_back(std::make_unique<Durability>(dopts));
    opts.shard_durability.push_back(managers.back().get());
  }
  opts.engine.num_workers = 1;
  opts.engine.reserve_rows = table.NumRows() + (1 << 15);
  opts.engine.calibration_period = 16;
  auto created = serve::ShardRouter::Create(table, 0, opts);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<serve::ShardRouter> router = std::move(*created);

  CmOptions c0;
  c0.u_cols = {1};
  c0.u_bucketers = {Bucketer::Identity()};
  c0.c_col = 0;
  ASSERT_TRUE(router->AttachCm(c0).ok());
  auto cb = ClusteredBucketing::Build(table, 0, 32);
  ASSERT_TRUE(cb.ok());
  CmOptions c1;
  c1.u_cols = {2};
  c1.u_bucketers = {Bucketer::NumericWidth(4)};
  c1.c_col = 0;
  c1.c_buckets = &*cb;
  ASSERT_TRUE(router->AttachCm(c1).ok());

  const auto resolve = [&](int64_t id) -> std::pair<size_t, RowId> {
    for (size_t s = 0; s < router->num_shards(); ++s) {
      const Table& t = router->shard(s).table();
      for (RowId r = 0; r < t.NumRows(); ++r) {
        if (!t.IsDeleted(r) && t.GetKey(r, 3) == Key(id)) return {s, r};
      }
    }
    ADD_FAILURE() << "live id " << id << " not found in any shard";
    return {0, 0};
  };
  const auto check = [&](serve::ShardRouter& r, const QuerySpec& s) {
    const serve::RoutedSelectResult res = r.ExecuteSelect(s.query);
    uint64_t scan = 0;
    for (size_t i = 0; i < r.num_shards(); ++i) {
      scan += FullTableScan(r.shard(i).table(), s.query).NumMatches();
    }
    ASSERT_EQ(res.merged.num_matches, scan);
    ASSERT_EQ(res.merged.num_matches, OracleCount(oracle, s));
  };
  const auto random_spec = [&]() -> QuerySpec {
    if (rng.UniformInt(0, 1) == 0) {
      const int64_t lo = rng.UniformInt(0, 480);
      const int64_t hi = lo + rng.UniformInt(0, 60);
      return {Query({Predicate::Between(table, "u", Value(lo), Value(hi))}),
              1, lo, hi};
    }
    const int64_t lo = rng.UniformInt(0, 45);
    const int64_t hi = lo + rng.UniformInt(0, 10);
    return {Query({Predicate::Between(table, "v", Value(lo), Value(hi))}),
            2, lo, hi};
  };

  for (int op = 0; op < 45; ++op) {
    switch (rng.UniformInt(0, 7)) {
      case 0:
      case 1: {  // append a batch through the router
        const int n = int(rng.UniformInt(1, 120));
        std::vector<std::vector<Key>> rows;
        for (int i = 0; i < n; ++i) {
          const int64_t u = rng.UniformInt(0, 499);
          const int64_t v = rng.UniformInt(0, 49);
          rows.push_back({Key(u / 10), Key(u), Key(v), Key(next_id)});
          oracle[next_id] = {u / 10, u, v};
          live_ids.push_back(next_id);
          ++next_id;
        }
        ASSERT_TRUE(router->ApplyAppend(rows).ok());
        break;
      }
      case 2: {  // delete
        const size_t i =
            size_t(rng.UniformInt(0, int64_t(live_ids.size()) - 1));
        const int64_t id = live_ids[i];
        const auto [shard, rid] = resolve(id);
        ASSERT_TRUE(
            router->ApplyDelete(shard, rid, router->ShardEpoch(shard)).ok());
        live_ids[i] = live_ids.back();
        live_ids.pop_back();
        oracle.erase(id);
        break;
      }
      case 3: {  // update (may move shards)
        const size_t i =
            size_t(rng.UniformInt(0, int64_t(live_ids.size()) - 1));
        const int64_t id = live_ids[i];
        const auto [shard, rid] = resolve(id);
        const int64_t u = rng.UniformInt(0, 499);
        const int64_t v = rng.UniformInt(0, 49);
        const std::array<Key, 4> fresh = {Key(u / 10), Key(u), Key(v),
                                          Key(id)};
        ASSERT_TRUE(router
                        ->ApplyUpdate(shard, rid, fresh,
                                      router->ShardEpoch(shard))
                        .ok());
        oracle[id] = {u / 10, u, v};
        break;
      }
      case 4: {  // recluster one shard (checkpoints that shard)
        const size_t s =
            size_t(rng.UniformInt(0, int64_t(router->num_shards()) - 1));
        ASSERT_TRUE(router->Recluster(s).ok());
        break;
      }
      default:
        check(*router, random_spec());
        break;
    }
  }

  // Crash every shard and recover the partition from split keys + the
  // per-shard durable state. Synchronous commit means nothing is lost.
  const std::vector<Key> splits = router->split_keys();
  const size_t n_shards = router->num_shards();
  router.reset();  // the pre-crash process is gone
  for (auto& m : managers) m->Crash();

  ServingEngine::RecoverSpec spec;
  spec.cms.push_back({c0, 0});
  CmOptions c1r = c1;
  c1r.c_buckets = nullptr;
  spec.cms.push_back({c1r, 32});
  std::vector<RecoveryStats> stats;
  auto recovered =
      serve::ShardRouter::Recover(0, splits, opts, spec, &stats);
  ASSERT_TRUE(recovered.ok());
  router = std::move(*recovered);
  ASSERT_EQ(router->num_shards(), n_shards);
  ASSERT_EQ(stats.size(), n_shards);

  size_t live = 0;
  for (size_t s = 0; s < router->num_shards(); ++s) {
    live += router->shard(s).table().NumLiveRows();
  }
  ASSERT_EQ(live, oracle.size());
  ASSERT_TRUE(router->CheckInvariants().ok());
  for (int i = 0; i < 10; ++i) check(*router, random_spec());

  // The recovered partition keeps serving durable CRUD traffic.
  for (int i = 0; i < 40; ++i) {
    const int64_t u = rng.UniformInt(0, 499);
    const int64_t v = rng.UniformInt(0, 49);
    std::vector<std::vector<Key>> rows = {
        {Key(u / 10), Key(u), Key(v), Key(next_id)}};
    ASSERT_TRUE(router->ApplyAppend(rows).ok());
    oracle[next_id] = {u / 10, u, v};
    live_ids.push_back(next_id);
    ++next_id;
  }
  ASSERT_TRUE(router->ReclusterAll().ok());
  ASSERT_TRUE(router->CheckInvariants().ok());
  for (int i = 0; i < 8; ++i) check(*router, random_spec());
}

TEST(RecoveryFuzzTest, LongKillRecoverInterleavings) {
  if (std::getenv("CORRMAP_LONG_TESTS") == nullptr) {
    GTEST_SKIP() << "set CORRMAP_LONG_TESTS=1 (nightly ctest label "
                    "CORRMAP_LONG_TESTS) to run the long recovery fuzz";
  }
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    RunKillRecover(seed * 0x6b43, /*ops_before=*/160, /*ops_after=*/60,
                   /*base_rows=*/4000,
                   /*group_commit_ops=*/1 + seed % 8);
  }
}

}  // namespace
}  // namespace corrmap

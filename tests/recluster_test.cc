// Deterministic coverage for the online recluster pass and its hooks:
// MergeTailPermutation must reproduce ClusterBy's stable sort, the Table
// CloneReordered/AppendRowsFrom hooks must preserve dictionary codes and
// tombstones, ClusteredIndex::BuildMerged must equal a from-scratch Build,
// and a ServingEngine recluster must drain the tail, renew append
// capacity, keep probe==scan exact, and run from the background trigger.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/maintenance.h"
#include "exec/access_path.h"
#include "index/clustered_index.h"
#include "serve/recluster.h"
#include "serve/serving_engine.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace corrmap {
namespace {

using serve::MergeTailPermutation;
using serve::ServingEngine;
using serve::ServingOptions;

std::unique_ptr<Table> CorrelatedTable(int rows, uint64_t seed,
                                       int* appended = nullptr) {
  Schema schema({ColumnDef::Int64("c"), ColumnDef::Int64("u")});
  auto t = std::make_unique<Table>("t", std::move(schema));
  Rng rng(seed);
  for (int i = 0; i < rows; ++i) {
    const int64_t u = rng.UniformInt(0, 999);
    std::array<Value, 2> row = {Value(u / 10 + rng.UniformInt(0, 1)),
                                Value(u)};
    EXPECT_TRUE(t->AppendRow(row).ok());
  }
  EXPECT_TRUE(t->ClusterBy(0).ok());
  if (appended != nullptr) *appended = rows;
  return t;
}

TEST(MergeTailPermutationTest, ReproducesClusterByStableSort) {
  auto t = CorrelatedTable(5000, 97);
  const size_t boundary = t->NumRows();
  Rng rng(101);
  for (int i = 0; i < 1200; ++i) {
    const std::array<Key, 2> row = {Key(rng.UniformInt(0, 120)),
                                    Key(rng.UniformInt(0, 999))};
    t->AppendRowKeys(row);
  }
  const std::vector<RowId> perm =
      MergeTailPermutation(*t, 0, RowId(boundary), t->NumRows());
  // Oracle: an independent copy, stable-sorted wholesale.
  auto oracle = t->Clone();
  ASSERT_TRUE(oracle->ClusterBy(0).ok());
  ASSERT_EQ(perm.size(), t->NumRows());
  auto merged = t->CloneReordered(perm);
  for (RowId r = 0; r < merged->NumRows(); ++r) {
    EXPECT_EQ(merged->GetKey(r, 0), oracle->GetKey(r, 0));
    EXPECT_EQ(merged->GetKey(r, 1), oracle->GetKey(r, 1));
  }
}

TEST(TableReclusterHooksTest, CloneReorderedPreservesDictAndTombstones) {
  Schema schema({ColumnDef::Int64("c"), ColumnDef::String("s")});
  Table t("t", std::move(schema));
  const std::array<const char*, 4> words = {"pear", "apple", "fig", "plum"};
  for (int i = 0; i < 8; ++i) {
    std::array<Value, 2> row = {Value(int64_t(i / 2)),
                                Value(std::string(words[i % 4]))};
    ASSERT_TRUE(t.AppendRow(row).ok());
  }
  ASSERT_TRUE(t.ClusterBy(0).ok());
  ASSERT_TRUE(t.DeleteRow(3).ok());
  std::vector<RowId> ident(t.NumRows());
  for (size_t i = 0; i < ident.size(); ++i) ident[i] = RowId(i);
  auto copy = t.CloneReordered(ident);
  ASSERT_EQ(copy->NumRows(), t.NumRows());
  EXPECT_EQ(copy->clustered_column(), t.clustered_column());
  EXPECT_EQ(copy->NumLiveRows(), t.NumLiveRows());
  for (RowId r = 0; r < t.NumRows(); ++r) {
    EXPECT_EQ(copy->IsDeleted(r), t.IsDeleted(r));
    // Values AND physical keys (dictionary codes) must survive the copy,
    // or predicates compiled against the predecessor would misread it.
    EXPECT_EQ(copy->GetValue(r, 1), t.GetValue(r, 1));
    EXPECT_EQ(copy->GetKey(r, 1), t.GetKey(r, 1));
  }

  // AppendRowsFrom carries later rows (and their codes) across.
  std::array<Value, 2> extra = {Value(int64_t{99}),
                                Value(std::string("apple"))};
  ASSERT_TRUE(t.AppendRow(extra).ok());
  copy->AppendRowsFrom(t, t.NumRows() - 1, t.NumRows());
  EXPECT_EQ(copy->NumRows(), t.NumRows());
  EXPECT_EQ(copy->GetKey(copy->NumRows() - 1, 1),
            t.GetKey(t.NumRows() - 1, 1));
}

TEST(ClusteredIndexTest, BuildMergedEqualsFromScratchBuild) {
  auto t = CorrelatedTable(8000, 103);
  const RowId boundary = RowId(t->NumRows());
  auto old_cidx = ClusteredIndex::Build(*t, 0);
  ASSERT_TRUE(old_cidx.ok());
  Rng rng(107);
  std::vector<Key> tail_keys;
  for (int i = 0; i < 2000; ++i) {
    // Include keys below, inside, and above the old key range.
    const std::array<Key, 2> row = {Key(rng.UniformInt(-5, 130)),
                                    Key(rng.UniformInt(0, 999))};
    t->AppendRowKeys(row);
    tail_keys.push_back(row[0]);
  }
  const std::vector<RowId> perm =
      MergeTailPermutation(*t, 0, boundary, t->NumRows());
  auto merged_table = t->CloneReordered(perm);
  std::sort(tail_keys.begin(), tail_keys.end());
  auto patched = ClusteredIndex::BuildMerged(*merged_table, 0, *old_cidx,
                                             boundary, tail_keys);
  ASSERT_TRUE(patched.ok());
  auto scratch = ClusteredIndex::Build(*merged_table, 0);
  ASSERT_TRUE(scratch.ok());
  ASSERT_EQ(patched->NumDistinctKeys(), scratch->NumDistinctKeys());
  for (size_t i = 0; i < scratch->NumDistinctKeys(); ++i) {
    EXPECT_EQ(patched->DistinctKey(i), scratch->DistinctKey(i));
    EXPECT_EQ(patched->LookupEqual(scratch->DistinctKey(i)),
              scratch->LookupEqual(scratch->DistinctKey(i)));
  }
  EXPECT_EQ(patched->LookupRange(Key(int64_t{-5}), Key(int64_t{200})),
            scratch->LookupRange(Key(int64_t{-5}), Key(int64_t{200})));
}

struct ReclusterEngineFixture {
  std::unique_ptr<Table> table;
  std::unique_ptr<ClusteredIndex> cidx;
  std::unique_ptr<ServingEngine> engine;

  explicit ReclusterEngineFixture(size_t reserve_extra = 50000,
                                  size_t recluster_tail_rows = 0,
                                  DiskModel disk = {}) {
    table = CorrelatedTable(20000, 109);
    auto ci = ClusteredIndex::Build(*table, 0);
    EXPECT_TRUE(ci.ok());
    cidx = std::make_unique<ClusteredIndex>(std::move(*ci));
    ServingOptions opts;
    opts.num_workers = 2;
    opts.reserve_rows = table->NumRows() + reserve_extra;
    opts.recluster_tail_rows = recluster_tail_rows;
    opts.disk = disk;
    engine = std::make_unique<ServingEngine>(table.get(), cidx.get(), opts);
    CmOptions copts;
    copts.u_cols = {1};
    copts.u_bucketers = {Bucketer::Identity()};
    copts.c_col = 0;
    EXPECT_TRUE(engine->AttachCm(copts).ok());
  }

  std::vector<std::vector<Key>> MakeRows(int n, uint64_t seed) {
    Rng rng(seed);
    std::vector<std::vector<Key>> rows;
    for (int i = 0; i < n; ++i) {
      const int64_t u = rng.UniformInt(0, 999);
      rows.push_back({Key(u / 10), Key(u)});
    }
    return rows;
  }

  void ExpectProbeEqualsScan(const Query& q) {
    const serve::SelectResult probe = engine->ExecuteSelect(q);
    const ExecResult scan = FullTableScan(engine->table(), q);
    EXPECT_EQ(probe.num_matches, scan.NumMatches());
  }
};

TEST(ReclusterTest, DrainsTailAndKeepsProbeEqualsScan) {
  ReclusterEngineFixture f;
  const Query eq({Predicate::Eq(*f.table, "u", Value(321))});
  const Query range(
      {Predicate::Between(*f.table, "u", Value(150), Value(260))});
  ASSERT_TRUE(f.engine->ApplyAppend(f.MakeRows(7000, 113)).ok());
  EXPECT_EQ(f.engine->TailRows(), 7000u);
  f.ExpectProbeEqualsScan(eq);

  auto stats = f.engine->Recluster();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->performed());
  EXPECT_EQ(stats->tail_rows_merged, 7000u);
  EXPECT_EQ(stats->rows_clustered, 27000u);
  EXPECT_EQ(stats->catch_up_rows, 0u);
  EXPECT_EQ(f.engine->TailRows(), 0u);
  EXPECT_EQ(f.engine->clustered_boundary(), 27000u);
  EXPECT_EQ(f.engine->ReclusterEpoch(), 1u);
  EXPECT_EQ(f.engine->table().NumRows(), 27000u);
  EXPECT_TRUE(f.engine->CheckInvariants().ok());
  f.ExpectProbeEqualsScan(eq);
  f.ExpectProbeEqualsScan(range);

  // Appends keep working against the successor; a second pass drains
  // them again.
  ASSERT_TRUE(f.engine->ApplyAppend(f.MakeRows(500, 127)).ok());
  EXPECT_EQ(f.engine->TailRows(), 500u);
  f.ExpectProbeEqualsScan(eq);
  auto again = f.engine->Recluster();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(f.engine->TailRows(), 0u);
  EXPECT_EQ(f.engine->ReclusterEpoch(), 2u);
  f.ExpectProbeEqualsScan(eq);
}

TEST(ReclusterTest, UnbucketedCmsAreSnapshotCopiedNotRehashed) {
  // Unbucketed CM content encodes clustered *values*, which the physical
  // reorder does not change: the pass must carry the fixture's identity
  // CM into the successor by snapshot copy, while a c-bucketed CM (its
  // ordinals are positional bucket ids) is still rebuilt in phase 1.
  ReclusterEngineFixture f;
  auto cb = ClusteredBucketing::Build(*f.table, 0, 64);
  ASSERT_TRUE(cb.ok());
  CmOptions bucketed;
  bucketed.u_cols = {1};
  bucketed.u_bucketers = {Bucketer::NumericWidth(8)};
  bucketed.c_col = 0;
  bucketed.c_buckets = &*cb;
  ASSERT_TRUE(f.engine->AttachCm(bucketed).ok());
  EXPECT_EQ(f.engine->CmSnapshotCopies(), 0u);

  const Query eq({Predicate::Eq(*f.table, "u", Value(321))});
  ASSERT_TRUE(f.engine->ApplyAppend(f.MakeRows(5000, 211)).ok());
  auto stats = f.engine->Recluster();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->performed());
  // Exactly the unbucketed slot was copied; the bucketed one was not.
  EXPECT_EQ(stats->cms_snapshot_copied, 1u);
  EXPECT_EQ(f.engine->CmSnapshotCopies(), 1u);
  EXPECT_EQ(f.engine->num_cms(), 2u);
  EXPECT_TRUE(f.engine->CheckInvariants().ok());
  f.ExpectProbeEqualsScan(eq);

  // The copied map serves the successor epoch exactly, including across
  // a second pass with deletes in flight.
  for (RowId r = 0; r < 400; ++r) {
    ASSERT_TRUE(f.engine->ApplyDelete(r * 3).ok());
  }
  ASSERT_TRUE(f.engine->ApplyAppend(f.MakeRows(700, 223)).ok());
  auto again = f.engine->Compact();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->cms_snapshot_copied, 1u);
  EXPECT_EQ(f.engine->CmSnapshotCopies(), 2u);
  EXPECT_TRUE(f.engine->CheckInvariants().ok());
  f.ExpectProbeEqualsScan(eq);
  f.ExpectProbeEqualsScan(
      Query({Predicate::Between(*f.table, "u", Value(150), Value(260))}));
}

TEST(ReclusterTest, RetiredEpochsReleaseTheirResidencyCounters) {
  // Every pass registers fresh heap and clustered-index files with the
  // pool. The retired epoch's extent counters must die with it, or every
  // residency lookup scans a map that grows with each pass. A scan-averse
  // disk keeps the small table's selects on the CM probe, which touches
  // pool pages (a sequential scan prices without the pool).
  ReclusterEngineFixture f(50000, 0,
                           DiskModel(/*seek_ms=*/0.01, /*seq_page_ms=*/5.0));
  const BufferPool* pool = f.engine->pool();
  ASSERT_NE(pool, nullptr);
  const Query eq({Predicate::Eq(*f.table, "u", Value(321))});
  size_t after_first = 0;
  for (int pass = 0; pass < 20; ++pass) {
    ASSERT_TRUE(f.engine->ApplyAppend(f.MakeRows(200, 300 + pass)).ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(f.engine->ExecuteSelect(eq).used_cm);
    }
    auto stats = f.engine->Recluster();
    ASSERT_TRUE(stats.ok());
    ASSERT_TRUE(stats->performed());
    (void)f.engine->ExecuteSelect(eq);  // touch the successor's files
    if (pass == 0) after_first = pool->NumExtentCounters();
  }
  ASSERT_GT(after_first, 0u);
  EXPECT_LE(pool->NumExtentCounters(), 2 * after_first);
  EXPECT_TRUE(f.engine->CheckInvariants().ok());
}

TEST(ReclusterTest, EmptyTailIsANoOp) {
  ReclusterEngineFixture f;
  auto stats = f.engine->Recluster();
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->performed());
  EXPECT_EQ(f.engine->ReclusterEpoch(), 0u);
  EXPECT_EQ(f.engine->ReclustersCompleted(), 0u);
}

TEST(ReclusterTest, RenewsAppendCapacity) {
  // Fill the reservation to the brim; the recluster successor is
  // re-reserved with fresh headroom, so appends work again.
  ReclusterEngineFixture f(/*reserve_extra=*/4000);
  ASSERT_TRUE(f.engine->ApplyAppend(f.MakeRows(4000, 131)).ok());
  EXPECT_EQ(f.engine->ApplyAppend(f.MakeRows(1, 137)).code(),
            Status::Code::kResourceExhausted);
  auto stats = f.engine->Recluster();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(f.engine->ApplyAppend(f.MakeRows(1000, 139)).ok());
  EXPECT_EQ(f.engine->TailRows(), 1000u);
}

TEST(ReclusterTest, BackgroundTriggerFiresOnTailThreshold) {
  ReclusterEngineFixture f(/*reserve_extra=*/50000,
                           /*recluster_tail_rows=*/2000);
  const Query eq({Predicate::Eq(*f.table, "u", Value(500))});
  for (int batch = 0; batch < 10; ++batch) {
    ASSERT_TRUE(f.engine->ApplyAppend(f.MakeRows(700, 141 + batch)).ok());
  }
  // The trigger enqueued passes on the worker pool; quiesce by resizing
  // (which drains the queue) and check the tail was folded at least once.
  f.engine->ResizeWorkerPool(2);
  EXPECT_GE(f.engine->ReclustersCompleted(), 1u);
  EXPECT_LT(f.engine->TailRows(), 7000u);
  f.ExpectProbeEqualsScan(eq);
  EXPECT_TRUE(f.engine->CheckInvariants().ok());
}

// Boundary parity: the engine's live clustered index must equal a
// from-scratch Build over the engine's table (the compaction acceptance
// bar -- per-key deleted counts contracted every range exactly).
void ExpectCidxMatchesScratchBuild(const ServingEngine& engine) {
  auto scratch = ClusteredIndex::Build(engine.table(), 0);
  ASSERT_TRUE(scratch.ok());
  const ClusteredIndex& live = engine.cidx();
  ASSERT_EQ(live.NumDistinctKeys(), scratch->NumDistinctKeys());
  for (size_t i = 0; i < scratch->NumDistinctKeys(); ++i) {
    EXPECT_EQ(live.DistinctKey(i), scratch->DistinctKey(i));
    EXPECT_EQ(live.LookupEqual(scratch->DistinctKey(i)),
              scratch->LookupEqual(scratch->DistinctKey(i)));
  }
}

// First live row whose "u" column equals `u` (current epoch's id space).
RowId ResolveByU(const Table& t, int64_t u) {
  for (RowId r = 0; r < t.NumRows(); ++r) {
    if (!t.IsDeleted(r) && t.GetKey(r, 1) == Key(u)) return r;
  }
  ADD_FAILURE() << "no live row with u=" << u;
  return 0;
}

TEST(CompactTest, DropsTombstonesAndMatchesScratchBuild) {
  ReclusterEngineFixture f;
  const Query eq({Predicate::Eq(*f.table, "u", Value(321))});
  const Query range(
      {Predicate::Between(*f.table, "u", Value(150), Value(260))});
  ASSERT_TRUE(f.engine->ApplyAppend(f.MakeRows(3000, 163)).ok());

  // Tombstone every row of one distinct clustered key (BuildMerged must
  // drop the key from the directory, not alias its boundary onto the
  // next key), plus a scatter of clustered-region and tail rows.
  std::vector<RowId> victims;
  const RowRange whole_key =
      f.engine->cidx().LookupEqual(f.engine->cidx().DistinctKey(5));
  ASSERT_FALSE(whole_key.empty());
  for (RowId r = whole_key.begin; r < whole_key.end; ++r) {
    victims.push_back(r);
  }
  for (RowId r = 40; r < 20000; r += 997) {
    if (r < whole_key.begin || r >= whole_key.end) victims.push_back(r);
  }
  for (RowId r = 20005; r < 23000; r += 501) victims.push_back(r);
  ASSERT_TRUE(f.engine->ApplyDeletes(victims).ok());
  const size_t live = f.engine->table().NumLiveRows();
  EXPECT_EQ(f.engine->table().NumDeleted(), victims.size());
  f.ExpectProbeEqualsScan(eq);

  auto stats = f.engine->Compact();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->performed());
  EXPECT_EQ(stats->rows_compacted, victims.size());
  EXPECT_EQ(stats->tombstones_carried, 0u);
  EXPECT_EQ(f.engine->TailRows(), 0u);
  EXPECT_EQ(f.engine->table().NumDeleted(), 0u);
  EXPECT_EQ(f.engine->table().NumRows(), live);
  EXPECT_EQ(f.engine->clustered_boundary(), RowId(live));
  EXPECT_TRUE(f.engine->CheckInvariants().ok());
  ExpectCidxMatchesScratchBuild(*f.engine);
  f.ExpectProbeEqualsScan(eq);
  f.ExpectProbeEqualsScan(range);
}

TEST(CompactTest, EmptyTailStillDropsTombstones) {
  ReclusterEngineFixture f;
  std::vector<RowId> victims;
  for (RowId r = 7; r < 20000; r += 199) victims.push_back(r);
  ASSERT_TRUE(f.engine->ApplyDeletes(victims).ok());

  // Merge mode has no tail to fold: a plain Recluster stays a no-op and
  // the tombstones survive it.
  auto merge = f.engine->Recluster();
  ASSERT_TRUE(merge.ok());
  EXPECT_FALSE(merge->performed());
  EXPECT_EQ(f.engine->table().NumDeleted(), victims.size());

  auto compact = f.engine->Compact();
  ASSERT_TRUE(compact.ok());
  EXPECT_TRUE(compact->performed());
  EXPECT_EQ(compact->rows_compacted, victims.size());
  EXPECT_EQ(f.engine->table().NumDeleted(), 0u);
  EXPECT_EQ(f.engine->table().NumRows(), 20000u - victims.size());
  EXPECT_GT(f.engine->ReclusterEpoch(), 0u);
  ExpectCidxMatchesScratchBuild(*f.engine);
  EXPECT_TRUE(f.engine->CheckInvariants().ok());
}

TEST(CompactTest, DeleteDuringPhase1CopyIsCarriedNeverResurrected) {
  // Satellite: a delete that lands between the permutation's tombstone
  // reads and the publish must be compacted away or carried as a
  // successor tombstone -- never resurrected. The hook injects it right
  // after the permutation is fixed, so the clone may or may not carry it;
  // either way the counts must drop immediately and stay dropped.
  ReclusterEngineFixture f;
  ASSERT_TRUE(f.engine->ApplyAppend(f.MakeRows(2000, 167)).ok());
  const Query eq({Predicate::Eq(*f.table, "u", Value(321))});
  const uint64_t before = f.engine->ExecuteSelect(eq).num_matches;
  ASSERT_GT(before, 0u);
  const RowId victim = ResolveByU(f.engine->table(), 321);

  serve::Reclusterer pass(f.engine.get(), serve::ReclusterMode::kCompact);
  pass.set_after_permutation_hook([&] {
    EXPECT_TRUE(f.engine->ApplyDelete(victim).ok());
  });
  auto stats = pass.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->performed());

  // The deleted row stayed deleted across the swap (carried tombstone or
  // replayed delete -- both end as a successor tombstone here, because
  // the permutation had already kept the row).
  EXPECT_EQ(f.engine->ExecuteSelect(eq).num_matches, before - 1);
  const ExecResult scan = FullTableScan(f.engine->table(), eq);
  EXPECT_EQ(scan.NumMatches(), before - 1);
  EXPECT_EQ(f.engine->table().NumDeleted(), 1u);
  EXPECT_TRUE(f.engine->CheckInvariants().ok());

  // A follow-up compaction drains the carried tombstone; counts hold.
  auto drained = f.engine->Compact();
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(f.engine->table().NumDeleted(), 0u);
  EXPECT_EQ(f.engine->ExecuteSelect(eq).num_matches, before - 1);
  ExpectCidxMatchesScratchBuild(*f.engine);
}

TEST(CompactTest, DeleteAfterSuccessorBuildIsReplayedIntoSuccessorCms) {
  // Same race, later seam: the delete lands after the successor table,
  // index, and CMs are fully built, so phase 2 must replay it -- delete
  // the successor row AND retract it from the successor CMs (the epoch
  // bump of that retraction is also what staleness of cached lookups
  // rides on).
  ReclusterEngineFixture f;
  ASSERT_TRUE(f.engine->ApplyAppend(f.MakeRows(2000, 173)).ok());
  const Query eq({Predicate::Eq(*f.table, "u", Value(500))});
  const uint64_t before = f.engine->ExecuteSelect(eq).num_matches;
  ASSERT_GT(before, 0u);
  const RowId victim = ResolveByU(f.engine->table(), 500);

  serve::Reclusterer pass(f.engine.get(), serve::ReclusterMode::kCompact);
  pass.set_after_build_hook([&] {
    EXPECT_TRUE(f.engine->ApplyDelete(victim).ok());
  });
  auto stats = pass.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->tombstones_carried, 1u);

  EXPECT_EQ(f.engine->ExecuteSelect(eq).num_matches, before - 1);
  const ExecResult scan = FullTableScan(f.engine->table(), eq);
  EXPECT_EQ(scan.NumMatches(), before - 1);
  // The replay retracted the pair, so the CM's books balance.
  EXPECT_TRUE(f.engine->CheckInvariants().ok());

  auto drained = f.engine->Compact();
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(f.engine->table().NumDeleted(), 0u);
  EXPECT_EQ(f.engine->ExecuteSelect(eq).num_matches, before - 1);
  ExpectCidxMatchesScratchBuild(*f.engine);
}

TEST(CompactTest, UpdateMovesRowToTailAndStaysExact) {
  ReclusterEngineFixture f;
  const Query old_u({Predicate::Eq(*f.table, "u", Value(321))});
  const Query new_u({Predicate::Eq(*f.table, "u", Value(777))});
  const uint64_t old_before = f.engine->ExecuteSelect(old_u).num_matches;
  const uint64_t new_before = f.engine->ExecuteSelect(new_u).num_matches;
  ASSERT_GT(old_before, 0u);

  const RowId victim = ResolveByU(f.engine->table(), 321);
  const std::vector<Key> fresh = {Key(int64_t{77}), Key(int64_t{777})};
  ASSERT_TRUE(f.engine->ApplyUpdate(victim, fresh).ok());

  EXPECT_EQ(f.engine->TailRows(), 1u);
  EXPECT_EQ(f.engine->ExecuteSelect(old_u).num_matches, old_before - 1);
  EXPECT_EQ(f.engine->ExecuteSelect(new_u).num_matches, new_before + 1);
  f.ExpectProbeEqualsScan(old_u);
  f.ExpectProbeEqualsScan(new_u);

  auto stats = f.engine->Compact();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(f.engine->table().NumDeleted(), 0u);
  EXPECT_EQ(f.engine->TailRows(), 0u);
  EXPECT_EQ(f.engine->ExecuteSelect(old_u).num_matches, old_before - 1);
  EXPECT_EQ(f.engine->ExecuteSelect(new_u).num_matches, new_before + 1);
  ExpectCidxMatchesScratchBuild(*f.engine);
}

TEST(CompactTest, StaleEpochDeleteIsAborted) {
  ReclusterEngineFixture f;
  const uint64_t epoch0 = f.engine->ReclusterEpoch();
  const RowId victim = ResolveByU(f.engine->table(), 321);
  ASSERT_TRUE(f.engine->ApplyAppend(f.MakeRows(100, 179)).ok());
  ASSERT_TRUE(f.engine->Recluster().ok());
  ASSERT_GT(f.engine->ReclusterEpoch(), epoch0);
  // The swap permuted row ids: a delete pinned to the stale epoch must be
  // refused, and the same call against the current epoch must land.
  EXPECT_EQ(f.engine->ApplyDelete(victim, epoch0).code(),
            Status::Code::kAborted);
  EXPECT_TRUE(
      f.engine->ApplyDelete(victim, f.engine->ReclusterEpoch()).ok());
  EXPECT_EQ(f.engine->table().NumDeleted(), 1u);
}

TEST(CompactTest, BackgroundTriggerFiresOnTombstoneFraction) {
  ReclusterEngineFixture f;
  f.engine->set_compact_deleted_fraction(0.05);
  const Query eq({Predicate::Eq(*f.table, "u", Value(500))});
  std::vector<RowId> victims;
  for (RowId r = 3; r < 20000 && victims.size() < 1200; r += 16) {
    victims.push_back(r);
  }
  ASSERT_TRUE(f.engine->ApplyDeletes(victims).ok());
  // The trigger enqueued a compacting pass; quiesce and check it drained
  // the tombstones.
  f.engine->ResizeWorkerPool(2);
  EXPECT_GE(f.engine->ReclustersCompleted(), 1u);
  EXPECT_EQ(f.engine->table().NumDeleted(), 0u);
  EXPECT_EQ(f.engine->table().NumRows(), 20000u - victims.size());
  f.ExpectProbeEqualsScan(eq);
  EXPECT_TRUE(f.engine->CheckInvariants().ok());
}

TEST(MaintenanceDriverTest, ReclusterHeapMergesTailAndChargesRewrite) {
  auto t = CorrelatedTable(10000, 149);
  auto cidx = ClusteredIndex::Build(*t, 0);
  ASSERT_TRUE(cidx.ok());
  BufferPool pool(1024);
  WriteAheadLog wal;
  MaintenanceDriver driver(t.get(), &pool, &wal);

  CmOptions copts;
  copts.u_cols = {1};
  copts.u_bucketers = {Bucketer::Identity()};
  copts.c_col = 0;
  auto cm = CorrelationMap::Create(t.get(), copts);
  ASSERT_TRUE(cm.ok());
  ASSERT_TRUE(cm->BuildFromTable().ok());
  driver.AttachCm(&*cm);

  Rng rng(151);
  std::vector<std::vector<Key>> batch;
  for (int i = 0; i < 2000; ++i) {
    const int64_t u = rng.UniformInt(0, 999);
    batch.push_back({Key(u / 10), Key(u)});
  }
  driver.InsertBatch(batch);

  const double io_before = driver.report().io.seq_pages;
  ASSERT_TRUE(driver.ReclusterHeap(&*cidx).ok());
  EXPECT_GT(driver.report().io.seq_pages, io_before);
  // The heap is fully sorted again and the rebuilt index agrees with a
  // from-scratch build.
  for (RowId r = 1; r < t->NumRows(); ++r) {
    EXPECT_LE(t->GetKey(r - 1, 0), t->GetKey(r, 0));
  }
  auto scratch = ClusteredIndex::Build(*t, 0);
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(cidx->NumDistinctKeys(), scratch->NumDistinctKeys());
  // The unbucketed CM survived the physical reorder: probe==scan.
  const Query q({Predicate::Eq(*t, "u", Value(321))});
  const ExecResult via_cm = CmScan(*t, *cm, *cidx, q);
  const ExecResult scan = FullTableScan(*t, q);
  EXPECT_EQ(via_cm.NumMatches(), scan.NumMatches());
}

TEST(MaintenanceDriverTest, ReclusterHeapRefusedWithPositionalStructures) {
  auto t = CorrelatedTable(1000, 157);
  auto cidx = ClusteredIndex::Build(*t, 0);
  ASSERT_TRUE(cidx.ok());
  BufferPool pool(1024);
  WriteAheadLog wal;
  MaintenanceDriver driver(t.get(), &pool, &wal);
  auto cb = ClusteredBucketing::Build(*t, 0, 64);
  ASSERT_TRUE(cb.ok());
  CmOptions copts;
  copts.u_cols = {1};
  copts.u_bucketers = {Bucketer::Identity()};
  copts.c_col = 0;
  copts.c_buckets = &*cb;
  auto cm = CorrelationMap::Create(t.get(), copts);
  ASSERT_TRUE(cm.ok());
  driver.AttachCm(&*cm);
  EXPECT_EQ(driver.ReclusterHeap(&*cidx).code(),
            Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace corrmap

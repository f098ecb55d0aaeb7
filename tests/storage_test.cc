// Unit tests for storage/: page layout, schema, columnar table, disk model,
// buffer pool, WAL.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_model.h"
#include "storage/page.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/tombstones.h"
#include "storage/wal.h"

namespace corrmap {
namespace {

Schema SmallSchema() {
  return Schema({ColumnDef::Int64("id"), ColumnDef::String("city", 16),
                 ColumnDef::Double("salary")});
}

TEST(PageLayoutTest, TuplesPerPage) {
  PageLayout layout;
  layout.tuple_bytes = 136;
  EXPECT_EQ(layout.TuplesPerPage(), 8192u / 136u);
  EXPECT_EQ(layout.PageOfRow(0), 0u);
  EXPECT_EQ(layout.PageOfRow(layout.TuplesPerPage()), 1u);
  EXPECT_EQ(layout.NumPages(0), 0u);
  EXPECT_EQ(layout.NumPages(1), 1u);
  EXPECT_EQ(layout.NumPages(layout.TuplesPerPage() + 1), 2u);
}

TEST(PageLayoutTest, OversizeTupleStillFitsOnePerPage) {
  PageLayout layout;
  layout.tuple_bytes = 10000;
  EXPECT_EQ(layout.TuplesPerPage(), 1u);
}

TEST(SchemaTest, ColumnIndexAndWidths) {
  Schema s = SmallSchema();
  EXPECT_EQ(s.num_columns(), 3u);
  EXPECT_EQ(*s.ColumnIndex("city"), 1u);
  EXPECT_FALSE(s.ColumnIndex("nope").ok());
  EXPECT_EQ(s.TupleBytes(), Schema::kTupleHeaderBytes + 8 + 16 + 8);
}

TEST(TableTest, AppendAndRead) {
  Table t("people", SmallSchema());
  std::array<Value, 3> row = {Value(1), Value("boston"), Value(95.5)};
  ASSERT_TRUE(t.AppendRow(row).ok());
  EXPECT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.GetValue(0, 0), Value(1));
  EXPECT_EQ(t.GetValue(0, 1), Value("boston"));
  EXPECT_EQ(t.GetValue(0, 2), Value(95.5));
}

TEST(TableTest, TypeMismatchRejected) {
  Table t("people", SmallSchema());
  std::array<Value, 3> bad = {Value("x"), Value("boston"), Value(1.0)};
  EXPECT_FALSE(t.AppendRow(bad).ok());
}

TEST(TableTest, ArityMismatchRejected) {
  Table t("people", SmallSchema());
  std::array<Value, 2> bad = {Value(1), Value("boston")};
  EXPECT_FALSE(t.AppendRow(bad).ok());
}

TEST(TableTest, StringsAreDictionaryEncoded) {
  Table t("people", SmallSchema());
  std::array<Value, 3> r1 = {Value(1), Value("boston"), Value(1.0)};
  std::array<Value, 3> r2 = {Value(2), Value("boston"), Value(2.0)};
  std::array<Value, 3> r3 = {Value(3), Value("nyc"), Value(3.0)};
  ASSERT_TRUE(t.AppendRow(r1).ok());
  ASSERT_TRUE(t.AppendRow(r2).ok());
  ASSERT_TRUE(t.AppendRow(r3).ok());
  EXPECT_EQ(t.GetKey(0, 1), t.GetKey(1, 1));
  EXPECT_NE(t.GetKey(0, 1), t.GetKey(2, 1));
  // Encoding a known string finds its code; unknown maps to -1.
  EXPECT_EQ(t.column(1).EncodeKey(Value("nyc")), t.GetKey(2, 1));
  EXPECT_EQ(t.column(1).EncodeKey(Value("zzz")).AsInt64(), -1);
}

TEST(TableTest, ClusterBySortsAllColumns) {
  Table t("people", SmallSchema());
  const char* cities[] = {"c", "a", "b"};
  for (int i = 0; i < 3; ++i) {
    std::array<Value, 3> row = {Value(10 - i), Value(cities[i]),
                                Value(double(i))};
    ASSERT_TRUE(t.AppendRow(row).ok());
  }
  ASSERT_TRUE(t.ClusterBy(0).ok());
  EXPECT_EQ(t.clustered_column(), 0);
  EXPECT_EQ(t.GetValue(0, 0), Value(8));
  EXPECT_EQ(t.GetValue(2, 0), Value(10));
  // Row integrity: id 8 was the last appended row (city "b", salary 2).
  EXPECT_EQ(t.GetValue(0, 1), Value("b"));
  EXPECT_EQ(t.GetValue(0, 2), Value(2.0));
}

TEST(TableTest, DeleteTombstones) {
  Table t("people", SmallSchema());
  std::array<Value, 3> row = {Value(1), Value("x"), Value(1.0)};
  ASSERT_TRUE(t.AppendRow(row).ok());
  ASSERT_TRUE(t.AppendRow(row).ok());
  EXPECT_EQ(t.NumLiveRows(), 2u);
  ASSERT_TRUE(t.DeleteRow(0).ok());
  EXPECT_TRUE(t.IsDeleted(0));
  EXPECT_FALSE(t.IsDeleted(1));
  EXPECT_EQ(t.NumLiveRows(), 1u);
  EXPECT_FALSE(t.DeleteRow(0).ok());   // already deleted
  EXPECT_FALSE(t.DeleteRow(99).ok());  // out of range
}

TEST(TombstoneBitmapTest, CountSetInRangeHandlesWordBoundaries) {
  TombstoneBitmap bm;
  bm.EnsureCapacity(200);
  // Bits straddling word 0/1 and word 2, plus the very first and last.
  for (RowId r : {RowId(0), RowId(63), RowId(64), RowId(65), RowId(130),
                  RowId(199)}) {
    EXPECT_FALSE(bm.Set(r));
  }
  EXPECT_EQ(bm.CountSetInRange(0, 200), 6u);
  EXPECT_EQ(bm.CountSetInRange(0, 64), 2u);    // full first word
  EXPECT_EQ(bm.CountSetInRange(63, 65), 2u);   // straddles the boundary
  EXPECT_EQ(bm.CountSetInRange(64, 66), 2u);
  EXPECT_EQ(bm.CountSetInRange(65, 130), 1u);  // partial both ends
  EXPECT_EQ(bm.CountSetInRange(66, 130), 0u);
  EXPECT_EQ(bm.CountSetInRange(199, 200), 1u);
  EXPECT_EQ(bm.CountSetInRange(50, 50), 0u);   // empty range
  // Rows past the capacity were never deleted: the range clamps.
  EXPECT_EQ(bm.CountSetInRange(128, 10000), 2u);
  EXPECT_EQ(bm.CountSetInRange(5000, 10000), 0u);
}

TEST(DiskModelTest, CostConstants) {
  DiskModel m;
  DiskStats s;
  s.seeks = 2;
  s.seq_pages = 100;
  s.pages_written = 1;
  EXPECT_DOUBLE_EQ(m.CostMs(s), 2 * 5.5 + 100 * 0.078 + 1 * 5.5);
}

TEST(ExtractRunsTest, MergesContiguous) {
  auto runs = ExtractRuns({5, 1, 2, 3, 9, 10});
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], (PageRun{1, 3}));
  EXPECT_EQ(runs[1], (PageRun{5, 1}));
  EXPECT_EQ(runs[2], (PageRun{9, 2}));
}

TEST(ExtractRunsTest, DeduplicatesPages) {
  auto runs = ExtractRuns({4, 4, 4, 5});
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], (PageRun{4, 2}));
}

TEST(ExtractRunsTest, GapToleranceReadsThroughHoles) {
  auto runs = ExtractRuns({1, 3, 10}, /*gap_tolerance=*/1);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], (PageRun{1, 3}));  // hole at 2 read through
  EXPECT_EQ(runs[1], (PageRun{10, 1}));
}

TEST(ExtractRunsTest, EmptyInput) {
  EXPECT_TRUE(ExtractRuns({}).empty());
}

TEST(CostOfRunsTest, OneSeekPerRun) {
  std::vector<PageRun> runs = {{0, 10}, {100, 5}};
  DiskStats s = CostOfRuns(runs);
  EXPECT_EQ(s.seeks, 2u);
  EXPECT_EQ(s.seq_pages, 15u);
}

TEST(AccessTraceTest, RunsAndRender) {
  AccessTrace t;
  t.Touch(0);
  t.Touch(1);
  t.Touch(50);
  EXPECT_EQ(t.NumRuns(), 2u);
  EXPECT_EQ(t.NumDistinctPages(), 3u);
  const std::string strip = t.Render(100, 10);
  EXPECT_EQ(strip.size(), 10u);
  EXPECT_EQ(strip[0], '#');
  EXPECT_EQ(strip[5], '#');
  EXPECT_EQ(strip[9], '.');
}

TEST(BufferPoolTest, HitsAndMisses) {
  BufferPool pool(2);
  pool.Access({0, 1}, false);
  pool.Access({0, 1}, false);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(BufferPoolTest, LruEviction) {
  BufferPool pool(2);
  pool.Access({0, 1}, false);
  pool.Access({0, 2}, false);
  pool.Access({0, 1}, false);  // 1 becomes MRU
  pool.Access({0, 3}, false);  // evicts 2 (LRU)
  EXPECT_TRUE(pool.IsCached({0, 1}));
  EXPECT_FALSE(pool.IsCached({0, 2}));
  EXPECT_TRUE(pool.IsCached({0, 3}));
  EXPECT_EQ(pool.stats().evictions, 1u);
}

TEST(BufferPoolTest, DirtyEvictionChargesWrite) {
  BufferPool pool(1);
  pool.Access({0, 1}, /*mark_dirty=*/true);
  pool.Access({0, 2}, false);  // evicts dirty page 1
  DiskStats io = pool.DrainIo();
  EXPECT_EQ(io.pages_written, 1u);
  EXPECT_EQ(io.seeks, 2u);  // two read faults
  EXPECT_EQ(pool.stats().dirty_evictions, 1u);
}

TEST(BufferPoolTest, FlushAllWritesDirtyOnly) {
  BufferPool pool(4);
  pool.Access({0, 1}, true);
  pool.Access({0, 2}, false);
  pool.DrainIo();
  pool.FlushAll();
  DiskStats io = pool.DrainIo();
  EXPECT_EQ(io.pages_written, 1u);
  EXPECT_EQ(pool.num_dirty(), 0u);
}

TEST(BufferPoolTest, FileIdsDistinguishPages) {
  BufferPool pool(4);
  const uint32_t f1 = pool.RegisterFile();
  const uint32_t f2 = pool.RegisterFile();
  EXPECT_NE(f1, f2);
  pool.Access({f1, 7}, false);
  EXPECT_FALSE(pool.IsCached({f2, 7}));
}

TEST(BufferPoolTest, TouchAdmitsWithoutSeekAndReportsHit) {
  BufferPool pool(4);
  const uint32_t f = pool.RegisterFile();
  EXPECT_FALSE(pool.Touch({f, 3}));  // cold miss, admitted
  EXPECT_TRUE(pool.Touch({f, 3}));   // now resident
  // A Touch miss never charges the random-read seek (the caller already
  // accounted the page as part of a sequential sweep).
  EXPECT_EQ(pool.DrainIo().seeks, 0u);
}

TEST(BufferPoolTest, ResidencyTracksDecayedHitRateAndResidentPages) {
  BufferPool pool(8);
  const uint32_t heap = pool.RegisterFile();
  const uint32_t idx = pool.RegisterFile();

  // Never-touched file: no signal.
  const FileResidency none = pool.ResidencyOf(heap, 100);
  EXPECT_DOUBLE_EQ(none.hit_rate, 0.0);
  EXPECT_EQ(none.resident_pages, 0u);

  // Four distinct pages: all misses.
  for (PageNo p = 0; p < 4; ++p) pool.Touch({heap, p});
  FileResidency r = pool.ResidencyOf(heap, 16);
  EXPECT_DOUBLE_EQ(r.hit_rate, 0.0);
  EXPECT_EQ(r.resident_pages, 4u);
  EXPECT_DOUBLE_EQ(r.resident_fraction, 4.0 / 16.0);

  // Re-touch the same pages repeatedly: the decayed hit rate climbs
  // toward 1 while the other file's counters stay untouched.
  for (int round = 0; round < 16; ++round) {
    for (PageNo p = 0; p < 4; ++p) pool.Touch({heap, p});
  }
  r = pool.ResidencyOf(heap, 16);
  EXPECT_GT(r.hit_rate, 0.8);
  EXPECT_LE(r.hit_rate, 1.0);
  EXPECT_DOUBLE_EQ(pool.ResidencyOf(idx, 16).hit_rate, 0.0);

  // Evictions decrement the victim file's resident count.
  for (PageNo p = 100; p < 108; ++p) pool.Touch({idx, p});
  EXPECT_EQ(pool.ResidencyOf(heap, 16).resident_pages, 0u);
  EXPECT_EQ(pool.ResidencyOf(idx, 16).resident_pages, 8u);

  // Clear resets residency history entirely (cold trial semantics).
  pool.Clear();
  const FileResidency cleared = pool.ResidencyOf(idx, 16);
  EXPECT_EQ(cleared.resident_pages, 0u);
  EXPECT_DOUBLE_EQ(cleared.hit_rate, 0.0);
  EXPECT_DOUBLE_EQ(cleared.observed_touches, 0.0);
}

TEST(BufferPoolTest, ClearResetsDecayedTouchHistoryNotJustFrames) {
  // Regression: Clear() used to drop the frames but keep the decayed
  // NoteTouch counters, so the first post-Clear residency read reported
  // the previous trial's hot hit rate. A cleared pool must look cold AND
  // its next touches must start a fresh history, not blend into the old.
  BufferPool pool(8);
  const uint32_t f = pool.RegisterFile();
  for (int round = 0; round < 32; ++round) {
    for (PageNo p = 0; p < 4; ++p) pool.Touch({f, p});
  }
  ASSERT_GT(pool.ResidencyOf(f, 4).hit_rate, 0.9);

  pool.Clear();
  EXPECT_EQ(pool.num_cached(), 0u);
  EXPECT_DOUBLE_EQ(pool.ResidencyOf(f, 4).hit_rate, 0.0);
  EXPECT_DOUBLE_EQ(pool.ResidencyOf(f, 4).observed_touches, 0.0);

  // One cold sweep after Clear: every touch is a miss. With the stale
  // history blended in this would still read > 0.9.
  for (PageNo p = 0; p < 4; ++p) pool.Touch({f, p});
  const FileResidency fresh = pool.ResidencyOf(f, 4);
  EXPECT_DOUBLE_EQ(fresh.hit_rate, 0.0);
  EXPECT_EQ(fresh.resident_pages, 4u);
  EXPECT_NEAR(fresh.observed_touches, 4.0, 0.1);
}

TEST(BufferPoolTest, StripedPoolKeepsHitMissAndEvictionAccounting) {
  // A multi-striped pool partitions capacity by page hash; correctness of
  // hit/miss/residency accounting must not depend on the stripe count.
  BufferPool pool(64, /*num_stripes=*/4);
  EXPECT_EQ(pool.num_stripes(), 4u);
  const uint32_t f = pool.RegisterFile();

  for (PageNo p = 0; p < 16; ++p) pool.Access({f, p}, false);
  for (PageNo p = 0; p < 16; ++p) pool.Access({f, p}, false);
  EXPECT_EQ(pool.stats().misses, 16u);
  EXPECT_EQ(pool.stats().hits, 16u);
  EXPECT_EQ(pool.num_cached(), 16u);
  for (PageNo p = 0; p < 16; ++p) EXPECT_TRUE(pool.IsCached({f, p}));

  // Overflow well past capacity: evictions happen per stripe, but the
  // total never exceeds the pool-wide capacity.
  for (PageNo p = 16; p < 512; ++p) pool.Access({f, p}, false);
  EXPECT_LE(pool.num_cached(), pool.capacity_pages());
  EXPECT_GT(pool.stats().evictions, 0u);
  EXPECT_EQ(pool.stats().hits + pool.stats().misses, 528u);
}

TEST(BufferPoolTest, StripeCountClampedSoEveryStripeHoldsAPage) {
  // More stripes than pages would starve some stripes entirely; the pool
  // clamps instead.
  BufferPool pool(2, /*num_stripes=*/16);
  EXPECT_LE(pool.num_stripes(), 2u);
  pool.Access({0, 1}, false);
  pool.Access({0, 2}, false);
  EXPECT_EQ(pool.num_cached(), 2u);
}

TEST(BufferPoolTest, ExtentResidencyIsTrackedIndependently) {
  // Pages land in fixed 64-page extents; a hot extent must not lift the
  // reported residency of a cold extent of the same file (this is what
  // lets the cost model price a hot clustered range near-CPU while the
  // cold remainder of the heap prices at device cost).
  BufferPool pool(256);
  const uint32_t f = pool.RegisterFile();
  ASSERT_EQ(BufferPool::kExtentPages, 64u);
  EXPECT_EQ(BufferPool::ExtentOfPage(0), 0u);
  EXPECT_EQ(BufferPool::ExtentOfPage(63), 0u);
  EXPECT_EQ(BufferPool::ExtentOfPage(64), 1u);
  EXPECT_EQ(BufferPool::NumExtents(0), 0u);
  EXPECT_EQ(BufferPool::NumExtents(1), 1u);
  EXPECT_EQ(BufferPool::NumExtents(64), 1u);
  EXPECT_EQ(BufferPool::NumExtents(65), 2u);

  // Hammer extent 0, touch extent 1 once (all misses).
  for (int round = 0; round < 16; ++round) {
    for (PageNo p = 0; p < 8; ++p) pool.Touch({f, p});
  }
  for (PageNo p = 64; p < 72; ++p) pool.Touch({f, p});

  const FileResidency hot = pool.ResidencyOfExtent(f, 0);
  const FileResidency cold = pool.ResidencyOfExtent(f, 1);
  EXPECT_GT(hot.hit_rate, 0.8);
  EXPECT_EQ(hot.resident_pages, 8u);
  EXPECT_DOUBLE_EQ(cold.hit_rate, 0.0);
  EXPECT_EQ(cold.resident_pages, 8u);
  // Untouched extent: no signal at all.
  EXPECT_DOUBLE_EQ(pool.ResidencyOfExtent(f, 2).observed_touches, 0.0);

  // The whole-file view aggregates both extents.
  const FileResidency whole = pool.ResidencyOf(f, 128);
  EXPECT_EQ(whole.resident_pages, 16u);
  EXPECT_GT(whole.hit_rate, cold.hit_rate);
  EXPECT_LT(whole.hit_rate, hot.hit_rate);

  // Clear resets the extent counters too.
  pool.Clear();
  EXPECT_EQ(pool.ResidencyOfExtent(f, 0).resident_pages, 0u);
  EXPECT_DOUBLE_EQ(pool.ResidencyOfExtent(f, 0).observed_touches, 0.0);
}

TEST(BufferPoolTest, StatsSnapshotStaysCoherentUnderConcurrentTraffic) {
  // The StatsSnapshot relaxed-consistency contract: each stripe is read
  // under a single lock hold, so within one snapshot
  // 0 <= num_dirty <= num_cached <= capacity_pages always holds and every
  // counter is monotone across successive snapshots -- unlike separate
  // stats()/num_cached()/num_dirty() calls, which can interleave with an
  // eviction and yield negative derived gauges.
  BufferPool pool(64, /*num_stripes=*/4);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (size_t t = 0; t < 4; ++t) {
    writers.emplace_back([&pool, &stop, t] {
      // Keyspace (1024 pages over 2 files) far exceeds capacity, so the
      // pool churns: evictions, dirty write-backs, hits and misses all
      // race the snapshot reader below.
      uint64_t x = 0x9E3779B97F4A7C15ull * (t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        pool.Access({uint32_t(t % 2), PageNo(x % 512)}, (x & 3) == 0);
      }
    });
  }
  // Take at least 2000 snapshots, and keep taking them until the writers
  // have churned the pool into evicting: the loop alone can finish before
  // the writer threads are even scheduled. The deadline turns writers
  // that never evict into a failure instead of a hang.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  BufferPoolSnapshot prev;
  for (int i = 0; i < 2000 || prev.stats.evictions == 0; ++i) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "writers caused no eviction";
    const BufferPoolSnapshot snap = pool.StatsSnapshot();
    ASSERT_LE(snap.num_dirty, snap.num_cached);
    ASSERT_LE(snap.num_cached, snap.capacity_pages);
    ASSERT_GE(snap.stats.hits, prev.stats.hits);
    ASSERT_GE(snap.stats.misses, prev.stats.misses);
    ASSERT_GE(snap.stats.evictions, prev.stats.evictions);
    ASSERT_GE(snap.stats.dirty_evictions, prev.stats.dirty_evictions);
    ASSERT_LE(snap.stats.dirty_evictions, snap.stats.evictions);
    prev = snap;
  }
  stop.store(true);
  for (auto& th : writers) th.join();
  // At quiescence the snapshot agrees exactly with the itemized accessors.
  const BufferPoolSnapshot snap = pool.StatsSnapshot();
  EXPECT_EQ(snap.num_cached, pool.num_cached());
  EXPECT_EQ(snap.num_dirty, pool.num_dirty());
  EXPECT_EQ(snap.capacity_pages, pool.capacity_pages());
  EXPECT_EQ(snap.stats.hits, pool.stats().hits);
  EXPECT_EQ(snap.stats.misses, pool.stats().misses);
  EXPECT_EQ(snap.stats.evictions, pool.stats().evictions);
  EXPECT_GT(snap.stats.evictions, 0u);
}

TEST(TableTest, ConcurrentTombstoneReadsDuringDeletes) {
  // The serving-visible tombstone view is an atomic bitmap: readers may
  // call IsDeleted while another thread tombstones rows (the vector<bool>
  // representation raced here). TSAN vets the memory model; this test
  // also checks the counts are exact.
  Schema schema({ColumnDef::Int64("x")});
  Table t("t", std::move(schema));
  constexpr int kRows = 20000;
  for (int i = 0; i < kRows; ++i) {
    std::array<Value, 1> row = {Value(int64_t(i))};
    ASSERT_TRUE(t.AppendRow(row).ok());
  }
  t.Reserve(kRows);  // pre-sizes the bitmap: no growth during the race

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> live_seen{0};
  std::thread reader([&] {
    uint64_t last = kRows;
    while (!stop.load(std::memory_order_acquire)) {
      uint64_t live = 0;
      for (RowId r = 0; r < kRows; ++r) {
        if (!t.IsDeleted(r)) ++live;
      }
      // Deletes only ever decrease the live count.
      EXPECT_LE(live, last);
      last = live;
      live_seen.store(live, std::memory_order_release);
    }
  });
  for (RowId r = 0; r < kRows; r += 2) {
    ASSERT_TRUE(t.DeleteRow(r).ok());
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(t.NumLiveRows(), size_t(kRows) / 2);
  for (RowId r = 0; r < kRows; ++r) {
    EXPECT_EQ(t.IsDeleted(r), r % 2 == 0);
  }
  EXPECT_FALSE(t.DeleteRow(0).ok());  // double delete still detected
}

TEST(WalTest, AppendBuffersUntilFlush) {
  WriteAheadLog wal;
  wal.Append({WalRecordType::kCmInsert, 1, "payload"});
  EXPECT_EQ(wal.pending_records(), 1u);
  EXPECT_EQ(wal.durable_records().size(), 0u);
  wal.Flush();
  EXPECT_EQ(wal.pending_records(), 0u);
  EXPECT_EQ(wal.durable_records().size(), 1u);
  EXPECT_EQ(wal.num_flushes(), 1u);
}

TEST(WalTest, FlushChargesSeekPlusSequentialPages) {
  WriteAheadLog wal(8192);
  // ~100 KB of records -> 13 pages.
  for (int i = 0; i < 1000; ++i) {
    wal.Append({WalRecordType::kCmInsert, 1, std::string(76, 'x')});
  }
  wal.Flush();
  DiskStats io = wal.DrainIo();
  EXPECT_EQ(io.seeks, 1u);
  EXPECT_EQ(io.seq_pages, (1000 * (76 + 24) + 8191) / 8192);
}

TEST(WalTest, CrashDropsPendingOnly) {
  WriteAheadLog wal;
  wal.Append({WalRecordType::kCmInsert, 1, "a"});
  wal.Flush();
  wal.Append({WalRecordType::kCmInsert, 2, "b"});
  wal.Crash();
  EXPECT_EQ(wal.durable_records().size(), 1u);
  EXPECT_EQ(wal.pending_records(), 0u);
}

TEST(WalTest, TwoPhaseCommitFlushesMarkers) {
  WriteAheadLog wal;
  wal.Prepare(42);
  wal.Commit(42);
  ASSERT_EQ(wal.durable_records().size(), 2u);
  EXPECT_EQ(wal.durable_records()[0].type, WalRecordType::kPrepare);
  EXPECT_EQ(wal.durable_records()[1].type, WalRecordType::kCommit);
  EXPECT_EQ(wal.num_flushes(), 2u);
}

}  // namespace
}  // namespace corrmap

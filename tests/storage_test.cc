// Unit tests for storage/: page layout, schema, columnar table, disk model,
// buffer pool, WAL.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <list>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
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

  std::vector<FileResidency> extents;
  const FileResidency whole192 = pool.ResidencyOfWithExtents(f, 192, &extents);
  ASSERT_EQ(extents.size(), 3u);
  const FileResidency hot = extents[0];
  const FileResidency cold = extents[1];
  EXPECT_GT(hot.hit_rate, 0.8);
  EXPECT_EQ(hot.resident_pages, 8u);
  EXPECT_DOUBLE_EQ(hot.resident_fraction, 8.0 / 64.0);
  EXPECT_DOUBLE_EQ(cold.hit_rate, 0.0);
  EXPECT_EQ(cold.resident_pages, 8u);
  // Untouched extent: no signal at all.
  EXPECT_DOUBLE_EQ(extents[2].observed_touches, 0.0);
  EXPECT_EQ(extents[2].resident_pages, 0u);

  // The whole-file view aggregates both extents.
  const FileResidency whole = pool.ResidencyOf(f, 128);
  EXPECT_EQ(whole.resident_pages, 16u);
  EXPECT_GT(whole.hit_rate, cold.hit_rate);
  EXPECT_LT(whole.hit_rate, hot.hit_rate);
  EXPECT_EQ(whole192.hit_rate, whole.hit_rate);
  EXPECT_EQ(whole192.resident_pages, 16u);

  // Clear resets the extent counters too.
  pool.Clear();
  (void)pool.ResidencyOfWithExtents(f, 192, &extents);
  EXPECT_EQ(extents[0].resident_pages, 0u);
  EXPECT_DOUBLE_EQ(extents[0].observed_touches, 0.0);
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

/// Reference LRU pool for the differential test: the node-based
/// std::list + std::unordered_map stripe logic that BufferPool's flat
/// frame arrays replaced, with the same striping, capacity split, extent
/// counters and charging. Its extent maps see the same insert/erase
/// sequence as the pool's, so residency sums come out in the same order
/// and compare with exact ==.
class ReferencePool {
 public:
  ReferencePool(size_t capacity_pages, size_t num_stripes)
      : capacity_(capacity_pages == 0 ? 1 : capacity_pages) {
    num_stripes = std::clamp<size_t>(
        num_stripes, 1, std::min(BufferPool::kMaxStripes, capacity_));
    stripes_ = std::vector<Stripe>(num_stripes);
    for (size_t i = 0; i < num_stripes; ++i) {
      stripes_[i].capacity =
          capacity_ / num_stripes + (i < capacity_ % num_stripes ? 1 : 0);
    }
  }

  bool Touch(PageId page, bool mark_dirty) {
    Stripe& s = StripeOf(page);
    Counters& fc = s.counters[Key(page.file, Extent(page.page))];
    const double keep = 1.0 - 1.0 / BufferPool::kResidencyDecayWindow;
    auto it = s.frames.find(page);
    const bool hit = it != s.frames.end();
    fc.hits *= keep;
    fc.misses *= keep;
    (hit ? fc.hits : fc.misses) += 1.0;
    if (hit) {
      ++s.stats.hits;
      s.lru.erase(it->second.lru_it);
      s.lru.push_front(page);
      it->second.lru_it = s.lru.begin();
      if (mark_dirty && !it->second.dirty) {
        it->second.dirty = true;
        ++s.num_dirty;
      }
      return true;
    }
    ++s.stats.misses;
    if (s.frames.size() >= s.capacity) {
      const PageId victim = s.lru.back();
      s.lru.pop_back();
      auto v = s.frames.find(victim);
      ++s.stats.evictions;
      if (v->second.dirty) {
        ++s.stats.dirty_evictions;
        ++s.io.pages_written;
        --s.num_dirty;
      }
      s.frames.erase(v);
      auto vc = s.counters.find(Key(victim.file, Extent(victim.page)));
      if (vc != s.counters.end() && vc->second.resident > 0) {
        --vc->second.resident;
      }
    }
    s.lru.push_front(page);
    s.frames[page] = Frame{s.lru.begin(), mark_dirty};
    if (mark_dirty) ++s.num_dirty;
    ++fc.resident;
    return false;
  }

  void Access(PageId page, bool mark_dirty) {
    if (!Touch(page, mark_dirty)) ++StripeOf(page).io.seeks;
  }

  bool IsCached(PageId page) const {
    return StripeOf(page).frames.count(page) > 0;
  }

  void ForgetFile(uint32_t file) {
    for (Stripe& s : stripes_) {
      std::erase_if(s.counters, [file](const auto& kv) {
        return (kv.first >> 40) == file;
      });
    }
  }

  void FlushAll() {
    for (Stripe& s : stripes_) {
      for (auto& [page, frame] : s.frames) {
        if (frame.dirty) ++s.io.pages_written;
        frame.dirty = false;
      }
      s.num_dirty = 0;
    }
  }

  void Clear() {
    for (Stripe& s : stripes_) {
      s.frames.clear();
      s.lru.clear();
      s.counters.clear();
      s.num_dirty = 0;
    }
  }

  DiskStats DrainIo() {
    DiskStats out;
    for (Stripe& s : stripes_) {
      out += s.io;
      s.io = DiskStats{};
    }
    return out;
  }

  BufferPoolSnapshot Snapshot() const {
    BufferPoolSnapshot out;
    out.capacity_pages = capacity_;
    for (const Stripe& s : stripes_) {
      out.stats.hits += s.stats.hits;
      out.stats.misses += s.stats.misses;
      out.stats.evictions += s.stats.evictions;
      out.stats.dirty_evictions += s.stats.dirty_evictions;
      out.num_cached += s.frames.size();
      out.num_dirty += s.num_dirty;
    }
    return out;
  }

  FileResidency ResidencyOf(uint32_t file, uint64_t file_pages) const {
    double hits = 0, misses = 0;
    FileResidency out;
    for (const Stripe& s : stripes_) {
      for (const auto& [key, fc] : s.counters) {
        if ((key >> 40) != file) continue;
        hits += fc.hits;
        misses += fc.misses;
        out.resident_pages += fc.resident;
      }
    }
    return Finish(out, hits, misses, file_pages);
  }

  FileResidency ResidencyOfExtent(uint32_t file, uint64_t extent) const {
    double hits = 0, misses = 0;
    FileResidency out;
    for (const Stripe& s : stripes_) {
      auto it = s.counters.find(Key(file, extent));
      if (it == s.counters.end()) continue;
      hits += it->second.hits;
      misses += it->second.misses;
      out.resident_pages += it->second.resident;
    }
    return Finish(out, hits, misses, BufferPool::kExtentPages);
  }

 private:
  struct Frame {
    std::list<PageId>::iterator lru_it;
    bool dirty = false;
  };
  struct Counters {
    double hits = 0;
    double misses = 0;
    uint64_t resident = 0;
  };
  struct Stripe {
    std::list<PageId> lru;  // front = MRU
    std::unordered_map<PageId, Frame, PageIdHash> frames;
    std::unordered_map<uint64_t, Counters> counters;
    size_t capacity = 0;
    size_t num_dirty = 0;
    BufferPoolStats stats;
    DiskStats io;
  };

  static uint64_t Extent(PageNo p) { return p / BufferPool::kExtentPages; }
  static uint64_t Key(uint32_t file, uint64_t extent) {
    return (uint64_t(file) << 40) ^ extent;
  }
  static FileResidency Finish(FileResidency out, double hits, double misses,
                              uint64_t pages) {
    out.observed_touches = hits + misses;
    if (out.observed_touches > 0) out.hit_rate = hits / out.observed_touches;
    if (pages > 0) {
      out.resident_fraction =
          std::min(1.0, double(out.resident_pages) / double(pages));
    }
    return out;
  }
  Stripe& StripeOf(PageId page) {
    return stripes_[PageIdHash{}(page) % stripes_.size()];
  }
  const Stripe& StripeOf(PageId page) const {
    return stripes_[PageIdHash{}(page) % stripes_.size()];
  }

  size_t capacity_;
  std::vector<Stripe> stripes_;
};

void ExpectSameResidency(const FileResidency& a, const FileResidency& b) {
  // Exact ==: the pool promises bit-identical sums, not close ones.
  EXPECT_EQ(a.hit_rate, b.hit_rate);
  EXPECT_EQ(a.resident_fraction, b.resident_fraction);
  EXPECT_EQ(a.resident_pages, b.resident_pages);
  EXPECT_EQ(a.observed_touches, b.observed_touches);
}

/// Compares every observable of `pool` with `ref`: counters, the I/O
/// ledger (drained from `pool`; `ref_io` is what `ref` drained), residency
/// of each file (whole, and whole plus per extent from the one-sweep
/// view) and whether `probe` is cached.
void ExpectPoolMatches(BufferPool& pool, const ReferencePool& ref,
                       const DiskStats& ref_io, uint32_t num_files,
                       uint64_t file_pages, PageId probe) {
  const BufferPoolSnapshot got = pool.StatsSnapshot();
  const BufferPoolSnapshot want = ref.Snapshot();
  ASSERT_EQ(got.stats.hits, want.stats.hits);
  ASSERT_EQ(got.stats.misses, want.stats.misses);
  ASSERT_EQ(got.stats.evictions, want.stats.evictions);
  ASSERT_EQ(got.stats.dirty_evictions, want.stats.dirty_evictions);
  ASSERT_EQ(got.num_cached, want.num_cached);
  ASSERT_EQ(got.num_dirty, want.num_dirty);
  ASSERT_EQ(pool.num_cached(), want.num_cached);
  ASSERT_EQ(pool.num_dirty(), want.num_dirty);
  ASSERT_EQ(pool.DrainIo(), ref_io);
  ASSERT_EQ(pool.IsCached(probe), ref.IsCached(probe));
  std::vector<FileResidency> extents;
  for (uint32_t f = 0; f < num_files; ++f) {
    ExpectSameResidency(pool.ResidencyOf(f, file_pages),
                        ref.ResidencyOf(f, file_pages));
    const FileResidency whole =
        pool.ResidencyOfWithExtents(f, file_pages, &extents);
    ExpectSameResidency(whole, ref.ResidencyOf(f, file_pages));
    ASSERT_EQ(extents.size(), BufferPool::NumExtents(file_pages));
    for (uint64_t e = 0; e < extents.size(); ++e) {
      ExpectSameResidency(extents[e], ref.ResidencyOfExtent(f, e));
    }
  }
}

TEST(BufferPoolTest, MatchesReferenceLruUnderRandomOperations) {
  // Differential test: seeded random mixes of every pool operation, on
  // pools of several stripe counts and capacities, must leave the pool in
  // exactly the reference's state after every step. `pool` prices runs
  // with TouchRun and `twin` with one Touch per page, so the test also
  // pins TouchRun to the page-by-page sequence.
  constexpr uint32_t kFiles = 3;
  for (const size_t stripes : {1, 3, 8, 16}) {
    for (const size_t capacity : {1, 7, 512}) {
      std::string config = std::to_string(stripes);
      config += " stripes, capacity ";
      config += std::to_string(capacity);
      SCOPED_TRACE(config);
      BufferPool pool(capacity, stripes);
      BufferPool twin(capacity, stripes);
      ReferencePool ref(capacity, stripes);
      // Pages span several extents past the capacity, with a hot prefix
      // so small pools still hit.
      const uint64_t file_pages = 4 * capacity + 320;
      const uint64_t hot = std::max<uint64_t>(capacity, 8);
      Rng rng(1000 * stripes + capacity);
      auto random_page = [&] {
        const uint32_t file = uint32_t(rng.UniformInt(0, kFiles - 1));
        const uint64_t span = rng.Bernoulli(0.5) ? hot : file_pages;
        return PageId{file, PageNo(rng.UniformInt(0, int64_t(span) - 1))};
      };
      std::vector<uint8_t> hits(file_pages);
      for (int step = 0; step < 600; ++step) {
        const int op = int(rng.UniformInt(0, 99));
        if (op < 25) {
          const PageId p = random_page();
          const bool dirty = rng.Bernoulli(0.3);
          pool.Access(p, dirty);
          twin.Access(p, dirty);
          ref.Access(p, dirty);
        } else if (op < 45) {
          const PageId p = random_page();
          const bool want = ref.Touch(p, false);
          ASSERT_EQ(pool.Touch(p), want);
          ASSERT_EQ(twin.Touch(p), want);
        } else if (op < 85) {
          const PageId start = random_page();
          const int shape = int(rng.UniformInt(0, 3));
          uint64_t length = uint64_t(shape);  // 0 or 1 pages
          if (shape == 2) length = uint64_t(rng.UniformInt(2, 64));
          if (shape == 3) {
            length = uint64_t(rng.UniformInt(
                200, int64_t(BufferPool::kTouchRunWindow)));
          }
          pool.TouchRun(start.file, start.page, length, hits.data());
          for (uint64_t i = 0; i < length; ++i) {
            const PageId p{start.file, start.page + i};
            const bool want = ref.Touch(p, false);
            ASSERT_EQ(twin.Touch(p), want) << "page " << p.page;
            ASSERT_EQ(hits[i], uint8_t(want)) << "page " << p.page;
          }
        } else if (op < 90) {
          const PageId p = random_page();
          ASSERT_EQ(pool.IsCached(p), ref.IsCached(p));
        } else if (op < 94) {
          const uint32_t f = uint32_t(rng.UniformInt(0, kFiles - 1));
          pool.ForgetFile(f);
          twin.ForgetFile(f);
          ref.ForgetFile(f);
        } else if (op < 98) {
          pool.FlushAll();
          twin.FlushAll();
          ref.FlushAll();
        } else {
          pool.Clear();
          twin.Clear();
          ref.Clear();
        }
        const PageId probe = random_page();
        const DiskStats ref_io = ref.DrainIo();
        ExpectPoolMatches(pool, ref, ref_io, kFiles, file_pages, probe);
        ExpectPoolMatches(twin, ref, ref_io, kFiles, file_pages, probe);
        if (HasFatalFailure() || HasNonfatalFailure()) return;
      }
      // The mix reached every path: hits, clean and dirty evictions.
      const BufferPoolSnapshot end = ref.Snapshot();
      EXPECT_GT(end.stats.hits, 0u);
      EXPECT_GT(end.stats.evictions, end.stats.dirty_evictions);
      EXPECT_GT(end.stats.dirty_evictions, 0u);
    }
  }
}

TEST(BufferPoolTest, ResidencyOfWithExtentsWholeFileEqualsResidencyOfExactly) {
  // The calibration refresh reads whole-file and per-extent residency in
  // one sweep; its whole-file part must be the very doubles ResidencyOf
  // gives (the per-extent part is checked against the reference pool in
  // MatchesReferenceLruUnderRandomOperations).
  BufferPool pool(96, /*num_stripes=*/8);
  const uint32_t f = pool.RegisterFile();
  const uint32_t other = pool.RegisterFile();
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const int64_t span = rng.Bernoulli(0.6) ? 40 : 700;
    const PageNo p = PageNo(rng.UniformInt(0, span));
    pool.Touch({rng.Bernoulli(0.8) ? f : other, p});
  }
  std::vector<FileResidency> extents;
  for (const uint64_t file_pages : {0, 100, 640, 2000}) {
    const FileResidency whole =
        pool.ResidencyOfWithExtents(f, file_pages, &extents);
    ExpectSameResidency(whole, pool.ResidencyOf(f, file_pages));
    ASSERT_EQ(extents.size(), BufferPool::NumExtents(file_pages));
  }
  EXPECT_GT(pool.ResidencyOf(f, 0).observed_touches, 0.0);
}

TEST(BufferPoolTest, TouchRunStaysCoherentUnderConcurrentTraffic) {
  // Long TouchRun sweeps race single-page touches, ForgetFile and
  // snapshots. Each snapshot must satisfy the StatsSnapshot contract and
  // every touch must be counted exactly once.
  BufferPool pool(256, /*num_stripes=*/8);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> touches{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 2; ++t) {
    threads.emplace_back([&pool, &stop, &touches, t] {
      Rng rng(100 + t);
      std::vector<uint8_t> hit(BufferPool::kTouchRunWindow);
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t length = uint64_t(
            rng.UniformInt(0, int64_t(BufferPool::kTouchRunWindow)));
        pool.TouchRun(t, PageNo(rng.UniformInt(0, 1500)), length, hit.data());
        touches.fetch_add(length, std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&pool, &stop, &touches] {
    Rng rng(200);
    while (!stop.load(std::memory_order_relaxed)) {
      const PageId p{uint32_t(rng.UniformInt(0, 2)),
                     PageNo(rng.UniformInt(0, 1800))};
      if (rng.Bernoulli(0.5)) {
        pool.Touch(p);
      } else {
        pool.Access(p, rng.Bernoulli(0.5));
      }
      touches.fetch_add(1, std::memory_order_relaxed);
    }
  });
  threads.emplace_back([&pool, &stop] {
    Rng rng(300);
    std::vector<FileResidency> extents;
    while (!stop.load(std::memory_order_relaxed)) {
      pool.ForgetFile(uint32_t(rng.UniformInt(0, 2)));
      pool.ResidencyOfWithExtents(uint32_t(rng.UniformInt(0, 2)), 1800,
                                  &extents);
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  BufferPoolSnapshot prev;
  for (int i = 0; i < 2000 || prev.stats.dirty_evictions == 0; ++i) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "writers caused no dirty eviction";
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
  for (auto& th : threads) th.join();
  const BufferPoolSnapshot snap = pool.StatsSnapshot();
  EXPECT_EQ(snap.stats.hits + snap.stats.misses, touches.load());
  EXPECT_EQ(snap.num_cached, pool.capacity_pages());
  EXPECT_EQ(snap.num_dirty, pool.num_dirty());
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

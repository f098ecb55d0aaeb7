// LRU buffer pool with dirty-page tracking. This is the mechanism behind the
// paper's Experiment 3: many secondary B+Trees dirty more pages than fit in
// RAM, so batched inserts force eviction write-backs; CMs stay resident.
//
// The pool is internally thread-safe via lock striping: pages hash to one of
// `num_stripes` independent LRU partitions, each with its own mutex and its
// own share of the capacity. A single-striped pool (the default) behaves
// exactly like the classic global-LRU pool; the serving layer constructs a
// multi-striped pool so concurrent readers charging their sweeps no longer
// funnel through one lock.
//
// Each stripe's frames live in a fixed array sized at construction, linked
// into an LRU list by 32-bit indices and found through an open-addressing
// page->frame index, so hits, misses and evictions never allocate once the
// pool is built. (The first touch of a new (file, extent) still creates
// that extent's residency counter.)
#ifndef CORRMAP_STORAGE_BUFFER_POOL_H_
#define CORRMAP_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/disk_model.h"
#include "storage/page.h"

namespace corrmap {

/// Cache hit/miss and eviction counters.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_evictions = 0;

  std::string ToString() const;
};

/// Point-in-time view of the pool's counters and residency, produced by
/// BufferPool::StatsSnapshot() for metric exporters. See that method for
/// the relaxed-consistency contract.
struct BufferPoolSnapshot {
  BufferPoolStats stats;
  size_t num_cached = 0;
  size_t num_dirty = 0;
  size_t capacity_pages = 0;
};

/// Live residency snapshot for one file (table heap or index) or one extent
/// of it, the input serving plan costing is calibrated by
/// (PlanContext::heap_residency / cidx_residency). `hit_rate` is an
/// exponentially decayed fraction of the touches that hit the pool --
/// decayed so a workload shift (a range going cold, a recluster retiring a
/// file) fades out of the estimate within ~kResidencyDecayWindow touches
/// instead of being averaged against the whole history. `resident_fraction`
/// is the exact fraction of the file's pages currently cached (needs the
/// caller to say how many pages the file has).
struct FileResidency {
  double hit_rate = 0;
  double resident_fraction = 0;
  uint64_t resident_pages = 0;
  /// Decayed touches backing hit_rate; calibration layers can treat a
  /// tiny sample as "no signal yet" instead of trusting 1-touch rates.
  double observed_touches = 0;
};

/// Fixed-capacity LRU page cache. Page reads on miss and dirty-page
/// write-backs are charged to an internal DiskStats ledger that callers
/// drain into their operation cost.
class BufferPool {
 public:
  /// `num_stripes` > 1 partitions the capacity into independent LRU
  /// stripes keyed by page hash (set-associative flavor); 1 keeps the
  /// classic single global LRU. Clamped so every stripe holds >= 1 page,
  /// and to kMaxStripes.
  explicit BufferPool(size_t capacity_pages, size_t num_stripes = 1);

  /// Upper bound on the stripe count: TouchRun tracks the stripes a run
  /// hits in one 64-bit mask.
  static constexpr size_t kMaxStripes = 64;

  size_t capacity_pages() const { return capacity_pages_; }
  size_t num_stripes() const { return stripes_.size(); }
  size_t num_cached() const;
  size_t num_dirty() const;

  /// Issues a fresh file id for a table or index backed by this pool.
  uint32_t RegisterFile() {
    return next_file_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Touches a page: hit moves it to MRU; miss charges one random read and
  /// may evict the LRU page (charging a write if dirty). `mark_dirty`
  /// records an in-place modification.
  void Access(PageId page, bool mark_dirty);

  /// Serving-sweep primitive: touches `page` (hit moves to MRU, miss
  /// admits without charging a seek -- the caller prices the I/O itself
  /// from the returned hit/miss) and returns whether it was already
  /// resident. Feeds the per-extent decayed counters like every other
  /// touch. Thread-safe: only this page's stripe is locked.
  bool Touch(PageId page);

  /// Touches pages [first, first + length) of `file` exactly as `length`
  /// successive Touch calls would, and sets hit[i] to 1 if page first + i
  /// was resident, else 0. Each stripe the run hits is locked once and
  /// sees its own pages in ascending order -- the same per-stripe touch
  /// sequence as the page-by-page loop, and stripes share no state, so
  /// hits, misses, evictions and the decayed extent counters come out
  /// bit-identical. `length` <= kTouchRunWindow (callers split longer
  /// runs); `hit` must hold `length` bytes.
  void TouchRun(uint32_t file, PageNo first, uint64_t length, uint8_t* hit);

  /// Most pages one TouchRun call takes (a multiple of 64).
  static constexpr uint64_t kTouchRunWindow = 256;

  bool IsCached(PageId page) const;

  /// Decay window (in touches of one extent) for the hit-rate estimate
  /// exported through ResidencyOf / ResidencyOfWithExtents.
  static constexpr double kResidencyDecayWindow = 512;

  /// Residency is tracked per fixed-size extent of kExtentPages pages
  /// (512 KiB at the default 8 KiB page) so a hot range of a file can
  /// price near-CPU while a cold range of the same file prices at device
  /// cost.
  static constexpr uint64_t kExtentPages = 64;

  static uint64_t ExtentOfPage(PageNo page) { return page / kExtentPages; }
  static uint64_t NumExtents(uint64_t file_pages) {
    return (file_pages + kExtentPages - 1) / kExtentPages;
  }

  /// Whole-file residency snapshot for `file`, aggregated over its
  /// extents. `file_pages` is the file's current page count
  /// (resident_fraction needs it; pass 0 to skip it).
  FileResidency ResidencyOf(uint32_t file, uint64_t file_pages = 0) const;

  /// Returns ResidencyOf(file, file_pages) and sets (*out)[e] to the
  /// extent-granular residency of extent e (pages [e*kExtentPages, ...))
  /// of `file` alone, for every e < NumExtents(file_pages): its decayed
  /// hit rate, and its resident pages (resident_fraction over
  /// kExtentPages). All of it is read in one sweep that locks each stripe
  /// once; the whole-file sums accumulate in ResidencyOf's order, so they
  /// are bit-identical to its result when no other thread touches the
  /// pool in between.
  FileResidency ResidencyOfWithExtents(uint32_t file, uint64_t file_pages,
                                       std::vector<FileResidency>* out) const;

  /// Drops `file`'s per-extent residency counters once the file is
  /// retired (the serving engine calls it as an epoch's state dies). Its
  /// frames stay and age out through the LRU; evicting one finds no
  /// counter and recreates none. Hit, miss and eviction counts are
  /// untouched.
  void ForgetFile(uint32_t file);

  /// (file, extent) residency counters currently held, summed over the
  /// stripes: bounded by the live files' extents once retired files are
  /// forgotten.
  size_t NumExtentCounters() const;

  /// Writes back all dirty pages (checkpoint), charging one write each.
  void FlushAll();

  /// Drops every frame without writing (used to model a cold cache between
  /// experiment trials, like the paper's drop_caches). Also resets the
  /// decayed per-extent touch history so the next trial's residency
  /// calibration starts genuinely cold.
  void Clear();

  /// Aggregated counters across stripes (by value: the per-stripe ledgers
  /// are summed under their locks).
  BufferPoolStats stats() const;

  /// All exported pool series in one pass over the stripes, each stripe's
  /// whole contribution (stats + cached + dirty) read under a single lock
  /// hold. Relaxed-consistency contract: there is no global consistent
  /// point -- stripes are sampled one after another while other threads
  /// keep mutating -- but every snapshot still satisfies
  ///   0 <= num_dirty <= num_cached <= capacity_pages,
  /// and hits/misses/evictions/dirty_evictions are monotonically
  /// non-decreasing across successive snapshots (each stripe's ledger only
  /// grows, and each is read atomically under its lock). Calling stats(),
  /// num_cached() and num_dirty() separately gives no such guarantee: an
  /// eviction between the calls can make derived gauges (e.g.
  /// cached - dirty) go negative, which is exactly what exporters must
  /// avoid.
  BufferPoolSnapshot StatsSnapshot() const;

  /// Returns and resets the accumulated I/O charges.
  DiskStats DrainIo();

 private:
  static constexpr uint32_t kNoFrame = UINT32_MAX;

  /// One page slot. prev/next link the stripe's LRU list by frame index
  /// (prev toward MRU, next toward LRU).
  struct Frame {
    PageId page;
    uint32_t prev = kNoFrame;
    uint32_t next = kNoFrame;
    bool dirty = false;
  };

  /// Exponentially decayed per-extent touch counters plus an exact
  /// resident page count, maintained by every Access/Touch and by
  /// evictions. Keyed by (file, extent); an extent's pages may hash to
  /// several stripes, so readers aggregate across stripes.
  struct ExtentCounters {
    double decayed_hits = 0;
    double decayed_misses = 0;
    uint64_t resident_pages = 0;
  };

  /// One LRU partition: its own lock, frames, counters and ledgers. The
  /// frame array is sized to the stripe's capacity at construction; frames
  /// [0, used) hold pages. `index` maps a page to its frame by linear
  /// probing from the top bits of the page hash (the low bits pick the
  /// stripe); it holds at least twice as many slots as frames and deletes
  /// by backward shift, so it never needs tombstones or a rehash. All
  /// mutation happens under `mu`.
  struct Stripe {
    mutable std::mutex mu;
    std::vector<Frame> frames;
    std::vector<uint32_t> index;  // frame number, or kNoFrame when empty
    unsigned index_shift = 0;     // hash >> index_shift = home slot
    uint32_t used = 0;
    uint32_t mru = kNoFrame;
    uint32_t lru = kNoFrame;
    std::unordered_map<uint64_t, ExtentCounters> extent_counters;
    size_t num_dirty = 0;
    BufferPoolStats stats;
    DiskStats io;

    void Init(size_t capacity);
    uint32_t Find(PageId page, uint64_t hash) const;
    void IndexInsert(uint32_t frame, uint64_t hash);
    void IndexErase(uint32_t frame);
    void Unlink(uint32_t frame);
    void PushMru(uint32_t frame);
  };

  static uint64_t ExtentKey(uint32_t file, uint64_t extent) {
    return (uint64_t(file) << 40) ^ extent;
  }
  static bool KeyOfFile(uint64_t key, uint32_t file) {
    return (key & ~uint64_t(0xff'ffff'ffff)) == uint64_t(file) << 40;
  }
  static uint64_t Hash(PageId page) { return PageIdHash{}(page); }

  size_t StripeIndex(uint64_t hash) const { return hash % stripes_.size(); }

  /// Evicts the stripe's LRU page and returns its now-free frame.
  static uint32_t EvictOne(Stripe& s);
  /// The one touch path behind Access, Touch and TouchRun: a hit moves
  /// `page` to MRU, a miss admits it (no I/O charge; Access adds the read
  /// seek). `fc` is the counter of `page`'s extent in this stripe, which
  /// the touch feeds. Returns whether the page was resident. Caller holds
  /// s.mu.
  static bool TouchLocked(Stripe& s, PageId page, uint64_t hash,
                          bool mark_dirty, ExtentCounters& fc);
  /// Folds one stripe's counters for `file` into `sum` and, when `extents`
  /// is non-empty, into the per-extent sums. Caller holds s.mu.
  static void SumFileCounters(const Stripe& s, uint32_t file,
                              ExtentCounters* sum,
                              std::span<ExtentCounters> extents);
  static FileResidency ResidencyFrom(const ExtentCounters& sum, uint64_t pages);

  size_t capacity_pages_;
  std::vector<Stripe> stripes_;
  std::atomic<uint32_t> next_file_id_{0};
};

}  // namespace corrmap

#endif  // CORRMAP_STORAGE_BUFFER_POOL_H_

// Per-select query traces: every ServingEngine::ExecuteSelect (and every
// routed ShardRouter select) records one compact SelectTrace -- predicate
// fingerprint, the candidates deliberated with their estimates, the chosen
// plan, the actual simulated cost, shards visited/pruned, cache hit/miss,
// tail rows swept -- into a fixed-size ring overwritten oldest-first, plus
// a slow-select log retaining the worst traces by actual cost.
//
// Traces are flat PODs so recording is a struct copy under one slot mutex
// (slots are independent; concurrent selects contend only when they hash
// to the same ring slot). The ring answers "what ran recently"; the slow
// log answers "what hurt"; the drift tracker (obs/drift.h) aggregates the
// est-vs-actual signal both carry.
#ifndef CORRMAP_OBS_TRACE_H_
#define CORRMAP_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "exec/plan_choice.h"
#include "exec/predicate.h"

namespace corrmap::obs {

/// One deliberated candidate, compressed to what drift analysis needs.
struct TraceCandidate {
  PlanKind kind = PlanKind::kSeqScan;
  uint32_t slot = 0;
  double est_ms = 0;
};

/// Candidates retained per trace; deliberations enumerate few (scan +
/// clustered + attached CMs/indexes), so 6 covers the common case and
/// num_candidates still reports the true count when it overflows.
inline constexpr size_t kTraceCandidateCap = 6;

/// Per-shard actuals retained on a router-merged trace; scatters mostly
/// fan out to few shards, and shards_visited reports the true fan-out
/// when it overflows.
inline constexpr size_t kTraceShardCap = 8;

/// Compact record of one select. `seq` is assigned by the ring (global
/// recording order); router-level traces set from_router and the shard
/// fields, per-shard traces carry the plan/cost detail.
struct SelectTrace {
  uint64_t seq = 0;
  uint64_t fingerprint = 0;  ///< FingerprintQuery of the predicate set
  uint64_t epoch = 0;        ///< recluster epoch that served it
  PlanKind plan_kind = PlanKind::kSeqScan;
  bool cache_hit = false;  ///< chosen CM's lookup came from the shared cache
  bool from_router = false;
  double est_ms = 0;     ///< chosen plan's estimate
  double actual_ms = 0;  ///< simulated cost actually charged
  uint64_t num_matches = 0;
  uint64_t rows_examined = 0;
  uint64_t tail_rows_swept = 0;
  uint32_t shards_visited = 0;
  uint32_t shards_pruned = 0;
  uint32_t num_candidates = 0;  ///< deliberated (may exceed num_recorded)
  uint32_t num_recorded = 0;    ///< filled entries of candidates[]
  TraceCandidate candidates[kTraceCandidateCap];

  // Router-merged traces only (from_router). est_ms/actual_ms above carry
  // the critical-path MAXIMUM over the visited shards -- the latency a
  // parallel gather pays, directly comparable with engine-level traces in
  // the slow log -- while the sums below keep the partition-wide totals.
  // cache_hit is true only when EVERY visited shard's chosen lookup hit
  // (a scatter is cached only if wholly served from cache);
  // cache_hit_shards counts the hits instead of OR-ing them away.
  double sum_est_ms = 0;
  double sum_actual_ms = 0;
  uint32_t cache_hit_shards = 0;
  /// Per-shard actual costs, in ascending order of the visited shard
  /// indexes; shards_visited still reports the true count when it
  /// overflows the cap.
  uint32_t num_shard_actuals = 0;
  double shard_actual_ms[kTraceShardCap] = {};
};

/// Order-insensitive fingerprint of a query's predicate set (column, op,
/// keys/bounds). Two selects with the same predicates fingerprint equal,
/// so trace analysis can group by query shape.
uint64_t FingerprintQuery(const Query& query);

/// Fixed-capacity ring of the most recent traces, overwritten
/// oldest-first. Push assigns a global sequence number; Snapshot returns
/// the retained traces in ascending recording order.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity = 1024);
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Records `t` (seq overwritten), evicting the trace `capacity` pushes
  /// older. Returns the assigned sequence number.
  uint64_t Push(const SelectTrace& t);

  /// Retained traces, ascending seq (oldest surviving first).
  std::vector<SelectTrace> Snapshot() const;

  /// Total traces ever pushed (>= capacity() means the ring has wrapped).
  uint64_t TotalRecorded() const {
    return seq_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    mutable std::mutex mu;
    SelectTrace trace;
    bool filled = false;
  };
  std::vector<Slot> slots_;
  std::atomic<uint64_t> seq_{0};
};

/// Keeps the `capacity` worst traces seen, by actual simulated cost. The
/// fast path is one relaxed load: once the log is full, a trace cheaper
/// than the current floor returns without locking.
class SlowSelectLog {
 public:
  explicit SlowSelectLog(size_t capacity = 16);
  SlowSelectLog(const SlowSelectLog&) = delete;
  SlowSelectLog& operator=(const SlowSelectLog&) = delete;

  void Offer(const SelectTrace& t);

  /// Retained traces, worst (highest actual_ms) first.
  std::vector<SelectTrace> Worst() const;

  size_t capacity() const { return cap_; }

 private:
  const size_t cap_;
  /// Cheapest retained cost once full; -1 while the log still has room
  /// (every offer must take the lock until then).
  std::atomic<double> floor_ms_{-1.0};
  mutable std::mutex mu_;
  std::vector<SelectTrace> entries_;
};

}  // namespace corrmap::obs

#endif  // CORRMAP_OBS_TRACE_H_

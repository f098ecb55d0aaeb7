// The serving layer's observability bundle: one MetricsRegistry plus the
// trace ring, slow-select log, and drift tracker, with every hot-path
// series pre-resolved to a stable handle so instrumented code never pays a
// name lookup per operation.
//
// Wiring follows the shared_pool/shared_cache precedent: a ServingMetrics
// is attached through ServingOptions::metrics (null = no instrumentation,
// the zero-overhead default) and must outlive every engine/router/driver
// pointing at it. A ShardRouter shares one bundle across its shards --
// per-shard selects record their own traces and drift while the router
// adds routing counters and a router-level trace per scatter.
//
// Gauges for state that already lives elsewhere (buffer-pool ledgers,
// cache atomics, tail sizes, queue depths) are registered as callback
// gauges by whichever object owns that state (engine or router), and
// unregistered in its destructor; see ServingEngine::RegisterMetricsGauges.
#ifndef CORRMAP_OBS_SERVING_METRICS_H_
#define CORRMAP_OBS_SERVING_METRICS_H_

#include <cstddef>
#include <string>

#include "obs/drift.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace corrmap::obs {

struct ServingMetricsOptions {
  /// Most recent traces retained (TraceRing).
  size_t trace_ring_capacity = 1024;
  /// Worst traces by actual cost retained (SlowSelectLog).
  size_t slow_log_capacity = 16;
};

class ServingMetrics {
 public:
  explicit ServingMetrics(ServingMetricsOptions opts = {});
  ServingMetrics(const ServingMetrics&) = delete;
  ServingMetrics& operator=(const ServingMetrics&) = delete;

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }
  TraceRing& traces() { return traces_; }
  const TraceRing& traces() const { return traces_; }
  SlowSelectLog& slow_log() { return slow_; }
  const SlowSelectLog& slow_log() const { return slow_; }
  DriftTracker& drift() { return drift_; }
  const DriftTracker& drift() const { return drift_; }

  /// Records one engine-level select: counters, cost histograms, drift
  /// (cost-based traces only), the trace ring, and the slow log.
  void RecordSelect(const SelectTrace& t);

  /// Records one router-level scatter: routing counters plus the trace
  /// ring / slow log (per-shard executions already recorded themselves,
  /// so engine-level series are not double counted).
  void RecordRoutedSelect(const SelectTrace& t);

  /// Full snapshot: the registry's JSON under "registry", the drift
  /// tracker's per-kind windows under "drift", and the slow-select log
  /// under "slow_selects".
  std::string ToJson() const;

  /// Prometheus text of the registry (drift ratios are included as
  /// callback gauges registered by this bundle).
  std::string ToPrometheus() const;

  // --- Pre-resolved handles (hot path; never null). -----------------------
  // Engine select path.
  Counter* selects;  ///< serve_selects_total, one per ExecuteSelect
  Counter* plan_wins[DriftTracker::kNumKinds];  ///< per chosen PlanKind
  Counter* rows_examined;
  Counter* tail_rows_swept;
  Counter* cache_hit_selects;   ///< chosen CM's lookup was cached
  Counter* cache_miss_selects;  ///< every other select
  Histogram* select_actual_ms;  ///< simulated cost actually charged
  Histogram* select_est_ms;     ///< chosen plan's estimate (cost-based)
  Histogram* select_latency_us;  ///< driver-observed wall latency
  Histogram* queue_wait_us;      ///< worker-pool queue wait
  // Engine write path.
  Counter* appends;        ///< writes that only append
  Counter* rows_appended;  ///< every appended row, updates' included
  Counter* deletes;        ///< every tombstoned row, updates' included
  Counter* updates;        ///< writes that both delete and append
  Counter* write_conflicts;  ///< epoch-moved aborts (retry after re-resolve)
  // Recluster / compaction lifecycle.
  Counter* reclusters;
  Counter* compactions;
  Counter* recluster_tail_rows_merged;
  Counter* recluster_catch_up_rows;
  Counter* recluster_rows_compacted;
  Counter* recluster_tombstones_carried;
  Histogram* recluster_build_ms;  ///< phase 1 (fully concurrent)
  Histogram* recluster_swap_ms;   ///< phase 2 (writers blocked)
  // Durability (serve/durability.h): group-commit WAL and checkpoints.
  Counter* wal_flushes;   ///< serve_wal_flushes_total
  Counter* wal_records;   ///< row-op records logged
  Counter* wal_bytes;     ///< framed bytes made durable
  Counter* checkpoints;   ///< epoch-consistent snapshots taken
  Histogram* wal_group_commit_ops;  ///< committed ops per flush batch
  Histogram* recovery_ms;           ///< ServingEngine::Recover wall time
  // Router.
  Counter* router_selects;
  Counter* router_shards_visited;
  Counter* router_shards_pruned;
  Counter* router_cm_pruned;
  Counter* router_clustered_routed;
  /// Wall time of one shard's routed select (per visit, both scatter
  /// modes) -- under parallel scatter the merged trace's actual_ms tracks
  /// the max of these, this histogram keeps the distribution.
  Histogram* router_shard_visit_us;
  /// Shards visited by the most recent scatter (instantaneous fan-out).
  Gauge* router_scatter_fanout;

 private:
  MetricsRegistry registry_;
  TraceRing traces_;
  SlowSelectLog slow_;
  DriftTracker drift_;
};

}  // namespace corrmap::obs

#endif  // CORRMAP_OBS_SERVING_METRICS_H_

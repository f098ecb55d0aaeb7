#include "obs/serving_metrics.h"

namespace corrmap::obs {

namespace {

/// Snake-case PlanKind slug for series names ("serve_plan_wins_..._total").
const char* PlanKindSlug(size_t kind) {
  switch (PlanKind(kind)) {
    case PlanKind::kSeqScan:
      return "seq_scan";
    case PlanKind::kClusteredRange:
      return "clustered_range";
    case PlanKind::kSortedIndex:
      return "sorted_index";
    case PlanKind::kCmProbe:
      return "cm_probe";
  }
  return "unknown";
}

void AppendKindDriftJson(std::string* out,
                         const DriftTracker::KindDrift& d) {
  *out += "{\"selects\": " + std::to_string(d.selects);
  *out += ", \"est_ms\": " + FormatDouble(d.est_ms);
  *out += ", \"actual_ms\": " + FormatDouble(d.actual_ms);
  *out += ", \"ratio\": " + FormatDouble(d.Ratio());
  *out += "}";
}

void AppendDriftWindowJson(
    std::string* out,
    const std::array<DriftTracker::KindDrift, DriftTracker::kNumKinds>& w) {
  *out += "{";
  for (size_t k = 0; k < DriftTracker::kNumKinds; ++k) {
    if (k > 0) *out += ", ";
    *out += std::string("\"") + PlanKindSlug(k) + "\": ";
    AppendKindDriftJson(out, w[k]);
  }
  *out += "}";
}

}  // namespace

ServingMetrics::ServingMetrics(ServingMetricsOptions opts)
    : traces_(opts.trace_ring_capacity), slow_(opts.slow_log_capacity) {
  selects = registry_.counter("serve_selects_total");
  for (size_t k = 0; k < DriftTracker::kNumKinds; ++k) {
    plan_wins[k] = registry_.counter(std::string("serve_plan_wins_") +
                                     PlanKindSlug(k) + "_total");
  }
  rows_examined = registry_.counter("serve_rows_examined_total");
  tail_rows_swept = registry_.counter("serve_tail_rows_swept_total");
  cache_hit_selects = registry_.counter("serve_cm_cache_hit_selects_total");
  cache_miss_selects = registry_.counter("serve_cm_cache_miss_selects_total");
  select_actual_ms = registry_.histogram("serve_select_actual_ms");
  select_est_ms = registry_.histogram("serve_select_est_ms");
  select_latency_us = registry_.histogram("serve_select_latency_us");
  queue_wait_us = registry_.histogram("serve_queue_wait_us");
  appends = registry_.counter("serve_appends_total");
  rows_appended = registry_.counter("serve_rows_appended_total");
  deletes = registry_.counter("serve_deletes_total");
  updates = registry_.counter("serve_updates_total");
  write_conflicts = registry_.counter("serve_write_conflicts_total");
  reclusters = registry_.counter("serve_reclusters_total");
  compactions = registry_.counter("serve_compactions_total");
  recluster_tail_rows_merged =
      registry_.counter("serve_recluster_tail_rows_merged_total");
  recluster_catch_up_rows =
      registry_.counter("serve_recluster_catch_up_rows_total");
  recluster_rows_compacted =
      registry_.counter("serve_recluster_rows_compacted_total");
  recluster_tombstones_carried =
      registry_.counter("serve_recluster_tombstones_carried_total");
  recluster_build_ms = registry_.histogram("serve_recluster_build_ms");
  recluster_swap_ms = registry_.histogram("serve_recluster_swap_ms");
  wal_flushes = registry_.counter("serve_wal_flushes_total");
  wal_records = registry_.counter("serve_wal_records_total");
  wal_bytes = registry_.counter("serve_wal_bytes_total");
  checkpoints = registry_.counter("serve_checkpoints_total");
  wal_group_commit_ops = registry_.histogram("serve_wal_group_commit_ops");
  recovery_ms = registry_.histogram("serve_recovery_ms");
  router_selects = registry_.counter("router_selects_total");
  router_shards_visited = registry_.counter("router_shards_visited_total");
  router_shards_pruned = registry_.counter("router_shards_pruned_total");
  router_cm_pruned = registry_.counter("router_cm_pruned_selects_total");
  router_clustered_routed =
      registry_.counter("router_clustered_routed_selects_total");
  router_shard_visit_us = registry_.histogram("router_shard_visit_us");
  router_scatter_fanout = registry_.gauge("router_scatter_fanout");
  // Lifetime drift ratios join every registry export as callback gauges
  // (the bundle owns the tracker, so these callbacks cannot dangle).
  for (size_t k = 0; k < DriftTracker::kNumKinds; ++k) {
    registry_.RegisterCallbackGauge(
        std::string("serve_drift_ratio_") + PlanKindSlug(k),
        [this, k] { return drift_.snapshot().lifetime[k].Ratio(); });
  }
  registry_.RegisterCallbackGauge(
      "serve_drift_epoch", [this] { return double(drift_.snapshot().epoch); });
}

void ServingMetrics::RecordSelect(const SelectTrace& t) {
  selects->Increment();
  plan_wins[size_t(t.plan_kind) % DriftTracker::kNumKinds]->Increment();
  rows_examined->Add(t.rows_examined);
  tail_rows_swept->Add(t.tail_rows_swept);
  (t.cache_hit ? cache_hit_selects : cache_miss_selects)->Increment();
  select_actual_ms->Record(t.actual_ms);
  if (t.est_ms > 0) {
    select_est_ms->Record(t.est_ms);
    drift_.Record(t.plan_kind, t.est_ms, t.actual_ms);
  }
  traces_.Push(t);
  slow_.Offer(t);
}

void ServingMetrics::RecordRoutedSelect(const SelectTrace& t) {
  router_selects->Increment();
  router_shards_visited->Add(t.shards_visited);
  router_shards_pruned->Add(t.shards_pruned);
  router_scatter_fanout->Set(double(t.shards_visited));
  traces_.Push(t);
  slow_.Offer(t);
}

std::string ServingMetrics::ToJson() const {
  const DriftTracker::Snapshot drift = drift_.snapshot();
  std::string out = "{\"registry\": " + registry_.ToJson();
  out += ", \"drift\": {\"epoch\": " + std::to_string(drift.epoch);
  out += ", \"current\": ";
  AppendDriftWindowJson(&out, drift.current);
  out += ", \"previous\": ";
  AppendDriftWindowJson(&out, drift.previous);
  out += ", \"lifetime\": ";
  AppendDriftWindowJson(&out, drift.lifetime);
  out += "}, \"slow_selects\": [";
  bool first = true;
  for (const SelectTrace& t : slow_.Worst()) {
    if (!first) out += ", ";
    first = false;
    out += "{\"seq\": " + std::to_string(t.seq);
    // 64-bit fingerprints exceed JSON's exact-integer range; ship as a
    // string so parsers round-trip them.
    out += ", \"fingerprint\": \"" + std::to_string(t.fingerprint) + "\"";
    out += ", \"epoch\": " + std::to_string(t.epoch);
    out += std::string(", \"plan\": \"") +
           PlanKindSlug(size_t(t.plan_kind)) + "\"";
    out += std::string(", \"from_router\": ") +
           (t.from_router ? "true" : "false");
    out +=
        std::string(", \"cache_hit\": ") + (t.cache_hit ? "true" : "false");
    out += ", \"est_ms\": " + FormatDouble(t.est_ms);
    out += ", \"actual_ms\": " + FormatDouble(t.actual_ms);
    out += ", \"matches\": " + std::to_string(t.num_matches);
    out += ", \"rows_examined\": " + std::to_string(t.rows_examined);
    out += ", \"tail_rows_swept\": " + std::to_string(t.tail_rows_swept);
    out += ", \"shards_visited\": " + std::to_string(t.shards_visited);
    out += ", \"shards_pruned\": " + std::to_string(t.shards_pruned);
    out += ", \"candidates\": " + std::to_string(t.num_candidates);
    if (t.from_router) {
      // Router-merged entries: actual_ms above is the critical-path max;
      // the sums and the per-shard breakdown keep the full story.
      out += ", \"sum_est_ms\": " + FormatDouble(t.sum_est_ms);
      out += ", \"sum_actual_ms\": " + FormatDouble(t.sum_actual_ms);
      out += ", \"cache_hit_shards\": " + std::to_string(t.cache_hit_shards);
      out += ", \"shard_actual_ms\": [";
      for (uint32_t i = 0; i < t.num_shard_actuals; ++i) {
        if (i > 0) out += ", ";
        out += FormatDouble(t.shard_actual_ms[i]);
      }
      out += "]";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string ServingMetrics::ToPrometheus() const {
  return registry_.ToPrometheus();
}

}  // namespace corrmap::obs

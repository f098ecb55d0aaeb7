#include "serve/recluster.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "index/clustered_index.h"
#include "index/secondary_index.h"
#include "serve/serving_engine.h"

namespace corrmap::serve {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Old row id with no successor row (compacted away).
constexpr RowId kDroppedRow = ~RowId{0};

}  // namespace

std::vector<RowId> MergeTailPermutation(const Table& t, size_t c_col,
                                        RowId boundary, size_t n_rows,
                                        std::vector<Key>* sorted_tail_keys) {
  std::vector<RowId> perm(n_rows);
  std::iota(perm.begin(), perm.end(), RowId{0});
  const auto key_less = [&](RowId a, RowId b) {
    return t.GetKey(a, c_col) < t.GetKey(b, c_col);
  };
  const auto mid = perm.begin() + std::ptrdiff_t(boundary);
  std::stable_sort(mid, perm.end(), key_less);
  if (sorted_tail_keys != nullptr) {
    sorted_tail_keys->clear();
    sorted_tail_keys->reserve(n_rows - boundary);
    for (auto it = mid; it != perm.end(); ++it) {
      sorted_tail_keys->push_back(t.GetKey(*it, c_col));
    }
  }
  // inplace_merge keeps first-range elements before equal second-range
  // elements: clustered-region rows precede equal tail rows, matching the
  // stable sort ClusterBy would have produced.
  std::inplace_merge(perm.begin(), mid, perm.end(), key_less);
  return perm;
}

std::vector<RowId> CompactMergePermutation(
    const Table& t, size_t c_col, RowId boundary, size_t n_rows,
    const ClusteredIndex& old_cidx, std::vector<Key>* sorted_tail_keys,
    std::vector<uint32_t>* deleted_counts) {
  deleted_counts->assign(old_cidx.NumDistinctKeys(), 0);
  std::vector<RowId> perm;
  perm.reserve(n_rows);
  // One pass over the clustered region reads each tombstone exactly once,
  // attributing dead rows to their distinct key (the directory boundaries
  // are a sorted walk) and keeping live rows in order.
  size_t key = 0;
  for (RowId r = 0; r < boundary; ++r) {
    while (key + 1 < old_cidx.NumDistinctKeys() &&
           r >= old_cidx.KeyFirstRow(key + 1)) {
      ++key;
    }
    if (t.IsDeleted(r)) {
      ++(*deleted_counts)[key];
    } else {
      perm.push_back(r);
    }
  }
  const size_t live_clustered = perm.size();
  for (RowId r = boundary; r < n_rows; ++r) {
    if (!t.IsDeleted(r)) perm.push_back(r);
  }
  const auto key_less = [&](RowId a, RowId b) {
    return t.GetKey(a, c_col) < t.GetKey(b, c_col);
  };
  const auto mid = perm.begin() + std::ptrdiff_t(live_clustered);
  std::stable_sort(mid, perm.end(), key_less);
  if (sorted_tail_keys != nullptr) {
    sorted_tail_keys->clear();
    sorted_tail_keys->reserve(perm.size() - live_clustered);
    for (auto it = mid; it != perm.end(); ++it) {
      sorted_tail_keys->push_back(t.GetKey(*it, c_col));
    }
  }
  std::inplace_merge(perm.begin(), mid, perm.end(), key_less);
  return perm;
}

Result<ReclusterStats> Reclusterer::Run() {
  ServingEngine& e = *engine_;
  std::lock_guard<std::mutex> recluster_lock(e.recluster_mu_);
  const std::shared_ptr<ServingEngine::EpochState> old = e.CurrentState();
  const Table& ot = *old->table;
  const size_t c_col = size_t(ot.clustered_column());
  const RowId boundary = old->clustered_boundary;

  // Snapshot the delete-log watermark and the row count together: a delete
  // logged below d0 completed its tombstone before this lock, so the
  // permutation's tombstone reads observe it; everything from d0 on is
  // replayed against the successor in phase 2. Between them every delete
  // is resolved exactly once.
  size_t d0 = 0;
  size_t n0 = 0;
  {
    std::lock_guard<std::mutex> append_lock(e.append_mu_);
    d0 = e.delete_log_.size();
    n0 = ot.NumRows();
  }

  const bool compact = mode_ == ReclusterMode::kCompact;
  ReclusterStats stats;
  stats.epoch = old->version;
  stats.rows_clustered = boundary;
  if (RowId(n0) == boundary && !(compact && ot.NumDeleted() > 0)) {
    return stats;  // empty tail and nothing to drop
  }
  stats.tail_rows_merged = n0 - boundary;

  // ---- Phase 1: build the successor off to the side. Readers keep
  // serving `old`; appends keep landing in ot's tail beyond n0.
  const Clock::time_point t_build = Clock::now();
  std::vector<Key> tail_keys;
  std::vector<uint32_t> deleted_counts;
  const std::vector<RowId> perm =
      compact ? CompactMergePermutation(ot, c_col, boundary, n0, *old->cidx,
                                        &tail_keys, &deleted_counts)
              : MergeTailPermutation(ot, c_col, boundary, n0, &tail_keys);
  if (after_permutation_hook_) after_permutation_hook_();
  // Old -> successor row ids, for replaying deletes that race the copy.
  std::vector<RowId> inverse(n0, kDroppedRow);
  for (size_t i = 0; i < perm.size(); ++i) inverse[perm[i]] = RowId(i);
  stats.rows_compacted = n0 - perm.size();

  auto next = std::make_shared<ServingEngine::EpochState>();
  next->version = old->version + 1;
  next->owned_table = ot.CloneReordered(perm);
  next->table = next->owned_table.get();
  next->clustered_boundary = RowId(perm.size());

  auto ncidx = ClusteredIndex::BuildMerged(*next->table, c_col, *old->cidx,
                                           boundary, tail_keys,
                                           deleted_counts);
  if (!ncidx.ok()) return ncidx.status();
  next->owned_cidx = std::make_unique<ClusteredIndex>(std::move(*ncidx));
  next->cidx = next->owned_cidx.get();

  for (size_t i = 0; i < old->cms.size(); ++i) {
    CmOptions opts = e.attached_[i];
    if (e.c_bucket_targets_[i] == 0) {
      // Unbucketed CMs encode clustered *values*, which CloneReordered
      // preserves (dictionaries and their codes are kept), so the content
      // survives the reorder unchanged. Defer the slot: phase 2 snapshot-
      // copies the predecessor map under the append lock -- where its pair
      // multiset is exactly the successor's -- instead of an O(rows)
      // re-hash here.
      next->cms.push_back(nullptr);
      next->c_bucketings.push_back(nullptr);
      continue;
    }
    // Re-base the positional bucketing over the merged region; the CM
    // rebuilt below maps u-keys to the new bucket ids.
    auto built = ClusteredBucketing::Build(*next->table, opts.c_col,
                                           e.c_bucket_targets_[i]);
    if (!built.ok()) return built.status();
    auto cb = std::make_unique<ClusteredBucketing>(std::move(*built));
    opts.c_buckets = cb.get();
    auto cm = ConcurrentCorrelationMap::Create(next->table, opts);
    if (!cm.ok()) return cm.status();
    auto owned = std::make_unique<ConcurrentCorrelationMap>(std::move(*cm));
    Status s = owned->BuildFromTable(size_t(next->clustered_boundary));
    if (!s.ok()) return s;
    next->cms.push_back(std::move(owned));
    next->c_bucketings.push_back(std::move(cb));
  }
  // Per-epoch secondary indexes cover the successor's clustered region
  // [0, boundary) and are immutable once published (appends belong to the
  // tail sweep, deletes are re-filtered at execution), so they rebuild per
  // pass like the c-bucketed CMs.
  for (const std::vector<size_t>& cols : e.sidx_columns_) {
    auto idx = std::make_unique<SecondaryIndex>(next->table, cols);
    Status s = idx->BuildFromTable(size_t(next->clustered_boundary));
    if (!s.ok()) return s;
    next->sidx.push_back(std::move(idx));
  }
  // Fresh buffer-pool file ids and a cold calibration cell: the
  // predecessor's frames age out of the pool instead of aliasing the
  // reordered heap, and plan costing re-calibrates against the successor
  // epoch's own hit rates.
  e.InitEpochCalibration(next.get());
  if (after_build_hook_) after_build_hook_();
  stats.build_seconds = SecondsSince(t_build);

  // ---- Phase 2: block writers, catch up the rows they appended during
  // phase 1, raise the successor CM epochs past their predecessors', and
  // publish. Readers are never blocked; a reader holding `old` finishes
  // against a fully consistent retired epoch.
  const Clock::time_point t_swap = Clock::now();
  {
    std::lock_guard<std::mutex> append_lock(e.append_mu_);
    const size_t n1 = ot.NumRows();
    stats.catch_up_rows = n1 - n0;
    // Fill the deferred slots by snapshot copy. Under the append lock the
    // predecessor's unbucketed maps hold exactly the live-row pair multiset
    // (live appends and deletes maintained them through phase 1), which is
    // also what the successor's maps must hold after the catch-up rows and
    // the delete replay below -- so both loops skip the copied slots.
    for (size_t i = 0; i < old->cms.size(); ++i) {
      if (next->cms[i] != nullptr) continue;
      next->cms[i] = std::make_unique<ConcurrentCorrelationMap>(
          old->cms[i]->CloneRetargeted(next->table));
      ++stats.cms_snapshot_copied;
    }
    e.cm_snapshot_copies_.fetch_add(stats.cms_snapshot_copied,
                                    std::memory_order_acq_rel);
    // The successor is still private: growing its reservation (which may
    // reallocate columns) is safe until the publish below. The successor's
    // row count shrank by the compacted rows, but the reservation is kept
    // at the engine's configured headroom regardless.
    const size_t next_rows = size_t(next->clustered_boundary) + (n1 - n0);
    next->table->Reserve(
        std::max(e.options_.reserve_rows,
                 next_rows + ServingOptions::kDefaultAppendHeadroom));
    if (n1 > n0) {
      next->table->AppendRowsFrom(ot, RowId(n0), RowId(n1));
      // Catch-up rows seed the successor's tail under their successor row
      // ids (compaction shifts them down). No CM maintenance is needed:
      // the snapshot-copied (unbucketed) maps arrive with these rows'
      // pairs already in them, and c-bucketed maps skip tail rows exactly
      // as the live append path does.
    }
    // Replay deletes that landed while phase 1 ran. Log entries >= n0 are
    // catch-up rows: their tombstones were carried just above and their
    // pairs never entered the successor CMs, so there is nothing to do.
    // For rows below n0, the old->new mapping decides: dropped by the
    // compaction -- done; carried as a tombstone by the clone -- done (the
    // successor CM build skipped it; retracting again would double-count);
    // otherwise the clone copied it live before the delete landed, and it
    // is re-deleted here against the successor table and CMs.
    for (size_t k = d0; k < e.delete_log_.size(); ++k) {
      const RowId dr = e.delete_log_[k];
      if (dr >= RowId(n0)) continue;
      const RowId nr = inverse[dr];
      if (nr == kDroppedRow) continue;
      if (next->table->IsDeleted(nr)) continue;
      Status ds = next->table->DeleteRow(nr);
      if (!ds.ok()) return ds;
      for (const auto& cm : next->cms) {
        // Snapshot-copied (unbucketed) maps already retracted this delete
        // in the predecessor before this lock was taken; only the rebuilt
        // c-bucketed maps -- which cover [0, boundary) -- need the replay.
        if (!cm->has_clustered_buckets()) continue;
        if (nr >= next->clustered_boundary) continue;
        Status cs = cm->DeleteRow(nr);
        if (!cs.ok()) return cs;
      }
    }
    // Every logged delete is now resolved in the successor epoch.
    e.delete_log_.clear();
    for (size_t i = 0; i < next->cms.size(); ++i) {
      next->cms[i]->EnsureEpochAtLeast(old->cms[i]->Epoch() + 1);
    }
    stats.tombstones_carried = next->table->NumDeleted();
    e.PublishState(next);
    // Checkpoint at publish, still under the append lock: the successor
    // is a clean consistent snapshot and no write can land between the
    // swap and the snapshot, so the checkpoint captures exactly the
    // published epoch. This also truncates the WAL -- the log restarts in
    // the successor's (permuted) row-id space, which is why a crash
    // BEFORE this point replays the predecessor's checkpoint + tail and a
    // crash after replays this one.
    if (e.durability_ != nullptr) {
      e.durability_->Checkpoint(*next->table, next->clustered_boundary,
                                next->version);
    }
  }
  stats.swap_seconds = SecondsSince(t_swap);
  stats.rows_clustered = uint64_t(next->clustered_boundary);
  stats.epoch = next->version;
  e.reclusters_completed_.fetch_add(1, std::memory_order_acq_rel);
  if (e.metrics_ != nullptr) {
    obs::ServingMetrics& m = *e.metrics_;
    (compact ? m.compactions : m.reclusters)->Increment();
    m.recluster_tail_rows_merged->Add(stats.tail_rows_merged);
    m.recluster_catch_up_rows->Add(stats.catch_up_rows);
    m.recluster_rows_compacted->Add(stats.rows_compacted);
    m.recluster_tombstones_carried->Add(stats.tombstones_carried);
    m.recluster_build_ms->Record(stats.build_seconds * 1e3);
    m.recluster_swap_ms->Record(stats.swap_seconds * 1e3);
    // An epoch swap is the natural drift-window boundary: the successor
    // epoch re-calibrates costing, so est/actual ratios are aggregated per
    // published epoch.
    m.drift().AdvanceEpoch();
  }
  return stats;
}

}  // namespace corrmap::serve

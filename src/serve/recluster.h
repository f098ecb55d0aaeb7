// Online re-clustering of the serving tail (the top ROADMAP open item).
//
// The ServingEngine parks every append in an unclustered tail
// [clustered_boundary, NumRows) that each select must sweep, so select
// cost grows monotonically with the append stream. The Recluster pass
// folds the tail back into the clustered region without ever blocking
// readers and without stalling writers for longer than a small catch-up:
//
//   Phase 1 (concurrent with selects AND appends): snapshot the published
//   row count n0, compute the merge permutation (the clustered region is
//   already sorted; the tail is sorted and the two runs merged in place),
//   deep-copy the table in merged order (dictionaries preserved, so
//   physical keys keep their codes), patch the ClusteredIndex boundaries
//   from the old index + the sorted tail keys, and rebuild the c-bucketed
//   CMs against the successor table. Appends racing this phase keep
//   landing in the predecessor's tail beyond n0.
//
//   Phase 2 (append lock held, readers still free): copy the catch-up
//   rows [n0, n1) into the successor as its initial tail, snapshot-copy
//   the unbucketed CMs from the predecessor (under the lock their
//   value-coded content is exactly the live-row pair multiset, catch-up
//   rows and raced deletes included), raise every successor CM's epoch
//   above its
//   predecessor's -- so SharedLookupCache entries keyed to pre-recluster
//   epochs compare stale and are lazily evicted, never served -- and
//   publish the successor EpochState with one pointer swap (release;
//   readers acquire). A reader that pinned the predecessor keeps serving
//   a fully consistent old epoch until it finishes; probe==scan holds on
//   both sides of the swap because the row multiset is identical.
//
// Unbucketed CMs encode clustered *values*, so their content survives a
// physical reorder unchanged -- they are snapshot-copied, never re-hashed
// (see ReclusterStats::cms_snapshot_copied). c-bucketed CMs encode
// positional bucket ids; the pass
// rebuilds their ClusteredBucketing over the successor's clustered region,
// which is what makes c-bucketed CMs admissible in the serving engine
// again (between reclusters their tail rows are simply left to the sweep).
//
// Compaction (ReclusterMode::kCompact) reuses the same two phases but
// drops tombstoned rows from the successor copy: the permutation keeps
// only live rows, ClusteredIndex::BuildMerged contracts each old key's
// range by its deleted count, and the CM rebuilds see only live rows.
// Deletes that land between the permutation's tombstone reads and the
// publish are reconciled in phase 2 from the engine's delete log through
// the old->new row mapping: a logged row the copy dropped is done; one the
// clone carried as a tombstone is done (the successor CM build skipped
// it); otherwise it is re-deleted against the successor, retracting from
// the successor CMs. A deleted row is therefore compacted away or carried,
// never resurrected.
#ifndef CORRMAP_SERVE_RECLUSTER_H_
#define CORRMAP_SERVE_RECLUSTER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "index/clustered_index.h"
#include "storage/table.h"

namespace corrmap::serve {

class ServingEngine;

/// What a pass does with tombstoned rows.
enum class ReclusterMode : uint8_t {
  /// Fold the tail into the clustered region; tombstones are carried into
  /// the successor unchanged (cheap, keeps row counts stable).
  kMergeTail,
  /// Fold the tail AND drop tombstoned rows from the successor copy: the
  /// heap shrinks, ClusteredIndex boundaries contract by per-key deleted
  /// counts, and CM/bucketing rebuilds see only live rows.
  kCompact,
};

/// Outcome of one recluster pass.
struct ReclusterStats {
  /// EpochState version published by this pass (unchanged if no-op).
  uint64_t epoch = 0;
  /// Rows in the successor's clustered region (old region + merged tail).
  uint64_t rows_clustered = 0;
  /// Old-tail rows merged into the clustered region.
  uint64_t tail_rows_merged = 0;
  /// Rows appended while phase 1 ran; they seed the successor's tail.
  uint64_t catch_up_rows = 0;
  /// Tombstoned rows the compacting copy dropped (kCompact only).
  uint64_t rows_compacted = 0;
  /// Tombstoned rows still present in the successor at publish: deletes
  /// that raced phase 1 and were carried rather than dropped (plus, under
  /// kMergeTail, every pre-existing tombstone).
  uint64_t tombstones_carried = 0;
  /// Unbucketed CMs carried into the successor by snapshot copy instead of
  /// an O(rows) re-hash: their content encodes clustered *values*, which a
  /// physical reorder does not change, so phase 2 copies the predecessor
  /// map under the append lock (where its content is exactly the live-row
  /// pair multiset) and only retargets the table pointer. c-bucketed CMs
  /// are positional and are still rebuilt in phase 1.
  uint64_t cms_snapshot_copied = 0;
  /// Wall seconds in phase 1 (fully concurrent).
  double build_seconds = 0;
  /// Wall seconds in phase 2 (writers blocked; readers still free).
  double swap_seconds = 0;

  bool performed() const {
    return tail_rows_merged > 0 || rows_compacted > 0;
  }
};

/// Merge permutation over the first `n_rows` rows of `t`: [0, boundary) is
/// assumed sorted by column `c_col` (the clustered region), [boundary,
/// n_rows) is stable-sorted and the two sorted runs merged, preserving the
/// relative order of equal keys (clustered-region rows first, then tail
/// rows in append order) exactly like Table::ClusterBy's stable sort
/// would. When `sorted_tail_keys` is non-null it receives the tail's
/// clustered keys ascending with multiplicity (captured from the sorted
/// run before the merge -- ClusteredIndex::BuildMerged consumes exactly
/// this, so the pass never sorts the tail twice). Exposed for tests.
std::vector<RowId> MergeTailPermutation(const Table& t, size_t c_col,
                                        RowId boundary, size_t n_rows,
                                        std::vector<Key>* sorted_tail_keys =
                                            nullptr);

/// Compacting variant: live clustered rows in order merged with the sorted
/// live tail, tombstoned rows left out. `deleted_counts` receives, per old
/// distinct key of `old_cidx`, how many of that key's rows were dropped --
/// exactly the parallel span ClusteredIndex::BuildMerged contracts its
/// boundaries by. Each row's tombstone is read exactly once, so the kept
/// order and the counts are mutually consistent even when deletes race the
/// pass (a later delete is simply carried by the clone and reconciled from
/// the engine's delete log in phase 2).
std::vector<RowId> CompactMergePermutation(const Table& t, size_t c_col,
                                           RowId boundary, size_t n_rows,
                                           const ClusteredIndex& old_cidx,
                                           std::vector<Key>* sorted_tail_keys,
                                           std::vector<uint32_t>*
                                               deleted_counts);

/// One recluster pass over a ServingEngine (see the file comment for the
/// two-phase protocol). Serialized against other passes by the engine's
/// recluster mutex; safe to run from any thread, including the engine's
/// own worker pool (the background trigger does exactly that).
class Reclusterer {
 public:
  explicit Reclusterer(ServingEngine* engine,
                       ReclusterMode mode = ReclusterMode::kMergeTail)
      : engine_(engine), mode_(mode) {}

  /// Test seams, run on the reclustering thread at two points of phase 1:
  /// right after the permutation (and its tombstone reads) is fixed, and
  /// after the successor is fully built but not yet published. Tests
  /// inject deletes here to pin down the delete-racing-the-copy
  /// reconciliation; both hooks may call engine APIs that take append_mu_
  /// (phase 1 holds only the recluster mutex).
  void set_after_permutation_hook(std::function<void()> hook) {
    after_permutation_hook_ = std::move(hook);
  }
  void set_after_build_hook(std::function<void()> hook) {
    after_build_hook_ = std::move(hook);
  }

  Result<ReclusterStats> Run();

 private:
  ServingEngine* engine_;
  ReclusterMode mode_;
  std::function<void()> after_permutation_hook_;
  std::function<void()> after_build_hook_;
};

}  // namespace corrmap::serve

#endif  // CORRMAP_SERVE_RECLUSTER_H_

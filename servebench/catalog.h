// The eBay ITEMS catalogue every workload serves, the seeded generators of
// its queries and writes, the writer's exact model of the engine's
// background-maintenance triggers, and the correctness gates.
#ifndef SERVEBENCH_CATALOG_H_
#define SERVEBENCH_CATALOG_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/correlation_map.h"
#include "exec/predicate.h"
#include "index/clustered_index.h"
#include "serve/durability.h"
#include "serve/serving_engine.h"
#include "serve/shard_router.h"
#include "storage/table.h"

#include "harness.h"

namespace servebench {

using corrmap::CmOptions;
using corrmap::ClusteredIndex;
using corrmap::Key;
using corrmap::Query;
using corrmap::Rng;
using corrmap::RowId;
using corrmap::Status;
using corrmap::Table;
using corrmap::serve::Durability;
using corrmap::serve::ServingEngine;
using corrmap::serve::ShardRouter;

/// ITEMS clustered on CATID with its clustered index.
struct Items {
  std::unique_ptr<Table> table;
  std::unique_ptr<ClusteredIndex> cidx;
};

/// Generates ITEMS (paper §7.1.1 generator) from the run's seed and
/// clusters it on CATID. Every category holds the same number of items, so
/// the table's size -- and each category's share of the work -- is the
/// same for every seed.
Items MakeItems(uint64_t seed, size_t num_categories);

/// The CMs every workload attaches: Price bucketed to $1000 (the soft FD
/// Price -> CATID) and the CAT5 / CAT4 hierarchy levels (8 and 64
/// categories per label on the 1200-category catalogue).
std::vector<CmOptions> ItemCms();

/// A generated new item, stored compactly until its call is issued: the
/// category path is copied from template row `tpl` of the initial table.
struct NewItem {
  RowId tpl = 0;
  int64_t item_id = 0;
  double price = 0;
};

/// Seeded queries and rows over one ITEMS table. Every draw folds into
/// `hash`, the fingerprint of the generated op sequence.
class Generator {
 public:
  Generator(const Table& table, uint64_t seed);

  /// Price BETWEEN lo AND lo + width, lo uniform over the price domain.
  Query PriceRange(double width);
  /// Price range of `width` centred on a random category's mean price:
  /// the CM maps it to about one category, whatever the seed.
  Query CategoryPriceRange(double width);
  /// Equality on hierarchy column `col` with a random existing label.
  Query CategoryPoint(size_t col);
  /// CATID = a random existing category.
  Query CatidPoint();
  /// ItemID BETWEEN lo AND lo + width over the initial item ids.
  Query ItemRange(int64_t width);

  /// A new item under a random existing category, priced near it.
  NewItem NewRow();
  /// Full rows (physical keys) of `items`.
  std::vector<std::vector<Key>> Rows(std::span<const NewItem> items) const;
  /// `old` re-priced near its current price (same category).
  std::vector<Key> Repriced(std::span<const Key> old);
  /// `old` moved to a random other category (for cross-shard updates).
  std::vector<Key> Recategorized(std::span<const Key> old);

  uint64_t Next();  ///< raw seeded draw (victim selection)
  size_t Pick(size_t n) { return size_t(Next() % n); }
  uint64_t hash() const { return hash_; }

 private:
  std::vector<Key> RowKeys(RowId r) const;
  Query Track(Query q, uint64_t a, uint64_t b);

  const Table& table_;
  Rng rng_;
  uint64_t hash_;
  int64_t next_item_;
  std::vector<double> category_mean_price_;  ///< indexed by CATID
};

/// Zipf(theta) sampler over [0, n) from a precomputed CDF.
class Zipf {
 public:
  Zipf(size_t n, double theta);
  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Trigger settings shared by every engine the benchmark runs.
struct Triggers {
  size_t tail_rows = 0;
  double deleted_fraction = 0;
};

/// The only writer's exact model of one engine: row, tombstone and tail
/// counts (the inputs of the recluster/compaction triggers), the
/// durable-prefix oracle (live rows at the last checkpoint plus the
/// live-row delta of every op logged since), and the maintenance it has
/// waited for. Exact because every triggered pass is awaited before the
/// next write, so no pass ever sees catch-up rows.
struct EngineShadow {
  uint64_t rows = 0;
  uint64_t deleted = 0;
  uint64_t tail = 0;
  uint64_t live_at_checkpoint = 0;
  std::vector<int64_t> deltas;  ///< per logged op since the checkpoint
  uint64_t passes = 0;
  uint64_t compactions = 0;
  uint64_t rows_rewritten = 0;
  uint64_t user_bytes = 0;  ///< logical bytes of every logged op
  uint64_t done_seen = 0;   ///< engine passes completed + failed, observed

  void Reset(const ServingEngine& e);
  uint64_t live() const { return rows - deleted; }
  void OnAppend(size_t n, size_t arity);
  void OnDelete(size_t n);
  void OnUpdate(size_t arity);
  /// Same predicates as ServingEngine's trigger.
  bool Due(const Triggers& t, bool* compact) const;
  /// A triggered pass published (counted) ...
  void OnPass(bool compact);
  /// ... or any publish (counted or explicit): the tail is merged, a
  /// compaction drops tombstones, and the durability manager checkpoints.
  void OnCheckpoint(bool compacted);
};

/// After one engine-level write by the only writer: while the model says
/// a trigger fired, waits for the engine's pass to publish and applies it
/// to the model. The wait is recorded as a kMaintenanceWait span when
/// `log` is set. Fails if the pass errored or did not appear in time.
Status AwaitMaintenance(const ServingEngine& e, const Triggers& t,
                        EngineShadow* sh, SpanLog* log, uint64_t op,
                        int64_t* wait_ns);

/// Picks `n` distinct live rows of `t` from seeded draws (linear probing
/// past tombstones). Call only while no pass can run.
std::vector<RowId> PickLiveRows(const Table& t, size_t n, Generator* gen);

/// Seq-scan count of `q` over the live rows of `t`.
uint64_t ScanCount(const Table& t, const Query& q);

/// Correctness gates (call at quiescence). Each appends to r->errors.
void CheckEngine(const ServingEngine& e, const std::vector<Query>& sample,
                 uint64_t expected_live, const std::string& where, Report* r);
void CheckRouter(const ShardRouter& router, const std::vector<Query>& sample,
                 uint64_t expected_live, const std::string& where, Report* r);

/// CM SizeBytes plus clustered-index SizeBytes (call at quiescence).
double IndexBytes(const ServingEngine& e);

/// Data records (appends, deletes, updates) in `d`'s committed log tail.
size_t CommittedOps(const Durability& d);

/// Expected live rows after recovery from `d`: the checkpoint's live rows
/// plus the deltas of the committed prefix. Fails when more ops were lost
/// than one open group-commit batch plus one torn flush can explain.
Status DurablePrefixLive(const Durability& d, const EngineShadow& sh,
                         size_t group_commit_ops, uint64_t* live);

/// Bytes a logged op carries for the user: 8 per key.
inline uint64_t RowBytes(size_t arity) { return 8 * uint64_t(arity); }

}  // namespace servebench

#endif  // SERVEBENCH_CATALOG_H_

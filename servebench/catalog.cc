#include "catalog.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <unordered_set>

#include "core/bucketing.h"
#include "exec/access_path.h"
#include "storage/wal.h"
#include "workload/ebay_gen.h"

namespace servebench {

using corrmap::Bucketer;
using corrmap::kEbay;
using corrmap::Predicate;
using corrmap::Value;

namespace {

constexpr double kMaxPrice = 1'000'000.0;
/// A pass never takes this long on the catalogue sizes used here; a wait
/// past it means the model and the engine's trigger disagree.
constexpr int64_t kPassTimeoutNs = 60'000'000'000;

uint64_t KeyBits(const Key& k) {
  return k.is_double() ? std::bit_cast<uint64_t>(k.AsDouble())
                       : uint64_t(k.AsInt64());
}

double Cents(double price) {
  return std::max(0.01, std::round(price * 100.0) / 100.0);
}

}  // namespace

Items MakeItems(uint64_t seed, size_t num_categories) {
  corrmap::EbayGenConfig cfg;
  cfg.num_categories = num_categories;
  cfg.min_items_per_category = 150;
  cfg.max_items_per_category = 150;
  cfg.seed = corrmap::Mix64(seed ^ 0xebabe5ULL);
  Items items;
  items.table = corrmap::GenerateEbayItems(cfg);
  if (Status s = items.table->ClusterBy(kEbay.catid); !s.ok()) {
    std::fprintf(stderr, "ClusterBy: %s\n", s.ToString().c_str());
    std::exit(2);
  }
  auto cidx = ClusteredIndex::Build(*items.table, kEbay.catid);
  if (!cidx.ok()) {
    std::fprintf(stderr, "ClusteredIndex::Build: %s\n",
                 cidx.status().ToString().c_str());
    std::exit(2);
  }
  items.cidx = std::make_unique<ClusteredIndex>(std::move(*cidx));
  return items;
}

std::vector<CmOptions> ItemCms() {
  std::vector<CmOptions> cms(3);
  cms[0].u_cols = {kEbay.price};
  cms[0].u_bucketers = {Bucketer::NumericWidth(1000.0)};
  cms[1].u_cols = {kEbay.cat5};
  cms[1].u_bucketers = {Bucketer::Identity()};
  cms[2].u_cols = {kEbay.cat4};
  cms[2].u_bucketers = {Bucketer::Identity()};
  for (CmOptions& cm : cms) cm.c_col = kEbay.catid;
  return cms;
}

// ---------------------------------------------------------------------------
// Generator

Generator::Generator(const Table& table, uint64_t seed)
    : table_(table),
      rng_(corrmap::Mix64(seed)),
      hash_(kHashSeed),
      next_item_(int64_t(table.NumRows()) + 1) {
  std::vector<size_t> count;
  for (RowId r = 0; r < table.NumRows(); ++r) {
    const size_t cat = size_t(table.GetKey(r, kEbay.catid).AsInt64());
    if (cat >= count.size()) {
      count.resize(cat + 1, 0);
      category_mean_price_.resize(cat + 1, 0);
    }
    ++count[cat];
    category_mean_price_[cat] += table.GetKey(r, kEbay.price).AsDouble();
  }
  for (size_t c = 0; c < count.size(); ++c) {
    if (count[c] > 0) category_mean_price_[c] /= double(count[c]);
  }
}

uint64_t Generator::Next() {
  const uint64_t v = rng_();
  HashMix(&hash_, v);
  return v;
}

std::vector<Key> Generator::RowKeys(RowId r) const {
  std::vector<Key> keys(table_.schema().num_columns());
  for (size_t c = 0; c < keys.size(); ++c) keys[c] = table_.GetKey(r, c);
  return keys;
}

Query Generator::Track(Query q, uint64_t a, uint64_t b) {
  HashMix(&hash_, a);
  HashMix(&hash_, b);
  return q;
}

Query Generator::PriceRange(double width) {
  const double lo = std::floor(rng_.UniformDouble(0, kMaxPrice - width));
  return Track(Query({Predicate::Between(table_, "Price", Value(lo),
                                         Value(lo + width))}),
               1, std::bit_cast<uint64_t>(lo));
}

Query Generator::CategoryPriceRange(double width) {
  const double mid = category_mean_price_[Pick(category_mean_price_.size())];
  const double lo = std::floor(mid - width / 2);
  return Track(Query({Predicate::Between(table_, "Price", Value(lo),
                                         Value(lo + width))}),
               3, std::bit_cast<uint64_t>(lo));
}

Query Generator::CategoryPoint(size_t col) {
  const RowId r = RowId(Pick(table_.NumRows()));
  const Key k = table_.GetKey(r, col);
  const std::string& label =
      table_.column(col).dictionary()->Get(k.AsInt64());
  return Track(Query({Predicate::Eq(table_, table_.schema().column(col).name,
                                    Value(label))}),
               4 + col, uint64_t(k.AsInt64()));
}

Query Generator::CatidPoint() {
  const int64_t cat = int64_t(Pick(category_mean_price_.size()));
  return Track(Query({Predicate::Eq(table_, "CATID", Value(cat))}), 20,
               uint64_t(cat));
}

Query Generator::ItemRange(int64_t width) {
  const int64_t n = int64_t(table_.NumRows());
  const int64_t lo = 1 + int64_t(Pick(size_t(std::max<int64_t>(1, n - width))));
  return Track(Query({Predicate::Between(table_, "ItemID", Value(lo),
                                         Value(lo + width))}),
               21, uint64_t(lo));
}

NewItem Generator::NewRow() {
  NewItem n;
  n.tpl = RowId(Pick(table_.NumRows()));
  n.item_id = next_item_++;
  n.price = Cents(table_.GetKey(n.tpl, kEbay.price).AsDouble() +
                  rng_.Gaussian(0, 100));
  HashMix(&hash_, std::bit_cast<uint64_t>(n.price));
  return n;
}

std::vector<std::vector<Key>> Generator::Rows(
    std::span<const NewItem> items) const {
  std::vector<std::vector<Key>> rows;
  rows.reserve(items.size());
  for (const NewItem& n : items) {
    std::vector<Key> row = RowKeys(n.tpl);
    row[kEbay.item_id] = Key(n.item_id);
    row[kEbay.price] = Key(n.price);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Key> Generator::Repriced(std::span<const Key> old) {
  std::vector<Key> row(old.begin(), old.end());
  row[kEbay.price] =
      Key(Cents(row[kEbay.price].AsDouble() + rng_.Gaussian(0, 50)));
  HashMix(&hash_, KeyBits(row[kEbay.price]));
  return row;
}

std::vector<Key> Generator::Recategorized(std::span<const Key> old) {
  std::vector<Key> row = RowKeys(RowId(Pick(table_.NumRows())));
  row[kEbay.item_id] = old[kEbay.item_id];
  row[kEbay.price] =
      Key(Cents(row[kEbay.price].AsDouble() + rng_.Gaussian(0, 100)));
  for (const Key& k : row) HashMix(&hash_, KeyBits(k));
  return row;
}

Zipf::Zipf(size_t n, double theta) : cdf_(n) {
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(double(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Sample(Rng* rng) const {
  const double u = rng->UniformDouble(0, 1);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(cdf_.size() - 1, size_t(it - cdf_.begin()));
}

// ---------------------------------------------------------------------------
// Writer-side model of the maintenance triggers

void EngineShadow::Reset(const ServingEngine& e) {
  rows = e.table().NumRows();
  deleted = e.table().NumDeleted();
  tail = e.TailRows();
  live_at_checkpoint = live();
  deltas.clear();
  done_seen = e.ReclustersCompleted() + e.ReclusterFailures();
}

void EngineShadow::OnAppend(size_t n, size_t arity) {
  rows += n;
  tail += n;
  deltas.push_back(int64_t(n));
  user_bytes += n * RowBytes(arity);
}

void EngineShadow::OnDelete(size_t n) {
  deleted += n;
  deltas.push_back(-int64_t(n));
  user_bytes += 8 * n;
}

void EngineShadow::OnUpdate(size_t arity) {
  ++rows;
  ++deleted;
  ++tail;
  deltas.push_back(0);
  user_bytes += RowBytes(arity) + 8;
}

bool EngineShadow::Due(const Triggers& t, bool* compact) const {
  const bool tail_due = t.tail_rows > 0 && tail >= t.tail_rows;
  *compact = t.deleted_fraction > 0 && rows > 0 &&
             double(deleted) >= t.deleted_fraction * double(rows);
  return tail_due || *compact;
}

void EngineShadow::OnPass(bool compact) {
  OnCheckpoint(compact);
  ++passes;
  compactions += compact;
  rows_rewritten += rows;
}

void EngineShadow::OnCheckpoint(bool compacted) {
  if (compacted) {
    rows -= deleted;
    deleted = 0;
  }
  tail = 0;
  live_at_checkpoint = live();
  deltas.clear();
}

Status AwaitMaintenance(const ServingEngine& e, const Triggers& t,
                        EngineShadow* sh, SpanLog* log, uint64_t op,
                        int64_t* wait_ns) {
  bool compact = false;
  while (sh->Due(t, &compact)) {
    const uint64_t failures_before = e.ReclusterFailures();
    const int64_t start = NowNs();
    uint64_t done = 0;
    for (;;) {
      done = e.ReclustersCompleted() + e.ReclusterFailures();
      if (done > sh->done_seen) break;
      if (NowNs() - start > kPassTimeoutNs) {
        return Status::Internal(
            "a write crossed a maintenance trigger but no pass published");
      }
      std::this_thread::yield();
    }
    const int64_t end = NowNs();
    if (log != nullptr) {
      log->Add(SpanName::kMaintenanceWait, op, -1, start, end);
    }
    *wait_ns += end - start;
    if (e.ReclusterFailures() != failures_before) {
      return Status::Internal("a background recluster pass failed");
    }
    sh->done_seen = done;
    sh->OnPass(compact);
  }
  return Status::OK();
}

std::vector<RowId> PickLiveRows(const Table& t, size_t n, Generator* gen) {
  const size_t rows = t.NumRows();
  std::vector<RowId> out;
  if (t.NumLiveRows() < n) return out;
  std::unordered_set<RowId> taken;
  while (out.size() < n) {
    RowId r = RowId(gen->Next() % rows);
    while (t.IsDeleted(r) || taken.count(r) > 0) r = RowId((r + 1) % rows);
    taken.insert(r);
    out.push_back(r);
  }
  return out;
}

uint64_t ScanCount(const Table& t, const Query& q) {
  return corrmap::FullTableScan(t, q).rows.size();
}

void CheckEngine(const ServingEngine& e, const std::vector<Query>& sample,
                 uint64_t expected_live, const std::string& where, Report* r) {
  if (Status s = e.CheckInvariants(); !s.ok()) {
    r->Fail(where + ": CheckInvariants: " + s.ToString());
  }
  if (e.table().NumLiveRows() != expected_live) {
    r->Fail(where + ": live rows " + std::to_string(e.table().NumLiveRows()) +
            " != oracle " + std::to_string(expected_live));
  }
  for (size_t i = 0; i < sample.size(); ++i) {
    const uint64_t probe = e.ExecuteSelect(sample[i]).num_matches;
    const uint64_t scan = ScanCount(e.table(), sample[i]);
    if (probe != scan) {
      r->Fail(where + ": probe!=scan on query " + std::to_string(i) + " (" +
              std::to_string(probe) + " vs " + std::to_string(scan) + ")");
    }
  }
}

void CheckRouter(const ShardRouter& router, const std::vector<Query>& sample,
                 uint64_t expected_live, const std::string& where, Report* r) {
  if (Status s = router.CheckInvariants(); !s.ok()) {
    r->Fail(where + ": CheckInvariants: " + s.ToString());
  }
  uint64_t live = 0;
  for (size_t i = 0; i < router.num_shards(); ++i) {
    live += router.shard(i).table().NumLiveRows();
  }
  if (live != expected_live) {
    r->Fail(where + ": live rows " + std::to_string(live) + " != oracle " +
            std::to_string(expected_live));
  }
  for (size_t i = 0; i < sample.size(); ++i) {
    const uint64_t probe = router.ExecuteSelect(sample[i]).merged.num_matches;
    uint64_t scan = 0;
    for (size_t s = 0; s < router.num_shards(); ++s) {
      scan += ScanCount(router.shard(s).table(), sample[i]);
    }
    if (probe != scan) {
      r->Fail(where + ": probe!=scan on query " + std::to_string(i) + " (" +
              std::to_string(probe) + " vs " + std::to_string(scan) + ")");
    }
  }
}

double IndexBytes(const ServingEngine& e) {
  double bytes = double(e.cidx().SizeBytes());
  for (size_t i = 0; i < e.num_cms(); ++i) bytes += double(e.cm(i).SizeBytes());
  return bytes;
}

size_t CommittedOps(const Durability& d) {
  size_t n = 0;
  for (const corrmap::WalRecord& rec : d.CommittedTail()) {
    n += rec.type == corrmap::WalRecordType::kRowAppend ||
         rec.type == corrmap::WalRecordType::kRowDelete ||
         rec.type == corrmap::WalRecordType::kRowUpdate;
  }
  return n;
}

Status DurablePrefixLive(const Durability& d, const EngineShadow& sh,
                         size_t group_commit_ops, uint64_t* live) {
  const size_t k = CommittedOps(d);
  const size_t logged = sh.deltas.size();
  if (k > logged) {
    return Status::Corruption("log holds " + std::to_string(k) +
                              " committed ops, only " +
                              std::to_string(logged) + " were written");
  }
  if (logged - k > 2 * group_commit_ops - 1) {
    return Status::Corruption("crash lost " + std::to_string(logged - k) +
                              " acknowledged ops, more than one open batch "
                              "plus one torn flush");
  }
  int64_t v = int64_t(sh.live_at_checkpoint);
  for (size_t i = 0; i < k; ++i) v += sh.deltas[i];
  *live = uint64_t(v);
  return Status::OK();
}

}  // namespace servebench

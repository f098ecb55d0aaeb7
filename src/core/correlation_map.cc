#include "core/correlation_map.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace corrmap {

namespace {

/// Run-length encodes sorted distinct ordinals into maximal consecutive
/// runs. Consecutive means ordinal + 1: adjacent clustered bucket ids,
/// adjacent integer keys, or bit-adjacent double encodings (between which
/// no representable value exists), so expanding a run never adds ordinals
/// the lookup did not return.
CmLookupResult MakeResult(std::vector<int64_t> ordinals,
                          uint64_t entries_probed, bool used_directory) {
  std::sort(ordinals.begin(), ordinals.end());
  ordinals.erase(std::unique(ordinals.begin(), ordinals.end()),
                 ordinals.end());
  CmLookupResult out;
  out.num_ordinals = ordinals.size();
  out.entries_probed = entries_probed;
  out.used_directory = used_directory;
  for (int64_t o : ordinals) {
    if (!out.ranges.empty() &&
        out.ranges.back().hi != std::numeric_limits<int64_t>::max() &&
        o == out.ranges.back().hi + 1) {
      out.ranges.back().hi = o;
    } else {
      out.ranges.push_back({o, o});
    }
  }
  return out;
}

}  // namespace

std::string CmKey::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < n; ++i) {
    if (i) out += ",";
    out += std::to_string(v[i]);
  }
  return out + "]";
}

uint64_t FingerprintCmPredicates(std::span<const CmColumnPredicate> preds) {
  uint64_t h = Mix64(0x636d666dULL ^ preds.size());
  for (const CmColumnPredicate& p : preds) {
    h = Mix64(h ^ uint64_t(p.kind));
    if (p.kind == CmColumnPredicate::Kind::kPoints) {
      h = Mix64(h ^ p.points.size());
      for (const Key& k : p.points) h = Mix64(h ^ k.Hash());
    } else {
      h = Mix64(h ^ std::bit_cast<uint64_t>(p.lo));
      h = Mix64(h ^ std::bit_cast<uint64_t>(p.hi));
    }
  }
  return h;
}

std::vector<int64_t> CmLookupResult::ToOrdinals() const {
  std::vector<int64_t> out;
  out.reserve(num_ordinals);
  for (const OrdinalRange& r : ranges) {
    for (int64_t o = r.lo;; ++o) {
      out.push_back(o);
      if (o == r.hi) break;
    }
  }
  return out;
}

Result<CorrelationMap> CorrelationMap::Create(const Table* table,
                                              CmOptions options) {
  if (options.u_cols.empty() ||
      options.u_cols.size() > kMaxCmAttributes) {
    return Status::InvalidArgument("CM needs 1..4 unclustered attributes");
  }
  if (options.u_bucketers.size() != options.u_cols.size()) {
    return Status::InvalidArgument("one bucketer per CM attribute required");
  }
  for (size_t c : options.u_cols) {
    if (c >= table->schema().num_columns()) {
      return Status::OutOfRange("CM attribute out of range");
    }
  }
  if (options.c_col >= table->schema().num_columns()) {
    return Status::OutOfRange("clustered attribute out of range");
  }
  if (table->clustered_column() != static_cast<int>(options.c_col)) {
    return Status::InvalidArgument(
        "table must be clustered on the CM's clustered attribute");
  }
  return CorrelationMap(table, std::move(options));
}

CmKey CorrelationMap::UKeyOfRow(RowId row) const {
  CmKey key;
  for (size_t i = 0; i < options_.u_cols.size(); ++i) {
    key.Append(
        options_.u_bucketers[i].BucketOf(table_->GetKey(row, options_.u_cols[i])));
  }
  return key;
}

CmKey CorrelationMap::UKeyOfValues(std::span<const Key> u_keys) const {
  assert(u_keys.size() == options_.u_cols.size());
  CmKey key;
  for (size_t i = 0; i < u_keys.size(); ++i) {
    key.Append(options_.u_bucketers[i].BucketOf(u_keys[i]));
  }
  return key;
}

int64_t CorrelationMap::ClusteredOrdinalOfRow(RowId row) const {
  if (options_.c_buckets != nullptr) {
    return options_.c_buckets->BucketOfRow(row);
  }
  const Key k = table_->GetKey(row, options_.c_col);
  return k.is_double() ? OrderedDoubleOrdinal(k.AsDouble()) : k.AsInt64();
}

Key CorrelationMap::DecodeClusteredOrdinal(int64_t ordinal) const {
  assert(!has_clustered_buckets());
  const bool is_double =
      table_->schema().column(options_.c_col).type == ValueType::kDouble;
  return is_double ? Key(OrderedOrdinalToDouble(ordinal)) : Key(ordinal);
}

Status CorrelationMap::BuildFromTable() {
  // Algorithm 1: scan, bucket both sides, upsert co-occurrence counts.
  const size_t n = table_->NumRows();
  for (RowId r = 0; r < n; ++r) {
    if (table_->IsDeleted(r)) continue;
    InsertRow(r);
  }
  return Status::OK();
}

std::vector<CorrelationMap::Record> CorrelationMap::LiveRecords(
    size_t row_limit) const {
  // Algorithm 1: scan, bucket both sides, count co-occurrences. The counts
  // live in `records`, one per distinct pair in first-seen order; `slots`
  // is an open-addressing index over records[indexed_from..] (a slot holds
  // a record's index + 1, so any value <= indexed_from is vacant), kept at
  // most half full. While the clustered ordinals never decrease -- the
  // clustered region -- a pair can recur only within its ordinal's run, so
  // each new run just moves indexed_from past the records before it and
  // the index stays the size of one run. The first row whose ordinal falls
  // below its predecessor's (an unordered tail) indexes every record, and
  // the index stays global from then on.
  const size_t n = std::min(row_limit, table_->NumRows());
  std::vector<Record> records;
  std::vector<uint32_t> slots(64, 0);
  size_t mask = slots.size() - 1;
  size_t indexed_from = 0;
  bool ordered = true;
  const auto slot_of = [&mask](const CmKey& u, int64_t c) {
    return size_t(CmKeyHash{}(u) ^ (uint64_t(c) * 0x9e3779b97f4a7c15ULL)) &
           mask;
  };
  const auto reindex = [&](size_t capacity) {
    slots.assign(capacity, 0);
    mask = capacity - 1;
    for (size_t k = indexed_from; k < records.size(); ++k) {
      size_t j = slot_of(records[k].u, records[k].c_ordinal);
      while (slots[j] != 0) j = (j + 1) & mask;
      slots[j] = uint32_t(k + 1);
    }
  };
  for (RowId r = 0; r < n; ++r) {
    if (table_->IsDeleted(r)) continue;
    const CmKey u = UKeyOfRow(r);
    const int64_t c = ClusteredOrdinalOfRow(r);
    if (ordered && !records.empty() && c != records.back().c_ordinal) {
      // records.back() opened the current run (a run's first row is new).
      if (c > records.back().c_ordinal) {
        indexed_from = records.size();
      } else {
        ordered = false;
        indexed_from = 0;
        reindex(std::bit_ceil(2 * records.size() + 2));
      }
    }
    size_t i = slot_of(u, c);
    while (slots[i] > indexed_from &&
           !(records[slots[i] - 1].c_ordinal == c &&
             records[slots[i] - 1].u == u)) {
      i = (i + 1) & mask;
    }
    if (slots[i] > indexed_from) {
      ++records[slots[i] - 1].count;
      continue;
    }
    records.push_back({u, c, 1});
    slots[i] = uint32_t(records.size());
    if ((records.size() - indexed_from) * 2 > slots.size()) {
      reindex(slots.size() * 2);
    }
  }
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              return a.u == b.u ? a.c_ordinal < b.c_ordinal : a.u < b.u;
            });
  return records;
}

void CorrelationMap::InsertRow(RowId row) {
  UpsertPair(UKeyOfRow(row), ClusteredOrdinalOfRow(row));
}

Status CorrelationMap::DeleteRow(RowId row) {
  return RetractPair(UKeyOfRow(row), ClusteredOrdinalOfRow(row));
}

void CorrelationMap::UpsertPair(const CmKey& u_key, int64_t c_ordinal,
                                uint32_t count) {
  auto [mit, new_key] = map_.try_emplace(u_key);
  if (new_key) NoteKeyAdded(mit->first);
  auto [it, inserted] = mit->second.emplace(c_ordinal, count);
  if (inserted) {
    ++num_entries_;
  } else {
    it->second += count;
  }
}

Status CorrelationMap::RetractPair(const CmKey& u_key, int64_t c_ordinal) {
  auto mit = map_.find(u_key);
  if (mit == map_.end()) return Status::NotFound("u-key not mapped");
  auto cit = mit->second.find(c_ordinal);
  if (cit == mit->second.end()) {
    return Status::NotFound("clustered ordinal not mapped for u-key");
  }
  if (--cit->second == 0) {
    mit->second.erase(cit);
    --num_entries_;
    if (mit->second.empty()) {
      map_.erase(mit);
      NoteKeyErased(u_key);
    }
  }
  return Status::OK();
}

size_t CorrelationMap::InsertRowsBatched(std::span<const RowId> rows) {
  // Bucket every row once, then sort so equal u-keys (and within them,
  // equal clustered ordinals) are adjacent: one hash traversal per
  // distinct u-key and one count upsert per distinct pair, instead of one
  // hash traversal per row.
  if (rows.empty()) return 0;
  std::vector<std::pair<CmKey, int64_t>> pairs;
  pairs.reserve(rows.size());
  for (RowId r : rows) {
    pairs.emplace_back(UKeyOfRow(r), ClusteredOrdinalOfRow(r));
  }
  return UpsertPairsBatched(std::move(pairs));
}

size_t CorrelationMap::UpsertPairsBatched(
    std::vector<std::pair<CmKey, int64_t>> pairs) {
  if (pairs.empty()) return 0;
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) {
              if (a.first < b.first) return true;
              if (b.first < a.first) return false;
              return a.second < b.second;
            });
  size_t groups = 0;
  size_t i = 0;
  while (i < pairs.size()) {
    const CmKey key = pairs[i].first;
    auto [mit, new_key] = map_.try_emplace(key);
    if (new_key) NoteKeyAdded(key);
    while (i < pairs.size() && pairs[i].first == key) {
      const int64_t c = pairs[i].second;
      uint32_t cnt = 0;
      while (i < pairs.size() && pairs[i].first == key &&
             pairs[i].second == c) {
        ++cnt;
        ++i;
      }
      auto [cit, inserted] = mit->second.emplace(c, cnt);
      if (inserted) {
        ++num_entries_;
      } else {
        cit->second += cnt;
      }
      ++groups;
    }
  }
  return groups;
}

Status CorrelationMap::RetractPairsBatched(
    std::vector<std::pair<CmKey, int64_t>> pairs) {
  // Mirror of UpsertPairsBatched: sort so equal pairs are adjacent, then
  // subtract one aggregated count per distinct (u-key, ordinal) pair. A
  // NotFound mid-batch means the caller retracted a pair that was never
  // inserted; the map is corrupt either way, so no rollback is attempted.
  if (pairs.empty()) return Status::OK();
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) {
              if (a.first < b.first) return true;
              if (b.first < a.first) return false;
              return a.second < b.second;
            });
  size_t i = 0;
  while (i < pairs.size()) {
    const CmKey key = pairs[i].first;
    auto mit = map_.find(key);
    if (mit == map_.end()) return Status::NotFound("u-key not mapped");
    while (i < pairs.size() && pairs[i].first == key) {
      const int64_t c = pairs[i].second;
      uint32_t cnt = 0;
      while (i < pairs.size() && pairs[i].first == key &&
             pairs[i].second == c) {
        ++cnt;
        ++i;
      }
      auto cit = mit->second.find(c);
      if (cit == mit->second.end() || cit->second < cnt) {
        return Status::NotFound("clustered ordinal not mapped for u-key");
      }
      cit->second -= cnt;
      if (cit->second == 0) {
        mit->second.erase(cit);
        --num_entries_;
      }
    }
    if (mit->second.empty()) {
      map_.erase(mit);
      NoteKeyErased(key);
    }
  }
  return Status::OK();
}

void CorrelationMap::InsertValues(std::span<const Key> u_keys,
                                  int64_t c_ordinal) {
  UpsertPair(UKeyOfValues(u_keys), c_ordinal);
}

Status CorrelationMap::DeleteValues(std::span<const Key> u_keys,
                                    int64_t c_ordinal) {
  return RetractPair(UKeyOfValues(u_keys), c_ordinal);
}

bool CorrelationMap::BuildConstraints(
    std::span<const CmColumnPredicate> preds,
    std::vector<ColumnConstraint>* out) const {
  out->clear();
  out->resize(preds.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    const Bucketer& b = options_.u_bucketers[i];
    const CmColumnPredicate& p = preds[i];
    ColumnConstraint& c = (*out)[i];
    if (p.kind == CmColumnPredicate::Kind::kPoints) {
      c.points.reserve(p.points.size());
      for (const Key& pt : p.points) c.points.push_back(b.BucketOf(pt));
      std::sort(c.points.begin(), c.points.end());
      c.points.erase(std::unique(c.points.begin(), c.points.end()),
                     c.points.end());
      if (c.points.empty()) return false;
    } else {
      c.is_range = true;
      const bool double_domain =
          table_->schema().column(options_.u_cols[i]).type ==
          ValueType::kDouble;
      std::tie(c.lo, c.hi) = b.OrdinalRangeCovering(p.lo, p.hi, double_domain);
      if (c.lo > c.hi) return false;
    }
  }
  return true;
}

bool CorrelationMap::MatchesConstraints(
    const CmKey& key, std::span<const ColumnConstraint> cons, size_t skip) {
  for (size_t i = 0; i < cons.size(); ++i) {
    if (i == skip) continue;
    const int64_t ordinal = key.v[i];
    const ColumnConstraint& c = cons[i];
    if (c.is_range) {
      if (ordinal < c.lo || ordinal > c.hi) return false;
    } else if (!std::binary_search(c.points.begin(), c.points.end(),
                                   ordinal)) {
      return false;
    }
  }
  return true;
}

void CorrelationMap::NoteKeyDirty(std::vector<CmKey>* delta,
                                  const CmKey& key) {
  if (directory_full_rebuild_) return;
  delta->push_back(key);
  // Past the threshold an incremental merge no longer beats the wholesale
  // rebuild; degrade once and drop the (now pointless) delta. Repeated
  // notes of one hot key all count toward the threshold, so a key toggled
  // many times between syncs can trigger a rebuild for a small true dirty
  // set -- a deliberately conservative (cheap) size test.
  if ((delta_added_.size() + delta_erased_.size()) *
          kDirectoryDeltaMaxInverseFraction >
      std::max<size_t>(kDirectoryDeltaMinKeys, map_.size())) {
    directory_full_rebuild_ = true;
    delta_added_.clear();
    delta_erased_.clear();
  }
}

void CorrelationMap::NoteKeyAdded(const CmKey& key) {
  NoteKeyDirty(&delta_added_, key);
}

void CorrelationMap::NoteKeyErased(const CmKey& key) {
  NoteKeyDirty(&delta_erased_, key);
}

void CorrelationMap::EnsureDirectory() const {
  if (directory_full_rebuild_) {
    RebuildDirectory();
  } else if (!delta_added_.empty() || !delta_erased_.empty()) {
    MergeDirectoryDelta();
  }
}

void CorrelationMap::RebuildDirectory() const {
  const size_t arity = options_.u_cols.size();
  directory_.assign(arity, {});
  for (auto& d : directory_) d.reserve(map_.size());
  for (const auto& entry : map_) {
    for (size_t i = 0; i < arity; ++i) {
      directory_[i].push_back({entry.first.v[i], &entry, entry.first});
    }
  }
  for (auto& d : directory_) {
    std::sort(d.begin(), d.end(), [](const DirEntry& a, const DirEntry& b) {
      return a.ordinal < b.ordinal;
    });
  }
  directory_full_rebuild_ = false;
  delta_added_.clear();
  delta_erased_.clear();
  ++directory_full_rebuilds_;
}

void CorrelationMap::MergeDirectoryDelta() const {
  // Erases first: a key erased and later re-added appears in both deltas,
  // and its directory slots (whose node pointers dangle) are matched by
  // the stored key copy, never by dereferencing. Then the surviving added
  // keys -- those still mapped -- are merged in as a sorted run per
  // attribute, so an append-only workload pays O(delta log delta + n)
  // instead of the O(n log n) wholesale rebuild.
  const size_t arity = options_.u_cols.size();
  if (!delta_erased_.empty()) {
    std::sort(delta_erased_.begin(), delta_erased_.end());
    delta_erased_.erase(
        std::unique(delta_erased_.begin(), delta_erased_.end()),
        delta_erased_.end());
    for (auto& d : directory_) {
      d.erase(std::remove_if(d.begin(), d.end(),
                             [&](const DirEntry& e) {
                               return std::binary_search(
                                   delta_erased_.begin(),
                                   delta_erased_.end(), e.key);
                             }),
              d.end());
    }
  }
  if (!delta_added_.empty()) {
    std::sort(delta_added_.begin(), delta_added_.end());
    delta_added_.erase(std::unique(delta_added_.begin(), delta_added_.end()),
                       delta_added_.end());
    std::vector<DirEntry> adds;
    adds.reserve(delta_added_.size());
    for (size_t i = 0; i < arity; ++i) {
      adds.clear();
      for (const CmKey& key : delta_added_) {
        auto it = map_.find(key);
        if (it == map_.end()) continue;  // added then erased again
        adds.push_back({key.v[i], &*it, key});
      }
      std::sort(adds.begin(), adds.end(),
                [](const DirEntry& a, const DirEntry& b) {
                  return a.ordinal < b.ordinal;
                });
      auto& d = directory_[i];
      const size_t mid = d.size();
      d.insert(d.end(), adds.begin(), adds.end());
      std::inplace_merge(d.begin(), d.begin() + std::ptrdiff_t(mid), d.end(),
                         [](const DirEntry& a, const DirEntry& b) {
                           return a.ordinal < b.ordinal;
                         });
    }
  }
  delta_added_.clear();
  delta_erased_.clear();
  ++directory_incremental_merges_;
}

bool CorrelationMap::HasRangePredicate(
    std::span<const CmColumnPredicate> preds) {
  for (const CmColumnPredicate& p : preds) {
    if (p.kind == CmColumnPredicate::Kind::kRange) return true;
  }
  return false;
}

bool CorrelationMap::CompilePointProbeKeys(
    std::span<const CmColumnPredicate> preds, std::vector<CmKey>* out) const {
  assert(preds.size() == options_.u_cols.size());
  out->clear();
  std::vector<ColumnConstraint> cons;
  if (!BuildConstraints(preds, &cons)) return false;
  size_t cross = 1;
  for (const ColumnConstraint& c : cons) {
    if (c.is_range) return false;
    cross *= c.points.size();
  }
  // Cross product of per-column bucket ordinals (mixed-radix counter).
  out->reserve(cross);
  std::vector<size_t> idx(cons.size(), 0);
  while (true) {
    CmKey key;
    for (size_t i = 0; i < cons.size(); ++i) {
      key.Append(cons[i].points[idx[i]]);
    }
    out->push_back(key);
    size_t i = 0;
    for (; i < idx.size(); ++i) {
      if (++idx[i] < cons[i].points.size()) break;
      idx[i] = 0;
    }
    if (i == idx.size()) break;
  }
  return true;
}

CmLookupResult CorrelationMap::LookupKeys(std::span<const CmKey> keys) const {
  lookups_computed_.fetch_add(1, std::memory_order_relaxed);
  std::vector<int64_t> ordinals;
  uint64_t pairs_probed = 0;
  for (const CmKey& key : keys) {
    auto it = map_.find(key);
    if (it == map_.end()) continue;
    pairs_probed += it->second.size();
    for (const auto& [c, cnt] : it->second) ordinals.push_back(c);
  }
  return MakeResult(std::move(ordinals), pairs_probed,
                    /*used_directory=*/false);
}

CmLookupResult CorrelationMap::Lookup(
    std::span<const CmColumnPredicate> preds) const {
  assert(preds.size() == options_.u_cols.size());
  if (!HasRangePredicate(preds)) {
    // All-points predicates probe the hash map key by key.
    std::vector<CmKey> keys;
    if (!CompilePointProbeKeys(preds, &keys)) {
      lookups_computed_.fetch_add(1, std::memory_order_relaxed);
      return CmLookupResult{};  // a constraint is provably empty
    }
    return LookupKeys(keys);
  }
  lookups_computed_.fetch_add(1, std::memory_order_relaxed);
  std::vector<ColumnConstraint> cons;
  if (!BuildConstraints(preds, &cons)) return CmLookupResult{};

  std::vector<int64_t> ordinals;

  // Range predicate present: binary-search the sorted directory of the
  // range column with the narrowest run, then filter that run on the
  // remaining constraints.
  EnsureDirectory();
  size_t probe_col = cons.size();
  std::pair<std::vector<DirEntry>::const_iterator,
            std::vector<DirEntry>::const_iterator>
      run;
  size_t best_width = std::numeric_limits<size_t>::max();
  for (size_t i = 0; i < cons.size(); ++i) {
    if (!cons[i].is_range) continue;
    const auto& d = directory_[i];
    auto first = std::lower_bound(
        d.begin(), d.end(), cons[i].lo,
        [](const DirEntry& e, int64_t v) { return e.ordinal < v; });
    auto last = std::upper_bound(
        first, d.end(), cons[i].hi,
        [](int64_t v, const DirEntry& e) { return v < e.ordinal; });
    const size_t width = size_t(last - first);
    if (width < best_width) {
      best_width = width;
      probe_col = i;
      run = {first, last};
    }
  }
  uint64_t pairs_probed = 0;
  for (auto it = run.first; it != run.second; ++it) {
    pairs_probed += it->entry->second.size();
    if (!MatchesConstraints(it->key, cons, probe_col)) continue;
    for (const auto& [c, cnt] : it->entry->second) ordinals.push_back(c);
  }
  return MakeResult(std::move(ordinals), pairs_probed,
                    /*used_directory=*/true);
}

CmLookupResult CorrelationMap::LookupViaScan(
    std::span<const CmColumnPredicate> preds) const {
  assert(preds.size() == options_.u_cols.size());
  lookups_computed_.fetch_add(1, std::memory_order_relaxed);
  std::vector<ColumnConstraint> cons;
  if (!BuildConstraints(preds, &cons)) return CmLookupResult{};
  std::vector<int64_t> ordinals;
  for (const auto& [key, counts] : map_) {
    if (!MatchesConstraints(key, cons, cons.size())) continue;
    for (const auto& [c, cnt] : counts) ordinals.push_back(c);
  }
  return MakeResult(std::move(ordinals), num_entries_,
                    /*used_directory=*/false);
}

std::vector<int64_t> CorrelationMap::CmLookup(
    std::span<const CmColumnPredicate> preds) const {
  return Lookup(preds).ToOrdinals();
}

uint64_t CorrelationMap::SizeBytes() const {
  return uint64_t(num_entries_) * EntryBytes();
}

uint64_t CorrelationMap::PagesForEntries(uint64_t entries,
                                         size_t page_size) const {
  return (entries * EntryBytes() + page_size - 1) / page_size;
}

std::string CorrelationMap::Name() const {
  std::string name = "cm";
  for (size_t i = 0; i < options_.u_cols.size(); ++i) {
    name += "_" + table_->schema().column(options_.u_cols[i]).name;
    if (!options_.u_bucketers[i].is_identity()) {
      name += '(';
      name += options_.u_bucketers[i].ToString();
      name += ')';
    }
  }
  return name;
}

CorrelationMap CorrelationMap::CloneRetargeted(const Table* table) const {
  assert(options_.c_buckets == nullptr &&
         "positional (c-bucketed) CMs cannot survive a physical reorder");
  CorrelationMap out(*this);  // copy ctor: map/entries, dirty directory
  out.table_ = table;
  return out;
}

Status CorrelationMap::CheckInvariants() const {
  size_t pairs = 0;
  for (const auto& [key, counts] : map_) {
    if (key.n != options_.u_cols.size()) {
      return Status::Corruption("u-key arity mismatch");
    }
    if (counts.empty()) return Status::Corruption("empty u-key entry");
    for (const auto& [c, cnt] : counts) {
      if (cnt == 0) return Status::Corruption("zero co-occurrence count");
      ++pairs;
    }
  }
  if (pairs != num_entries_) {
    return Status::Corruption("entry count mismatch");
  }
  return Status::OK();
}

std::vector<CorrelationMap::Record> CorrelationMap::ToRecords() const {
  std::vector<Record> out;
  out.reserve(num_entries_);
  for (const auto& [key, counts] : map_) {
    for (const auto& [c, cnt] : counts) out.push_back({key, c, cnt});
  }
  return out;
}

Status CorrelationMap::LoadRecords(std::span<const Record> records) {
  map_.clear();
  num_entries_ = 0;
  directory_full_rebuild_ = true;
  delta_added_.clear();
  delta_erased_.clear();
  // Consecutive records of one u-key (all of them, when sorted) share one
  // hash lookup (element pointers survive rehashes), and ascending
  // ordinals append at the count map's end.
  HashMap::value_type* entry = nullptr;
  for (const auto& rec : records) {
    if (rec.u.n != options_.u_cols.size()) {
      return Status::Corruption("record arity mismatch");
    }
    if (rec.count == 0) return Status::Corruption("zero count record");
    if (entry == nullptr || !(entry->first == rec.u)) {
      entry = &*map_.try_emplace(rec.u).first;
    }
    CountMap& counts = entry->second;
    const size_t before = counts.size();
    counts.emplace_hint(counts.end(), rec.c_ordinal, rec.count);
    if (counts.size() == before) return Status::Corruption("duplicate record");
    ++num_entries_;
  }
  return Status::OK();
}

}  // namespace corrmap

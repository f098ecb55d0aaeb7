#include "serve/concurrent_cm.h"

namespace corrmap::serve {

Result<ConcurrentCorrelationMap> ConcurrentCorrelationMap::Create(
    const Table* table, CmOptions options) {
  auto cm = CorrelationMap::Create(table, std::move(options));
  if (!cm.ok()) return cm.status();
  return ConcurrentCorrelationMap(std::move(*cm));
}

Status ConcurrentCorrelationMap::BuildFromTable(size_t row_limit) {
  const std::vector<CorrelationMap::Record> records =
      cm_.LiveRecords(row_limit);
  if (records.empty()) return Status::OK();
  BeginMaintenance();
  Status st;
  {
    const auto lock = WriteLock();
    st = cm_.LoadRecords(records);
    cm_.SyncDirectory();
  }
  EndMaintenance();
  return st;
}

ConcurrentCorrelationMap::Pairs ConcurrentCorrelationMap::PairsOf(
    std::span<const RowId> rows) const {
  Pairs pairs;
  pairs.reserve(rows.size());
  for (const RowId r : rows) {
    pairs.emplace_back(cm_.UKeyOfRow(r), cm_.ClusteredOrdinalOfRow(r));
  }
  return pairs;
}

void ConcurrentCorrelationMap::InsertRow(RowId row) {
  const RowId one[1] = {row};
  InsertRowsBatched(one);
}

Status ConcurrentCorrelationMap::DeleteRow(RowId row) {
  const RowId one[1] = {row};
  return DeleteRowsBatched(one);
}

size_t ConcurrentCorrelationMap::InsertRowsBatched(
    std::span<const RowId> rows) {
  // An empty batch must not bump the epoch (it would invalidate every
  // cached lookup for a no-op).
  if (rows.empty()) return 0;
  Pairs pairs = PairsOf(rows);
  BeginMaintenance();
  size_t groups = 0;
  {
    const auto lock = WriteLock();
    groups = cm_.UpsertPairsBatched(std::move(pairs));
    cm_.SyncDirectory();
  }
  EndMaintenance();
  return groups;
}

Status ConcurrentCorrelationMap::DeleteRowsBatched(
    std::span<const RowId> rows) {
  if (rows.empty()) return Status::OK();
  Pairs pairs = PairsOf(rows);
  BeginMaintenance();
  Status st;
  {
    const auto lock = WriteLock();
    st = cm_.RetractPairsBatched(std::move(pairs));
    cm_.SyncDirectory();
  }
  EndMaintenance();
  return st;
}

void ConcurrentCorrelationMap::InsertValues(std::span<const Key> u_keys,
                                            int64_t c_ordinal) {
  const CmKey key = cm_.UKeyOfValues(u_keys);
  BeginMaintenance();
  {
    const auto lock = WriteLock();
    cm_.UpsertPair(key, c_ordinal);
    cm_.SyncDirectory();
  }
  EndMaintenance();
}

Status ConcurrentCorrelationMap::DeleteValues(std::span<const Key> u_keys,
                                              int64_t c_ordinal) {
  const CmKey key = cm_.UKeyOfValues(u_keys);
  BeginMaintenance();
  Status st;
  {
    const auto lock = WriteLock();
    st = cm_.RetractPair(key, c_ordinal);
    cm_.SyncDirectory();
  }
  EndMaintenance();
  return st;
}

CmLookupResult ConcurrentCorrelationMap::Lookup(
    std::span<const CmColumnPredicate> preds) const {
  {
    // Point lookups never touch the directory; range lookups mutate
    // nothing while it is in sync, which writers guarantee on unlock.
    const auto lock = ReadLock();
    if (!CorrelationMap::HasRangePredicate(preds) || cm_.DirectoryClean()) {
      return cm_.Lookup(preds);
    }
  }
  const auto lock = WriteLock();
  return cm_.Lookup(preds);
}

CmPlanView ConcurrentCorrelationMap::PlanView(
    const CmLookupResult* lookup) const {
  CmPlanView view;
  view.lookup = lookup;
  view.c_buckets = options().c_buckets;
  view.num_ukeys = NumUKeys();
  view.name = Name();
  return view;
}

size_t ConcurrentCorrelationMap::NumUKeys() const {
  const auto lock = ReadLock();
  return cm_.NumUKeys();
}

size_t ConcurrentCorrelationMap::NumEntries() const {
  const auto lock = ReadLock();
  return cm_.NumEntries();
}

uint64_t ConcurrentCorrelationMap::SizeBytes() const {
  const auto lock = ReadLock();
  return cm_.SizeBytes();
}

std::vector<CorrelationMap::Record> ConcurrentCorrelationMap::ToRecords()
    const {
  const auto lock = ReadLock();
  return cm_.ToRecords();
}

ConcurrentCorrelationMap ConcurrentCorrelationMap::CloneRetargeted(
    const Table* table) const {
  const auto lock = ReadLock();
  ConcurrentCorrelationMap out(cm_.CloneRetargeted(table));
  out.epoch_.store(Epoch(), std::memory_order_release);
  return out;
}

Status ConcurrentCorrelationMap::CheckInvariants() const {
  const auto lock = ReadLock();
  return cm_.CheckInvariants();
}

}  // namespace corrmap::serve

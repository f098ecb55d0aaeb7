#include "core/maintenance.h"

#include <algorithm>
#include <cassert>

namespace corrmap {

MaintenanceDriver::MaintenanceDriver(Table* table, BufferPool* pool,
                                     WriteAheadLog* wal,
                                     MaintenanceConfig config)
    : table_(table), pool_(pool), wal_(wal), config_(config) {
  heap_file_ = pool_->RegisterFile();
}

double MaintenanceDriver::DrainIoMs() {
  DiskStats io = pool_->DrainIo();
  io += wal_->DrainIo();
  report_.io += io;
  return config_.disk.CostMs(io);
}

void MaintenanceDriver::InsertBatch(const std::vector<std::vector<Key>>& rows) {
  const uint64_t txn = next_txn_++;
  double cpu_ms = 0;

  // 1. Heap appends: new tuples land on the tail pages (sequential dirty).
  std::vector<RowId> new_rows;
  new_rows.reserve(rows.size());
  for (const auto& row : rows) {
    const RowId rid = table_->NumRows();
    table_->AppendRowKeys(std::span<const Key>(row.data(), row.size()));
    new_rows.push_back(rid);
    pool_->Access(PageId{heap_file_, table_->layout().PageOfRow(rid)},
                  /*mark_dirty=*/true);
    cpu_ms += config_.cpu_per_insert_ms;
    // Base-table WAL record (full tuple image).
    wal_->Append({WalRecordType::kCmInsert, txn,
                  std::string(table_->layout().tuple_bytes, 'x')});
  }

  // 2. Secondary B+Tree maintenance: random leaf pages dirtied through the
  // shared pool. The batched path mirrors the CM sort-and-merge below:
  // sort the batch by key, group runs of equal keys, and descend once per
  // distinct key (plus once per row spilling past a full leaf), so the
  // CPU charge scales with descents actually performed, not rows.
  for (SecondaryIndex* idx : btrees_) {
    if (config_.sort_batches) {
      size_t descents = 0;
      Status s = idx->InsertRowsBatched(new_rows, &descents);
      assert(s.ok());
      (void)s;
      cpu_ms += config_.cpu_per_index_update_ms * double(descents);
    } else {
      for (RowId r : new_rows) {
        Status s = idx->InsertRow(r);
        assert(s.ok());
        (void)s;
        cpu_ms += config_.cpu_per_index_update_ms;
      }
    }
  }

  // 3. CM maintenance: in-RAM hash updates + logical WAL records. The
  // batched path sorts the batch by (u-key, clustered ordinal) and merges
  // one upsert per distinct pair, so a 10k-tuple batch pays hash traffic
  // proportional to its distinct pairs, not its rows; post-state is
  // identical to the row-at-a-time path. WAL records stay per-row (each
  // row must be redoable on its own).
  for (CorrelationMap* cm : cms_) {
    size_t map_updates = new_rows.size();
    if (config_.sort_batches) {
      map_updates = cm->InsertRowsBatched(new_rows);
    } else {
      for (RowId r : new_rows) cm->InsertRow(r);
    }
    for (RowId r : new_rows) {
      (void)r;
      // Logical redo record: (cm id, u ordinals, c ordinal).
      wal_->Append({WalRecordType::kCmInsert, txn,
                    std::string(8 * cm->options().u_cols.size() + 12, 'c')});
    }
    cpu_ms += config_.cpu_per_index_update_ms * double(map_updates);
  }

  // 4. Two-phase commit: prepare + commit each force a log flush (§7.1).
  wal_->Prepare(txn);
  wal_->Commit(txn);

  report_.tuples_inserted += rows.size();
  report_.insert_ms += cpu_ms + DrainIoMs();
}

Status MaintenanceDriver::ReclusterHeap(ClusteredIndex* cidx) {
  if (!btrees_.empty()) {
    return Status::InvalidArgument(
        "secondary B+Trees hold RowIds the re-sort invalidates; detach and "
        "rebuild them instead");
  }
  for (const CorrelationMap* cm : cms_) {
    if (cm->has_clustered_buckets()) {
      return Status::InvalidArgument(
          "c-bucketed CM ordinals are positional; rebuild the CM instead");
    }
  }
  const size_t col = cidx->column();
  const uint64_t heap_pages = table_->NumPages();
  Status s = table_->ClusterBy(col);
  if (!s.ok()) return s;
  auto rebuilt = ClusteredIndex::Build(*table_, col);
  if (!rebuilt.ok()) return rebuilt.status();
  *cidx = std::move(*rebuilt);
  // The rewrite reads every heap page and writes it back in sorted order.
  DiskStats io;
  io.seq_pages += 2 * heap_pages;
  report_.io += io;
  report_.insert_ms += config_.disk.CostMs(io);
  return Status::OK();
}

ExecResult MaintenanceDriver::SelectViaBTree(const SecondaryIndex& index,
                                             const Query& query) {
  // The index probe touches its own pages via the tree's pool hooks; heap
  // pages of matching rids are then fetched through the pool (bitmap-style,
  // page-deduplicated).
  ExecResult out;
  out.path = "sorted_index_scan(pooled)";
  const Predicate* pred = FindPredicateOn(query, index.columns().front());
  assert(pred != nullptr);
  size_t n_probes = 0;
  std::vector<RowId> rids =
      SecondaryIndexRids(*table_, index, *pred, &n_probes);
  std::sort(rids.begin(), rids.end());
  RowFilterCounts counts;
  std::vector<PageNo> pages;
  pages.reserve(rids.size());
  FilterRidList(*table_, query, rids, &counts, &out.rows, &pages);
  out.rows_examined = counts.examined;
  // Heap pages: misses are swept in page order (readahead merges small
  // gaps), so the read cost is run-based; the pool caches what was read.
  std::vector<PageNo> missed;
  PageNo last = PageNo(-1);
  for (const PageNo p : pages) {
    if (p == last) continue;
    if (!pool_->Touch(PageId{heap_file_, p})) missed.push_back(p);
    last = p;
  }
  out.io =
      CostOfRuns(ExtractRuns(std::move(missed), config_.disk.RunGapPages()));
  out.io += pool_->DrainIo();  // index-page misses + eviction write-backs
  report_.io += out.io;
  out.ms = config_.disk.CostMs(out.io);
  report_.select_ms += out.ms;
  return out;
}

ExecResult MaintenanceDriver::SelectViaCm(const CorrelationMap& cm,
                                          const ClusteredIndex& cidx,
                                          const Query& query) {
  ExecResult out;
  out.path = "cm_scan(pooled)";
  auto preds = CmPredicatesFor(cm, query);
  assert(preds.ok());
  const CmLookupResult res = cm.Lookup(*preds);
  const CmRowRanges rr = TranslateCmRuns(*table_, cidx, cm.options(), res);
  RowFilterCounts counts;
  std::vector<PageNo> pages;
  for (const RowRange& range : rr.ranges) {
    FilterRowRange(*table_, query, range, &counts, &out.rows, &pages);
  }
  out.rows_examined = counts.examined;
  std::vector<PageNo> missed;
  for (const PageNo p : pages) {
    if (!pool_->Touch(PageId{heap_file_, p})) missed.push_back(p);
  }
  out.io =
      CostOfRuns(ExtractRuns(std::move(missed), config_.disk.RunGapPages()));
  out.io += pool_->DrainIo();  // eviction write-backs
  report_.io += out.io;
  out.ms = config_.disk.CostMs(out.io);
  report_.select_ms += out.ms;
  return out;
}

}  // namespace corrmap

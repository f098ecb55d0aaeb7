// Columnar heap table with a row-major page-layout view for I/O accounting.
// Supports append, tombstone delete, clustering (stable sort by one column),
// and typed row access. This is the storage substrate every index, CM, and
// access path operates over.
//
// Concurrency contract (the serving engine's append path relies on it):
// appends are serialized by an internal mutex and publish the new row count
// with a release store, so readers that bound their row accesses by
// NumRows() (an acquire load) never observe a half-written row. The
// contract holds only while the columns do not reallocate -- call
// Reserve() for the expected maximum before concurrent readers attach, and
// keep appends within ReservedRows(). Deletes and ClusterBy still require
// external exclusion.
#ifndef CORRMAP_STORAGE_TABLE_H_
#define CORRMAP_STORAGE_TABLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/string_pool.h"
#include "common/value.h"
#include "storage/page.h"
#include "storage/schema.h"
#include "storage/tombstones.h"

namespace corrmap {

/// Typed column storage. Int64 and dictionary codes share the int vector;
/// doubles have their own. Strings are interned into a per-column pool.
class Column {
 public:
  explicit Column(ValueType type);

  ValueType type() const { return type_; }
  size_t size() const;

  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string_view v);

  /// Type check for AppendValue without mutating the column.
  Status ValidateValue(const Value& v) const;

  /// Appends a logical value; must match the column type.
  Status AppendValue(const Value& v);

  int64_t GetInt64(RowId row) const { return ints_[row]; }
  double GetDouble(RowId row) const { return doubles_[row]; }

  /// Raw slot arrays for block-at-a-time readers (int64 and string codes
  /// share int_data; doubles have double_data; the other is empty). Only
  /// slots below a NumRows() bound may be read, and the pointer stays
  /// valid only while the column does not reallocate -- the same contract
  /// as GetKey (see the file-level comment).
  const int64_t* int_data() const { return ints_.data(); }
  const double* double_data() const { return doubles_.data(); }

  /// Physical key (dict code for strings).
  Key GetKey(RowId row) const {
    return type_ == ValueType::kDouble ? Key(doubles_[row]) : Key(ints_[row]);
  }

  /// Appends a copy of `src`'s row `row`. Both columns must have the same
  /// type; for strings the dictionary code is copied verbatim, so `src`
  /// must share this column's dictionary coding (a clone of it).
  void AppendFrom(const Column& src, RowId row) {
    if (type_ == ValueType::kDouble) {
      doubles_.push_back(src.doubles_[row]);
    } else {
      ints_.push_back(src.ints_[row]);
    }
  }

  /// Empty column of the same type sharing this column's dictionary coding
  /// (deep copy, codes preserved).
  Column CloneEmpty() const;

  /// Logical value (decoded string for string columns).
  Value GetValue(RowId row) const;

  /// Encodes a logical literal to its physical key in this column's domain.
  /// Unknown strings encode to code -1 (matches nothing).
  Key EncodeKey(const Value& v) const;

  const StringPool* dictionary() const { return dict_.get(); }

  /// Reorders the column contents by `perm` (new[i] = old[perm[i]]).
  void ApplyPermutation(const std::vector<RowId>& perm);

  /// Deep copy (dictionary included).
  Column Clone() const;

  void Reserve(size_t n);

 private:
  ValueType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::unique_ptr<StringPool> dict_;
};

/// A heap table: schema + columns + page layout + optional clustering.
class Table {
 public:
  Table(std::string name, Schema schema,
        size_t page_size_bytes = kDefaultPageSizeBytes);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const PageLayout& layout() const { return layout_; }

  /// Rows visible to readers. Acquire-paired with the release store in the
  /// append paths: every column slot below the returned count is fully
  /// written.
  size_t NumRows() const { return num_rows_.load(std::memory_order_acquire); }
  /// Live (non-tombstoned) rows.
  size_t NumLiveRows() const {
    return NumRows() - num_deleted_.load(std::memory_order_acquire);
  }
  /// Tombstoned rows (NumRows() - NumLiveRows()).
  size_t NumDeleted() const {
    return num_deleted_.load(std::memory_order_acquire);
  }
  uint64_t NumPages() const { return layout_.NumPages(NumRows()); }

  /// "total_tups" and "tups_per_page" as used by the paper's cost model.
  uint64_t TotalTuples() const { return NumLiveRows(); }
  size_t TuplesPerPage() const { return layout_.TuplesPerPage(); }

  /// Appends one row; the span must match the schema arity and types.
  /// Thread-safe against other appends and against concurrent readers that
  /// respect the NumRows() bound (see the file-level contract).
  Status AppendRow(std::span<const Value> values);

  /// Fast path for generators and the serving engine: append physical keys
  /// directly. Same thread-safety contract as AppendRow.
  void AppendRowKeys(std::span<const Key> keys);

  /// Tombstones a row. Scans and access paths skip deleted rows.
  /// Serialized against appends and other deletes by the append mutex, and
  /// -- because the tombstone store is an atomic bitmap -- safe against
  /// concurrent IsDeleted readers as long as the bitmap does not grow
  /// (Reserve pre-sizes it with the columns; deleting past the reserved
  /// capacity falls back to a growth that requires external exclusion,
  /// exactly like a column reallocation would).
  Status DeleteRow(RowId row);
  bool IsDeleted(RowId row) const { return deleted_.Test(row); }
  /// Tombstone bits of rows [64 * w, 64 * w + 64), bit i for row
  /// 64 * w + i: one acquire load, the ordering IsDeleted uses. Words
  /// past the bitmap's capacity read 0 (see TombstoneBitmap::Word).
  uint64_t TombstoneWord(size_t w) const { return deleted_.Word(w); }

  const Column& column(size_t i) const { return cols_[i]; }
  Column& column_mutable(size_t i) { return cols_[i]; }
  Result<size_t> ColumnIndex(const std::string& name) const {
    return schema_.ColumnIndex(name);
  }

  Key GetKey(RowId row, size_t col) const { return cols_[col].GetKey(row); }
  Value GetValue(RowId row, size_t col) const { return cols_[col].GetValue(row); }

  /// Physically reorders the table so `col` is in ascending order (stable),
  /// making `col` the clustered attribute. Invalidates RowIds held by
  /// indexes built earlier; cluster first, then build indexes.
  Status ClusterBy(size_t col);

  /// Clustered column index, or -1 if the table is unclustered (heap order).
  int clustered_column() const { return clustered_col_; }

  /// Size of the heap file in bytes under the page layout.
  uint64_t HeapBytes() const { return NumPages() * layout_.page_size_bytes; }

  /// Deep copy, used by offline tools (e.g. the physical designer) that
  /// score alternative clusterings on scratch copies.
  std::unique_ptr<Table> Clone() const;

  /// Deep-copies rows `order[0], order[1], ...` (in that sequence) into a
  /// fresh table, preserving dictionaries (codes intact), tombstones, and
  /// the clustered-column mark. This is the serving layer's recluster hook:
  /// `order` is a merge permutation over the published prefix, so the copy
  /// is safe against concurrent appends beyond it (row slots below the
  /// published count never move; see the file-level contract). The caller
  /// guarantees the order it supplies keeps the clustered column sorted.
  std::unique_ptr<Table> CloneReordered(std::span<const RowId> order) const;

  /// Appends copies of `src`'s rows [begin, end) column-wise. `src` must
  /// have the same schema and dictionary coding (this table must be a
  /// Clone/CloneReordered of it). Used by the recluster catch-up phase to
  /// carry rows appended while the reordered copy was being built. Same
  /// thread-safety contract as AppendRow.
  void AppendRowsFrom(const Table& src, RowId begin, RowId end);

  /// Pre-allocates column capacity for `n` rows and records it as the
  /// concurrent-append bound (see ReservedRows).
  void Reserve(size_t n);

  /// Rows the columns can hold without reallocating. Concurrent readers
  /// are only safe while NumRows() stays within this bound; the serving
  /// engine refuses appends past it.
  size_t ReservedRows() const { return reserved_rows_; }

 private:
  std::string name_;
  Schema schema_;
  PageLayout layout_;
  std::vector<Column> cols_;
  TombstoneBitmap deleted_;
  std::mutex append_mu_;
  std::atomic<size_t> num_rows_{0};
  size_t reserved_rows_ = 0;
  std::atomic<size_t> num_deleted_{0};
  int clustered_col_ = -1;
};

}  // namespace corrmap

#endif  // CORRMAP_STORAGE_TABLE_H_

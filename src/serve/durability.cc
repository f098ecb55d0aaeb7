#include "serve/durability.h"

#include <bit>
#include <utility>

namespace corrmap::serve {

namespace {

void PutU64(std::string* out, uint64_t v) {
  for (size_t i = 0; i < 8; ++i) {
    out->push_back(char(uint8_t(v >> (8 * i))));
  }
}

bool GetU64(const std::string& s, size_t* pos, uint64_t* v) {
  if (*pos + 8 > s.size()) return false;
  uint64_t out = 0;
  for (size_t i = 0; i < 8; ++i) {
    out |= uint64_t(uint8_t(s[*pos + i])) << (8 * i);
  }
  *pos += 8;
  *v = out;
  return true;
}

/// A physical key is a 9-byte unit: a type flag (1 = double) followed by
/// the 8 raw value bytes. Doubles round-trip via bit_cast so NaNs and
/// signed zeros survive exactly.
void PutKey(std::string* out, const Key& k) {
  out->push_back(k.is_double() ? char(1) : char(0));
  PutU64(out, k.is_double() ? std::bit_cast<uint64_t>(k.AsDouble())
                            : uint64_t(k.AsInt64()));
}

bool GetKey(const std::string& s, size_t* pos, Key* k) {
  if (*pos >= s.size()) return false;
  const uint8_t flag = uint8_t(s[*pos]);
  ++*pos;
  uint64_t raw = 0;
  if (!GetU64(s, pos, &raw)) return false;
  *k = flag != 0 ? Key(std::bit_cast<double>(raw)) : Key(int64_t(raw));
  return true;
}

/// True when `count` units of `unit` bytes fit in what is left of `s`
/// after `pos`. Decoders check every count read from a payload before
/// sizing a vector by it, so a corrupt count fails the decode instead of
/// throwing from the allocator.
bool Fits(const std::string& s, size_t pos, uint64_t count, uint64_t unit) {
  return count <= (s.size() - pos) / unit;
}

}  // namespace

Durability::Durability(DurabilityOptions options)
    : options_(options), wal_(options.wal_page_bytes) {
  if (options_.group_commit_ops == 0) options_.group_commit_ops = 1;
}

// --- Payload codec ---------------------------------------------------------

std::string Durability::EncodeWrite(RowId first_row,
                                    std::span<const RowId> deletes,
                                    std::span<const std::vector<Key>> appends) {
  std::string p;
  const size_t cols = appends.empty() ? 0 : appends[0].size();
  p.reserve(32 + deletes.size() * 8 + appends.size() * cols * 9);
  PutU64(&p, first_row);
  PutU64(&p, deletes.size());
  for (const RowId r : deletes) PutU64(&p, r);
  PutU64(&p, appends.size());
  PutU64(&p, cols);
  for (const std::vector<Key>& row : appends) {
    for (const Key& k : row) PutKey(&p, k);
  }
  return p;
}

bool Durability::DecodeWrite(const std::string& payload, WriteOp* out) {
  size_t pos = 0;
  uint64_t first = 0, n_deletes = 0;
  if (!GetU64(payload, &pos, &first) || !GetU64(payload, &pos, &n_deletes) ||
      !Fits(payload, pos, n_deletes, 8)) {
    return false;
  }
  out->first_row = RowId(first);
  out->deletes.assign(size_t(n_deletes), RowId{0});
  for (RowId& r : out->deletes) {
    uint64_t v = 0;
    if (!GetU64(payload, &pos, &v)) return false;
    r = RowId(v);
  }
  uint64_t n_rows = 0, n_cols = 0;
  if (!GetU64(payload, &pos, &n_rows) || !GetU64(payload, &pos, &n_cols)) {
    return false;
  }
  // A row is n_cols 9-byte keys; zero-width rows are never logged.
  if (n_rows > 0 && (n_cols == 0 || !Fits(payload, pos, n_cols, 9) ||
                     !Fits(payload, pos, n_rows, 9 * n_cols))) {
    return false;
  }
  out->appends.assign(size_t(n_rows), std::vector<Key>(size_t(n_cols)));
  for (auto& row : out->appends) {
    for (Key& k : row) {
      if (!GetKey(payload, &pos, &k)) return false;
    }
  }
  return pos == payload.size();
}

// --- Logging ---------------------------------------------------------------

void Durability::LogWrite(RowId first_row, std::span<const RowId> deletes,
                          std::span<const std::vector<Key>> appends) {
  if (deletes.empty() && appends.empty()) return;
  WalRecordType type = WalRecordType::kRowUpdate;
  if (appends.empty()) type = WalRecordType::kRowDelete;
  if (deletes.empty()) type = WalRecordType::kRowAppend;
  std::string payload = EncodeWrite(first_row, deletes, appends);
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t txn = next_txn_++;
  wal_.Append({type, txn, std::move(payload)});
  wal_.Append({WalRecordType::kCommit, txn, ""});
  ++ops_logged_;
  ++ops_since_flush_;
  if (ops_since_flush_ >= options_.group_commit_ops) FlushLocked();
}

void Durability::set_metrics(obs::ServingMetrics* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_ = metrics;
}

void Durability::FlushLocked() {
  if (ops_since_flush_ == 0) return;
  const size_t batch = ops_since_flush_;
  wal_.Flush();
  ops_since_flush_ = 0;
  if (metrics_ != nullptr) {
    metrics_->wal_group_commit_ops->Record(double(batch));
  }
  SyncMetricsLocked();
}

void Durability::SyncMetricsLocked() {
  if (metrics_ == nullptr) return;
  obs::ServingMetrics& m = *metrics_;
  m.wal_flushes->Add(wal_.num_flushes() - synced_flushes_);
  m.wal_bytes->Add(wal_.bytes_durable() - synced_bytes_);
  m.wal_records->Add(ops_logged_ - synced_records_);
  synced_flushes_ = wal_.num_flushes();
  synced_bytes_ = wal_.bytes_durable();
  synced_records_ = ops_logged_;
}

void Durability::FlushNow() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked();
}

// --- Checkpointing ---------------------------------------------------------

void Durability::Checkpoint(const Table& table, RowId clustered_boundary,
                            uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  // Close out the in-flight group-commit batch first so its histogram
  // sample is not silently folded into the checkpoint's flush.
  FlushLocked();
  snapshot_table_ = table.Clone();
  snapshot_boundary_ = clustered_boundary;
  snapshot_epoch_ = epoch;
  std::string payload;
  PutU64(&payload, epoch);
  PutU64(&payload, uint64_t(clustered_boundary));
  PutU64(&payload, uint64_t(table.NumRows()));
  const uint64_t id = wal_.LogCheckpoint(std::move(payload));
  // Everything before the checkpoint is baked into the snapshot: drop it
  // so log memory is bounded by one epoch of writes.
  wal_.TruncateThrough(id);
  ++checkpoints_;
  if (metrics_ != nullptr) {
    metrics_->checkpoints->Increment();
  }
  SyncMetricsLocked();
}

bool Durability::has_checkpoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_table_ != nullptr;
}

const Table* Durability::checkpoint_table() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_table_.get();
}

RowId Durability::checkpoint_boundary() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_boundary_;
}

uint64_t Durability::checkpoint_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_epoch_;
}

// --- Crash & recovery ------------------------------------------------------

void Durability::Crash(size_t torn_tail_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  wal_.Crash(torn_tail_bytes);
  ops_since_flush_ = 0;
}

std::vector<WalRecord> Durability::CommittedTail() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<WalRecord> committed = wal_.CommittedRecords();
  // Replay starts after the LAST durable checkpoint marker (normally the
  // log head, since Checkpoint truncates through itself).
  size_t start = 0;
  for (size_t i = 0; i < committed.size(); ++i) {
    if (committed[i].type == WalRecordType::kCheckpoint) start = i + 1;
  }
  committed.erase(committed.begin(), committed.begin() + ptrdiff_t(start));
  return committed;
}

// --- Introspection ---------------------------------------------------------

uint64_t Durability::ops_logged() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_logged_;
}

uint64_t Durability::checkpoints_taken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoints_;
}

uint64_t Durability::wal_flushes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_.num_flushes();
}

uint64_t Durability::wal_bytes_durable() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_.bytes_durable();
}

size_t Durability::wal_log_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_.log_bytes();
}

}  // namespace corrmap::serve

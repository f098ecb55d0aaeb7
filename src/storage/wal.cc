#include "storage/wal.h"

#include <algorithm>
#include <array>
#include <utility>

namespace corrmap {

namespace {

/// IEEE CRC32 (reflected 0xEDB88320), table-driven, chainable state.
uint32_t Crc32Update(uint32_t state, const char* data, size_t n) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  for (size_t i = 0; i < n; ++i) {
    state = kTable[(state ^ uint8_t(data[i])) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

void PutLE(std::string* out, uint64_t v, size_t bytes) {
  for (size_t i = 0; i < bytes; ++i) {
    out->push_back(char(uint8_t(v >> (8 * i))));
  }
}

uint64_t GetLE(const char* p, size_t bytes) {
  uint64_t v = 0;
  for (size_t i = 0; i < bytes; ++i) {
    v |= uint64_t(uint8_t(p[i])) << (8 * i);
  }
  return v;
}

/// CRC over the first 20 header bytes (type, padding, txn, length) plus
/// the payload -- everything in the frame except the CRC field itself.
uint32_t FrameCrc(const char* header20, const char* payload, size_t n) {
  uint32_t s = 0xFFFFFFFFu;
  s = Crc32Update(s, header20, 20);
  s = Crc32Update(s, payload, n);
  return s ^ 0xFFFFFFFFu;
}

/// Serializes one record into its on-log frame (kWalRecordHeaderBytes of
/// header followed by the payload).
std::string EncodeFrame(const WalRecord& rec) {
  std::string f;
  f.reserve(kWalRecordHeaderBytes + rec.payload.size());
  f.push_back(char(uint8_t(rec.type)));
  f.append(7, '\0');  // reserved padding
  PutLE(&f, rec.txn_id, 8);
  PutLE(&f, uint32_t(rec.payload.size()), 4);
  PutLE(&f, FrameCrc(f.data(), rec.payload.data(), rec.payload.size()), 4);
  f += rec.payload;
  return f;
}

/// Parses the frame at `p` (with `avail` bytes remaining). Returns the
/// frame length and fills `out` on success; returns 0 when the bytes do
/// not form a complete, CRC-valid frame (torn tail or corruption).
size_t DecodeFrame(const char* p, size_t avail, WalRecord* out) {
  if (avail < kWalRecordHeaderBytes) return 0;
  const uint8_t type = uint8_t(p[0]);
  if (type < uint8_t(WalRecordType::kCmInsert) ||
      type > uint8_t(WalRecordType::kRowUpdate)) {
    return 0;
  }
  const size_t len = size_t(GetLE(p + 16, 4));
  if (avail < kWalRecordHeaderBytes + len) return 0;
  const uint32_t stored = uint32_t(GetLE(p + 20, 4));
  if (stored != FrameCrc(p, p + kWalRecordHeaderBytes, len)) return 0;
  out->type = WalRecordType(type);
  out->txn_id = GetLE(p + 8, 8);
  out->payload.assign(p + kWalRecordHeaderBytes, len);
  return kWalRecordHeaderBytes + len;
}

}  // namespace

void WriteAheadLog::Append(WalRecord rec) {
  pending_image_ += EncodeFrame(rec);
  pending_bytes_ = pending_image_.size();
  pending_.push_back(std::move(rec));
}

void WriteAheadLog::Flush() {
  if (pending_.empty()) return;
  // The previous flush left the log file's last page tail_fill_bytes_
  // full; this flush re-writes that page along with the fresh ones, so
  // the sequential charge covers the whole touched range.
  const uint64_t pages =
      (tail_fill_bytes_ + pending_bytes_ + page_size_ - 1) / page_size_;
  ++io_.seeks;             // position at log tail
  io_.seq_pages += pages;  // sequential log write
  bytes_durable_ += pending_bytes_;
  ++num_flushes_;
  tail_fill_bytes_ = (tail_fill_bytes_ + pending_bytes_) % page_size_;
  last_flush_bytes_ = pending_bytes_;
  image_ += pending_image_;
  for (auto& r : pending_) durable_.push_back(std::move(r));
  pending_.clear();
  pending_image_.clear();
  pending_bytes_ = 0;
}

void WriteAheadLog::Prepare(uint64_t txn_id) {
  Append({WalRecordType::kPrepare, txn_id, ""});
  Flush();
}

void WriteAheadLog::Commit(uint64_t txn_id) {
  Append({WalRecordType::kCommit, txn_id, ""});
  Flush();
}

uint64_t WriteAheadLog::LogCheckpoint(std::string payload) {
  const uint64_t id = next_checkpoint_id_++;
  Append({WalRecordType::kCheckpoint, id, std::move(payload)});
  Flush();
  return id;
}

bool WriteAheadLog::TruncateThrough(uint64_t checkpoint_id) {
  size_t offset = 0;
  for (size_t i = 0; i < durable_.size(); ++i) {
    if (durable_[i].type == WalRecordType::kCheckpoint &&
        durable_[i].txn_id == checkpoint_id) {
      durable_.erase(durable_.begin(), durable_.begin() + ptrdiff_t(i));
      image_.erase(0, offset);
      return true;
    }
    offset += kWalRecordHeaderBytes + durable_[i].payload.size();
  }
  return false;
}

std::vector<WalRecord> WriteAheadLog::CommittedRecords() const {
  // Pass 1: which txns have a durable commit marker, sorted so each data
  // record resolves in O(log commits) whatever order txn ids arrive in.
  std::vector<uint64_t> committed;
  for (const WalRecord& r : durable_) {
    if (r.type == WalRecordType::kCommit) committed.push_back(r.txn_id);
  }
  std::sort(committed.begin(), committed.end());
  committed.erase(std::unique(committed.begin(), committed.end()),
                  committed.end());
  auto is_committed = [&](uint64_t txn) {
    return std::binary_search(committed.begin(), committed.end(), txn);
  };
  // Pass 2: data records of committed txns, in log order. Checkpoints are
  // not txn-scoped and always pass through; markers never do.
  std::vector<WalRecord> out;
  for (const WalRecord& r : durable_) {
    switch (r.type) {
      case WalRecordType::kPrepare:
      case WalRecordType::kCommit:
        break;
      case WalRecordType::kCheckpoint:
        out.push_back(r);
        break;
      default:
        if (is_committed(r.txn_id)) out.push_back(r);
        break;
    }
  }
  return out;
}

DiskStats WriteAheadLog::DrainIo() {
  DiskStats out = io_;
  io_ = DiskStats{};
  return out;
}

void WriteAheadLog::Crash(size_t torn_tail_bytes) {
  pending_.clear();
  pending_image_.clear();
  pending_bytes_ = 0;
  // Only the most recent flush can be torn: every earlier one completed
  // its fsync barrier before the next record was accepted.
  size_t cut = std::min(torn_tail_bytes, last_flush_bytes_);
  cut = std::min(cut, image_.size());
  if (cut > 0) {
    image_.resize(image_.size() - cut);
    tail_fill_bytes_ =
        (tail_fill_bytes_ + page_size_ - (cut % page_size_)) % page_size_;
  }
  last_flush_bytes_ = 0;
  Reparse();
}

void WriteAheadLog::CorruptByte(size_t offset) {
  if (offset < image_.size()) image_[offset] = char(image_[offset] ^ 0x5A);
}

void WriteAheadLog::Reparse() {
  durable_.clear();
  size_t pos = 0;
  while (pos < image_.size()) {
    WalRecord rec;
    const size_t n = DecodeFrame(image_.data() + pos, image_.size() - pos,
                                 &rec);
    if (n == 0) break;  // torn or corrupt: the log ends here
    durable_.push_back(std::move(rec));
    pos += n;
  }
  if (pos < image_.size()) {
    image_.resize(pos);
    tail_fill_bytes_ = pos % page_size_;
  }
}

}  // namespace corrmap

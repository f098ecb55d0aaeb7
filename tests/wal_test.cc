// Dedicated WAL tests: frame round-trips, CRC rejection, torn-tail
// crashes, checkpoint truncation, committed-txn filtering, and the
// tail-page-carry I/O accounting -- plus the serve-layer Durability
// manager built on top (group commit, checkpoint snapshots, the one
// row-write payload codec). Suite names deliberately avoid
// storage_test.cc's WalTest so ctest registrations stay unique.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "serve/durability.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace corrmap {
namespace {

WalRecord Rec(WalRecordType type, uint64_t txn, std::string payload) {
  return {type, txn, std::move(payload)};
}

TEST(WalFramingTest, RoundTripSurvivesReparse) {
  WriteAheadLog wal;
  wal.Append(Rec(WalRecordType::kRowAppend, 7, "alpha"));
  wal.Append(Rec(WalRecordType::kRowDelete, 8, std::string(300, 'z')));
  wal.Append(Rec(WalRecordType::kCommit, 8, ""));
  wal.Flush();
  EXPECT_EQ(wal.log_bytes(),
            3 * kWalRecordHeaderBytes + 5 + 300);

  // A clean crash (no torn tail) re-parses the image from scratch; every
  // frame must decode back to the exact record that was appended.
  wal.Crash();
  ASSERT_EQ(wal.durable_records().size(), 3u);
  EXPECT_EQ(wal.durable_records()[0].type, WalRecordType::kRowAppend);
  EXPECT_EQ(wal.durable_records()[0].txn_id, 7u);
  EXPECT_EQ(wal.durable_records()[0].payload, "alpha");
  EXPECT_EQ(wal.durable_records()[1].payload, std::string(300, 'z'));
  EXPECT_EQ(wal.durable_records()[2].type, WalRecordType::kCommit);
}

TEST(WalFramingTest, CrcRejectsCorruptionAndEndsTheLogThere) {
  WriteAheadLog wal;
  wal.Append(Rec(WalRecordType::kRowAppend, 1, "first"));
  wal.Append(Rec(WalRecordType::kRowAppend, 2, "second"));
  wal.Append(Rec(WalRecordType::kRowAppend, 3, "third"));
  wal.Flush();
  // Flip one payload byte inside the second frame: its CRC no longer
  // verifies, so the re-parse must stop after the first record -- a
  // corrupt middle makes everything at and past it unreadable.
  wal.CorruptByte(kWalRecordHeaderBytes + 5 + kWalRecordHeaderBytes + 2);
  wal.Crash();
  ASSERT_EQ(wal.durable_records().size(), 1u);
  EXPECT_EQ(wal.durable_records()[0].payload, "first");
  EXPECT_EQ(wal.log_bytes(), kWalRecordHeaderBytes + 5);
}

TEST(WalFramingTest, TornTailCutsOnlyTheLastFlush) {
  WriteAheadLog wal;
  wal.Append(Rec(WalRecordType::kRowAppend, 1, "safe"));
  wal.Flush();  // fsync barrier: this flush can never be torn again
  wal.Append(Rec(WalRecordType::kRowAppend, 2, "torn-victim"));
  wal.Append(Rec(WalRecordType::kRowAppend, 3, "gone-too"));
  wal.Flush();
  // Tear 3 bytes off the crash: the last frame is incomplete and dropped;
  // the frame before it is intact and survives.
  wal.Crash(3);
  ASSERT_EQ(wal.durable_records().size(), 2u);
  EXPECT_EQ(wal.durable_records()[1].payload, "torn-victim");

  // A tear larger than the last flush clamps to it: earlier flushes sit
  // behind completed fsyncs, so "safe" must survive any tear size.
  wal.Append(Rec(WalRecordType::kRowAppend, 4, "new-tail"));
  wal.Flush();
  wal.Crash(1u << 20);
  ASSERT_EQ(wal.durable_records().size(), 2u);
  EXPECT_EQ(wal.durable_records()[0].payload, "safe");
  EXPECT_EQ(wal.durable_records()[1].payload, "torn-victim");
}

TEST(WalFramingTest, CrashStillDropsPendingOnly) {
  WriteAheadLog wal;
  wal.Append(Rec(WalRecordType::kRowAppend, 1, "durable"));
  wal.Flush();
  wal.Append(Rec(WalRecordType::kRowAppend, 2, "buffered"));
  wal.Crash();
  EXPECT_EQ(wal.durable_records().size(), 1u);
  EXPECT_EQ(wal.pending_records(), 0u);
}

TEST(WalCheckpointTest, TruncateThroughBoundsTheLog) {
  WriteAheadLog wal;
  for (uint64_t t = 1; t <= 4; ++t) {
    wal.Append(Rec(WalRecordType::kRowAppend, t, "old-epoch"));
    wal.Append(Rec(WalRecordType::kCommit, t, ""));
  }
  wal.Flush();
  const size_t before = wal.log_bytes();
  const uint64_t ckpt = wal.LogCheckpoint("snapshot-meta");
  wal.Append(Rec(WalRecordType::kRowAppend, 9, "new-epoch"));
  wal.Append(Rec(WalRecordType::kCommit, 9, ""));
  wal.Flush();

  EXPECT_FALSE(wal.TruncateThrough(ckpt + 100));  // unknown id: no-op
  ASSERT_TRUE(wal.TruncateThrough(ckpt));
  // The checkpoint record is the new log head; only the post-checkpoint
  // tail follows it. Log memory dropped by the whole pre-checkpoint
  // epoch.
  ASSERT_GE(wal.durable_records().size(), 3u);
  EXPECT_EQ(wal.durable_records()[0].type, WalRecordType::kCheckpoint);
  EXPECT_EQ(wal.durable_records()[0].payload, "snapshot-meta");
  EXPECT_EQ(wal.durable_records()[1].payload, "new-epoch");
  EXPECT_LT(wal.log_bytes(), before);

  // The truncated image must still re-parse cleanly after a crash.
  wal.Crash();
  EXPECT_EQ(wal.durable_records()[0].type, WalRecordType::kCheckpoint);
  EXPECT_EQ(wal.durable_records()[1].payload, "new-epoch");
}

TEST(WalCommittedTest, UncommittedTxnIsNeverReplayed) {
  WriteAheadLog wal;
  wal.Append(Rec(WalRecordType::kRowAppend, 1, "committed-op"));
  wal.Append(Rec(WalRecordType::kCommit, 1, ""));
  // Txn 2 prepared but never committed: its data record is durable yet
  // must not be handed to replay.
  wal.Append(Rec(WalRecordType::kRowAppend, 2, "uncommitted-op"));
  wal.Append(Rec(WalRecordType::kPrepare, 2, ""));
  wal.Flush();
  wal.LogCheckpoint("ckpt");

  const std::vector<WalRecord> committed = wal.CommittedRecords();
  ASSERT_EQ(committed.size(), 2u);
  EXPECT_EQ(committed[0].payload, "committed-op");
  EXPECT_EQ(committed[1].type, WalRecordType::kCheckpoint);  // passes through

  // durable_records still exposes everything (the raw log), so the two
  // views disagree by exactly the uncommitted record and the markers.
  EXPECT_EQ(wal.durable_records().size(), 5u);
}

TEST(WalCommittedTest, OutOfOrderInterleavedTxnsResolveByCommitMarker) {
  // Txn ids arrive out of order and interleave, commits land in another
  // order, one txn commits twice, one is only prepared, one has no marker
  // at all, and one data record follows its own commit marker.
  WriteAheadLog wal;
  wal.Append(Rec(WalRecordType::kRowAppend, 9, "a9"));
  wal.Append(Rec(WalRecordType::kRowAppend, 4, "a4"));
  wal.Append(Rec(WalRecordType::kRowDelete, 2, "d2"));
  wal.Append(Rec(WalRecordType::kPrepare, 4, ""));
  wal.Append(Rec(WalRecordType::kRowUpdate, 9, "u9"));
  wal.Append(Rec(WalRecordType::kCommit, 2, ""));
  wal.Append(Rec(WalRecordType::kCmInsert, 7, "c7"));
  wal.Append(Rec(WalRecordType::kCommit, 9, ""));
  wal.Append(Rec(WalRecordType::kRowAppend, 2, "a2-late"));
  wal.Append(Rec(WalRecordType::kCommit, 2, ""));
  wal.Append(Rec(WalRecordType::kCmDelete, 1, "c1"));
  wal.Append(Rec(WalRecordType::kCommit, 1, ""));
  wal.Flush();
  wal.LogCheckpoint("ckpt");

  std::vector<std::string> got;
  for (const WalRecord& r : wal.CommittedRecords()) got.push_back(r.payload);
  const std::vector<std::string> want = {"a9", "d2", "u9", "a2-late", "c1",
                                         "ckpt"};
  EXPECT_EQ(got, want);
}

TEST(WalIoTest, FlushCarriesTailPageFillAcrossFlushes) {
  WriteAheadLog wal(8192);
  // Flush 1: 8000 bytes -> 1 page, leaving the tail page 8000/8192 full.
  wal.Append(Rec(WalRecordType::kRowAppend, 1,
                 std::string(8000 - kWalRecordHeaderBytes, 'a')));
  wal.Flush();
  DiskStats io = wal.DrainIo();
  EXPECT_EQ(io.seeks, 1u);
  EXPECT_EQ(io.seq_pages, 1u);
  // Flush 2: 400 more bytes straddle the partially-filled tail page into
  // the next one -- a real log file re-writes the tail page, so the
  // charge is 2 pages, not ceil(400/8192) == 1.
  wal.Append(Rec(WalRecordType::kRowAppend, 2,
                 std::string(400 - kWalRecordHeaderBytes, 'b')));
  wal.Flush();
  io = wal.DrainIo();
  EXPECT_EQ(io.seeks, 1u);
  EXPECT_EQ(io.seq_pages, 2u);
  // Flush 3: 100 bytes stay within the (now 208/8192 full) tail page.
  wal.Append(Rec(WalRecordType::kRowAppend, 3,
                 std::string(100 - kWalRecordHeaderBytes, 'c')));
  wal.Flush();
  io = wal.DrainIo();
  EXPECT_EQ(io.seq_pages, 1u);
}

// ---------------------------------------------------------------------------
// serve::Durability: the group-commit + checkpoint manager over the WAL.
// ---------------------------------------------------------------------------

void FillOneColumn(Table* t, int rows) {
  for (int i = 0; i < rows; ++i) {
    std::array<Value, 1> row = {Value(int64_t(i))};
    ASSERT_TRUE(t->AppendRow(row).ok());
  }
}

/// One row-write record a codec test encodes.
struct WriteCase {
  const char* name;
  RowId first;
  std::vector<RowId> deletes;
  std::vector<std::vector<Key>> rows;
};

TEST(DurabilityTest, PayloadCodecsRoundTrip) {
  using serve::Durability;
  const std::vector<std::vector<Key>> rows = {
      {Key(int64_t{1}), Key(2.5)},
      {Key(int64_t{-9}), Key(-0.0)},
      {Key(int64_t{4}), Key(std::numeric_limits<double>::quiet_NaN())},
  };
  const std::vector<WriteCase> cases = {
      {"empty", 0, {}, {}},
      {"appends only", 41, {}, rows},
      {"deletes only", 0, {3, 1, 4, 1}, {}},
      {"update", 12, {7}, {{Key(int64_t{5}), Key(1.25)}}},
      {"several deletes plus appends", 90, {5, 6, 88}, rows},
  };
  for (const WriteCase& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string p = Durability::EncodeWrite(c.first, c.deletes, c.rows);
    Durability::WriteOp op;
    ASSERT_TRUE(Durability::DecodeWrite(p, &op));
    EXPECT_EQ(op.first_row, c.first);
    EXPECT_EQ(op.deletes, c.deletes);
    ASSERT_EQ(op.appends.size(), c.rows.size());
    for (size_t r = 0; r < c.rows.size(); ++r) {
      ASSERT_EQ(op.appends[r].size(), c.rows[r].size());
      for (size_t k = 0; k < c.rows[r].size(); ++k) {
        // Doubles round-trip bit for bit: NaN stays NaN, -0.0 keeps its
        // sign (Key equality would hide both).
        const Key& want = c.rows[r][k];
        const Key& got = op.appends[r][k];
        ASSERT_EQ(got.is_double(), want.is_double());
        if (want.is_double()) {
          EXPECT_EQ(std::bit_cast<uint64_t>(got.AsDouble()),
                    std::bit_cast<uint64_t>(want.AsDouble()));
        } else {
          EXPECT_EQ(got, want);
        }
      }
    }
    // Truncated payloads and trailing bytes must fail cleanly, never
    // over-read.
    for (size_t cut = 0; cut < p.size(); ++cut) {
      EXPECT_FALSE(Durability::DecodeWrite(p.substr(0, cut), &op)) << cut;
    }
    EXPECT_FALSE(Durability::DecodeWrite(p + '\0', &op));
  }
}

// Little-endian u64s as the payload codec writes them.
std::string RawU64s(std::initializer_list<uint64_t> vs) {
  std::string out;
  for (const uint64_t v : vs) {
    for (size_t i = 0; i < 8; ++i) out.push_back(char(uint8_t(v >> (8 * i))));
  }
  return out;
}

TEST(DurabilityTest, ImpossibleCountsFailTheDecodeInsteadOfThrowing) {
  using serve::Durability;
  // Each payload claims more elements than its bytes can hold; the
  // decoder must refuse it before sizing a vector by the claim (an
  // unchecked count threw bad_alloc / length_error out of Recover).
  // Layout: first_row, #deletes, deletes..., #rows, #cols, keys...
  const struct {
    const char* name;
    std::string payload;
  } cases[] = {
      {"deletes count", RawU64s({0, uint64_t{1} << 61})},
      {"deletes count past the bytes", RawU64s({0, 3, 1, 2})},
      {"row count", RawU64s({0, 0, uint64_t{1} << 40, 1})},
      {"one absurdly wide row", RawU64s({0, 0, 1, uint64_t{1} << 62})},
      // Rows without columns would take no bytes at all.
      {"zero-width rows", RawU64s({0, 0, uint64_t{1} << 40, 0})},
      {"zero-width rows after deletes", RawU64s({0, 1, 9, 1, 0})},
      {"row count after deletes", RawU64s({0, 2, 4, 5, uint64_t{1} << 40, 2})},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    Durability::WriteOp op;
    EXPECT_FALSE(Durability::DecodeWrite(c.payload, &op));
  }

  // Empty sections stay decodable.
  Durability::WriteOp op;
  EXPECT_TRUE(Durability::DecodeWrite(RawU64s({0, 0, 0, 0}), &op));
  EXPECT_TRUE(op.deletes.empty());
  EXPECT_TRUE(op.appends.empty());
}

TEST(DurabilityTest, LogWriteTagsEachRecordByItsShape) {
  serve::DurabilityOptions opts;
  opts.group_commit_ops = 1;
  serve::Durability d(opts);
  Table t("t", Schema({ColumnDef::Int64("v")}));
  FillOneColumn(&t, 8);
  d.Checkpoint(t, RowId(t.NumRows()), 0);
  const std::vector<std::vector<Key>> one = {{Key(int64_t{1})}};
  const std::vector<RowId> dels = {2, 3};
  d.LogWrite(8, {}, {});  // an empty write logs nothing
  d.LogWrite(8, {}, one);
  d.LogWrite(9, dels, {});
  d.LogWrite(9, dels, one);
  EXPECT_EQ(d.ops_logged(), 3u);
  const std::vector<WalRecord> tail = d.CommittedTail();
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].type, WalRecordType::kRowAppend);
  EXPECT_EQ(tail[1].type, WalRecordType::kRowDelete);
  EXPECT_EQ(tail[2].type, WalRecordType::kRowUpdate);
  serve::Durability::WriteOp op;
  ASSERT_TRUE(serve::Durability::DecodeWrite(tail[2].payload, &op));
  EXPECT_EQ(op.first_row, 9u);
  EXPECT_EQ(op.deletes, dels);
  EXPECT_EQ(op.appends, one);
}

TEST(DurabilityTest, GroupCommitFlushesEveryNthOp) {
  serve::DurabilityOptions opts;
  opts.group_commit_ops = 4;
  serve::Durability d(opts);
  const std::vector<std::vector<Key>> one = {{Key(int64_t{1})}};
  for (int i = 0; i < 3; ++i) d.LogWrite(RowId(i), {}, one);
  EXPECT_EQ(d.wal_flushes(), 0u);  // batch still open
  d.LogWrite(3, {}, one);
  EXPECT_EQ(d.wal_flushes(), 1u);  // 4th commit flushed the batch
  d.LogWrite(4, {}, one);
  d.FlushNow();
  EXPECT_EQ(d.wal_flushes(), 2u);
  EXPECT_EQ(d.ops_logged(), 5u);
}

TEST(DurabilityTest, CrashLosesOnlyTheOpenBatch) {
  serve::DurabilityOptions opts;
  opts.group_commit_ops = 4;
  serve::Durability d(opts);
  Table t("t", Schema({ColumnDef::Int64("v")}));
  FillOneColumn(&t, 8);
  d.Checkpoint(t, RowId(t.NumRows()), 0);
  const std::vector<std::vector<Key>> one = {{Key(int64_t{1})}};
  for (int i = 0; i < 4; ++i) d.LogWrite(RowId(8 + i), {}, one);  // flushed
  for (int i = 0; i < 2; ++i) d.LogWrite(RowId(12 + i), {}, one);  // buffered
  d.Crash();
  const std::vector<WalRecord> tail = d.CommittedTail();
  ASSERT_EQ(tail.size(), 4u);
  for (const WalRecord& r : tail) {
    EXPECT_EQ(r.type, WalRecordType::kRowAppend);
  }
}

TEST(DurabilityTest, TornCommitMarkerDropsItsOpFromTheTail) {
  serve::DurabilityOptions opts;
  opts.group_commit_ops = 1;
  serve::Durability d(opts);
  Table t("t", Schema({ColumnDef::Int64("v")}));
  FillOneColumn(&t, 8);
  d.Checkpoint(t, RowId(t.NumRows()), 0);
  const std::vector<std::vector<Key>> one = {{Key(int64_t{1})}};
  for (int i = 0; i < 3; ++i) d.LogWrite(RowId(8 + i), {}, one);
  // Tear into the last flush's commit marker (an empty-payload frame):
  // the op's data record stays durable but its txn no longer commits.
  d.Crash(kWalRecordHeaderBytes / 2);
  const std::vector<WalRecord> tail = d.CommittedTail();
  ASSERT_EQ(tail.size(), 2u);
  serve::Durability::WriteOp op;
  ASSERT_TRUE(serve::Durability::DecodeWrite(tail[1].payload, &op));
  EXPECT_EQ(op.first_row, 9u);
}

TEST(DurabilityTest, CheckpointSnapshotsAndTruncates) {
  serve::DurabilityOptions opts;
  opts.group_commit_ops = 1;
  serve::Durability d(opts);
  EXPECT_FALSE(d.has_checkpoint());
  Table t("t", Schema({ColumnDef::Int64("v")}));
  FillOneColumn(&t, 16);
  const std::vector<std::vector<Key>> one = {{Key(int64_t{99})}};
  for (int i = 0; i < 10; ++i) d.LogWrite(RowId(16 + i), {}, one);
  const size_t log_before = d.wal_log_bytes();

  d.Checkpoint(t, RowId(16), 3);
  ASSERT_TRUE(d.has_checkpoint());
  EXPECT_EQ(d.checkpoint_epoch(), 3u);
  EXPECT_EQ(d.checkpoint_boundary(), 16u);
  ASSERT_NE(d.checkpoint_table(), nullptr);
  EXPECT_EQ(d.checkpoint_table()->NumRows(), 16u);
  // The snapshot is a clone: mutating the source later never leaks in.
  std::array<Value, 1> extra = {Value(int64_t{999})};
  ASSERT_TRUE(t.AppendRow(extra).ok());
  EXPECT_EQ(d.checkpoint_table()->NumRows(), 16u);
  // Pre-checkpoint ops were truncated away; the tail is empty.
  EXPECT_LT(d.wal_log_bytes(), log_before);
  EXPECT_TRUE(d.CommittedTail().empty());
  EXPECT_EQ(d.checkpoints_taken(), 1u);

  // The snapshot survives crashes (it models the flushed heap image).
  d.Crash(1u << 20);
  ASSERT_TRUE(d.has_checkpoint());
  EXPECT_EQ(d.checkpoint_table()->NumRows(), 16u);
}

}  // namespace
}  // namespace corrmap

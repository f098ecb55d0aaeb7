// Dedicated WAL tests: frame round-trips, CRC rejection, torn-tail
// crashes, checkpoint truncation, committed-txn filtering, and the
// tail-page-carry I/O accounting -- plus the serve-layer Durability
// manager built on top (group commit, checkpoint snapshots, payload
// codecs). Suite names deliberately avoid storage_test.cc's WalTest so
// ctest registrations stay unique.
#include <gtest/gtest.h>

#include <array>
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

TEST(DurabilityTest, PayloadCodecsRoundTrip) {
  using serve::Durability;
  const std::vector<std::vector<Key>> rows = {
      {Key(int64_t{1}), Key(2.5)},
      {Key(int64_t{-9}), Key(-0.0)},
  };
  Durability::AppendOp append;
  ASSERT_TRUE(Durability::DecodeAppend(
      Durability::EncodeAppend(41, rows), &append));
  EXPECT_EQ(append.first_row, 41u);
  ASSERT_EQ(append.rows.size(), 2u);
  EXPECT_EQ(append.rows[0][0], Key(int64_t{1}));
  EXPECT_EQ(append.rows[0][1], Key(2.5));
  EXPECT_EQ(append.rows[1][0], Key(int64_t{-9}));
  EXPECT_TRUE(append.rows[1][1].is_double());

  const std::vector<RowId> dels = {3, 1, 4, 1};
  std::vector<RowId> decoded_dels;
  ASSERT_TRUE(Durability::DecodeDeletes(Durability::EncodeDeletes(dels),
                                        &decoded_dels));
  EXPECT_EQ(decoded_dels, dels);

  const std::vector<Key> upd = {Key(int64_t{5}), Key(1.25)};
  Durability::UpdateOp update;
  ASSERT_TRUE(Durability::DecodeUpdate(
      Durability::EncodeUpdate(7, upd), &update));
  EXPECT_EQ(update.row, 7u);
  EXPECT_EQ(update.new_values, upd);

  // Truncated payloads must fail cleanly, never over-read.
  std::string p = Durability::EncodeUpdate(7, upd);
  p.pop_back();
  EXPECT_FALSE(Durability::DecodeUpdate(p, &update));
}

// Little-endian u64 as the payload codecs write it.
void PutRawU64(std::string* out, uint64_t v) {
  for (size_t i = 0; i < 8; ++i) out->push_back(char(uint8_t(v >> (8 * i))));
}

TEST(DurabilityTest, ImpossibleCountsFailTheDecodeInsteadOfThrowing) {
  using serve::Durability;
  // Each payload claims more elements than its bytes can hold; the
  // decoders must refuse it before sizing a vector by the claim (an
  // unchecked count threw bad_alloc / length_error out of Recover).
  // append: first_row, n_rows, n_cols.
  std::string append;
  PutRawU64(&append, 0);
  PutRawU64(&append, uint64_t{1} << 40);
  PutRawU64(&append, 1);
  Durability::AppendOp op;
  EXPECT_FALSE(Durability::DecodeAppend(append, &op));
  // One absurdly wide row.
  std::string wide;
  PutRawU64(&wide, 0);
  PutRawU64(&wide, 1);
  PutRawU64(&wide, uint64_t{1} << 62);
  EXPECT_FALSE(Durability::DecodeAppend(wide, &op));
  // Rows without columns would take no bytes at all.
  std::string zero_width;
  PutRawU64(&zero_width, 0);
  PutRawU64(&zero_width, uint64_t{1} << 40);
  PutRawU64(&zero_width, 0);
  EXPECT_FALSE(Durability::DecodeAppend(zero_width, &op));

  std::string deletes;
  PutRawU64(&deletes, uint64_t{1} << 61);
  std::vector<RowId> rows;
  EXPECT_FALSE(Durability::DecodeDeletes(deletes, &rows));

  // update: row, n_cols.
  std::string update;
  PutRawU64(&update, 7);
  PutRawU64(&update, uint64_t{1} << 61);
  Durability::UpdateOp upd;
  EXPECT_FALSE(Durability::DecodeUpdate(update, &upd));

  // Empty batches stay decodable.
  EXPECT_TRUE(Durability::DecodeDeletes(Durability::EncodeDeletes({}), &rows));
  EXPECT_TRUE(rows.empty());
}

TEST(DurabilityTest, GroupCommitFlushesEveryNthOp) {
  serve::DurabilityOptions opts;
  opts.group_commit_ops = 4;
  serve::Durability d(opts);
  const std::vector<std::vector<Key>> one = {{Key(int64_t{1})}};
  for (int i = 0; i < 3; ++i) d.LogAppend(RowId(i), one);
  EXPECT_EQ(d.wal_flushes(), 0u);  // batch still open
  d.LogAppend(3, one);
  EXPECT_EQ(d.wal_flushes(), 1u);  // 4th commit flushed the batch
  d.LogAppend(4, one);
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
  for (int i = 0; i < 4; ++i) d.LogAppend(RowId(8 + i), one);  // flushed
  for (int i = 0; i < 2; ++i) d.LogAppend(RowId(12 + i), one);  // buffered
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
  for (int i = 0; i < 3; ++i) d.LogAppend(RowId(8 + i), one);
  // Tear into the last flush's commit marker (an empty-payload frame):
  // the op's data record stays durable but its txn no longer commits.
  d.Crash(kWalRecordHeaderBytes / 2);
  size_t dropped = 0;
  const std::vector<WalRecord> tail = d.CommittedTail(&dropped);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(dropped, 1u);
  serve::Durability::AppendOp op;
  ASSERT_TRUE(serve::Durability::DecodeAppend(tail[1].payload, &op));
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
  for (int i = 0; i < 10; ++i) d.LogAppend(RowId(16 + i), one);
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

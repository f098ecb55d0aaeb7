// Durability manager for the serving engine: a group-commit WAL of
// serialized row operations plus an epoch-consistent checkpoint snapshot.
//
// Protocol. Every committed write transaction (one ServingEngine::Commit
// of a WriteSet, executed under the engine's append mutex) logs one framed
// row-write record followed by a kCommit marker; the log is flushed every
// `group_commit_ops` commits (group commit), so a crash loses at most one
// un-flushed batch and a torn tail can cut a flush mid-frame -- the WAL's
// CRC re-parse drops exactly the torn suffix. At every
// recluster/compact publish the engine hands the successor table here as a
// checkpoint: the epoch swap is a natural consistent snapshot (the
// successor is a clean private copy until published), so the snapshot
// clone plus a kCheckpoint record plus TruncateThrough bound the log to
// one epoch of writes.
//
// One record shape. A row-write record carries the rows the transaction
// tombstoned and the rows it appended (contiguously from `first_row`).
// Its tag follows the shape -- kRowAppend (appends only), kRowDelete
// (deletes only), kRowUpdate (both) -- so a log reader can count ops by
// kind without decoding, and every tag decodes through the one codec.
//
// Row identity. Records address rows by physical RowId. Ids are stable
// within an epoch -- only a recluster publish permutes them -- and every
// publish also checkpoints, so all records in the retained log tail speak
// the id space of the checkpoint they follow. Replaying them in log order
// against the checkpoint clone reproduces the exact pre-crash table
// (appends re-land on the same ids because the row count evolves
// identically). CMs, secondary indexes, and calibration are NOT logged:
// they are replay-derived (rebuilt from the recovered base data), the
// Hermit stance that correlation structures must be cheaply rebuildable.
//
// Threading: the engine calls LogWrite/Checkpoint under its append mutex,
// but Durability also guards itself with an internal mutex so crash hooks
// and metric reads from other threads stay race-free.
#ifndef CORRMAP_SERVE_DURABILITY_H_
#define CORRMAP_SERVE_DURABILITY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/value.h"
#include "obs/serving_metrics.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace corrmap::serve {

struct DurabilityOptions {
  /// Commits between WAL flushes (group commit). 1 flushes every op
  /// (synchronous commit); larger batches amortize the per-flush seek at
  /// the cost of losing up to N-1 committed-in-memory ops on a crash.
  size_t group_commit_ops = 8;
  /// Page size the WAL charges sequential writes in.
  size_t wal_page_bytes = 8192;
};

/// What one ServingEngine::Recover pass did, for tests and the bench.
struct RecoveryStats {
  uint64_t checkpoint_epoch = 0;  ///< epoch the snapshot was taken at
  size_t records_scanned = 0;     ///< committed records replayed over
  double wall_seconds = 0;
};

class Durability {
 public:
  explicit Durability(DurabilityOptions options = {});

  Durability(const Durability&) = delete;
  Durability& operator=(const Durability&) = delete;

  // --- Logging (engine write path, under its append mutex) ---------------

  /// Logs one committed write transaction -- the rows it tombstoned and
  /// the rows it appended contiguously from `first_row` -- as one record
  /// tagged by its shape (see above), and applies the group-commit policy.
  /// An empty write logs nothing.
  void LogWrite(RowId first_row, std::span<const RowId> deletes,
                std::span<const std::vector<Key>> appends);

  /// The sink for WAL flush/byte/record counters, the group-commit
  /// batch-size histogram and the checkpoint counter; null detaches. A
  /// serving engine hands over its own ServingOptions::metrics when it
  /// attaches this manager. The sink must outlive its attachment.
  void set_metrics(obs::ServingMetrics* metrics);

  /// Flushes any buffered commits immediately.
  void FlushNow();

  // --- Checkpointing (recluster publish, under the append mutex) ---------

  /// Takes a durable snapshot of `table` (clone, simulating the flushed
  /// heap image), logs a kCheckpoint record, and truncates the WAL
  /// through it. The caller must guarantee `table` is quiescent (the
  /// engine holds its append mutex across the publish).
  void Checkpoint(const Table& table, RowId clustered_boundary,
                  uint64_t epoch);

  bool has_checkpoint() const;
  /// The snapshot's table / boundary / epoch (null / 0 before the first
  /// Checkpoint).
  const Table* checkpoint_table() const;
  RowId checkpoint_boundary() const;
  uint64_t checkpoint_epoch() const;

  // --- Crash & recovery ---------------------------------------------------

  /// Simulates a crash: un-flushed commits are lost and up to
  /// `torn_tail_bytes` are torn off the last WAL flush (see
  /// WriteAheadLog::Crash). The checkpoint snapshot survives -- it models
  /// the durably flushed heap image.
  void Crash(size_t torn_tail_bytes = 0);

  /// The committed row-write records after the last durable checkpoint, in
  /// log order -- exactly what ServingEngine::Recover replays. Records of
  /// txns without a durable kCommit marker are excluded (a
  /// prepared-but-uncommitted txn must not be replayed).
  std::vector<WalRecord> CommittedTail() const;

  // --- Introspection ------------------------------------------------------

  uint64_t ops_logged() const;
  uint64_t checkpoints_taken() const;
  uint64_t wal_flushes() const;
  uint64_t wal_bytes_durable() const;
  size_t wal_log_bytes() const;

  // --- Payload codec (shared by recovery and tests) -----------------------

  /// One decoded row-write record.
  struct WriteOp {
    RowId first_row = 0;
    std::vector<RowId> deletes;
    std::vector<std::vector<Key>> appends;
  };
  /// Layout: first_row, #deletes, the deleted row ids, #appended rows,
  /// #columns, then the appended keys row by row (all integers u64 LE).
  static std::string EncodeWrite(RowId first_row,
                                 std::span<const RowId> deletes,
                                 std::span<const std::vector<Key>> appends);
  /// False on a truncated payload, trailing bytes, or a count its bytes
  /// cannot hold; never throws.
  static bool DecodeWrite(const std::string& payload, WriteOp* out);

 private:
  /// Flushes and records the batch-size histogram. Caller holds mu_.
  void FlushLocked();
  /// Pushes WAL counter deltas into the metrics sink. Caller holds mu_.
  void SyncMetricsLocked();

  DurabilityOptions options_;
  mutable std::mutex mu_;
  obs::ServingMetrics* metrics_ = nullptr;
  WriteAheadLog wal_;
  uint64_t next_txn_ = 1;
  size_t ops_since_flush_ = 0;
  uint64_t ops_logged_ = 0;
  uint64_t checkpoints_ = 0;
  /// Metric-sync cursors (the registry wants deltas, the WAL keeps
  /// cumulative counters).
  uint64_t synced_flushes_ = 0;
  uint64_t synced_bytes_ = 0;
  uint64_t synced_records_ = 0;
  /// The durable snapshot: a full clone of the last published table.
  std::unique_ptr<Table> snapshot_table_;
  RowId snapshot_boundary_ = 0;
  uint64_t snapshot_epoch_ = 0;
};

}  // namespace corrmap::serve

#endif  // CORRMAP_SERVE_DURABILITY_H_

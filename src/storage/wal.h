// Write-ahead log for the active-database engine.
//
// The log is the durable record of everything the engine decided: each
// appended system state (with the row-level redo deltas that produced its S
// component and the logical clock reading), each firing decision, and each
// integrity-constraint veto. Recovery replays the state records through the
// normal rule-engine path and uses the logged decisions as a differential
// oracle — the replayed engine must reproduce them byte for byte.
//
// Framing: the file starts with the 8-byte magic "PTLWAL01"; each record is
//
//   [u32 payload_len][u32 crc32c(payload)][payload]
//
// with the payload's first byte the record type. A crash mid-write leaves a
// torn tail (short record or CRC mismatch); the reader stops at the last
// valid prefix and reports how many bytes it discarded.

#ifndef PTLDB_STORAGE_WAL_H_
#define PTLDB_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/value.h"
#include "db/transaction.h"
#include "event/event.h"
#include "storage/file.h"
#include "temporal/versioning.h"

namespace ptldb::storage {

inline constexpr char kWalMagic[] = "PTLWAL01";  // 8 bytes on disk
inline constexpr size_t kWalMagicLen = 8;
inline constexpr size_t kWalFrameHeaderLen = 8;  // u32 len + u32 crc

/// When appended records reach stable storage.
enum class FsyncPolicy {
  kNone,   // never fsync (OS decides; fastest, weakest)
  kAsync,  // fsync every kAsyncSyncInterval records
  kSync,   // fsync after every record (strongest)
  kGroup,  // never fsync at append; a GroupCommitter issues batched syncs
           // on behalf of concurrent committers (same guarantee as kSync for
           // acknowledged commits, amortized — see storage/group_commit.h)
};

inline constexpr uint64_t kAsyncSyncInterval = 64;

enum class WalRecordType : uint8_t {
  kState = 1,       // one appended system state + redo deltas + clock reading
  kFiring = 2,      // one firing decision (action about to run)
  kIcVeto = 3,      // one integrity-constraint veto (commit rejected)
  kCheckpoint = 4,  // checkpoint committed (id + history position)
  kTemporal = 5,    // one versioning DDL op (declare/undeclare/trim)
};

struct WalStateRecord {
  uint64_t seq = 0;       // global history sequence number
  Timestamp time = 0;     // state timestamp (replayed exactly)
  Timestamp clock_now = 0;  // clock reading at append (may lag `time`)
  std::vector<event::Event> events;
  std::vector<db::RedoDelta> deltas;
};

struct WalFiringRecord {
  std::string rule;
  std::string params;
  Timestamp time = 0;
};

struct WalIcVetoRecord {
  int64_t txn = 0;
  uint64_t seq = 0;   // seq of the vetoed prospective state
  Timestamp time = 0;
  std::vector<std::string> violated;
};

struct WalCheckpointRecord {
  uint64_t checkpoint_id = 0;
  uint64_t history_size = 0;
};

struct WalTemporalRecord {
  /// History size when the op ran, ordering it against state records:
  /// recovery skips ops a checkpoint already absorbed (seq < restored size;
  /// VersionStore::ApplyOp is idempotent at the boundary).
  uint64_t seq = 0;
  temporal::TemporalOp op;
};

/// One decoded record; `type` selects which member is meaningful.
struct WalRecord {
  WalRecordType type = WalRecordType::kState;
  WalStateRecord state;
  WalFiringRecord firing;
  WalIcVetoRecord veto;
  WalCheckpointRecord checkpoint;
  WalTemporalRecord temporal;
};

struct WalStats {
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t syncs = 0;
  uint64_t state_records = 0;
  uint64_t firing_records = 0;
  uint64_t veto_records = 0;
  uint64_t temporal_records = 0;
};

/// WalStats' field table (see StatRow): the `wal.*` registry names.
inline constexpr StatRow<WalStats> kWalStatRows[] = {
    {"wal.records_appended", &WalStats::records_appended},
    {"wal.bytes_appended", &WalStats::bytes_appended},
    {"wal.syncs", &WalStats::syncs},
    {"wal.state_records", &WalStats::state_records},
    {"wal.firing_records", &WalStats::firing_records},
    {"wal.veto_records", &WalStats::veto_records},
    {"wal.temporal_records", &WalStats::temporal_records},
};

class WalWriter {
 public:
  /// Starts a log in the empty `file` by writing the magic. The writer adds
  /// its counts to `*stats` (not owned; must outlive the writer), so one
  /// struct can total every log a durability manager opens.
  static Result<WalWriter> Create(std::unique_ptr<WritableFile> file,
                                  FsyncPolicy policy, WalStats* stats);

  Status AppendState(const WalStateRecord& rec);
  Status AppendFiring(const WalFiringRecord& rec);
  Status AppendIcVeto(const WalIcVetoRecord& rec);
  Status AppendCheckpoint(const WalCheckpointRecord& rec);
  Status AppendTemporal(const WalTemporalRecord& rec);

  /// Forces an fsync regardless of policy (checkpoint barrier).
  Status Sync();

  FsyncPolicy policy() const { return policy_; }

 private:
  WalWriter(std::unique_ptr<WritableFile> file, FsyncPolicy policy,
            WalStats* stats)
      : file_(std::move(file)), policy_(policy), stats_(stats) {}

  Status AppendFramed(const std::string& payload);

  std::unique_ptr<WritableFile> file_;
  FsyncPolicy policy_;
  WalStats* stats_;
  uint64_t records_since_sync_ = 0;
};

/// Reads a WAL from an in-memory image (recovery loads the file once).
class WalReader {
 public:
  /// Fails only when the magic is missing/corrupt (not a WAL at all);
  /// torn record tails are handled record by record.
  static Result<WalReader> Open(std::string contents);

  /// Next record, or nullopt at the end of the valid prefix. After nullopt,
  /// `torn_bytes()` says how many trailing bytes failed framing/CRC and
  /// `valid_prefix_bytes()` is the offset a truncation should cut at.
  Result<std::optional<WalRecord>> Next();

  uint64_t records_read() const { return records_read_; }
  uint64_t valid_prefix_bytes() const { return valid_prefix_; }
  uint64_t torn_bytes() const { return contents_.size() - valid_prefix_; }

 private:
  explicit WalReader(std::string contents) : contents_(std::move(contents)) {}

  std::string contents_;
  size_t pos_ = kWalMagicLen;
  uint64_t valid_prefix_ = kWalMagicLen;
  uint64_t records_read_ = 0;
  bool done_ = false;
};

/// Payload encoding/decoding, shared by writer and reader (and tests).
std::string EncodeWalRecord(const WalRecord& rec);
Result<WalRecord> DecodeWalRecord(std::string_view payload);

}  // namespace ptldb::storage

#endif  // PTLDB_STORAGE_WAL_H_

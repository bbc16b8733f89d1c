// Checkpointing of the full retained state (the durability tentpole's
// second half: WAL for the tail, checkpoints for the prefix).
//
// A checkpoint serializes everything a restarted process cannot recompute
// from code alone: the database contents and history position, the rule
// engine's per-instance F_{g,i} and-or graphs and aggregate machines, the
// version store, the logical clock, and a metrics snapshot (informational).
// The body still carries a presence byte for a valid-time store section,
// always written 0: VtDatabase commits never reach the WAL, so the section
// is retired and restoring a body that sets it fails.
//
// Directory layout (LevelDB-style):
//
//   <dir>/CURRENT           — name of the live checkpoint file ("checkpoint-7")
//   <dir>/checkpoint-<id>   — magic "PTLCKPT1" + [u32 len][u32 crc][body]
//   <dir>/wal.log           — WAL tail since that checkpoint
//
// CURRENT is replaced atomically (tmp + rename). If CURRENT or the file it
// names is corrupt, the loader falls back to scanning checkpoint-* files in
// descending id order, so one torn checkpoint write never loses the store.

#ifndef PTLDB_STORAGE_CHECKPOINT_H_
#define PTLDB_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "db/database.h"
#include "rules/engine.h"
#include "storage/file.h"
#include "temporal/versioning.h"

namespace ptldb::storage {

inline constexpr char kCheckpointMagic[] = "PTLCKPT1";  // 8 bytes on disk
inline constexpr size_t kCheckpointMagicLen = 8;
inline constexpr char kCurrentFileName[] = "CURRENT";
inline constexpr char kWalFileName[] = "wal.log";
inline constexpr char kCheckpointFilePrefix[] = "checkpoint-";

/// The components a checkpoint covers. `metrics` and `temporal` may be null.
struct CheckpointTargets {
  db::Database* db = nullptr;
  rules::RuleEngine* engine = nullptr;
  Clock* clock = nullptr;
  Metrics* metrics = nullptr;
  /// System-period version store; serialized last in the body so dumps from
  /// before the temporal subsystem restore unchanged.
  temporal::VersionStore* temporal = nullptr;
};

/// Summary of a loaded checkpoint.
struct CheckpointInfo {
  uint64_t id = 0;
  uint64_t history_size = 0;
  Timestamp clock_now = 0;
  std::string metrics_json;  // snapshot taken at checkpoint time ("" if none)
};

/// Serializes the full retained state of `targets` into a checkpoint body
/// (unframed). Fails when the engine is mid-dispatch or transactions are
/// open — checkpoints are only taken at quiescent points.
Status EncodeCheckpoint(uint64_t id, const CheckpointTargets& targets,
                        std::string* out);

/// Writes `<dir>/checkpoint-<id>` (magic + framed body + fsync) and then
/// atomically points CURRENT at it.
Status CommitCheckpointFile(const std::string& dir, uint64_t id,
                            const std::string& body, FileFactory* factory);

/// Loads the newest valid checkpoint body: CURRENT first, then a descending
/// scan of checkpoint-* files. NotFound when the directory holds none.
Result<CheckpointInfo> ReadLatestValidCheckpoint(const std::string& dir,
                                                 std::string* body_out);

/// Restores a checkpoint body into `targets`: clock, database contents,
/// engine retained state, version store. The application must have
/// re-registered all rules/triggers first (their conditions are validated
/// against the dump). Returns the decoded summary.
Result<CheckpointInfo> RestoreCheckpoint(const std::string& body,
                                         const CheckpointTargets& targets);

/// Validates magic + framing + CRC of a checkpoint file image and returns
/// the body. ParseError/Internal on corruption.
Result<std::string> ExtractCheckpointBody(const std::string& file_contents);

}  // namespace ptldb::storage

#endif  // PTLDB_STORAGE_CHECKPOINT_H_

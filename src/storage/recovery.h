// Crash recovery: latest valid checkpoint + WAL tail replay.
//
// Recovery rebuilds the exact pre-crash state in three steps:
//
//   1. Load the newest valid checkpoint (CURRENT, falling back to a scan)
//      and restore clock, database, engine retained state, and the
//      version store, if one is attached. The application must have
//      re-registered all rules and triggers first — rules are code; the
//      checkpoint holds only their retained evaluation state and validates
//      conditions against it.
//   2. Replay the WAL tail through the *normal* engine path: each logged
//      state is re-appended (logged timestamp, logged events, logged redo
//      deltas) and dispatched to the rules with the engine in replay mode —
//      conditions are re-evaluated and firing decisions recomputed, but
//      actions do not run again (their effects are in the logged deltas, and
//      external side effects must stay exactly-once).
//   3. Compare: every logged firing decision must be reproduced byte for
//      byte by the replayed engine (the PR-3 provenance idea as a
//      differential oracle). Mismatches are reported, not silently accepted.
//      Finally the torn tail, if any, is truncated off the log.
//
// Known limitation: a state that the live engine *skipped* because the rule
// dispatch depth limit was exceeded (a pathological self-triggering loop) is
// replayed at depth 0 and would be processed; the firing comparison flags
// the divergence rather than hiding it.

#ifndef PTLDB_STORAGE_RECOVERY_H_
#define PTLDB_STORAGE_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/checkpoint.h"

namespace ptldb::storage {

struct RecoveryReport {
  uint64_t checkpoint_id = 0;
  /// History position restored from the checkpoint.
  uint64_t checkpoint_history_size = 0;
  /// WAL state records re-applied (those past the checkpoint).
  uint64_t states_replayed = 0;
  /// WAL records skipped because the checkpoint already covered them.
  uint64_t records_skipped = 0;
  /// Firing decisions the replayed engine produced.
  uint64_t firings_replayed = 0;
  /// Logged decisions the replay failed to reproduce (must be 0).
  uint64_t firing_mismatches = 0;
  /// IC vetoes re-accounted from the log.
  uint64_t ic_vetoes_replayed = 0;
  /// Versioning DDL ops (declare/undeclare/trim) re-applied from the log.
  uint64_t temporal_ops_replayed = 0;
  uint64_t wal_records_read = 0;
  /// Bytes cut off the WAL tail (torn final write).
  uint64_t torn_bytes = 0;
  /// Human-readable mismatch descriptions (empty on a clean recovery).
  std::vector<std::string> mismatches;

  bool clean() const { return firing_mismatches == 0 && mismatches.empty(); }
  std::string ToString() const;
};

/// Recovers `<dir>` into `targets`. The targets must be freshly constructed
/// with every rule/trigger re-registered and no states appended yet.
/// Returns the report; a non-clean report means the store was recovered but
/// the replayed decisions diverged from the log (a bug, or rules were
/// re-registered with different definitions).
Result<RecoveryReport> Recover(const std::string& dir,
                               const CheckpointTargets& targets);

}  // namespace ptldb::storage

#endif  // PTLDB_STORAGE_RECOVERY_H_

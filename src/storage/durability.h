// DurabilityManager: wires the WAL and checkpointer into a live engine.
//
// Off by default — an engine without a manager attached pays only a null
// pointer check per state. With one attached:
//
//   * Every appended system state is logged (events + redo deltas + logical
//     clock) *before* the rule engine sees it — write-ahead discipline: the
//     record is durable before its triggers act.
//   * Every firing decision and IC veto is logged in execution order, giving
//     recovery a differential oracle to verify replay against.
//   * Checkpoints serialize the full retained state and truncate the WAL;
//     they run manually (Checkpoint()) or automatically every N states, at
//     dispatch depth zero only (a mid-dispatch snapshot would capture a
//     half-stepped engine).
//
// Usage:
//
//   DurabilityOptions opts;
//   opts.dir = "/var/lib/ptldb";
//   opts.fsync = FsyncPolicy::kSync;
//   auto mgr = DurabilityManager::Attach(opts, &db, &engine, &clock);
//
// For recovery, construct fresh components, re-register every rule, call
// storage::Recover(dir, targets), then Attach a new manager (which
// checkpoints the recovered state and resets the WAL).

#ifndef PTLDB_STORAGE_DURABILITY_H_
#define PTLDB_STORAGE_DURABILITY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "storage/checkpoint.h"
#include "storage/group_commit.h"
#include "storage/recovery.h"
#include "storage/wal.h"

namespace ptldb::storage {

struct DurabilityOptions {
  /// Directory for CURRENT / checkpoint-<id> / wal.log. Created if absent.
  std::string dir;

  FsyncPolicy fsync = FsyncPolicy::kAsync;

  /// Take a checkpoint automatically after this many appended states
  /// (counted between checkpoints, at dispatch depth zero). 0 = manual only.
  uint64_t checkpoint_every_n_states = 0;

  /// Test seam: all file opens route through this factory (fault injection).
  /// Null uses the default POSIX factory. Not owned; must outlive the
  /// manager.
  FileFactory* file_factory = nullptr;
};

class DurabilityManager : public db::Database::WalSink,
                          public rules::RuleEngine::FiringObserver,
                          public temporal::VersionStore::DdlSink {
 public:
  /// Attaches durability to live components. Writes a checkpoint of the
  /// current state (id 0 on a fresh directory, last+1 on an existing one —
  /// e.g. right after Recover) and starts a fresh WAL.
  /// `temporal` in `targets` may be null; `db`, `engine`,
  /// `clock` are required.
  static Result<std::unique_ptr<DurabilityManager>> Attach(
      DurabilityOptions options, CheckpointTargets targets);

  /// Detaches from the database and engine; flushes the WAL best-effort.
  ~DurabilityManager() override;

  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  /// Takes a checkpoint now: syncs the WAL, serializes the retained state,
  /// commits checkpoint-<id> + CURRENT, and resets the WAL. Fails
  /// mid-dispatch (call from outside rule actions).
  Status Checkpoint();

  /// Sticky failure: once a WAL append or checkpoint fails, the manager
  /// stops logging and reports the first error here. A durable store must
  /// treat this as fatal (the log no longer covers the live state).
  const Status& status() const { return status_; }

  /// Group commit (FsyncPolicy::kGroup only; null otherwise). Concurrent
  /// sessions append through the manager's normal sink callbacks (engine
  /// thread) and ack durability with WaitWalDurable/group()->WaitDurable.
  GroupCommitter* group() { return group_.get(); }

  /// Durability barrier for acknowledgement: under kGroup, blocks until the
  /// whole WAL tail is on stable storage (one fsync retires every commit
  /// appended since the last barrier). Under kSync it is a no-op (records
  /// are already durable); under kNone/kAsync it is also a no-op — those
  /// policies explicitly trade away the guarantee.
  Status WaitWalDurable();

  /// WAL statistics across checkpoints (every log it opens adds to them).
  const WalStats& wal_stats() const { return wal_stats_; }
  /// Publishes wal_stats() and, under kGroup, group()->stats().
  void PublishMetrics(Metrics& m) const;
  uint64_t last_checkpoint_id() const { return checkpoint_id_; }
  uint64_t checkpoints_taken() const { return checkpoints_taken_; }
  /// States appended since the last checkpoint (the WAL tail length).
  uint64_t states_since_checkpoint() const { return states_since_checkpoint_; }

  const DurabilityOptions& options() const { return options_; }

  // ---- db::Database::WalSink ----
  void BufferDelta(db::RedoDelta delta) override;
  void OnStateAppended(const event::SystemState& state) override;

  // ---- rules::RuleEngine::FiringObserver ----
  void OnFiring(const rules::Firing& firing) override;
  void OnIcVeto(int64_t txn, Timestamp time,
                const std::vector<std::string>& violated_rules) override;

  // ---- temporal::VersionStore::DdlSink ----
  /// Journals a versioning declare/undeclare/trim before it takes effect
  /// (write-ahead, like row deltas). Attach() wires this automatically when
  /// `targets.temporal` is set.
  Status OnTemporalOp(const temporal::TemporalOp& op) override;

 private:
  DurabilityManager(DurabilityOptions options, CheckpointTargets targets)
      : options_(std::move(options)), targets_(targets) {}

  Status OpenFreshWal();
  /// Routes one record append through the group committer when one is
  /// attached (kGroup), directly to the writer otherwise.
  Status AppendRecord(const std::function<Status(WalWriter*)>& append);
  void Fail(Status s);

  DurabilityOptions options_;
  CheckpointTargets targets_;
  FileFactory* factory_ = nullptr;  // options_.file_factory or &posix_
  PosixFileFactory posix_;
  std::unique_ptr<WalWriter> wal_;
  std::unique_ptr<GroupCommitter> group_;  // non-null only under kGroup
  std::vector<db::RedoDelta> pending_deltas_;
  Status status_ = Status::OK();
  uint64_t checkpoint_id_ = 0;       // last committed checkpoint id
  uint64_t next_checkpoint_id_ = 0;  // id the next checkpoint will use
  uint64_t checkpoints_taken_ = 0;
  uint64_t states_since_checkpoint_ = 0;
  bool in_checkpoint_ = false;
  WalStats wal_stats_;  // bumped by every WalWriter the manager opens
};

}  // namespace ptldb::storage

#endif  // PTLDB_STORAGE_DURABILITY_H_

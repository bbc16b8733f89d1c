// WAL group commit: one fsync retires many concurrent commits.
//
// E12 measured FsyncPolicy::kSync at ~3.5x the cost of running without
// durability — almost all of it fsync latency, paid once per appended record.
// With concurrent sessions that cost is embarrassingly amortizable: while the
// disk is busy syncing one batch, later commits pile up behind the log latch
// and the next fsync retires all of them at once. This is the classic group
// commit of transactional storage engines (and LevelDB's writer queue).
//
// Protocol:
//
//   * The WAL is opened with FsyncPolicy::kGroup, so appends never sync.
//   * Appends go through GroupCommitter::Append, which serializes access to
//     the (single-threaded) WalWriter under the log latch and hands back a
//     monotonically increasing LSN (a count of appended records; it survives
//     WAL resets across checkpoints — see Rebind).
//   * A committer that needs durability calls WaitDurable(lsn). A waiter
//     whose LSN is already durable returns immediately; otherwise it becomes
//     the *leader* and fsyncs once, covering everything appended so far.
//   * The leader holds the log latch across the fsync. Appenders and other
//     waiters queue behind it; when the latch frees, queued waiters find
//     their LSN durable and return without ever touching the disk — that
//     queueing is exactly what forms the commit groups.
//
// Failure model: an fsync or append failure is sticky. Every current waiter
// is woken with the same error, and every later Append/WaitDurable returns
// it too — once the log's coverage is in doubt, nothing may be acknowledged
// (mirrors DurabilityManager's sticky-status discipline).

#ifndef PTLDB_STORAGE_GROUP_COMMIT_H_
#define PTLDB_STORAGE_GROUP_COMMIT_H_

#include <cstdint>
#include <functional>
#include <mutex>

#include "common/metrics.h"
#include "common/status.h"
#include "storage/wal.h"

namespace ptldb::storage {

struct GroupCommitStats {
  /// Records appended through the committer.
  uint64_t appends = 0;
  /// Fsyncs issued on behalf of waiters (= number of commit groups).
  uint64_t sync_batches = 0;
  /// WaitDurable calls that returned OK, plus the records each leading
  /// SyncAll made durable.
  uint64_t commits_acked = 0;
  /// Acked commits that did not lead a sync themselves: either already
  /// durable on entry or covered by another leader's fsync.
  uint64_t commits_coalesced = 0;
  /// Most commits retired by a single fsync.
  uint64_t max_batch = 0;
};

/// GroupCommitStats' field table (see StatRow): the `group.*` registry names.
/// max_batch is a maximum, not a count, so it publishes as a gauge.
inline constexpr StatRow<GroupCommitStats> kGroupCommitStatRows[] = {
    {"group.appends", &GroupCommitStats::appends},
    {"group.sync_batches", &GroupCommitStats::sync_batches},
    {"group.commits_acked", &GroupCommitStats::commits_acked},
    {"group.commits_coalesced", &GroupCommitStats::commits_coalesced},
    {"group.max_batch", &GroupCommitStats::max_batch, StatKind::kGauge},
};

class GroupCommitter {
 public:
  /// The committer does not own the writer; `wal` must have been created
  /// with FsyncPolicy::kGroup and stays valid until destruction or Rebind.
  explicit GroupCommitter(WalWriter* wal) : wal_(wal) {}

  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  /// Runs `append` against the writer under the log latch (the WalWriter
  /// itself is single-threaded). Returns the LSN to pass to WaitDurable.
  Result<uint64_t> Append(const std::function<Status(WalWriter*)>& append);

  /// Blocks until every record up to `lsn` is on stable storage; one fsync
  /// (ours or a concurrent leader's) retires the whole waiting group.
  /// Returns the sticky failure if the log is broken.
  Status WaitDurable(uint64_t lsn);

  /// Durability barrier: everything appended so far is synced on return.
  /// A barrier that syncs acks every record it makes durable (N records:
  /// N acked, N-1 coalesced); one finding the tail durable acks nothing.
  Status SyncAll();

  /// Checkpoint rebind: the manager reset the WAL to a fresh file whose
  /// contents start durable-equivalent (the checkpoint barrier synced the
  /// old log and the checkpoint supersedes it). LSNs continue monotonically
  /// across the swap, so outstanding LSN values from before the rebind
  /// compare as already durable.
  void Rebind(WalWriter* wal);

  uint64_t appended_lsn() const;
  uint64_t durable_lsn() const;
  GroupCommitStats stats() const;
  /// Sticky failure status (OK while the log is healthy).
  Status status() const;

 private:
  /// Called with mu_ held: credits `acks` acknowledged commits, `coalesced`
  /// of which did not lead the fsync that covered them.
  void RecordAcks(uint64_t acks, uint64_t coalesced);
  /// Called with mu_ held: one fsync covering everything appended so far.
  /// Starts a new commit group; a failure turns sticky.
  Status LeadSync();

  mutable std::mutex mu_;
  WalWriter* wal_;                 // guarded by mu_
  uint64_t appended_lsn_ = 0;      // guarded by mu_
  uint64_t durable_lsn_ = 0;       // guarded by mu_
  uint64_t batch_acks_ = 0;        // guarded by mu_; acks since last sync
  Status status_ = Status::OK();   // guarded by mu_; sticky
  GroupCommitStats stats_;         // guarded by mu_
};

}  // namespace ptldb::storage

#endif  // PTLDB_STORAGE_GROUP_COMMIT_H_

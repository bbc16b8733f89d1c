#include "storage/group_commit.h"

#include <algorithm>

#include "common/strings.h"

namespace ptldb::storage {

Result<uint64_t> GroupCommitter::Append(
    const std::function<Status(WalWriter*)>& append) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!status_.ok()) return status_;
  Status s = append(wal_);
  if (!s.ok()) {
    status_ = s;
    return status_;
  }
  ++stats_.appends;
  return ++appended_lsn_;
}

void GroupCommitter::RecordAcks(uint64_t acks, uint64_t coalesced) {
  stats_.commits_acked += acks;
  stats_.commits_coalesced += coalesced;
  batch_acks_ += acks;
  stats_.max_batch = std::max(stats_.max_batch, batch_acks_);
}

Status GroupCommitter::LeadSync() {
  const uint64_t target = appended_lsn_;
  Status s = wal_->Sync();
  if (!s.ok()) {
    // Sticky: the tail's coverage is unknown, nothing may be acked anymore.
    // Every queued and future waiter gets this same status.
    status_ = s;
    return status_;
  }
  durable_lsn_ = target;
  ++stats_.sync_batches;
  batch_acks_ = 0;
  return Status::OK();
}

Status GroupCommitter::WaitDurable(uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!status_.ok()) return status_;
  if (lsn > appended_lsn_) {
    return Status::InvalidArgument(
        StrCat("WaitDurable(", lsn, ") past the last appended LSN ",
               appended_lsn_));
  }
  if (durable_lsn_ >= lsn) {
    // Covered by a sync some earlier leader issued while we queued on the
    // latch (or long before) — the amortized fast path.
    RecordAcks(1, 1);
    return Status::OK();
  }
  // Lead: one fsync covers everything appended so far, not just our record.
  // The latch is held across the fsync; committers piling up behind it form
  // the next group.
  PTLDB_RETURN_IF_ERROR(LeadSync());
  RecordAcks(1, 0);
  return Status::OK();
}

Status GroupCommitter::SyncAll() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!status_.ok()) return status_;
  if (durable_lsn_ >= appended_lsn_) return Status::OK();
  // The barrier acks every record its fsync makes durable (the server acks
  // a whole batch this way): one led the sync, the rest rode along.
  const uint64_t covered = appended_lsn_ - durable_lsn_;
  PTLDB_RETURN_IF_ERROR(LeadSync());
  RecordAcks(covered, covered - 1);
  return Status::OK();
}

void GroupCommitter::Rebind(WalWriter* wal) {
  std::lock_guard<std::mutex> lock(mu_);
  wal_ = wal;
  // The checkpoint barrier synced the old log before the swap and the fresh
  // log is superseded by the checkpoint itself, so every LSN handed out so
  // far is durable by definition.
  durable_lsn_ = appended_lsn_;
  batch_acks_ = 0;
}

uint64_t GroupCommitter::appended_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_lsn_;
}

uint64_t GroupCommitter::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

GroupCommitStats GroupCommitter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Status GroupCommitter::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

}  // namespace ptldb::storage

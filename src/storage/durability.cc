#include "storage/durability.h"

#include <filesystem>
#include <utility>

#include "common/strings.h"

namespace ptldb::storage {

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::Attach(
    DurabilityOptions options, CheckpointTargets targets) {
  if (targets.db == nullptr || targets.engine == nullptr ||
      targets.clock == nullptr) {
    return Status::InvalidArgument(
        "durability requires a database, an engine and a clock");
  }
  if (options.dir.empty()) {
    return Status::InvalidArgument("durability directory must not be empty");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::Internal(StrCat("cannot create durability directory '",
                                   options.dir, "': ", ec.message()));
  }
  std::unique_ptr<DurabilityManager> mgr(
      new DurabilityManager(std::move(options), targets));
  mgr->factory_ = mgr->options_.file_factory != nullptr
                      ? mgr->options_.file_factory
                      : &mgr->posix_;
  // Continue the id sequence of whatever the directory already holds (e.g.
  // attaching right after Recover); a fresh directory starts at 0.
  std::string ignored_body;
  auto latest = ReadLatestValidCheckpoint(mgr->options_.dir, &ignored_body);
  if (latest.ok()) {
    mgr->next_checkpoint_id_ = latest.value().id + 1;
  } else if (latest.status().code() != StatusCode::kNotFound) {
    return latest.status();
  }
  // The attach checkpoint: durability coverage starts from the state the
  // components are in right now, whatever history preceded it.
  PTLDB_RETURN_IF_ERROR(mgr->Checkpoint());
  targets.db->SetWalSink(mgr.get());
  targets.engine->SetFiringObserver(mgr.get());
  if (targets.temporal != nullptr) targets.temporal->SetDdlSink(mgr.get());
  if (mgr->options_.checkpoint_every_n_states > 0) {
    DurabilityManager* self = mgr.get();
    targets.engine->SetPostUpdateHook([self]() {
      if (!self->status_.ok() || self->in_checkpoint_) return;
      if (self->states_since_checkpoint_ <
          self->options_.checkpoint_every_n_states) {
        return;
      }
      // Preconditions (e.g. an open transaction at this state) postpone the
      // checkpoint to a later safe point; IO failures stick via Fail().
      (void)self->Checkpoint();
    });
  }
  return mgr;
}

DurabilityManager::~DurabilityManager() {
  if (targets_.db != nullptr && targets_.db->wal_sink() == this) {
    targets_.db->SetWalSink(nullptr);
  }
  if (targets_.engine != nullptr) {
    targets_.engine->SetFiringObserver(nullptr);
    targets_.engine->SetPostUpdateHook(nullptr);
  }
  if (targets_.temporal != nullptr) targets_.temporal->SetDdlSink(nullptr);
  if (wal_ != nullptr && status_.ok()) {
    if (group_ != nullptr) {
      (void)group_->SyncAll();
    } else {
      (void)wal_->Sync();
    }
  }
}

Status DurabilityManager::AppendRecord(
    const std::function<Status(WalWriter*)>& append) {
  if (group_ != nullptr) return group_->Append(append).status();
  return append(wal_.get());
}

Status DurabilityManager::WaitWalDurable() {
  if (!status_.ok()) return status_;
  if (group_ == nullptr) return Status::OK();
  Status s = group_->SyncAll();
  if (!s.ok()) Fail(s);
  return s;
}

Status DurabilityManager::OpenFreshWal() {
  if (wal_ != nullptr) {
    stats_snapshot_ = wal_stats();  // fold the retiring log into the total
    wal_.reset();
  }
  PTLDB_ASSIGN_OR_RETURN(
      std::unique_ptr<WritableFile> file,
      factory_->OpenWritable(StrCat(options_.dir, "/", kWalFileName),
                             /*truncate=*/true));
  PTLDB_ASSIGN_OR_RETURN(
      WalWriter writer,
      WalWriter::Create(std::move(file), /*existing_bytes=*/0, options_.fsync));
  wal_ = std::make_unique<WalWriter>(std::move(writer));
  if (options_.fsync == FsyncPolicy::kGroup) {
    if (group_ == nullptr) {
      group_ = std::make_unique<GroupCommitter>(wal_.get());
    } else {
      group_->Rebind(wal_.get());
    }
  }
  // First record names the checkpoint this log extends — a reader can tell a
  // stale WAL (from before the crash-recover cycle) from the live one.
  WalCheckpointRecord marker;
  marker.checkpoint_id = checkpoint_id_;
  marker.history_size = targets_.db->history().size();
  return AppendRecord(
      [&marker](WalWriter* wal) { return wal->AppendCheckpoint(marker); });
}

Status DurabilityManager::Checkpoint() {
  if (!status_.ok()) return status_;
  if (in_checkpoint_) {
    return Status::InvalidArgument("checkpoint already in progress");
  }
  in_checkpoint_ = true;
  const uint64_t id = next_checkpoint_id_;
  std::string body;
  // Serialization failures (mid-dispatch, open transactions) are not sticky:
  // the store on disk is still consistent, the caller just picked a bad
  // moment.
  Status s = EncodeCheckpoint(id, targets_, &body);
  if (!s.ok()) {
    in_checkpoint_ = false;
    return s;
  }
  // Everything past this point touches the disk; failures are fatal.
  if (wal_ != nullptr) {
    s = group_ != nullptr ? group_->SyncAll() : wal_->Sync();
    if (!s.ok()) {
      in_checkpoint_ = false;
      Fail(s);
      return s;
    }
  }
  s = CommitCheckpointFile(options_.dir, id, body, factory_);
  if (!s.ok()) {
    in_checkpoint_ = false;
    Fail(s);
    return s;
  }
  ++checkpoints_taken_;
  checkpoint_id_ = id;
  next_checkpoint_id_ = id + 1;
  states_since_checkpoint_ = 0;
  s = OpenFreshWal();
  in_checkpoint_ = false;
  if (!s.ok()) {
    Fail(s);
    return s;
  }
  return Status::OK();
}

WalStats DurabilityManager::wal_stats() const {
  WalStats total = stats_snapshot_;
  if (wal_ != nullptr) {
    const WalStats& s = wal_->stats();
    total.records_appended += s.records_appended;
    total.bytes_appended += s.bytes_appended;
    total.syncs += s.syncs;
    total.state_records += s.state_records;
    total.firing_records += s.firing_records;
    total.veto_records += s.veto_records;
    total.temporal_records += s.temporal_records;
  }
  return total;
}

void DurabilityManager::BufferDelta(db::RedoDelta delta) {
  if (!status_.ok()) return;
  pending_deltas_.push_back(std::move(delta));
}

void DurabilityManager::OnStateAppended(const event::SystemState& state) {
  std::vector<db::RedoDelta> deltas = std::move(pending_deltas_);
  pending_deltas_.clear();
  if (!status_.ok() || wal_ == nullptr) return;
  WalStateRecord rec;
  rec.seq = state.seq;
  rec.time = state.time;
  rec.clock_now = targets_.clock->Now();
  rec.events = state.events;
  rec.deltas = std::move(deltas);
  Status s =
      AppendRecord([&rec](WalWriter* wal) { return wal->AppendState(rec); });
  if (!s.ok()) {
    Fail(std::move(s));
    return;
  }
  ++states_since_checkpoint_;
}

void DurabilityManager::OnFiring(const rules::Firing& firing) {
  if (!status_.ok() || wal_ == nullptr) return;
  WalFiringRecord rec;
  rec.rule = firing.rule;
  rec.params = firing.params;
  rec.time = firing.time;
  Status s =
      AppendRecord([&rec](WalWriter* wal) { return wal->AppendFiring(rec); });
  if (!s.ok()) Fail(std::move(s));
}

void DurabilityManager::OnIcVeto(int64_t txn, Timestamp time,
                                 const std::vector<std::string>& violated) {
  // Vetoed writes are never buffered (the database buffers only after the
  // verdict passes), but clear defensively: a stray delta here would leak
  // into the next committed state's record.
  pending_deltas_.clear();
  if (!status_.ok() || wal_ == nullptr) return;
  WalIcVetoRecord rec;
  rec.txn = txn;
  rec.seq = targets_.db->history().size();  // the rejected prospective seq
  rec.time = time;
  rec.violated = violated;
  Status s =
      AppendRecord([&rec](WalWriter* wal) { return wal->AppendIcVeto(rec); });
  if (!s.ok()) Fail(std::move(s));
}

Status DurabilityManager::OnTemporalOp(const temporal::TemporalOp& op) {
  if (!status_.ok()) return status_;
  if (wal_ == nullptr) return Status::OK();
  WalTemporalRecord rec;
  rec.seq = targets_.db->history().size();
  rec.op = op;
  Status s = AppendRecord(
      [&rec](WalWriter* wal) { return wal->AppendTemporal(rec); });
  if (!s.ok()) Fail(s);
  return s;
}

void DurabilityManager::Fail(Status s) {
  if (status_.ok()) status_ = std::move(s);
}

}  // namespace ptldb::storage

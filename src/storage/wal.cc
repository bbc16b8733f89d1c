#include "storage/wal.h"

#include <cstring>

#include "common/strings.h"

namespace ptldb::storage {

namespace {

void EncodeDelta(const db::RedoDelta& d, codec::Writer* w) {
  w->U8(static_cast<uint8_t>(d.kind));
  w->Str(d.table);
  w->ValVec(d.row);
  w->ValVec(d.new_row);
}

Result<db::RedoDelta> DecodeDelta(codec::Reader* r) {
  db::RedoDelta d;
  PTLDB_ASSIGN_OR_RETURN(uint8_t kind, r->U8());
  if (kind > static_cast<uint8_t>(db::RedoDelta::Kind::kUpdate)) {
    return Status::ParseError(StrCat("bad redo-delta kind ", kind));
  }
  d.kind = static_cast<db::RedoDelta::Kind>(kind);
  PTLDB_ASSIGN_OR_RETURN(d.table, r->Str());
  PTLDB_ASSIGN_OR_RETURN(d.row, r->ValVec());
  PTLDB_ASSIGN_OR_RETURN(d.new_row, r->ValVec());
  return d;
}

}  // namespace

std::string EncodeWalRecord(const WalRecord& rec) {
  std::string payload;
  codec::Writer w(&payload);
  w.U8(static_cast<uint8_t>(rec.type));
  switch (rec.type) {
    case WalRecordType::kState: {
      const WalStateRecord& s = rec.state;
      w.U64(s.seq);
      w.I64(s.time);
      w.I64(s.clock_now);
      w.U32(static_cast<uint32_t>(s.events.size()));
      for (const event::Event& e : s.events) event::SerializeEvent(e, &w);
      w.U32(static_cast<uint32_t>(s.deltas.size()));
      for (const db::RedoDelta& d : s.deltas) EncodeDelta(d, &w);
      break;
    }
    case WalRecordType::kFiring:
      w.Str(rec.firing.rule);
      w.Str(rec.firing.params);
      w.I64(rec.firing.time);
      break;
    case WalRecordType::kIcVeto:
      w.I64(rec.veto.txn);
      w.U64(rec.veto.seq);
      w.I64(rec.veto.time);
      w.U32(static_cast<uint32_t>(rec.veto.violated.size()));
      for (const std::string& name : rec.veto.violated) w.Str(name);
      break;
    case WalRecordType::kCheckpoint:
      w.U64(rec.checkpoint.checkpoint_id);
      w.U64(rec.checkpoint.history_size);
      break;
    case WalRecordType::kTemporal:
      w.U64(rec.temporal.seq);
      temporal::SerializeTemporalOp(rec.temporal.op, &w);
      break;
  }
  return payload;
}

Result<WalRecord> DecodeWalRecord(std::string_view payload) {
  codec::Reader r(payload);
  WalRecord rec;
  PTLDB_ASSIGN_OR_RETURN(uint8_t type, r.U8());
  if (type < static_cast<uint8_t>(WalRecordType::kState) ||
      type > static_cast<uint8_t>(WalRecordType::kTemporal)) {
    return Status::ParseError(StrCat("bad WAL record type ", type));
  }
  rec.type = static_cast<WalRecordType>(type);
  switch (rec.type) {
    case WalRecordType::kState: {
      WalStateRecord& s = rec.state;
      PTLDB_ASSIGN_OR_RETURN(s.seq, r.U64());
      PTLDB_ASSIGN_OR_RETURN(s.time, r.I64());
      PTLDB_ASSIGN_OR_RETURN(s.clock_now, r.I64());
      PTLDB_ASSIGN_OR_RETURN(uint32_t num_events, r.U32());
      for (uint32_t i = 0; i < num_events; ++i) {
        PTLDB_ASSIGN_OR_RETURN(event::Event e, event::DeserializeEvent(&r));
        s.events.push_back(std::move(e));
      }
      PTLDB_ASSIGN_OR_RETURN(uint32_t num_deltas, r.U32());
      for (uint32_t i = 0; i < num_deltas; ++i) {
        PTLDB_ASSIGN_OR_RETURN(db::RedoDelta d, DecodeDelta(&r));
        s.deltas.push_back(std::move(d));
      }
      break;
    }
    case WalRecordType::kFiring: {
      PTLDB_ASSIGN_OR_RETURN(rec.firing.rule, r.Str());
      PTLDB_ASSIGN_OR_RETURN(rec.firing.params, r.Str());
      PTLDB_ASSIGN_OR_RETURN(rec.firing.time, r.I64());
      break;
    }
    case WalRecordType::kIcVeto: {
      PTLDB_ASSIGN_OR_RETURN(rec.veto.txn, r.I64());
      PTLDB_ASSIGN_OR_RETURN(rec.veto.seq, r.U64());
      PTLDB_ASSIGN_OR_RETURN(rec.veto.time, r.I64());
      PTLDB_ASSIGN_OR_RETURN(uint32_t num_violated, r.U32());
      for (uint32_t i = 0; i < num_violated; ++i) {
        PTLDB_ASSIGN_OR_RETURN(std::string name, r.Str());
        rec.veto.violated.push_back(std::move(name));
      }
      break;
    }
    case WalRecordType::kCheckpoint: {
      PTLDB_ASSIGN_OR_RETURN(rec.checkpoint.checkpoint_id, r.U64());
      PTLDB_ASSIGN_OR_RETURN(rec.checkpoint.history_size, r.U64());
      break;
    }
    case WalRecordType::kTemporal: {
      PTLDB_ASSIGN_OR_RETURN(rec.temporal.seq, r.U64());
      PTLDB_ASSIGN_OR_RETURN(rec.temporal.op, temporal::DeserializeTemporalOp(&r));
      break;
    }
  }
  PTLDB_RETURN_IF_ERROR(r.ExpectEnd());
  return rec;
}

// ---- WalWriter --------------------------------------------------------------

Result<WalWriter> WalWriter::Create(std::unique_ptr<WritableFile> file,
                                    FsyncPolicy policy, WalStats* stats) {
  WalWriter writer(std::move(file), policy, stats);
  PTLDB_RETURN_IF_ERROR(
      writer.file_->Append(std::string_view(kWalMagic, kWalMagicLen)));
  stats->bytes_appended += kWalMagicLen;
  return writer;
}

Status WalWriter::AppendFramed(const std::string& payload) {
  std::string frame;
  codec::Writer w(&frame);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(codec::Crc32c(payload.data(), payload.size()));
  frame += payload;
  PTLDB_RETURN_IF_ERROR(file_->Append(frame));
  ++stats_->records_appended;
  stats_->bytes_appended += frame.size();
  ++records_since_sync_;
  if (policy_ == FsyncPolicy::kSync ||
      (policy_ == FsyncPolicy::kAsync &&
       records_since_sync_ >= kAsyncSyncInterval)) {
    PTLDB_RETURN_IF_ERROR(Sync());
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  PTLDB_RETURN_IF_ERROR(file_->Sync());
  ++stats_->syncs;
  records_since_sync_ = 0;
  return Status::OK();
}

Status WalWriter::AppendState(const WalStateRecord& rec) {
  ++stats_->state_records;
  WalRecord r;
  r.type = WalRecordType::kState;
  r.state = rec;
  return AppendFramed(EncodeWalRecord(r));
}

Status WalWriter::AppendFiring(const WalFiringRecord& rec) {
  ++stats_->firing_records;
  WalRecord r;
  r.type = WalRecordType::kFiring;
  r.firing = rec;
  return AppendFramed(EncodeWalRecord(r));
}

Status WalWriter::AppendIcVeto(const WalIcVetoRecord& rec) {
  ++stats_->veto_records;
  WalRecord r;
  r.type = WalRecordType::kIcVeto;
  r.veto = rec;
  return AppendFramed(EncodeWalRecord(r));
}

Status WalWriter::AppendCheckpoint(const WalCheckpointRecord& rec) {
  WalRecord r;
  r.type = WalRecordType::kCheckpoint;
  r.checkpoint = rec;
  return AppendFramed(EncodeWalRecord(r));
}

Status WalWriter::AppendTemporal(const WalTemporalRecord& rec) {
  ++stats_->temporal_records;
  WalRecord r;
  r.type = WalRecordType::kTemporal;
  r.temporal = rec;
  return AppendFramed(EncodeWalRecord(r));
}

// ---- WalReader --------------------------------------------------------------

Result<WalReader> WalReader::Open(std::string contents) {
  if (contents.size() < kWalMagicLen ||
      std::memcmp(contents.data(), kWalMagic, kWalMagicLen) != 0) {
    return Status::ParseError(
        "not a WAL file (bad or truncated magic header)");
  }
  return WalReader(std::move(contents));
}

Result<std::optional<WalRecord>> WalReader::Next() {
  if (done_) return std::optional<WalRecord>();
  // Frame header.
  if (pos_ + kWalFrameHeaderLen > contents_.size()) {
    done_ = true;  // torn header (or clean EOF when pos_ == size)
    return std::optional<WalRecord>();
  }
  codec::Reader header(
      std::string_view(contents_.data() + pos_, kWalFrameHeaderLen));
  PTLDB_ASSIGN_OR_RETURN(uint32_t len, header.U32());
  PTLDB_ASSIGN_OR_RETURN(uint32_t crc, header.U32());
  size_t payload_at = pos_ + kWalFrameHeaderLen;
  if (payload_at + len > contents_.size()) {
    done_ = true;  // torn payload
    return std::optional<WalRecord>();
  }
  std::string_view payload(contents_.data() + payload_at, len);
  if (codec::Crc32c(payload.data(), payload.size()) != crc) {
    done_ = true;  // corrupt record: treat as the start of the torn tail
    return std::optional<WalRecord>();
  }
  auto rec = DecodeWalRecord(payload);
  if (!rec.ok()) {
    done_ = true;  // CRC passed but the payload is malformed — stop here
    return std::optional<WalRecord>();
  }
  pos_ = payload_at + len;
  valid_prefix_ = pos_;
  ++records_read_;
  return std::optional<WalRecord>(std::move(rec).value());
}

}  // namespace ptldb::storage

#include "storage/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <vector>

#include "common/strings.h"

namespace ptldb::storage {

namespace fs = std::filesystem;

Status EncodeCheckpoint(uint64_t id, const CheckpointTargets& targets,
                        std::string* out) {
  out->clear();
  codec::Writer w(out);
  w.U64(id);
  const db::Database& db = *targets.db;
  w.I64(targets.clock->Now());
  w.U64(db.history().size());
  w.I64(db.history().last_time());
  PTLDB_RETURN_IF_ERROR(db.SerializeContents(&w));
  PTLDB_RETURN_IF_ERROR(targets.engine->SerializeRetainedState(&w));
  w.Bool(false);  // retired valid-time section
  w.Str(targets.metrics != nullptr ? targets.metrics->ToJson() : std::string());
  // Temporal section last: bodies written before the subsystem existed simply
  // end here, and the restore side treats "no bytes left" as "no store".
  w.Bool(targets.temporal != nullptr);
  if (targets.temporal != nullptr) {
    targets.temporal->Serialize(&w);
  }
  return Status::OK();
}

Status CommitCheckpointFile(const std::string& dir, uint64_t id,
                            const std::string& body, FileFactory* factory) {
  std::string path = StrCat(dir, "/", kCheckpointFilePrefix, id);
  std::string frame;
  codec::Writer w(&frame);
  w.U32(static_cast<uint32_t>(body.size()));
  w.U32(codec::Crc32c(body.data(), body.size()));
  PTLDB_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> f,
                         factory->OpenWritable(path, /*truncate=*/true));
  PTLDB_RETURN_IF_ERROR(
      f->Append(std::string_view(kCheckpointMagic, kCheckpointMagicLen)));
  PTLDB_RETURN_IF_ERROR(f->Append(frame));
  PTLDB_RETURN_IF_ERROR(f->Append(body));
  PTLDB_RETURN_IF_ERROR(f->Sync());
  PTLDB_RETURN_IF_ERROR(f->Close());
  // Only after the checkpoint file is durable does CURRENT move to it.
  return WriteStringToFileAtomic(StrCat(dir, "/", kCurrentFileName),
                                 StrCat(kCheckpointFilePrefix, id), factory);
}

Result<std::string> ExtractCheckpointBody(const std::string& file_contents) {
  if (file_contents.size() < kCheckpointMagicLen + 8 ||
      std::memcmp(file_contents.data(), kCheckpointMagic,
                  kCheckpointMagicLen) != 0) {
    return Status::ParseError("not a checkpoint file (bad magic)");
  }
  codec::Reader header(std::string_view(
      file_contents.data() + kCheckpointMagicLen, 8));
  PTLDB_ASSIGN_OR_RETURN(uint32_t len, header.U32());
  PTLDB_ASSIGN_OR_RETURN(uint32_t crc, header.U32());
  size_t body_at = kCheckpointMagicLen + 8;
  if (body_at + len != file_contents.size()) {
    return Status::ParseError(
        StrCat("checkpoint body truncated: header says ", len, " bytes, file "
               "holds ", file_contents.size() - body_at));
  }
  std::string_view body(file_contents.data() + body_at, len);
  if (codec::Crc32c(body.data(), body.size()) != crc) {
    return Status::ParseError("checkpoint body fails its CRC");
  }
  return std::string(body);
}

namespace {

// Reads and validates one checkpoint file; returns its body.
Result<std::string> LoadCheckpointFile(const std::string& path) {
  std::string contents;
  PTLDB_RETURN_IF_ERROR(ReadFileToString(path, &contents));
  return ExtractCheckpointBody(contents);
}

// Decodes just the header fields of a body (id, clock, history position).
Result<CheckpointInfo> PeekInfo(const std::string& body) {
  codec::Reader r(body);
  CheckpointInfo info;
  PTLDB_ASSIGN_OR_RETURN(info.id, r.U64());
  PTLDB_ASSIGN_OR_RETURN(info.clock_now, r.I64());
  PTLDB_ASSIGN_OR_RETURN(info.history_size, r.U64());
  return info;
}

}  // namespace

Result<CheckpointInfo> ReadLatestValidCheckpoint(const std::string& dir,
                                                 std::string* body_out) {
  // First choice: the file CURRENT names.
  std::string current;
  if (ReadFileToString(StrCat(dir, "/", kCurrentFileName), &current).ok()) {
    // Trim a trailing newline, tolerated for hand-edited manifests.
    while (!current.empty() && (current.back() == '\n' || current.back() == '\r')) {
      current.pop_back();
    }
    auto body = LoadCheckpointFile(StrCat(dir, "/", current));
    if (body.ok()) {
      *body_out = std::move(body).value();
      return PeekInfo(*body_out);
    }
  }
  // Fallback: scan checkpoint-* files, newest id first. A torn CURRENT or a
  // corrupt live checkpoint must not lose the older valid one.
  std::vector<uint64_t> ids;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.rfind(kCheckpointFilePrefix, 0) != 0) continue;
    std::string id_part = name.substr(std::strlen(kCheckpointFilePrefix));
    if (id_part.empty() ||
        id_part.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    ids.push_back(std::stoull(id_part));
  }
  if (ec) {
    return Status::Internal(
        StrCat("cannot list checkpoint directory '", dir, "': ", ec.message()));
  }
  std::sort(ids.rbegin(), ids.rend());
  for (uint64_t id : ids) {
    auto body = LoadCheckpointFile(StrCat(dir, "/", kCheckpointFilePrefix, id));
    if (body.ok()) {
      *body_out = std::move(body).value();
      return PeekInfo(*body_out);
    }
  }
  return Status::NotFound(
      StrCat("no valid checkpoint in directory '", dir, "'"));
}

Result<CheckpointInfo> RestoreCheckpoint(const std::string& body,
                                         const CheckpointTargets& targets) {
  codec::Reader r(body);
  CheckpointInfo info;
  PTLDB_ASSIGN_OR_RETURN(info.id, r.U64());
  PTLDB_ASSIGN_OR_RETURN(info.clock_now, r.I64());
  PTLDB_ASSIGN_OR_RETURN(info.history_size, r.U64());
  Timestamp history_last_time = 0;
  PTLDB_ASSIGN_OR_RETURN(history_last_time, r.I64());
  (void)history_last_time;  // re-read inside RestoreContents
  PTLDB_RETURN_IF_ERROR(targets.clock->Restore(info.clock_now));
  PTLDB_RETURN_IF_ERROR(targets.db->RestoreContents(&r));
  PTLDB_RETURN_IF_ERROR(targets.engine->RestoreRetainedState(&r));
  PTLDB_ASSIGN_OR_RETURN(bool has_vt, r.Bool());
  if (has_vt) {
    return Status::InvalidArgument(
        "checkpoint holds a valid-time store section, which is retired: "
        "VtDatabase commits never reach the WAL, so it cannot be recovered");
  }
  PTLDB_ASSIGN_OR_RETURN(info.metrics_json, r.Str());
  if (r.remaining() > 0) {  // dumps predating the temporal subsystem end here
    PTLDB_ASSIGN_OR_RETURN(bool has_temporal, r.Bool());
    if (has_temporal) {
      if (targets.temporal == nullptr) {
        return Status::InvalidArgument(
            "checkpoint holds a version store but none was supplied");
      }
      PTLDB_RETURN_IF_ERROR(targets.temporal->Deserialize(&r));
    }
  }
  PTLDB_RETURN_IF_ERROR(r.ExpectEnd());
  return info;
}

}  // namespace ptldb::storage

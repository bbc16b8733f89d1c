#include "temporal/versioning.h"

#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace ptldb::temporal {

namespace {
// Wire version for VersionStore checkpoint blobs.
constexpr uint8_t kStoreVersion = 1;
}  // namespace

VersionStore::VersionStore(db::Database* db) : db_(db) {
  PTLDB_CHECK(db_ != nullptr && "version store needs a database");
  PTLDB_CHECK(db_->temporal_sink() == nullptr &&
              "database already has a temporal sink");
  db_->SetTemporalSink(this);
}

VersionStore::~VersionStore() {
  if (db_->temporal_sink() == this) db_->SetTemporalSink(nullptr);
}

Status VersionStore::Journal(const TemporalOp& op) {
  if (ddl_sink_ == nullptr) return Status::OK();
  return ddl_sink_->OnTemporalOp(op);
}

Status VersionStore::SetVersioned(const std::string& table) {
  TemporalOp op;
  op.kind = TemporalOp::Kind::kDeclare;
  op.table = table;
  // Validate before journaling so a rejected declare leaves no WAL record.
  if (tables_.count(table) != 0) {
    return Status::AlreadyExists(
        StrCat("table '", table, "' is already versioned"));
  }
  PTLDB_RETURN_IF_ERROR(db_->catalog().GetTable(table).status());
  PTLDB_RETURN_IF_ERROR(Journal(op));
  return DoSetVersioned(table, /*strict=*/true);
}

Status VersionStore::DoSetVersioned(const std::string& table, bool strict) {
  auto it = tables_.find(table);
  if (it != tables_.end()) {
    if (strict) {
      return Status::AlreadyExists(
          StrCat("table '", table, "' is already versioned"));
    }
    return Status::OK();  // replay of an op the checkpoint already absorbed
  }
  PTLDB_ASSIGN_OR_RETURN(const db::Table* t,
                         std::as_const(*db_).catalog().GetTable(table));
  eval::RelationHistory history(t->schema(), KeyColumn(table, t->schema()));
  // Seed with the current contents at the current history time, so the
  // declaration instant itself is queryable; commits that follow carry
  // timestamps >= this (NextTimestamp keeps history time monotone).
  const Timestamp seed_time = db_->history().empty()
                                  ? db_->clock()->Now()
                                  : db_->history().last_time();
  PTLDB_RETURN_IF_ERROR(history.ApplyDelta(seed_time, {}, t->rows()));
  tables_.emplace(table, std::move(history));
  return Status::OK();
}

Status VersionStore::DropVersioned(const std::string& table) {
  if (tables_.count(table) == 0) {
    return Status::NotFound(StrCat("table '", table, "' is not versioned"));
  }
  TemporalOp op;
  op.kind = TemporalOp::Kind::kUndeclare;
  op.table = table;
  PTLDB_RETURN_IF_ERROR(Journal(op));
  return DoDropVersioned(table, /*strict=*/true);
}

Status VersionStore::DoDropVersioned(const std::string& table, bool strict) {
  if (tables_.erase(table) == 0 && strict) {
    return Status::NotFound(StrCat("table '", table, "' is not versioned"));
  }
  return Status::OK();
}

Status VersionStore::TrimHistoryBefore(Timestamp horizon) {
  TemporalOp op;
  op.kind = TemporalOp::Kind::kTrim;
  op.horizon = horizon;
  PTLDB_RETURN_IF_ERROR(Journal(op));
  return DoTrim(horizon);
}

Status VersionStore::DoTrim(Timestamp horizon) {
  for (auto& [name, history] : tables_) {
    (void)name;
    history.TrimBefore(horizon);
  }
  // Commit points before the horizon may no longer reconstruct (their rows
  // are gone); forget them so the offline checker never asks.
  size_t out = 0;
  for (size_t i = 0; i < commit_log_.size(); ++i) {
    if (commit_log_[i].time < horizon) continue;
    if (out != i) commit_log_[out] = std::move(commit_log_[i]);
    ++out;
  }
  commit_points_trimmed_ += commit_log_.size() - out;
  commit_log_.resize(out);
  return Status::OK();
}

Status VersionStore::ApplyOp(const TemporalOp& op) {
  switch (op.kind) {
    case TemporalOp::Kind::kDeclare:
      return DoSetVersioned(op.table, /*strict=*/false);
    case TemporalOp::Kind::kUndeclare:
      return DoDropVersioned(op.table, /*strict=*/false);
    case TemporalOp::Kind::kTrim:
      return DoTrim(op.horizon);
  }
  return Status::InvalidArgument("unknown temporal op kind");
}

bool VersionStore::IsVersioned(const std::string& table) const {
  return tables_.count(table) != 0;
}

std::optional<size_t> VersionStore::KeyColumn(const std::string& table,
                                              const db::Schema& schema) const {
  auto t = std::as_const(*db_).catalog().GetTable(table);
  if (!t.ok() || (*t)->primary_key().size() != 1) return std::nullopt;
  auto index = schema.IndexOf((*t)->primary_key()[0]);
  if (!index.ok()) return std::nullopt;
  return *index;
}

Result<const eval::RelationHistory*> VersionStore::Versioned(
    const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::InvalidArgument(
        StrCat("table '", table, "' is not versioned; AS OF needs a ",
               "versioned table"));
  }
  return &it->second;
}

Result<db::Relation> VersionStore::TableAsOf(const std::string& table,
                                             Timestamp t) const {
  PTLDB_ASSIGN_OR_RETURN(const eval::RelationHistory* history,
                         Versioned(table));
  return history->AsOf(t);
}

Result<db::Relation> VersionStore::TableAsOfKey(const std::string& table,
                                                Timestamp t,
                                                const std::string& column,
                                                const Value& key) const {
  PTLDB_ASSIGN_OR_RETURN(const eval::RelationHistory* history,
                         Versioned(table));
  const std::optional<size_t> key_column = history->key_column();
  if (key_column.has_value() &&
      history->schema().column(*key_column).name == column) {
    return history->AsOf(t, key);
  }
  return history->AsOf(t);
}

std::vector<std::string> VersionStore::VersionedTables() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, history] : tables_) {
    (void)history;
    names.push_back(name);
  }
  return names;
}

Result<db::Relation> VersionStore::HistoryRelation(
    const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound(StrCat("table '", table, "' is not versioned"));
  }
  return it->second.Store();
}

Result<const eval::RelationHistory*> VersionStore::History(
    const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound(StrCat("table '", table, "' is not versioned"));
  }
  return &it->second;
}

Status VersionStore::OnCommit(const event::SystemState& state,
                              const std::vector<db::RedoDelta>& deltas) {
  // Group the redo image by versioned table, preserving write order.
  std::map<std::string, std::pair<std::vector<db::Tuple>,
                                  std::vector<db::Tuple>>>
      by_table;
  for (const db::RedoDelta& d : deltas) {
    if (tables_.count(d.table) == 0) continue;
    auto& [removed, added] = by_table[d.table];
    switch (d.kind) {
      case db::RedoDelta::Kind::kInsert:
        added.push_back(d.row);
        break;
      case db::RedoDelta::Kind::kDelete:
        removed.push_back(d.row);
        break;
      case db::RedoDelta::Kind::kUpdate:
        removed.push_back(d.row);
        added.push_back(d.new_row);
        break;
    }
  }
  for (auto& [name, delta] : by_table) {
    PTLDB_RETURN_IF_ERROR(
        tables_.at(name).ApplyDelta(state.time, delta.first, delta.second));
    rows_archived_ += delta.first.size();
  }
  CommitPoint p;
  p.seq = state.seq;
  p.time = state.time;
  p.is_commit = true;
  p.events = state.events;
  commit_log_.push_back(std::move(p));
  ++commits_archived_;
  return Status::OK();
}

Status VersionStore::OnEventState(const event::SystemState& state) {
  CommitPoint p;
  p.seq = state.seq;
  p.time = state.time;
  p.is_commit = false;
  p.events = state.events;
  commit_log_.push_back(std::move(p));
  ++event_states_logged_;
  return Status::OK();
}

size_t VersionStore::EstimateBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& [name, history] : tables_) {
    bytes += name.size() + history.EstimateBytes();
  }
  bytes += commit_log_.capacity() * sizeof(CommitPoint);
  for (const CommitPoint& p : commit_log_) {
    bytes += p.events.size() * sizeof(event::Event);
  }
  return bytes;
}

void VersionStore::ExportTo(Metrics& m) const {
  m.gauge("temporal.tables").Set(static_cast<int64_t>(tables_.size()));
  m.gauge("temporal.commit_points")
      .Set(static_cast<int64_t>(commit_log_.size()));
  m.gauge("temporal.commits_archived")
      .Set(static_cast<int64_t>(commits_archived_));
  m.gauge("temporal.rows_archived").Set(static_cast<int64_t>(rows_archived_));
  m.gauge("temporal.event_states")
      .Set(static_cast<int64_t>(event_states_logged_));
  m.gauge("temporal.commit_points_trimmed")
      .Set(static_cast<int64_t>(commit_points_trimmed_));
  m.gauge("temporal.bytes").Set(static_cast<int64_t>(EstimateBytes()));
  size_t rows = 0;
  for (const auto& [name, history] : tables_) {
    rows += history.num_rows();
    history.ExportTo(m, StrCat("temporal.", name));
  }
  m.gauge("temporal.rows").Set(static_cast<int64_t>(rows));
}

void VersionStore::Serialize(codec::Writer* w) const {
  w->U8(kStoreVersion);
  w->U64(commits_archived_);
  w->U64(rows_archived_);
  w->U64(event_states_logged_);
  w->U64(commit_points_trimmed_);
  w->U64(commit_log_.size());
  for (const CommitPoint& p : commit_log_) {
    w->U64(p.seq);
    w->I64(p.time);
    w->Bool(p.is_commit);
    w->U32(static_cast<uint32_t>(p.events.size()));
    for (const event::Event& e : p.events) event::SerializeEvent(e, w);
  }
  w->U32(static_cast<uint32_t>(tables_.size()));
  for (const auto& [name, history] : tables_) {
    w->Str(name);
    const db::Schema& schema = history.schema();
    w->U32(static_cast<uint32_t>(schema.num_columns()));
    for (const db::Column& c : schema.columns()) {
      w->Str(c.name);
      w->U8(static_cast<uint8_t>(c.type));
    }
    history.Serialize(w);
  }
}

Status VersionStore::Deserialize(codec::Reader* r) {
  tables_.clear();
  commit_log_.clear();
  PTLDB_ASSIGN_OR_RETURN(uint8_t version, r->U8());
  if (version != kStoreVersion) {
    return Status::InvalidArgument(
        StrCat("unknown version-store wire version ",
               static_cast<int>(version)));
  }
  PTLDB_ASSIGN_OR_RETURN(commits_archived_, r->U64());
  PTLDB_ASSIGN_OR_RETURN(rows_archived_, r->U64());
  PTLDB_ASSIGN_OR_RETURN(event_states_logged_, r->U64());
  PTLDB_ASSIGN_OR_RETURN(commit_points_trimmed_, r->U64());
  PTLDB_ASSIGN_OR_RETURN(uint64_t num_points, r->U64());
  commit_log_.reserve(num_points <= r->remaining() ? num_points : 0);
  for (uint64_t i = 0; i < num_points; ++i) {
    CommitPoint p;
    PTLDB_ASSIGN_OR_RETURN(p.seq, r->U64());
    PTLDB_ASSIGN_OR_RETURN(p.time, r->I64());
    PTLDB_ASSIGN_OR_RETURN(p.is_commit, r->Bool());
    PTLDB_ASSIGN_OR_RETURN(uint32_t num_events, r->U32());
    p.events.reserve(num_events <= r->remaining() ? num_events : 0);
    for (uint32_t j = 0; j < num_events; ++j) {
      PTLDB_ASSIGN_OR_RETURN(event::Event e, event::DeserializeEvent(r));
      p.events.push_back(std::move(e));
    }
    commit_log_.push_back(std::move(p));
  }
  PTLDB_ASSIGN_OR_RETURN(uint32_t num_tables, r->U32());
  for (uint32_t i = 0; i < num_tables; ++i) {
    PTLDB_ASSIGN_OR_RETURN(std::string name, r->Str());
    PTLDB_ASSIGN_OR_RETURN(uint32_t num_cols, r->U32());
    std::vector<db::Column> cols;
    cols.reserve(num_cols <= r->remaining() ? num_cols : 0);
    for (uint32_t c = 0; c < num_cols; ++c) {
      db::Column col;
      PTLDB_ASSIGN_OR_RETURN(col.name, r->Str());
      PTLDB_ASSIGN_OR_RETURN(uint8_t type, r->U8());
      col.type = static_cast<ValueType>(type);
      cols.push_back(std::move(col));
    }
    PTLDB_ASSIGN_OR_RETURN(db::Schema schema, db::Schema::Make(std::move(cols)));
    // The database restores before the version store, so the catalog
    // already names the key the archive index is derived on.
    std::optional<size_t> key_column = KeyColumn(name, schema);
    eval::RelationHistory history(std::move(schema), key_column);
    PTLDB_RETURN_IF_ERROR(history.Deserialize(r));
    tables_.emplace(std::move(name), std::move(history));
  }
  return Status::OK();
}

void SerializeTemporalOp(const TemporalOp& op, codec::Writer* w) {
  w->U8(static_cast<uint8_t>(op.kind));
  w->Str(op.table);
  w->I64(op.horizon);
}

Result<TemporalOp> DeserializeTemporalOp(codec::Reader* r) {
  TemporalOp op;
  PTLDB_ASSIGN_OR_RETURN(uint8_t kind, r->U8());
  if (kind < static_cast<uint8_t>(TemporalOp::Kind::kDeclare) ||
      kind > static_cast<uint8_t>(TemporalOp::Kind::kTrim)) {
    return Status::ParseError(StrCat("unknown temporal op kind ", kind));
  }
  op.kind = static_cast<TemporalOp::Kind>(kind);
  PTLDB_ASSIGN_OR_RETURN(op.table, r->Str());
  PTLDB_ASSIGN_OR_RETURN(op.horizon, r->I64());
  return op;
}

}  // namespace ptldb::temporal

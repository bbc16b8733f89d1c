#include "db/database.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace ptldb::db {

Result<Database::PlanCache::Plan> Database::PlanCache::Get(
    bool expression, std::string_view text) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(Key{expression, text});
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->plan;
  }
  Plan plan;
  if (expression) {
    PTLDB_ASSIGN_OR_RETURN(plan.expression, ParseSqlExpr(text));
  } else {
    PTLDB_ASSIGN_OR_RETURN(plan.statement, ParseSql(text));
  }
  if (lru_.size() == kPlanCacheCapacity) {
    index_.erase(Key{lru_.back().expression, lru_.back().text});
    lru_.pop_back();
  }
  lru_.push_front(Entry{expression, std::string(text), plan});
  index_.emplace(Key{expression, lru_.front().text}, lru_.begin());
  return plan;
}

Result<QueryPtr> Database::PlanCache::Statement(std::string_view sql) {
  PTLDB_ASSIGN_OR_RETURN(Plan plan, Get(false, sql));
  return plan.statement;
}

Result<ExprPtr> Database::PlanCache::Expression(std::string_view text) {
  PTLDB_ASSIGN_OR_RETURN(Plan plan, Get(true, text));
  return plan.expression;
}

size_t Database::PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

size_t Database::plan_cache_size() const { return plans_.size(); }

Status Database::CreateTable(std::string name, Schema schema,
                             std::vector<std::string> primary_key) {
  return catalog_.CreateTable(std::move(name), std::move(schema),
                              std::move(primary_key));
}

Timestamp Database::NextTimestamp() const {
  Timestamp t = clock_->Now();
  if (!history_.empty() && t <= history_.last_time()) {
    t = history_.last_time() + 1;
  }
  return t;
}

void Database::AppendState(std::vector<event::Event> events,
                           const std::vector<RedoDelta>* deltas) {
  const event::SystemState state =
      history_.Append(NextTimestamp(), std::move(events));
  if (wal_sink_ != nullptr) wal_sink_->OnStateAppended(state);
  NotifyTemporalSink(state, deltas);
  if (listener_ != nullptr) listener_->OnStateAppended(state);
}

void Database::NotifyTemporalSink(const event::SystemState& state,
                                  const std::vector<RedoDelta>* deltas) {
  if (temporal_sink_ == nullptr) return;
  Status s = Status::OK();
  if (state.IsCommitPoint()) {
    static const std::vector<RedoDelta> kNoDeltas;
    s = temporal_sink_->OnCommit(state, deltas != nullptr ? *deltas
                                                          : kNoDeltas);
  } else {
    // The collapsed committed history (§9) keeps commit states and user-event
    // states; begin/abort/attempt-only states are dropped. A state qualifies
    // as a user-event state when it carries any non-transaction-control
    // event.
    bool user_event = false;
    for (const event::Event& e : state.events) {
      if (e.name != event::kBeginEvent && e.name != event::kAbortEvent &&
          e.name != event::kAttemptsToCommitEvent) {
        user_event = true;
        break;
      }
    }
    if (user_event) s = temporal_sink_->OnEventState(state);
  }
  // Archival can only fail on a broken invariant (schema drift, time going
  // backwards): that is a bug, not an operational condition.
  PTLDB_CHECK(s.ok() && "temporal archival must succeed");
}

Result<int64_t> Database::Begin() {
  int64_t id = next_txn_id_++;
  Transaction txn;
  txn.id = id;
  open_txns_.emplace(id, std::move(txn));
  AppendState({event::TransactionBegin(id)});
  return id;
}

Result<Transaction*> Database::GetTxn(int64_t txn_id) {
  auto it = open_txns_.find(txn_id);
  if (it == open_txns_.end()) {
    return Status::NotFound(StrCat("no open transaction with id ", txn_id));
  }
  return &it->second;
}

Status Database::UndoAll(Transaction* txn) {
  // Replay the undo log backwards.
  for (auto it = txn->undo_log.rbegin(); it != txn->undo_log.rend(); ++it) {
    PTLDB_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(it->table));
    switch (it->kind) {
      case UndoRecord::Kind::kUndoInsert:
        PTLDB_RETURN_IF_ERROR(table->RemoveOne(it->row));
        break;
      case UndoRecord::Kind::kUndoDelete:
        PTLDB_RETURN_IF_ERROR(table->Insert(it->row));
        break;
      case UndoRecord::Kind::kUndoUpdate:
        PTLDB_RETURN_IF_ERROR(table->ReplaceOne(it->row, it->old_row));
        break;
    }
  }
  txn->undo_log.clear();
  return Status::OK();
}

Status Database::Commit(int64_t txn_id) {
  PTLDB_ASSIGN_OR_RETURN(Transaction * txn, GetTxn(txn_id));

  // Build the prospective commit state: the database already reflects the
  // transaction's changes; the event set carries the attempt, the commit, and
  // the row events (simultaneous events share one state, §2).
  std::vector<event::Event> events;
  events.push_back(event::AttemptsToCommit(txn_id));
  events.push_back(event::TransactionCommit(txn_id));
  for (const event::Event& e : txn->row_events) events.push_back(e);

  event::SystemState prospective;
  prospective.seq = history_.size();
  prospective.time = NextTimestamp();
  prospective.events = events;

  if (listener_ != nullptr) {
    Status verdict = listener_->OnCommitAttempt(prospective, txn_id);
    if (!verdict.ok()) {
      // Integrity constraint fired abort(T): roll back and record the abort.
      Status undo = UndoAll(txn);
      PTLDB_CHECK(undo.ok() && "undo of vetoed transaction must succeed");
      open_txns_.erase(txn_id);
      AppendState({event::TransactionAbort(txn_id)});
      return Status::TransactionAborted(
          StrCat("transaction ", txn_id, " aborted: ", verdict.message()));
    }
  }
  // Build the redo image of every write from the undo log: the WAL needs it
  // to reproduce the table effects on recovery, and the version store needs
  // it to archive superseded rows. The WAL sink is handed the deltas before
  // the commit state is appended (and before rules see it) — the classic
  // write-ahead discipline.
  std::vector<RedoDelta> deltas;
  if (wal_sink_ != nullptr || temporal_sink_ != nullptr) {
    deltas.reserve(txn->undo_log.size());
    for (const UndoRecord& u : txn->undo_log) {
      RedoDelta d;
      d.table = u.table;
      switch (u.kind) {
        case UndoRecord::Kind::kUndoInsert:
          d.kind = RedoDelta::Kind::kInsert;
          d.row = u.row;
          break;
        case UndoRecord::Kind::kUndoDelete:
          d.kind = RedoDelta::Kind::kDelete;
          d.row = u.row;
          break;
        case UndoRecord::Kind::kUndoUpdate:
          d.kind = RedoDelta::Kind::kUpdate;
          d.row = u.old_row;
          d.new_row = u.row;
          break;
      }
      deltas.push_back(std::move(d));
    }
  }
  if (wal_sink_ != nullptr) {
    for (const RedoDelta& d : deltas) wal_sink_->BufferDelta(d);
  }
  open_txns_.erase(txn_id);
  AppendState(std::move(events), &deltas);
  return Status::OK();
}

Status Database::Abort(int64_t txn_id) {
  PTLDB_ASSIGN_OR_RETURN(Transaction * txn, GetTxn(txn_id));
  PTLDB_RETURN_IF_ERROR(UndoAll(txn));
  open_txns_.erase(txn_id);
  AppendState({event::TransactionAbort(txn_id)});
  return Status::OK();
}

Status Database::Insert(int64_t txn_id, const std::string& table_name,
                        Tuple row) {
  PTLDB_ASSIGN_OR_RETURN(Transaction * txn, GetTxn(txn_id));
  PTLDB_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(table_name));
  // Undo, redo and the row event carry the row as stored: an abort must find
  // it and the version store must archive what later updates supersede.
  WidenRow(table->schema(), &row);
  PTLDB_RETURN_IF_ERROR(table->Insert(row));
  UndoRecord undo;
  undo.kind = UndoRecord::Kind::kUndoInsert;
  undo.table = table_name;
  undo.row = row;
  txn->undo_log.push_back(std::move(undo));
  event::Event e = event::InsertEvent(table_name);
  e.params.insert(e.params.end(), row.begin(), row.end());
  txn->row_events.push_back(std::move(e));
  txn->has_writes = true;
  return Status::OK();
}

Result<size_t> Database::Delete(int64_t txn_id, const std::string& table_name,
                                std::string_view where,
                                const ParamMap* params) {
  PTLDB_ASSIGN_OR_RETURN(Transaction * txn, GetTxn(txn_id));
  PTLDB_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(table_name));
  PTLDB_ASSIGN_OR_RETURN(ExprPtr pred, plans_.Expression(where));
  PTLDB_ASSIGN_OR_RETURN(BoundExpr bound,
                         BoundExpr::Bind(pred, table->schema(), params));
  PTLDB_ASSIGN_OR_RETURN(std::vector<Tuple> deleted, table->DeleteWhere(bound));
  for (Tuple& row : deleted) {
    event::Event e = event::DeleteEvent(table_name);
    e.params.insert(e.params.end(), row.begin(), row.end());
    txn->row_events.push_back(std::move(e));
    UndoRecord undo;
    undo.kind = UndoRecord::Kind::kUndoDelete;
    undo.table = table_name;
    undo.row = std::move(row);
    txn->undo_log.push_back(std::move(undo));
    txn->has_writes = true;
  }
  return deleted.size();
}

Result<size_t> Database::Update(
    int64_t txn_id, const std::string& table_name,
    const std::vector<std::pair<std::string, std::string>>& set,
    std::string_view where, const ParamMap* params) {
  PTLDB_ASSIGN_OR_RETURN(Transaction * txn, GetTxn(txn_id));
  PTLDB_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(table_name));
  PTLDB_ASSIGN_OR_RETURN(ExprPtr pred, plans_.Expression(where));
  PTLDB_ASSIGN_OR_RETURN(BoundExpr bound_pred,
                         BoundExpr::Bind(pred, table->schema(), params));
  std::vector<std::pair<size_t, BoundExpr>> assignments;
  for (const auto& [col, expr_text] : set) {
    PTLDB_ASSIGN_OR_RETURN(size_t idx, table->schema().IndexOf(col));
    PTLDB_ASSIGN_OR_RETURN(ExprPtr expr, plans_.Expression(expr_text));
    PTLDB_ASSIGN_OR_RETURN(BoundExpr bound,
                           BoundExpr::Bind(expr, table->schema(), params));
    assignments.emplace_back(idx, std::move(bound));
  }
  PTLDB_ASSIGN_OR_RETURN(std::vector<RowUpdate> updates,
                         table->UpdateWhere(bound_pred, assignments));
  for (RowUpdate& u : updates) {
    txn->row_events.push_back(event::UpdateEvent(table_name));
    UndoRecord undo;
    undo.kind = UndoRecord::Kind::kUndoUpdate;
    undo.table = table_name;
    undo.row = std::move(u.new_row);
    undo.old_row = std::move(u.old_row);
    txn->undo_log.push_back(std::move(undo));
    txn->has_writes = true;
  }
  return updates.size();
}

Status Database::InsertRow(const std::string& table, Tuple row) {
  PTLDB_ASSIGN_OR_RETURN(int64_t txn, Begin());
  Status s = Insert(txn, table, std::move(row));
  if (!s.ok()) {
    PTLDB_RETURN_IF_ERROR(Abort(txn));
    return s;
  }
  return Commit(txn);
}

Result<size_t> Database::DeleteRows(const std::string& table,
                                    std::string_view where,
                                    const ParamMap* params) {
  PTLDB_ASSIGN_OR_RETURN(int64_t txn, Begin());
  Result<size_t> n = Delete(txn, table, where, params);
  if (!n.ok()) {
    PTLDB_RETURN_IF_ERROR(Abort(txn));
    return n.status();
  }
  PTLDB_RETURN_IF_ERROR(Commit(txn));
  return n;
}

Result<size_t> Database::UpdateRows(
    const std::string& table,
    const std::vector<std::pair<std::string, std::string>>& set,
    std::string_view where, const ParamMap* params) {
  PTLDB_ASSIGN_OR_RETURN(int64_t txn, Begin());
  Result<size_t> n = Update(txn, table, set, where, params);
  if (!n.ok()) {
    PTLDB_RETURN_IF_ERROR(Abort(txn));
    return n.status();
  }
  PTLDB_RETURN_IF_ERROR(Commit(txn));
  return n;
}

Status Database::RaiseEvent(event::Event e) {
  AppendState({std::move(e)});
  return Status::OK();
}

Result<Relation> Database::Query(const QueryPtr& plan,
                                 const ParamMap* params) const {
  QueryExecutor exec(&catalog_, temporal_sink_);
  return exec.Execute(plan, params);
}

Result<Relation> Database::QuerySql(std::string_view sql,
                                    const ParamMap* params) const {
  PTLDB_ASSIGN_OR_RETURN(QueryPtr plan, plans_.Statement(sql));
  return Query(plan, params);
}

Result<Relation> Database::QuerySqlAsOf(std::string_view sql, Timestamp t,
                                        const ParamMap* params) const {
  if (temporal_sink_ == nullptr) {
    return Status::InvalidArgument(
        "AS OF query requires a version store (none attached)");
  }
  PTLDB_ASSIGN_OR_RETURN(QueryPtr plan, plans_.Statement(sql));
  QueryExecutor exec(&catalog_, temporal_sink_, t);
  return exec.Execute(plan, params);
}

Status Database::ReplayState(Timestamp time, std::vector<event::Event> events,
                             const std::vector<RedoDelta>& deltas) {
  if (!open_txns_.empty()) {
    return Status::InvalidArgument("replay with open transactions");
  }
  if (!history_.empty() && time <= history_.last_time()) {
    return Status::InvalidArgument(
        StrCat("replayed timestamp ", time, " not after history time ",
               history_.last_time()));
  }
  for (const RedoDelta& d : deltas) {
    PTLDB_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(d.table));
    switch (d.kind) {
      case RedoDelta::Kind::kInsert:
        PTLDB_RETURN_IF_ERROR(table->Insert(d.row));
        break;
      case RedoDelta::Kind::kDelete:
        PTLDB_RETURN_IF_ERROR(table->RemoveOne(d.row));
        break;
      case RedoDelta::Kind::kUpdate:
        PTLDB_RETURN_IF_ERROR(table->ReplaceOne(d.row, d.new_row));
        break;
    }
  }
  // Keep replayed begin/commit events consistent with the txn-id counter so
  // transactions begun after recovery get fresh ids.
  for (const event::Event& e : events) {
    if (e.name == event::kBeginEvent && e.params.size() == 1 &&
        e.params[0].is_int() && e.params[0].AsInt() >= next_txn_id_) {
      next_txn_id_ = e.params[0].AsInt() + 1;
    }
  }
  const event::SystemState state = history_.Append(time, std::move(events));
  // The version store rebuilds its post-checkpoint archive from replayed
  // deltas, exactly as it would have seen them live.
  NotifyTemporalSink(state, &deltas);
  if (listener_ != nullptr) listener_->OnStateAppended(state);
  return Status::OK();
}

Status Database::SerializeContents(codec::Writer* w) const {
  if (!open_txns_.empty()) {
    return Status::InvalidArgument("checkpoint with open transactions");
  }
  w->I64(next_txn_id_);
  w->U64(history_.size());
  w->I64(history_.last_time());
  std::vector<std::string> names = catalog_.TableNames();
  w->U32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    PTLDB_ASSIGN_OR_RETURN(const Table* table, catalog_.GetTable(name));
    w->Str(name);
    const Schema& schema = table->schema();
    w->U32(static_cast<uint32_t>(schema.num_columns()));
    for (const Column& c : schema.columns()) {
      w->Str(c.name);
      w->U8(static_cast<uint8_t>(c.type));
    }
    w->U32(static_cast<uint32_t>(table->primary_key().size()));
    for (const std::string& k : table->primary_key()) w->Str(k);
    w->U32(static_cast<uint32_t>(table->rows().size()));
    for (const Tuple& row : table->rows()) w->ValVec(row);
  }
  return Status::OK();
}

Status Database::RestoreContents(codec::Reader* r) {
  if (!open_txns_.empty()) {
    return Status::InvalidArgument("restore with open transactions");
  }
  PTLDB_ASSIGN_OR_RETURN(next_txn_id_, r->I64());
  PTLDB_ASSIGN_OR_RETURN(uint64_t history_size, r->U64());
  PTLDB_ASSIGN_OR_RETURN(Timestamp last_time, r->I64());
  history_.Reset(history_size, last_time);
  PTLDB_ASSIGN_OR_RETURN(uint32_t num_tables, r->U32());
  for (uint32_t i = 0; i < num_tables; ++i) {
    PTLDB_ASSIGN_OR_RETURN(std::string name, r->Str());
    PTLDB_ASSIGN_OR_RETURN(uint32_t num_cols, r->U32());
    std::vector<Column> cols;
    cols.reserve(num_cols);
    for (uint32_t c = 0; c < num_cols; ++c) {
      Column col;
      PTLDB_ASSIGN_OR_RETURN(col.name, r->Str());
      PTLDB_ASSIGN_OR_RETURN(uint8_t type, r->U8());
      col.type = static_cast<ValueType>(type);
      cols.push_back(std::move(col));
    }
    PTLDB_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(cols)));
    PTLDB_ASSIGN_OR_RETURN(uint32_t num_keys, r->U32());
    std::vector<std::string> pk;
    pk.reserve(num_keys);
    for (uint32_t k = 0; k < num_keys; ++k) {
      PTLDB_ASSIGN_OR_RETURN(std::string key, r->Str());
      pk.push_back(std::move(key));
    }
    // A live table of the same name was recreated by the application or the
    // rule engine before recovery; replace it after checking the shapes
    // agree (a schema change across restart is not recoverable).
    if (catalog_.HasTable(name)) {
      PTLDB_ASSIGN_OR_RETURN(const Table* live, catalog_.GetTable(name));
      if (!(live->schema() == schema) || live->primary_key() != pk) {
        return Status::InvalidArgument(
            StrCat("table ", name, " schema differs from checkpoint"));
      }
      PTLDB_RETURN_IF_ERROR(catalog_.DropTable(name));
    }
    PTLDB_RETURN_IF_ERROR(catalog_.CreateTable(name, schema, pk));
    PTLDB_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(name));
    PTLDB_ASSIGN_OR_RETURN(uint32_t num_rows, r->U32());
    for (uint32_t j = 0; j < num_rows; ++j) {
      PTLDB_ASSIGN_OR_RETURN(Tuple row, r->ValVec());
      PTLDB_RETURN_IF_ERROR(table->Insert(std::move(row)));
    }
  }
  return Status::OK();
}

}  // namespace ptldb::db

// Database: the active-database engine facade.
//
// Owns the catalog, the system history's position (§2 model), and open
// transactions. Every change flows through a transaction; single-statement
// convenience helpers open and commit one implicitly. A registered `Listener`
// (the rule engine's temporal component) is consulted at commit attempts —
// returning a ConstraintViolation status aborts the transaction, which is
// exactly how the paper's integrity constraints (rules whose action is
// abort(X)) execute — and is notified of every appended system state so
// triggers can be evaluated.
//
// Concurrency: the paper's model serializes commits (at most one commit event
// per system state); this engine is single-threaded by design.

#ifndef PTLDB_DB_DATABASE_H_
#define PTLDB_DB_DATABASE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/codec.h"
#include "common/status.h"
#include "db/catalog.h"
#include "db/query.h"
#include "db/sql_parser.h"
#include "db/transaction.h"
#include "event/event.h"

namespace ptldb::db {

class Database {
 public:
  /// Interface the rule engine implements. Callbacks may issue queries
  /// against the database but must not start transactions.
  class Listener {
   public:
    virtual ~Listener() = default;

    /// Called when `txn` attempts to commit. `prospective` is the system
    /// state that will be appended if the commit succeeds: the database
    /// already reflects the transaction's changes, and the event set contains
    /// attempts_to_commit(txn), commit(txn), and the row events. Returning
    /// ConstraintViolation vetoes the commit.
    virtual Status OnCommitAttempt(const event::SystemState& prospective,
                                   int64_t txn) {
      (void)prospective;
      (void)txn;
      return Status::OK();
    }

    /// Called after a state is appended to the history (commits, aborts,
    /// begins, user events). The database reflects the state's S component.
    virtual void OnStateAppended(const event::SystemState& state) {
      (void)state;
    }
  };

  /// Hook the durability layer (src/storage) implements. Deltas and states
  /// are handed over *before* the listener evaluates rules on them, so a
  /// WAL record is durable before its triggers act — the classic
  /// write-ahead discipline.
  class WalSink {
   public:
    virtual ~WalSink() = default;

    /// Buffers one row-level redo delta; it belongs to the next appended
    /// state (the commit state of the transaction that produced it).
    virtual void BufferDelta(RedoDelta delta) = 0;

    /// A state entered the history; the listener has not yet seen it.
    virtual void OnStateAppended(const event::SystemState& state) = 0;
  };

  /// Hook the system-period version store (src/temporal) implements: archival
  /// of superseded rows at commit points plus reconstruction of past states
  /// for `AS OF` reads. Notified after the WAL sink (the archival is
  /// recomputable from the log) and before the listener, so rule actions —
  /// which may run nested transactions with later timestamps — observe a
  /// history that already contains their triggering commit.
  class TemporalSink : public AsOfProvider {
   public:
    /// A commit state entered the history; `deltas` carries the redo image
    /// of every row the transaction wrote, in write order.
    virtual Status OnCommit(const event::SystemState& state,
                            const std::vector<RedoDelta>& deltas) = 0;

    /// A non-transactional user-event state entered the history (part of the
    /// collapsed committed history the offline checker replays).
    virtual Status OnEventState(const event::SystemState& state) = 0;
  };

  explicit Database(Clock* clock) : clock_(clock) {}

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  const event::History& history() const { return history_; }
  Clock* clock() const { return clock_; }

  /// At most one listener (the temporal component).
  void SetListener(Listener* listener) { listener_ = listener; }

  /// At most one WAL sink (the durability manager). Null detaches.
  void SetWalSink(WalSink* sink) { wal_sink_ = sink; }
  WalSink* wal_sink() const { return wal_sink_; }

  /// At most one temporal sink (the version store). Null detaches. The sink
  /// doubles as the AsOfProvider behind `AS OF` scans in Query/QuerySql.
  void SetTemporalSink(TemporalSink* sink) { temporal_sink_ = sink; }
  TemporalSink* temporal_sink() const { return temporal_sink_; }

  // ---- DDL ----
  Status CreateTable(std::string name, Schema schema,
                     std::vector<std::string> primary_key = {});

  // ---- Transactions ----

  /// Opens a transaction and appends a begin(id) state.
  Result<int64_t> Begin();

  /// Commits: consults the listener with the prospective commit state; on
  /// veto, undoes the changes, appends an abort state, and returns
  /// TransactionAborted carrying the veto message.
  Status Commit(int64_t txn_id);

  /// Rolls back and appends an abort(id) state.
  Status Abort(int64_t txn_id);

  // ---- DML (within an open transaction) ----
  Status Insert(int64_t txn_id, const std::string& table, Tuple row);
  /// Returns number of rows deleted. `where` is a SQL expression over the
  /// table's columns; `params` supplies `$name` values.
  Result<size_t> Delete(int64_t txn_id, const std::string& table,
                        std::string_view where,
                        const ParamMap* params = nullptr);
  /// `set` maps column name -> SQL expression evaluated on the old row.
  Result<size_t> Update(
      int64_t txn_id, const std::string& table,
      const std::vector<std::pair<std::string, std::string>>& set,
      std::string_view where, const ParamMap* params = nullptr);

  // ---- Single-statement convenience (implicit transaction) ----
  Status InsertRow(const std::string& table, Tuple row);
  Result<size_t> DeleteRows(const std::string& table, std::string_view where,
                            const ParamMap* params = nullptr);
  Result<size_t> UpdateRows(
      const std::string& table,
      const std::vector<std::pair<std::string, std::string>>& set,
      std::string_view where, const ParamMap* params = nullptr);

  // ---- User events ----

  /// Raises an application event, appending a new system state (§2: a new
  /// state is added whenever an event occurs).
  Status RaiseEvent(event::Event e);

  // ---- Queries ----
  Result<Relation> Query(const QueryPtr& plan,
                         const ParamMap* params = nullptr) const;
  Result<Relation> QuerySql(std::string_view sql,
                            const ParamMap* params = nullptr) const;

  /// Time-travel query: every table scanned by `sql` is read as of time `t`
  /// (committed state only). Requires a temporal sink and that each scanned
  /// table is versioned; an explicit `AS OF` inside the statement overrides
  /// `t` for that scan. This is what QUERY_ASOF wire frames execute.
  Result<Relation> QuerySqlAsOf(std::string_view sql, Timestamp t,
                                const ParamMap* params = nullptr) const;

  /// The timestamp the next appended state would carry: max(clock, last+1),
  /// keeping history timestamps strictly increasing even if the clock stalls.
  Timestamp NextTimestamp() const;

  // ---- Plan cache ----

  /// Distinct statement and expression texts whose parse trees the database
  /// keeps: QuerySql, QuerySqlAsOf, Update/Delete and their *Rows wrappers
  /// parse each distinct text once. A fixed bound, not an option; past it
  /// the least recently used plan is dropped. Plans are unbound ASTs (names
  /// resolve at execution), so DDL never invalidates one.
  static constexpr size_t kPlanCacheCapacity = 256;

  /// Plans currently cached (at most kPlanCacheCapacity).
  size_t plan_cache_size() const;

  // ---- Durability (src/storage) ----

  /// WAL replay: applies the logged redo deltas to the tables, then appends
  /// a state with the *logged* timestamp and events and dispatches the
  /// listener normally. Bypasses NextTimestamp so replayed states carry
  /// exactly the pre-crash timestamps. Does not notify the WAL sink.
  Status ReplayState(Timestamp time, std::vector<event::Event> events,
                     const std::vector<RedoDelta>& deltas);

  /// Serializes the durable contents — every table (schema, primary key,
  /// rows), the transaction-id counter, and the history position — into a
  /// checkpoint blob. Requires no open transactions.
  Status SerializeContents(codec::Writer* w) const;

  /// Restores contents written by SerializeContents. Tables that already
  /// exist (recreated by the application or the rule engine before recovery)
  /// are replaced after a schema check; requires no open transactions.
  Status RestoreContents(codec::Reader* r);

 private:
  Result<Transaction*> GetTxn(int64_t txn_id);
  /// Appends a state and fans it out: WAL sink, then temporal sink (`deltas`
  /// is the commit's redo image, null for non-commit states), then listener.
  void AppendState(std::vector<event::Event> events,
                   const std::vector<RedoDelta>* deltas = nullptr);
  void NotifyTemporalSink(const event::SystemState& state,
                          const std::vector<RedoDelta>* deltas);
  Status UndoAll(Transaction* txn);

  /// One LRU over statement and expression texts (a text is keyed with its
  /// kind, so the same string may be cached as both). A text that fails to
  /// parse is reported, never cached.
  class PlanCache {
   public:
    Result<QueryPtr> Statement(std::string_view sql);
    Result<ExprPtr> Expression(std::string_view text);
    size_t size() const;

   private:
    struct Plan {
      QueryPtr statement;
      ExprPtr expression;
    };
    struct Key {
      bool expression;
      std::string_view text;  // views the owning entry's string
      bool operator==(const Key& other) const = default;
    };
    struct KeyHash {
      size_t operator()(const Key& k) const {
        return std::hash<std::string_view>{}(k.text) ^ k.expression;
      }
    };
    struct Entry {
      bool expression;
      std::string text;
      Plan plan;
    };
    /// The cached plan of (`expression`, `text`), parsing it on a miss.
    Result<Plan> Get(bool expression, std::string_view text);

    mutable std::mutex mu_;
    std::list<Entry> lru_;  // most recently used first
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  };

  Clock* clock_;
  Catalog catalog_;
  event::History history_;
  Listener* listener_ = nullptr;
  WalSink* wal_sink_ = nullptr;
  TemporalSink* temporal_sink_ = nullptr;
  std::unordered_map<int64_t, Transaction> open_txns_;
  int64_t next_txn_id_ = 1;
  mutable PlanCache plans_;
};

}  // namespace ptldb::db

#endif  // PTLDB_DB_DATABASE_H_

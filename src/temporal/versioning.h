// System-period temporal tables (ROADMAP: "first-class temporal tables").
//
// Any table in the catalog can be declared VERSIONED. From that point on,
// every `Database::Commit` archives the rows the transaction superseded into
// a paired history table stamped with the system period [T_start, T_end) on
// the transaction clock — the arkhipov/temporal_tables model, represented
// with the columnar run + dictionary layout of eval::RelationHistory. An
// `AS OF t` point read on the primary key binary-searches that key's
// versions; a whole-table read binary-searches the start column for the rows
// started by t and keeps those not yet ended.
//
// The store also retains the *collapsed committed history* of the paper's §9:
// the sequence of commit points and user-event states (begin/abort/
// attempt-only states dropped, aborted transactions invisible). Together with
// the per-table histories this is exactly the input the offline integrity
// checker (rules::OfflineCheck) needs to re-evaluate conditions "as of" every
// commit point and diff the verdicts against the online engine — the
// Theorem 2 experiment.
//
// Durability: declare/undeclare/trim are journaled through a DdlSink into the
// WAL (storage::WalRecordType::kTemporal) and the whole store serializes into
// checkpoints; WAL-tail replay rebuilds the archive through the normal
// Database::ReplayState -> TemporalSink::OnCommit path, so AS OF reads are
// byte-identical across crash + Recover().

#ifndef PTLDB_TEMPORAL_VERSIONING_H_
#define PTLDB_TEMPORAL_VERSIONING_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/metrics.h"
#include "common/status.h"
#include "db/database.h"
#include "eval/aux_store.h"
#include "event/event.h"

namespace ptldb::temporal {

/// One retained state of the collapsed committed history (§9): a commit
/// point, or a user-event state between commits.
struct CommitPoint {
  uint64_t seq = 0;  // global history sequence number of the state
  Timestamp time = 0;
  bool is_commit = false;  // commit point vs user-event state
  std::vector<event::Event> events;
};

/// A durable versioning operation, journaled into the WAL so recovery can
/// replay declare/undeclare/trim interleaved with state replay.
struct TemporalOp {
  enum class Kind : uint8_t { kDeclare = 1, kUndeclare = 2, kTrim = 3 };
  Kind kind = Kind::kDeclare;
  std::string table;     // kDeclare / kUndeclare
  Timestamp horizon = 0;  // kTrim
};

/// The system-period version store. Attaches to a Database as its
/// TemporalSink (archival + AS OF provider); one store per database.
class VersionStore : public db::Database::TemporalSink {
 public:
  /// Journal hook the durability layer implements: called *before* a
  /// versioning op mutates the store, so the op is durable ahead of its
  /// effects (same write-ahead discipline as row deltas).
  class DdlSink {
   public:
    virtual ~DdlSink() = default;
    virtual Status OnTemporalOp(const TemporalOp& op) = 0;
  };

  /// Attaches to `db` as its temporal sink. `db` must outlive the store.
  explicit VersionStore(db::Database* db);
  ~VersionStore() override;

  VersionStore(const VersionStore&) = delete;
  VersionStore& operator=(const VersionStore&) = delete;

  db::Database* database() const { return db_; }

  /// At most one journal sink (the durability manager). Null detaches.
  void SetDdlSink(DdlSink* sink) { ddl_sink_ = sink; }

  // ---- Versioning DDL ----

  /// Declares `table` versioned: seeds its history with the current contents
  /// (so AS OF works from the declaration instant on) and archives every
  /// subsequent commit. Errors when the table does not exist or is already
  /// versioned.
  Status SetVersioned(const std::string& table);

  /// Stops versioning `table` and drops its history. NotFound when not
  /// versioned.
  Status DropVersioned(const std::string& table);

  /// Retention: drops archived rows whose validity ended at or before
  /// `horizon` from every history table, and forgets commit-log points older
  /// than `horizon`. Open (current) rows are never dropped. AS OF reads
  /// behind the horizon fail with OutOfRange rather than answering
  /// incompletely.
  Status TrimHistoryBefore(Timestamp horizon);

  /// Recovery path: applies a journaled op without re-journaling it.
  /// Idempotent (re-declaring a versioned table or re-trimming is a no-op)
  /// because a WAL tail may repeat ops already absorbed by the checkpoint.
  Status ApplyOp(const TemporalOp& op);

  // ---- AsOfProvider ----
  bool IsVersioned(const std::string& table) const override;
  /// Reconstructs `table` at instant `t`. Unversioned tables are
  /// kInvalidArgument; instants behind a trim horizon are kOutOfRange;
  /// instants before the declaration answer from the empty archive (the
  /// history simply has nothing recorded yet).
  Result<db::Relation> TableAsOf(const std::string& table,
                                 Timestamp t) const override;
  /// Keyed point read: a table's history is indexed on its single-column
  /// primary key (derived at declaration and restore, never serialized), so
  /// a probe of that column costs one binary search over the key's versions.
  /// Other columns answer with the whole table, as the contract allows.
  Result<db::Relation> TableAsOfKey(const std::string& table, Timestamp t,
                                    const std::string& column,
                                    const Value& key) const override;

  // ---- Inspection ----
  std::vector<std::string> VersionedTables() const;

  /// The backing history table R_x itself: the table's columns plus
  /// T_start / T_end, one row per archived validity interval.
  Result<db::Relation> HistoryRelation(const std::string& table) const;

  /// The raw columnar history (offline checker, tests).
  Result<const eval::RelationHistory*> History(const std::string& table) const;

  /// The collapsed committed history, in state order.
  const std::vector<CommitPoint>& commit_log() const { return commit_log_; }

  // ---- TemporalSink ----
  Status OnCommit(const event::SystemState& state,
                  const std::vector<db::RedoDelta>& deltas) override;
  Status OnEventState(const event::SystemState& state) override;

  // ---- Accounting ----
  uint64_t commits_archived() const { return commits_archived_; }
  uint64_t rows_archived() const { return rows_archived_; }
  uint64_t event_states_logged() const { return event_states_logged_; }
  uint64_t commit_points_trimmed() const { return commit_points_trimmed_; }
  size_t EstimateBytes() const;

  /// Publishes `temporal.{tables,commit_points,rows,bytes,...}` plus
  /// per-table `aux.temporal.<name>.*` gauges.
  void ExportTo(Metrics& m) const;

  // ---- Durability ----
  void Serialize(codec::Writer* w) const;
  Status Deserialize(codec::Reader* r);

 private:
  Status DoSetVersioned(const std::string& table, bool strict);
  Status DoDropVersioned(const std::string& table, bool strict);
  Status DoTrim(Timestamp horizon);
  Status Journal(const TemporalOp& op);
  Result<const eval::RelationHistory*> Versioned(
      const std::string& table) const;
  /// The key column of `schema` for `table`'s archive index: its catalog
  /// primary key when that is a single column of `schema`.
  std::optional<size_t> KeyColumn(const std::string& table,
                                  const db::Schema& schema) const;

  db::Database* db_;
  DdlSink* ddl_sink_ = nullptr;
  // Name -> columnar history; std::map keeps archival order deterministic.
  std::map<std::string, eval::RelationHistory> tables_;
  std::vector<CommitPoint> commit_log_;
  uint64_t commits_archived_ = 0;
  uint64_t rows_archived_ = 0;
  uint64_t event_states_logged_ = 0;
  uint64_t commit_points_trimmed_ = 0;
};

void SerializeTemporalOp(const TemporalOp& op, codec::Writer* w);
Result<TemporalOp> DeserializeTemporalOp(codec::Reader* r);

}  // namespace ptldb::temporal

#endif  // PTLDB_TEMPORAL_VERSIONING_H_

// Auxiliary relations (paper §5, "Implementation Using Auxiliary Relations").
//
// For a variable x bound to a query q, the paper maintains a relation R_x
// with the query's attributes plus [T_start, T_end) validity interval columns,
// so the value of q at any previous time can be retrieved by a selection.
// RelationHistory is that store, one row per (tuple, validity interval), and
// the only store of past values: temporal::VersionStore keeps one per
// versioned table and applies each commit's redo deltas to it, and every AS OF
// read (SQL, QUERY_ASOF, the offline Theorem 2 checker) is answered from it.
//
// Layout (DESIGN.md §14): columnar. Intervals live in parallel T_start /
// T_end column vectors kept in interval-start order, and rows are
// dictionary-encoded: the row column holds packed 32-bit ids into a TupleDict
// over a ValueDict. Every write goes through ApplyDelta; TrimBefore is the
// only other mutator. A whole-relation AsOf binary-searches the start column
// for its candidate prefix; a keyed AsOf binary-searches one key's rows.
// There is one wire format: kColumnarTag followed by version 2.

#ifndef PTLDB_EVAL_AUX_STORE_H_
#define PTLDB_EVAL_AUX_STORE_H_

#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/codec.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/value.h"
#include "db/relation.h"
#include "eval/value_dict.h"

namespace ptldb::eval {

/// Sentinel for "still valid" (the paper's T_end = MAX).
inline constexpr Timestamp kTimeMax = std::numeric_limits<Timestamp>::max();

/// Wire tag opening every RelationHistory dump (then the version byte).
inline constexpr uint8_t kColumnarTag = 0xC2;

/// Interval-stamped history of a relation-valued query: the paper's R_x with
/// k data attributes plus T_start / T_end.
class RelationHistory {
 public:
  /// `schema` is the schema of the tracked query's result. `key_column`,
  /// when set, is the column whose values key the per-key archive index
  /// behind the keyed AsOf (a versioned table's single-column primary key).
  explicit RelationHistory(db::Schema schema,
                           std::optional<size_t> key_column = std::nullopt)
      : schema_(std::move(schema)), key_column_(key_column) {}

  const db::Schema& schema() const { return schema_; }
  std::optional<size_t> key_column() const { return key_column_; }

  /// Applies an incremental delta at time `t`: closes the validity interval
  /// of each row in `removed` (the most recently opened instance first when a
  /// row has duplicates) and opens intervals for each row in `added`, in
  /// order — O(|delta| + |open rows|), which is what makes per-commit
  /// archival of a versioned table affordable. This is the one write path:
  /// seeding a history with a table's contents is ApplyDelta(t, {}, rows).
  /// Tuples appearing in both `removed` and `added` cancel as multisets (the
  /// row never left the relation, so its interval stays open). A row both
  /// opened and closed at `t` would carry a zero-length [t, t) interval that
  /// no AsOf can observe; it is dropped outright and counted in
  /// phantom_rows_dropped() rather than archived.
  /// InvalidArgument when `t` precedes the last recorded time, a removed row
  /// is not currently live, or a row's arity mismatches the schema. On error
  /// no interval changes, though the dictionaries may keep the delta's
  /// tuples.
  Status ApplyDelta(Timestamp t, const std::vector<db::Tuple>& removed,
                    const std::vector<db::Tuple>& added);

  /// The relation as of time `t` (selection T_start <= t < T_end followed by
  /// a projection, exactly the paper's retrieval). Reads at or past the last
  /// record time take a fast path over only the open rows; historical reads
  /// binary-search the start column for the candidate prefix. NotFound
  /// while no delta was ever applied; OutOfRange when `t` falls before a trim
  /// horizon that actually dropped rows (the reconstruction would silently
  /// be incomplete).
  Result<db::Relation> AsOf(Timestamp t) const;

  /// Keyed point read: the rows of AsOf(t) whose key column equals `key`
  /// (Value ==), in the same order. A binary search over that key's rows in
  /// the per-key index decodes only the match — O(log versions of the key)
  /// while no two rows of one key were ever live together (always so for a
  /// primary key), O(versions of the key) otherwise. Errors as AsOf(t);
  /// InvalidArgument when the history has no key column.
  Result<db::Relation> AsOf(Timestamp t, const Value& key) const;

  /// The backing store as a relation with T_start / T_end columns appended —
  /// i.e. R_x itself, inspectable and queryable.
  db::Relation Store() const;

  /// Drops rows whose validity ended at or before `horizon`. Open rows
  /// (end == kTimeMax) are never dropped, even for horizon == kTimeMax.
  void TrimBefore(Timestamp horizon);

  size_t num_rows() const { return starts_.size(); }

  /// Total rows dropped by TrimBefore over this history's lifetime.
  uint64_t rows_trimmed() const { return rows_trimmed_; }

  /// Rows discarded at record time because they would have had a zero-length
  /// [t, t) validity interval (inserted and dropped at the same timestamp).
  uint64_t phantom_rows_dropped() const { return phantom_rows_dropped_; }

  /// Distinct tuples in the row dictionary.
  size_t dict_size() const { return tuples_.size(); }

  /// Row-column probes made by AsOf over this history's lifetime.
  uint64_t asof_probes() const { return asof_probes_; }

  /// Deep retained-memory estimate: columns, both dictionaries (including
  /// string payload bytes) and the derived indexes.
  size_t EstimateBytes() const;

  /// Publishes interval/trim/bytes accounting into `m` under
  /// `aux.<prefix>.{rows,rows_trimmed,phantom_rows_dropped,bytes,dict,
  /// values_dict,asof_probes}` — both dictionaries' cardinalities and the
  /// AsOf probe counter ride along so a STATS poll sees the columnar
  /// internals without touching the store.
  void ExportTo(Metrics& m, const std::string& prefix) const;

  /// Durable serialization: kColumnarTag, version 2, the schema, both
  /// dictionaries and the interval columns. Deserialize accepts nothing
  /// else; any other tag or version, a different schema, or a malformed
  /// body returns a Status and leaves the history empty.
  void Serialize(codec::Writer* w) const;
  Status Deserialize(codec::Reader* r);

 private:
  db::Tuple DecodeTuple(uint32_t tid) const;
  uint32_t EncodeTuple(const db::Tuple& row);
  void CompactDictionaries();
  void RebuildOpenIndex();
  /// NotFound / OutOfRange exactly as AsOf reports them; OK when `t` can be
  /// reconstructed.
  Status CheckReadable(Timestamp t) const;
  /// Appends row `i` (the newest) to its key's positions.
  void IndexKey(size_t i);
  void RebuildKeyIndex();
  Status DeserializeColumns(codec::Reader* r);

  db::Schema schema_;
  std::optional<size_t> key_column_;
  // Parallel stamped-row columns, ascending by start.
  std::vector<Timestamp> starts_;
  std::vector<Timestamp> ends_;  // exclusive; kTimeMax while current
  std::vector<uint32_t> tids_;   // tuple-dictionary ids, parallel to starts_
  // Indices of open rows (end == kTimeMax), ascending, so the current-time
  // AsOf path reads the live relation in O(open rows) instead of scanning
  // the whole history. Derived state: rebuilt on deserialize/compaction,
  // never serialized.
  std::vector<size_t> open_rows_;
  // Open rows grouped by tuple id (each bucket ascends like open_rows_), so
  // ApplyDelta closes a removed row in O(1) instead of scanning the open set.
  // Derived state with lazy upkeep: TrimBefore, Deserialize and phantom
  // compaction mark it dirty instead of maintaining it, and ApplyDelta
  // rebuilds it on first use.
  std::unordered_map<uint32_t, std::vector<size_t>> open_by_tid_;
  bool open_index_dirty_ = true;
  // Per-key archive index (only with a key column): key-column value id ->
  // positions of that key's rows, ascending, i.e. in start order. Derived
  // state kept up to date by ApplyDelta and rebuilt after trimming,
  // phantom compaction and Deserialize; never serialized.
  std::unordered_map<uint32_t, std::vector<uint32_t>> rows_by_key_;
  // Set once two rows of one key may have been live at the same instant (a
  // bag keyed on a non-unique column). Keyed reads then filter all of the
  // key's earlier rows instead of taking the last one that started.
  bool key_overlap_ = false;
  ValueDict values_;
  TupleDict tuples_;
  // Largest closed end among retained rows: reads at or past both this and
  // the last record time only ever see open rows (the hot current-time path).
  Timestamp max_closed_end_ = std::numeric_limits<Timestamp>::min();
  Timestamp last_time_ = std::numeric_limits<Timestamp>::min();
  bool has_record_ = false;
  bool trimmed_ = false;
  Timestamp trim_horizon_ = std::numeric_limits<Timestamp>::min();
  uint64_t rows_trimmed_ = 0;
  uint64_t phantom_rows_dropped_ = 0;
  mutable uint64_t asof_probes_ = 0;
};

}  // namespace ptldb::eval

#endif  // PTLDB_EVAL_AUX_STORE_H_

// Auxiliary relations (paper §5, "Implementation Using Auxiliary Relations").
//
// For a variable x bound to a query q, the paper maintains a relation R_x
// with the query's attributes plus [T_start, T_end) validity interval columns,
// so the value of q at any previous time can be retrieved by a selection.
// This module provides both flavors:
//
//   * ScalarSeries  — interval-stamped history of a scalar query value
//     (one row per distinct consecutive value). The rule engine's query
//     history records every evaluated ground query here, and anything
//     needing "value of q as of t" reads it back.
//   * RelationHistory — interval-stamped history of a full relation, stored
//     as the paper describes: one row per (tuple, validity interval).
//
// Layout (DESIGN.md §14): both stores are *columnar*. Intervals live in
// parallel T_start / T_end column vectors kept in interval-start order, and
// values are dictionary-encoded — the value column holds packed 32-bit ids
// into a ValueDict (scalars) or TupleDict over a ValueDict (rows). AsOf is a
// binary search over the start column instead of a scan; a sorted batch of
// timestamps resolves in one merge pass (GatherAsOf). Retention trimming
// (TrimBefore) advances a base offset and compacts — columns and dictionary —
// amortized O(1) per dropped interval.
//
// Both stores serialize with a columnar v2 wire tag and retain a migration
// read path for row-oriented v1 dumps, so pre-columnar checkpoints restore.

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

/// Wire tag prefixing columnar (v2) dumps. v1 row-oriented ScalarSeries dumps
/// begin with a bool byte (0/1) and v1 RelationHistory dumps with a u32
/// column count, so the tag is unambiguous in practice (a RelationHistory
/// schema of exactly 0xC2 = 194 columns would collide; Deserialize guards on
/// the known schema arity).
inline constexpr uint8_t kColumnarTag = 0xC2;

/// Interval-stamped history of one scalar value.
class ScalarSeries {
 public:
  /// Records that the value is `v` from time `t` on. Appends a new interval
  /// only when the value changed; `t` must be >= the last recorded time.
  Status Record(Timestamp t, Value v);

  /// Value at time `t`, by binary search over the start column. The two
  /// failure modes are distinct:
  ///   * NotFound    — `t` precedes the first value ever recorded; the query
  ///     is simply before the series began.
  ///   * OutOfRange  — a value *was* recorded covering `t`, but `TrimBefore`
  ///     has since dropped it; the answer existed and is gone.
  /// Callers that treat "no value yet" as benign must not swallow OutOfRange:
  /// it means their retention horizon is too tight.
  Result<Value> AsOf(Timestamp t) const;

  /// Batched AsOf: answers every timestamp of the ascending-sorted `ts` in
  /// one merge pass over the interval columns (O(ts.size() + log n) probes
  /// instead of ts.size() independent binary searches). Error semantics per
  /// element match AsOf; the first failing element aborts the gather.
  /// InvalidArgument when `ts` is not sorted.
  Status GatherAsOf(const std::vector<Timestamp>& ts,
                    std::vector<Value>* out) const;

  /// Latest recorded value. NotFound when empty.
  Result<Value> Latest() const;

  /// Drops intervals that ended at or before `horizon` (bounded-operator GC).
  /// The interval covering `horizon` is always kept, and an interval that is
  /// still open (end == kTimeMax) is never dropped — even when `horizon` is
  /// kTimeMax itself.
  void TrimBefore(Timestamp horizon);

  size_t num_intervals() const { return starts_.size() - base_; }
  bool empty() const { return num_intervals() == 0; }

  /// Total intervals dropped by TrimBefore over this series' lifetime.
  uint64_t intervals_trimmed() const { return intervals_trimmed_; }

  /// Distinct values in the dictionary (diagnostics; bounded by the value
  /// domain, not the interval count).
  size_t dict_size() const { return dict_.size(); }

  /// Interval-column probes made by AsOf/GatherAsOf over this series'
  /// lifetime (comparator invocations). The sublinearity regression test
  /// asserts a 100k-interval lookup stays within O(log n) probes.
  uint64_t asof_probes() const { return asof_probes_; }

  /// Deep retained-memory estimate: columns plus the dictionary including
  /// string payload bytes (satellite fix: the old estimate ignored payloads,
  /// so the bounded-retained-state gate undercounted).
  size_t EstimateBytes() const {
    return sizeof(*this) +
           starts_.capacity() * 2 * sizeof(Timestamp) +
           vids_.capacity() * sizeof(uint32_t) + dict_.EstimateBytes();
  }

  /// Publishes interval/dictionary/probe accounting into `m` under
  /// `aux.<prefix>.{intervals,bytes,trimmed,dict,asof_probes}` — the
  /// per-store half of the serving-path stats surface (DESIGN.md §15).
  void ExportTo(Metrics& m, const std::string& prefix) const;

  /// Durable serialization (columnar v2; reads v1 row dumps too).
  void Serialize(codec::Writer* w) const;
  Status Deserialize(codec::Reader* r);

 private:
  void CompactIfWorthwhile();

  // Parallel interval columns, ascending by start; [base_, starts_.size())
  // is the live window (TrimBefore advances base_, compaction re-bases).
  std::vector<Timestamp> starts_;
  std::vector<Timestamp> ends_;  // exclusive; kTimeMax while current
  std::vector<uint32_t> vids_;   // dictionary ids, parallel to starts_
  ValueDict dict_;
  size_t base_ = 0;
  Timestamp first_start_ = 0;  // start of the first interval ever recorded
  bool has_record_ = false;
  uint64_t intervals_trimmed_ = 0;
  mutable uint64_t asof_probes_ = 0;
};

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

  /// Records the full relation value at time `t` (closing the validity of
  /// rows that disappeared, opening intervals for new rows). `t` must be
  /// >= the last recorded time. Rows are compared as bags.
  Status Record(Timestamp t, const db::Relation& rel);

  /// Applies an incremental delta at time `t`: closes the validity interval
  /// of each row in `removed` (the most recently opened instance first when a
  /// row has duplicates) and opens intervals for each row in `added` —
  /// O(|delta| + |open rows|) instead of Record's O(|relation|) snapshot
  /// interning, which is what makes per-commit archival of a versioned table
  /// affordable. Tuples appearing in both `removed` and `added` cancel (the
  /// row never left the relation, so its interval stays open), matching
  /// Record's multiset diff. A row both opened and closed at `t` would carry
  /// a zero-length [t, t) interval that no AsOf can observe; it is dropped
  /// outright and counted in phantom_rows_dropped() rather than archived.
  /// InvalidArgument when `t` precedes the last recorded time, a removed row
  /// is not currently live, or a row's arity mismatches the schema; the
  /// store is unchanged on error.
  Status ApplyDelta(Timestamp t, const std::vector<db::Tuple>& removed,
                    const std::vector<db::Tuple>& added);

  /// The relation as of time `t` (selection T_start <= t < T_end followed by
  /// a projection, exactly the paper's retrieval). Reads at or past the last
  /// record time take a fast path over only the open rows; historical reads
  /// binary-search the start column for the candidate prefix. NotFound
  /// before the first record; OutOfRange when `t` falls before a trim
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

  /// Durable serialization (columnar v2 with both dictionaries; reads v1
  /// row dumps too). The schema travels with the dump; Deserialize rejects
  /// a dump whose schema differs from this history's.
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
  // Indices of open rows (end == kTimeMax), ascending, so Record closes
  // disappeared rows and the current-time AsOf path reads the live relation
  // in O(open rows) instead of scanning the whole history. Derived state:
  // rebuilt on deserialize/compaction, never serialized.
  std::vector<size_t> open_rows_;
  // Open rows grouped by tuple id (each bucket ascends like open_rows_), so
  // ApplyDelta closes a removed row in O(1) instead of scanning the open set.
  // Derived state with lazy upkeep: Record/TrimBefore/Deserialize mark it
  // dirty instead of maintaining it, and ApplyDelta rebuilds on first use.
  std::unordered_map<uint32_t, std::vector<size_t>> open_by_tid_;
  bool open_index_dirty_ = true;
  // Per-key archive index (only with a key column): key-column value id ->
  // positions of that key's rows, ascending, i.e. in start order. Derived
  // state kept up to date by Record/ApplyDelta and rebuilt after trimming,
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

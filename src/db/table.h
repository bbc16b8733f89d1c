// A stored table: schema, rows, and an optional unique primary-key hash index.
//
// Mutation methods return enough information (the exact tuples inserted,
// deleted, or replaced) for the transaction layer to build undo records and
// for the event layer to emit row-level events.

#ifndef PTLDB_DB_TABLE_H_
#define PTLDB_DB_TABLE_H_

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "db/expr.h"
#include "db/relation.h"
#include "db/schema.h"
#include "db/tuple.h"

namespace ptldb::db {

/// One (old_row, new_row) pair produced by an update.
struct RowUpdate {
  Tuple old_row;
  Tuple new_row;
};

/// Applies the int64 -> double widening a table promises for DOUBLE columns,
/// so a row matches what the table stores. Other cells are left as they are.
void WidenRow(const Schema& schema, Tuple* row);

class Table {
 public:
  /// `primary_key` lists the key columns (may be empty for an unkeyed bag).
  /// Key columns must exist in the schema.
  static Result<Table> Make(std::string name, Schema schema,
                            std::vector<std::string> primary_key = {});

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const std::vector<std::string>& primary_key() const { return pk_columns_; }
  size_t size() const { return rows_.size(); }
  const std::vector<Tuple>& rows() const { return rows_; }

  /// Inserts a row. Checks arity, column types (null always admissible,
  /// int64 silently widens into a DOUBLE column), and key uniqueness.
  Status Insert(Tuple row);

  /// Deletes every row satisfying `pred`; returns the deleted rows.
  Result<std::vector<Tuple>> DeleteWhere(const BoundExpr& pred);

  /// Updates every row satisfying `pred` by evaluating `assignments`
  /// (column index -> bound expression over the *old* row). Returns the
  /// (old, new) pairs. Key updates re-check uniqueness.
  Result<std::vector<RowUpdate>> UpdateWhere(
      const BoundExpr& pred,
      const std::vector<std::pair<size_t, BoundExpr>>& assignments);

  /// Removes one row equal to `row` (undo helper). NotFound if absent.
  Status RemoveOne(const Tuple& row);

  /// Replaces one row equal to `from` with `to` (undo helper).
  Status ReplaceOne(const Tuple& from, const Tuple& to);

  /// Point lookup by key tuple; null when the table has no primary key or
  /// the key is absent.
  const Tuple* FindByKey(const Tuple& key) const;

  /// Copies the contents into a Relation (for scans / snapshots).
  Relation Snapshot() const;

 private:
  Table(std::string name, Schema schema, std::vector<std::string> pk_columns,
        std::vector<size_t> pk_indexes)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        pk_columns_(std::move(pk_columns)),
        pk_indexes_(std::move(pk_indexes)) {}

  bool has_pk() const { return !pk_indexes_.empty(); }
  Tuple KeyOf(const Tuple& row) const;
  Status CheckRowShape(const Tuple& row) const;

  // Removes the row at `pos` by swap-remove, fixing the index.
  void RemoveAt(size_t pos);

  std::string name_;
  Schema schema_;
  std::vector<std::string> pk_columns_;
  std::vector<size_t> pk_indexes_;
  std::vector<Tuple> rows_;
  // Key tuple -> position in rows_. Maintained only when has_pk().
  std::unordered_map<Tuple, size_t, TupleHash> pk_index_;
};

}  // namespace ptldb::db

#endif  // PTLDB_DB_TABLE_H_

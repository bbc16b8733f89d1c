#include "db/table.h"

#include "common/strings.h"

namespace ptldb::db {

Result<Table> Table::Make(std::string name, Schema schema,
                          std::vector<std::string> primary_key) {
  if (name.empty()) return Status::InvalidArgument("table name may not be empty");
  std::vector<size_t> pk_indexes;
  pk_indexes.reserve(primary_key.size());
  for (const std::string& col : primary_key) {
    PTLDB_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(col));
    pk_indexes.push_back(idx);
  }
  return Table(std::move(name), std::move(schema), std::move(primary_key),
               std::move(pk_indexes));
}

Tuple Table::KeyOf(const Tuple& row) const {
  Tuple key;
  key.reserve(pk_indexes_.size());
  for (size_t idx : pk_indexes_) key.push_back(row[idx]);
  return key;
}

Status Table::CheckRowShape(const Tuple& row) const {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        StrCat("row arity ", row.size(), " does not match table '", name_,
               "' arity ", schema_.num_columns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Value& v = row[i];
    ValueType want = schema_.column(i).type;
    if (v.is_null() || v.type() == want) continue;
    if (v.is_int() && want == ValueType::kDouble) continue;  // widened below
    return Status::TypeMismatch(
        StrCat("column '", schema_.column(i).name, "' of table '", name_,
               "' expects ", ValueTypeToString(want), ", got ",
               ValueTypeToString(v.type())));
  }
  return Status::OK();
}

void WidenRow(const Schema& schema, Tuple* row) {
  for (size_t i = 0; i < row->size() && i < schema.num_columns(); ++i) {
    if ((*row)[i].is_int() && schema.column(i).type == ValueType::kDouble) {
      (*row)[i] = Value::Real(static_cast<double>((*row)[i].AsInt()));
    }
  }
}

Status Table::Insert(Tuple row) {
  PTLDB_RETURN_IF_ERROR(CheckRowShape(row));
  WidenRow(schema_, &row);
  if (has_pk()) {
    Tuple key = KeyOf(row);
    if (pk_index_.count(key) > 0) {
      return Status::AlreadyExists(
          StrCat("duplicate key ", TupleToString(key), " in table '", name_, "'"));
    }
    pk_index_.emplace(std::move(key), rows_.size());
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

void Table::RemoveAt(size_t pos) {
  if (has_pk()) pk_index_.erase(KeyOf(rows_[pos]));
  if (pos != rows_.size() - 1) {
    rows_[pos] = std::move(rows_.back());
    if (has_pk()) pk_index_[KeyOf(rows_[pos])] = pos;
  }
  rows_.pop_back();
}

Result<std::vector<Tuple>> Table::DeleteWhere(const BoundExpr& pred) {
  std::vector<Tuple> deleted;
  size_t pos = 0;
  while (pos < rows_.size()) {
    PTLDB_ASSIGN_OR_RETURN(bool match, pred.EvalPredicate(rows_[pos]));
    if (match) {
      deleted.push_back(rows_[pos]);
      RemoveAt(pos);  // Swap-remove: re-examine the row now at `pos`.
    } else {
      ++pos;
    }
  }
  return deleted;
}

Result<std::vector<RowUpdate>> Table::UpdateWhere(
    const BoundExpr& pred,
    const std::vector<std::pair<size_t, BoundExpr>>& assignments) {
  // Two passes: evaluate everything first so a mid-way error leaves the table
  // untouched, then apply.
  std::vector<std::pair<size_t, Tuple>> planned;  // (row position, new row)
  for (size_t pos = 0; pos < rows_.size(); ++pos) {
    PTLDB_ASSIGN_OR_RETURN(bool match, pred.EvalPredicate(rows_[pos]));
    if (!match) continue;
    Tuple new_row = rows_[pos];
    for (const auto& [col, expr] : assignments) {
      PTLDB_ASSIGN_OR_RETURN(new_row[col], expr.Eval(rows_[pos]));
    }
    PTLDB_RETURN_IF_ERROR(CheckRowShape(new_row));
    WidenRow(schema_, &new_row);
    planned.emplace_back(pos, std::move(new_row));
  }
  // Key-uniqueness check for updated keys against the post-update table.
  if (has_pk()) {
    std::unordered_map<Tuple, size_t, TupleHash> new_keys;
    for (const auto& [pos, new_row] : planned) {
      Tuple key = KeyOf(new_row);
      if (!new_keys.emplace(key, pos).second) {
        return Status::AlreadyExists(
            StrCat("update produces duplicate key ", TupleToString(key)));
      }
      auto it = pk_index_.find(key);
      bool clashes_with_untouched = it != pk_index_.end();
      if (clashes_with_untouched) {
        // A clash with another *updated* row's old position is fine.
        for (const auto& [p2, unused] : planned) {
          (void)unused;
          if (it->second == p2) {
            clashes_with_untouched = false;
            break;
          }
        }
      }
      if (clashes_with_untouched) {
        return Status::AlreadyExists(
            StrCat("update produces duplicate key ", TupleToString(key)));
      }
    }
  }
  std::vector<RowUpdate> updates;
  updates.reserve(planned.size());
  for (auto& [pos, new_row] : planned) {
    if (has_pk()) pk_index_.erase(KeyOf(rows_[pos]));
    updates.push_back(RowUpdate{rows_[pos], new_row});
    rows_[pos] = std::move(new_row);
    if (has_pk()) pk_index_[KeyOf(rows_[pos])] = pos;
  }
  return updates;
}

Status Table::RemoveOne(const Tuple& row) {
  if (has_pk()) {
    auto it = pk_index_.find(KeyOf(row));
    if (it != pk_index_.end() && rows_[it->second] == row) {
      RemoveAt(it->second);
      return Status::OK();
    }
    return Status::NotFound(StrCat("row ", TupleToString(row), " not in table '",
                                   name_, "'"));
  }
  for (size_t pos = 0; pos < rows_.size(); ++pos) {
    if (rows_[pos] == row) {
      RemoveAt(pos);
      return Status::OK();
    }
  }
  return Status::NotFound(
      StrCat("row ", TupleToString(row), " not in table '", name_, "'"));
}

Status Table::ReplaceOne(const Tuple& from, const Tuple& to) {
  PTLDB_RETURN_IF_ERROR(CheckRowShape(to));
  for (size_t pos = 0; pos < rows_.size(); ++pos) {
    if (rows_[pos] == from) {
      if (has_pk()) pk_index_.erase(KeyOf(rows_[pos]));
      rows_[pos] = to;
      WidenRow(schema_, &rows_[pos]);
      if (has_pk()) {
        Tuple key = KeyOf(rows_[pos]);
        if (pk_index_.count(key) > 0) {
          return Status::AlreadyExists(
              StrCat("replace produces duplicate key ", TupleToString(key)));
        }
        pk_index_.emplace(std::move(key), pos);
      }
      return Status::OK();
    }
  }
  return Status::NotFound(
      StrCat("row ", TupleToString(from), " not in table '", name_, "'"));
}

const Tuple* Table::FindByKey(const Tuple& key) const {
  if (!has_pk()) return nullptr;
  auto it = pk_index_.find(key);
  return it == pk_index_.end() ? nullptr : &rows_[it->second];
}

Relation Table::Snapshot() const { return Relation(schema_, rows_); }

}  // namespace ptldb::db

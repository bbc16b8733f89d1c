#include "db/query.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "common/strings.h"
#include "db/tuple.h"

namespace ptldb::db {

const char* AggFnToString(AggFn fn) {
  switch (fn) {
    case AggFn::kCount:
      return "COUNT";
    case AggFn::kSum:
      return "SUM";
    case AggFn::kMin:
      return "MIN";
    case AggFn::kMax:
      return "MAX";
    case AggFn::kAvg:
      return "AVG";
  }
  return "?";
}

std::string Query::ToString() const {
  switch (kind) {
    case Kind::kScan: {
      std::string inner = table;
      if (!alias.empty()) inner = StrCat(inner, " AS ", alias);
      if (asof != nullptr) {
        inner = StrCat(inner, " AS OF ", asof->ToString());
      }
      return StrCat("Scan(", inner, ")");
    }
    case Kind::kFilter:
      return StrCat("Filter(", predicate->ToString(), ")(", input->ToString(),
                    ")");
    case Kind::kProject: {
      std::vector<std::string> parts;
      for (const auto& [name, expr] : projections) {
        parts.push_back(StrCat(expr->ToString(), " AS ", name));
      }
      return StrCat("Project(", ::ptldb::Join(parts, ", "), ")(", input->ToString(), ")");
    }
    case Kind::kJoin:
      return StrCat("Join(", predicate->ToString(), ")(", input->ToString(),
                    ", ", right->ToString(), ")");
    case Kind::kAggregate: {
      std::vector<std::string> parts;
      for (const AggSpec& a : aggregates) {
        parts.push_back(StrCat(AggFnToString(a.fn), "(",
                               a.arg ? a.arg->ToString() : "*", ") AS ",
                               a.output_name));
      }
      return StrCat("Aggregate(by=[", ::ptldb::Join(group_by, ", "), "], ",
                    ::ptldb::Join(parts, ", "), ")(", input->ToString(), ")");
    }
    case Kind::kSort: {
      std::vector<std::string> parts;
      for (const auto& [name, asc] : sort_keys) {
        parts.push_back(StrCat(name, asc ? " ASC" : " DESC"));
      }
      return StrCat("Sort(", ::ptldb::Join(parts, ", "), ")(", input->ToString(), ")");
    }
    case Kind::kLimit:
      return StrCat("Limit(", limit, ")(", input->ToString(), ")");
    case Kind::kDistinct:
      return StrCat("Distinct(", input->ToString(), ")");
  }
  return "?";
}

namespace {
std::shared_ptr<Query> NewNode(Query::Kind kind) {
  auto q = std::make_shared<Query>();
  q->kind = kind;
  return q;
}
}  // namespace

QueryPtr Scan(std::string table, std::string alias) {
  auto q = NewNode(Query::Kind::kScan);
  q->table = std::move(table);
  q->alias = std::move(alias);
  return q;
}

QueryPtr ScanAsOf(std::string table, ExprPtr asof, std::string alias) {
  auto q = NewNode(Query::Kind::kScan);
  q->table = std::move(table);
  q->alias = std::move(alias);
  q->asof = std::move(asof);
  return q;
}

QueryPtr Filter(QueryPtr input, ExprPtr predicate) {
  auto q = NewNode(Query::Kind::kFilter);
  q->input = std::move(input);
  q->predicate = std::move(predicate);
  return q;
}

QueryPtr Project(QueryPtr input,
                 std::vector<std::pair<std::string, ExprPtr>> projections) {
  auto q = NewNode(Query::Kind::kProject);
  q->input = std::move(input);
  q->projections = std::move(projections);
  return q;
}

QueryPtr Join(QueryPtr left, QueryPtr right, ExprPtr predicate) {
  auto q = NewNode(Query::Kind::kJoin);
  q->input = std::move(left);
  q->right = std::move(right);
  q->predicate = std::move(predicate);
  return q;
}

QueryPtr Aggregate(QueryPtr input, std::vector<std::string> group_by,
                   std::vector<AggSpec> aggregates) {
  auto q = NewNode(Query::Kind::kAggregate);
  q->input = std::move(input);
  q->group_by = std::move(group_by);
  q->aggregates = std::move(aggregates);
  return q;
}

QueryPtr Sort(QueryPtr input, std::vector<std::pair<std::string, bool>> keys) {
  auto q = NewNode(Query::Kind::kSort);
  q->input = std::move(input);
  q->sort_keys = std::move(keys);
  return q;
}

QueryPtr Limit(QueryPtr input, size_t n) {
  auto q = NewNode(Query::Kind::kLimit);
  q->input = std::move(input);
  q->limit = n;
  return q;
}

QueryPtr Distinct(QueryPtr input) {
  auto q = NewNode(Query::Kind::kDistinct);
  q->input = std::move(input);
  return q;
}

Result<Relation> QueryExecutor::Execute(const QueryPtr& query,
                                        const ParamMap* params) const {
  if (query == nullptr) return Status::InvalidArgument("null query plan");
  switch (query->kind) {
    case Query::Kind::kScan:
      return ExecScan(*query, params);
    case Query::Kind::kFilter:
      return ExecFilter(*query, params);
    case Query::Kind::kProject:
      return ExecProject(*query, params);
    case Query::Kind::kJoin:
      return ExecJoin(*query, params);
    case Query::Kind::kAggregate:
      return ExecAggregate(*query, params);
    case Query::Kind::kSort:
      return ExecSort(*query, params);
    case Query::Kind::kLimit:
      return ExecLimit(*query, params);
    case Query::Kind::kDistinct:
      return ExecDistinct(*query, params);
  }
  return Status::Internal("unknown query node kind");
}

namespace {

// Renames a schema's columns to "alias.col" (scan output convention).
Schema AliasSchema(const std::string& alias, const Schema& schema) {
  std::vector<Column> cols;
  cols.reserve(schema.num_columns());
  for (const Column& c : schema.columns()) {
    cols.push_back(Column{StrCat(alias, ".", c.name), c.type});
  }
  return Schema(std::move(cols));
}

Relation AliasRelation(const std::string& alias, const Relation& rel) {
  return Relation(AliasSchema(alias, rel.schema()), rel.rows());
}

// The rows of `rel` satisfying `predicate`, in order; `rel` itself when
// every row does (a point lookup's usual outcome), saving the copy.
Result<Relation> FilterRows(Relation rel, const ExprPtr& predicate,
                            const ParamMap* params) {
  PTLDB_ASSIGN_OR_RETURN(BoundExpr pred,
                         BoundExpr::Bind(predicate, rel.schema(), params));
  std::vector<Tuple> kept;
  bool all = true;
  for (size_t i = 0; i < rel.size(); ++i) {
    PTLDB_ASSIGN_OR_RETURN(bool match, pred.EvalPredicate(rel.row(i)));
    if (match && !all) kept.push_back(rel.row(i));
    if (!match && all) {
      all = false;
      kept.assign(rel.rows().begin(), rel.rows().begin() + i);
    }
  }
  if (all) return rel;
  return Relation(rel.schema(), std::move(kept));
}

// Evaluates an `AS OF` expression (no column references; literals, params,
// arithmetic) to a timestamp.
Result<Timestamp> EvalAsOfExpr(const ExprPtr& expr, const ParamMap* params) {
  PTLDB_ASSIGN_OR_RETURN(
      BoundExpr bound,
      BoundExpr::Bind(expr, Schema(std::vector<Column>{}), params));
  PTLDB_ASSIGN_OR_RETURN(Value v, bound.Eval(Tuple{}));
  if (!v.is_int()) {
    return Status::TypeMismatch(
        StrCat("AS OF expression must evaluate to an integer timestamp, got ",
               v.ToString()));
  }
  return v.AsInt();
}

}  // namespace

Result<std::optional<Timestamp>> QueryExecutor::ScanTime(
    const Query& scan, const ParamMap* params) const {
  if (scan.asof == nullptr) return default_asof_;
  PTLDB_ASSIGN_OR_RETURN(Timestamp t, EvalAsOfExpr(scan.asof, params));
  return std::optional<Timestamp>(t);
}

namespace {

Status NoVersionStore(const std::string& table) {
  return Status::InvalidArgument(StrCat(
      "AS OF scan of '", table, "' requires a version store (none attached)"));
}

}  // namespace

Result<Relation> QueryExecutor::ExecScan(const Query& q,
                                         const ParamMap* params) const {
  // `AS OF` reads resolve through the version store instead of the live
  // table: an explicit per-scan expression wins over the executor-wide
  // default (the QUERY_ASOF whole-query mode).
  PTLDB_ASSIGN_OR_RETURN(std::optional<Timestamp> asof_time,
                         ScanTime(q, params));
  if (asof_time.has_value()) {
    if (asof_provider_ == nullptr) return NoVersionStore(q.table);
    PTLDB_ASSIGN_OR_RETURN(Relation rel,
                           asof_provider_->TableAsOf(q.table, *asof_time));
    if (q.alias.empty()) return rel;
    return AliasRelation(q.alias, rel);
  }
  PTLDB_ASSIGN_OR_RETURN(const Table* table, catalog_->GetTable(q.table));
  if (q.alias.empty()) return table->Snapshot();
  return Relation(AliasSchema(q.alias, table->schema()), table->rows());
}

namespace {

// Searches a conjunction for `col = constant` (or constant = col, or a
// parameter) where `col` names the table's single primary-key column;
// returns the key value when found. Enables index point lookups.
bool FindPkEquality(const ExprPtr& pred, const std::string& pk_name,
                    const ParamMap* params, Value* out_key) {
  if (pred->kind != Expr::Kind::kBinary) return false;
  if (pred->binary_op == BinaryOp::kAnd) {
    return FindPkEquality(pred->left, pk_name, params, out_key) ||
           FindPkEquality(pred->right, pk_name, params, out_key);
  }
  if (pred->binary_op != BinaryOp::kEq) return false;
  auto resolve_const = [params](const ExprPtr& e, Value* out) {
    if (e->kind == Expr::Kind::kLiteral) {
      *out = e->literal;
      return true;
    }
    if (e->kind == Expr::Kind::kParam && params != nullptr) {
      auto it = params->find(e->name);
      if (it != params->end()) {
        *out = it->second;
        return true;
      }
    }
    return false;
  };
  if (pred->left->kind == Expr::Kind::kColumnRef &&
      pred->left->name == pk_name) {
    return resolve_const(pred->right, out_key);
  }
  if (pred->right->kind == Expr::Kind::kColumnRef &&
      pred->right->name == pk_name) {
    return resolve_const(pred->left, out_key);
  }
  return false;
}

}  // namespace

Result<std::optional<Relation>> QueryExecutor::PointLookup(
    const Query& q, const ParamMap* params) const {
  const Query& scan = *q.input;
  auto table_or = catalog_->GetTable(scan.table);
  if (!table_or.ok() || (*table_or)->primary_key().size() != 1) {
    return std::optional<Relation>();
  }
  const Table* table = *table_or;
  const std::string& pk = table->primary_key()[0];
  Value key;
  if (!FindPkEquality(q.predicate,
                      scan.alias.empty() ? pk : StrCat(scan.alias, ".", pk),
                      params, &key)) {
    return std::optional<Relation>();
  }
  if (key.is_numeric()) {
    const Schema& schema = table->schema();
    const ValueType pk_type = schema.column(*schema.IndexOf(pk)).type;
    // Tables store widened values; widen the probe to match.
    if (key.is_int() && pk_type == ValueType::kDouble) {
      key = Value::Real(static_cast<double>(key.AsInt()));
    }
    // Both indexes match by value identity, while SQL equality coerces
    // numerics (1 = 1.0) and a NaN compares equal to anything: such probes
    // scan. Other types compare equal only to their own type, as in the
    // indexes.
    if (key.type() != pk_type ||
        (key.is_double() && std::isnan(key.AsDouble()))) {
      return std::optional<Relation>();
    }
  }
  PTLDB_ASSIGN_OR_RETURN(std::optional<Timestamp> asof_time,
                         ScanTime(scan, params));
  Relation candidates;
  if (asof_time.has_value()) {
    if (asof_provider_ == nullptr) return NoVersionStore(scan.table);
    PTLDB_ASSIGN_OR_RETURN(
        candidates,
        asof_provider_->TableAsOfKey(scan.table, *asof_time, pk, key));
    if (!scan.alias.empty()) {
      candidates = AliasRelation(scan.alias, candidates);
    }
  } else {
    candidates = Relation(scan.alias.empty()
                              ? table->schema()
                              : AliasSchema(scan.alias, table->schema()));
    const Tuple* row = table->FindByKey({key});
    if (row != nullptr) candidates.AppendUnchecked(*row);
  }
  PTLDB_ASSIGN_OR_RETURN(
      Relation out, FilterRows(std::move(candidates), q.predicate, params));
  return std::optional<Relation>(std::move(out));
}

Result<Relation> QueryExecutor::ExecFilter(const Query& q,
                                           const ParamMap* params) const {
  // Point-lookup fast path: the live table's hash index, or the version
  // store's per-key archive index for time-traveling scans (explicit AS OF
  // or the executor-wide default).
  if (q.input->kind == Query::Kind::kScan) {
    PTLDB_ASSIGN_OR_RETURN(std::optional<Relation> hit, PointLookup(q, params));
    if (hit.has_value()) return std::move(*hit);
  }
  PTLDB_ASSIGN_OR_RETURN(Relation in, Execute(q.input, params));
  return FilterRows(std::move(in), q.predicate, params);
}

Result<Relation> QueryExecutor::ExecProject(const Query& q,
                                            const ParamMap* params) const {
  PTLDB_ASSIGN_OR_RETURN(Relation in, Execute(q.input, params));
  std::vector<Column> cols;
  std::vector<BoundExpr> exprs;
  cols.reserve(q.projections.size());
  exprs.reserve(q.projections.size());
  for (const auto& [name, expr] : q.projections) {
    PTLDB_ASSIGN_OR_RETURN(BoundExpr bound,
                           BoundExpr::Bind(expr, in.schema(), params));
    // Output type is dynamic; declare from a probe row when available.
    cols.push_back(Column{name, ValueType::kNull});
    exprs.push_back(std::move(bound));
  }
  Relation out{};
  std::vector<Tuple> rows;
  rows.reserve(in.size());
  for (const Tuple& row : in.rows()) {
    Tuple out_row;
    out_row.reserve(exprs.size());
    for (const BoundExpr& e : exprs) {
      PTLDB_ASSIGN_OR_RETURN(Value v, e.Eval(row));
      out_row.push_back(std::move(v));
    }
    rows.push_back(std::move(out_row));
  }
  if (!rows.empty()) {
    for (size_t i = 0; i < cols.size(); ++i) cols[i].type = rows[0][i].type();
  }
  return Relation(Schema(std::move(cols)), std::move(rows));
}

namespace {

// Detects `left.col = right.col` conjuncts in a join predicate so the executor
// can use a hash join. Returns pairs of (left index, right index) and the
// residual non-equi conjuncts.
void ExtractEquiKeys(const ExprPtr& pred, const Schema& left,
                     const Schema& right,
                     std::vector<std::pair<size_t, size_t>>* keys,
                     std::vector<ExprPtr>* residual) {
  if (pred->kind == Expr::Kind::kBinary &&
      pred->binary_op == BinaryOp::kAnd) {
    ExtractEquiKeys(pred->left, left, right, keys, residual);
    ExtractEquiKeys(pred->right, left, right, keys, residual);
    return;
  }
  if (pred->kind == Expr::Kind::kBinary && pred->binary_op == BinaryOp::kEq &&
      pred->left->kind == Expr::Kind::kColumnRef &&
      pred->right->kind == Expr::Kind::kColumnRef) {
    auto try_sides = [&](const std::string& a,
                         const std::string& b) -> bool {
      auto li = left.IndexOf(a);
      auto ri = right.IndexOf(b);
      if (li.ok() && ri.ok()) {
        keys->emplace_back(li.value(), ri.value());
        return true;
      }
      return false;
    };
    if (try_sides(pred->left->name, pred->right->name) ||
        try_sides(pred->right->name, pred->left->name)) {
      return;
    }
  }
  residual->push_back(pred);
}

Result<Schema> ConcatSchemas(const Schema& left, const Schema& right) {
  std::vector<Column> cols = left.columns();
  for (const Column& c : right.columns()) {
    if (left.Contains(c.name)) {
      return Status::InvalidArgument(
          StrCat("ambiguous column '", c.name,
                 "' in join output; add table aliases"));
    }
    cols.push_back(c);
  }
  return Schema::Make(std::move(cols));
}

Tuple ConcatTuples(const Tuple& a, const Tuple& b) {
  Tuple out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace

Result<Relation> QueryExecutor::ExecJoin(const Query& q,
                                         const ParamMap* params) const {
  PTLDB_ASSIGN_OR_RETURN(Relation left, Execute(q.input, params));
  PTLDB_ASSIGN_OR_RETURN(Relation right, Execute(q.right, params));
  PTLDB_ASSIGN_OR_RETURN(Schema out_schema,
                         ConcatSchemas(left.schema(), right.schema()));

  std::vector<std::pair<size_t, size_t>> keys;
  std::vector<ExprPtr> residual;
  ExtractEquiKeys(q.predicate, left.schema(), right.schema(), &keys, &residual);

  std::optional<BoundExpr> residual_pred;
  if (!residual.empty()) {
    ExprPtr conj = residual[0];
    for (size_t i = 1; i < residual.size(); ++i) conj = And(conj, residual[i]);
    PTLDB_ASSIGN_OR_RETURN(BoundExpr bound,
                           BoundExpr::Bind(conj, out_schema, params));
    residual_pred = std::move(bound);
  }

  Relation out(out_schema);
  auto emit = [&](const Tuple& l, const Tuple& r) -> Status {
    Tuple joined = ConcatTuples(l, r);
    if (residual_pred.has_value()) {
      PTLDB_ASSIGN_OR_RETURN(bool match, residual_pred->EvalPredicate(joined));
      if (!match) return Status::OK();
    }
    out.AppendUnchecked(std::move(joined));
    return Status::OK();
  };

  if (!keys.empty()) {
    // Hash join: build on the right, probe from the left.
    std::unordered_map<Tuple, std::vector<size_t>, TupleHash> build;
    for (size_t i = 0; i < right.size(); ++i) {
      Tuple key;
      key.reserve(keys.size());
      for (const auto& [unused, ri] : keys) {
        (void)unused;
        key.push_back(right.row(i)[ri]);
      }
      build[std::move(key)].push_back(i);
    }
    for (const Tuple& l : left.rows()) {
      Tuple key;
      key.reserve(keys.size());
      for (const auto& [li, unused] : keys) {
        (void)unused;
        key.push_back(l[li]);
      }
      auto it = build.find(key);
      if (it == build.end()) continue;
      for (size_t ri : it->second) {
        PTLDB_RETURN_IF_ERROR(emit(l, right.row(ri)));
      }
    }
  } else {
    for (const Tuple& l : left.rows()) {
      for (const Tuple& r : right.rows()) {
        PTLDB_RETURN_IF_ERROR(emit(l, r));
      }
    }
  }
  return out;
}

namespace {

/// Incremental accumulator shared by grouped and global aggregation.
struct AggState {
  int64_t count = 0;
  Value sum = Value::Int(0);
  Value min = Value::Null();
  Value max = Value::Null();

  Status Accumulate(const Value& v) {
    ++count;
    if (v.is_null()) return Status::OK();
    if (v.is_numeric()) {
      PTLDB_ASSIGN_OR_RETURN(sum, Value::Add(sum, v));
    }
    if (min.is_null()) {
      min = v;
    } else {
      PTLDB_ASSIGN_OR_RETURN(int c, Value::Compare(v, min));
      if (c < 0) min = v;
    }
    if (max.is_null()) {
      max = v;
    } else {
      PTLDB_ASSIGN_OR_RETURN(int c, Value::Compare(v, max));
      if (c > 0) max = v;
    }
    return Status::OK();
  }

  Result<Value> Finish(AggFn fn) const {
    switch (fn) {
      case AggFn::kCount:
        return Value::Int(count);
      case AggFn::kSum:
        return sum;
      case AggFn::kMin:
        return min;
      case AggFn::kMax:
        return max;
      case AggFn::kAvg:
        if (count == 0) return Value::Null();
        return Value::Real(sum.AsDouble() / static_cast<double>(count));
    }
    return Status::Internal("unknown aggregate fn");
  }
};

}  // namespace

Result<Relation> QueryExecutor::ExecAggregate(const Query& q,
                                              const ParamMap* params) const {
  PTLDB_ASSIGN_OR_RETURN(Relation in, Execute(q.input, params));

  std::vector<size_t> group_idx;
  group_idx.reserve(q.group_by.size());
  std::vector<Column> out_cols;
  for (const std::string& g : q.group_by) {
    PTLDB_ASSIGN_OR_RETURN(size_t idx, in.schema().IndexOf(g));
    group_idx.push_back(idx);
    out_cols.push_back(in.schema().column(idx));
  }
  std::vector<std::optional<BoundExpr>> agg_args;
  for (const AggSpec& spec : q.aggregates) {
    if (spec.arg != nullptr) {
      PTLDB_ASSIGN_OR_RETURN(BoundExpr bound,
                             BoundExpr::Bind(spec.arg, in.schema(), params));
      agg_args.emplace_back(std::move(bound));
    } else {
      agg_args.emplace_back(std::nullopt);
    }
    out_cols.push_back(Column{spec.output_name, ValueType::kNull});
  }

  // Group rows. Vector-of-groups keeps first-seen order deterministic.
  std::unordered_map<Tuple, size_t, TupleHash> group_of;
  std::vector<Tuple> group_keys;
  std::vector<std::vector<AggState>> states;
  auto state_for = [&](const Tuple& key) -> std::vector<AggState>& {
    auto [it, inserted] = group_of.try_emplace(key, group_keys.size());
    if (inserted) {
      group_keys.push_back(key);
      states.emplace_back(q.aggregates.size());
    }
    return states[it->second];
  };

  for (const Tuple& row : in.rows()) {
    Tuple key;
    key.reserve(group_idx.size());
    for (size_t idx : group_idx) key.push_back(row[idx]);
    std::vector<AggState>& st = state_for(key);
    for (size_t a = 0; a < q.aggregates.size(); ++a) {
      Value v = Value::Int(1);  // COUNT(*) counts rows.
      if (agg_args[a].has_value()) {
        PTLDB_ASSIGN_OR_RETURN(v, agg_args[a]->Eval(row));
      }
      PTLDB_RETURN_IF_ERROR(st[a].Accumulate(v));
    }
  }

  // Global aggregation over an empty input still yields one row.
  if (group_idx.empty() && group_keys.empty()) {
    group_keys.push_back(Tuple{});
    states.emplace_back(q.aggregates.size());
  }

  Relation out{Schema(out_cols)};
  std::vector<Tuple> rows;
  for (size_t g = 0; g < group_keys.size(); ++g) {
    Tuple row = group_keys[g];
    for (size_t a = 0; a < q.aggregates.size(); ++a) {
      PTLDB_ASSIGN_OR_RETURN(Value v, states[g][a].Finish(q.aggregates[a].fn));
      row.push_back(std::move(v));
    }
    rows.push_back(std::move(row));
  }
  if (!rows.empty()) {
    std::vector<Column> cols = out.schema().columns();
    for (size_t i = 0; i < cols.size(); ++i) cols[i].type = rows[0][i].type();
    return Relation(Schema(std::move(cols)), std::move(rows));
  }
  return Relation(out.schema(), std::move(rows));
}

Result<Relation> QueryExecutor::ExecSort(const Query& q,
                                         const ParamMap* params) const {
  PTLDB_ASSIGN_OR_RETURN(Relation in, Execute(q.input, params));
  std::vector<std::pair<size_t, bool>> keys;
  keys.reserve(q.sort_keys.size());
  for (const auto& [name, asc] : q.sort_keys) {
    PTLDB_ASSIGN_OR_RETURN(size_t idx, in.schema().IndexOf(name));
    keys.emplace_back(idx, asc);
  }
  std::vector<Tuple> rows = in.rows();
  std::stable_sort(rows.begin(), rows.end(),
                   [&keys](const Tuple& a, const Tuple& b) {
                     for (const auto& [idx, asc] : keys) {
                       auto cmp = Value::Compare(a[idx], b[idx]);
                       int c = cmp.ok() ? cmp.value() : 0;
                       if (c != 0) return asc ? c < 0 : c > 0;
                     }
                     return false;
                   });
  return Relation(in.schema(), std::move(rows));
}

Result<Relation> QueryExecutor::ExecDistinct(const Query& q,
                                             const ParamMap* params) const {
  PTLDB_ASSIGN_OR_RETURN(Relation in, Execute(q.input, params));
  std::unordered_map<Tuple, bool, TupleHash> seen;
  Relation out(in.schema());
  for (const Tuple& row : in.rows()) {
    if (seen.emplace(row, true).second) out.AppendUnchecked(row);
  }
  return out;
}

Result<Relation> QueryExecutor::ExecLimit(const Query& q,
                                          const ParamMap* params) const {
  PTLDB_ASSIGN_OR_RETURN(Relation in, Execute(q.input, params));
  if (in.size() <= q.limit) return in;
  std::vector<Tuple> rows(in.rows().begin(), in.rows().begin() + q.limit);
  return Relation(in.schema(), std::move(rows));
}

}  // namespace ptldb::db

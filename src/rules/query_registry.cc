#include "rules/query_registry.h"

#include <set>
#include <utility>

#include "common/strings.h"
#include "db/query.h"
#include "db/sql_parser.h"

namespace ptldb::rules {

Status QueryRegistry::Register(const std::string& name, std::string_view sql,
                               std::vector<std::string> param_names) {
  if (Has(name)) {
    return Status::AlreadyExists(StrCat("query '", name, "' already registered"));
  }
  PTLDB_ASSIGN_OR_RETURN(db::QueryPtr plan, db::ParseSql(sql));
  sql_queries_.emplace(name, SqlQuery{std::move(plan), std::move(param_names)});
  return Status::OK();
}

Status QueryRegistry::RegisterComputed(const std::string& name,
                                       ComputedQueryFn fn) {
  if (Has(name)) {
    return Status::AlreadyExists(StrCat("query '", name, "' already registered"));
  }
  computed_.emplace(name, std::move(fn));
  return Status::OK();
}

bool QueryRegistry::Has(const std::string& name) const {
  return sql_queries_.count(name) > 0 || computed_.count(name) > 0;
}

Result<db::ParamMap> QueryRegistry::BindArgs(const SqlQuery& q,
                                             const std::vector<Value>& args,
                                             const std::string& name) const {
  if (args.size() != q.param_names.size()) {
    return Status::InvalidArgument(
        StrCat("query '", name, "' expects ", q.param_names.size(),
               " argument(s), got ", args.size()));
  }
  db::ParamMap params;
  for (size_t i = 0; i < args.size(); ++i) {
    params.emplace(q.param_names[i], args[i]);
  }
  return params;
}

Result<Value> QueryRegistry::Eval(const ptl::QuerySpec& spec) const {
  auto cit = computed_.find(spec.name);
  if (cit != computed_.end()) return cit->second(spec.args);
  return EvalSql(spec, std::nullopt);
}

Result<Value> QueryRegistry::EvalAsOf(const ptl::QuerySpec& spec,
                                      Timestamp t) const {
  if (IsComputed(spec.name)) {
    return Status::NotImplemented(
        StrCat("computed query '", spec.name,
               "' cannot be evaluated against a historical state"));
  }
  return EvalSql(spec, t);
}

Result<Value> QueryRegistry::EvalSql(const ptl::QuerySpec& spec,
                                     std::optional<Timestamp> asof) const {
  auto it = sql_queries_.find(spec.name);
  if (it == sql_queries_.end()) {
    return Status::NotFound(
        StrCat("no query registered for function symbol '", spec.name, "'"));
  }
  if (asof.has_value() && database_->temporal_sink() == nullptr) {
    return Status::InvalidArgument(
        StrCat("AS OF evaluation of '", spec.name,
               "' requires a version store (none attached)"));
  }
  PTLDB_ASSIGN_OR_RETURN(db::ParamMap params,
                         BindArgs(it->second, spec.args, spec.name));
  db::QueryExecutor exec(&std::as_const(*database_).catalog(),
                         database_->temporal_sink(), asof);
  PTLDB_ASSIGN_OR_RETURN(db::Relation rel,
                         exec.Execute(it->second.plan, &params));
  if (rel.schema().num_columns() == 1 && rel.empty()) {
    return Value::Null();  // "no such row"
  }
  auto scalar = rel.ScalarValue();
  if (!scalar.ok()) {
    return Status::TypeMismatch(
        StrCat("query ", spec.ToString(), " used as a scalar but returned ",
               rel.size(), " row(s) x ", rel.schema().num_columns(),
               " column(s)"));
  }
  return scalar;
}

namespace {
void CollectScans(const db::QueryPtr& q, std::set<std::string>* out) {
  if (q == nullptr) return;
  if (q->kind == db::Query::Kind::kScan) out->insert(q->table);
  CollectScans(q->input, out);
  CollectScans(q->right, out);
}
}  // namespace

std::vector<std::string> QueryRegistry::ScannedTables(
    const std::string& name) const {
  auto it = sql_queries_.find(name);
  if (it != sql_queries_.end()) {
    std::set<std::string> tables;
    CollectScans(it->second.plan, &tables);
    return {tables.begin(), tables.end()};
  }
  if (computed_.count(name) > 0) return {name};
  return {};
}

}  // namespace ptldb::rules

// Maps PTL function symbols to executable database queries.
//
// The paper treats n-ary function symbols as queries on the database (§4.1,
// the OVERPRICED example). The registry resolves a ground QuerySpec —
// `price("IBM")` — to a value of the *current* database state, either via a
// registered SQL statement with named parameters or via a computed function
// (used by the §6.1.1 rewriting for derived aggregate items).
//
// Result shaping: a 1x1 relation yields its value; an empty single-column
// relation yields NULL (so "no such row" is representable in conditions);
// anything else is an error — conditions compare scalars.

#ifndef PTLDB_RULES_QUERY_REGISTRY_H_
#define PTLDB_RULES_QUERY_REGISTRY_H_

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "db/database.h"
#include "ptl/snapshot.h"

namespace ptldb::rules {

/// Computed query: receives the ground argument values, returns a scalar.
using ComputedQueryFn =
    std::function<Result<Value>(const std::vector<Value>& args)>;

class QueryRegistry {
 public:
  explicit QueryRegistry(db::Database* database) : database_(database) {}

  /// Registers `name` as the SQL statement `sql`; the i-th PTL argument is
  /// bound to the SQL parameter `$<param_names[i]>`. E.g.
  ///   Register("price", "SELECT price FROM stock WHERE name = $sym", {"sym"})
  /// makes `price('IBM')` usable in conditions.
  Status Register(const std::string& name, std::string_view sql,
                  std::vector<std::string> param_names = {});

  /// Registers a computed scalar function of the argument values.
  Status RegisterComputed(const std::string& name, ComputedQueryFn fn);

  bool Has(const std::string& name) const;

  /// Evaluates one ground query instance against the current database state.
  Result<Value> Eval(const ptl::QuerySpec& spec) const;

  /// Evaluates one ground query instance against the database *as of* `t`:
  /// every table the query scans is read from the attached version store at
  /// that instant (db::Database::TemporalSink). The offline integrity checker
  /// (rules/offline_check.h) uses this to re-create the query values each
  /// condition observed at historical commit points. Fails when the database
  /// has no version store or a scanned table is not versioned; computed
  /// queries are NotImplemented (they close over live state).
  Result<Value> EvalAsOf(const ptl::QuerySpec& spec, Timestamp t) const;

  /// True when `name` is a computed (non-SQL) query, which EvalAsOf cannot
  /// reconstruct historically.
  bool IsComputed(const std::string& name) const {
    return computed_.count(name) > 0;
  }

  /// The tables a registered SQL query's plan scans (sorted, deduplicated) —
  /// the read footprint the rule-set analyzer charges to conditions using
  /// the symbol. A computed query closes over live state the registry cannot
  /// see into; its own name is returned as an opaque resource label (the
  /// aggregate-rewrite items follow this convention: the computed query
  /// `__agg_r_0` reads the single-row table `__agg_r_0`). Unknown names
  /// yield an empty vector.
  std::vector<std::string> ScannedTables(const std::string& name) const;

 private:
  struct SqlQuery {
    db::QueryPtr plan;
    std::vector<std::string> param_names;
  };

  Result<db::ParamMap> BindArgs(const SqlQuery& q,
                                const std::vector<Value>& args,
                                const std::string& name) const;
  /// Eval and EvalAsOf's one SQL path: runs the query live, or with every
  /// scan read as of `asof`, and shapes the result as described above.
  Result<Value> EvalSql(const ptl::QuerySpec& spec,
                        std::optional<Timestamp> asof) const;

  db::Database* database_;
  std::unordered_map<std::string, SqlQuery> sql_queries_;
  std::unordered_map<std::string, ComputedQueryFn> computed_;
};

}  // namespace ptldb::rules

#endif  // PTLDB_RULES_QUERY_REGISTRY_H_

// Logical query plans and their executor.
//
// Plans are small immutable trees: Scan -> Filter -> Join -> Aggregate ->
// Project -> Sort -> Limit. The executor evaluates them against a Catalog,
// row-at-a-time, with a hash join for equi-join predicates and nested loops
// otherwise. This is the query facility PTL function symbols resolve to
// ("each n-ary function symbol denotes a query on the database", paper §4.1).

#ifndef PTLDB_DB_QUERY_H_
#define PTLDB_DB_QUERY_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "db/catalog.h"
#include "db/expr.h"
#include "db/relation.h"

namespace ptldb::db {

/// Supplies reconstructed past table states for `AS OF` scans. Implemented by
/// the system-period version store (src/temporal); the query layer only knows
/// the interface so db does not depend on the temporal subsystem.
class AsOfProvider {
 public:
  virtual ~AsOfProvider() = default;

  /// Whether `table` is declared versioned (has a queryable past).
  virtual bool IsVersioned(const std::string& table) const = 0;

  /// The committed contents of `table` as of time `t`. Errors when the table
  /// is not versioned or `t` falls behind the retention horizon.
  virtual Result<Relation> TableAsOf(const std::string& table,
                                     Timestamp t) const = 0;

  /// Point read behind the executor's keyed AS OF path: rows of
  /// TableAsOf(table, t), in its order, holding at least every row whose
  /// `column` cell equals `key` (Value ==). The caller re-applies its full
  /// predicate, so a provider without an index on `column` may return the
  /// whole table (the default). Errors as TableAsOf.
  virtual Result<Relation> TableAsOfKey(const std::string& table, Timestamp t,
                                        const std::string& column,
                                        const Value& key) const {
    (void)column;
    (void)key;
    return TableAsOf(table, t);
  }
};

/// Aggregate function selector for Aggregate nodes.
enum class AggFn { kCount, kSum, kMin, kMax, kAvg };

const char* AggFnToString(AggFn fn);

/// One aggregate output column: `fn(arg) AS output_name`. A null `arg`
/// means COUNT(*).
struct AggSpec {
  AggFn fn = AggFn::kCount;
  ExprPtr arg;
  std::string output_name;
};

struct Query;
using QueryPtr = std::shared_ptr<const Query>;

/// A logical plan node.
struct Query {
  enum class Kind {
    kScan,
    kFilter,
    kProject,
    kJoin,
    kAggregate,
    kSort,
    kLimit,
    kDistinct,
  };

  Kind kind;

  // kScan
  std::string table;
  std::string alias;  // When set, output columns are named "alias.col".
  // kScan, optional: `AS OF <expr>` — read the table's committed state at
  // the timestamp the expression evaluates to (an integer literal, `$param`,
  // or arithmetic over them) instead of the present. Requires an
  // AsOfProvider at execution time.
  ExprPtr asof;

  // kFilter: predicate over input schema. kJoin: predicate over the
  // concatenated (left ++ right) schema.
  ExprPtr predicate;

  // kProject: (output name, expression) pairs.
  std::vector<std::pair<std::string, ExprPtr>> projections;

  // kAggregate
  std::vector<std::string> group_by;
  std::vector<AggSpec> aggregates;

  // kSort: (column name, ascending) pairs.
  std::vector<std::pair<std::string, bool>> sort_keys;

  // kLimit
  size_t limit = 0;

  QueryPtr input;   // All non-scan nodes.
  QueryPtr right;   // kJoin only.

  /// Single-line plan rendering, e.g. `Project(name)(Filter(price>300)(Scan(t)))`.
  std::string ToString() const;
};

// ---- Plan builders ----------------------------------------------------------

QueryPtr Scan(std::string table, std::string alias = "");
/// Scan of `table`'s committed state at the time `asof` evaluates to.
QueryPtr ScanAsOf(std::string table, ExprPtr asof, std::string alias = "");
QueryPtr Filter(QueryPtr input, ExprPtr predicate);
QueryPtr Project(QueryPtr input,
                 std::vector<std::pair<std::string, ExprPtr>> projections);
QueryPtr Join(QueryPtr left, QueryPtr right, ExprPtr predicate);
QueryPtr Aggregate(QueryPtr input, std::vector<std::string> group_by,
                   std::vector<AggSpec> aggregates);
QueryPtr Sort(QueryPtr input, std::vector<std::pair<std::string, bool>> keys);
QueryPtr Limit(QueryPtr input, size_t n);
/// Set semantics: drops duplicate rows (first occurrence kept).
QueryPtr Distinct(QueryPtr input);

// ---- Execution --------------------------------------------------------------

/// Evaluates plans against a catalog. Stateless; cheap to construct.
class QueryExecutor {
 public:
  /// `asof` (optional) resolves `AS OF` scans; plans containing them fail
  /// without one. `default_asof`, when set, reads *every* scanned table as of
  /// that time — the whole-query time-travel mode behind QUERY_ASOF frames —
  /// and requires each scanned table to be versioned (a silent fallback to
  /// the present would misreport history).
  explicit QueryExecutor(const Catalog* catalog,
                         const AsOfProvider* asof = nullptr,
                         std::optional<Timestamp> default_asof = std::nullopt)
      : catalog_(catalog),
        asof_provider_(asof),
        default_asof_(default_asof) {}

  /// Runs the plan; `params` supplies values for `$param` expressions.
  Result<Relation> Execute(const QueryPtr& query,
                           const ParamMap* params = nullptr) const;

 private:
  /// The instant a scan reads: its own `AS OF` wins over the executor-wide
  /// default; nullopt reads the live table.
  Result<std::optional<Timestamp>> ScanTime(const Query& scan,
                                            const ParamMap* params) const;
  /// Filter(pk = const)(Scan) on a single-column primary key, answered from
  /// the table's hash index or, for AS OF scans, the archive's per-key
  /// index. nullopt when the plan does not qualify.
  Result<std::optional<Relation>> PointLookup(const Query& q,
                                              const ParamMap* params) const;
  Result<Relation> ExecScan(const Query& q, const ParamMap* params) const;
  Result<Relation> ExecFilter(const Query& q, const ParamMap* params) const;
  Result<Relation> ExecProject(const Query& q, const ParamMap* params) const;
  Result<Relation> ExecJoin(const Query& q, const ParamMap* params) const;
  Result<Relation> ExecAggregate(const Query& q, const ParamMap* params) const;
  Result<Relation> ExecSort(const Query& q, const ParamMap* params) const;
  Result<Relation> ExecLimit(const Query& q, const ParamMap* params) const;
  Result<Relation> ExecDistinct(const Query& q, const ParamMap* params) const;

  const Catalog* catalog_;
  const AsOfProvider* asof_provider_ = nullptr;
  std::optional<Timestamp> default_asof_;
};

}  // namespace ptldb::db

#endif  // PTLDB_DB_QUERY_H_

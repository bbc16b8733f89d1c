// Tests for the query engine and SQL parser.

#include <gtest/gtest.h>

#include <optional>

#include "common/logging.h"
#include "db/catalog.h"
#include "db/query.h"
#include "db/sql_parser.h"
#include "testutil.h"

namespace ptldb::db {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(catalog_.CreateTable(
        "stock",
        Schema({{"name", ValueType::kString},
                {"price", ValueType::kDouble},
                {"sector", ValueType::kString}}),
        {"name"}));
    ASSERT_OK(catalog_.CreateTable(
        "sector_info", Schema({{"sector", ValueType::kString},
                               {"region", ValueType::kString}})));
    Table* stock = *catalog_.GetTable("stock");
    ASSERT_OK(stock->Insert({Value::Str("IBM"), Value::Real(72), Value::Str("tech")}));
    ASSERT_OK(stock->Insert({Value::Str("HP"), Value::Real(30), Value::Str("tech")}));
    ASSERT_OK(stock->Insert({Value::Str("XOM"), Value::Real(55), Value::Str("oil")}));
    Table* info = *catalog_.GetTable("sector_info");
    ASSERT_OK(info->Insert({Value::Str("tech"), Value::Str("US")}));
    ASSERT_OK(info->Insert({Value::Str("oil"), Value::Str("TX")}));
  }

  Relation Run(std::string_view sql, const ParamMap* params = nullptr) {
    auto plan = ParseSql(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString() << " for " << sql;
    QueryExecutor exec(&catalog_);
    auto rel = exec.Execute(*plan, params);
    EXPECT_TRUE(rel.ok()) << rel.status().ToString() << " for " << sql;
    if (!rel.ok()) return Relation{};
    return std::move(rel).value();
  }

  Catalog catalog_;
};

TEST_F(QueryTest, SelectStar) {
  Relation r = Run("SELECT * FROM stock");
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.schema().num_columns(), 3u);
}

TEST_F(QueryTest, FilterAndProject) {
  // The paper's OVERPRICED query shape.
  Relation r = Run("SELECT name FROM stock WHERE price >= 50");
  r.SortRows();
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.row(0)[0], Value::Str("IBM"));
  EXPECT_EQ(r.row(1)[0], Value::Str("XOM"));
}

TEST_F(QueryTest, ProjectionExpressions) {
  Relation r = Run(
      "SELECT name, price * 2 AS doubled FROM stock WHERE name = 'IBM'");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.row(0)[1], Value::Real(144));
  ASSERT_OK_AND_ASSIGN(size_t idx, r.schema().IndexOf("doubled"));
  EXPECT_EQ(idx, 1u);
}

TEST_F(QueryTest, ScalarResult) {
  ASSERT_OK_AND_ASSIGN(QueryPtr plan,
                       ParseSql("SELECT price FROM stock WHERE name = 'IBM'"));
  QueryExecutor exec(&catalog_);
  ASSERT_OK_AND_ASSIGN(Relation r, exec.Execute(plan));
  ASSERT_OK_AND_ASSIGN(Value v, r.ScalarValue());
  EXPECT_EQ(v, Value::Real(72));
}

TEST_F(QueryTest, Parameters) {
  ParamMap params{{"s", Value::Str("tech")}};
  Relation r = Run("SELECT name FROM stock WHERE sector = $s", &params);
  EXPECT_EQ(r.size(), 2u);
}

TEST_F(QueryTest, JoinWithAliases) {
  Relation r = Run(
      "SELECT a.name, b.region FROM stock AS a JOIN sector_info AS b "
      "ON a.sector = b.sector WHERE a.price > 50");
  r.SortRows();
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.row(0)[0], Value::Str("IBM"));
  EXPECT_EQ(r.row(0)[1], Value::Str("US"));
  EXPECT_EQ(r.row(1)[0], Value::Str("XOM"));
  EXPECT_EQ(r.row(1)[1], Value::Str("TX"));
}

TEST_F(QueryTest, JoinWithoutAliasOnDistinctColumnsWorks) {
  // sector is ambiguous -> must error without aliases.
  auto plan = ParseSql(
      "SELECT name FROM stock JOIN sector_info ON sector = sector");
  ASSERT_TRUE(plan.ok());
  QueryExecutor exec(&catalog_);
  EXPECT_FALSE(exec.Execute(*plan).ok());
}

TEST_F(QueryTest, GroupByAggregates) {
  Relation r = Run(
      "SELECT sector, COUNT(*) AS n, AVG(price) AS avg_price, "
      "MIN(price) AS lo, MAX(price) AS hi, SUM(price) AS total "
      "FROM stock GROUP BY sector ORDER BY sector");
  ASSERT_EQ(r.size(), 2u);
  // oil: XOM only.
  EXPECT_EQ(r.row(0)[0], Value::Str("oil"));
  EXPECT_EQ(r.row(0)[1], Value::Int(1));
  EXPECT_EQ(r.row(0)[2], Value::Real(55));
  // tech: IBM + HP.
  EXPECT_EQ(r.row(1)[0], Value::Str("tech"));
  EXPECT_EQ(r.row(1)[1], Value::Int(2));
  EXPECT_EQ(r.row(1)[2], Value::Real(51));
  EXPECT_EQ(r.row(1)[3], Value::Real(30));
  EXPECT_EQ(r.row(1)[4], Value::Real(72));
  EXPECT_EQ(r.row(1)[5], Value::Real(102));
}

TEST_F(QueryTest, GlobalAggregateOnEmptyInputYieldsOneRow) {
  Relation r = Run("SELECT COUNT(*) AS n FROM stock WHERE price > 1000");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.row(0)[0], Value::Int(0));
}

TEST_F(QueryTest, OrderByDescAndLimit) {
  Relation r = Run("SELECT name FROM stock ORDER BY price DESC LIMIT 2");
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.row(0)[0], Value::Str("IBM"));
  EXPECT_EQ(r.row(1)[0], Value::Str("XOM"));
}

TEST_F(QueryTest, ParseErrors) {
  EXPECT_FALSE(ParseSql("SELEKT * FROM stock").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM").ok());
  EXPECT_FALSE(ParseSql("SELECT name FROM stock WHERE").ok());
  EXPECT_FALSE(ParseSql("SELECT name, COUNT(*) FROM stock").ok());  // no GROUP BY
  EXPECT_FALSE(ParseSql("SELECT name FROM stock GROUP BY name").ok());  // no agg
  EXPECT_FALSE(ParseSql("SELECT * FROM stock trailing garbage ! !").ok());
  EXPECT_FALSE(ParseSql("SELECT 'unterminated FROM stock").ok());
}

TEST_F(QueryTest, ParseErrorsCarryCaretSpans) {
  // Diagnostics mirror the PTL front end: byte offset in the message plus a
  // caret rendering of the offending line underneath.
  Status s = ParseSql("SELECT name FROM stock WHERE price >").status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("at offset"), std::string::npos) << s.ToString();

  // "GROOP" parses as a bare table alias, so the parser trips over "BY".
  s = ParseSql("SELECT name FROM stock GROOP BY name").status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(
      s.message().find("unexpected trailing input 'BY' at offset 29"),
      std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("  SELECT name FROM stock GROOP BY name\n"
                             "                               ^~"),
            std::string::npos)
      << s.ToString();

  // The caret spans the whole offending token, not just its first byte.
  s = ParseSql("SELECT 'oops FROM stock").status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unterminated string literal at offset 7"),
            std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("^~~~"), std::string::npos) << s.ToString();
}

TEST_F(QueryTest, AsOfParsesIntoTheScanNode) {
  ASSERT_OK_AND_ASSIGN(QueryPtr plan,
                       ParseSql("SELECT name FROM stock AS OF 42"));
  EXPECT_EQ(plan->ToString(),
            "Project(name AS name)(Scan(stock AS OF 42))");
  // Alias and AS OF compose; the expression may be a parameter.
  ASSERT_OK_AND_ASSIGN(plan,
                       ParseSql("SELECT s.name FROM stock AS s AS OF $t "
                                "WHERE s.price > 10"));
  EXPECT_NE(plan->ToString().find("Scan(stock AS s AS OF $t)"),
            std::string::npos)
      << plan->ToString();
  // `AS OF` needs an expression.
  EXPECT_FALSE(ParseSql("SELECT name FROM stock AS OF").ok());
  // Executing without a version store attached is a clean error.
  ASSERT_OK_AND_ASSIGN(plan, ParseSql("SELECT * FROM stock AS OF 1"));
  QueryExecutor exec(&catalog_);
  EXPECT_EQ(exec.Execute(plan).status().code(), StatusCode::kInvalidArgument);
}

// Serves every AS OF read from the live catalog and counts which entry
// point the executor used.
class CountingAsOf : public AsOfProvider {
 public:
  explicit CountingAsOf(const Catalog* catalog) : catalog_(catalog) {}
  bool IsVersioned(const std::string&) const override { return true; }
  Result<Relation> TableAsOf(const std::string& table,
                             Timestamp) const override {
    ++scans;
    PTLDB_ASSIGN_OR_RETURN(const Table* t, catalog_->GetTable(table));
    return t->Snapshot();
  }
  Result<Relation> TableAsOfKey(const std::string& table, Timestamp t,
                                const std::string& column,
                                const Value& key) const override {
    ++keyed;
    last_column = column;
    last_key = key;
    return TableAsOf(table, t);  // a superset; the executor re-filters
  }
  mutable int scans = 0;
  mutable int keyed = 0;
  mutable std::string last_column;
  mutable Value last_key;

 private:
  const Catalog* catalog_;
};

TEST_F(QueryTest, AsOfPointLookupsUseTheKeyedProviderRead) {
  CountingAsOf provider(&catalog_);
  auto run = [&](std::string_view sql, std::optional<Timestamp> at) {
    auto plan = ParseSql(sql);
    PTLDB_CHECK_OK(plan.status());
    QueryExecutor exec(&catalog_, &provider, at);
    auto rel = exec.Execute(*plan);
    PTLDB_CHECK_OK(rel.status());
    return std::move(rel).value();
  };
  // Executor-wide default time and an inline AS OF, with and without alias.
  EXPECT_EQ(run("SELECT price FROM stock WHERE name = 'IBM'", 5).size(), 1u);
  EXPECT_EQ(run("SELECT s.price FROM stock AS s AS OF 5 WHERE s.name = 'HP'",
                std::nullopt)
                .size(),
            1u);
  EXPECT_EQ(provider.keyed, 2);
  EXPECT_EQ(provider.last_column, "name");
  EXPECT_EQ(provider.last_key, Value::Str("HP"));
  // The provider may answer with more than the key: the predicate still
  // filters (only IBM survives), residual conjuncts included.
  Relation r = run("SELECT name FROM stock WHERE name = 'IBM' AND price > 50", 5);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.row(0)[0], Value::Str("IBM"));
  EXPECT_EQ(run("SELECT name FROM stock WHERE name = 'IBM' AND price > 100", 5)
                .size(),
            0u);
  // A non-key column scans, and so does a numeric probe of another type
  // than the key column (SQL equality coerces numerics; the index matches
  // by identity).
  const int keyed_before = provider.keyed;
  EXPECT_EQ(run("SELECT * FROM stock WHERE price = 72", 5).size(), 1u);
  EXPECT_EQ(run("SELECT * FROM stock WHERE name = 7", 5).size(), 0u);
  EXPECT_EQ(provider.keyed, keyed_before);
  EXPECT_EQ(provider.scans, provider.keyed + 2);
}

TEST_F(QueryTest, MissingTableIsExecutionError) {
  ASSERT_OK_AND_ASSIGN(QueryPtr plan, ParseSql("SELECT * FROM ghost"));
  QueryExecutor exec(&catalog_);
  EXPECT_EQ(exec.Execute(plan).status().code(), StatusCode::kNotFound);
}

TEST_F(QueryTest, SelectDistinct) {
  Relation r = Run("SELECT DISTINCT sector FROM stock");
  EXPECT_EQ(r.size(), 2u);  // tech, oil
  // Without DISTINCT duplicates remain.
  EXPECT_EQ(Run("SELECT sector FROM stock").size(), 3u);
  // DISTINCT * over a keyed table is a no-op.
  EXPECT_EQ(Run("SELECT DISTINCT * FROM stock").size(), 3u);
  // Composes with ORDER BY and LIMIT.
  Relation ordered =
      Run("SELECT DISTINCT sector FROM stock ORDER BY sector LIMIT 1");
  ASSERT_EQ(ordered.size(), 1u);
  EXPECT_EQ(ordered.row(0)[0], Value::Str("oil"));
}

TEST_F(QueryTest, PointLookupFastPathMatchesScanSemantics) {
  // `stock` has PK (name): these filters take the index path and must behave
  // exactly like a scan.
  Relation r = Run("SELECT * FROM stock WHERE name = 'IBM'");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.row(0)[1], Value::Real(72));
  // Absent key.
  EXPECT_EQ(Run("SELECT * FROM stock WHERE name = 'GHOST'").size(), 0u);
  // Reversed sides.
  EXPECT_EQ(Run("SELECT * FROM stock WHERE 'IBM' = name").size(), 1u);
  // Compound predicate: the residual conjunct still applies.
  EXPECT_EQ(Run("SELECT * FROM stock WHERE name = 'IBM' AND price > 100").size(),
            0u);
  EXPECT_EQ(Run("SELECT * FROM stock WHERE name = 'IBM' AND price > 50").size(),
            1u);
  // Parameterized key.
  ParamMap params{{"n", Value::Str("HP")}};
  EXPECT_EQ(Run("SELECT * FROM stock WHERE name = $n", &params).size(), 1u);
  // With a scan alias.
  EXPECT_EQ(Run("SELECT * FROM stock AS s WHERE s.name = 'XOM'").size(), 1u);
  // Equality on a non-key column still scans (sector_info has no PK).
  EXPECT_EQ(Run("SELECT * FROM sector_info WHERE sector = 'tech'").size(), 1u);
}

TEST_F(QueryTest, PlanToStringIsStable) {
  ASSERT_OK_AND_ASSIGN(QueryPtr plan,
                       ParseSql("SELECT name FROM stock WHERE price >= 300"));
  EXPECT_EQ(plan->ToString(),
            "Project(name AS name)(Filter((price >= 300))(Scan(stock)))");
}

TEST(SqlExprTest, ParsePrecedence) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, ParseSqlExpr("1 + 2 * 3 = 7"));
  EXPECT_EQ(e->ToString(), "((1 + (2 * 3)) = 7)");
  ASSERT_OK_AND_ASSIGN(e, ParseSqlExpr("NOT a AND b OR c"));
  EXPECT_EQ(e->ToString(), "((NOT (a) AND b) OR c)");
}

}  // namespace
}  // namespace ptldb::db

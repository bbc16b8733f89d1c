// Tests for the Database facade: transactions, undo, events, history, and
// the commit-attempt listener protocol.

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/strings.h"
#include "db/database.h"
#include "testutil.h"

namespace ptldb::db {
namespace {

class RecordingListener : public Database::Listener {
 public:
  Status OnCommitAttempt(const event::SystemState& prospective,
                         int64_t txn) override {
    attempts.push_back(txn);
    last_prospective = prospective;
    return veto ? Status::ConstraintViolation("vetoed by test") : Status::OK();
  }
  void OnStateAppended(const event::SystemState& state) override {
    states.push_back(state);
  }

  bool veto = false;
  std::vector<int64_t> attempts;
  std::vector<event::SystemState> states;
  event::SystemState last_prospective;
};

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() : db_(&clock_) {
    PTLDB_CHECK_OK(db_.CreateTable(
        "stock",
        Schema({{"name", ValueType::kString}, {"price", ValueType::kDouble}}),
        {"name"}));
    db_.SetListener(&listener_);
  }

  size_t StockCount() {
    auto rel = db_.QuerySql("SELECT * FROM stock");
    PTLDB_CHECK(rel.ok());
    return rel->size();
  }

  SimClock clock_;
  Database db_;
  RecordingListener listener_;
};

TEST_F(DatabaseTest, CommitAppliesAndEmitsEvents) {
  clock_.Set(10);
  ASSERT_OK_AND_ASSIGN(int64_t txn, db_.Begin());
  ASSERT_OK(db_.Insert(txn, "stock", {Value::Str("IBM"), Value::Real(72)}));
  ASSERT_OK(db_.Commit(txn));

  EXPECT_EQ(StockCount(), 1u);
  ASSERT_EQ(db_.history().size(), 2u);  // begin state + commit state
  ASSERT_EQ(listener_.states.size(), 2u);
  const event::SystemState& commit = listener_.states[1];
  EXPECT_EQ(commit.seq, 1u);
  EXPECT_TRUE(commit.HasEvent(event::kAttemptsToCommitEvent, {Value::Int(txn)}));
  EXPECT_TRUE(commit.HasEvent(event::kCommitEvent, {Value::Int(txn)}));
  EXPECT_TRUE(commit.HasEvent(event::kInsertEvent, {Value::Str("stock")}));
  EXPECT_TRUE(commit.IsCommitPoint());
  EXPECT_EQ(listener_.attempts.size(), 1u);
}

TEST_F(DatabaseTest, AbortRollsBackInserts) {
  ASSERT_OK_AND_ASSIGN(int64_t txn, db_.Begin());
  ASSERT_OK(db_.Insert(txn, "stock", {Value::Str("IBM"), Value::Real(72)}));
  EXPECT_EQ(StockCount(), 1u);  // transaction reads its own writes
  ASSERT_OK(db_.Abort(txn));
  EXPECT_EQ(StockCount(), 0u);
  ASSERT_FALSE(listener_.states.empty());
  EXPECT_TRUE(listener_.states.back().HasEvent(event::kAbortEvent));
  EXPECT_TRUE(listener_.attempts.empty());
}

TEST_F(DatabaseTest, AbortRollsBackAnIntWidenedIntoADoubleColumn) {
  // The table stores 72 as 72.0; the undo record must name the stored row.
  ASSERT_OK_AND_ASSIGN(int64_t txn, db_.Begin());
  ASSERT_OK(db_.Insert(txn, "stock", {Value::Str("IBM"), Value::Int(72)}));
  ASSERT_OK(db_.Abort(txn));
  EXPECT_EQ(StockCount(), 0u);
}

TEST_F(DatabaseTest, PlanCacheParsesEachTextOnceAndStaysBounded) {
  ASSERT_OK(db_.InsertRow("stock", {Value::Str("IBM"), Value::Real(72)}));
  const size_t base = db_.plan_cache_size();
  // One text with different $params is one plan.
  for (const char* name : {"IBM", "HP", "IBM"}) {
    ParamMap params{{"n", Value::Str(name)}};
    ASSERT_OK(db_.QuerySql("SELECT price FROM stock WHERE name = $n", &params)
                  .status());
  }
  EXPECT_EQ(db_.plan_cache_size(), base + 1);
  // UpdateRows caches its WHERE and SET expressions.
  ASSERT_OK(db_.UpdateRows("stock", {{"price", "price + 1"}}, "name = 'IBM'")
                .status());
  ASSERT_OK(db_.UpdateRows("stock", {{"price", "price + 1"}}, "name = 'IBM'")
                .status());
  EXPECT_EQ(db_.plan_cache_size(), base + 3);
  // A text that fails to parse is reported on every call, never cached.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(db_.QuerySql("SELEC price FROM stock").status().code(),
              StatusCode::kParseError);
    EXPECT_EQ(db_.DeleteRows("stock", "price >").status().code(),
              StatusCode::kParseError);
  }
  EXPECT_EQ(db_.plan_cache_size(), base + 3);
  // Past the bound the least recently used plans go.
  for (size_t i = 0; i < Database::kPlanCacheCapacity + 10; ++i) {
    ASSERT_OK(db_.QuerySql(StrCat("SELECT price + ", i, " FROM stock")).status());
    EXPECT_LE(db_.plan_cache_size(), Database::kPlanCacheCapacity);
  }
  EXPECT_EQ(db_.plan_cache_size(), Database::kPlanCacheCapacity);
}

TEST_F(DatabaseTest, CachedPlansSurviveDdl) {
  // Plans are unbound: names resolve at execution, so a table dropped and
  // recreated with another shape answers from the same cached text.
  const std::string sql = "SELECT * FROM quote WHERE sym = 'IBM'";
  ASSERT_OK(db_.CreateTable(
      "quote", Schema({{"sym", ValueType::kString}, {"px", ValueType::kInt64}}),
      {"sym"}));
  ASSERT_OK(db_.InsertRow("quote", {Value::Str("IBM"), Value::Int(1)}));
  ASSERT_OK_AND_ASSIGN(Relation before, db_.QuerySql(sql));
  EXPECT_EQ(before.schema().num_columns(), 2u);
  ASSERT_OK(db_.catalog().DropTable("quote"));
  EXPECT_FALSE(db_.QuerySql(sql).ok());  // the cached plan meets no table
  ASSERT_OK(db_.CreateTable(
      "quote", Schema({{"venue", ValueType::kString},
                       {"sym", ValueType::kString},
                       {"bid", ValueType::kDouble}})));
  ASSERT_OK(db_.InsertRow(
      "quote", {Value::Str("X"), Value::Str("IBM"), Value::Real(2)}));
  ASSERT_OK_AND_ASSIGN(Relation after, db_.QuerySql(sql));
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after.schema().column(2).name, "bid");
  EXPECT_EQ(after.row(0)[2], Value::Real(2));
}

TEST_F(DatabaseTest, VetoAbortsAndRollsBack) {
  listener_.veto = true;
  ASSERT_OK_AND_ASSIGN(int64_t txn, db_.Begin());
  ASSERT_OK(db_.Insert(txn, "stock", {Value::Str("IBM"), Value::Real(72)}));
  Status s = db_.Commit(txn);
  EXPECT_EQ(s.code(), StatusCode::kTransactionAborted);
  EXPECT_EQ(StockCount(), 0u);
  ASSERT_FALSE(listener_.states.empty());
  EXPECT_TRUE(listener_.states.back().HasEvent(event::kAbortEvent));
  // The prospective state showed the commit the listener could veto.
  EXPECT_TRUE(
      listener_.last_prospective.HasEvent(event::kAttemptsToCommitEvent));
}

TEST_F(DatabaseTest, UpdateAndDeleteWithUndo) {
  ASSERT_OK(db_.InsertRow("stock", {Value::Str("IBM"), Value::Real(72)}));
  ASSERT_OK(db_.InsertRow("stock", {Value::Str("HP"), Value::Real(30)}));

  ASSERT_OK_AND_ASSIGN(int64_t txn, db_.Begin());
  ASSERT_OK_AND_ASSIGN(
      size_t updated,
      db_.Update(txn, "stock", {{"price", "price + 1"}}, "name = 'IBM'"));
  EXPECT_EQ(updated, 1u);
  ASSERT_OK_AND_ASSIGN(size_t deleted, db_.Delete(txn, "stock", "name = 'HP'"));
  EXPECT_EQ(deleted, 1u);
  EXPECT_EQ(StockCount(), 1u);
  ASSERT_OK(db_.Abort(txn));

  // Both changes rolled back.
  EXPECT_EQ(StockCount(), 2u);
  ASSERT_OK_AND_ASSIGN(Relation r,
                       db_.QuerySql("SELECT price FROM stock WHERE name = 'IBM'"));
  EXPECT_EQ(r.row(0)[0], Value::Real(72));
}

TEST_F(DatabaseTest, TimestampsStrictlyIncreaseEvenIfClockStalls) {
  // Clock stays at 0 the whole time.
  ASSERT_OK(db_.InsertRow("stock", {Value::Str("A"), Value::Real(1)}));
  ASSERT_OK(db_.InsertRow("stock", {Value::Str("B"), Value::Real(2)}));
  const std::vector<event::SystemState>& states = listener_.states;
  ASSERT_EQ(states.size(), db_.history().size());
  for (size_t i = 1; i < states.size(); ++i) {
    EXPECT_EQ(states[i].seq, i);
    EXPECT_GT(states[i].time, states[i - 1].time);
  }
  EXPECT_EQ(db_.history().last_time(), states.back().time);
}

TEST_F(DatabaseTest, RaiseEventAppendsState) {
  ASSERT_OK(db_.RaiseEvent(event::Event{"login", {Value::Str("alice")}}));
  EXPECT_EQ(db_.history().size(), 1u);
  ASSERT_EQ(listener_.states.size(), 1u);
  EXPECT_TRUE(listener_.states.back().HasEvent("login", {Value::Str("alice")}));
}

TEST_F(DatabaseTest, UnknownTransactionIsError) {
  EXPECT_FALSE(db_.Commit(999).ok());
  EXPECT_FALSE(db_.Abort(999).ok());
  EXPECT_FALSE(db_.Insert(999, "stock", {Value::Str("X"), Value::Real(1)}).ok());
}

TEST_F(DatabaseTest, FailedAutoInsertLeavesCleanState) {
  // Type error in a single-statement insert: auto-transaction aborts.
  Status s = db_.InsertRow("stock", {Value::Int(3), Value::Real(1)});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(StockCount(), 0u);
  ASSERT_FALSE(listener_.states.empty());
  EXPECT_TRUE(listener_.states.back().HasEvent(event::kAbortEvent));
}

TEST_F(DatabaseTest, DeleteRowsConvenience) {
  ASSERT_OK(db_.InsertRow("stock", {Value::Str("IBM"), Value::Real(72)}));
  ASSERT_OK_AND_ASSIGN(size_t n, db_.DeleteRows("stock", "price > 50"));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(StockCount(), 0u);
}

TEST(HistoryTest, EventFactoriesAndMatching) {
  event::SystemState s;
  s.events = {event::TransactionCommit(7),
              event::Event{"insert", {Value::Str("t"), Value::Int(1)}}};
  EXPECT_TRUE(s.HasEvent("commit"));
  EXPECT_TRUE(s.HasEvent("commit", {Value::Int(7)}));
  EXPECT_FALSE(s.HasEvent("commit", {Value::Int(8)}));
  EXPECT_TRUE(s.HasEvent("insert", {Value::Str("t")}));  // prefix match
  EXPECT_FALSE(s.HasEvent("delete"));
  EXPECT_TRUE(s.IsCommitPoint());
}

TEST(HistoryTest, AppendReturnsTheStateAndKeepsOnlyThePosition) {
  event::History h;
  event::SystemState first = h.Append(5, {event::TransactionBegin(1)});
  EXPECT_EQ(first.seq, 0u);
  EXPECT_EQ(first.time, 5);
  event::SystemState second = h.Append(9, {event::TransactionCommit(1)});
  EXPECT_EQ(second.seq, 1u);
  EXPECT_TRUE(second.IsCommitPoint());
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.last_time(), 9);

  // A checkpoint restore continues the global numbering.
  h.Reset(100, 50);
  EXPECT_EQ(h.size(), 100u);
  EXPECT_EQ(h.base_seq(), 100u);
  EXPECT_EQ(h.Append(51, {}).seq, 100u);
}

TEST(HistoryTest, InvariantChecksFire) {
  event::History h;
  (void)h.Append(10, {});
  EXPECT_DEATH((void)h.Append(10, {}), "strictly increasing");
  EXPECT_DEATH((void)h.Append(11, {event::TransactionCommit(1),
                                   event::TransactionCommit(2)}),
               "at most one transaction commit");
}

}  // namespace
}  // namespace ptldb::db

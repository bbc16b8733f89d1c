// Integration tests for the rule engine (the temporal component): triggers,
// integrity constraints, rule families, the executed machinery, the event
// filter, and §6.1.1 rewriting vs direct aggregate evaluation.

#include <gtest/gtest.h>

#include "common/codec.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "rules/engine.h"
#include "testutil.h"

namespace ptldb::rules {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : db_(&clock_), engine_(&db_) {
    PTLDB_CHECK_OK(db_.CreateTable(
        "stock",
        db::Schema({{"name", ValueType::kString},
                    {"price", ValueType::kDouble}}),
        {"name"}));
    PTLDB_CHECK_OK(engine_.queries().Register(
        "price", "SELECT price FROM stock WHERE name = $sym", {"sym"}));
    PTLDB_CHECK_OK(db_.InsertRow("stock", {Value::Str("IBM"), Value::Real(40)}));
    PTLDB_CHECK_OK(db_.InsertRow("stock", {Value::Str("HP"), Value::Real(20)}));
  }

  // Commits a price update inside its own transaction, advancing the clock.
  void SetPrice(const std::string& name, double price, Timestamp advance = 1) {
    clock_.Advance(advance);
    db::ParamMap params{{"p", Value::Real(price)}, {"n", Value::Str(name)}};
    auto n = db_.UpdateRows("stock", {{"price", "$p"}}, "name = $n", &params);
    PTLDB_CHECK(n.ok());
  }

  ActionFn CountAction(int* counter) {
    return [counter](ActionContext&) -> Status {
      ++*counter;
      return Status::OK();
    };
  }

  void ExpectNoErrors() {
    for (const Status& s : engine_.TakeErrors()) {
      ADD_FAILURE() << s.ToString();
    }
  }

  SimClock clock_;
  db::Database db_;
  RuleEngine engine_;
};

TEST_F(EngineTest, SimpleTriggerFiresOnConditionEdge) {
  int fired = 0;
  ASSERT_OK(engine_.AddTrigger("overpriced", "price('IBM') > 50",
                               CountAction(&fired)));
  SetPrice("IBM", 45);
  EXPECT_EQ(fired, 0);
  SetPrice("IBM", 55);
  // The condition holds at the commit state (several states per transaction
  // share it being true: the condition is level-triggered per state).
  EXPECT_GT(fired, 0);
  ExpectNoErrors();
}

TEST_F(EngineTest, PaperSharpIncreaseTrigger) {
  int fired = 0;
  ASSERT_OK(engine_.AddTrigger(
      "sharp_increase",
      "[t := time][x := price('IBM')] "
      "PREVIOUSLY (price('IBM') <= 0.5 * x AND time >= t - 10)",
      CountAction(&fired)));
  SetPrice("IBM", 41, 1);
  SetPrice("IBM", 43, 1);
  EXPECT_EQ(fired, 0);
  SetPrice("IBM", 90, 1);  // more than doubled within 10 ticks
  EXPECT_GT(fired, 0);
  ExpectNoErrors();
}

TEST_F(EngineTest, IntegrityConstraintAbortsViolatingTransaction) {
  // Constraint: IBM may never be priced above 100.
  ASSERT_OK(engine_.AddIntegrityConstraint("cap", "price('IBM') <= 100"));
  clock_.Advance(1);
  ASSERT_OK_AND_ASSIGN(int64_t txn, db_.Begin());
  db::ParamMap params{{"p", Value::Real(150)}};
  ASSERT_OK(db_.Update(txn, "stock", {{"price", "$p"}}, "name = 'IBM'", &params)
                .status());
  Status s = db_.Commit(txn);
  EXPECT_EQ(s.code(), StatusCode::kTransactionAborted);
  EXPECT_NE(s.message().find("cap"), std::string::npos);
  // Rolled back.
  ASSERT_OK_AND_ASSIGN(db::Relation r,
                       db_.QuerySql("SELECT price FROM stock WHERE name = 'IBM'"));
  EXPECT_EQ(r.row(0)[0], Value::Real(40));
  EXPECT_EQ(engine_.stats().ic_violations, 1u);

  // A conforming transaction commits fine afterwards.
  SetPrice("IBM", 90);
  ASSERT_OK_AND_ASSIGN(r, db_.QuerySql("SELECT price FROM stock WHERE name = 'IBM'"));
  EXPECT_EQ(r.row(0)[0], Value::Real(90));
  ExpectNoErrors();
}

TEST_F(EngineTest, TemporalIntegrityConstraint) {
  // Temporal constraint: the price must never drop below half of any value
  // it had within the last 100 ticks (no crash allowed).
  ASSERT_OK(engine_.AddIntegrityConstraint(
      "no_crash",
      "NOT ([x := price('IBM')] "
      "WITHIN(price('IBM') >= 2 * x AND price('IBM') > 0, 100))"));
  SetPrice("IBM", 60);
  clock_.Advance(1);
  // Halving the price violates the temporal constraint.
  ASSERT_OK_AND_ASSIGN(int64_t txn, db_.Begin());
  db::ParamMap params{{"p", Value::Real(20)}};
  ASSERT_OK(db_.Update(txn, "stock", {{"price", "$p"}}, "name = 'IBM'", &params)
                .status());
  EXPECT_EQ(db_.Commit(txn).code(), StatusCode::kTransactionAborted);
  // Gentle decline is fine.
  SetPrice("IBM", 40);
  ASSERT_OK_AND_ASSIGN(db::Relation r,
                       db_.QuerySql("SELECT price FROM stock WHERE name = 'IBM'"));
  EXPECT_EQ(r.row(0)[0], Value::Real(40));
  ExpectNoErrors();
}

TEST_F(EngineTest, RuleFamilyInstantiatesPerDomainTuple) {
  std::vector<std::string> fired_for;
  ASSERT_OK(engine_.AddTriggerFamily(
      "cheap", "SELECT name FROM stock", {"sym"}, "price(sym) < 25",
      [&fired_for](ActionContext& ctx) -> Status {
        fired_for.push_back(ctx.param("sym").AsString());
        return Status::OK();
      }));
  SetPrice("HP", 24);  // HP < 25, IBM not
  ASSERT_FALSE(fired_for.empty());
  for (const std::string& sym : fired_for) EXPECT_EQ(sym, "HP");
  EXPECT_GE(engine_.stats().instances_created, 2u);

  // A new stock joins the domain and its instance starts evaluating.
  fired_for.clear();
  clock_.Advance(1);
  ASSERT_OK(db_.InsertRow("stock", {Value::Str("SUN"), Value::Real(10)}));
  bool sun_fired = false;
  for (const std::string& sym : fired_for) sun_fired |= (sym == "SUN");
  EXPECT_TRUE(sun_fired);
  ExpectNoErrors();
}

TEST_F(EngineTest, ExecutedRelationAndEvent) {
  int fired = 0;
  ASSERT_OK(engine_.AddTrigger("watch", "price('IBM') > 50",
                               CountAction(&fired)));
  int follow = 0;
  // §7 pattern: react to the execution of another rule.
  ASSERT_OK(engine_.AddTrigger("follow", "@executed('watch')",
                               CountAction(&follow),
                               RuleOptions{.record_execution = false}));
  SetPrice("IBM", 60);
  EXPECT_GT(fired, 0);
  EXPECT_GT(follow, 0);
  // The execution is queryable.
  ASSERT_OK_AND_ASSIGN(
      db::Relation r,
      db_.QuerySql("SELECT rule, t FROM __executed WHERE rule = 'watch'"));
  EXPECT_GE(r.size(), 1u);
  std::vector<Firing> firings = engine_.TakeFirings();
  ASSERT_FALSE(firings.empty());
  EXPECT_EQ(firings[0].rule, "watch");
  ExpectNoErrors();
}

TEST_F(EngineTest, CompositeActionViaExecutedFamily) {
  // §7: A2 runs (at least) 5 ticks after A1, via a family over __executed.
  int a1 = 0, a2 = 0;
  ASSERT_OK(engine_.AddTrigger(
      "r1", "price('IBM') > 50",
      [&a1](ActionContext&) -> Status {
        ++a1;
        return Status::OK();
      }));
  ASSERT_OK(engine_.AddTriggerFamily(
      "r2", "SELECT t FROM __executed WHERE rule = 'r1'", {"t0"},
      "time >= $t0 + 5",
      [&a2](ActionContext&) -> Status {
        ++a2;
        return Status::OK();
      },
      RuleOptions{.record_execution = false}));
  SetPrice("IBM", 60);
  int a1_after_first = a1;
  EXPECT_GT(a1_after_first, 0);
  EXPECT_EQ(a2, 0);  // too early
  // Time passes; some unrelated update drives evaluation.
  SetPrice("HP", 21, /*advance=*/10);
  EXPECT_GT(a2, 0);
  ExpectNoErrors();
}

TEST_F(EngineTest, EventFilterSkipsIrrelevantStates) {
  int fired = 0;
  ASSERT_OK(engine_.AddTrigger("on_login", "@login('bob')",
                               CountAction(&fired),
                               RuleOptions{.event_filtered = true}));
  uint64_t before = engine_.stats().steps_skipped_by_filter;
  SetPrice("IBM", 45);  // no login events: all states skipped for this rule
  EXPECT_GT(engine_.stats().steps_skipped_by_filter, before);
  EXPECT_EQ(fired, 0);
  clock_.Advance(1);
  ASSERT_OK(db_.RaiseEvent(event::Event{"login", {Value::Str("bob")}}));
  EXPECT_EQ(fired, 1);
  ExpectNoErrors();
}

TEST_F(EngineTest, EventFilterRejectsLasttime) {
  EXPECT_FALSE(engine_
                   .AddTrigger("bad", "LASTTIME @login('bob')", nullptr,
                               RuleOptions{.event_filtered = true})
                   .ok());
}

TEST_F(EngineTest, RewriteModeMatchesDirectMode) {
  // The §6.1.1 construction and the direct machines must observe identical
  // aggregate values. Track both rules' firing sequences over a price path.
  std::vector<int> direct_firings, rewrite_firings;
  const char* condition =
      "avg(price('IBM'); @start_window; @sample) > 50";
  ASSERT_OK(engine_.AddTrigger(
      "direct", condition,
      [&direct_firings](ActionContext&) -> Status {
        direct_firings.push_back(1);
        return Status::OK();
      },
      RuleOptions{.aggregate_mode = AggregateMode::kDirect,
                  .record_execution = false}));
  ASSERT_OK(engine_.AddTrigger(
      "rewritten", condition,
      [&rewrite_firings](ActionContext&) -> Status {
        rewrite_firings.push_back(1);
        return Status::OK();
      },
      RuleOptions{.aggregate_mode = AggregateMode::kRewrite,
                  .record_execution = false}));

  clock_.Advance(1);
  ASSERT_OK(db_.RaiseEvent(event::Event{"start_window", {}}));
  double prices[] = {60, 70, 20, 90, 55, 10, 80};
  for (double p : prices) {
    SetPrice("IBM", p);
    clock_.Advance(1);
    ASSERT_OK(db_.RaiseEvent(event::Event{"sample", {}}));
  }
  EXPECT_EQ(direct_firings.size(), rewrite_firings.size());
  EXPECT_FALSE(direct_firings.empty());
  // The auxiliary item is a real, queryable table.
  ASSERT_OK_AND_ASSIGN(db::Relation aux,
                       db_.QuerySql("SELECT cnt FROM __agg_rewritten_0"));
  ASSERT_EQ(aux.size(), 1u);
  EXPECT_EQ(aux.row(0)[0], Value::Int(7));
  ExpectNoErrors();
}

TEST_F(EngineTest, DeletedAggregateRowIsReportedNotReadOutOfBounds) {
  // The rewritten aggregate's item is an ordinary table, so SQL can delete
  // its one row. Both readers of the row, the accumulate system rule and the
  // item's computed query, must then report an error naming the table.
  ASSERT_OK(engine_.AddTrigger(
      "rewritten", "avg(price('IBM'); @start_window; @sample) > 50", nullptr,
      RuleOptions{.aggregate_mode = AggregateMode::kRewrite,
                  .record_execution = false}));
  clock_.Advance(1);
  ASSERT_OK(db_.RaiseEvent(event::Event{"start_window", {}}));
  ExpectNoErrors();
  ASSERT_OK(db_.DeleteRows("__agg_rewritten_0", "TRUE").status());
  clock_.Advance(1);
  ASSERT_OK(db_.RaiseEvent(event::Event{"sample", {}}));
  std::vector<Status> errors = engine_.TakeErrors();
  ASSERT_FALSE(errors.empty());
  for (const Status& s : errors) {
    EXPECT_NE(s.message().find("'__agg_rewritten_0' holds 0 rows"),
              std::string::npos)
        << s.ToString();
  }
}

TEST_F(EngineTest, WindowAggregateTrigger) {
  // The intro's moving average condition.
  int fired = 0;
  ASSERT_OK(engine_.AddTrigger("moving_avg", "wavg(price('IBM'), 20) > 50",
                               CountAction(&fired)));
  SetPrice("IBM", 80, 5);
  EXPECT_GT(fired, 0);
  ExpectNoErrors();
}

TEST_F(EngineTest, UnknownQueryRejectedAtRegistration) {
  Status s = engine_.AddTrigger("bad", "ghost('X') > 0", nullptr);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, DuplicateRuleNameRejected) {
  ASSERT_OK(engine_.AddTrigger("dup", "price('IBM') > 0", nullptr));
  EXPECT_EQ(engine_.AddTrigger("dup", "price('IBM') > 0", nullptr).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(EngineTest, RemoveRuleStopsFiring) {
  int fired = 0;
  ASSERT_OK(engine_.AddTrigger("tmp", "price('IBM') > 50",
                               CountAction(&fired)));
  ASSERT_OK(engine_.RemoveRule("tmp"));
  SetPrice("IBM", 60);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(engine_.RemoveRule("tmp").code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, ActionErrorIsReportedNotFatal) {
  ASSERT_OK(engine_.AddTrigger("failing", "price('IBM') > 50",
                               [](ActionContext&) -> Status {
                                 return Status::Internal("kaboom");
                               }));
  SetPrice("IBM", 60);
  std::vector<Status> errors = engine_.TakeErrors();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].message().find("kaboom"), std::string::npos);
}

TEST_F(EngineTest, NullQueryValueForMissingRow) {
  int fired = 0;
  // GHOST does not exist: price('GHOST') is NULL, comparisons are false.
  ASSERT_OK(engine_.AddTrigger("ghost", "price('GHOST') > 0",
                               CountAction(&fired)));
  SetPrice("IBM", 45);
  EXPECT_EQ(fired, 0);
  ExpectNoErrors();
}

TEST_F(EngineTest, BatchedInvocationDelaysButDoesNotMissFirings) {
  int fired = 0;
  ASSERT_OK(engine_.AddTrigger("batched", "price('IBM') > 50",
                               CountAction(&fired),
                               rules::RuleOptions{.record_execution = false}));
  engine_.SetBatching(64);  // far more states than this test produces
  SetPrice("IBM", 60);
  // The condition became true but evaluation is deferred.
  EXPECT_EQ(fired, 0);
  SetPrice("IBM", 40);
  SetPrice("IBM", 70);
  EXPECT_EQ(fired, 0);
  ASSERT_OK(engine_.Flush());
  // Both rising edges were recognized, just late (§8: "delayed, but not go
  // unrecognized").
  EXPECT_EQ(fired, 2);
  // Flushing twice is a no-op.
  ASSERT_OK(engine_.Flush());
  EXPECT_EQ(fired, 2);
  ExpectNoErrors();
}

TEST_F(EngineTest, BatchFlushesAutomaticallyAtBatchSize) {
  int fired = 0;
  ASSERT_OK(engine_.AddTrigger("batched", "price('IBM') > 50",
                               CountAction(&fired),
                               rules::RuleOptions{.record_execution = false}));
  engine_.SetBatching(3);
  // Each SetPrice produces two states (begin + commit): the second call
  // crosses the batch threshold and flushes inline.
  SetPrice("IBM", 60);
  SetPrice("IBM", 61);
  EXPECT_EQ(fired, 1);
  ExpectNoErrors();
}

TEST_F(EngineTest, BatchingCapturesPerStateQueryValues) {
  // The condition observes the price AT each state, not at flush time: a
  // spike that was later reverted must still fire.
  int fired = 0;
  ASSERT_OK(engine_.AddTrigger("spike", "price('IBM') > 100",
                               CountAction(&fired),
                               rules::RuleOptions{.record_execution = false}));
  engine_.SetBatching(1000);
  SetPrice("IBM", 150);  // spike...
  SetPrice("IBM", 40);   // ...reverted before any evaluation ran
  ASSERT_OK(engine_.Flush());
  EXPECT_EQ(fired, 1);
  ExpectNoErrors();
}

TEST_F(EngineTest, IntegrityConstraintsIgnoreBatching) {
  ASSERT_OK(engine_.AddIntegrityConstraint("cap", "price('IBM') <= 100"));
  engine_.SetBatching(1000);
  clock_.Advance(1);
  ASSERT_OK_AND_ASSIGN(int64_t txn, db_.Begin());
  db::ParamMap params{{"p", Value::Real(150)}};
  ASSERT_OK(db_.Update(txn, "stock", {{"price", "$p"}}, "name = 'IBM'", &params)
                .status());
  // The veto is synchronous even though triggers are batched.
  EXPECT_EQ(db_.Commit(txn).code(), StatusCode::kTransactionAborted);
  ExpectNoErrors();
}

TEST_F(EngineTest, DescribeRule) {
  ASSERT_OK(engine_.AddTrigger(
      "descr", "@tick AND price('IBM') > 50", nullptr));
  SetPrice("IBM", 60);
  ASSERT_OK_AND_ASSIGN(rules::RuleEngine::RuleInfo info,
                       engine_.Describe("descr"));
  EXPECT_EQ(info.name, "descr");
  EXPECT_NE(info.condition.find("price"), std::string::npos);
  EXPECT_FALSE(info.is_ic);
  EXPECT_EQ(info.num_instances, 1u);
  ASSERT_EQ(info.event_names.size(), 1u);
  EXPECT_EQ(info.event_names[0], "tick");
  EXPECT_GT(info.steps, 0u);
  EXPECT_FALSE(engine_.Describe("ghost").ok());
}

TEST_F(EngineTest, StatsAccumulate) {
  ASSERT_OK(engine_.AddTrigger("s", "price('IBM') > 1000", nullptr));
  SetPrice("IBM", 45);
  const EngineStats& st = engine_.stats();
  EXPECT_GT(st.states_processed, 0u);
  EXPECT_GT(st.rule_steps, 0u);
  EXPECT_GT(st.queries_evaluated, 0u);
}

TEST_F(EngineTest, ExplainRendersRuleAndRetainedState) {
  ASSERT_OK(engine_.AddTrigger(
      "sharp", "[t := time] PREVIOUSLY (price('IBM') > 10 AND time >= t - 5)",
      nullptr));
  ASSERT_OK(engine_.AddIntegrityConstraint("cap", "price('IBM') <= 1000"));
  SetPrice("IBM", 60);
  ASSERT_OK_AND_ASSIGN(std::string text, engine_.Explain("sharp"));
  EXPECT_NE(text.find("rule sharp"), std::string::npos);
  EXPECT_NE(text.find("condition:"), std::string::npos);
  EXPECT_NE(text.find("instance"), std::string::npos);
  EXPECT_NE(text.find("steps="), std::string::npos);
  EXPECT_NE(text.find("store_nodes="), std::string::npos);
  ASSERT_OK_AND_ASSIGN(std::string cap, engine_.Explain("cap"));
  EXPECT_NE(cap.find("[integrity constraint]"), std::string::npos);
  EXPECT_FALSE(engine_.Explain("ghost").ok());
  ExpectNoErrors();
}

TEST_F(EngineTest, StrictRegistrationRejectsUnboundedRules) {
  engine_.SetStrictRegistration(true);
  // Equality atoms do not subsume and there is no time guard: the retained
  // instance set grows without bound.
  Status s = engine_.AddTrigger(
      "leak", "[x := price('IBM')] PREVIOUSLY (price('IBM') = x)", nullptr);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("strict registration"), std::string::npos);
  EXPECT_NE(s.message().find("unbounded"), std::string::npos);
  EXPECT_NE(s.message().find("PTL001"), std::string::npos);
  // Rejection leaves nothing behind: the name is free, lookups fail.
  EXPECT_FALSE(engine_.Describe("leak").ok());
  ASSERT_OK(engine_.AddTrigger("leak", "price('IBM') > 50", nullptr));

  // Lint errors (a condition that can never fire) are also rejected.
  Status never = engine_.AddTrigger(
      "never", "[t := time] PREVIOUSLY (price('IBM') > 50 AND time >= t + 5)",
      nullptr);
  EXPECT_EQ(never.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(never.message().find("PTL002"), std::string::npos);

  // Bounded rules still register under strict mode.
  ASSERT_OK(engine_.AddTrigger("ok", "WITHIN(price('IBM') > 50, 5)", nullptr));
  engine_.SetStrictRegistration(false);
  ASSERT_OK(engine_.AddTrigger(
      "leak2", "[x := price('IBM')] PREVIOUSLY (price('IBM') = x)", nullptr));
}

TEST_F(EngineTest, DescribeReportsBoundednessAndLint) {
  ASSERT_OK(engine_.AddTrigger("win", "WITHIN(price('IBM') > 50, 5)", nullptr));
  ASSERT_OK(engine_.AddTrigger(
      "leak", "[x := price('IBM')] PREVIOUSLY (price('IBM') = x)", nullptr));
  ASSERT_OK_AND_ASSIGN(rules::RuleEngine::RuleInfo win, engine_.Describe("win"));
  EXPECT_EQ(win.boundedness, ptl::Boundedness::kTimeBounded);
  EXPECT_EQ(win.lint_diagnostics, 0u);
  ASSERT_OK_AND_ASSIGN(rules::RuleEngine::RuleInfo leak,
                       engine_.Describe("leak"));
  EXPECT_EQ(leak.boundedness, ptl::Boundedness::kUnbounded);
  EXPECT_EQ(leak.lint_diagnostics, 1u);
}

TEST_F(EngineTest, LintAccessorRendersReport) {
  ASSERT_OK(engine_.AddTrigger(
      "leak", "[x := price('IBM')] PREVIOUSLY (price('IBM') = x)", nullptr));
  ASSERT_OK_AND_ASSIGN(std::string text, engine_.Lint("leak"));
  EXPECT_NE(text.find("rule leak"), std::string::npos);
  EXPECT_NE(text.find("boundedness: unbounded"), std::string::npos);
  EXPECT_NE(text.find("PTL001"), std::string::npos);
  // The caret points into the original registration source.
  EXPECT_NE(text.find("^~"), std::string::npos);
  EXPECT_FALSE(engine_.Lint("ghost").ok());
}

TEST_F(EngineTest, RegistrationFoldsConstantSubformulas) {
  int fired = 0;
  ASSERT_OK(engine_.AddTrigger("folded", "1 = 1 AND price('IBM') > 50",
                               CountAction(&fired)));
  ASSERT_OK_AND_ASSIGN(rules::RuleEngine::RuleInfo info,
                       engine_.Describe("folded"));
  EXPECT_GT(info.folded_nodes, 0u);
  // The engine evaluates the folded condition; firing is unchanged.
  EXPECT_EQ(info.condition, "price(\"IBM\") > 50");
  SetPrice("IBM", 60);
  EXPECT_EQ(fired, 1);
}

TEST_F(EngineTest, SetLintFoldingOffKeepsConditionVerbatim) {
  engine_.SetLintFolding(false);
  ASSERT_OK(engine_.AddTrigger("raw", "1 = 1 AND price('IBM') > 50", nullptr));
  ASSERT_OK_AND_ASSIGN(rules::RuleEngine::RuleInfo info,
                       engine_.Describe("raw"));
  EXPECT_EQ(info.folded_nodes, 0u);
  EXPECT_NE(info.condition.find("1 = 1"), std::string::npos);
}

TEST_F(EngineTest, ExplainIncludesBoundednessLine) {
  ASSERT_OK(engine_.AddTrigger("win", "WITHIN(price('IBM') > 50, 5)", nullptr));
  ASSERT_OK_AND_ASSIGN(std::string text, engine_.Explain("win"));
  EXPECT_NE(text.find("boundedness: time-bounded"), std::string::npos);
}

// Metrics tests share the fixture but must detach the registry in TearDown:
// `metrics_` lives in the subclass and is destroyed before the engine (a base
// member), which publishes into it and unregisters its provider on
// destruction. The fixture constructor already processed a few states (table
// setup), so every test attaches mid-run.
class EngineMetricsTest : public EngineTest {
 protected:
  void SetUp() override { engine_.SetMetrics(&metrics_); }
  void TearDown() override { engine_.SetMetrics(nullptr); }
  Metrics metrics_;
};

// Registers a population that drives every EngineStats row above zero.
void AddCountingRules(RuleEngine& engine) {
  auto noop = [](ActionContext&) -> Status { return Status::OK(); };
  PTLDB_CHECK_OK(engine.AddTrigger("hot", "price('IBM') > 50", noop));
  PTLDB_CHECK_OK(engine.AddTrigger(
      "failing", "price('IBM') > 70",
      [](ActionContext&) -> Status { return Status::Internal("kaboom"); }));
  PTLDB_CHECK_OK(engine.AddTrigger("on_login", "@login('bob')", noop,
                                   RuleOptions{.event_filtered = true}));
  PTLDB_CHECK_OK(engine.AddTrigger("watch", "WITHIN(price('IBM') >= 1000, 16)",
                                   nullptr,
                                   RuleOptions{.record_execution = false}));
  PTLDB_CHECK_OK(engine.AddTriggerFamily("fam", "SELECT name FROM stock",
                                         {"n"}, "price('IBM') > 50", nullptr,
                                         RuleOptions{}));
  PTLDB_CHECK_OK(engine.AddIntegrityConstraint("cap", "price('IBM') <= 100"));
}

// Every kEngineStatRows row, read through a snapshot, equals stats(): the
// provider publishes lifetime totals.
void ExpectRowsMirrorStats(const MetricsSnapshot& snap, const EngineStats& st) {
  for (const StatRow<EngineStats>& row : kEngineStatRows) {
    auto it = snap.counters.find(row.name);
    ASSERT_NE(it, snap.counters.end()) << row.name;
    EXPECT_EQ(it->second, st.*row.member) << row.name;
  }
}

TEST_F(EngineMetricsTest, EveryStatRowMirrorsStats) {
  ASSERT_OK(engine_.SetThreads(2));
  engine_.SetCollectThreshold(64);
  AddCountingRules(engine_);
  for (int i = 0; i < 100; ++i) SetPrice("IBM", 40 + (i % 5) * 10);
  clock_.Advance(1);
  ASSERT_OK_AND_ASSIGN(int64_t txn, db_.Begin());
  db::ParamMap params{{"p", Value::Real(150)}};
  ASSERT_OK(
      db_.Update(txn, "stock", {{"price", "$p"}}, "name = 'IBM'", &params)
          .status());
  EXPECT_EQ(db_.Commit(txn).code(), StatusCode::kTransactionAborted);
  EXPECT_FALSE(engine_.TakeErrors().empty());
  for (const StatRow<EngineStats>& row : kEngineStatRows) {
    EXPECT_GT(engine_.stats().*row.member, 0u) << row.name;
  }

  // Attached mid-run: the counters are totals, not counts since attach.
  ExpectRowsMirrorStats(metrics_.TakeSnapshot(), engine_.stats());

  // Detached, then snapshotted: the detach published the final totals.
  SetPrice("IBM", 45);
  engine_.SetMetrics(nullptr);
  const EngineStats at_detach = engine_.stats();
  SetPrice("IBM", 55);
  ExpectRowsMirrorStats(metrics_.TakeSnapshot(), at_detach);

  // Restored from a checkpoint: the restored engine publishes the persisted
  // counts it took over, plus its own unpersisted ones.
  std::string dump;
  codec::Writer w(&dump);
  ASSERT_OK(engine_.SerializeRetainedState(&w));
  SimClock clock;
  db::Database db(&clock);
  Metrics metrics;
  RuleEngine restored(&db);
  ASSERT_OK(db.CreateTable("stock",
                           db::Schema({{"name", ValueType::kString},
                                       {"price", ValueType::kDouble}}),
                           {"name"}));
  ASSERT_OK(restored.queries().Register(
      "price", "SELECT price FROM stock WHERE name = $sym", {"sym"}));
  AddCountingRules(restored);
  restored.SetMetrics(&metrics);
  codec::Reader r(dump);
  ASSERT_OK(restored.RestoreRetainedState(&r));
  for (const StatRow<EngineStats>& row : kEngineStatRows) {
    if (row.kind != StatKind::kPersisted) continue;
    EXPECT_EQ(restored.stats().*row.member, engine_.stats().*row.member)
        << row.name;
  }
  ExpectRowsMirrorStats(metrics.TakeSnapshot(), restored.stats());
}

TEST_F(EngineMetricsTest, PhasesTimedAndGaugesPublished) {
  int fired = 0;
  ASSERT_OK(
      engine_.AddTrigger("hot", "price('IBM') > 50", CountAction(&fired)));
  SetPrice("IBM", 45);
  SetPrice("IBM", 60);
  SetPrice("IBM", 40);
  ExpectNoErrors();
  EXPECT_GT(fired, 0);
  // Phase latencies were timed.
  EXPECT_GT(metrics_.histogram("engine.step_ns").count(), 0u);
  EXPECT_GT(metrics_.histogram("engine.gather_ns").count(), 0u);
  EXPECT_GT(metrics_.histogram("engine.action_ns").count(), 0u);
  // The snapshot publishes per-rule derived gauges via the provider.
  std::string json = metrics_.ToJson();
  EXPECT_NE(json.find("\"rule.hot.steps\""), std::string::npos);
  EXPECT_NE(json.find("\"evaluator.store_nodes\""), std::string::npos);
  EXPECT_EQ(metrics_.gauge("rule.hot.fires").Get(),
            static_cast<int64_t>(fired));
}

TEST_F(EngineMetricsTest, LintGaugesPublished) {
  ASSERT_OK(engine_.AddTrigger(
      "leak", "[x := price('IBM')] PREVIOUSLY (price('IBM') = x)", nullptr));
  ASSERT_OK(engine_.AddTrigger("folded", "1 = 1 AND price('IBM') > 50",
                               nullptr));
  SetPrice("IBM", 60);
  std::string json = metrics_.ToJson();
  EXPECT_NE(json.find("\"rule.leak.boundedness\""), std::string::npos);
  EXPECT_EQ(metrics_.gauge("rule.leak.boundedness").Get(),
            static_cast<int64_t>(ptl::Boundedness::kUnbounded));
  EXPECT_EQ(metrics_.gauge("lint.unbounded_rules").Get(), 1);
  EXPECT_GT(metrics_.gauge("lint.folded_nodes").Get(), 0);
}

TEST_F(EngineTest, IcChecksAndViolationsCounted) {
  ASSERT_OK(engine_.AddIntegrityConstraint("cap", "price('IBM') <= 100"));
  SetPrice("IBM", 90);
  clock_.Advance(1);
  ASSERT_OK_AND_ASSIGN(int64_t txn, db_.Begin());
  db::ParamMap params{{"p", Value::Real(150)}};
  ASSERT_OK(
      db_.Update(txn, "stock", {{"price", "$p"}}, "name = 'IBM'", &params)
          .status());
  EXPECT_EQ(db_.Commit(txn).code(), StatusCode::kTransactionAborted);
  EXPECT_GT(engine_.stats().ic_checks, 0u);
  EXPECT_EQ(engine_.stats().ic_violations, 1u);
  ExpectNoErrors();
}

TEST_F(EngineTest, QueryMemoHitsCountedAcrossInstances) {
  // Both family instances evaluate the same ground query per state: the
  // second hit is answered from the per-pass memo.
  ASSERT_OK(engine_.AddTriggerFamily("fam", "SELECT name FROM stock", {"n"},
                                     "price('IBM') > 50", nullptr,
                                     RuleOptions{}));
  SetPrice("IBM", 60);
  ExpectNoErrors();
  EXPECT_GT(engine_.stats().query_memo_hits, 0u);
}

TEST_F(EngineTest, LongRunRetainedStateBoundedWithCollections) {
  engine_.SetCollectThreshold(64);
  ASSERT_OK(engine_.AddTrigger("watch", "WITHIN(price('IBM') >= 1000, 16)",
                               nullptr,
                               RuleOptions{.record_execution = false}));
  // Never violated, but its bounded operator does per-step bookkeeping. IC
  // evaluators only step on the commit-probe + resolved paths — historically
  // neither collected, so constraint node stores grew without bound.
  ASSERT_OK(engine_.AddIntegrityConstraint(
      "cap", "NOT WITHIN(price('IBM') >= 100000, 8)"));
  size_t max_store = 0;
  for (int i = 0; i < 400; ++i) {
    SetPrice("IBM", static_cast<double>((i % 7) * 100));
    ASSERT_OK_AND_ASSIGN(RuleEngine::RuleInfo watch, engine_.Describe("watch"));
    ASSERT_OK_AND_ASSIGN(RuleEngine::RuleInfo cap, engine_.Describe("cap"));
    max_store = std::max({max_store, watch.store_nodes, cap.store_nodes});
  }
  ExpectNoErrors();
  // Store size may overshoot the threshold by one step's allocations, never
  // by a multiple of the run length.
  EXPECT_LE(max_store, 256u);
  EXPECT_GT(engine_.stats().collections, 0u);
  ASSERT_OK_AND_ASSIGN(RuleEngine::RuleInfo cap, engine_.Describe("cap"));
  EXPECT_GT(cap.collections, 0u);  // the IC path itself collected
}

TEST_F(EngineMetricsTest, RetainedNodesGaugeMatchesDescribeAfterCollection) {
  // Golden accounting check: the per-rule `retained_nodes` gauge the snapshot
  // publishes and the live-node count Describe/Explain report must agree —
  // also after the collector has rewritten the node store.
  engine_.SetCollectThreshold(64);
  ASSERT_OK(engine_.AddTrigger("watch", "WITHIN(price('IBM') >= 1000, 16)",
                               nullptr,
                               RuleOptions{.record_execution = false}));
  for (int i = 0; i < 200; ++i) SetPrice("IBM", 40 + (i % 7));
  ExpectNoErrors();
  EXPECT_GT(engine_.stats().collections, 0u);

  std::string snapshot = metrics_.ToJson();  // refreshes derived gauges
  ASSERT_OK_AND_ASSIGN(json::Json doc, json::Parse(snapshot));
  ASSERT_OK_AND_ASSIGN(const json::Json* gauges, doc.Get("gauges"));
  const json::Json* retained = gauges->Find("rule.watch.retained_nodes");
  ASSERT_NE(retained, nullptr) << snapshot;
  ASSERT_OK_AND_ASSIGN(int64_t gauge_nodes, retained->AsInt64());

  ASSERT_OK_AND_ASSIGN(RuleEngine::RuleInfo info, engine_.Describe("watch"));
  EXPECT_EQ(gauge_nodes, static_cast<int64_t>(info.retained_nodes));
  // Explain renders the same number.
  ASSERT_OK_AND_ASSIGN(std::string text, engine_.Explain("watch"));
  EXPECT_NE(text.find(StrCat("live_nodes=", info.retained_nodes)),
            std::string::npos)
      << text;
}

TEST_F(EngineTest, SnapshotLayoutReusedAcrossFamilyInstances) {
  // Family instances share an identical slot layout, so after the first
  // instance computes the query_values vector the rest reuse it wholesale.
  ASSERT_OK(engine_.AddTriggerFamily("fam", "SELECT name FROM stock", {"n"},
                                     "price('IBM') > 50", nullptr,
                                     RuleOptions{}));
  SetPrice("IBM", 60);
  ExpectNoErrors();
  EXPECT_GT(engine_.stats().snapshot_layout_hits, 0u);
}

}  // namespace
}  // namespace ptldb::rules

// Checkpoint round-trip coverage for every retained-state type (satellite 3):
// binder open formulas with fresh variables, WITHIN windows, direct aggregate
// accumulators, §6.1.1 rewritten aggregates with aux items, rule families,
// integrity constraints, the database contents/history position and the
// clock.
//
// The equality oracle is strict: serialize → restore into freshly built
// components → serialize again must reproduce the identical bytes, and
// EXPLAIN (the evaluator's retained-formula dump) must match line for line.
// A continued workload on original and restorate must then fire identically.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/clock.h"
#include "common/codec.h"
#include "common/logging.h"
#include "db/database.h"
#include "rules/engine.h"
#include "storage/checkpoint.h"
#include "testutil.h"

namespace ptldb::storage {
namespace {

// A database + engine with one of every rule shape the engine retains
// state for. Registration order matters (rewritten aggregates generate
// deterministically named system rules) and must match across incarnations.
struct World {
  SimClock clock;
  db::Database db{&clock};
  rules::RuleEngine engine{&db};
  int sharp = 0, window = 0, agg_direct = 0, agg_rewrite = 0;
  std::vector<std::string> family_fired;

  World() {
    PTLDB_CHECK_OK(db.CreateTable(
        "stock",
        db::Schema({{"name", ValueType::kString},
                    {"price", ValueType::kDouble}}),
        {"name"}));
    PTLDB_CHECK_OK(engine.queries().Register(
        "price", "SELECT price FROM stock WHERE name = $sym", {"sym"}));
    PTLDB_CHECK_OK(
        db.InsertRow("stock", {Value::Str("IBM"), Value::Real(40)}));
    PTLDB_CHECK_OK(db.InsertRow("stock", {Value::Str("HP"), Value::Real(20)}));

    // Binder open formulas: retained F_{g,i} with fresh variables.
    PTLDB_CHECK_OK(engine.AddTrigger(
        "sharp_increase",
        "[t := time][x := price('IBM')] "
        "PREVIOUSLY (price('IBM') <= 0.5 * x AND time >= t - 10)",
        Count(&sharp)));
    // Bounded-window machine.
    PTLDB_CHECK_OK(engine.AddTrigger(
        "window", "WITHIN(price('HP') > 30, 25)", Count(&window)));
    // Direct aggregate accumulators.
    PTLDB_CHECK_OK(engine.AddTrigger(
        "agg_direct", "sum(price('IBM'); time = 0; true) > 500",
        Count(&agg_direct)));
    // §6.1.1 rewrite: aux items + generated reset/accumulate system rules.
    rules::RuleOptions rewrite;
    rewrite.aggregate_mode = rules::AggregateMode::kRewrite;
    PTLDB_CHECK_OK(engine.AddTrigger(
        "agg_rewrite", "count(price('IBM'); time = 0; price('IBM') > 50) >= 3",
        Count(&agg_rewrite), rewrite));
    // Rule family: one instance per domain tuple.
    PTLDB_CHECK_OK(engine.AddTriggerFamily(
        "cheap", "SELECT name FROM stock", {"sym"}, "price(sym) < 25",
        [this](rules::ActionContext& ctx) -> Status {
          family_fired.push_back(ctx.param("sym").AsString());
          return Status::OK();
        }));
    // Integrity constraint (vetoes are engine retained state too: stats).
    PTLDB_CHECK_OK(engine.AddIntegrityConstraint("cap", "price('IBM') <= 100"));
  }

  static rules::ActionFn Count(int* c) {
    return [c](rules::ActionContext&) -> Status {
      ++*c;
      return Status::OK();
    };
  }

  void SetPrice(const std::string& name, double price, Timestamp advance = 1) {
    clock.Advance(advance);
    db::ParamMap params{{"p", Value::Real(price)}, {"n", Value::Str(name)}};
    auto n = db.UpdateRows("stock", {{"price", "$p"}}, "name = $n", &params);
    PTLDB_CHECK(n.ok());
  }

  // Commits a price that the "cap" constraint should veto.
  void TryOverCap(double price) {
    clock.Advance(1);
    auto txn = db.Begin();
    PTLDB_CHECK(txn.ok());
    db::ParamMap params{{"p", Value::Real(price)}};
    PTLDB_CHECK_OK(
        db.Update(*txn, "stock", {{"price", "$p"}}, "name = 'IBM'", &params)
            .status());
    PTLDB_CHECK(db.Commit(*txn).code() == StatusCode::kTransactionAborted);
  }

  CheckpointTargets Targets() {
    CheckpointTargets t;
    t.db = &db;
    t.engine = &engine;
    t.clock = &clock;
    return t;
  }

  std::string EngineBytes() {
    std::string out;
    codec::Writer w(&out);
    PTLDB_CHECK_OK(engine.SerializeRetainedState(&w));
    return out;
  }

  std::string DbBytes() {
    std::string out;
    codec::Writer w(&out);
    PTLDB_CHECK_OK(db.SerializeContents(&w));
    return out;
  }

  std::string ExplainAll() {
    std::string out;
    for (const char* rule :
         {"sharp_increase", "window", "agg_direct", "agg_rewrite", "cheap",
          "cap"}) {
      auto e = engine.Explain(rule);
      PTLDB_CHECK_OK(e.status());
      out += *e + "\n";
    }
    return out;
  }
};

// A workload touching every rule: gradual moves, a doubling (sharp_increase),
// HP spikes (window + family), IBM climbs (aggregates), and cap vetoes.
void DriveWorkload(World& w, int phase) {
  if (phase == 0) {
    w.SetPrice("IBM", 41);
    w.SetPrice("HP", 24);   // family fires for HP
    w.SetPrice("IBM", 90);  // sharp_increase edge
    w.TryOverCap(150);      // vetoed
    w.SetPrice("HP", 35);   // window condition holds
    w.SetPrice("IBM", 95);
  } else {
    w.SetPrice("IBM", 60);
    w.SetPrice("HP", 22);
    w.SetPrice("IBM", 99);  // keeps aggregate sums growing
    w.TryOverCap(200);
    w.SetPrice("HP", 31);
    w.SetPrice("IBM", 55);
  }
}

TEST(CheckpointRoundTrip, FullRetainedStateSurvivesSerializeRestore) {
  World a;
  DriveWorkload(a, 0);

  std::string body;
  ASSERT_OK(EncodeCheckpoint(7, a.Targets(), &body));

  World b;
  ASSERT_OK_AND_ASSIGN(CheckpointInfo info, RestoreCheckpoint(body, b.Targets()));
  EXPECT_EQ(info.id, 7u);
  EXPECT_EQ(info.history_size, a.db.history().size());
  EXPECT_EQ(info.clock_now, a.clock.Now());

  // Strict equality: the restorate re-serializes to identical bytes.
  EXPECT_EQ(a.EngineBytes(), b.EngineBytes());
  EXPECT_EQ(a.DbBytes(), b.DbBytes());
  EXPECT_EQ(b.clock.Now(), a.clock.Now());
  EXPECT_EQ(b.db.history().size(), a.db.history().size());
  EXPECT_EQ(b.db.history().last_time(), a.db.history().last_time());

  // EXPLAIN dumps the retained F_{g,i} formulas: must match line for line.
  EXPECT_EQ(a.ExplainAll(), b.ExplainAll());

  // Stats (including the veto) travel with the checkpoint.
  EXPECT_EQ(b.engine.stats().ic_violations, a.engine.stats().ic_violations);
  EXPECT_EQ(b.engine.stats().states_processed, a.engine.stats().states_processed);

  // The two incarnations must now be behaviorally indistinguishable.
  int a_sharp0 = a.sharp, a_window0 = a.window;
  int a_direct0 = a.agg_direct, a_rewrite0 = a.agg_rewrite;
  size_t a_family0 = a.family_fired.size();
  DriveWorkload(a, 1);
  DriveWorkload(b, 1);
  EXPECT_EQ(b.sharp, a.sharp - a_sharp0);
  EXPECT_EQ(b.window, a.window - a_window0);
  EXPECT_EQ(b.agg_direct, a.agg_direct - a_direct0);
  EXPECT_EQ(b.agg_rewrite, a.agg_rewrite - a_rewrite0);
  EXPECT_EQ(b.family_fired.size(), a.family_fired.size() - a_family0);
  EXPECT_EQ(a.ExplainAll(), b.ExplainAll());
  EXPECT_EQ(a.EngineBytes(), b.EngineBytes());
  EXPECT_EQ(a.DbBytes(), b.DbBytes());
}

TEST(CheckpointRoundTrip, RestoreValidatesRuleSetAgainstDump) {
  World a;
  DriveWorkload(a, 0);
  std::string body;
  ASSERT_OK(EncodeCheckpoint(1, a.Targets(), &body));

  // A missing rule is rejected (rules are code; they must be re-registered).
  World missing;
  ASSERT_OK(missing.engine.RemoveRule("window"));
  Status s = RestoreCheckpoint(body, missing.Targets()).status();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("window"), std::string::npos);

  // A rule re-registered with a different condition is rejected, not
  // silently restored into the wrong evaluator.
  World changed;
  ASSERT_OK(changed.engine.RemoveRule("window"));
  ASSERT_OK(changed.engine.AddTrigger("window", "price('HP') > 99",
                                      World::Count(&changed.window)));
  s = RestoreCheckpoint(body, changed.Targets()).status();
  EXPECT_FALSE(s.ok());
}

TEST(CheckpointRoundTrip, LintReportSurvivesRestore) {
  // The registration-time lint report is retained state: a restoring
  // process re-registers the *folded* condition (that is what the dump
  // validates against), which lints clean — so the original report, with
  // its fold accounting and PTL004 diagnostic, must travel in the
  // checkpoint and overwrite the re-registration's empty one.
  World a;
  int fired = 0;
  ASSERT_OK(a.engine.AddTrigger("lossy", "@deposit AND 1 < 2",
                                World::Count(&fired)));
  ASSERT_OK_AND_ASSIGN(std::string before, a.engine.Lint("lossy"));
  EXPECT_NE(before.find("PTL004"), std::string::npos) << before;
  EXPECT_EQ(before.find("folded nodes: 0"), std::string::npos) << before;
  DriveWorkload(a, 0);
  std::string body;
  ASSERT_OK(EncodeCheckpoint(3, a.Targets(), &body));

  World b;
  int b_fired = 0;
  ASSERT_OK(b.engine.AddTrigger("lossy", "@deposit", World::Count(&b_fired)));
  ASSERT_OK_AND_ASSIGN(std::string clean, b.engine.Lint("lossy"));
  EXPECT_EQ(clean.find("PTL004"), std::string::npos) << clean;
  ASSERT_OK(RestoreCheckpoint(body, b.Targets()).status());
  ASSERT_OK_AND_ASSIGN(std::string after, b.engine.Lint("lossy"));
  EXPECT_EQ(after, before);
}

TEST(CheckpointRoundTrip, SimClockRestoreKeepsTimeComparisonsStable) {
  // Satellite 2: a `time <= c` condition must not flip across restart
  // because the clock restarted from zero.
  World a;
  a.clock.Advance(100);
  int early = 0;
  ASSERT_OK(a.engine.AddTrigger("early", "time <= 105", World::Count(&early)));
  a.SetPrice("IBM", 41);  // t=101: fires (time <= 105)
  EXPECT_GT(early, 0);

  std::string body;
  ASSERT_OK(EncodeCheckpoint(1, a.Targets(), &body));

  World b;
  int b_early = 0;
  ASSERT_OK(b.engine.AddTrigger("early", "time <= 105", World::Count(&b_early)));
  ASSERT_OK(RestoreCheckpoint(body, b.Targets()).status());
  EXPECT_EQ(b.clock.Now(), a.clock.Now());

  // Past the bound, the rule must stay quiet in both incarnations.
  a.SetPrice("IBM", 42, 10);  // t=111 > 105
  b.SetPrice("IBM", 42, 10);
  int before_a = early, before_b = b_early;
  a.SetPrice("IBM", 43);
  b.SetPrice("IBM", 43);
  EXPECT_EQ(early, before_a);
  EXPECT_EQ(b_early, before_b);
}

// The valid-time section is retired: the byte is always written 0, and a body
// that sets it is refused rather than skipped.
TEST(CheckpointRoundTrip, RetiredValidTimeSectionIsRejected) {
  World a;
  a.SetPrice("IBM", 41);
  std::string body;
  ASSERT_OK(EncodeCheckpoint(1, a.Targets(), &body));
  // With no metrics and no version store the body ends with the retired
  // byte, an empty metrics string and the absent-temporal flag.
  std::string trailer;
  codec::Writer w(&trailer);
  w.Bool(false);
  w.Str("");
  w.Bool(false);
  ASSERT_TRUE(body.ends_with(trailer));
  World b;
  ASSERT_OK(RestoreCheckpoint(body, b.Targets()).status());
  body[body.size() - trailer.size()] = 1;
  World c;
  EXPECT_EQ(RestoreCheckpoint(body, c.Targets()).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ptldb::storage

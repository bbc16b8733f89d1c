// End-to-end provenance tests: run real workloads through the engine with a
// trace recorder attached, dump the JSONL trace, and check that
//
//   * TraceReplay (the naive §4.2-literal evaluator) agrees with every
//     recorded verdict — the differential form of Theorem 1;
//   * every recorded firing carries a witness chain, and `Why` renders it;
//   * a tampered dump is caught, so the check has teeth.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/trace.h"
#include "rules/engine.h"
#include "rules/provenance.h"
#include "testutil.h"

namespace ptldb::rules {
namespace {

class TraceReplayTest : public ::testing::Test {
 protected:
  TraceReplayTest() : db_(&clock_), engine_(&db_) {
    engine_.SetTrace(&trace_);
    trace_.Enable();
    PTLDB_CHECK_OK(db_.CreateTable(
        "stock",
        db::Schema({{"name", ValueType::kString},
                    {"price", ValueType::kDouble}}),
        {"name"}));
    PTLDB_CHECK_OK(engine_.queries().Register(
        "price", "SELECT price FROM stock WHERE name = $sym", {"sym"}));
    PTLDB_CHECK_OK(
        db_.InsertRow("stock", {Value::Str("IBM"), Value::Real(40)}));
  }

  void SetPrice(const std::string& name, double price) {
    clock_.Advance(1);
    db::ParamMap params{{"p", Value::Real(price)}, {"n", Value::Str(name)}};
    auto n = db_.UpdateRows("stock", {{"price", "$p"}}, "name = $n", &params);
    PTLDB_CHECK(n.ok());
  }

  ActionFn NoopAction() {
    return [](ActionContext&) -> Status { return Status::OK(); };
  }

  void ExpectNoErrors() {
    for (const Status& s : engine_.TakeErrors()) {
      ADD_FAILURE() << s.ToString();
    }
  }

  SimClock clock_;
  db::Database db_;
  trace::Recorder trace_;
  RuleEngine engine_;
};

TEST_F(TraceReplayTest, ReplayAgreesAndFiringsCarryWitnesses) {
  ASSERT_OK(engine_.AddTrigger(
      "hot", "price('IBM') > 50 SINCE price('IBM') > 70", NoopAction()));
  SetPrice("IBM", 45);
  SetPrice("IBM", 80);  // anchor: SINCE becomes satisfied here
  SetPrice("IBM", 60);  // stays satisfied through the left arm
  SetPrice("IBM", 40);  // falls out
  ExpectNoErrors();

  // The grounded SINCE has no free variables, so the recurrence flips to a
  // sentinel and the witness is anchored at the state where it became true.
  ASSERT_OK_AND_ASSIGN(std::string why, engine_.Why("hot"));
  EXPECT_NE(why.find("anchored at state #"), std::string::npos) << why;

  std::string dump = trace_.ToJsonl();
  ASSERT_OK_AND_ASSIGN(ReplayReport report, TraceReplay(dump));
  EXPECT_EQ(report.mismatches, 0u)
      << report.Summary() << "\n"
      << (report.details.empty() ? "" : report.details.front());
  EXPECT_GT(report.records, 0u);
  EXPECT_GT(report.instances, 0u);
  EXPECT_GT(report.fired_with_witness, 0u);
  EXPECT_EQ(report.fired_without_witness, 0u) << report.Summary();
  EXPECT_EQ(report.partial_skipped, 0u);
}

TEST_F(TraceReplayTest, WitnessChainRecordsBinderValues) {
  // §5.2's sharp-increase shape: the binder captures the price at the anchor
  // state, so the witness must carry the bound value.
  ASSERT_OK(engine_.AddTrigger(
      "sharp_increase",
      "[t := time][x := price('IBM')] "
      "PREVIOUSLY (price('IBM') <= 0.5 * x AND time >= t - 10)",
      NoopAction()));
  SetPrice("IBM", 41);
  SetPrice("IBM", 43);
  SetPrice("IBM", 90);
  ExpectNoErrors();

  ASSERT_OK_AND_ASSIGN(std::string why, engine_.Why("sharp_increase"));
  EXPECT_NE(why.find("sharp_increase"), std::string::npos) << why;
  // The binders sit outside PREVIOUSLY, so the retained formula stays open
  // in x and t: the witness reports the firing-state bindings that closed it.
  EXPECT_NE(why.find("satisfied under the firing bindings"),
            std::string::npos)
      << why;
  EXPECT_NE(why.find("bound: x = 90"), std::string::npos) << why;
  EXPECT_NE(why.find("bound: t ="), std::string::npos) << why;

  ASSERT_OK_AND_ASSIGN(ReplayReport report, TraceReplay(trace_.ToJsonl()));
  EXPECT_EQ(report.mismatches, 0u) << report.Summary();
  EXPECT_GT(report.fired_with_witness, 0u);
}

TEST_F(TraceReplayTest, WhyOnNeverFiredRuleIsNotFound) {
  ASSERT_OK(engine_.AddTrigger("cold", "price('IBM') > 1000", NoopAction()));
  SetPrice("IBM", 45);
  ExpectNoErrors();

  Status s = engine_.Why("cold").status();
  EXPECT_EQ(s.code(), StatusCode::kNotFound) << s.ToString();
  EXPECT_NE(s.message().find("never fired"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(engine_.Why("no_such_rule").status().code(),
            StatusCode::kNotFound);
}

TEST_F(TraceReplayTest, IcProbeRecordsStayReplayConsistent) {
  // The cap vetoes the second update; its probe steps must NOT appear in the
  // trace (the probed states never became history), while the surviving
  // commits must still replay cleanly.
  ASSERT_OK(engine_.AddIntegrityConstraint("cap", "price('IBM') <= 100"));
  SetPrice("IBM", 90);
  clock_.Advance(1);
  db::ParamMap params{{"p", Value::Real(150)}, {"n", Value::Str("IBM")}};
  auto vetoed = db_.UpdateRows("stock", {{"price", "$p"}}, "name = $n",
                               &params);
  EXPECT_FALSE(vetoed.ok());  // constraint vetoes the commit
  SetPrice("IBM", 95);
  for (const Status& s : engine_.TakeErrors()) {
    // The veto surfaces as an engine error; anything else is a failure.
    EXPECT_NE(s.ToString().find("cap"), std::string::npos) << s.ToString();
  }

  std::string dump = trace_.ToJsonl();
  EXPECT_NE(dump.find("\"ic_veto\""), std::string::npos) << dump;
  ASSERT_OK_AND_ASSIGN(ReplayReport report, TraceReplay(dump));
  EXPECT_EQ(report.mismatches, 0u)
      << report.Summary() << "\n"
      << (report.details.empty() ? "" : report.details.front());
  EXPECT_GT(report.ignored, 0u);  // header + ic_veto lines
}

TEST_F(TraceReplayTest, TamperedDumpIsDetected) {
  ASSERT_OK(engine_.AddTrigger("hot", "price('IBM') > 50", NoopAction()));
  SetPrice("IBM", 80);
  ExpectNoErrors();

  std::string dump = trace_.ToJsonl();
  size_t pos = dump.find("\"satisfied\":true");
  ASSERT_NE(pos, std::string::npos) << dump;
  dump.replace(pos, 16, "\"satisfied\":false");
  ASSERT_OK_AND_ASSIGN(ReplayReport report, TraceReplay(dump));
  EXPECT_GT(report.mismatches, 0u) << report.Summary();
  EXPECT_FALSE(report.ok());
}

TEST_F(TraceReplayTest, TracingOffRecordsNothing) {
  trace_.Disable();
  trace_.Clear();  // drop what the fixture's setup recorded while enabled
  ASSERT_OK(engine_.AddTrigger("hot", "price('IBM') > 50", NoopAction()));
  SetPrice("IBM", 80);
  ExpectNoErrors();
  EXPECT_EQ(trace_.update_count(), 0u);
  EXPECT_EQ(trace_.span_count(), 0u);
}

TEST_F(TraceReplayTest, PartialHistoryIsSkippedNotMisjudged) {
  // A tiny update ring drops early records; the replay must refuse to judge
  // the truncated instance instead of reporting false mismatches.
  trace::Recorder small(1 << 14, /*update_capacity=*/2);
  small.Enable();
  engine_.SetTrace(&small);
  ASSERT_OK(engine_.AddTrigger(
      "hot", "price('IBM') > 50 SINCE price('IBM') > 70", NoopAction()));
  for (int i = 0; i < 6; ++i) SetPrice("IBM", 60 + 5 * i);
  ExpectNoErrors();
  EXPECT_GT(small.dropped_updates(), 0u);
  ASSERT_OK_AND_ASSIGN(ReplayReport report, TraceReplay(small.ToJsonl()));
  EXPECT_EQ(report.mismatches, 0u) << report.Summary();
  EXPECT_GT(report.partial_skipped, 0u);
  EXPECT_EQ(report.instances, 0u);
}

// §8 batched invocation: every instance steps several times per Flush, so
// each update record's step number and each firing's witness must be taken
// right after the step they describe, not at the end of the drain.
class BatchedTraceReplayTest : public TraceReplayTest,
                               public ::testing::WithParamInterface<size_t> {};

TEST_P(BatchedTraceReplayTest, ReplayAgreesAndFiringsCarryWitnesses) {
  ASSERT_OK(engine_.SetThreads(GetParam()));
  engine_.SetBatching(3);
  // Execution recording off, so only price updates append states; the
  // 40/90 swings put a `low` firing and a later `hot` firing in one drain.
  std::vector<std::pair<std::string, Timestamp>> ran;
  ActionFn log = [&ran](ActionContext& ctx) -> Status {
    ran.emplace_back(ctx.rule(), ctx.fired_at());
    return Status::OK();
  };
  RuleOptions quiet{.record_execution = false};
  ASSERT_OK(engine_.AddTrigger(
      "hot", "price('IBM') > 50 SINCE price('IBM') > 70", log, quiet));
  ASSERT_OK(engine_.AddTrigger(
      "sharp_increase",
      "[t := time][x := price('IBM')] "
      "PREVIOUSLY (price('IBM') <= 0.5 * x AND time >= t - 10)",
      log, quiet));
  ASSERT_OK(engine_.AddTrigger("low", "price('IBM') < 42", log, quiet));
  for (double price : {45.0, 80.0, 60.0, 40.0, 90.0, 40.0, 90.0, 40.0, 90.0}) {
    SetPrice("IBM", price);
  }
  ASSERT_OK(engine_.Flush());
  ExpectNoErrors();
  ASSERT_GE(ran.size(), 4u);
  // Actions run in state order even though a drain covers several states.
  for (size_t i = 1; i < ran.size(); ++i) {
    EXPECT_LE(ran[i - 1].second, ran[i].second)
        << ran[i - 1].first << " ran before " << ran[i].first;
  }
  ASSERT_OK_AND_ASSIGN(std::string why, engine_.Why("sharp_increase"));
  EXPECT_NE(why.find("bound: x = 90"), std::string::npos) << why;

  ASSERT_OK_AND_ASSIGN(ReplayReport report, TraceReplay(trace_.ToJsonl()));
  EXPECT_EQ(report.mismatches, 0u)
      << report.Summary() << "\n"
      << (report.details.empty() ? "" : report.details.front());
  EXPECT_EQ(report.instances, 3u);
  EXPECT_EQ(report.fired_with_witness, ran.size());
  EXPECT_EQ(report.fired_without_witness, 0u) << report.Summary();
  EXPECT_EQ(report.partial_skipped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, BatchedTraceReplayTest,
                         ::testing::Values(size_t{1}, size_t{4}));

}  // namespace
}  // namespace ptldb::rules

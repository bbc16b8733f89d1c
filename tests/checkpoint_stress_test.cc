// Abort-heavy checkpoint/restore stress.
//
// The engine's TCA path probes every integrity constraint against the
// prospective commit state via Save/Step/Restore (engine.cc,
// OnCommitAttempt). These tests hammer exactly that pattern:
//
//   * at the eval layer, random formulas walk random histories where more
//     than half of the states are hypothetical probes that get rolled back;
//     after every rollback the evaluator must behave as if the probed state
//     never existed, which is checked against a from-scratch naive
//     re-evaluation over the committed prefix only;
//   * at the engine layer, a workload where most transactions violate an IC
//     must leave triggers, the database, and subsequent verdicts exactly as
//     if the aborted transactions had never been attempted.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "db/database.h"
#include "eval/incremental.h"
#include "formula_gen.h"
#include "ptl/analyzer.h"
#include "ptl/naive_eval.h"
#include "rules/engine.h"
#include "testutil.h"

namespace ptldb {
namespace {

using eval::IncrementalEvaluator;
using ptl::FormulaPtr;
using ptl::StateSnapshot;
using testutil::FormulaGen;
using testutil::GenHistory;
using testutil::Rng;

TEST(CheckpointStressTest, AbortHeavyProbesMatchFromScratchNaive) {
  size_t total_probes = 0;
  size_t total_commits = 0;
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed);
    FormulaGen gen(&rng);
    FormulaPtr f = gen.Gen(1 + static_cast<int>(rng.Below(4)));
    auto analysis = ptl::Analyze(f);
    ASSERT_TRUE(analysis.ok())
        << analysis.status().ToString() << "\nformula: " << f->ToString();
    ptl::NaiveEvaluator naive(&*analysis);
    auto inc = IncrementalEvaluator::Make(*analysis);
    ASSERT_TRUE(inc.ok()) << inc.status().ToString();

    std::vector<StateSnapshot> history = GenHistory(&rng, *analysis, 60);
    size_t committed = 0;
    for (const StateSnapshot& snap : history) {
      if (rng.Chance(0.55)) {
        // Hypothetical probe, then abort: the engine's IC pattern — no
        // collection between Save and Restore (collection would invalidate
        // the checkpoint), rolled back before the next real state.
        IncrementalEvaluator::Checkpoint cp = inc->Save();
        auto probe1 = inc->Step(snap);
        ASSERT_TRUE(probe1.ok()) << probe1.status().ToString()
                                 << "\nformula: " << f->ToString();
        ASSERT_OK(inc->Restore(cp));
        // Probing again from the restored state must reproduce the verdict
        // (a retried commit attempt sees the same answer).
        auto probe2 = inc->Step(snap);
        ASSERT_TRUE(probe2.ok());
        EXPECT_EQ(*probe1, *probe2)
            << "probe verdict changed after restore\nformula: "
            << f->ToString();
        ASSERT_OK(inc->Restore(cp));
        ++total_probes;
        continue;
      }
      // Committed: both evaluators advance. The naive evaluator re-derives
      // satisfaction from scratch over the committed prefix, so agreement
      // here proves the rollbacks left no residue in the retained state,
      // the aggregate machines, or the time-pruning bookkeeping.
      naive.Observe(snap);
      auto want = naive.SatisfiedAtEnd();
      auto got = inc->Step(snap);
      ASSERT_TRUE(want.ok()) << want.status().ToString()
                             << "\nformula: " << f->ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString()
                            << "\nformula: " << f->ToString();
      ASSERT_EQ(*want, *got)
          << "divergence after " << total_probes << " probes at committed"
          << " state " << committed << "\nformula: " << f->ToString() << "\n"
          << inc->DebugString();
      ++committed;
      ++total_commits;
      // Collection between probe windows is legal (the engine's
      // MaybeCollect runs after the commit decision) and must not disturb
      // later probes.
      if (committed % 8 == 7) inc->MaybeCollect(32);
    }
  }
  // The workload must actually be abort-heavy.
  EXPECT_GT(total_probes, total_commits);
}

TEST(CheckpointStressTest, EngineStateUntouchedByAbortedTransactions) {
  Rng rng(7);
  SimClock clock(0);
  db::Database db(&clock);
  rules::RuleEngine engine(&db);

  PTLDB_CHECK_OK(db.CreateTable(
      "data", db::Schema({{"k", ValueType::kString}, {"v", ValueType::kInt64}}),
      {"k"}));
  PTLDB_CHECK_OK(db.InsertRow("data", {Value::Str("x"), Value::Int(10)}));
  PTLDB_CHECK_OK(
      engine.queries().Register("q0", "SELECT v FROM data WHERE k = 'x'", {}));

  // The IC vetoes any committed value above 50; the workload draws uniform
  // values in [0, 120], so well over half of all transactions abort.
  ASSERT_OK(engine.AddIntegrityConstraint("cap", "q0() <= 50"));
  // Rolled-back probes must be invisible to triggers: this one can only fire
  // if a violating value ever materializes in an appended state.
  int leaked = 0;
  ASSERT_OK(engine.AddTrigger("leak", "PREVIOUSLY q0() > 50",
                              [&leaked](rules::ActionContext&) -> Status {
                                ++leaked;
                                return Status::OK();
                              },
                              rules::RuleOptions{.record_execution = false}));
  // And a temporal trigger over the committed walk, tracked by an oracle.
  int fired = 0;
  ASSERT_OK(engine.AddTrigger("edge", "q0() > 25",
                              [&fired](rules::ActionContext&) -> Status {
                                ++fired;
                                return Status::OK();
                              },
                              rules::RuleOptions{.record_execution = false}));

  int aborts = 0, commits = 0;
  int64_t committed_value = 10;
  for (int i = 0; i < 400; ++i) {
    clock.Advance(1);
    int64_t v = rng.Range(0, 120);
    ASSERT_OK_AND_ASSIGN(int64_t txn, db.Begin());
    db::ParamMap params{{"v", Value::Int(v)}};
    ASSERT_OK(db.Update(txn, "data", {{"v", "$v"}}, "k = 'x'", &params)
                  .status());
    Status s = db.Commit(txn);
    if (v > 50) {
      ASSERT_EQ(s.code(), StatusCode::kTransactionAborted)
          << "iteration " << i << " value " << v;
      ++aborts;
      // Retrying the identical violating commit must abort again — the
      // restored IC evaluator reproduces its verdict.
      ASSERT_OK_AND_ASSIGN(int64_t retry, db.Begin());
      ASSERT_OK(db.Update(retry, "data", {{"v", "$v"}}, "k = 'x'", &params)
                    .status());
      ASSERT_EQ(db.Commit(retry).code(), StatusCode::kTransactionAborted);
      ++aborts;
    } else {
      ASSERT_OK(s);
      committed_value = v;
      ++commits;
    }
    // The database only ever reflects committed (conforming) values.
    ASSERT_OK_AND_ASSIGN(db::Relation now,
                         db.QuerySql("SELECT v FROM data WHERE k = 'x'"));
    ASSERT_EQ(now.size(), 1u) << "iteration " << i;
    ASSERT_EQ(now.row(0)[0], Value::Int(committed_value)) << "iteration " << i;
  }
  for (const Status& e : engine.TakeErrors()) ADD_FAILURE() << e.ToString();

  EXPECT_GT(aborts, commits) << "workload must be abort-heavy";
  EXPECT_EQ(leaked, 0) << "trigger observed a rolled-back state";
  EXPECT_GT(fired, 0);
  EXPECT_EQ(engine.stats().ic_violations, static_cast<uint64_t>(aborts));
}

}  // namespace
}  // namespace ptldb

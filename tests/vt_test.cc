// Tests for the valid-time model (§9): retroactive updates, tentative vs
// definite triggers, online vs offline IC satisfaction, and Theorem 2.

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

#include "common/json.h"
#include "common/trace.h"
#include "rules/provenance.h"
#include "testutil.h"
#include "validtime/vt.h"

namespace ptldb::validtime {
namespace {

// Commits `item := value` at `valid_time`, with the clock at `now`.
void CommitUpdate(VtDatabase& db, SimClock& clock, Timestamp now,
                  const std::string& item, Value value, Timestamp valid_time) {
  clock.Set(now);
  auto txn = db.Begin();
  ASSERT_OK(txn.status());
  ASSERT_OK(db.Update(*txn, item, std::move(value), valid_time));
  ASSERT_OK(db.Commit(*txn));
}

TEST(VtDatabaseTest, MaxDelayEnforced) {
  SimClock clock(100);
  VtDatabase db(&clock, /*max_delay=*/10);
  ASSERT_OK_AND_ASSIGN(int64_t txn, db.Begin());
  EXPECT_OK(db.Update(txn, "IBM", Value::Int(72), 95));
  EXPECT_EQ(db.Update(txn, "IBM", Value::Int(72), 85).code(),
            StatusCode::kOutOfRange);  // older than now - delta
  EXPECT_EQ(db.Update(txn, "IBM", Value::Int(72), 101).code(),
            StatusCode::kInvalidArgument);  // future
  // The window is checked again at commit: by t=106 the update at 95 is
  // older than now - delta, so the commit fails and aborts the transaction.
  clock.Set(106);
  EXPECT_EQ(db.Commit(txn).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(db.Abort(txn).code(), StatusCode::kNotFound);
  EXPECT_TRUE(db.current_history().empty());
}

TEST(VtDatabaseTest, LateCommitCannotLandBehindTheDefiniteFrontier) {
  SimClock clock(0);
  VtDatabase db(&clock, /*max_delay=*/10);
  std::vector<Timestamp> firings;
  ASSERT_OK(db.AddDefiniteTrigger("spike", "PREVIOUSLY IBM() > 100",
                                  [&firings](Timestamp at) {
                                    firings.push_back(at);
                                  }));
  // Posted at valid time 0 while that was still in the window...
  ASSERT_OK_AND_ASSIGN(int64_t late, db.Begin());
  ASSERT_OK(db.Update(late, "IBM", Value::Int(150), 0));
  CommitUpdate(db, clock, 5, "IBM", Value::Int(50), 5);
  clock.Set(20);
  ASSERT_OK(db.AdvanceDefinite());  // the t=5 state is definite now
  // ...but committed only once t=0 lies behind the definite frontier.
  EXPECT_EQ(db.Commit(late).code(), StatusCode::kOutOfRange);
  clock.Set(100);
  ASSERT_OK(db.AdvanceDefinite());
  // The definite trigger and the committed history agree: the spike is in
  // neither, instead of in the history but never seen by the trigger.
  bool spike_committed = false;
  for (const VtState& s : db.current_history()) {
    auto it = s.values.find("IBM");
    spike_committed |= it != s.values.end() && it->second == Value::Int(150);
  }
  EXPECT_FALSE(spike_committed);
  EXPECT_EQ(!firings.empty(), spike_committed);
}

TEST(VtDatabaseTest, AbortedUpdatesNeverEnterHistory) {
  SimClock clock(10);
  VtDatabase db(&clock, 0);
  ASSERT_OK_AND_ASSIGN(int64_t txn, db.Begin());
  ASSERT_OK(db.Update(txn, "IBM", Value::Int(72), 5));
  ASSERT_OK(db.Abort(txn));
  EXPECT_TRUE(db.current_history().empty());
  ASSERT_OK_AND_ASSIGN(std::vector<Timestamp> commits, db.CommitPoints());
  EXPECT_TRUE(commits.empty());
}

TEST(VtDatabaseTest, RetroactiveUpdateRewritesHistory) {
  SimClock clock(0);
  VtDatabase db(&clock, /*max_delay=*/100);
  CommitUpdate(db, clock, 10, "IBM", Value::Int(50), 10);
  CommitUpdate(db, clock, 20, "IBM", Value::Int(60), 20);
  // Retroactive: at time 30 we learn the price was 55 back at time 15.
  CommitUpdate(db, clock, 30, "IBM", Value::Int(55), 15);

  const VtHistory& h = db.current_history();
  // States at valid times 10, 15 (retro), 20 and the third commit at 30;
  // same-instant commits share the update's state (§2: simultaneous events
  // produce a single new state).
  std::vector<Timestamp> times;
  for (const VtState& s : h) times.push_back(s.time);
  EXPECT_EQ(times, (std::vector<Timestamp>{10, 15, 20, 30}));
  // Value at the retro state and after.
  EXPECT_EQ(h[1].values.at("IBM"), Value::Int(55));  // t=15
  EXPECT_EQ(h[2].values.at("IBM"), Value::Int(60));  // t=20 still 60
}

TEST(VtDatabaseTest, TentativeTriggerFiresOnRetroactiveCondition) {
  SimClock clock(0);
  VtDatabase db(&clock, /*max_delay=*/100);
  std::vector<Timestamp> firings;
  // "The price dropped below 40 at some point."
  ASSERT_OK(db.AddTentativeTrigger("drop", "PREVIOUSLY IBM() < 40",
                                   [&firings](Timestamp at) {
                                     firings.push_back(at);
                                   }));
  CommitUpdate(db, clock, 10, "IBM", Value::Int(50), 10);
  CommitUpdate(db, clock, 20, "IBM", Value::Int(60), 20);
  EXPECT_TRUE(firings.empty());
  // Retroactively, the price was 30 at time 15: the condition becomes
  // satisfied at past states; the tentative trigger fires.
  CommitUpdate(db, clock, 30, "IBM", Value::Int(30), 15);
  ASSERT_FALSE(firings.empty());
  EXPECT_EQ(firings.front(), 15);
}

TEST(VtDatabaseTest, HeldForFiresOnValidTimeNotTransactionTime) {
  // Focused version: price constant for >= 7 *valid-time* ticks although the
  // posting transactions were only 3 transaction-time ticks apart.
  SimClock clock(0);
  VtDatabase db(&clock, /*max_delay=*/100);
  std::vector<Timestamp> firings;
  ASSERT_OK(db.AddTentativeTrigger(
      "steady", "HELDFOR(IBM() = 50, 7) AND time >= 9",
      [&firings](Timestamp at) { firings.push_back(at); }));
  CommitUpdate(db, clock, 2, "IBM", Value::Int(50), 1);
  // Posted at 4, but valid already at 3 — and nothing changes until the
  // commit state at t=10 below.
  CommitUpdate(db, clock, 4, "IBM", Value::Int(50), 3);
  EXPECT_TRUE(firings.empty());  // only 4 transaction-ticks have passed
  // A no-op touch at t=10 creates a state where the condition holds over
  // valid time [3, 10].
  CommitUpdate(db, clock, 10, "IBM", Value::Int(50), 10);
  EXPECT_FALSE(firings.empty());
}

TEST(VtDatabaseTest, DefiniteTriggerDelaysFiring) {
  SimClock clock(0);
  VtDatabase db(&clock, /*max_delay=*/10);
  std::vector<Timestamp> firings;
  ASSERT_OK(db.AddDefiniteTrigger("spike", "IBM() > 100",
                                  [&firings](Timestamp at) {
                                    firings.push_back(at);
                                  }));
  CommitUpdate(db, clock, 5, "IBM", Value::Int(150), 5);
  // The spike at t=5 is tentative until now - delta > 5.
  EXPECT_TRUE(firings.empty());
  clock.Set(14);
  ASSERT_OK(db.AdvanceDefinite());
  EXPECT_TRUE(firings.empty());  // 14 - 10 = 4 < 5: not definite yet
  clock.Set(16);
  ASSERT_OK(db.AdvanceDefinite());
  ASSERT_EQ(firings.size(), 1u);
  EXPECT_EQ(firings[0], 5);  // fired for the t=5 state, >= delta later
}

TEST(VtDatabaseTest, DefiniteTriggerNeverSeesRetractedValues) {
  SimClock clock(0);
  VtDatabase db(&clock, /*max_delay=*/10);
  std::vector<Timestamp> firings;
  ASSERT_OK(db.AddDefiniteTrigger("spike", "IBM() > 100",
                                  [&firings](Timestamp at) {
                                    firings.push_back(at);
                                  }));
  CommitUpdate(db, clock, 5, "IBM", Value::Int(150), 5);
  // Before the spike becomes definite, a retro update corrects it downward
  // at valid time 6 (within the delay window).
  CommitUpdate(db, clock, 12, "IBM", Value::Int(90), 6);
  clock.Set(30);
  ASSERT_OK(db.AdvanceDefinite());
  // The spike state at t=5 itself WAS 150 and is definite — it fires; but the
  // corrected t=6 state (90) does not.
  ASSERT_EQ(firings.size(), 1u);
  EXPECT_EQ(firings[0], 5);
}

TEST(VtDatabaseTest, RequiresDeltaForDefiniteTriggers) {
  SimClock clock(0);
  VtDatabase db(&clock, /*max_delay=*/0);
  EXPECT_FALSE(db.AddDefiniteTrigger("x", "IBM() > 0", nullptr).ok());
}

// The paper's §9.3 example: u1 by T1, u2 by T2; order u1, u2, commit-T2,
// commit-T1. The constraint "whenever u2 occurs it is preceded by u1" is
// offline-satisfied but not online-satisfied.
class PaperExampleTest : public ::testing::Test {
 protected:
  PaperExampleTest() : clock_(0), db_(&clock_, /*max_delay=*/100) {}

  void BuildHistory() {
    clock_.Set(10);
    auto t1 = db_.Begin();
    ASSERT_OK(t1.status());
    auto t2 = db_.Begin();
    ASSERT_OK(t2.status());
    ASSERT_OK(db_.Update(*t1, "u1", Value::Int(1), 1));  // u1 at valid 1
    ASSERT_OK(db_.Update(*t2, "u2", Value::Int(1), 2));  // u2 at valid 2
    ASSERT_OK(db_.Commit(*t2));  // commit-T2 first
    clock_.Set(20);
    ASSERT_OK(db_.Commit(*t1));  // commit-T1 later
  }

  // "Whenever update u2 occurs, it is preceded (or accompanied) by u1":
  // at every state, if u2 ever occurred then u1 occurred no later.
  static constexpr const char* kConstraint =
      "NOT PREVIOUSLY (@update('u2') AND "
      "NOT PREVIOUSLY @update('u1'))";

  SimClock clock_;
  VtDatabase db_;
};

TEST_F(PaperExampleTest, OfflineSatisfiedButNotOnline) {
  BuildHistory();
  ASSERT_OK_AND_ASSIGN(bool online, db_.OnlineSatisfied(kConstraint));
  ASSERT_OK_AND_ASSIGN(bool offline, db_.OfflineSatisfied(kConstraint));
  EXPECT_FALSE(online);   // at commit-T2, u1 (uncommitted) is invisible
  EXPECT_TRUE(offline);   // in the full history u1 precedes u2
}

TEST_F(PaperExampleTest, Theorem2OnCollapsedHistory) {
  BuildHistory();
  // On the collapsed committed history the two notions coincide. Re-ingest
  // the collapse (updates at commit time) into a fresh valid-time database
  // and compare the two checkers.
  ASSERT_OK_AND_ASSIGN(VtHistory collapsed, db_.CollapsedCommittedHistory());
  SimClock clock2(0);
  VtDatabase db2(&clock2, /*max_delay=*/0);
  for (const VtState& s : collapsed) {
    clock2.Set(s.time);
    auto txn = db2.Begin();
    ASSERT_OK(txn.status());
    for (const auto& [tag, item, value] : s.updates) {
      ASSERT_OK(db2.Update(*txn, item, value, s.time));
    }
    ASSERT_OK(db2.Commit(*txn));
  }
  ASSERT_OK_AND_ASSIGN(bool online, db2.OnlineSatisfied(kConstraint));
  ASSERT_OK_AND_ASSIGN(bool offline, db2.OfflineSatisfied(kConstraint));
  EXPECT_EQ(online, offline);
  // And in this particular story both are false: collapsed, u2 (commit-T2)
  // precedes u1 (commit-T1).
  EXPECT_FALSE(online);
}

// Property test for Theorem 2: random logs, random constraints — online and
// offline satisfaction always coincide on the collapsed committed history.
TEST(Theorem2PropertyTest, OnlineEqualsOfflineOnCollapsedHistories) {
  testutil::Rng rng(42);
  const char* constraints[] = {
      "NOT PREVIOUSLY (@update('b') AND NOT PREVIOUSLY @update('a'))",
      "THROUGHOUT_PAST (a() < 8)",
      "PREVIOUSLY a() > b()",
      "NOT @update('a') SINCE @update('b') OR NOT PREVIOUSLY @update('b')",
      "WITHIN(a() >= 5, 12)",
  };
  for (int round = 0; round < 25; ++round) {
    // Build a random interleaved log with retro updates.
    SimClock clock(0);
    VtDatabase db(&clock, /*max_delay=*/50);
    Timestamp now = 10;
    std::vector<int64_t> open;
    for (int step = 0; step < 30; ++step) {
      now += rng.Range(1, 4);
      clock.Set(now);
      double dice = static_cast<double>(rng.Below(100)) / 100.0;
      if (open.empty() || dice < 0.4) {
        auto txn = db.Begin();
        ASSERT_OK(txn.status());
        open.push_back(*txn);
      } else if (dice < 0.8) {
        int64_t txn = open[rng.Below(open.size())];
        std::string item = rng.Chance(0.5) ? "a" : "b";
        Timestamp valid = now - rng.Range(0, 9);
        ASSERT_OK(db.Update(txn, item,
                            Value::Int(rng.Range(0, 10)), valid));
      } else {
        size_t pick = rng.Below(open.size());
        int64_t txn = open[pick];
        open.erase(open.begin() + static_cast<ptrdiff_t>(pick));
        if (rng.Chance(0.2)) {
          ASSERT_OK(db.Abort(txn));
        } else {
          // A commit whose updates have fallen out of the delay window is
          // refused and aborts the transaction (§9.2).
          Status s = db.Commit(txn);
          if (s.code() != StatusCode::kOutOfRange) ASSERT_OK(s);
        }
      }
    }
    // Re-ingest the collapse and check the theorem for every constraint.
    ASSERT_OK_AND_ASSIGN(VtHistory collapsed, db.CollapsedCommittedHistory());
    SimClock clock2(0);
    VtDatabase db2(&clock2, 0);
    for (const VtState& s : collapsed) {
      clock2.Set(s.time);
      auto txn = db2.Begin();
      ASSERT_OK(txn.status());
      for (const auto& [tag, item, value] : s.updates) {
        ASSERT_OK(db2.Update(*txn, item, value, s.time));
      }
      ASSERT_OK(db2.Commit(*txn));
    }
    for (const char* c : constraints) {
      ASSERT_OK_AND_ASSIGN(bool online, db2.OnlineSatisfied(c));
      ASSERT_OK_AND_ASSIGN(bool offline, db2.OfflineSatisfied(c));
      ASSERT_EQ(online, offline)
          << "constraint: " << c << " round " << round;
    }
  }
}

TEST(VtDatabaseTest, CompactionBoundsMemoryAndPreservesBehaviour) {
  SimClock clock(0);
  VtDatabase db(&clock, /*max_delay=*/20);
  db.SetAutoCompact(/*threshold=*/30);
  std::vector<Timestamp> firings;
  ASSERT_OK(db.AddTentativeTrigger("spike", "IBM() > 95",
                                   [&firings](Timestamp at) {
                                     firings.push_back(at);
                                   }));
  // A long stream of updates; a spike every 50th commit.
  for (int i = 1; i <= 400; ++i) {
    Timestamp now = i * 3;
    int64_t price = (i % 50 == 0) ? 120 : 60;
    CommitUpdate(db, clock, now, "IBM", Value::Int(price), now - (i % 5));
  }
  // Memory is bounded by the delta window, not by the stream length.
  EXPECT_LE(db.live_states(), 64u);
  // Every spike was caught exactly once.
  EXPECT_EQ(firings.size(), 8u);
  // Values survive compaction: the current history's first state sees the
  // carried-over base values.
  const VtHistory& h = db.current_history();
  ASSERT_FALSE(h.empty());
  EXPECT_TRUE(h.front().values.count("IBM") > 0);
  // The committed histories are derived from the states, and a prefix of
  // them is gone: the analyses refuse rather than answer from a suffix.
  EXPECT_EQ(db.CommitPoints().status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(db.OnlineSatisfied("IBM() < 200").status().code(),
            StatusCode::kOutOfRange);
}

TEST(VtDatabaseTest, CompactThenRetroUpdateAtBoundaryStillWorks) {
  SimClock clock(0);
  VtDatabase db(&clock, /*max_delay=*/10);
  std::vector<Timestamp> firings;
  ASSERT_OK(db.AddTentativeTrigger("watch", "PREVIOUSLY IBM() > 95",
                                   [&firings](Timestamp at) {
                                     firings.push_back(at);
                                   }));
  CommitUpdate(db, clock, 5, "IBM", Value::Int(60), 5);
  CommitUpdate(db, clock, 30, "IBM", Value::Int(60), 30);
  ASSERT_OK(db.Compact());  // drops everything before t=20
  EXPECT_LE(db.live_states(), 2u);
  // Retro update within the window (>= now - delta = 20): replay works
  // against the compacted history.
  CommitUpdate(db, clock, 32, "IBM", Value::Int(120), 25);
  ASSERT_FALSE(firings.empty());
  EXPECT_EQ(firings.front(), 25);
}

TEST(VtDatabaseTest, CompactRequiresDelta) {
  SimClock clock(100);
  VtDatabase db(&clock, 0);
  EXPECT_FALSE(db.Compact().ok());
}

TEST(VtDatabaseTest, DefiniteTriggerSurvivesCompaction) {
  SimClock clock(0);
  VtDatabase db(&clock, /*max_delay=*/10);
  std::vector<Timestamp> firings;
  ASSERT_OK(db.AddDefiniteTrigger("spike", "IBM() > 95",
                                  [&firings](Timestamp at) {
                                    firings.push_back(at);
                                  }));
  CommitUpdate(db, clock, 5, "IBM", Value::Int(120), 5);
  clock.Set(40);
  // Compaction forces the definite frontier through the dropped prefix
  // first, so the firing is not lost.
  ASSERT_OK(db.Compact());
  ASSERT_EQ(firings.size(), 1u);
  EXPECT_EQ(firings[0], 5);
  // And the frontier is consistent afterwards: no duplicate firing.
  ASSERT_OK(db.AdvanceDefinite());
  EXPECT_EQ(firings.size(), 1u);
}

TEST(VtDatabaseTest, MonitorCollectionBoundsStoresWithoutChangingFirings) {
  // Two identical databases fed the same commit stream: one collects monitor
  // node stores aggressively, the twin never does. Collection must not
  // change any firing (checkpoints are kept restorable through
  // CollectKeepingCheckpoints) while keeping the summed store bounded.
  SimClock clock_a(0), clock_b(0);
  VtDatabase collected(&clock_a, /*max_delay=*/20);
  VtDatabase twin(&clock_b, /*max_delay=*/20);
  collected.SetCollectThreshold(32);
  std::vector<Timestamp> fires_a, fires_b;
  // A bounded temporal condition so every replay does symbolic work.
  const char* cond = "WITHIN(IBM() > 95, 12)";
  ASSERT_OK(collected.AddTentativeTrigger(
      "spike", cond, [&fires_a](Timestamp at) { fires_a.push_back(at); }));
  ASSERT_OK(twin.AddTentativeTrigger(
      "spike", cond, [&fires_b](Timestamp at) { fires_b.push_back(at); }));
  size_t max_store = 0;
  for (int i = 1; i <= 300; ++i) {
    Timestamp now = i * 2;
    int64_t price = (i % 40 == 0) ? 120 : 60;
    // Retroactive by a few ticks: every commit restores a checkpoint and
    // replays the suffix, the path that historically never collected.
    Timestamp vt = now - (i % 5);
    CommitUpdate(collected, clock_a, now, "IBM", Value::Int(price), vt);
    CommitUpdate(twin, clock_b, now, "IBM", Value::Int(price), vt);
    max_store = std::max(max_store, collected.monitor_store_nodes());
  }
  EXPECT_EQ(fires_a, fires_b);
  EXPECT_FALSE(fires_a.empty());
  EXPECT_GT(collected.collections(), 0u);
  EXPECT_EQ(twin.collections(), 0u);
  // Bounded by the threshold plus one replay pass's allocations — not by the
  // length of the commit stream (the twin's store grows far past this).
  EXPECT_LE(max_store, 256u);
  EXPECT_GT(twin.monitor_store_nodes(), max_store);
}

TEST(VtDatabaseTest, CommittedHistoryAtExcludesLaterCommits) {
  SimClock clock(0);
  VtDatabase db(&clock, /*max_delay=*/100);
  clock.Set(10);
  auto t1 = db.Begin();
  ASSERT_OK(t1.status());
  ASSERT_OK(db.Update(*t1, "x", Value::Int(1), 5));
  auto t2 = db.Begin();
  ASSERT_OK(t2.status());
  ASSERT_OK(db.Update(*t2, "x", Value::Int(2), 6));
  ASSERT_OK(db.Commit(*t2));  // commits at ~10
  clock.Set(20);
  ASSERT_OK(db.Commit(*t1));  // commits at 20

  ASSERT_OK_AND_ASSIGN(std::vector<Timestamp> commits, db.CommitPoints());
  ASSERT_EQ(commits.size(), 2u);
  ASSERT_OK_AND_ASSIGN(VtHistory at_first, db.CommittedHistoryAt(commits[0]));
  // Only t2's update visible.
  bool saw_1 = false, saw_2 = false;
  for (const VtState& s : at_first) {
    for (const auto& [tag, item, v] : s.updates) {
      (void)item;
      saw_1 |= (v == Value::Int(1));
      saw_2 |= (v == Value::Int(2));
    }
  }
  EXPECT_FALSE(saw_1);
  EXPECT_TRUE(saw_2);
  // At infinity both are visible, and the retro one (valid 5) precedes.
  ASSERT_OK_AND_ASSIGN(VtHistory full, db.CommittedHistoryAtInfinity());
  ASSERT_GE(full.size(), 2u);
  EXPECT_EQ(full[0].time, 5);
  EXPECT_EQ(full[1].time, 6);
}

TEST(VtDatabaseTest, CollapseKeepsPostingOrderWithinATransaction) {
  SimClock clock(10);
  VtDatabase db(&clock, /*max_delay=*/100);
  ASSERT_OK_AND_ASSIGN(int64_t txn, db.Begin());
  // Posted first at the later valid time, then at an earlier one.
  ASSERT_OK(db.Update(txn, "IBM", Value::Int(1), 8));
  ASSERT_OK(db.Update(txn, "IBM", Value::Int(2), 5));
  ASSERT_OK(db.Commit(txn));
  // In valid time the first posting is the later value...
  EXPECT_EQ(db.current_history().back().values.at("IBM"), Value::Int(1));
  // ...but collapsed to the commit time, posting order decides.
  ASSERT_OK_AND_ASSIGN(VtHistory collapsed, db.CollapsedCommittedHistory());
  ASSERT_EQ(collapsed.size(), 1u);
  EXPECT_EQ(collapsed[0].time, 10);
  EXPECT_EQ(collapsed[0].events,
            (std::vector<event::Event>{
                event::TransactionCommit(txn),
                {event::kUpdateEvent, {Value::Str("IBM"), Value::Int(1)}},
                {event::kUpdateEvent, {Value::Str("IBM"), Value::Int(2)}}}));
  ASSERT_EQ(collapsed[0].updates.size(), 2u);
  const auto& [first_tag, first_item, first_value] = collapsed[0].updates[0];
  const auto& [second_tag, second_item, second_value] =
      collapsed[0].updates[1];
  EXPECT_EQ(first_tag.index, 0u);
  EXPECT_EQ(first_value, Value::Int(1));
  EXPECT_EQ(second_tag.index, 1u);
  EXPECT_EQ(second_value, Value::Int(2));
  EXPECT_EQ(collapsed[0].values.at("IBM"), Value::Int(2));
}

TEST(VtDatabaseTest, TraceRecordsReplaySpansAndFireWitnesses) {
  SimClock clock(0);
  VtDatabase db(&clock, /*max_delay=*/100);
  trace::Recorder rec;
  db.SetTrace(&rec);
  rec.Enable();

  int fired = 0;
  ASSERT_OK(db.AddTentativeTrigger("high", "IBM() > 60",
                                   [&fired](Timestamp) { ++fired; }));
  // A binder over a temporal subformula: its firings carry a chain link
  // with bindings.
  int rose = 0;
  ASSERT_OK(db.AddTentativeTrigger("rise",
                                   "[x := IBM()] PREVIOUSLY IBM() < x - 10",
                                   [&rose](Timestamp) { ++rose; }));
  CommitUpdate(db, clock, 10, "IBM", Value::Int(50), 10);
  CommitUpdate(db, clock, 20, "IBM", Value::Int(70), 20);
  // Retroactive change re-runs the suffix: another kVtReplay span.
  CommitUpdate(db, clock, 30, "IBM", Value::Int(65), 15);
  EXPECT_GT(fired, 0);
  EXPECT_GT(rose, 0);

  std::string jsonl = rec.ToJsonl();
  EXPECT_NE(jsonl.find("\"vt_fire\""), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"monitor\":\"high\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"mode\":\"tentative\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"chain\""), std::string::npos);

  // The first `rise` firing's chain link, field by field.
  std::optional<json::Json> link;
  std::istringstream lines(jsonl);
  for (std::string line; !link && std::getline(lines, line);) {
    ASSERT_OK_AND_ASSIGN(json::Json doc, json::Parse(line));
    const json::Json* kind = doc.Find("kind");
    const json::Json* monitor = doc.Find("monitor");
    if (kind == nullptr || kind->AsString() != "vt_fire" ||
        monitor == nullptr || monitor->AsString() != "rise") {
      continue;
    }
    ASSERT_OK_AND_ASSIGN(const json::Json* chain, doc.Get("chain"));
    ASSERT_TRUE(chain->is_array());
    ASSERT_EQ(chain->size(), 1u) << line;
    link = chain->items()[0];
  }
  ASSERT_TRUE(link.has_value()) << jsonl;
  ASSERT_OK_AND_ASSIGN(const json::Json* op, link->Get("op"));
  EXPECT_EQ(op->AsString(), "previously");
  ASSERT_OK_AND_ASSIGN(const json::Json* sub, link->Get("subformula"));
  EXPECT_EQ(sub->AsString(), "PREVIOUSLY (IBM() < (x - 10))");
  ASSERT_OK_AND_ASSIGN(const json::Json* retained, link->Get("retained"));
  EXPECT_TRUE(retained->is_string());
  EXPECT_FALSE(retained->AsString().empty());
  ASSERT_OK_AND_ASSIGN(const json::Json* anchor_seq, link->Get("anchor_seq"));
  ASSERT_OK_AND_ASSIGN(int64_t seq, anchor_seq->AsInt64());
  ASSERT_OK_AND_ASSIGN(const json::Json* anchor_time,
                       link->Get("anchor_time"));
  ASSERT_OK_AND_ASSIGN(int64_t time, anchor_time->AsInt64());
  // The binder sits outside PREVIOUSLY, so the retained formula stays open
  // in x and no anchor exists; the link reports the firing-state binding.
  EXPECT_EQ(seq, -1);
  EXPECT_EQ(time, 0);
  ASSERT_OK_AND_ASSIGN(const json::Json* binds, link->Get("bindings"));
  ASSERT_TRUE(binds->is_array());
  ASSERT_EQ(binds->size(), 1u);
  const json::Json& bind = binds->items()[0];
  ASSERT_OK_AND_ASSIGN(const json::Json* var, bind.Get("var"));
  EXPECT_EQ(var->AsString(), "x");
  ASSERT_OK_AND_ASSIGN(const json::Json* value, bind.Get("value"));
  ASSERT_OK_AND_ASSIGN(Value bound, trace::DecodeValue(*value));
  EXPECT_EQ(bound, Value::Int(70));
  std::string chrome = rec.ToChromeTrace();
  EXPECT_NE(chrome.find("vt_replay"), std::string::npos) << chrome;

  // vt_fire records are informational: a replay ignores them cleanly.
  ASSERT_OK_AND_ASSIGN(rules::ReplayReport report, rules::TraceReplay(jsonl));
  EXPECT_EQ(report.records, 0u);
  EXPECT_GT(report.ignored, 0u);
  EXPECT_EQ(report.mismatches, 0u);

  // Definite monitors emit under their own kind and only past the horizon.
  size_t before = rec.update_count();
  ASSERT_OK(db.AddDefiniteTrigger("high_def", "IBM() > 60",
                                  [&fired](Timestamp) { ++fired; }));
  clock.Set(200);
  ASSERT_OK(db.AdvanceDefinite());
  EXPECT_GT(rec.update_count(), before);
  EXPECT_NE(rec.ToJsonl().find("\"mode\":\"definite\""), std::string::npos);
  EXPECT_NE(rec.ToChromeTrace().find("vt_definite"), std::string::npos);
}

TEST(VtDatabaseTest, TraceDetachedCostsNothing) {
  SimClock clock(0);
  VtDatabase db(&clock, /*max_delay=*/100);
  trace::Recorder rec;
  db.SetTrace(&rec);  // attached but never enabled
  int fired = 0;
  ASSERT_OK(db.AddTentativeTrigger("high", "IBM() > 60",
                                   [&fired](Timestamp) { ++fired; }));
  CommitUpdate(db, clock, 10, "IBM", Value::Int(70), 10);
  EXPECT_GT(fired, 0);
  EXPECT_EQ(rec.span_count(), 0u);
  EXPECT_EQ(rec.update_count(), 0u);
}

}  // namespace
}  // namespace ptldb::validtime

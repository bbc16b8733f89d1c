// Valid time vs transaction time (§9).
//
// Trades reach the database minutes after they happen: every update carries a
// valid time that may precede the posting time (bounded by the maximum delay
// delta). The example shows
//
//   * a tentative trigger re-evaluating retroactively ("we now know the price
//     spiked at 12:50, even though we learned it at 1:00"),
//   * a definite trigger whose firing is delayed by delta by construction,
//   * the paper's online/offline integrity-constraint example (u1, u2,
//     commit-T2, commit-T1), where the constraint is offline- but not
//     online-satisfied, and
//   * Theorem 2 on the collapsed (transaction-time) history.
//
// Run: ./build/examples/valid_time_trading

#include <cstdio>

#include "common/clock.h"
#include "common/logging.h"
#include "validtime/vt.h"

using namespace ptldb;
using validtime::VtDatabase;
using validtime::VtState;

int main() {
  SimClock clock(0);
  constexpr Timestamp kDelta = 15;  // max posting delay
  VtDatabase db(&clock, kDelta);

  PTLDB_CHECK_OK(db.AddTentativeTrigger(
      "tentative_spike", "IBM() > 100", [](Timestamp at) {
        std::printf(">>> tentative:  IBM above 100 at valid time %lld\n",
                    static_cast<long long>(at));
      }));
  PTLDB_CHECK_OK(db.AddDefiniteTrigger(
      "definite_spike", "IBM() > 100", [](Timestamp at) {
        std::printf(">>> definite:   IBM above 100 at valid time %lld "
                    "(confirmed, >= delta later)\n",
                    static_cast<long long>(at));
      }));

  auto post = [&](Timestamp now, const char* item, int64_t price,
                  Timestamp valid) {
    clock.Set(now);
    auto txn = db.Begin();
    PTLDB_CHECK(txn.ok());
    PTLDB_CHECK_OK(db.Update(*txn, item, Value::Int(price), valid));
    PTLDB_CHECK_OK(db.Commit(*txn));
    std::printf("t=%-3lld posted %s=%lld (valid %lld)\n",
                static_cast<long long>(now), item,
                static_cast<long long>(price), static_cast<long long>(valid));
  };

  std::printf("== a spike arrives late ==\n");
  post(10, "IBM", 90, 10);
  // At t=20 we learn the price was 120 back at t=13 — the tentative trigger
  // fires immediately for the past state; the definite one must wait until
  // t=13 is older than delta.
  post(20, "IBM", 120, 13);
  post(21, "IBM", 95, 21);
  std::printf("-- time passes; definite horizon moves --\n");
  clock.Set(13 + kDelta + 1);
  PTLDB_CHECK_OK(db.AdvanceDefinite());

  std::printf("\n== the paper's online/offline example ==\n");
  SimClock clock2(0);
  VtDatabase db2(&clock2, /*max_delay=*/100);
  clock2.Set(10);
  auto t1 = db2.Begin();
  auto t2 = db2.Begin();
  PTLDB_CHECK(t1.ok() && t2.ok());
  PTLDB_CHECK_OK(db2.Update(*t1, "u1", Value::Int(1), 1));  // u1 at valid 1
  PTLDB_CHECK_OK(db2.Update(*t2, "u2", Value::Int(1), 2));  // u2 at valid 2
  PTLDB_CHECK_OK(db2.Commit(*t2));                          // T2 first
  clock2.Set(20);
  PTLDB_CHECK_OK(db2.Commit(*t1));                          // T1 later
  const char* constraint =
      "NOT PREVIOUSLY (@update('u2') AND NOT PREVIOUSLY @update('u1'))";
  auto online = db2.OnlineSatisfied(constraint);
  auto offline = db2.OfflineSatisfied(constraint);
  PTLDB_CHECK(online.ok() && offline.ok());
  std::printf("constraint: every u2 is preceded by a u1\n");
  std::printf("online-satisfied:  %s   (u1 invisible when T2 commits)\n",
              *online ? "yes" : "no");
  std::printf("offline-satisfied: %s   (in the full history u1 precedes u2)\n",
              *offline ? "yes" : "no");

  std::printf("\n== Theorem 2: collapse to transaction time ==\n");
  auto collapsed = db2.CollapsedCommittedHistory();
  PTLDB_CHECK(collapsed.ok());
  SimClock clock3(0);
  VtDatabase db3(&clock3, 0);
  for (const VtState& s : *collapsed) {
    clock3.Set(s.time);
    auto txn = db3.Begin();
    PTLDB_CHECK(txn.ok());
    for (const auto& [tag, item, value] : s.updates) {
      PTLDB_CHECK_OK(db3.Update(*txn, item, value, s.time));
    }
    PTLDB_CHECK_OK(db3.Commit(*txn));
  }
  auto online3 = db3.OnlineSatisfied(constraint);
  auto offline3 = db3.OfflineSatisfied(constraint);
  PTLDB_CHECK(online3.ok() && offline3.ok());
  std::printf("on the collapsed history: online=%s offline=%s (equal, as "
              "Theorem 2 states)\n",
              *online3 ? "yes" : "no", *offline3 ? "yes" : "no");
  return 0;
}

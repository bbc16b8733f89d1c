// The valid-time system model (§9).
//
// In the transaction-time model (everything under src/db + src/rules) a
// change takes effect when its transaction commits. Here every update carries
// a *valid time* that may precede the current time — "the price of the IBM
// stock is 72, as of 12:50pm, posted at 1pm" — and the system history is
// organized by valid time: a retroactive update inserts into the *middle* of
// the history and changes every later database state.
//
// The module implements the paper's §9 machinery over a store of named scalar
// database items (the §2 model's "database items"; PTL conditions reference
// item X as the 0-ary query `X()`):
//
//   * VtDatabase — transactions posting (item, value, valid-time) updates;
//     maintains the committed history at the current time, the one history
//     every other view is derived from. With a maximum delay delta (§9.2),
//     updates may not reach back more than delta ticks, neither when posted
//     nor when their transaction commits.
//   * Tentative triggers — actions based on tentative values: after a commit
//     the evaluator is re-run "for each state starting with the oldest system
//     state that was updated", implemented with per-state evaluator
//     checkpoints (restore at the retro point, replay the suffix). The
//     trigger fires if the condition is satisfied at any replayed state.
//   * Definite triggers — actions based only on definite values: the
//     evaluator consumes a state only once its timestamp is older than
//     now - delta, so firing is inherently delayed by at least delta.
//   * Integrity-constraint satisfaction (§9.3) — `OnlineSatisfied` and
//     `OfflineSatisfied` implement the two definitions literally (committed
//     history at each commit point vs the committed history at infinity), and
//     `CollapsedCommittedHistory` produces the transaction-time collapse on
//     which Theorem 2 says the two notions coincide. All three are derived
//     from the states' posting tags and commit events.

#ifndef PTLDB_VALIDTIME_VT_H_
#define PTLDB_VALIDTIME_VT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/trace.h"
#include "eval/incremental.h"
#include "event/event.h"
#include "ptl/analyzer.h"

namespace ptldb::validtime {

/// Which transaction posted an update, and the update's place in that
/// transaction's posting order. A transaction's updates land in the states of
/// their valid times, so the tag is what keeps commit membership and posting
/// order recoverable from the history alone.
struct PostingTag {
  int64_t txn = 0;
  uint32_t index = 0;
};

using VtUpdate = std::tuple<PostingTag, std::string, Value>;

/// One state of a valid-time history: the events and committed updates at one
/// instant, plus the resulting item values.
struct VtState {
  Timestamp time = 0;
  /// One `update(item, value)` event per entry of `updates`, in the same
  /// order, interleaved with the `commit(txn)` event of a transaction that
  /// committed at this instant.
  std::vector<event::Event> events;
  /// (tag, item, value) updates taking effect at this instant, in commit
  /// order (later commits win on conflicts at the same instant).
  std::vector<VtUpdate> updates;
  /// Item values after this state.
  std::map<std::string, Value> values;
};

using VtHistory = std::vector<VtState>;

/// Callback when a trigger fires. `at` is the (valid) timestamp of the state
/// satisfying the condition; for tentative triggers this may lie in the past
/// of an earlier notification after a retroactive change.
using VtTriggerFn = std::function<void(Timestamp at)>;

class VtDatabase {
 public:
  /// `max_delay` is the paper's delta: an update's valid time must satisfy
  /// valid_time >= now - max_delay (and <= now). Pass 0 for "no bound"
  /// (definite triggers then cannot be registered).
  VtDatabase(Clock* clock, Timestamp max_delay);

  // ---- Transactions ----

  Result<int64_t> Begin();
  /// Posts `item := value` with the given valid time (checked against the
  /// maximum-delay window). Buffered until commit; aborted updates never
  /// enter any history ("we ignore updates of aborted transactions").
  Status Update(int64_t txn, const std::string& item, Value value,
                Timestamp valid_time);
  /// Commits at the current time. An update whose valid time has fallen
  /// behind commit_time - max_delay by then would land behind the definite
  /// frontier, so the commit fails with OutOfRange and the transaction is
  /// aborted instead.
  Status Commit(int64_t txn);
  Status Abort(int64_t txn);

  /// Advances definite-trigger processing without any new commit (time has
  /// passed, so more states became definite).
  Status AdvanceDefinite();

  /// Drops in-memory states older than now - max_delay (they are immutable
  /// under the maximum-delay assumption, §9.2) along with the tentative
  /// monitors' checkpoints for them. The committed histories are derived
  /// from the states, so once a prefix is dropped CommittedHistoryAt and the
  /// analyses built on it return OutOfRange. Requires max_delay > 0.
  /// Idempotent; called manually or via `auto_compact`.
  Status Compact();

  /// When enabled (and max_delay > 0), Commit() compacts automatically once
  /// the in-memory history exceeds `threshold` states.
  void SetAutoCompact(size_t threshold) { auto_compact_threshold_ = threshold; }

  /// Node-store size above which a monitor's evaluator is compacted after a
  /// replay/step pass. Tentative monitors hold per-state checkpoints, so
  /// their collections go through CollectKeepingCheckpoints (checkpoint node
  /// ids are remapped in place and stay restorable); definite monitors hold
  /// none and collect directly.
  void SetCollectThreshold(size_t nodes) { collect_threshold_ = nodes; }

  /// Evaluator node-store collections across all monitors (proves the
  /// bounded-state policy engages).
  uint64_t collections() const { return collections_; }

  /// Sum of evaluator store sizes across monitors (diagnostics).
  size_t monitor_store_nodes() const;

  /// Number of states currently held in memory (diagnostics; bounded by the
  /// update rate within one delta window when compaction is on).
  size_t live_states() const { return states_.size(); }

  // ---- Triggers ----

  /// Conditions reference item X as the 0-ary query `X()`.
  Status AddTentativeTrigger(const std::string& name, std::string_view condition,
                             VtTriggerFn on_fire);
  Status AddDefiniteTrigger(const std::string& name, std::string_view condition,
                            VtTriggerFn on_fire);

  // ---- Histories and IC satisfaction (offline analyses over the states) ----
  //
  // Each is derived from the whole committed history; after Compact() has
  // dropped a prefix of it they return OutOfRange.

  /// The committed history at transaction time `t`: states with valid
  /// timestamp <= t, containing exactly the updates of transactions that
  /// committed at or before `t`.
  Result<VtHistory> CommittedHistoryAt(Timestamp t) const;

  /// The committed history "at time infinity" (every committed update).
  Result<VtHistory> CommittedHistoryAtInfinity() const;

  /// Commit timestamps of all committed transactions, ascending.
  Result<std::vector<Timestamp>> CommitPoints() const;

  /// The transaction-time collapse: every update takes effect at its
  /// transaction's commit time instead of its valid time, in posting order.
  Result<VtHistory> CollapsedCommittedHistory() const;

  /// §9.3 online satisfaction of a temporal integrity constraint: for every
  /// commit point t, the committed history at t satisfies `constraint`.
  Result<bool> OnlineSatisfied(std::string_view constraint) const;

  /// §9.3 offline satisfaction: for every commit point t, the prefix (up to
  /// t) of the committed history at infinity satisfies `constraint`.
  Result<bool> OfflineSatisfied(std::string_view constraint) const;

  /// Current committed history (diagnostics).
  const VtHistory& current_history() const { return states_; }

  // ---- Tracing ----

  /// Attaches (or detaches, with nullptr) a trace recorder. While the
  /// recorder is enabled, tentative replays and definite advances emit spans
  /// and every trigger firing emits a "vt_fire" record carrying the
  /// evaluator's witness chain. Near-zero cost while disabled.
  void SetTrace(trace::Recorder* recorder) { trace_ = recorder; }
  trace::Recorder* trace() const { return trace_; }

 private:
  // An open transaction's buffered (item, value, valid time) updates.
  using Txn = std::vector<std::tuple<std::string, Value, Timestamp>>;

  struct Monitor {
    std::string name;
    bool definite = false;
    eval::IncrementalEvaluator ev;
    VtTriggerFn on_fire;
    // Tentative: checkpoint taken *after* each consumed state, parallel to
    // states_ (index i = after states_[i]).
    std::vector<eval::IncrementalEvaluator::Checkpoint> checkpoints;
    // Definite: index of the next state to consume.
    size_t frontier = 0;

    Monitor(std::string n, bool def, eval::IncrementalEvaluator e,
            VtTriggerFn f)
        : name(std::move(n)), definite(def), ev(std::move(e)),
          on_fire(std::move(f)) {}
  };

  Result<Txn*> GetTxn(int64_t txn_id);
  /// Inserts one committed update into states_; returns the index of the
  /// affected state.
  size_t InsertUpdate(PostingTag tag, const std::string& item,
                      const Value& value, Timestamp valid_time);
  /// Recomputes `values` from state `from` onward.
  void RecomputeValues(size_t from);
  /// Index of the state at `time`, inserting an empty one if absent.
  size_t StateAt(Timestamp time);

  Status ReplayTentative(Monitor* m, size_t from);
  Status StepDefinite(Monitor* m, Timestamp horizon);
  /// Emits one "vt_fire" trace record for a monitor firing at states_[idx].
  void RecordFire(const Monitor& m, size_t idx);
  static Result<ptl::StateSnapshot> SnapshotFor(const ptl::Analysis& analysis,
                                                const VtState& state,
                                                size_t seq);
  static Result<bool> EvaluateAtEnd(const VtHistory& history,
                                    std::string_view condition);
  /// OutOfRange once Compact() has dropped part of the committed history.
  Status CheckWholeHistory() const;

  Clock* clock_;
  Timestamp max_delay_;
  VtHistory states_;  // committed history at "now" (suffix after compaction)
  // Item values as of just before states_[0] (effect of compacted states).
  std::map<std::string, Value> base_values_;
  std::map<int64_t, Txn> open_txns_;
  std::vector<std::unique_ptr<Monitor>> monitors_;
  int64_t next_txn_id_ = 1;
  size_t auto_compact_threshold_ = 0;  // 0 = manual only
  size_t compacted_states_ = 0;        // absolute seq offset of states_[0]
  size_t collect_threshold_ = 65536;   // see SetCollectThreshold
  uint64_t collections_ = 0;
  trace::Recorder* trace_ = nullptr;   // not owned; null = tracing detached
};

}  // namespace ptldb::validtime

#endif  // PTLDB_VALIDTIME_VT_H_

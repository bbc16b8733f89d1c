// Events and system states — the paper's §2 model.
//
// A system state is a pair (S, E): the database state plus the set of events
// occurring at one instant, stamped with the global clock. Formulas of PTL are
// interpreted over finite sequences of system states (system histories). The
// database state S itself is not copied into history entries; evaluators read
// the *current* database through a StateView and capture whatever past values
// they need (that is exactly what makes the §5 algorithm incremental).

#ifndef PTLDB_EVENT_EVENT_H_
#define PTLDB_EVENT_EVENT_H_

#include <string>
#include <vector>

#include "common/codec.h"
#include "common/value.h"

namespace ptldb::event {

/// A parameterized instantaneous event, e.g. `commit(42)` or
/// `insert("STOCK", "IBM", 72)`.
struct Event {
  std::string name;
  std::vector<Value> params;

  bool operator==(const Event& other) const = default;

  /// `name(p1, p2, ...)` rendering.
  std::string ToString() const;
};

/// Binary encoding of one event (WAL records, checkpoints).
void SerializeEvent(const Event& e, codec::Writer* w);
Result<Event> DeserializeEvent(codec::Reader* r);

// Factory helpers for the built-in event vocabulary. Transaction ids are
// int64.
Event TransactionBegin(int64_t txn_id);
Event AttemptsToCommit(int64_t txn_id);
Event TransactionCommit(int64_t txn_id);
Event TransactionAbort(int64_t txn_id);
Event InsertEvent(const std::string& table);
Event DeleteEvent(const std::string& table);
Event UpdateEvent(const std::string& table);
/// `executed(rule)` — recorded when a rule's action commits (§7).
Event RuleExecuted(const std::string& rule);

// Names of the built-in events, for matching.
inline constexpr const char* kBeginEvent = "begin";
inline constexpr const char* kAttemptsToCommitEvent = "attempts_to_commit";
inline constexpr const char* kCommitEvent = "commit";
inline constexpr const char* kAbortEvent = "abort";
inline constexpr const char* kInsertEvent = "insert";
inline constexpr const char* kDeleteEvent = "delete";
inline constexpr const char* kUpdateEvent = "update";
inline constexpr const char* kRuleExecutedEvent = "executed";

/// The (E, timestamp) part of one system state. `seq` is the position of the
/// state in its history (the paper's index i).
struct SystemState {
  size_t seq = 0;
  Timestamp time = 0;
  std::vector<Event> events;

  /// True when some event matches `name` with the given parameter prefix
  /// (an event `e(a, b, c)` matches `HasEvent("e", {a})`).
  bool HasEvent(const std::string& name,
                const std::vector<Value>& param_prefix = {}) const;

  /// True when this state contains a transaction commit (a "commit point").
  bool IsCommitPoint() const;

  std::string ToString() const;
};

/// The position of a finite sequence of system states, with the paper's
/// invariants: strictly increasing timestamps and at most one commit event
/// per state.
///
/// No state is retained: `Append` stamps the new state and hands it back for
/// the caller to pass on (WAL, version store, temporal component). The
/// collapsed committed history the §9 offline check replays is kept by the
/// version store. A history may start from a checkpoint base (`Reset`), so
/// `size()` and state seq numbers continue the global numbering and
/// formulas' state indexes survive a restart.
class History {
 public:
  /// Appends a state and returns it; enforces the model invariants
  /// (PTLDB_CHECK).
  SystemState Append(Timestamp time, std::vector<Event> events);

  /// Total states ever appended (including those before a checkpoint base).
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  size_t base_seq() const { return base_seq_; }
  /// Timestamp of the last appended state (0 when empty).
  Timestamp last_time() const { return last_time_; }

  /// Checkpoint restore: positions the history at global seq `base_seq` with
  /// last timestamp `last_time`, as if `base_seq` states ending at
  /// `last_time` had been appended.
  void Reset(size_t base_seq, Timestamp last_time);

 private:
  size_t size_ = 0;
  size_t base_seq_ = 0;
  Timestamp last_time_ = 0;
};

}  // namespace ptldb::event

#endif  // PTLDB_EVENT_EVENT_H_

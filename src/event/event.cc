#include "event/event.h"

#include "common/logging.h"
#include "common/strings.h"

namespace ptldb::event {

std::string Event::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(params.size());
  for (const Value& v : params) parts.push_back(v.ToString());
  return StrCat(name, "(", Join(parts, ", "), ")");
}

Event TransactionBegin(int64_t txn_id) {
  return Event{kBeginEvent, {Value::Int(txn_id)}};
}
Event AttemptsToCommit(int64_t txn_id) {
  return Event{kAttemptsToCommitEvent, {Value::Int(txn_id)}};
}
Event TransactionCommit(int64_t txn_id) {
  return Event{kCommitEvent, {Value::Int(txn_id)}};
}
Event TransactionAbort(int64_t txn_id) {
  return Event{kAbortEvent, {Value::Int(txn_id)}};
}
Event InsertEvent(const std::string& table) {
  return Event{kInsertEvent, {Value::Str(table)}};
}
Event DeleteEvent(const std::string& table) {
  return Event{kDeleteEvent, {Value::Str(table)}};
}
Event UpdateEvent(const std::string& table) {
  return Event{kUpdateEvent, {Value::Str(table)}};
}
Event RuleExecuted(const std::string& rule) {
  return Event{kRuleExecutedEvent, {Value::Str(rule)}};
}

void SerializeEvent(const Event& e, codec::Writer* w) {
  w->Str(e.name);
  w->ValVec(e.params);
}

Result<Event> DeserializeEvent(codec::Reader* r) {
  Event e;
  PTLDB_ASSIGN_OR_RETURN(e.name, r->Str());
  PTLDB_ASSIGN_OR_RETURN(e.params, r->ValVec());
  return e;
}

bool SystemState::HasEvent(const std::string& name,
                           const std::vector<Value>& param_prefix) const {
  for (const Event& e : events) {
    if (e.name != name) continue;
    if (e.params.size() < param_prefix.size()) continue;
    bool match = true;
    for (size_t i = 0; i < param_prefix.size(); ++i) {
      if (e.params[i] != param_prefix[i]) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

bool SystemState::IsCommitPoint() const { return HasEvent(kCommitEvent); }

std::string SystemState::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(events.size());
  for (const Event& e : events) parts.push_back(e.ToString());
  return StrCat("[#", seq, " t=", time, " {", Join(parts, ", "), "}]");
}

SystemState History::Append(Timestamp time, std::vector<Event> events) {
  if (!empty()) {
    PTLDB_CHECK(time > last_time_ &&
                "system state timestamps must be strictly increasing");
  }
  int commits = 0;
  for (const Event& e : events) {
    if (e.name == kCommitEvent) ++commits;
  }
  PTLDB_CHECK(commits <= 1 && "at most one transaction commit per state");
  SystemState s;
  s.seq = size_++;
  s.time = time;
  s.events = std::move(events);
  last_time_ = time;
  return s;
}

void History::Reset(size_t base_seq, Timestamp last_time) {
  size_ = base_seq;
  base_seq_ = base_seq;
  last_time_ = last_time;
}

}  // namespace ptldb::event

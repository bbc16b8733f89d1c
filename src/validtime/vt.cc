#include "validtime/vt.h"

#include <algorithm>
#include <limits>
#include <tuple>

#include "common/logging.h"
#include "common/strings.h"
#include "ptl/naive_eval.h"
#include "ptl/parser.h"

namespace ptldb::validtime {

namespace {

// Validates that a condition over a valid-time store only uses 0-ary item
// queries, and returns its analysis.
Result<ptl::Analysis> AnalyzeItemCondition(std::string_view condition) {
  PTLDB_ASSIGN_OR_RETURN(ptl::FormulaPtr f, ptl::ParseFormula(condition));
  PTLDB_ASSIGN_OR_RETURN(ptl::Analysis analysis, ptl::Analyze(std::move(f)));
  for (const ptl::QuerySpec& spec : analysis.slots) {
    if (!spec.args.empty()) {
      return Status::InvalidArgument(
          StrCat("valid-time conditions reference items as 0-ary queries; '",
                 spec.ToString(), "' has arguments"));
    }
  }
  return analysis;
}

}  // namespace

VtDatabase::VtDatabase(Clock* clock, Timestamp max_delay)
    : clock_(clock), max_delay_(max_delay) {}

Result<int64_t> VtDatabase::Begin() {
  int64_t id = next_txn_id_++;
  Txn txn;
  txn.id = id;
  open_txns_.emplace(id, std::move(txn));
  return id;
}

Result<VtDatabase::Txn*> VtDatabase::GetTxn(int64_t txn_id) {
  auto it = open_txns_.find(txn_id);
  if (it == open_txns_.end()) {
    return Status::NotFound(StrCat("no open transaction with id ", txn_id));
  }
  return &it->second;
}

Status VtDatabase::Update(int64_t txn_id, const std::string& item, Value value,
                          Timestamp valid_time) {
  PTLDB_ASSIGN_OR_RETURN(Txn * txn, GetTxn(txn_id));
  Timestamp now = clock_->Now();
  if (valid_time > now) {
    return Status::InvalidArgument(
        StrCat("valid time ", valid_time, " lies in the future (now = ", now,
               "); proactive updates are out of scope"));
  }
  if (max_delay_ > 0 && valid_time < now - max_delay_) {
    return Status::OutOfRange(
        StrCat("valid time ", valid_time, " violates the maximum delay: now (",
               now, ") - delta (", max_delay_, ") = ", now - max_delay_));
  }
  txn->updates.emplace_back(item, std::move(value), valid_time);
  return Status::OK();
}

Status VtDatabase::RaiseEvent(int64_t txn_id, event::Event e,
                              Timestamp valid_time) {
  PTLDB_ASSIGN_OR_RETURN(Txn * txn, GetTxn(txn_id));
  Timestamp now = clock_->Now();
  if (valid_time > now) {
    return Status::InvalidArgument("event valid time lies in the future");
  }
  if (max_delay_ > 0 && valid_time < now - max_delay_) {
    return Status::OutOfRange("event valid time violates the maximum delay");
  }
  txn->events.emplace_back(std::move(e), valid_time);
  return Status::OK();
}

size_t VtDatabase::StateAt(Timestamp time) {
  auto it = std::lower_bound(
      states_.begin(), states_.end(), time,
      [](const VtState& s, Timestamp t) { return s.time < t; });
  size_t idx = static_cast<size_t>(it - states_.begin());
  if (it != states_.end() && it->time == time) return idx;
  VtState s;
  s.time = time;
  states_.insert(it, std::move(s));
  return idx;
}

size_t VtDatabase::InsertUpdate(const std::string& item, const Value& value,
                                Timestamp valid_time) {
  size_t idx = StateAt(valid_time);
  states_[idx].events.push_back(
      event::Event{event::kUpdateEvent, {Value::Str(item), value}});
  states_[idx].updates.emplace_back(item, value);
  return idx;
}

size_t VtDatabase::InsertEvent(const event::Event& e, Timestamp valid_time) {
  size_t idx = StateAt(valid_time);
  states_[idx].events.push_back(e);
  return idx;
}

void VtDatabase::RecomputeValues(size_t from) {
  std::map<std::string, Value> values =
      from == 0 ? base_values_ : states_[from - 1].values;
  for (size_t i = from; i < states_.size(); ++i) {
    for (const auto& [item, value] : states_[i].updates) {
      values[item] = value;
    }
    states_[i].values = values;
  }
}

Status VtDatabase::Commit(int64_t txn_id) {
  PTLDB_ASSIGN_OR_RETURN(Txn * txn, GetTxn(txn_id));
  // Commit timestamps are strictly increasing and strictly later than any
  // state already in the history (at most one commit per state, §2).
  Timestamp commit_time = clock_->Now();
  if (!states_.empty() && commit_time <= states_.back().time) {
    commit_time = states_.back().time + 1;
  }
  if (!log_.empty() && commit_time <= log_.back().commit_time) {
    commit_time = log_.back().commit_time + 1;
  }

  size_t min_affected = states_.size();
  for (const auto& [item, value, valid_time] : txn->updates) {
    min_affected = std::min(min_affected, InsertUpdate(item, value, valid_time));
  }
  for (const auto& [e, valid_time] : txn->events) {
    min_affected = std::min(min_affected, InsertEvent(e, valid_time));
  }
  // The commit event itself occurs "now", at the end of the history.
  size_t commit_idx = StateAt(commit_time);
  states_[commit_idx].events.push_back(event::TransactionCommit(txn_id));
  min_affected = std::min(min_affected, commit_idx);
  RecomputeValues(min_affected);

  CommittedTxn record;
  record.id = txn_id;
  record.commit_time = commit_time;
  record.updates = std::move(txn->updates);
  record.events = std::move(txn->events);
  log_.push_back(std::move(record));
  open_txns_.erase(txn_id);

  // Notify monitors: tentative ones replay from the earliest changed state,
  // definite ones advance their frontier.
  for (const auto& m : monitors_) {
    if (m->definite) {
      PTLDB_RETURN_IF_ERROR(
          StepDefinite(m.get(), clock_->Now() - max_delay_));
    } else {
      PTLDB_RETURN_IF_ERROR(ReplayTentative(m.get(), min_affected));
    }
  }
  if (auto_compact_threshold_ > 0 && max_delay_ > 0 &&
      states_.size() > auto_compact_threshold_) {
    PTLDB_RETURN_IF_ERROR(Compact());
  }
  return Status::OK();
}

Status VtDatabase::Compact() {
  if (max_delay_ == 0) {
    return Status::InvalidArgument(
        "compaction requires a maximum delay (delta > 0): without it any "
        "state may still change retroactively");
  }
  Timestamp horizon = clock_->Now() - max_delay_;
  // States with time < horizon can no longer be touched by retro updates.
  size_t keep_from = 0;
  while (keep_from < states_.size() && states_[keep_from].time < horizon) {
    ++keep_from;
  }
  if (keep_from == 0) return Status::OK();
  // Definite monitors must have consumed the dropped prefix first.
  for (const auto& m : monitors_) {
    if (m->definite && m->frontier < keep_from) {
      PTLDB_RETURN_IF_ERROR(StepDefinite(m.get(), horizon));
    }
  }
  base_values_ = states_[keep_from - 1].values;
  states_.erase(states_.begin(),
                states_.begin() + static_cast<ptrdiff_t>(keep_from));
  compacted_states_ += keep_from;
  for (const auto& m : monitors_) {
    if (m->definite) {
      m->frontier = m->frontier >= keep_from ? m->frontier - keep_from : 0;
    } else {
      // checkpoints[i] = state before states_[i]; drop the prefix so
      // checkpoints[0] is again "before the first in-memory state".
      PTLDB_CHECK(m->checkpoints.size() >= 1);
      size_t drop = std::min(keep_from, m->checkpoints.size() - 1);
      m->checkpoints.erase(m->checkpoints.begin(),
                           m->checkpoints.begin() + static_cast<ptrdiff_t>(drop));
      // With the old checkpoints gone, the evaluator's node store can be
      // compacted too (the checkpoints' node ids are remapped in place).
      std::vector<eval::IncrementalEvaluator::Checkpoint*> keep;
      keep.reserve(m->checkpoints.size());
      for (auto& cp : m->checkpoints) keep.push_back(&cp);
      PTLDB_RETURN_IF_ERROR(m->ev.CollectKeepingCheckpoints(std::move(keep)));
      ++collections_;
    }
  }
  return Status::OK();
}

size_t VtDatabase::monitor_store_nodes() const {
  size_t total = 0;
  for (const auto& m : monitors_) total += m->ev.StoreNodeCount();
  return total;
}

Status VtDatabase::Abort(int64_t txn_id) {
  PTLDB_ASSIGN_OR_RETURN(Txn * txn, GetTxn(txn_id));
  (void)txn;  // buffered updates are simply dropped
  open_txns_.erase(txn_id);
  return Status::OK();
}

Status VtDatabase::AdvanceDefinite() {
  for (const auto& m : monitors_) {
    if (m->definite) {
      PTLDB_RETURN_IF_ERROR(StepDefinite(m.get(), clock_->Now() - max_delay_));
    }
  }
  return Status::OK();
}

// ---- Triggers ---------------------------------------------------------------

Status VtDatabase::AddTentativeTrigger(const std::string& name,
                                       std::string_view condition,
                                       VtTriggerFn on_fire) {
  PTLDB_ASSIGN_OR_RETURN(ptl::Analysis analysis,
                         AnalyzeItemCondition(condition));
  PTLDB_ASSIGN_OR_RETURN(eval::IncrementalEvaluator ev,
                         eval::IncrementalEvaluator::Make(std::move(analysis)));
  auto monitor = std::make_unique<Monitor>(name, /*definite=*/false,
                                           std::move(ev), std::move(on_fire));
  monitor->checkpoints.push_back(monitor->ev.Save());  // before any state
  Monitor* m = monitor.get();
  monitors_.push_back(std::move(monitor));
  // Catch up on the existing history.
  return ReplayTentative(m, 0);
}

Status VtDatabase::AddDefiniteTrigger(const std::string& name,
                                      std::string_view condition,
                                      VtTriggerFn on_fire) {
  if (max_delay_ == 0) {
    return Status::InvalidArgument(
        "definite triggers require a maximum delay (delta > 0): without it no "
        "value ever becomes definite");
  }
  PTLDB_ASSIGN_OR_RETURN(ptl::Analysis analysis,
                         AnalyzeItemCondition(condition));
  PTLDB_ASSIGN_OR_RETURN(eval::IncrementalEvaluator ev,
                         eval::IncrementalEvaluator::Make(std::move(analysis)));
  auto monitor = std::make_unique<Monitor>(name, /*definite=*/true,
                                           std::move(ev), std::move(on_fire));
  Monitor* m = monitor.get();
  monitors_.push_back(std::move(monitor));
  return StepDefinite(m, clock_->Now() - max_delay_);
}

Result<ptl::StateSnapshot> VtDatabase::SnapshotFor(
    const ptl::Analysis& analysis, const VtState& state, size_t seq) {
  ptl::StateSnapshot snapshot;
  snapshot.seq = seq;
  snapshot.time = state.time;
  snapshot.events = state.events;
  snapshot.query_values.reserve(analysis.slots.size());
  for (const ptl::QuerySpec& spec : analysis.slots) {
    auto it = state.values.find(spec.name);
    snapshot.query_values.push_back(it == state.values.end() ? Value::Null()
                                                             : it->second);
  }
  return snapshot;
}

void VtDatabase::RecordFire(const Monitor& m, size_t idx) {
  // The engine's witness chain encoding, under its own "vt_fire" kind:
  // TraceReplay skips it (valid-time replays revisit states, so the records
  // are not a linear history), yet the chain still explains the firing.
  json::Json doc = json::Json::Object();
  doc.Set("kind", json::Json::Str("vt_fire"));
  doc.Set("monitor", json::Json::Str(m.name));
  doc.Set("mode", json::Json::Str(m.definite ? "definite" : "tentative"));
  doc.Set("condition", json::Json::Str(m.ev.analysis().root->ToString()));
  doc.Set("seq",
          json::Json::Int(static_cast<int64_t>(compacted_states_ + idx)));
  doc.Set("time", json::Json::Int(states_[idx].time));
  doc.Set("chain", eval::WitnessChainToJson(m.ev.WitnessChain()));
  trace_->RecordUpdate(std::move(doc));
}

Status VtDatabase::ReplayTentative(Monitor* m, size_t from) {
  const bool tracing = trace_ != nullptr && trace_->enabled();
  m->ev.set_tracing(tracing);
  trace::ScopedSpan span(trace_, trace::SpanKind::kVtReplay, m->name);
  // Restore to the checkpoint taken before states_[from] and replay the
  // suffix (§9.2: "performs the evaluation algorithm for each state starting
  // with the oldest system state that was updated").
  if (from + 1 < m->checkpoints.size()) {
    PTLDB_RETURN_IF_ERROR(m->ev.Restore(m->checkpoints[from]));
    m->checkpoints.resize(from + 1);
  }
  size_t start = m->checkpoints.size() - 1;  // next state index to consume
  if (span.active()) {
    span.set_detail(StrCat("replay states ", compacted_states_ + start, "..",
                           compacted_states_ + states_.size()));
  }
  for (size_t i = start; i < states_.size(); ++i) {
    PTLDB_ASSIGN_OR_RETURN(
        ptl::StateSnapshot snapshot,
        SnapshotFor(m->ev.analysis(), states_[i], i));
    PTLDB_ASSIGN_OR_RETURN(bool fired, m->ev.Step(snapshot));
    m->checkpoints.push_back(m->ev.Save());
    if (fired && m->on_fire) {
      if (tracing) RecordFire(*m, i);
      m->on_fire(states_[i].time);
    }
  }
  // Replays never collected before, so a long-lived tentative monitor's node
  // store grew without bound between (optional) Compact() calls. Collect
  // checkpoint-safely once the store passes the threshold: every retained
  // per-state checkpoint is remapped in place and stays restorable.
  if (m->ev.StoreNodeCount() > collect_threshold_) {
    std::vector<eval::IncrementalEvaluator::Checkpoint*> keep;
    keep.reserve(m->checkpoints.size());
    for (auto& cp : m->checkpoints) keep.push_back(&cp);
    PTLDB_RETURN_IF_ERROR(m->ev.CollectKeepingCheckpoints(std::move(keep)));
    ++collections_;
  }
  return Status::OK();
}

Status VtDatabase::StepDefinite(Monitor* m, Timestamp horizon) {
  const bool tracing = trace_ != nullptr && trace_->enabled();
  m->ev.set_tracing(tracing);
  trace::ScopedSpan span(trace_, trace::SpanKind::kVtDefinite, m->name);
  size_t consumed = 0;
  // Only states strictly older than now - delta are final (an update at
  // valid time v may still arrive while now <= v + delta).
  while (m->frontier < states_.size() &&
         states_[m->frontier].time < horizon) {
    PTLDB_ASSIGN_OR_RETURN(
        ptl::StateSnapshot snapshot,
        SnapshotFor(m->ev.analysis(), states_[m->frontier], m->frontier));
    PTLDB_ASSIGN_OR_RETURN(bool fired, m->ev.Step(snapshot));
    if (fired && m->on_fire) {
      if (tracing) RecordFire(*m, m->frontier);
      m->on_fire(states_[m->frontier].time);
    }
    ++m->frontier;
    ++consumed;
  }
  if (span.active()) {
    span.set_detail(StrCat("advanced ", consumed, " state(s); frontier=",
                           compacted_states_ + m->frontier));
  }
  // Definite monitors hold no checkpoints; a plain collection bounds them.
  if (m->ev.MaybeCollect(collect_threshold_)) ++collections_;
  return Status::OK();
}

// ---- Durability -------------------------------------------------------------

namespace {

void WriteValueMap(const std::map<std::string, Value>& m, codec::Writer* w) {
  w->U32(static_cast<uint32_t>(m.size()));
  for (const auto& [k, v] : m) {
    w->Str(k);
    w->Val(v);
  }
}

Result<std::map<std::string, Value>> ReadValueMap(codec::Reader* r) {
  PTLDB_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  std::map<std::string, Value> m;
  for (uint32_t i = 0; i < n; ++i) {
    PTLDB_ASSIGN_OR_RETURN(std::string k, r->Str());
    PTLDB_ASSIGN_OR_RETURN(Value v, r->Val());
    m.emplace(std::move(k), std::move(v));
  }
  return m;
}

}  // namespace

Status VtDatabase::SerializeState(codec::Writer* w) const {
  if (!open_txns_.empty()) {
    return Status::InvalidArgument(
        StrCat("cannot serialize a valid-time database with ",
               open_txns_.size(), " open transaction(s)"));
  }
  w->I64(max_delay_);
  w->I64(next_txn_id_);
  w->U64(compacted_states_);
  w->U64(collections_);
  WriteValueMap(base_values_, w);
  w->U32(static_cast<uint32_t>(states_.size()));
  for (const VtState& s : states_) {
    w->I64(s.time);
    w->U32(static_cast<uint32_t>(s.events.size()));
    for (const event::Event& e : s.events) event::SerializeEvent(e, w);
    w->U32(static_cast<uint32_t>(s.updates.size()));
    for (const auto& [item, value] : s.updates) {
      w->Str(item);
      w->Val(value);
    }
    WriteValueMap(s.values, w);
  }
  w->U32(static_cast<uint32_t>(log_.size()));
  for (const CommittedTxn& txn : log_) {
    w->I64(txn.id);
    w->I64(txn.commit_time);
    w->U32(static_cast<uint32_t>(txn.updates.size()));
    for (const auto& [item, value, valid_time] : txn.updates) {
      w->Str(item);
      w->Val(value);
      w->I64(valid_time);
    }
    w->U32(static_cast<uint32_t>(txn.events.size()));
    for (const auto& [e, valid_time] : txn.events) {
      event::SerializeEvent(e, w);
      w->I64(valid_time);
    }
  }
  w->U32(static_cast<uint32_t>(monitors_.size()));
  for (const auto& m : monitors_) {
    w->Str(m->name);
    w->Bool(m->definite);
    w->Str(m->ev.analysis().root->ToString());
    w->U64(m->frontier);
    m->ev.SerializeState(w);
    w->U32(static_cast<uint32_t>(m->checkpoints.size()));
    for (const auto& cp : m->checkpoints) m->ev.SerializeCheckpoint(cp, w);
  }
  return Status::OK();
}

Status VtDatabase::RestoreState(codec::Reader* r) {
  if (!open_txns_.empty()) {
    return Status::InvalidArgument(
        "cannot restore into a valid-time database with open transactions");
  }
  PTLDB_ASSIGN_OR_RETURN(Timestamp max_delay, r->I64());
  if (max_delay != max_delay_) {
    return Status::InvalidArgument(
        StrCat("checkpoint was taken with max_delay=", max_delay,
               " but this database was built with max_delay=", max_delay_));
  }
  PTLDB_ASSIGN_OR_RETURN(next_txn_id_, r->I64());
  PTLDB_ASSIGN_OR_RETURN(compacted_states_, r->U64());
  PTLDB_ASSIGN_OR_RETURN(collections_, r->U64());
  PTLDB_ASSIGN_OR_RETURN(base_values_, ReadValueMap(r));
  PTLDB_ASSIGN_OR_RETURN(uint32_t num_states, r->U32());
  states_.clear();
  for (uint32_t i = 0; i < num_states; ++i) {
    VtState s;
    PTLDB_ASSIGN_OR_RETURN(s.time, r->I64());
    PTLDB_ASSIGN_OR_RETURN(uint32_t num_events, r->U32());
    for (uint32_t j = 0; j < num_events; ++j) {
      PTLDB_ASSIGN_OR_RETURN(event::Event e, event::DeserializeEvent(r));
      s.events.push_back(std::move(e));
    }
    PTLDB_ASSIGN_OR_RETURN(uint32_t num_updates, r->U32());
    for (uint32_t j = 0; j < num_updates; ++j) {
      PTLDB_ASSIGN_OR_RETURN(std::string item, r->Str());
      PTLDB_ASSIGN_OR_RETURN(Value value, r->Val());
      s.updates.emplace_back(std::move(item), std::move(value));
    }
    PTLDB_ASSIGN_OR_RETURN(s.values, ReadValueMap(r));
    states_.push_back(std::move(s));
  }
  PTLDB_ASSIGN_OR_RETURN(uint32_t num_log, r->U32());
  log_.clear();
  for (uint32_t i = 0; i < num_log; ++i) {
    CommittedTxn txn;
    PTLDB_ASSIGN_OR_RETURN(txn.id, r->I64());
    PTLDB_ASSIGN_OR_RETURN(txn.commit_time, r->I64());
    PTLDB_ASSIGN_OR_RETURN(uint32_t num_updates, r->U32());
    for (uint32_t j = 0; j < num_updates; ++j) {
      PTLDB_ASSIGN_OR_RETURN(std::string item, r->Str());
      PTLDB_ASSIGN_OR_RETURN(Value value, r->Val());
      PTLDB_ASSIGN_OR_RETURN(Timestamp valid_time, r->I64());
      txn.updates.emplace_back(std::move(item), std::move(value), valid_time);
    }
    PTLDB_ASSIGN_OR_RETURN(uint32_t num_events, r->U32());
    for (uint32_t j = 0; j < num_events; ++j) {
      PTLDB_ASSIGN_OR_RETURN(event::Event e, event::DeserializeEvent(r));
      PTLDB_ASSIGN_OR_RETURN(Timestamp valid_time, r->I64());
      txn.events.emplace_back(std::move(e), valid_time);
    }
    log_.push_back(std::move(txn));
  }
  PTLDB_ASSIGN_OR_RETURN(uint32_t num_monitors, r->U32());
  for (uint32_t i = 0; i < num_monitors; ++i) {
    PTLDB_ASSIGN_OR_RETURN(std::string name, r->Str());
    PTLDB_ASSIGN_OR_RETURN(bool definite, r->Bool());
    PTLDB_ASSIGN_OR_RETURN(std::string condition, r->Str());
    PTLDB_ASSIGN_OR_RETURN(uint64_t frontier, r->U64());
    Monitor* monitor = nullptr;
    for (const auto& m : monitors_) {
      if (m->name == name) {
        monitor = m.get();
        break;
      }
    }
    if (monitor == nullptr) {
      return Status::NotFound(
          StrCat("checkpoint holds state for valid-time trigger '", name,
                 "', which is not registered — re-register every trigger "
                 "before restoring"));
    }
    if (monitor->definite != definite) {
      return Status::InvalidArgument(
          StrCat("trigger '", name,
                 "': definite/tentative mode differs from the checkpoint"));
    }
    std::string live_condition = monitor->ev.analysis().root->ToString();
    if (live_condition != condition) {
      return Status::InvalidArgument(
          StrCat("trigger '", name, "': registered condition `",
                 live_condition, "` differs from the checkpointed condition `",
                 condition, "`"));
    }
    monitor->frontier = frontier;
    PTLDB_RETURN_IF_ERROR(monitor->ev.RestoreState(r));
    PTLDB_ASSIGN_OR_RETURN(uint32_t num_checkpoints, r->U32());
    monitor->checkpoints.clear();
    for (uint32_t j = 0; j < num_checkpoints; ++j) {
      PTLDB_ASSIGN_OR_RETURN(eval::IncrementalEvaluator::Checkpoint cp,
                             monitor->ev.DeserializeCheckpoint(r));
      monitor->checkpoints.push_back(std::move(cp));
    }
  }
  return Status::OK();
}

// ---- Histories and satisfaction ----------------------------------------------

VtHistory VtDatabase::CommittedHistoryAt(Timestamp t) const {
  std::map<Timestamp, VtState> by_time;
  auto state_at = [&by_time](Timestamp time) -> VtState& {
    VtState& s = by_time[time];
    s.time = time;
    return s;
  };
  for (const CommittedTxn& txn : log_) {
    if (txn.commit_time > t) continue;
    for (const auto& [item, value, valid_time] : txn.updates) {
      VtState& s = state_at(valid_time);
      s.events.push_back(
          event::Event{event::kUpdateEvent, {Value::Str(item), value}});
      s.updates.emplace_back(item, value);
    }
    for (const auto& [e, valid_time] : txn.events) {
      state_at(valid_time).events.push_back(e);
    }
    state_at(txn.commit_time)
        .events.push_back(event::TransactionCommit(txn.id));
  }
  VtHistory history;
  history.reserve(by_time.size());
  std::map<std::string, Value> values;
  for (auto& [time, state] : by_time) {
    if (time > t) break;
    for (const auto& [item, value] : state.updates) values[item] = value;
    state.values = values;
    history.push_back(std::move(state));
  }
  return history;
}

VtHistory VtDatabase::CommittedHistoryAtInfinity() const {
  return CommittedHistoryAt(std::numeric_limits<Timestamp>::max());
}

std::vector<Timestamp> VtDatabase::CommitPoints() const {
  std::vector<Timestamp> points;
  points.reserve(log_.size());
  for (const CommittedTxn& txn : log_) points.push_back(txn.commit_time);
  return points;  // log_ is in commit order
}

VtHistory VtDatabase::CollapsedCommittedHistory() const {
  VtHistory history;
  std::map<std::string, Value> values;
  for (const CommittedTxn& txn : log_) {
    VtState s;
    s.time = txn.commit_time;
    s.events.push_back(event::TransactionCommit(txn.id));
    for (const auto& [item, value, valid_time] : txn.updates) {
      (void)valid_time;  // the collapse applies changes at commit time
      s.events.push_back(
          event::Event{event::kUpdateEvent, {Value::Str(item), value}});
      s.updates.emplace_back(item, value);
      values[item] = value;
    }
    for (const auto& [e, valid_time] : txn.events) {
      (void)valid_time;
      s.events.push_back(e);
    }
    s.values = values;
    history.push_back(std::move(s));
  }
  return history;
}

Result<bool> VtDatabase::EvaluateAtEnd(const VtHistory& history,
                                       std::string_view condition) {
  PTLDB_ASSIGN_OR_RETURN(ptl::Analysis analysis,
                         AnalyzeItemCondition(condition));
  ptl::NaiveEvaluator ev(&analysis);
  for (size_t i = 0; i < history.size(); ++i) {
    PTLDB_ASSIGN_OR_RETURN(ptl::StateSnapshot snapshot,
                           SnapshotFor(analysis, history[i], i));
    ev.Observe(std::move(snapshot));
  }
  if (history.empty()) return true;  // vacuously satisfied
  return ev.SatisfiedAtEnd();
}

Result<bool> VtDatabase::OnlineSatisfied(std::string_view constraint) const {
  for (Timestamp t : CommitPoints()) {
    PTLDB_ASSIGN_OR_RETURN(bool ok, EvaluateAtEnd(CommittedHistoryAt(t),
                                                  constraint));
    if (!ok) return false;
  }
  return true;
}

Result<bool> VtDatabase::OfflineSatisfied(std::string_view constraint) const {
  VtHistory full = CommittedHistoryAtInfinity();
  for (Timestamp t : CommitPoints()) {
    VtHistory prefix;
    for (const VtState& s : full) {
      if (s.time > t) break;
      prefix.push_back(s);
    }
    PTLDB_ASSIGN_OR_RETURN(bool ok, EvaluateAtEnd(prefix, constraint));
    if (!ok) return false;
  }
  return true;
}

Result<bool> VtDatabase::SatisfiedAtCommitPoints(const VtHistory& history,
                                                 std::string_view constraint) {
  for (size_t i = 0; i < history.size(); ++i) {
    bool is_commit_point = false;
    for (const event::Event& e : history[i].events) {
      if (e.name == event::kCommitEvent) {
        is_commit_point = true;
        break;
      }
    }
    if (!is_commit_point) continue;
    VtHistory prefix(history.begin(), history.begin() + static_cast<ptrdiff_t>(i) + 1);
    PTLDB_ASSIGN_OR_RETURN(bool ok, EvaluateAtEnd(prefix, constraint));
    if (!ok) return false;
  }
  return true;
}

}  // namespace ptldb::validtime

#include "validtime/vt.h"

#include <algorithm>
#include <limits>
#include <set>
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

bool IsCommit(const event::Event& e) { return e.name == event::kCommitEvent; }

}  // namespace

VtDatabase::VtDatabase(Clock* clock, Timestamp max_delay)
    : clock_(clock), max_delay_(max_delay) {}

Result<int64_t> VtDatabase::Begin() {
  int64_t id = next_txn_id_++;
  open_txns_.emplace(id, Txn{});
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
  txn->emplace_back(item, std::move(value), valid_time);
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

size_t VtDatabase::InsertUpdate(PostingTag tag, const std::string& item,
                                const Value& value, Timestamp valid_time) {
  size_t idx = StateAt(valid_time);
  states_[idx].events.push_back(
      event::Event{event::kUpdateEvent, {Value::Str(item), value}});
  states_[idx].updates.emplace_back(tag, item, value);
  return idx;
}

void VtDatabase::RecomputeValues(size_t from) {
  std::map<std::string, Value> values =
      from == 0 ? base_values_ : states_[from - 1].values;
  for (size_t i = from; i < states_.size(); ++i) {
    for (const auto& [tag, item, value] : states_[i].updates) {
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
  // Recheck the maximum delay against the commit time: an update that has
  // fallen out of the window would land behind the definite monitors'
  // frontier (and behind compaction), where no trigger would ever see it.
  if (max_delay_ > 0) {
    for (const auto& [item, value, valid_time] : *txn) {
      if (valid_time >= commit_time - max_delay_) continue;
      Status late = Status::OutOfRange(StrCat(
          "transaction ", txn_id, " aborted: the valid time ", valid_time,
          " of its update to '", item, "' violates the maximum delay at commit "
          "time ", commit_time, " (delta ", max_delay_, ")"));
      open_txns_.erase(txn_id);
      return late;
    }
  }

  size_t min_affected = states_.size();
  for (uint32_t i = 0; i < txn->size(); ++i) {
    const auto& [item, value, valid_time] = (*txn)[i];
    min_affected = std::min(
        min_affected,
        InsertUpdate(PostingTag{txn_id, i}, item, value, valid_time));
  }
  // The commit event itself occurs "now", at the end of the history.
  size_t commit_idx = StateAt(commit_time);
  states_[commit_idx].events.push_back(event::TransactionCommit(txn_id));
  min_affected = std::min(min_affected, commit_idx);
  RecomputeValues(min_affected);
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
  PTLDB_RETURN_IF_ERROR(GetTxn(txn_id).status());
  open_txns_.erase(txn_id);  // buffered updates are simply dropped
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

// ---- Histories and satisfaction ----------------------------------------------

Status VtDatabase::CheckWholeHistory() const {
  if (compacted_states_ == 0) return Status::OK();
  return Status::OutOfRange(
      StrCat("the committed history is incomplete: Compact() dropped its "
             "first ", compacted_states_, " state(s)"));
}

Result<VtHistory> VtDatabase::CommittedHistoryAt(Timestamp t) const {
  PTLDB_RETURN_IF_ERROR(CheckWholeHistory());
  // Commit times ascend with the states, so the transactions committed by t
  // are those whose commit event lies in a state at or before t.
  std::set<int64_t> committed;
  size_t end = 0;
  for (; end < states_.size() && states_[end].time <= t; ++end) {
    for (const event::Event& e : states_[end].events) {
      if (IsCommit(e)) committed.insert(e.params[0].AsInt());
    }
  }
  VtHistory history;
  std::map<std::string, Value> values;
  for (size_t i = 0; i < end; ++i) {
    const VtState& s = states_[i];
    VtState kept;
    kept.time = s.time;
    auto update = s.updates.begin();  // the update behind each update event
    for (const event::Event& e : s.events) {
      if (!IsCommit(e)) {
        const auto& [tag, item, value] = *update++;
        if (!committed.contains(tag.txn)) continue;
        kept.updates.emplace_back(tag, item, value);
        values[item] = value;
      }
      kept.events.push_back(e);
    }
    if (kept.events.empty()) continue;
    kept.values = values;
    history.push_back(std::move(kept));
  }
  return history;
}

Result<VtHistory> VtDatabase::CommittedHistoryAtInfinity() const {
  return CommittedHistoryAt(std::numeric_limits<Timestamp>::max());
}

Result<std::vector<Timestamp>> VtDatabase::CommitPoints() const {
  PTLDB_RETURN_IF_ERROR(CheckWholeHistory());
  std::vector<Timestamp> points;
  for (const VtState& s : states_) {
    if (std::any_of(s.events.begin(), s.events.end(), IsCommit)) {
      points.push_back(s.time);
    }
  }
  return points;
}

Result<VtHistory> VtDatabase::CollapsedCommittedHistory() const {
  PTLDB_RETURN_IF_ERROR(CheckWholeHistory());
  // Each transaction's updates, gathered from their valid-time states and
  // put back in posting order.
  std::map<int64_t, std::vector<const VtUpdate*>> posted;
  for (const VtState& s : states_) {
    for (const VtUpdate& u : s.updates) {
      posted[std::get<0>(u).txn].push_back(&u);
    }
  }
  for (auto& [txn, updates] : posted) {
    std::sort(updates.begin(), updates.end(),
              [](const VtUpdate* a, const VtUpdate* b) {
                return std::get<0>(*a).index < std::get<0>(*b).index;
              });
  }
  VtHistory history;
  std::map<std::string, Value> values;
  for (const VtState& s : states_) {
    for (const event::Event& e : s.events) {
      if (!IsCommit(e)) continue;
      VtState collapsed;
      collapsed.time = s.time;
      collapsed.events.push_back(e);
      for (const VtUpdate* u : posted[e.params[0].AsInt()]) {
        const auto& [tag, item, value] = *u;
        collapsed.events.push_back(
            event::Event{event::kUpdateEvent, {Value::Str(item), value}});
        collapsed.updates.push_back(*u);
        values[item] = value;
      }
      collapsed.values = values;
      history.push_back(std::move(collapsed));
    }
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
  PTLDB_ASSIGN_OR_RETURN(std::vector<Timestamp> points, CommitPoints());
  for (Timestamp t : points) {
    PTLDB_ASSIGN_OR_RETURN(VtHistory history, CommittedHistoryAt(t));
    PTLDB_ASSIGN_OR_RETURN(bool ok, EvaluateAtEnd(history, constraint));
    if (!ok) return false;
  }
  return true;
}

Result<bool> VtDatabase::OfflineSatisfied(std::string_view constraint) const {
  PTLDB_ASSIGN_OR_RETURN(std::vector<Timestamp> points, CommitPoints());
  PTLDB_ASSIGN_OR_RETURN(VtHistory full, CommittedHistoryAtInfinity());
  for (Timestamp t : points) {
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

}  // namespace ptldb::validtime

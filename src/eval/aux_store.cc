#include "eval/aux_store.h"

#include <algorithm>
#include <unordered_map>

#include "common/strings.h"
#include "db/tuple.h"

namespace ptldb::eval {

namespace {

/// Wire version byte following kColumnarTag. Bump on layout changes and keep
/// the old read path.
constexpr uint8_t kColumnarVersion = 2;

}  // namespace

// ---- ScalarSeries -----------------------------------------------------------

Status ScalarSeries::Record(Timestamp t, Value v) {
  if (num_intervals() > 0) {
    if (t < starts_.back()) {
      return Status::InvalidArgument(
          StrCat("record at time ", t, " precedes last interval start ",
                 starts_.back()));
    }
    if (dict_.At(vids_.back()) == v) return Status::OK();  // extend implicitly
    ends_.back() = t;
    if (starts_.back() == t) {  // zero-length interval: replaced outright
      starts_.pop_back();
      ends_.pop_back();
      vids_.pop_back();
    }
  }
  if (!has_record_) {
    first_start_ = t;
    has_record_ = true;
  }
  starts_.push_back(t);
  ends_.push_back(kTimeMax);
  vids_.push_back(dict_.Intern(v));
  return Status::OK();
}

Result<Value> ScalarSeries::AsOf(Timestamp t) const {
  // Binary search over the start column for the first interval past `t`.
  size_t lo = base_, hi = starts_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    ++asof_probes_;
    if (starts_[mid] <= t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == base_) {
    // Two distinct failures: `t` may predate the series entirely (nothing was
    // ever known at `t`), or the covering interval existed but TrimBefore
    // dropped it (the answer is gone, not absent).
    if (!has_record_ || t < first_start_) {
      return Status::NotFound(
          StrCat("no value recorded at or before time ", t));
    }
    return Status::OutOfRange(
        StrCat("value history trimmed: time ", t,
               " precedes the retained history"));
  }
  size_t idx = lo - 1;
  if (t >= ends_[idx]) {
    // Recorded intervals are contiguous, so a gap can only come from a trim.
    return Status::OutOfRange(
        StrCat("value history trimmed: no retained interval covers time ", t));
  }
  return dict_.At(vids_[idx]);
}

Status ScalarSeries::GatherAsOf(const std::vector<Timestamp>& ts,
                                std::vector<Value>* out) const {
  out->clear();
  out->reserve(ts.size());
  if (ts.empty()) return Status::OK();
  // One binary search positions the cursor at the first timestamp; the rest
  // of the batch resolves by merging forward over the start column.
  size_t lo = base_, hi = starts_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    ++asof_probes_;
    if (starts_[mid] <= ts.front()) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  size_t cursor = lo;  // first interval with start > ts[i], advanced in step
  Timestamp prev = ts.front();
  for (Timestamp t : ts) {
    if (t < prev) {
      return Status::InvalidArgument("GatherAsOf requires ascending times");
    }
    prev = t;
    while (cursor < starts_.size() && starts_[cursor] <= t) {
      ++cursor;
      ++asof_probes_;
    }
    if (cursor == base_) {
      if (!has_record_ || t < first_start_) {
        return Status::NotFound(
            StrCat("no value recorded at or before time ", t));
      }
      return Status::OutOfRange(
          StrCat("value history trimmed: time ", t,
                 " precedes the retained history"));
    }
    size_t idx = cursor - 1;
    ++asof_probes_;
    if (t >= ends_[idx]) {
      return Status::OutOfRange(StrCat(
          "value history trimmed: no retained interval covers time ", t));
    }
    out->push_back(dict_.At(vids_[idx]));
  }
  return Status::OK();
}

Result<Value> ScalarSeries::Latest() const {
  if (num_intervals() == 0) return Status::NotFound("empty series");
  return dict_.At(vids_.back());
}

void ScalarSeries::TrimBefore(Timestamp horizon) {
  // Never drop an interval that is still open: it covers the present no
  // matter the horizon (including horizon == kTimeMax).
  while (base_ < starts_.size() && ends_[base_] != kTimeMax &&
         ends_[base_] <= horizon) {
    ++base_;
    ++intervals_trimmed_;
  }
  CompactIfWorthwhile();
}

void ScalarSeries::CompactIfWorthwhile() {
  if (base_ == 0) return;
  if (base_ == starts_.size()) {
    starts_.clear();
    ends_.clear();
    vids_.clear();
    std::vector<uint32_t> remap;
    dict_.Rebuild(std::vector<bool>(dict_.size(), false), &remap);
    base_ = 0;
    return;
  }
  // Re-base once the dead prefix dominates; amortized O(1) per trimmed
  // interval.
  if (base_ < 64 || base_ < starts_.size() / 2) return;
  starts_.erase(starts_.begin(), starts_.begin() + static_cast<long>(base_));
  ends_.erase(ends_.begin(), ends_.begin() + static_cast<long>(base_));
  vids_.erase(vids_.begin(), vids_.begin() + static_cast<long>(base_));
  base_ = 0;
  // Dictionary GC: entries only the dead prefix referenced are dropped.
  std::vector<bool> live(dict_.size(), false);
  for (uint32_t vid : vids_) live[vid] = true;
  std::vector<uint32_t> remap;
  dict_.Rebuild(live, &remap);
  for (uint32_t& vid : vids_) vid = remap[vid];
}

void ScalarSeries::Serialize(codec::Writer* w) const {
  w->U8(kColumnarTag);
  w->U8(kColumnarVersion);
  w->Bool(has_record_);
  w->I64(first_start_);
  w->U64(intervals_trimmed_);
  dict_.Serialize(w);
  w->U32(static_cast<uint32_t>(num_intervals()));
  for (size_t i = base_; i < starts_.size(); ++i) {
    w->I64(starts_[i]);
    w->I64(ends_[i]);
    w->U32(vids_[i]);
  }
}

Status ScalarSeries::Deserialize(codec::Reader* r) {
  starts_.clear();
  ends_.clear();
  vids_.clear();
  base_ = 0;
  {
    std::vector<uint32_t> remap;
    dict_.Rebuild(std::vector<bool>(dict_.size(), false), &remap);
  }
  PTLDB_ASSIGN_OR_RETURN(uint8_t first, r->PeekU8());
  if (first == kColumnarTag) {
    (void)r->U8();
    PTLDB_ASSIGN_OR_RETURN(uint8_t version, r->U8());
    if (version != kColumnarVersion) {
      return Status::InvalidArgument(
          StrCat("unknown scalar-series wire version ", version));
    }
    PTLDB_ASSIGN_OR_RETURN(has_record_, r->Bool());
    PTLDB_ASSIGN_OR_RETURN(first_start_, r->I64());
    PTLDB_ASSIGN_OR_RETURN(intervals_trimmed_, r->U64());
    PTLDB_RETURN_IF_ERROR(dict_.Deserialize(r));
    PTLDB_ASSIGN_OR_RETURN(uint32_t n, r->U32());
    starts_.reserve(n <= r->remaining() ? n : 0);
    Timestamp prev_start = std::numeric_limits<Timestamp>::min();
    for (uint32_t i = 0; i < n; ++i) {
      PTLDB_ASSIGN_OR_RETURN(Timestamp s, r->I64());
      PTLDB_ASSIGN_OR_RETURN(Timestamp e, r->I64());
      PTLDB_ASSIGN_OR_RETURN(uint32_t vid, r->U32());
      if (s < prev_start || vid >= dict_.size()) {
        return Status::InvalidArgument("scalar-series dump is corrupt");
      }
      prev_start = s;
      starts_.push_back(s);
      ends_.push_back(e);
      vids_.push_back(vid);
    }
    return Status::OK();
  }
  // Migration read path: v1 row-oriented dump (bool-first layout).
  PTLDB_ASSIGN_OR_RETURN(has_record_, r->Bool());
  PTLDB_ASSIGN_OR_RETURN(first_start_, r->I64());
  PTLDB_ASSIGN_OR_RETURN(intervals_trimmed_, r->U64());
  PTLDB_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  for (uint32_t i = 0; i < n; ++i) {
    PTLDB_ASSIGN_OR_RETURN(Timestamp s, r->I64());
    PTLDB_ASSIGN_OR_RETURN(Timestamp e, r->I64());
    PTLDB_ASSIGN_OR_RETURN(Value v, r->Val());
    starts_.push_back(s);
    ends_.push_back(e);
    vids_.push_back(dict_.Intern(v));
  }
  return Status::OK();
}

// ---- RelationHistory --------------------------------------------------------

uint32_t RelationHistory::EncodeTuple(const db::Tuple& row) {
  std::vector<uint32_t> cell_ids;
  cell_ids.reserve(row.size());
  for (const Value& v : row) cell_ids.push_back(values_.Intern(v));
  return tuples_.Intern(cell_ids);
}

db::Tuple RelationHistory::DecodeTuple(uint32_t tid) const {
  db::Tuple row;
  uint32_t arity = tuples_.Arity(tid);
  row.reserve(arity);
  const uint32_t* cells = arity > 0 ? tuples_.Cells(tid) : nullptr;
  for (uint32_t c = 0; c < arity; ++c) row.push_back(values_.At(cells[c]));
  return row;
}

Status RelationHistory::Record(Timestamp t, const db::Relation& rel) {
  if (rel.schema() != schema_) {
    return Status::InvalidArgument("relation schema does not match history");
  }
  if (has_record_ && t < last_time_) {
    return Status::InvalidArgument(
        StrCat("record at time ", t, " precedes last record at ", last_time_));
  }
  // Multiset of the new contents, dictionary-encoded.
  std::unordered_map<uint32_t, int64_t> want;
  std::vector<uint32_t> new_tids;
  new_tids.reserve(rel.rows().size());
  for (const db::Tuple& row : rel.rows()) {
    uint32_t tid = EncodeTuple(row);
    new_tids.push_back(tid);
    ++want[tid];
  }

  // Close intervals of rows that disappeared (or whose multiplicity
  // dropped); keep rows still present. A row opened at `t` and closed at `t`
  // would have a zero-length [t, t) interval: `AsOf` can never observe it,
  // so drop it outright instead of retaining a phantom row.
  bool any_phantom = false;
  size_t out_open = 0;
  for (size_t k = 0; k < open_rows_.size(); ++k) {
    const size_t i = open_rows_[k];
    auto it = want.find(tids_[i]);
    if (it != want.end() && it->second > 0) {
      --it->second;  // still present: interval stays open
      open_rows_[out_open++] = i;
    } else {
      ends_[i] = t;
      if (starts_[i] == t) {
        any_phantom = true;
      } else if (t > max_closed_end_) {
        max_closed_end_ = t;
      }
    }
  }
  open_rows_.resize(out_open);
  if (any_phantom) {
    size_t out = 0;
    open_rows_.clear();
    for (size_t i = 0; i < starts_.size(); ++i) {
      if (starts_[i] == t && ends_[i] == t) continue;
      starts_[out] = starts_[i];
      ends_[out] = ends_[i];
      tids_[out] = tids_[i];
      if (ends_[out] == kTimeMax) open_rows_.push_back(out);
      ++out;
    }
    phantom_rows_dropped_ += starts_.size() - out;
    starts_.resize(out);
    ends_.resize(out);
    tids_.resize(out);
  }
  // Open intervals for genuinely new rows, preserving the relation's row
  // order (deterministic, unlike iterating the count map). Appends keep
  // open_rows_ sorted: new indices are the largest so far.
  const size_t first_new = starts_.size();
  for (uint32_t tid : new_tids) {
    auto it = want.find(tid);
    if (it->second <= 0) continue;
    --it->second;
    open_rows_.push_back(starts_.size());
    starts_.push_back(t);
    ends_.push_back(kTimeMax);
    tids_.push_back(tid);
  }
  if (any_phantom) {
    RebuildKeyIndex();  // row positions shifted
  } else {
    for (size_t i = first_new; i < starts_.size(); ++i) IndexKey(i);
  }
  last_time_ = t;
  has_record_ = true;
  open_index_dirty_ = true;
  return Status::OK();
}

void RelationHistory::RebuildOpenIndex() {
  open_by_tid_.clear();
  for (size_t i : open_rows_) open_by_tid_[tids_[i]].push_back(i);
  open_index_dirty_ = false;
}

Status RelationHistory::ApplyDelta(Timestamp t,
                                   const std::vector<db::Tuple>& removed,
                                   const std::vector<db::Tuple>& added) {
  if (has_record_ && t < last_time_) {
    return Status::InvalidArgument(
        StrCat("delta at time ", t, " precedes last record at ", last_time_));
  }
  for (const std::vector<db::Tuple>* side : {&removed, &added}) {
    for (const db::Tuple& row : *side) {
      if (row.size() != schema_.num_columns()) {
        return Status::InvalidArgument(
            "delta row arity does not match history schema");
      }
    }
  }
  // Dictionary-encode both sides and cancel tuples present in both: a row
  // deleted and re-inserted (or updated to itself) within one commit never
  // left the relation, so its interval stays open — the same multiset diff
  // Record computes from a full snapshot.
  std::vector<uint32_t> rm_tids, add_tids;
  rm_tids.reserve(removed.size());
  add_tids.reserve(added.size());
  for (const db::Tuple& row : removed) rm_tids.push_back(EncodeTuple(row));
  for (const db::Tuple& row : added) add_tids.push_back(EncodeTuple(row));
  {
    std::unordered_map<uint32_t, int64_t> add_count;
    for (uint32_t tid : add_tids) ++add_count[tid];
    std::unordered_map<uint32_t, int64_t> common;
    for (uint32_t tid : rm_tids) {
      auto it = add_count.find(tid);
      if (it != add_count.end() && it->second > 0) {
        --it->second;
        ++common[tid];
      }
    }
    auto cancel = [&common](std::vector<uint32_t>* tids) {
      std::unordered_map<uint32_t, int64_t> budget = common;
      size_t out = 0;
      for (uint32_t tid : *tids) {
        auto it = budget.find(tid);
        if (it != budget.end() && it->second > 0) {
          --it->second;
          continue;
        }
        (*tids)[out++] = tid;
      }
      tids->resize(out);
    };
    cancel(&rm_tids);
    cancel(&add_tids);
  }
  if (open_index_dirty_) RebuildOpenIndex();
  // Validate liveness up front so the store is never left half-mutated.
  {
    std::unordered_map<uint32_t, int64_t> need;
    for (uint32_t tid : rm_tids) ++need[tid];
    for (const auto& [tid, n] : need) {
      auto it = open_by_tid_.find(tid);
      if (it == open_by_tid_.end() ||
          static_cast<int64_t>(it->second.size()) < n) {
        return Status::InvalidArgument(
            StrCat("delta at time ", t, " removes a row that is not live"));
      }
    }
  }
  bool any_phantom = false;
  for (uint32_t tid : rm_tids) {
    auto bucket = open_by_tid_.find(tid);
    const size_t i = bucket->second.back();
    bucket->second.pop_back();
    // Drop emptied buckets: a tuple that closes for good (an old price)
    // must not keep an index entry for the rest of the history's life.
    if (bucket->second.empty()) open_by_tid_.erase(bucket);
    ends_[i] = t;
    if (starts_[i] == t) {
      any_phantom = true;
    } else if (t > max_closed_end_) {
      max_closed_end_ = t;
    }
  }
  if (!rm_tids.empty()) {
    size_t out = 0;
    for (size_t i : open_rows_) {
      if (ends_[i] == kTimeMax) open_rows_[out++] = i;
    }
    open_rows_.resize(out);
  }
  if (any_phantom) {
    // Same compaction as Record: a [t, t) row is unobservable, drop it.
    size_t out = 0;
    open_rows_.clear();
    for (size_t i = 0; i < starts_.size(); ++i) {
      if (starts_[i] == t && ends_[i] == t) continue;
      starts_[out] = starts_[i];
      ends_[out] = ends_[i];
      tids_[out] = tids_[i];
      if (ends_[out] == kTimeMax) open_rows_.push_back(out);
      ++out;
    }
    phantom_rows_dropped_ += starts_.size() - out;
    starts_.resize(out);
    ends_.resize(out);
    tids_.resize(out);
    open_index_dirty_ = true;  // row indices shifted
  }
  for (uint32_t tid : add_tids) {
    const size_t i = starts_.size();
    open_rows_.push_back(i);
    if (!open_index_dirty_) open_by_tid_[tid].push_back(i);
    starts_.push_back(t);
    ends_.push_back(kTimeMax);
    tids_.push_back(tid);
    if (!any_phantom) IndexKey(i);
  }
  if (any_phantom) RebuildKeyIndex();  // row positions shifted
  last_time_ = t;
  has_record_ = true;
  return Status::OK();
}

void RelationHistory::IndexKey(size_t i) {
  if (!key_column_.has_value()) return;
  const uint32_t vid = tuples_.Cells(tids_[i])[*key_column_];
  std::vector<uint32_t>& positions = rows_by_key_[vid];
  // Rows of one key that never overlap end in start order, so the newest
  // earlier row is the only one that can still cover this row's start.
  if (!positions.empty() && ends_[positions.back()] > starts_[i]) {
    key_overlap_ = true;
  }
  positions.push_back(static_cast<uint32_t>(i));
}

void RelationHistory::RebuildKeyIndex() {
  rows_by_key_.clear();
  key_overlap_ = false;
  for (size_t i = 0; i < starts_.size(); ++i) IndexKey(i);
}

Status RelationHistory::CheckReadable(Timestamp t) const {
  if (!has_record_) return Status::NotFound("empty relation history");
  if (trimmed_ && t < trim_horizon_) {
    return Status::OutOfRange(
        StrCat("relation history trimmed before time ", trim_horizon_,
               "; reconstruction at ", t, " would be incomplete"));
  }
  return Status::OK();
}

Result<db::Relation> RelationHistory::AsOf(Timestamp t, const Value& key) const {
  if (!key_column_.has_value()) {
    return Status::InvalidArgument("relation history has no key column");
  }
  PTLDB_RETURN_IF_ERROR(CheckReadable(t));
  db::Relation out(schema_);
  const std::optional<uint32_t> vid = values_.Find(key);
  if (!vid.has_value()) return out;
  auto it = rows_by_key_.find(*vid);
  if (it == rows_by_key_.end()) return out;
  const std::vector<uint32_t>& positions = it->second;
  // Binary search the key's rows (start order) for those started by `t`.
  size_t lo = 0, hi = positions.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    ++asof_probes_;
    if (starts_[positions[mid]] <= t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  // Without overlap every earlier row ended by the next one's start <= t.
  // An open row covers every later instant, kTimeMax included, as on the
  // current-time path of AsOf(t).
  for (size_t k = key_overlap_ ? 0 : (lo > 0 ? lo - 1 : 0); k < lo; ++k) {
    ++asof_probes_;
    const uint32_t i = positions[k];
    if (t < ends_[i] || ends_[i] == kTimeMax) {
      out.AppendUnchecked(DecodeTuple(tids_[i]));
    }
  }
  return out;
}

Result<db::Relation> RelationHistory::AsOf(Timestamp t) const {
  PTLDB_RETURN_IF_ERROR(CheckReadable(t));
  db::Relation out(schema_);
  if (t >= last_time_ && t >= max_closed_end_) {
    // Current-time fast path: no closed interval can cover `t`, so only open
    // rows qualify — O(live relation) via the open-row index, independent of
    // how much closed history is retained. open_rows_ ascends, so the output
    // order matches the historical path's store order.
    for (size_t i : open_rows_) {
      ++asof_probes_;
      out.AppendUnchecked(DecodeTuple(tids_[i]));
    }
    return out;
  }
  // Historical read: binary search the start column for the candidate
  // prefix (start <= t), then filter by end.
  size_t lo = 0, hi = starts_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    ++asof_probes_;
    if (starts_[mid] <= t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  for (size_t i = 0; i < lo; ++i) {
    ++asof_probes_;
    if (t < ends_[i]) out.AppendUnchecked(DecodeTuple(tids_[i]));
  }
  return out;
}

db::Relation RelationHistory::Store() const {
  std::vector<db::Column> cols = schema_.columns();
  cols.push_back(db::Column{"T_start", ValueType::kInt64});
  cols.push_back(db::Column{"T_end", ValueType::kInt64});
  db::Relation out{db::Schema(std::move(cols))};
  for (size_t i = 0; i < starts_.size(); ++i) {
    db::Tuple row = DecodeTuple(tids_[i]);
    row.push_back(Value::Time(starts_[i]));
    row.push_back(Value::Time(ends_[i]));
    out.AppendUnchecked(std::move(row));
  }
  return out;
}

void RelationHistory::TrimBefore(Timestamp horizon) {
  size_t out = 0;
  Timestamp new_max_closed = std::numeric_limits<Timestamp>::min();
  Timestamp max_dropped_end = std::numeric_limits<Timestamp>::min();
  std::vector<size_t> new_open;
  new_open.reserve(open_rows_.size());
  for (size_t i = 0; i < starts_.size(); ++i) {
    // Open rows are never trimmed (they cover the present even when the
    // horizon is kTimeMax); closed rows go once their validity has ended at
    // or before the horizon.
    if (ends_[i] != kTimeMax && ends_[i] <= horizon) {
      if (ends_[i] > max_dropped_end) max_dropped_end = ends_[i];
      continue;
    }
    if (ends_[i] != kTimeMax && ends_[i] > new_max_closed) {
      new_max_closed = ends_[i];
    }
    starts_[out] = starts_[i];
    ends_[out] = ends_[i];
    tids_[out] = tids_[i];
    if (ends_[out] == kTimeMax) new_open.push_back(out);
    ++out;
  }
  if (out != starts_.size()) {
    rows_trimmed_ += starts_.size() - out;
    starts_.resize(out);
    ends_.resize(out);
    tids_.resize(out);
    open_rows_ = std::move(new_open);
    max_closed_end_ = new_max_closed;
    trimmed_ = true;
    // Reconstruction at t is incomplete only if a dropped row could have been
    // live at t, i.e. t < its end. The tight bound is the max dropped end,
    // not the requested horizon (a TrimBefore(kTimeMax) that only sheds
    // long-dead rows must not poison probes of the still-covered present).
    if (max_dropped_end > trim_horizon_) trim_horizon_ = max_dropped_end;
    CompactDictionaries();
    open_index_dirty_ = true;  // tuple ids remapped, row indices shifted
    RebuildKeyIndex();
  }
}

void RelationHistory::CompactDictionaries() {
  std::vector<bool> live_tuples(tuples_.size(), false);
  for (uint32_t tid : tids_) live_tuples[tid] = true;
  std::vector<bool> live_values(values_.size(), false);
  for (size_t tid = 0; tid < tuples_.size(); ++tid) {
    if (!live_tuples[tid]) continue;
    uint32_t arity = tuples_.Arity(static_cast<uint32_t>(tid));
    const uint32_t* cells =
        arity > 0 ? tuples_.Cells(static_cast<uint32_t>(tid)) : nullptr;
    for (uint32_t c = 0; c < arity; ++c) live_values[cells[c]] = true;
  }
  std::vector<uint32_t> value_remap;
  values_.Rebuild(live_values, &value_remap);
  std::vector<uint32_t> tuple_remap;
  tuples_.Rebuild(live_tuples, value_remap, &tuple_remap);
  for (uint32_t& tid : tids_) tid = tuple_remap[tid];
}

void RelationHistory::Serialize(codec::Writer* w) const {
  w->U8(kColumnarTag);
  w->U8(kColumnarVersion);
  w->U32(static_cast<uint32_t>(schema_.num_columns()));
  for (const db::Column& c : schema_.columns()) {
    w->Str(c.name);
    w->U8(static_cast<uint8_t>(c.type));
  }
  w->Bool(has_record_);
  w->I64(last_time_);
  w->Bool(trimmed_);
  w->I64(trim_horizon_);
  w->U64(rows_trimmed_);
  w->U64(phantom_rows_dropped_);
  values_.Serialize(w);
  tuples_.Serialize(w);
  w->U32(static_cast<uint32_t>(starts_.size()));
  for (size_t i = 0; i < starts_.size(); ++i) {
    w->U32(tids_[i]);
    w->I64(starts_[i]);
    w->I64(ends_[i]);
  }
}

Status RelationHistory::Deserialize(codec::Reader* r) {
  // Decode into a fresh history: a rejected dump leaves this one empty,
  // never half-loaded, so reads after a failed restore stay in bounds.
  RelationHistory fresh(schema_, key_column_);
  Status s = fresh.DeserializeColumns(r);
  if (!s.ok()) fresh = RelationHistory(schema_, key_column_);
  fresh.RebuildKeyIndex();
  *this = std::move(fresh);
  return s;
}

Status RelationHistory::DeserializeColumns(codec::Reader* r) {
  PTLDB_ASSIGN_OR_RETURN(uint8_t first, r->PeekU8());
  // v1 dumps start with the u32 schema arity; its low byte equals the
  // columnar tag only for a 194-column schema, which the guard excludes.
  const bool columnar =
      first == kColumnarTag && schema_.num_columns() != kColumnarTag;
  if (columnar) {
    (void)r->U8();
    PTLDB_ASSIGN_OR_RETURN(uint8_t version, r->U8());
    if (version != kColumnarVersion) {
      return Status::InvalidArgument(
          StrCat("unknown relation-history wire version ", version));
    }
  }
  PTLDB_ASSIGN_OR_RETURN(uint32_t num_cols, r->U32());
  std::vector<db::Column> cols;
  cols.reserve(num_cols <= r->remaining() ? num_cols : 0);
  for (uint32_t i = 0; i < num_cols; ++i) {
    db::Column c;
    PTLDB_ASSIGN_OR_RETURN(c.name, r->Str());
    PTLDB_ASSIGN_OR_RETURN(uint8_t type, r->U8());
    c.type = static_cast<ValueType>(type);
    cols.push_back(std::move(c));
  }
  if (!(db::Schema(cols) == schema_)) {
    return Status::InvalidArgument(
        "relation history dump has a different schema");
  }
  PTLDB_ASSIGN_OR_RETURN(has_record_, r->Bool());
  PTLDB_ASSIGN_OR_RETURN(last_time_, r->I64());
  PTLDB_ASSIGN_OR_RETURN(trimmed_, r->Bool());
  PTLDB_ASSIGN_OR_RETURN(trim_horizon_, r->I64());
  PTLDB_ASSIGN_OR_RETURN(rows_trimmed_, r->U64());
  PTLDB_ASSIGN_OR_RETURN(phantom_rows_dropped_, r->U64());
  // Every row starts in start order at or before the last record time, and
  // a closed row ended there too: what Record/ApplyDelta can produce, and
  // what AsOf's current-time fast path relies on.
  Timestamp prev_start = std::numeric_limits<Timestamp>::min();
  auto append_row = [&](uint32_t tid, Timestamp s, Timestamp e) -> Status {
    if (!has_record_ || s < prev_start || s > last_time_ ||
        (e != kTimeMax && (e < s || e > last_time_))) {
      return Status::InvalidArgument("relation-history dump is corrupt");
    }
    prev_start = s;
    if (e == kTimeMax) open_rows_.push_back(starts_.size());
    tids_.push_back(tid);
    starts_.push_back(s);
    ends_.push_back(e);
    if (e != kTimeMax && e > max_closed_end_) max_closed_end_ = e;
    return Status::OK();
  };
  if (columnar) {
    PTLDB_RETURN_IF_ERROR(values_.Deserialize(r));
    PTLDB_RETURN_IF_ERROR(tuples_.Deserialize(r));
    for (uint32_t tid = 0; tid < tuples_.size(); ++tid) {
      const uint32_t arity = tuples_.Arity(tid);
      bool ok = arity == schema_.num_columns();
      for (uint32_t c = 0; ok && c < arity; ++c) {
        ok = tuples_.Cells(tid)[c] < values_.size();
      }
      if (!ok) {
        return Status::InvalidArgument(
            "relation-history dump has a malformed tuple dictionary");
      }
    }
    PTLDB_ASSIGN_OR_RETURN(uint32_t n, r->U32());
    starts_.reserve(n <= r->remaining() ? n : 0);
    for (uint32_t i = 0; i < n; ++i) {
      PTLDB_ASSIGN_OR_RETURN(uint32_t tid, r->U32());
      PTLDB_ASSIGN_OR_RETURN(Timestamp s, r->I64());
      PTLDB_ASSIGN_OR_RETURN(Timestamp e, r->I64());
      if (tid >= tuples_.size()) {
        return Status::InvalidArgument("relation-history dump is corrupt");
      }
      PTLDB_RETURN_IF_ERROR(append_row(tid, s, e));
    }
    return Status::OK();
  }
  // Migration read path: v1 row-oriented dump.
  PTLDB_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  for (uint32_t i = 0; i < n; ++i) {
    PTLDB_ASSIGN_OR_RETURN(db::Tuple row, r->ValVec());
    PTLDB_ASSIGN_OR_RETURN(Timestamp s, r->I64());
    PTLDB_ASSIGN_OR_RETURN(Timestamp e, r->I64());
    if (row.size() != schema_.num_columns()) {
      return Status::InvalidArgument("relation-history dump is corrupt");
    }
    PTLDB_RETURN_IF_ERROR(append_row(EncodeTuple(row), s, e));
  }
  return Status::OK();
}

namespace {

// Structural estimate of a hash index of position lists: a pointer per
// bucket, a node (key, list header, next pointer) per entry, and the lists'
// capacity. Deterministic across runs, like the dictionaries' estimates.
template <typename Pos>
size_t PositionIndexBytes(
    const std::unordered_map<uint32_t, std::vector<Pos>>& index) {
  size_t bytes = index.bucket_count() * sizeof(void*);
  for (const auto& [key, positions] : index) {
    (void)key;
    bytes += sizeof(void*) + sizeof(uint32_t) + sizeof(std::vector<Pos>) +
             positions.capacity() * sizeof(Pos);
  }
  return bytes;
}

}  // namespace

size_t RelationHistory::EstimateBytes() const {
  return sizeof(*this) + starts_.capacity() * 2 * sizeof(Timestamp) +
         tids_.capacity() * sizeof(uint32_t) +
         open_rows_.capacity() * sizeof(size_t) +
         PositionIndexBytes(open_by_tid_) + PositionIndexBytes(rows_by_key_) +
         values_.EstimateBytes() + tuples_.EstimateBytes();
}

void RelationHistory::ExportTo(Metrics& m, const std::string& prefix) const {
  const std::string base = "aux." + prefix;
  m.gauge(base + ".rows").Set(static_cast<int64_t>(num_rows()));
  m.gauge(base + ".bytes").Set(static_cast<int64_t>(EstimateBytes()));
  m.gauge(base + ".rows_trimmed").Set(static_cast<int64_t>(rows_trimmed_));
  m.gauge(base + ".phantom_rows_dropped")
      .Set(static_cast<int64_t>(phantom_rows_dropped_));
  m.gauge(base + ".dict").Set(static_cast<int64_t>(tuples_.size()));
  m.gauge(base + ".values_dict").Set(static_cast<int64_t>(values_.size()));
  m.gauge(base + ".asof_probes").Set(static_cast<int64_t>(asof_probes_));
}

void ScalarSeries::ExportTo(Metrics& m, const std::string& prefix) const {
  const std::string base = "aux." + prefix;
  m.gauge(base + ".intervals").Set(static_cast<int64_t>(num_intervals()));
  m.gauge(base + ".bytes").Set(static_cast<int64_t>(EstimateBytes()));
  m.gauge(base + ".trimmed").Set(static_cast<int64_t>(intervals_trimmed_));
  m.gauge(base + ".dict").Set(static_cast<int64_t>(dict_.size()));
  m.gauge(base + ".asof_probes").Set(static_cast<int64_t>(asof_probes_));
}

}  // namespace ptldb::eval

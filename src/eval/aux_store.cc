#include "eval/aux_store.h"

#include <unordered_map>

#include "common/strings.h"
#include "db/tuple.h"

namespace ptldb::eval {

namespace {

/// Wire version byte following kColumnarTag, the only one Deserialize reads.
constexpr uint8_t kColumnarVersion = 2;

}  // namespace

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
  // left the relation, so its interval stays open.
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
    // A [t, t) row is unobservable: drop it.
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
  PTLDB_ASSIGN_OR_RETURN(uint8_t tag, r->U8());
  PTLDB_ASSIGN_OR_RETURN(uint8_t version, r->U8());
  if (tag != kColumnarTag || version != kColumnarVersion) {
    return Status::InvalidArgument(
        StrCat("not a relation-history dump (tag ", static_cast<int>(tag),
               ", version ", static_cast<int>(version), ")"));
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
  // Every row starts in start order at or before the last record time, and
  // a closed row ended there too: what ApplyDelta can produce, and what
  // AsOf's current-time fast path relies on.
  Timestamp prev_start = std::numeric_limits<Timestamp>::min();
  for (uint32_t i = 0; i < n; ++i) {
    PTLDB_ASSIGN_OR_RETURN(uint32_t tid, r->U32());
    PTLDB_ASSIGN_OR_RETURN(Timestamp s, r->I64());
    PTLDB_ASSIGN_OR_RETURN(Timestamp e, r->I64());
    if (tid >= tuples_.size() || !has_record_ || s < prev_start ||
        s > last_time_ || (e != kTimeMax && (e < s || e > last_time_))) {
      return Status::InvalidArgument("relation-history dump is corrupt");
    }
    prev_start = s;
    if (e == kTimeMax) open_rows_.push_back(starts_.size());
    tids_.push_back(tid);
    starts_.push_back(s);
    ends_.push_back(e);
    if (e != kTimeMax && e > max_closed_end_) max_closed_end_ = e;
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

}  // namespace ptldb::eval

// Dictionary encoding for the columnar auxiliary relations.
//
// The §5 aux stores retain long histories whose value domain is tiny compared
// to the interval count (a price series revisits the same levels; a relation
// history re-opens the same tuples). Dictionary encoding stores each distinct
// scalar (or tuple of scalar ids) once and lets the column vectors hold packed
// 32-bit ids — the same move VLog makes with packed-uint64 terms — so per-row
// retained state is integers, not boxed Values.
//
// Ids are dense, assigned in first-intern order, and stable for the life of
// the dictionary (Rebuild() remaps them during retention GC). Dictionaries
// serialize with their store so a deserialized history answers identical
// AsOf/Store queries.

#ifndef PTLDB_EVAL_VALUE_DICT_H_
#define PTLDB_EVAL_VALUE_DICT_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "common/value.h"

namespace ptldb::eval {

/// Interns scalar Values to dense uint32 ids.
class ValueDict {
 public:
  /// Id of `v`, interning it on first sight.
  uint32_t Intern(const Value& v);

  /// Id of `v` when it is interned; nullopt otherwise. Never interns.
  std::optional<uint32_t> Find(const Value& v) const {
    auto it = index_.find(v);
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }

  /// The value for an id previously returned by Intern. Unchecked.
  const Value& At(uint32_t id) const { return values_[id]; }

  size_t size() const { return values_.size(); }

  /// Deep retained bytes: entries (including string payloads) plus the
  /// reverse index. The index is estimated structurally (buckets + nodes),
  /// not measured, so the figure is deterministic across runs.
  size_t EstimateBytes() const;

  /// Drops every entry not marked live and compacts ids. `live` is indexed
  /// by id; `remap` (same length) receives old-id -> new-id for callers to
  /// rewrite their columns. Ids of dropped entries map to UINT32_MAX.
  void Rebuild(const std::vector<bool>& live, std::vector<uint32_t>* remap);

  void Serialize(codec::Writer* w) const;
  Status Deserialize(codec::Reader* r);

 private:
  std::vector<Value> values_;
  std::unordered_map<Value, uint32_t, ValueHash> index_;
};

/// Interns tuples of value ids (a dictionary-encoded row) to dense ids.
/// Backing storage is one flat id vector plus (offset, arity) per tuple.
class TupleDict {
 public:
  /// Id of the id-tuple `ids`, interning it on first sight.
  uint32_t Intern(const std::vector<uint32_t>& ids);

  /// Cells of tuple `id` as a span into the flat store. Unchecked.
  const uint32_t* Cells(uint32_t id) const { return &flat_[offsets_[id]]; }
  uint32_t Arity(uint32_t id) const { return arities_[id]; }

  size_t size() const { return offsets_.size(); }

  size_t EstimateBytes() const;

  /// Remaps every cell through `value_remap` (after a ValueDict::Rebuild) and
  /// drops tuples not marked live; `remap` receives old -> new tuple ids.
  void Rebuild(const std::vector<bool>& live,
               const std::vector<uint32_t>& value_remap,
               std::vector<uint32_t>* remap);

  void Serialize(codec::Writer* w) const;
  Status Deserialize(codec::Reader* r);

 private:
  void RebuildIndex();

  std::vector<uint32_t> flat_;
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> arities_;
  // Keyed on the raw bytes of the id tuple: self-contained (no pointer back
  // into the flat store), so the dictionary stays trivially movable.
  std::unordered_map<std::string, uint32_t> index_;
};

}  // namespace ptldb::eval

#endif  // PTLDB_EVAL_VALUE_DICT_H_

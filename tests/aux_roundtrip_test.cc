// Property tests for the columnar RelationHistory serialization: random
// delta/TrimBefore sequences must survive a Serialize/Deserialize round trip
// with identical AsOf/Store answers (including the dictionaries), keyed reads
// must equal filtered scans, and every dump that is not tag 0xC2 version 2 —
// the retired row-oriented v1 format included — must come back as a Status.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/strings.h"
#include "eval/aux_store.h"
#include "eval/value_dict.h"
#include "testutil.h"

namespace ptldb::eval {
namespace {

using testutil::Rng;

// Random churn over a small bag of (sym, px) rows, the shape VersionStore
// hands over per commit: each step removes some live rows and adds fresh
// ones, sometimes re-adding a removed row in the same delta (the two sides
// cancel), sometimes replacing the whole relation; now and then it trims.
// `live` models the current contents. Returns the last write time.
Timestamp Churn(Rng* rng, RelationHistory* history, int steps,
                size_t symbols, bool* trimmed) {
  std::vector<db::Tuple> live;
  Timestamp now = 0;
  for (int i = 0; i < steps; ++i) {
    const uint64_t op = rng->Below(10);
    if (op == 0) {
      history->TrimBefore(now > 8 ? now - rng->Below(8) : 0);
      if (trimmed != nullptr) *trimmed = true;
      continue;
    }
    now += rng->Below(3);
    std::vector<db::Tuple> removed, added;
    if (op <= 2) {  // replace everything
      removed.swap(live);
    } else {
      for (size_t n = rng->Below(3); n > 0 && !live.empty(); --n) {
        const size_t at = rng->Below(live.size());
        removed.push_back(live[at]);
        live.erase(live.begin() + static_cast<long>(at));
      }
    }
    for (size_t n = rng->Below(4); n > 0; --n) {
      if (!removed.empty() && rng->Chance(0.3)) {
        added.push_back(removed[rng->Below(removed.size())]);
      } else {
        added.push_back(db::Tuple{
            Value::Str(std::string(1, 'A' + rng->Below(symbols))),
            Value::Int(rng->Range(0, 3))});
      }
      live.push_back(added.back());
    }
    EXPECT_OK(history->ApplyDelta(now, removed, added));
  }
  return now;
}

TEST(AuxRoundtripPropertyTest, RelationHistorySurvivesSerialization) {
  Rng rng(777);
  db::Schema schema({{"sym", ValueType::kString}, {"px", ValueType::kInt64}});
  uint64_t phantoms = 0;
  for (int round = 0; round < 20; ++round) {
    RelationHistory history(schema);
    const Timestamp now = Churn(&rng, &history, 80, 3, nullptr);
    phantoms += history.phantom_rows_dropped();
    std::string bytes;
    codec::Writer w(&bytes);
    history.Serialize(&w);
    EXPECT_EQ(static_cast<uint8_t>(bytes[0]), kColumnarTag);

    RelationHistory restored(schema);
    codec::Reader r(bytes);
    ASSERT_OK(restored.Deserialize(&r));
    ASSERT_OK(r.ExpectEnd());

    EXPECT_EQ(restored.num_rows(), history.num_rows());
    EXPECT_EQ(restored.dict_size(), history.dict_size());
    EXPECT_EQ(restored.rows_trimmed(), history.rows_trimmed());
    EXPECT_EQ(restored.phantom_rows_dropped(), history.phantom_rows_dropped());
    // The full backing store must match row-for-row (same interval columns
    // and decoded tuples in the same order).
    db::Relation store_a = history.Store();
    db::Relation store_b = restored.Store();
    ASSERT_EQ(store_a.size(), store_b.size());
    for (size_t i = 0; i < store_a.size(); ++i) {
      EXPECT_EQ(store_a.row(i), store_b.row(i)) << "store row " << i;
    }
    for (Timestamp probe = -2; probe <= now + 3; ++probe) {
      auto a = history.AsOf(probe);
      auto b = restored.AsOf(probe);
      ASSERT_EQ(a.ok(), b.ok()) << "probe " << probe;
      if (a.ok()) {
        EXPECT_TRUE(a->BagEquals(*b)) << "probe " << probe;
      } else {
        EXPECT_EQ(a.status().code(), b.status().code()) << "probe " << probe;
      }
    }
    // A restored history keeps taking deltas: its open-row index is derived
    // from the decoded columns.
    std::vector<db::Tuple> live = restored.AsOf(now).value().rows();
    ASSERT_OK(restored.ApplyDelta(now + 1, live, {}));
    ASSERT_OK_AND_ASSIGN(db::Relation emptied, restored.AsOf(now + 1));
    EXPECT_TRUE(emptied.empty());
  }
  // Same-instant rewrites were exercised, not vacuously absent.
  EXPECT_GT(phantoms, 0u);
}

// ---- Per-key archive index ---------------------------------------------------

// For every key and every instant at and around every interval boundary, the
// keyed read equals AsOf(t) filtered on the key — rows, order, and on error
// the same code and message. Returns how many probes failed OutOfRange.
int ExpectKeyedReadsMatchScan(const RelationHistory& h, size_t key_col,
                              const std::string& label) {
  db::Relation store = h.Store();
  const size_t start_col = h.schema().num_columns();
  std::vector<Value> keys = {Value::Str("absent"), Value::Int(1)};
  std::vector<Timestamp> probes = {-1, kTimeMax};
  for (const db::Tuple& row : store.rows()) {
    keys.push_back(row[key_col]);
    for (size_t c : {start_col, start_col + 1}) {
      const Timestamp t = row[c].AsInt();
      if (t == kTimeMax) continue;
      for (Timestamp d : {-1, 0, 1}) probes.push_back(t + d);
    }
  }
  int out_of_range = 0;
  for (Timestamp t : probes) {
    Result<db::Relation> all = h.AsOf(t);
    if (!all.ok() && all.status().code() == StatusCode::kOutOfRange) {
      ++out_of_range;
    }
    for (const Value& key : keys) {
      Result<db::Relation> keyed = h.AsOf(t, key);
      EXPECT_EQ(all.ok(), keyed.ok()) << label << " t=" << t;
      if (all.ok() != keyed.ok()) continue;
      if (!all.ok()) {
        EXPECT_EQ(all.status().code(), keyed.status().code()) << label;
        EXPECT_EQ(all.status().message(), keyed.status().message()) << label;
        continue;
      }
      std::vector<db::Tuple> want;
      for (const db::Tuple& row : all->rows()) {
        if (row[key_col] == key) want.push_back(row);
      }
      EXPECT_EQ(keyed->rows(), want)
          << label << " t=" << t << " key=" << key.ToString();
      EXPECT_EQ(keyed->schema(), h.schema()) << label;
    }
  }
  return out_of_range;
}

TEST(AuxKeyIndexPropertyTest, KeyedReadsMatchFilteredScans) {
  Rng rng(4242);
  db::Schema schema({{"sym", ValueType::kString}, {"px", ValueType::kInt64}});
  int trimmed_probes = 0;
  for (int round = 0; round < 40; ++round) {
    // Odd rounds key on the non-unique price column: rows of one key then
    // overlap and the keyed read must filter all of its versions.
    const size_t key_col = round % 2;
    RelationHistory history(schema, key_col);
    bool trimmed = false;
    Churn(&rng, &history, 90, 4, &trimmed);
    const std::string label = StrCat("round ", round);
    const int oor = ExpectKeyedReadsMatchScan(history, key_col, label);
    if (trimmed) trimmed_probes += oor;

    std::string bytes;
    codec::Writer w(&bytes);
    history.Serialize(&w);
    RelationHistory restored(schema, key_col);
    codec::Reader r(bytes);
    ASSERT_OK(restored.Deserialize(&r));
    ExpectKeyedReadsMatchScan(restored, key_col, label + " restored");
    // The index is derived state: checkpoint bytes do not depend on it.
    RelationHistory unkeyed(schema);
    codec::Reader r2(bytes);
    ASSERT_OK(unkeyed.Deserialize(&r2));
    std::string again;
    codec::Writer w2(&again);
    unkeyed.Serialize(&w2);
    EXPECT_EQ(again, bytes) << label;
  }
  // Reads behind a trim horizon were exercised, not vacuously skipped.
  EXPECT_GT(trimmed_probes, 0);
}

TEST(AuxKeyIndexPropertyTest, KeyedReadNeedsAKeyColumn) {
  db::Schema schema({{"sym", ValueType::kString}});
  RelationHistory history(schema);
  ASSERT_OK(history.ApplyDelta(1, {}, {{Value::Str("A")}}));
  EXPECT_EQ(history.AsOf(1, Value::Str("A")).status().code(),
            StatusCode::kInvalidArgument);
  RelationHistory keyed(schema, 0);
  EXPECT_EQ(keyed.AsOf(1, Value::Str("A")).status().code(),
            StatusCode::kNotFound);  // empty history, as AsOf(t) says
}

// ---- One wire format --------------------------------------------------------

db::Schema SymPx() {
  return db::Schema({{"sym", ValueType::kString}, {"px", ValueType::kInt64}});
}

// Expects `bytes` to be refused and the history left empty, whatever it held.
void ExpectRejected(const std::string& bytes, const std::string& label) {
  RelationHistory h(SymPx());
  ASSERT_OK(h.ApplyDelta(5, {}, {{Value::Str("XOM"), Value::Int(1)}}));
  codec::Reader r(bytes);
  EXPECT_FALSE(h.Deserialize(&r).ok()) << label;
  EXPECT_EQ(h.num_rows(), 0u) << label;
  EXPECT_EQ(h.AsOf(15).status().code(), StatusCode::kNotFound) << label;
}

TEST(AuxWireTest, RowOrientedV1DumpIsRejected) {
  // The retired pre-columnar layout:
  //   u32 num_cols, cols x (str name, u8 type),
  //   bool has_record, i64 last_time, bool trimmed, i64 trim_horizon,
  //   u64 rows_trimmed, u64 phantom_rows_dropped,
  //   u32 n, n x (ValVec row, i64 start, i64 end).
  // No writer has produced it since the columnar format, and no checkpoint
  // holds one, so it is an unknown tag like any other.
  std::string bytes;
  codec::Writer w(&bytes);
  w.U32(2);
  w.Str("sym");
  w.U8(static_cast<uint8_t>(ValueType::kString));
  w.Str("px");
  w.U8(static_cast<uint8_t>(ValueType::kInt64));
  w.Bool(true);
  w.I64(20);
  w.Bool(false);
  w.I64(std::numeric_limits<Timestamp>::min());
  w.U64(0);
  w.U64(1);
  w.U32(2);
  w.ValVec({Value::Str("IBM"), Value::Int(70)});
  w.I64(10);
  w.I64(20);
  w.ValVec({Value::Str("IBM"), Value::Int(75)});
  w.I64(20);
  w.I64(std::numeric_limits<Timestamp>::max());
  ExpectRejected(bytes, "v1");
}

TEST(AuxWireTest, OnlyTagC2Version2IsAccepted) {
  RelationHistory h(SymPx());
  ASSERT_OK(h.ApplyDelta(10, {}, {{Value::Str("IBM"), Value::Int(70)}}));
  ASSERT_OK(h.ApplyDelta(20, {{Value::Str("IBM"), Value::Int(70)}},
                         {{Value::Str("IBM"), Value::Int(75)}}));
  std::string good;
  codec::Writer w(&good);
  h.Serialize(&w);
  ASSERT_EQ(static_cast<uint8_t>(good[0]), kColumnarTag);
  ASSERT_EQ(static_cast<uint8_t>(good[1]), 2);
  {
    RelationHistory back(SymPx());
    codec::Reader r(good);
    ASSERT_OK(back.Deserialize(&r));
    EXPECT_EQ(back.num_rows(), 2u);
  }
  for (int tag : {0x00, 0x01, 0x02, 0xC1, 0xC3, 0xFF}) {
    std::string bytes = good;
    bytes[0] = static_cast<char>(tag);
    ExpectRejected(bytes, StrCat("tag ", tag));
  }
  for (int version : {0, 1, 3, 99}) {
    std::string bytes = good;
    bytes[1] = static_cast<char>(version);
    ExpectRejected(bytes, StrCat("version ", version));
  }
  // Every truncation, the empty input included.
  for (size_t n = 0; n < good.size(); ++n) {
    ExpectRejected(good.substr(0, n), StrCat("truncated to ", n));
  }
  // A row's tuple id past the dictionary (each row is u32 id, i64, i64).
  std::string bad_tid = good;
  for (size_t i = good.size() - 20; i < good.size() - 16; ++i) {
    bad_tid[i] = static_cast<char>(0xFF);
  }
  ExpectRejected(bad_tid, "tuple id");
  // Another schema's history.
  RelationHistory other(db::Schema({{"sym", ValueType::kString}}));
  codec::Reader r(good);
  EXPECT_FALSE(other.Deserialize(&r).ok());
}

TEST(AuxWireTest, SchemaOfTagManyColumnsRoundTrips) {
  // The v1 fallback once guarded a schema of exactly kColumnarTag (194)
  // columns, whose v1 dump began with the tag byte; such a history could
  // not read back its own dump. One format, no guard.
  std::vector<db::Column> cols;
  db::Tuple row;
  for (int c = 0; c < kColumnarTag; ++c) {
    cols.push_back(db::Column{StrCat("c", c), ValueType::kInt64});
    row.push_back(Value::Int(c));
  }
  db::Schema schema(std::move(cols));
  RelationHistory h(schema);
  ASSERT_OK(h.ApplyDelta(1, {}, {row}));
  std::string bytes;
  codec::Writer w(&bytes);
  h.Serialize(&w);
  RelationHistory back(schema);
  codec::Reader r(bytes);
  ASSERT_OK(back.Deserialize(&r));
  ASSERT_OK_AND_ASSIGN(db::Relation now, back.AsOf(1));
  ASSERT_EQ(now.size(), 1u);
  EXPECT_EQ(now.row(0), row);
}

// ---- Dictionary robustness ---------------------------------------------------

TEST(ValueDictTest, RoundTripAndDuplicateRejection) {
  ValueDict d;
  uint32_t a = d.Intern(Value::Int(1));
  uint32_t b = d.Intern(Value::Str("x"));
  EXPECT_EQ(d.Intern(Value::Int(1)), a);  // stable ids
  std::string bytes;
  codec::Writer w(&bytes);
  d.Serialize(&w);
  ValueDict d2;
  codec::Reader r(bytes);
  ASSERT_OK(d2.Deserialize(&r));
  EXPECT_EQ(d2.size(), 2u);
  EXPECT_EQ(d2.At(a), Value::Int(1));
  EXPECT_EQ(d2.At(b), Value::Str("x"));

  // A corrupt dump with duplicate entries is rejected, not silently indexed.
  std::string dup;
  codec::Writer wd(&dup);
  wd.U32(2);
  wd.Val(Value::Int(7));
  wd.Val(Value::Int(7));
  ValueDict d3;
  codec::Reader rd(dup);
  EXPECT_FALSE(d3.Deserialize(&rd).ok());
}

TEST(TupleDictTest, RoundTripIncludingEmptyTuple) {
  TupleDict d;
  uint32_t empty = d.Intern({});
  uint32_t ab = d.Intern({1, 2});
  EXPECT_EQ(d.Intern({}), empty);
  EXPECT_EQ(d.Intern({1, 2}), ab);
  EXPECT_EQ(d.Arity(empty), 0u);
  EXPECT_EQ(d.Arity(ab), 2u);
  std::string bytes;
  codec::Writer w(&bytes);
  d.Serialize(&w);
  TupleDict d2;
  codec::Reader r(bytes);
  ASSERT_OK(d2.Deserialize(&r));
  EXPECT_EQ(d2.size(), 2u);
  EXPECT_EQ(d2.Arity(empty), 0u);
  ASSERT_EQ(d2.Arity(ab), 2u);
  EXPECT_EQ(d2.Cells(ab)[0], 1u);
  EXPECT_EQ(d2.Cells(ab)[1], 2u);
}

}  // namespace
}  // namespace ptldb::eval

// Property tests for the columnar aux-store serialization: random
// Record/TrimBefore sequences must survive a Serialize/Deserialize round trip
// with identical AsOf/Store answers (including the dictionaries), and the
// migration read path must restore v1 row-oriented dumps byte-for-byte
// equivalently.

#include <gtest/gtest.h>

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

Value RandomScalar(Rng* rng) {
  switch (rng->Below(3)) {
    case 0:
      return Value::Int(rng->Range(-5, 5));
    case 1:
      return Value::Str(std::string(1 + rng->Below(4), 'a' + rng->Below(3)));
    default:
      return Value::Real(static_cast<double>(rng->Range(0, 10)) / 2.0);
  }
}

// Two results must agree in both status code and value.
template <typename T>
void ExpectSameResult(const Result<T>& a, const Result<T>& b, Timestamp t) {
  ASSERT_EQ(a.ok(), b.ok()) << "probe " << t;
  if (a.ok()) {
    EXPECT_EQ(*a, *b) << "probe " << t;
  } else {
    EXPECT_EQ(a.status().code(), b.status().code()) << "probe " << t;
  }
}

TEST(AuxRoundtripPropertyTest, ScalarSeriesSurvivesSerialization) {
  Rng rng(2024);
  for (int round = 0; round < 30; ++round) {
    ScalarSeries series;
    Timestamp now = 0;
    for (int i = 0; i < 120; ++i) {
      if (rng.Chance(0.15)) {
        // Trim to a horizon somewhere behind the clock.
        series.TrimBefore(now > 10 ? now - rng.Below(10) : 0);
        continue;
      }
      now += rng.Below(3);
      ASSERT_OK(series.Record(now, RandomScalar(&rng)));
    }
    std::string bytes;
    codec::Writer w(&bytes);
    series.Serialize(&w);
    // v2 dumps are tagged.
    ASSERT_GE(bytes.size(), 2u);
    EXPECT_EQ(static_cast<uint8_t>(bytes[0]), kColumnarTag);

    ScalarSeries restored;
    codec::Reader r(bytes);
    ASSERT_OK(restored.Deserialize(&r));
    ASSERT_OK(r.ExpectEnd());

    EXPECT_EQ(restored.num_intervals(), series.num_intervals());
    EXPECT_EQ(restored.dict_size(), series.dict_size());
    EXPECT_EQ(restored.intervals_trimmed(), series.intervals_trimmed());
    ExpectSameResult(restored.Latest(), series.Latest(), -1);
    for (Timestamp probe = -2; probe <= now + 3; ++probe) {
      ExpectSameResult(restored.AsOf(probe), series.AsOf(probe), probe);
    }
  }
}

TEST(AuxRoundtripPropertyTest, RelationHistorySurvivesSerialization) {
  Rng rng(777);
  db::Schema schema({{"sym", ValueType::kString}, {"px", ValueType::kInt64}});
  auto random_rel = [&](Rng* r) {
    std::vector<db::Tuple> rows;
    size_t n = r->Below(4);
    for (size_t i = 0; i < n; ++i) {
      rows.push_back(db::Tuple{Value::Str(std::string(1, 'A' + r->Below(3))),
                               Value::Int(r->Range(0, 3))});
    }
    return db::Relation(schema, std::move(rows));
  };
  for (int round = 0; round < 20; ++round) {
    RelationHistory history(schema);
    Timestamp now = 0;
    for (int i = 0; i < 80; ++i) {
      if (rng.Chance(0.15)) {
        history.TrimBefore(now > 8 ? now - rng.Below(8) : 0);
        continue;
      }
      now += rng.Below(3);
      ASSERT_OK(history.Record(now, random_rel(&rng)));
    }
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
  }
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
  auto random_row = [](Rng* r) {
    return db::Tuple{Value::Str(std::string(1, 'A' + r->Below(4))),
                     Value::Int(r->Range(0, 3))};
  };
  int trimmed_probes = 0;
  for (int round = 0; round < 40; ++round) {
    // Odd rounds key on the non-unique price column: rows of one key then
    // overlap and the keyed read must filter all of its versions.
    const size_t key_col = round % 2;
    RelationHistory history(schema, key_col);
    std::vector<db::Tuple> live;  // model of the current contents
    Timestamp now = 0;
    bool trimmed = false;
    for (int i = 0; i < 90; ++i) {
      const uint64_t op = rng.Below(10);
      if (op == 0) {
        history.TrimBefore(now > 8 ? now - rng.Below(8) : 0);
        trimmed = true;
        continue;
      }
      now += rng.Below(3);
      if (op <= 2) {  // full snapshot, bag semantics
        live.clear();
        for (size_t n = rng.Below(5); n > 0; --n) live.push_back(random_row(&rng));
        ASSERT_OK(history.Record(now, db::Relation(schema, live)));
        continue;
      }
      // Delta: drop some live rows, add fresh ones (updates of one key are a
      // remove plus an add, the shape VersionStore hands over per commit).
      std::vector<db::Tuple> removed, added;
      for (size_t n = rng.Below(3); n > 0 && !live.empty(); --n) {
        const size_t at = rng.Below(live.size());
        removed.push_back(live[at]);
        live.erase(live.begin() + static_cast<long>(at));
      }
      for (size_t n = rng.Below(3); n > 0; --n) {
        added.push_back(random_row(&rng));
        live.push_back(added.back());
      }
      ASSERT_OK(history.ApplyDelta(now, removed, added));
    }
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
  ASSERT_OK(history.Record(1, db::Relation(schema, {{Value::Str("A")}})));
  EXPECT_EQ(history.AsOf(1, Value::Str("A")).status().code(),
            StatusCode::kInvalidArgument);
  RelationHistory keyed(schema, 0);
  EXPECT_EQ(keyed.AsOf(1, Value::Str("A")).status().code(),
            StatusCode::kNotFound);  // empty history, as AsOf(t) says
}

// ---- Migration read path (v1 row-oriented dumps) -----------------------------

TEST(AuxMigrationTest, ScalarSeriesReadsV1RowDump) {
  // Hand-encode the pre-columnar ScalarSeries wire format:
  //   bool has_record, i64 first_start, u64 intervals_trimmed,
  //   u32 n, n x (i64 start, i64 end, Val value).
  std::string bytes;
  codec::Writer w(&bytes);
  w.Bool(true);
  w.I64(10);
  w.U64(3);  // trim counter carried over
  w.U32(2);
  w.I64(10);
  w.I64(20);
  w.Val(Value::Str("low"));
  w.I64(20);
  w.I64(std::numeric_limits<Timestamp>::max());
  w.Val(Value::Str("high"));

  ScalarSeries s;
  codec::Reader r(bytes);
  ASSERT_OK(s.Deserialize(&r));
  ASSERT_OK(r.ExpectEnd());
  EXPECT_EQ(s.num_intervals(), 2u);
  EXPECT_EQ(s.intervals_trimmed(), 3u);
  EXPECT_EQ(s.dict_size(), 2u);
  ASSERT_OK_AND_ASSIGN(Value v, s.AsOf(15));
  EXPECT_EQ(v, Value::Str("low"));
  ASSERT_OK_AND_ASSIGN(v, s.AsOf(25));
  EXPECT_EQ(v, Value::Str("high"));
  // Recording continues seamlessly after migration.
  ASSERT_OK(s.Record(30, Value::Str("low")));
  EXPECT_EQ(s.dict_size(), 2u);  // re-interns the existing entry

  // And the re-serialized form is columnar v2.
  std::string bytes2;
  codec::Writer w2(&bytes2);
  s.Serialize(&w2);
  EXPECT_EQ(static_cast<uint8_t>(bytes2[0]), kColumnarTag);
}

TEST(AuxMigrationTest, RelationHistoryReadsV1RowDump) {
  // Pre-columnar RelationHistory wire format:
  //   u32 num_cols, cols x (str name, u8 type),
  //   bool has_record, i64 last_time, bool trimmed, i64 trim_horizon,
  //   u64 rows_trimmed, u64 phantom_rows_dropped,
  //   u32 n, n x (ValVec row, i64 start, i64 end).
  db::Schema schema({{"sym", ValueType::kString}, {"px", ValueType::kInt64}});
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

  RelationHistory h(schema);
  codec::Reader r(bytes);
  ASSERT_OK(h.Deserialize(&r));
  ASSERT_OK(r.ExpectEnd());
  EXPECT_EQ(h.num_rows(), 2u);
  EXPECT_EQ(h.phantom_rows_dropped(), 1u);
  ASSERT_OK_AND_ASSIGN(db::Relation r15, h.AsOf(15));
  ASSERT_EQ(r15.size(), 1u);
  EXPECT_EQ(r15.row(0)[1], Value::Int(70));
  ASSERT_OK_AND_ASSIGN(db::Relation now, h.AsOf(100));
  ASSERT_EQ(now.size(), 1u);
  EXPECT_EQ(now.row(0)[1], Value::Int(75));
  // Continues recording and re-serializes as v2.
  ASSERT_OK(h.Record(30, db::Relation(schema)));
  std::string bytes2;
  codec::Writer w2(&bytes2);
  h.Serialize(&w2);
  EXPECT_EQ(static_cast<uint8_t>(bytes2[0]), kColumnarTag);
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

TEST(AuxMigrationTest, CorruptColumnarDumpsRejected) {
  // Unknown future version byte.
  {
    std::string bytes;
    codec::Writer w(&bytes);
    w.U8(kColumnarTag);
    w.U8(99);
    ScalarSeries s;
    codec::Reader r(bytes);
    EXPECT_FALSE(s.Deserialize(&r).ok());
  }
  // Truncated interval columns.
  {
    ScalarSeries s;
    ASSERT_OK(s.Record(1, Value::Int(1)));
    std::string bytes;
    codec::Writer w(&bytes);
    s.Serialize(&w);
    bytes.resize(bytes.size() - 3);
    ScalarSeries s2;
    codec::Reader r(bytes);
    EXPECT_FALSE(s2.Deserialize(&r).ok());
  }
  // Value id pointing past the dictionary.
  {
    std::string bytes;
    codec::Writer w(&bytes);
    w.U8(kColumnarTag);
    w.U8(2);
    w.Bool(true);
    w.I64(0);
    w.U64(0);
    w.U32(1);  // dict: one entry
    w.Val(Value::Int(7));
    w.U32(1);  // one interval
    w.I64(0);
    w.I64(5);
    w.U32(3);  // vid 3 out of range
    ScalarSeries s;
    codec::Reader r(bytes);
    EXPECT_FALSE(s.Deserialize(&r).ok());
  }
}

}  // namespace
}  // namespace ptldb::eval

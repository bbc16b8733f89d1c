// Tests for the §5 auxiliary relation R_x with T_start / T_end: the
// RelationHistory that temporal::VersionStore fills through ApplyDelta, the
// one write path every commit takes.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/strings.h"
#include "eval/aux_store.h"
#include "testutil.h"

namespace ptldb::eval {
namespace {

class RelationHistoryTest : public ::testing::Test {
 protected:
  RelationHistoryTest()
      : schema_({{"name", ValueType::kString}, {"price", ValueType::kInt64}}),
        history_(schema_) {}

  static db::Tuple Row(const std::string& name, int64_t price) {
    return {Value::Str(name), Value::Int(price)};
  }

  // Row `name` changes price `from` -> `to` at `t`: the delete-plus-insert
  // pair a versioned table's update hands over.
  static Status Update(RelationHistory* h, Timestamp t, const std::string& name,
                       int64_t from, int64_t to) {
    return h->ApplyDelta(t, {Row(name, from)}, {Row(name, to)});
  }

  // [10,20) IBM 1, [20,30) IBM 2, [30,kTimeMax) IBM 3.
  static void FillPriceSteps(RelationHistory* h) {
    EXPECT_OK(h->ApplyDelta(10, {}, {Row("IBM", 1)}));
    EXPECT_OK(Update(h, 20, "IBM", 1, 2));
    EXPECT_OK(Update(h, 30, "IBM", 2, 3));
  }

  db::Schema schema_;
  RelationHistory history_;
};

TEST_F(RelationHistoryTest, AsOfReconstructsPastContents) {
  EXPECT_EQ(history_.AsOf(5).status().code(), StatusCode::kNotFound);
  ASSERT_OK(history_.ApplyDelta(10, {}, {Row("IBM", 70)}));
  ASSERT_OK(history_.ApplyDelta(20, {}, {Row("HP", 30)}));
  ASSERT_OK(history_.ApplyDelta(30, {Row("IBM", 70)}, {}));

  ASSERT_OK_AND_ASSIGN(db::Relation r5, history_.AsOf(5));
  EXPECT_TRUE(r5.empty());  // before the first write the relation was empty
  ASSERT_OK_AND_ASSIGN(db::Relation r10, history_.AsOf(10));
  EXPECT_EQ(r10.size(), 1u);
  ASSERT_OK_AND_ASSIGN(db::Relation r25, history_.AsOf(25));
  EXPECT_EQ(r25.size(), 2u);
  ASSERT_OK_AND_ASSIGN(db::Relation r30, history_.AsOf(30));
  ASSERT_EQ(r30.size(), 1u);
  EXPECT_EQ(r30.row(0)[0], Value::Str("HP"));
  // "The value of the query q at any previous time can be retrieved" — and
  // the current value persists indefinitely.
  ASSERT_OK_AND_ASSIGN(db::Relation now, history_.AsOf(1000));
  EXPECT_TRUE(now.BagEquals(r30));
}

TEST_F(RelationHistoryTest, StoreExposesValidityIntervals) {
  ASSERT_OK(history_.ApplyDelta(10, {}, {Row("IBM", 70)}));
  ASSERT_OK(history_.ApplyDelta(20, {Row("IBM", 70)}, {}));
  db::Relation store = history_.Store();
  ASSERT_EQ(store.size(), 1u);
  // Columns: name, price, T_start, T_end.
  EXPECT_EQ(store.row(0)[2], Value::Time(10));
  EXPECT_EQ(store.row(0)[3], Value::Time(20));
  ASSERT_OK_AND_ASSIGN(size_t ts, store.schema().IndexOf("T_start"));
  EXPECT_EQ(ts, 2u);
}

TEST_F(RelationHistoryTest, DuplicateRowsTrackedAsBag) {
  db::Tuple row = Row("IBM", 70);
  ASSERT_OK(history_.ApplyDelta(10, {}, {row, row}));
  ASSERT_OK(history_.ApplyDelta(20, {row}, {}));
  ASSERT_OK_AND_ASSIGN(db::Relation r10, history_.AsOf(10));
  EXPECT_EQ(r10.size(), 2u);
  ASSERT_OK_AND_ASSIGN(db::Relation r20, history_.AsOf(20));
  EXPECT_EQ(r20.size(), 1u);
  // Removing more copies than are live is rejected, and changes nothing.
  EXPECT_EQ(history_.ApplyDelta(30, {row, row}, {}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_OK_AND_ASSIGN(db::Relation r30, history_.AsOf(30));
  EXPECT_EQ(r30.size(), 1u);
}

TEST_F(RelationHistoryTest, RowInBothSidesOfADeltaStaysOpen) {
  // A row deleted and re-inserted within one commit never left the relation:
  // the two sides cancel as multisets and its interval stays open.
  db::Tuple ibm = Row("IBM", 70);
  ASSERT_OK(history_.ApplyDelta(10, {}, {ibm, ibm}));
  ASSERT_OK(history_.ApplyDelta(20, {ibm, ibm}, {ibm, Row("HP", 30)}));
  // One IBM copy closed at 20, the other never closed; HP opened.
  EXPECT_EQ(history_.num_rows(), 3u);
  db::Relation store = history_.Store();
  int open_ibm = 0;
  for (const db::Tuple& row : store.rows()) {
    if (row[0] == Value::Str("IBM") && row[2] == Value::Time(10) &&
        row[3] == Value::Time(kTimeMax)) {
      ++open_ibm;
    }
  }
  EXPECT_EQ(open_ibm, 1);
  ASSERT_OK_AND_ASSIGN(db::Relation now, history_.AsOf(25));
  EXPECT_EQ(now.size(), 2u);
}

TEST_F(RelationHistoryTest, RemovingARowThatIsNotLiveIsRejected) {
  ASSERT_OK(history_.ApplyDelta(10, {}, {Row("IBM", 70)}));
  const size_t rows = history_.num_rows();
  // The valid half of the delta must not land either.
  EXPECT_EQ(history_.ApplyDelta(20, {Row("HP", 1)}, {Row("XOM", 2)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(history_.num_rows(), rows);
  ASSERT_OK_AND_ASSIGN(db::Relation now, history_.AsOf(20));
  ASSERT_EQ(now.size(), 1u);
  EXPECT_EQ(now.row(0)[0], Value::Str("IBM"));
}

TEST_F(RelationHistoryTest, TrimBefore) {
  FillPriceSteps(&history_);
  EXPECT_EQ(history_.num_rows(), 3u);
  history_.TrimBefore(25);
  EXPECT_EQ(history_.num_rows(), 2u);  // the [20,30) and [30,inf) rows remain
}

TEST_F(RelationHistoryTest, SameInstantRewriteLeavesNoPhantomRow) {
  db::Tuple ibm = Row("IBM", 70);
  db::Tuple hp = Row("HP", 30);
  ASSERT_OK(history_.ApplyDelta(10, {}, {ibm}));
  // Replacing IBM at the instant it opened would leave a [10,10) row: closed
  // at the same timestamp it opened, covering no instant.
  ASSERT_OK(history_.ApplyDelta(10, {ibm}, {hp}));
  EXPECT_EQ(history_.phantom_rows_dropped(), 1u);
  db::Relation store = history_.Store();
  for (size_t i = 0; i < store.size(); ++i) {
    EXPECT_NE(store.row(i)[2], store.row(i)[3])
        << "phantom [t,t) validity interval in row " << i;
  }
  ASSERT_OK_AND_ASSIGN(db::Relation r10, history_.AsOf(10));
  ASSERT_EQ(r10.size(), 1u);
  EXPECT_EQ(r10.row(0)[0], Value::Str("HP"));
}

TEST_F(RelationHistoryTest, TrimmedAsOfIsOutOfRangeNotSilentlyEmpty) {
  FillPriceSteps(&history_);
  // Untrimmed, a pre-history instant is a legitimate empty relation.
  ASSERT_OK_AND_ASSIGN(db::Relation r5, history_.AsOf(5));
  EXPECT_TRUE(r5.empty());
  history_.TrimBefore(25);
  EXPECT_GT(history_.rows_trimmed(), 0u);
  // After trimming, reconstruction below the horizon would be incomplete:
  // that must be an error, not a plausible-looking partial relation.
  auto r15 = history_.AsOf(15);
  ASSERT_FALSE(r15.ok());
  EXPECT_EQ(r15.status().code(), StatusCode::kOutOfRange);
  // At or above the horizon reconstruction still works.
  ASSERT_OK_AND_ASSIGN(db::Relation r25, history_.AsOf(25));
  ASSERT_EQ(r25.size(), 1u);
  EXPECT_EQ(r25.row(0)[1], Value::Int(2));
}

TEST_F(RelationHistoryTest, ExportToPublishesAccountingGauges) {
  Metrics m;
  ASSERT_OK(history_.ApplyDelta(10, {}, {Row("IBM", 1)}));
  ASSERT_OK(history_.ApplyDelta(20, {Row("IBM", 1)}, {Row("HP", 2)}));
  history_.TrimBefore(15);
  ASSERT_OK(history_.AsOf(20).status());  // make some probes to account for
  history_.ExportTo(m, "price");
  EXPECT_EQ(m.gauge("aux.price.rows").Get(),
            static_cast<int64_t>(history_.num_rows()));
  EXPECT_GT(m.gauge("aux.price.bytes").Get(), 0);
  EXPECT_EQ(m.gauge("aux.price.rows_trimmed").Get(),
            static_cast<int64_t>(history_.rows_trimmed()));
  EXPECT_EQ(m.gauge("aux.price.phantom_rows_dropped").Get(), 0);
  // Dictionary internals: two distinct tuples, three distinct values
  // ("IBM", "HP", 1, 2 — value ids are shared across columns, minus dups).
  EXPECT_EQ(m.gauge("aux.price.dict").Get(), 2);
  EXPECT_GT(m.gauge("aux.price.values_dict").Get(), 0);
  EXPECT_EQ(m.gauge("aux.price.asof_probes").Get(),
            static_cast<int64_t>(history_.asof_probes()));
  EXPECT_GT(history_.asof_probes(), 0u);
  // The gauges land in the registry snapshot alongside everything else.
  std::string json = m.ToJson();
  EXPECT_NE(json.find("\"aux.price.rows\""), std::string::npos);
  EXPECT_NE(json.find("\"aux.price.bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"aux.price.values_dict\""), std::string::npos);
}

TEST_F(RelationHistoryTest, ArityMismatchRejected) {
  EXPECT_EQ(history_.ApplyDelta(10, {}, {{Value::Int(1)}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(history_.AsOf(10).status().code(), StatusCode::kNotFound);
}

TEST_F(RelationHistoryTest, OutOfOrderRejected) {
  ASSERT_OK(history_.ApplyDelta(10, {}, {}));
  EXPECT_FALSE(history_.ApplyDelta(5, {}, {}).ok());
}

TEST_F(RelationHistoryTest, TrimBoundaryCases) {
  {
    RelationHistory h(schema_);
    FillPriceSteps(&h);
    h.TrimBefore(9);  // start-1
    EXPECT_EQ(h.num_rows(), 3u);
    EXPECT_EQ(h.rows_trimmed(), 0u);
  }
  {
    RelationHistory h(schema_);
    FillPriceSteps(&h);
    h.TrimBefore(10);  // first row's start; its end is 20 > 10
    EXPECT_EQ(h.num_rows(), 3u);
  }
  {
    RelationHistory h(schema_);
    FillPriceSteps(&h);
    h.TrimBefore(19);  // end-1: row still covers 19
    EXPECT_EQ(h.num_rows(), 3u);
    ASSERT_OK_AND_ASSIGN(db::Relation r, h.AsOf(19));
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r.row(0)[1], Value::Int(1));
  }
  {
    RelationHistory h(schema_);
    FillPriceSteps(&h);
    h.TrimBefore(20);  // exactly the first row's end: dropped
    EXPECT_EQ(h.num_rows(), 2u);
    EXPECT_EQ(h.AsOf(15).status().code(), StatusCode::kOutOfRange);
    ASSERT_OK_AND_ASSIGN(db::Relation r, h.AsOf(20));
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r.row(0)[1], Value::Int(2));
  }
}

TEST_F(RelationHistoryTest, OpenRowsNeverTrimmed) {
  ASSERT_OK(history_.ApplyDelta(10, {}, {Row("A", 1), Row("B", 2)}));
  ASSERT_OK(history_.ApplyDelta(20, {Row("A", 1)}, {}));
  // A's row closed at 20; B's row is open. The maximal horizon drops only A.
  history_.TrimBefore(kTimeMax);
  EXPECT_EQ(history_.num_rows(), 1u);
  ASSERT_OK_AND_ASSIGN(db::Relation now, history_.AsOf(kTimeMax - 1));
  ASSERT_EQ(now.size(), 1u);
  EXPECT_EQ(now.row(0)[0], Value::Str("B"));
}

TEST_F(RelationHistoryTest, CurrentTimeAsOfSkipsClosedHistory) {
  // Long history of closed rows plus a small live set: a current-time read
  // must cost the live size, not the history length.
  ASSERT_OK(history_.ApplyDelta(0, {}, {Row("tick", 0)}));
  for (int i = 1; i < 2000; ++i) {
    ASSERT_OK(Update(&history_, i, "tick", i - 1, i));
  }
  uint64_t before = history_.asof_probes();
  ASSERT_OK_AND_ASSIGN(db::Relation now, history_.AsOf(5000));
  ASSERT_EQ(now.size(), 1u);
  uint64_t probes = history_.asof_probes() - before;
  EXPECT_LE(probes, history_.num_rows())
      << "current-time read scanned beyond the row store";
  // Historical reads binary-search the prefix instead of scanning from both
  // ends; they stay bounded by prefix + log.
  before = history_.asof_probes();
  ASSERT_OK_AND_ASSIGN(db::Relation past, history_.AsOf(1000));
  ASSERT_EQ(past.size(), 1u);
  EXPECT_GT(history_.asof_probes(), before);
}

TEST_F(RelationHistoryTest, KeyedAsOfIsLogarithmicInVersionsOfTheKey) {
  // 100k versions of one key: a keyed read binary-searches that key's rows,
  // so each one adds at most ceil(log2 n) + 2 probes (a scan would add ~n).
  RelationHistory h(schema_, /*key_column=*/0);
  constexpr int64_t kVersions = 100000;
  ASSERT_OK(h.ApplyDelta(0, {}, {Row("IBM", 0)}));
  for (int64_t i = 1; i < kVersions; ++i) {
    ASSERT_OK(Update(&h, i, "IBM", i - 1, i));
  }
  ASSERT_EQ(h.num_rows(), static_cast<size_t>(kVersions));
  constexpr uint64_t kBound = 17 + 2;  // ceil(log2 100000) + 2
  for (Timestamp t : {Timestamp{0}, Timestamp{1}, kVersions / 3, kVersions / 2,
                      kVersions - 2, kVersions - 1, kTimeMax}) {
    const uint64_t before = h.asof_probes();
    ASSERT_OK_AND_ASSIGN(db::Relation r, h.AsOf(t, Value::Str("IBM")));
    EXPECT_LE(h.asof_probes() - before, kBound) << "t=" << t;
    ASSERT_EQ(r.size(), 1u) << "t=" << t;
    EXPECT_EQ(r.row(0)[1], Value::Int(std::min<int64_t>(t, kVersions - 1)));
  }
  // An absent key is answered without probing any row.
  const uint64_t before = h.asof_probes();
  ASSERT_OK_AND_ASSIGN(db::Relation none,
                       h.AsOf(kVersions / 2, Value::Str("HP")));
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(h.asof_probes(), before);
}

TEST_F(RelationHistoryTest, DictionariesDeduplicateAcrossWrites) {
  // The same two tuples flap in and out 200 times: the tuple dictionary must
  // hold 2 entries, not 400.
  db::Tuple a = Row("A", 1);
  db::Tuple b = Row("B", 2);
  ASSERT_OK(history_.ApplyDelta(0, {}, {a}));
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(history_.ApplyDelta(2 * i + 1, {a}, {b}));
    ASSERT_OK(history_.ApplyDelta(2 * i + 2, {b}, {a}));
  }
  EXPECT_EQ(history_.dict_size(), 2u);
  EXPECT_GT(history_.num_rows(), 300u);
}

TEST_F(RelationHistoryTest, EstimateBytesCountsStringPayloads) {
  RelationHistory small(schema_);
  ASSERT_OK(small.ApplyDelta(1, {}, {Row("x", 1)}));
  RelationHistory big(schema_);
  ASSERT_OK(big.ApplyDelta(1, {}, {Row(std::string(100000, 'y'), 1)}));
  EXPECT_GT(big.EstimateBytes(), small.EstimateBytes() + 90000);
}

TEST_F(RelationHistoryTest, TrimCompactsDictionaries) {
  // Rows referencing early-only tuples must release their dictionary entries
  // once trimmed, or retained bytes grow with the value domain forever.
  ASSERT_OK(history_.ApplyDelta(0, {}, {Row("sym0", 0)}));
  for (int i = 1; i < 100; ++i) {
    ASSERT_OK(history_.ApplyDelta(i, {Row(StrCat("sym", i - 1), i - 1)},
                                  {Row(StrCat("sym", i), i)}));
  }
  size_t dict_before = history_.dict_size();
  history_.TrimBefore(95);
  EXPECT_LT(history_.dict_size(), dict_before);
  // Untouched reconstruction above the horizon still works.
  ASSERT_OK_AND_ASSIGN(db::Relation r, history_.AsOf(97));
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.row(0)[1], Value::Int(97));
}

}  // namespace
}  // namespace ptldb::eval

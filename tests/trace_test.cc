// Unit tests for the trace recorder: enable/disable gating, bounded rings,
// lossless value encoding, and the two export formats.

#include "common/trace.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "testutil.h"

namespace ptldb::trace {
namespace {

Span MakeSpan(SpanKind kind, std::string name, uint64_t start_ns) {
  Span s;
  s.kind = kind;
  s.name = std::move(name);
  s.start_ns = start_ns;
  s.dur_ns = 10;
  return s;
}

TEST(TraceRecorderTest, DisabledByDefaultAndScopedSpanStaysInactive) {
  Recorder rec;
  EXPECT_FALSE(rec.enabled());
  {
    ScopedSpan span(&rec, SpanKind::kUpdate, "u");
    EXPECT_FALSE(span.active());
  }
  {
    ScopedSpan span(nullptr, SpanKind::kUpdate, "u");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(rec.span_count(), 0u);

  rec.Enable();
  {
    ScopedSpan span(&rec, SpanKind::kAction, "fire");
    EXPECT_TRUE(span.active());
    span.set_detail("detail text");
  }
  EXPECT_EQ(rec.span_count(), 1u);

  // Disabling mid-flight: the decision is captured at construction, so a
  // span opened while enabled still records.
  {
    ScopedSpan span(&rec, SpanKind::kAction, "late");
    rec.Disable();
  }
  EXPECT_EQ(rec.span_count(), 2u);
}

TEST(TraceRecorderTest, SpanRingOverwritesOldestAndCountsDrops) {
  Recorder rec(/*span_capacity_per_thread=*/4, /*update_capacity=*/4);
  rec.Enable();
  for (int i = 0; i < 10; ++i) {
    rec.RecordSpan(MakeSpan(SpanKind::kRuleStep, "s" + std::to_string(i),
                            static_cast<uint64_t>(i)));
  }
  EXPECT_EQ(rec.span_count(), 4u);
  EXPECT_EQ(rec.dropped_spans(), 6u);

  // The Chrome export holds exactly the four youngest spans, oldest first.
  std::string chrome = rec.ToChromeTrace();
  for (int i = 6; i < 10; ++i) {
    EXPECT_NE(chrome.find("s" + std::to_string(i)), std::string::npos)
        << chrome;
  }
  EXPECT_EQ(chrome.find("\"s5\""), std::string::npos) << chrome;

  rec.Clear();
  EXPECT_EQ(rec.span_count(), 0u);
  EXPECT_EQ(rec.dropped_spans(), 0u);
}

TEST(TraceRecorderTest, UpdateRingDropsOldest) {
  Recorder rec(/*span_capacity_per_thread=*/4, /*update_capacity=*/2);
  rec.Enable();
  for (int i = 0; i < 5; ++i) {
    json::Json doc = json::Json::Object();
    doc.Set("kind", json::Json::Str("update"));
    doc.Set("n", json::Json::Int(i));
    rec.RecordUpdate(std::move(doc));
  }
  EXPECT_EQ(rec.update_count(), 2u);
  EXPECT_EQ(rec.dropped_updates(), 3u);
  std::string jsonl = rec.ToJsonl();
  EXPECT_NE(jsonl.find("\"n\":3"), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"n\":4"), std::string::npos);
  EXPECT_EQ(jsonl.find("\"n\":2"), std::string::npos);
  // Header reports the drop count.
  EXPECT_NE(jsonl.find("\"dropped_updates\":3"), std::string::npos) << jsonl;
}

TEST(TraceRecorderTest, SpansFromMultipleThreadsKeepDistinctTids) {
  Recorder rec;
  rec.Enable();
  rec.RecordSpan(MakeSpan(SpanKind::kStep, "main", 1));
  std::thread other(
      [&rec] { rec.RecordSpan(MakeSpan(SpanKind::kRuleStep, "worker", 2)); });
  other.join();
  EXPECT_EQ(rec.span_count(), 2u);
  ASSERT_OK_AND_ASSIGN(json::Json doc, json::Parse(rec.ToChromeTrace()));
  ASSERT_OK_AND_ASSIGN(const json::Json* events, doc.Get("traceEvents"));
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->items().size(), 2u);
  ASSERT_OK_AND_ASSIGN(const json::Json* tid0, events->items()[0].Get("tid"));
  ASSERT_OK_AND_ASSIGN(const json::Json* tid1, events->items()[1].Get("tid"));
  ASSERT_OK_AND_ASSIGN(int64_t t0, tid0->AsInt64());
  ASSERT_OK_AND_ASSIGN(int64_t t1, tid1->AsInt64());
  EXPECT_NE(t0, t1);
}

TEST(TraceRecorderTest, JsonlHeaderParsesAndCountsMatch) {
  Recorder rec;
  rec.Enable();
  json::Json doc = json::Json::Object();
  doc.Set("kind", json::Json::Str("update"));
  rec.RecordUpdate(std::move(doc));
  std::string jsonl = rec.ToJsonl();
  size_t eol = jsonl.find('\n');
  ASSERT_NE(eol, std::string::npos);
  ASSERT_OK_AND_ASSIGN(json::Json header,
                       json::Parse(std::string(jsonl.substr(0, eol))));
  ASSERT_OK_AND_ASSIGN(const json::Json* kind, header.Get("kind"));
  EXPECT_EQ(kind->AsString(), "trace_header");
  ASSERT_OK_AND_ASSIGN(const json::Json* updates, header.Get("updates"));
  ASSERT_OK_AND_ASSIGN(int64_t n, updates->AsInt64());
  EXPECT_EQ(n, 1);
}

TEST(TraceValueCodecTest, RoundTripsEveryValueType) {
  std::vector<Value> values = {
      Value::Null(),
      Value::Bool(true),
      Value::Bool(false),
      Value::Int(0),
      Value::Int(-42),
      Value::Int(INT64_MAX),
      Value::Int(INT64_MIN),
      Value::Real(0.1),  // not exactly representable: %.17g must round-trip
      Value::Real(-1.25e308),
      Value::Real(-std::numeric_limits<double>::infinity()),
      Value::Str(""),
      Value::Str("quote \" backslash \\ newline \n done"),
  };
  json::Json encoded = EncodeValues(values);
  // Through a full print/parse cycle, as a dump file would go.
  ASSERT_OK_AND_ASSIGN(json::Json reparsed, json::Parse(encoded.Dump()));
  ASSERT_OK_AND_ASSIGN(std::vector<Value> decoded, DecodeValues(reparsed));
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(decoded[i].type(), values[i].type()) << "index " << i;
    EXPECT_EQ(decoded[i].ToString(), values[i].ToString()) << "index " << i;
  }
  // Int/double stay distinct even when numerically equal.
  ASSERT_OK_AND_ASSIGN(Value as_int,
                       DecodeValue(EncodeValue(Value::Int(1))));
  ASSERT_OK_AND_ASSIGN(Value as_real,
                       DecodeValue(EncodeValue(Value::Real(1.0))));
  EXPECT_EQ(as_int.type(), ValueType::kInt64);
  EXPECT_EQ(as_real.type(), ValueType::kDouble);
}

TEST(TraceValueCodecTest, RejectsMalformedEncodings) {
  auto try_decode = [](const std::string& text) {
    auto doc = json::Parse(text);
    PTLDB_CHECK(doc.ok());
    return DecodeValue(*doc);
  };
  EXPECT_FALSE(try_decode("{\"i\":\"notanumber\"}").ok());
  EXPECT_FALSE(try_decode("{\"x\":\"1\"}").ok());
  EXPECT_FALSE(try_decode("[1,2]").ok());
}

}  // namespace
}  // namespace ptldb::trace

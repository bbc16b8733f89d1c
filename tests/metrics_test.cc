// Unit tests for the metrics registry (counters, gauges, histograms,
// providers, JSON snapshots) and the null-safe helpers components use on
// their hot paths.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/metrics.h"
#include "testutil.h"

namespace ptldb {
namespace {

TEST(MetricsTest, CounterFindOrCreateIsStable) {
  Metrics m;
  Metrics::Counter& c = m.counter("engine.steps");
  c.Add();
  c.Add(4);
  EXPECT_EQ(m.counter("engine.steps").Get(), 5u);
  EXPECT_EQ(&m.counter("engine.steps"), &c);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  Metrics m;
  Metrics::Gauge& g = m.gauge("queue.depth");
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(m.gauge("queue.depth").Get(), 7);
}

TEST(MetricsTest, HistogramTracksCountSumMax) {
  Metrics m;
  Metrics::Histogram& h = m.histogram("lat");
  h.Observe(100);
  h.Observe(300);
  h.Observe(200);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum_ns(), 600u);
  EXPECT_EQ(h.max_ns(), 300u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 200.0);
  // Quantile bounds are bucket upper bounds: every observation fits under the
  // p100 bound, and the median bound covers at least the smallest value.
  EXPECT_GE(h.QuantileUpperBoundNs(1.0), 300u);
  EXPECT_GE(h.QuantileUpperBoundNs(0.5), 100u);
  EXPECT_EQ(m.histogram("empty").QuantileUpperBoundNs(0.5), 0u);
}

TEST(MetricsTest, ConcurrentCounterUpdatesDoNotLoseIncrements) {
  Metrics m;
  Metrics::Counter& c = m.counter("c");
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.Add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.Get(), 40000u);
}

TEST(MetricsTest, ToJsonSerializesAllKindsSorted) {
  Metrics m;
  m.counter("b.count").Add(2);
  m.counter("a.count").Add(1);
  m.gauge("depth").Set(-5);
  m.histogram("lat").Observe(1000);
  std::string json = m.ToJson();
  EXPECT_NE(json.find("\"a.count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"b.count\": 2"), std::string::npos);
  EXPECT_LT(json.find("\"a.count\""), json.find("\"b.count\""));
  EXPECT_NE(json.find("\"depth\": -5"), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

TEST(MetricsTest, ProvidersRefreshGaugesAtSnapshotTime) {
  Metrics m;
  int refreshes = 0;
  uint64_t id = m.AddProvider([&refreshes](Metrics& reg) {
    reg.gauge("derived").Set(++refreshes);
  });
  EXPECT_EQ(m.gauge("derived").Get(), 0);  // lazy: no eager refresh
  (void)m.ToJson();
  EXPECT_EQ(m.gauge("derived").Get(), 1);
  (void)m.ToJson();
  EXPECT_EQ(m.gauge("derived").Get(), 2);
  m.RemoveProvider(id);
  (void)m.ToJson();
  EXPECT_EQ(m.gauge("derived").Get(), 2);  // detached
}

TEST(MetricsTest, CrossKindNameCollisionIsQuarantined) {
  Metrics m;
  m.counter("x").Add(1);
  Metrics::Gauge& g = m.gauge("x");  // wrong kind for an existing name
  g.Set(9);
  std::string json = m.ToJson();
  EXPECT_NE(json.find("\"x\": 1"), std::string::npos);
  EXPECT_NE(json.find("!conflict.x"), std::string::npos);
}

TEST(MetricsTest, JsonEscapesMetricNames) {
  Metrics m;
  m.counter("weird\"name\\with\nstuff").Add(1);
  std::string json = m.ToJson();
  EXPECT_NE(json.find("weird\\\"name\\\\with\\n"), std::string::npos);
}

TEST(MetricsTest, NullSafeHelpersAreNoOps) {
  MetricAdd(nullptr);
  MetricAdd(nullptr, 5);
  MetricSet(nullptr, 42);
  MetricObserve(nullptr, 7);
  { ScopedTimer t(nullptr); }  // must not read the clock or crash
  Metrics m;
  Metrics::Counter& c = m.counter("c");
  MetricAdd(&c, 3);
  EXPECT_EQ(c.Get(), 3u);
}

TEST(MetricsTest, PublishStatsMirrorsEachRowByKind) {
  struct Stats {
    uint64_t events = 0;
    uint64_t peak = 0;
  };
  constexpr StatRow<Stats> kRows[] = {
      {"s.events", &Stats::events, StatKind::kCounter},
      {"s.peak", &Stats::peak, StatKind::kGauge},
  };
  Metrics m;
  Stats stats{.events = 7, .peak = 3};
  PublishStats(m, stats, kRows);
  MetricsSnapshot t0 = m.TakeSnapshot();
  EXPECT_EQ(t0.counters.at("s.events"), 7u);
  EXPECT_EQ(t0.gauges.at("s.peak"), 3);
  // A second publication overwrites rather than adds, so deltas between
  // snapshots are the counts in between.
  stats.events = 10;
  PublishStats(m, stats, kRows);
  EXPECT_EQ(m.TakeSnapshot().DeltaSince(t0).counters.at("s.events"), 3u);
}

TEST(MetricsTest, ScopedTimerObservesElapsed) {
  Metrics m;
  Metrics::Histogram& h = m.histogram("t");
  { ScopedTimer t(&h); }
  EXPECT_EQ(h.count(), 1u);
}

TEST(MetricsTest, ScopedTimerNullFastPathReadsNoClock) {
  // The null fast path must be branch-only on BOTH ends — no clock read in
  // the constructor or the destructor. Every clock read ScopedTimer makes
  // goes through internal::TimerNowNs, which counts itself.
  uint64_t before = internal::scoped_timer_clock_reads.load();
  for (int i = 0; i < 1000; ++i) {
    ScopedTimer t(nullptr);
  }
  EXPECT_EQ(internal::scoped_timer_clock_reads.load(), before);
  // The live path pays exactly two reads (start + stop).
  Metrics m;
  before = internal::scoped_timer_clock_reads.load();
  { ScopedTimer t(&m.histogram("h")); }
  EXPECT_EQ(internal::scoped_timer_clock_reads.load(), before + 2);
}

// ---- Snapshots, deltas, exposition ------------------------------------------

TEST(MetricsSnapshotTest, SnapshotCapturesAllInstruments) {
  Metrics m;
  m.counter("c").Add(7);
  m.gauge("g").Set(-4);
  m.histogram("h").Observe(100);
  m.histogram("h").Observe(3000);
  MetricsSnapshot s = m.TakeSnapshot();
  EXPECT_EQ(s.counters.at("c"), 7u);
  EXPECT_EQ(s.gauges.at("g"), -4);
  EXPECT_EQ(s.histograms.at("h").count, 2u);
  EXPECT_EQ(s.histograms.at("h").sum_ns, 3100u);
  EXPECT_EQ(s.histograms.at("h").max_ns, 3000u);
  // Snapshot serialization is byte-identical to the live registry's.
  EXPECT_EQ(s.ToJson(), m.ToJson());
}

TEST(MetricsSnapshotTest, DeltaSubtractsCountersAndHistograms) {
  Metrics m;
  m.counter("c").Add(10);
  m.gauge("g").Set(5);
  m.histogram("h").Observe(100);
  MetricsSnapshot t0 = m.TakeSnapshot();
  m.counter("c").Add(3);
  m.gauge("g").Set(8);
  m.histogram("h").Observe(100);
  m.histogram("h").Observe(200);
  MetricsSnapshot t1 = m.TakeSnapshot();
  MetricsSnapshot d = t1.DeltaSince(t0);
  EXPECT_EQ(d.counters.at("c"), 3u);
  EXPECT_EQ(d.gauges.at("g"), 8);  // gauges are levels, not flows
  EXPECT_EQ(d.histograms.at("h").count, 2u);
  EXPECT_EQ(d.histograms.at("h").sum_ns, 300u);
  // Windowed quantiles come from the bucket deltas, not lifetime buckets.
  uint64_t total = 0;
  for (uint64_t b : d.histograms.at("h").buckets) total += b;
  EXPECT_EQ(total, 2u);
}

TEST(MetricsSnapshotTest, DeltaClampsAtZeroAndKeepsNewInstruments) {
  Metrics m;
  m.counter("c").Add(5);
  MetricsSnapshot later = m.TakeSnapshot();
  MetricsSnapshot earlier;
  earlier.counters["c"] = 100;  // as if from a different registry
  MetricsSnapshot d = later.DeltaSince(earlier);
  EXPECT_EQ(d.counters.at("c"), 0u);  // clamped, not underflowed
  // An instrument absent from `earlier` keeps its full value.
  Metrics m2;
  m2.counter("fresh").Add(9);
  EXPECT_EQ(m2.TakeSnapshot().DeltaSince(earlier).counters.at("fresh"), 9u);
}

TEST(MetricsSnapshotTest, PrometheusExpositionShape) {
  Metrics m;
  m.counter("server.acked").Add(12);
  m.gauge("server.queue_depth").Set(3);
  m.histogram("server.stage.read_ns").Observe(5);  // bucket 3 (bit_width 3)
  std::string text = m.ToPrometheus();
  EXPECT_NE(text.find("# TYPE ptldb_server_acked counter"),
            std::string::npos);
  EXPECT_NE(text.find("ptldb_server_acked 12"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ptldb_server_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("ptldb_server_queue_depth 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ptldb_server_stage_read_ns histogram"),
            std::string::npos);
  // Cumulative buckets: the observation of 5ns lands at le="7" (2^3 - 1).
  EXPECT_NE(text.find("ptldb_server_stage_read_ns_bucket{le=\"7\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ptldb_server_stage_read_ns_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ptldb_server_stage_read_ns_sum 5"), std::string::npos);
  EXPECT_NE(text.find("ptldb_server_stage_read_ns_count 1"),
            std::string::npos);
}

TEST(MetricsSnapshotTest, QuantileWorksOnDeltas) {
  Metrics m;
  Metrics::Histogram& h = m.histogram("h");
  for (int i = 0; i < 100; ++i) h.Observe(10);  // fast old regime
  MetricsSnapshot t0 = m.TakeSnapshot();
  for (int i = 0; i < 100; ++i) h.Observe(100000);  // slow new regime
  MetricsSnapshot d = m.TakeSnapshot().DeltaSince(t0);
  // The lifetime p50 straddles both regimes; the window p50 sees only the
  // slow one.
  EXPECT_GE(d.histograms.at("h").QuantileUpperBoundNs(0.5), 100000u);
  EXPECT_LE(t0.histograms.at("h").QuantileUpperBoundNs(0.5), 15u);
}

}  // namespace
}  // namespace ptldb

// Lightweight metrics registry for engine-wide observability.
//
// Production active-rule systems make rule execution inspectable first-class;
// here every layer (RuleEngine, IncrementalEvaluator, the aux stores, the
// query path, the ingestion server) can publish counters, gauges, and latency
// histograms into one named registry, snapshot as JSON by `Metrics::ToJson()`
// (the `stats` shell command, the benches' `--metrics-out` flag, and the
// server's STATS request) or as Prometheus-style text exposition
// (`ToPrometheus()`, the server's scrape format).
//
// Design constraints:
//
//   * One counter source. A layer counts in a plain struct (EngineStats,
//     WalStats, GroupCommitStats) whose StatRow table its provider publishes
//     at snapshot time (PublishStats): each event is bumped once, and the
//     registry's counters are the struct's lifetime totals.
//   * Near-zero overhead when unset. Code that updates instruments directly
//     (phase timers, the server's request counters) holds plain pointers,
//     null when detached, behind one branch; no instrument lookup, no clock
//     read, no allocation happens on the hot path unless metrics are wired.
//   * Instruments are owned by the registry and have stable addresses for its
//     lifetime, so cached pointers never dangle while the registry lives.
//   * Updates are atomic (relaxed): the server's reader threads bump its
//     request counters. Snapshots are not linearizable across instruments —
//     a snapshot reads each instrument atomically but the set is only
//     consistent when taken from the engine's dispatch thread.
//   * Expensive-to-maintain values (live node counts, per-rule aggregates)
//     are not updated eagerly: providers refresh them only when a snapshot is
//     taken.
//   * Snapshots are plain values (MetricsSnapshot). Two snapshots diff into a
//     delta (`DeltaSince`) so a poller — the server's STATS_DELTA request,
//     `ptldb-top` — sees rates and per-window latency distributions instead
//     of lifetime aggregates.

#ifndef PTLDB_COMMON_METRICS_H_
#define PTLDB_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ptldb {

class Metrics;

/// Point-in-time copy of one histogram's state. Also the unit of histogram
/// arithmetic: deltas subtract counts/sums/buckets bucket-wise, and the
/// quantile estimator works identically on totals and deltas.
struct HistogramSnapshot {
  static constexpr size_t kBuckets = 40;  // mirrors Metrics::Histogram

  uint64_t count = 0;
  uint64_t sum_ns = 0;
  uint64_t max_ns = 0;  // lifetime max; not diffable (kept verbatim in deltas)
  std::array<uint64_t, kBuckets> buckets = {};

  double mean_ns() const;
  /// Upper bucket bound of the q-quantile (q in [0,1]); 0 when empty.
  uint64_t QuantileUpperBoundNs(double q) const;
};

/// A consistent-enough copy of every instrument, taken under the registry
/// lock after running providers. Serializable as JSON or Prometheus text and
/// subtractable for delta polling.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// The change since `earlier`: counters and histogram counts/sums/buckets
  /// subtract (clamped at zero, so a registry swap or counter reset yields an
  /// empty delta rather than underflow); gauges keep their *current* value
  /// (a gauge is a level, not a flow); histogram max_ns stays the lifetime
  /// max. Instruments absent from `earlier` keep their full value.
  MetricsSnapshot DeltaSince(const MetricsSnapshot& earlier) const;

  /// Serializes as
  ///   {"counters": {...}, "gauges": {...}, "histograms": {name: {count, ...}}}
  /// with keys sorted, so successive snapshots diff cleanly. Byte-identical
  /// to the historical Metrics::ToJson() format.
  std::string ToJson() const;

  /// Prometheus text exposition (one scrape format for external collectors):
  /// names are sanitized to [a-zA-Z0-9_] and prefixed "ptldb_", counters and
  /// gauges emit one sample each under a `# TYPE` header, histograms emit
  /// cumulative `_bucket{le="..."}` samples over the power-of-two bounds plus
  /// `_sum` and `_count`.
  std::string ToPrometheus() const;
};

class Metrics {
 public:
  /// Monotonically increasing event count.
  class Counter {
   public:
    void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
    /// Mirrors a total counted elsewhere (a provider publishing a StatRow).
    void Set(uint64_t v) { v_.store(v, std::memory_order_relaxed); }
    uint64_t Get() const { return v_.load(std::memory_order_relaxed); }

   private:
    std::atomic<uint64_t> v_{0};
  };

  /// Point-in-time signed value (queue depths, node counts, ...).
  class Gauge {
   public:
    void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
    void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
    int64_t Get() const { return v_.load(std::memory_order_relaxed); }

   private:
    std::atomic<int64_t> v_{0};
  };

  /// Latency histogram over nanoseconds: power-of-two buckets (bucket i holds
  /// observations with bit_width(ns) == i), plus exact count/sum/max.
  class Histogram {
   public:
    static constexpr size_t kBuckets = HistogramSnapshot::kBuckets;

    void Observe(uint64_t ns);

    uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    uint64_t sum_ns() const { return sum_.load(std::memory_order_relaxed); }
    uint64_t max_ns() const { return max_.load(std::memory_order_relaxed); }
    double mean_ns() const;
    /// Upper bucket bound of the q-quantile (q in [0,1]); 0 when empty.
    uint64_t QuantileUpperBoundNs(double q) const;

    HistogramSnapshot Snapshot() const;

   private:
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> max_{0};
    std::atomic<uint64_t> buckets_[kBuckets] = {};
  };

  /// Finds or creates the named instrument. The returned reference is stable
  /// for the registry's lifetime. Name collisions across kinds are an error
  /// reported by returning a dedicated "invalid" instrument that still works
  /// but is serialized under a "!conflict." prefix, keeping the hot path
  /// assertion-free.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// A provider refreshes derived gauges right before a snapshot (it runs on
  /// the thread calling TakeSnapshot/ToJson and may call gauge()/counter()
  /// freely).
  using ProviderFn = std::function<void(Metrics&)>;
  uint64_t AddProvider(ProviderFn fn);
  void RemoveProvider(uint64_t id);

  /// Runs every provider, then copies all instruments into a plain value.
  MetricsSnapshot TakeSnapshot();

  /// TakeSnapshot().ToJson() — the `stats json` / STATS wire format.
  std::string ToJson();

  /// TakeSnapshot().ToPrometheus() — the scrape exposition format.
  std::string ToPrometheus();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<uint64_t, ProviderFn> providers_;
  uint64_t next_provider_id_ = 1;
};

namespace internal {
/// Counts every steady-clock read ScopedTimer performs. The increment rides
/// only on paths that already pay a clock read (one relaxed add next to a
/// ~20ns vDSO call); its purpose is the regression test pinning that the
/// null fast path stays clock-free on both the constructor and destructor
/// ends.
extern std::atomic<uint64_t> scoped_timer_clock_reads;

inline uint64_t TimerNowNs() {
  scoped_timer_clock_reads.fetch_add(1, std::memory_order_relaxed);
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace internal

/// Times a scope into a histogram. The null fast path (detached metrics) is
/// one branch on each end: no clock read, no allocation, no atomic traffic —
/// metrics_test pins this via internal::scoped_timer_clock_reads.
class ScopedTimer {
 public:
  explicit ScopedTimer(Metrics::Histogram* h)
      : h_(h), start_ns_(h == nullptr ? 0 : internal::TimerNowNs()) {}
  ~ScopedTimer() {
    if (h_ != nullptr) h_->Observe(internal::TimerNowNs() - start_ns_);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Metrics::Histogram* h_;
  uint64_t start_ns_;
};

/// How a StatRow is published, and whether checkpoints carry it.
enum class StatKind : uint8_t {
  kCounter,    // a running count, published as a registry counter
  kPersisted,  // a counter that the layer's checkpoint also writes
  kGauge,      // a level or maximum, published as a registry gauge
};

/// One row of a layer's counter table: a field of its stats struct `S` and
/// the registry name it publishes under. The table is the struct's only
/// field list; publication, checkpoints and printing walk it.
template <typename S>
struct StatRow {
  const char* name;
  uint64_t S::*member;
  StatKind kind = StatKind::kCounter;
};

/// Copies every row of `rows` from `stats` into `m` (a provider's body).
template <typename S, size_t N>
void PublishStats(Metrics& m, const S& stats, const StatRow<S> (&rows)[N]) {
  for (const StatRow<S>& row : rows) {
    if (row.kind == StatKind::kGauge) {
      m.gauge(row.name).Set(static_cast<int64_t>(stats.*row.member));
    } else {
      m.counter(row.name).Set(stats.*row.member);
    }
  }
}

/// Null-safe increment helpers for cached instrument pointers.
inline void MetricAdd(Metrics::Counter* c, uint64_t n = 1) {
  if (c != nullptr) c->Add(n);
}
inline void MetricSet(Metrics::Gauge* g, int64_t v) {
  if (g != nullptr) g->Set(v);
}
inline void MetricObserve(Metrics::Histogram* h, uint64_t v) {
  if (h != nullptr) h->Observe(v);
}

}  // namespace ptldb

#endif  // PTLDB_COMMON_METRICS_H_

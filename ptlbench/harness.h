// Measurement helpers of the ptldb benchmark: an in-memory span recorder,
// self-time attribution, percentile selection, and forwarding proxies that
// sit on the public seams db::Database and rules::RuleEngine already expose.
//
// The proxies are the benchmark's only view into the layers: each forwards
// every call unchanged to the component it wraps and, when a Tracer is
// attached, records one span around the forwarded call. Nothing inside the
// library is instrumented for the benchmark.

#ifndef PTLBENCH_HARNESS_H_
#define PTLBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "db/database.h"
#include "rules/engine.h"

namespace ptldb::ptlbench {

// ---- Spans -----------------------------------------------------------------

/// Layer boundaries the benchmark times. kOp is the benchmark's own call into
/// the database (one operation); the others are proxy-forwarded calls.
enum Layer : uint8_t {
  kOp,           // db: one operation, call -> return
  kOnState,      // rules: Listener::OnStateAppended
  kCommitProbe,  // rules: Listener::OnCommitAttempt (IC probe)
  kWalDelta,     // storage: WalSink::BufferDelta
  kWalState,     // storage: WalSink::OnStateAppended
  kWalFiring,    // storage: FiringObserver::OnFiring / OnIcVeto
  kArchive,      // temporal: TemporalSink::OnCommit / OnEventState
  kTableAsOf,    // temporal: AsOfProvider::TableAsOf
  kNumLayers,
};

const char* LayerName(Layer layer);

struct Span {
  Layer layer = kOp;
  bool nested_in_same_layer = false;  // an ancestor has the same layer
  int32_t parent = -1;                // index into the span vector, -1 = root
  uint64_t op = 0;                    // operation id the span belongs to
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Keeps spans in memory. Single-threaded: every call comes from the thread
/// that drives the database (the caller, or the server's engine thread).
class Tracer {
 public:
  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Spans opened from now on carry operation id `op`.
  void SetOp(uint64_t op) { op_ = op; }

  int32_t Open(Layer layer) {
    Span s;
    s.layer = layer;
    s.nested_in_same_layer = open_per_layer_[layer] > 0;
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = op_;
    s.start_ns = NowNs();
    spans_.push_back(s);
    auto idx = static_cast<int32_t>(spans_.size() - 1);
    open_.push_back(idx);
    ++open_per_layer_[layer];
    return idx;
  }

  void Close(int32_t idx) {
    Span& s = spans_[static_cast<size_t>(idx)];
    s.end_ns = NowNs();
    --open_per_layer_[s.layer];
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  std::array<int, kNumLayers> open_per_layer_{};
  uint64_t op_ = 0;
};

/// RAII span; a null tracer makes it free of clock reads.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer)
      : tracer_(tracer), idx_(tracer == nullptr ? -1 : tracer->Open(layer)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t idx_;
};

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (children clipped to the parent, overlaps among
/// them counted once).
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

/// Per-layer totals over a span set.
struct LayerTimes {
  /// Self time summed over every span of the layer.
  std::array<uint64_t, kNumLayers> self_ns{};
  /// Duration summed over the layer's outermost spans (a span nested inside
  /// a span of the same layer is already inside its ancestor's duration).
  std::array<uint64_t, kNumLayers> inclusive_ns{};
  std::array<uint64_t, kNumLayers> count{};
  /// Duration summed over root spans of layer kOp (whole operations), and
  /// self time summed over every span under them, the op spans included.
  uint64_t op_root_ns = 0;
  uint64_t op_tree_self_ns = 0;
};

LayerTimes SumLayers(const std::vector<Span>& spans);

// ---- Percentiles -----------------------------------------------------------

/// Nearest-rank percentile (p in (0, 100]) of `samples`; sorts in place.
/// 0 when empty.
double Percentile(std::vector<double>* samples, double p);

/// The value one in five of `per_rep` beats: its 20th percentile from the
/// good end (the low end when lower is better). The run's figure for a
/// timing: interference from other tenants of the host only ever slows a
/// rep, so the good end estimates the program's own cost, and one lucky rep
/// moves it less than it would move the minimum.
double GoodFifth(std::vector<double> per_rep, bool lower_is_better);

/// The highest of 50, 90, 99, 99.9, 99.99, ... that leaves at least
/// `min_beyond` samples above it out of `n`; 0 when not even the median
/// does.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

// ---- Proxies -----------------------------------------------------------------

/// Between the database and its listener (the rule engine).
class ListenerProxy : public db::Database::Listener {
 public:
  ListenerProxy(db::Database::Listener* next, Tracer* tracer)
      : next_(next), tracer_(tracer) {}

  Status OnCommitAttempt(const event::SystemState& prospective,
                         int64_t txn) override {
    ++commit_attempts;
    ScopedSpan span(tracer_, kCommitProbe);
    return next_->OnCommitAttempt(prospective, txn);
  }
  void OnStateAppended(const event::SystemState& state) override {
    ++states;
    ScopedSpan span(tracer_, kOnState);
    next_->OnStateAppended(state);
  }

  uint64_t commit_attempts = 0;
  uint64_t states = 0;

 private:
  db::Database::Listener* next_;
  Tracer* tracer_;
};

/// Between the database and its WAL sink (the durability manager).
class WalSinkProxy : public db::Database::WalSink {
 public:
  WalSinkProxy(db::Database::WalSink* next, Tracer* tracer)
      : next_(next), tracer_(tracer) {}

  void BufferDelta(db::RedoDelta delta) override {
    ScopedSpan span(tracer_, kWalDelta);
    next_->BufferDelta(std::move(delta));
  }
  void OnStateAppended(const event::SystemState& state) override {
    ScopedSpan span(tracer_, kWalState);
    next_->OnStateAppended(state);
  }

 private:
  db::Database::WalSink* next_;
  Tracer* tracer_;
};

/// Between the database and its temporal sink (the version store). The sink
/// doubles as the AsOfProvider behind AS OF scans, so those calls pass
/// through the proxy too.
class TemporalSinkProxy : public db::Database::TemporalSink {
 public:
  TemporalSinkProxy(db::Database::TemporalSink* next, Tracer* tracer)
      : next_(next), tracer_(tracer) {}

  Status OnCommit(const event::SystemState& state,
                  const std::vector<db::RedoDelta>& deltas) override {
    ScopedSpan span(tracer_, kArchive);
    return next_->OnCommit(state, deltas);
  }
  Status OnEventState(const event::SystemState& state) override {
    ScopedSpan span(tracer_, kArchive);
    return next_->OnEventState(state);
  }
  bool IsVersioned(const std::string& table) const override {
    return next_->IsVersioned(table);
  }
  Result<db::Relation> TableAsOf(const std::string& table,
                                 Timestamp t) const override {
    ++table_asof_calls;
    ScopedSpan span(tracer_, kTableAsOf);
    return next_->TableAsOf(table, t);
  }

  mutable uint64_t table_asof_calls = 0;

 private:
  db::Database::TemporalSink* next_;
  Tracer* tracer_;
};

/// Between the rule engine and its firing observer (the durability manager,
/// which writes the WAL's firing and veto records). Also keeps the firing
/// log the correctness gates compare; `next` may be null.
class FiringObserverProxy : public rules::RuleEngine::FiringObserver {
 public:
  FiringObserverProxy(rules::RuleEngine::FiringObserver* next, Tracer* tracer)
      : next_(next), tracer_(tracer) {}

  void OnFiring(const rules::Firing& firing) override {
    log.push_back(firing);
    if (next_ == nullptr) return;
    ScopedSpan span(tracer_, kWalFiring);
    next_->OnFiring(firing);
  }
  void OnIcVeto(int64_t txn, Timestamp time,
                const std::vector<std::string>& violated) override {
    ++vetoes;
    if (next_ == nullptr) return;
    ScopedSpan span(tracer_, kWalFiring);
    next_->OnIcVeto(txn, time, violated);
  }

  std::vector<rules::Firing> log;
  uint64_t vetoes = 0;

 private:
  rules::RuleEngine::FiringObserver* next_;
  Tracer* tracer_;
};

// ---- Digests -------------------------------------------------------------------

/// 64-bit FNV-1a, for comparing outputs across runs without keeping them.
uint64_t Fnv1a(std::string_view bytes, uint64_t h = 1469598103934665603ull);

/// Digest of a firing log: rule, parameters and time of every firing, in
/// order.
uint64_t FiringDigest(const std::vector<rules::Firing>& log);

}  // namespace ptldb::ptlbench

#endif  // PTLBENCH_HARNESS_H_

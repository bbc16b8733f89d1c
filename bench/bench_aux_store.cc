// E15 — columnar auxiliary stores (DESIGN.md §14) on three long-history
// shapes that mirror the engine's uses:
//
//   * historical AsOf probes against an N-interval scalar series (the E1
//     retained-variable read pattern), answered by a binary search of the
//     start column;
//   * batched retained-formula reads — K sorted timestamps answered in one
//     GatherAsOf merge pass (E8-shaped);
//   * relation reconstruction at historical and current times against a
//     churned RelationHistory (E2-shaped retention workload).
//
// The AsOf benchmarks also report retained bytes on a string-valued history,
// where dictionary encoding pays the most. The row-oriented layout these
// stores replaced is gone; its last measured numbers are frozen in
// EXPERIMENTS.md E15.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "db/schema.h"
#include "eval/aux_store.h"
#include "json_out.h"
#include "workloads.h"

namespace ptldb::bench {
namespace {

// A price path as interval values: symbols repeat out of a small domain, so
// the value dictionary stays tiny while the interval count grows.
Value TickValue(int64_t price) {
  return Value::Str("lvl_" + std::to_string(price / 10));
}

eval::ScalarSeries BuildSeries(size_t n) {
  Rng rng(42);
  eval::ScalarSeries s;
  std::vector<int64_t> path = PricePath(&rng, n);
  Timestamp now = 0;
  for (size_t i = 0; i < n; ++i) {
    now += 1 + static_cast<Timestamp>(rng.Below(3));
    // Alternate the mapped value so nearly every record opens an interval.
    Value v = (i % 2 == 0) ? TickValue(path[i]) : Value::Int(path[i]);
    if (!s.Record(now, std::move(v)).ok()) std::abort();
  }
  return s;
}

void BM_ScalarAsOf_Columnar(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const eval::ScalarSeries series = BuildSeries(n);
  const Timestamp span = static_cast<Timestamp>(2 * n);
  Rng rng(7);
  size_t found = 0;
  for (auto _ : state) {
    auto r = series.AsOf(static_cast<Timestamp>(rng.Below(
        static_cast<uint64_t>(span))) + 1);
    if (r.ok()) ++found;
  }
  benchmark::DoNotOptimize(found);
  state.counters["retained_bytes"] =
      benchmark::Counter(static_cast<double>(series.EstimateBytes()));
}

// Batched retained-formula read: K ascending timestamps per evaluation pass.
constexpr size_t kBatch = 256;

void BM_ScalarGather_Columnar(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const eval::ScalarSeries series = BuildSeries(n);
  std::vector<Timestamp> ts;
  for (size_t i = 0; i < kBatch; ++i) {
    // First record lands at t <= 3, so every probe hits recorded history.
    ts.push_back(static_cast<Timestamp>(3 + i * (2 * n - 8) / kBatch));
  }
  std::vector<Value> out;
  size_t found = 0;
  for (auto _ : state) {
    // Per-element NotFound aborts the gather; this workload's probes all land
    // inside recorded history, so OK is the steady state.
    Status s = series.GatherAsOf(ts, &out);
    if (s.ok()) found += out.size();
  }
  benchmark::DoNotOptimize(found);
  state.counters["batch"] = benchmark::Counter(kBatch);
}

const db::Schema& BenchSchema() {
  static const db::Schema schema({{"sym", ValueType::kString},
                                  {"qty", ValueType::kInt64}});
  return schema;
}

// Relation churn: a small hot set of symbols whose membership flips over
// time, then historical reconstructions.
eval::RelationHistory BuildHistory(size_t n) {
  const db::Schema& schema = BenchSchema();
  Rng rng(99);
  eval::RelationHistory h(schema);
  Timestamp now = 0;
  std::vector<bool> present(16, false);
  for (size_t i = 0; i < n; ++i) {
    now += 1 + static_cast<Timestamp>(rng.Below(2));
    present[rng.Below(present.size())].flip();
    db::Relation rel(schema);
    for (size_t k = 0; k < present.size(); ++k) {
      if (present[k]) {
        rel.AppendUnchecked({Value::Str("sym_" + std::to_string(k)),
                             Value::Int(static_cast<int64_t>(i % 97))});
      }
    }
    if (!h.Record(now, rel).ok()) std::abort();
  }
  return h;
}

void BM_RelationAsOf_Columnar(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const eval::RelationHistory history = BuildHistory(n);
  const Timestamp span = static_cast<Timestamp>(2 * n);
  Rng rng(5);
  size_t rows = 0;
  for (auto _ : state) {
    auto r = history.AsOf(static_cast<Timestamp>(rng.Below(
        static_cast<uint64_t>(span))) + 1);
    if (r.ok()) rows += r->size();
  }
  benchmark::DoNotOptimize(rows);
  state.counters["retained_bytes"] =
      benchmark::Counter(static_cast<double>(history.EstimateBytes()));
}

// Current-state reads: the engine's dominant pattern (conditions evaluate at
// `now`). The fast path scans only the end column of the live window.
void BM_RelationCurrent_Columnar(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const eval::RelationHistory history = BuildHistory(n);
  const Timestamp now = static_cast<Timestamp>(2 * n);
  size_t rows = 0;
  for (auto _ : state) {
    auto r = history.AsOf(now);
    if (r.ok()) rows += r->size();
  }
  benchmark::DoNotOptimize(rows);
}

BENCHMARK(BM_ScalarAsOf_Columnar)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_ScalarGather_Columnar)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RelationAsOf_Columnar)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RelationCurrent_Columnar)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ptldb::bench

int main(int argc, char** argv) {
  return ptldb::bench::BenchMain(argc, argv, "aux_store");
}

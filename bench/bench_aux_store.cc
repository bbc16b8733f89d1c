// E15 — the columnar auxiliary relation (DESIGN.md §14): relation
// reconstruction at historical and current times against a churned
// RelationHistory (E2-shaped retention workload), written through
// ApplyDelta as VersionStore writes every commit. The historical reads also
// report retained bytes on a string-valued history, where dictionary
// encoding pays the most. The row-oriented layout this store replaced, and
// the scalar interval series that was deleted with its last caller, are
// gone; their last measured numbers are frozen in EXPERIMENTS.md E15.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "db/schema.h"
#include "eval/aux_store.h"
#include "json_out.h"
#include "workloads.h"

namespace ptldb::bench {
namespace {

const db::Schema& BenchSchema() {
  static const db::Schema schema({{"sym", ValueType::kString},
                                  {"qty", ValueType::kInt64}});
  return schema;
}

// Relation churn: a small hot set of symbols whose membership flips over
// time, every present row restamped with the step's quantity, then
// historical reconstructions.
eval::RelationHistory BuildHistory(size_t n) {
  const db::Schema& schema = BenchSchema();
  Rng rng(99);
  eval::RelationHistory h(schema);
  Timestamp now = 0;
  std::vector<bool> present(16, false);
  std::vector<db::Tuple> rows;
  for (size_t i = 0; i < n; ++i) {
    now += 1 + static_cast<Timestamp>(rng.Below(2));
    present[rng.Below(present.size())].flip();
    std::vector<db::Tuple> next;
    for (size_t k = 0; k < present.size(); ++k) {
      if (present[k]) {
        next.push_back({Value::Str("sym_" + std::to_string(k)),
                        Value::Int(static_cast<int64_t>(i % 97))});
      }
    }
    if (!h.ApplyDelta(now, rows, next).ok()) std::abort();
    rows = std::move(next);
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

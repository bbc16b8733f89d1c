// E2 — §5 optimizations: bounded temporal operators keep *bounded* retained
// state when the optimizations (time-bound pruning + interval subsumption)
// are on; with both off the retained disjunction grows with the updates.
//
// Series: max live graph nodes (and final per-update cost) vs update count,
// pruning on/off, for a WITHIN window condition whose inner predicate stays
// symbolic on ~2/7 of states.
//
// `--smoke [--metrics-out <file>]` instead runs a quick CI check through the
// full RuleEngine with a metrics registry attached: a bounded-operator rule
// over thousands of states with a small collection threshold. It writes the
// Metrics::ToJson() snapshot and exits nonzero when the retained-node gauge
// grows unboundedly or the collection policy never engaged.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "db/database.h"
#include "eval/incremental.h"
#include "json_out.h"
#include "ptl/parser.h"
#include "rules/engine.h"
#include "workloads.h"

namespace ptldb {
namespace {

ptl::Analysis MustAnalyze(const char* text) {
  auto f = ptl::ParseFormula(text);
  if (!f.ok()) std::abort();
  auto a = ptl::Analyze(*f);
  if (!a.ok()) std::abort();
  return std::move(a).value();
}

constexpr const char* kCondition = "WITHIN(price('IBM') >= 100, 32)";

void RunOnce(benchmark::State& state, bool pruning) {
  const size_t n = static_cast<size_t>(state.range(0));
  size_t max_live = 0;
  double fired_total = 0;
  for (auto _ : state) {
    auto ev = eval::IncrementalEvaluator::Make(
        MustAnalyze(kCondition),
        eval::IncrementalEvaluator::Options{.time_pruning = pruning,
                                            .subsumption = pruning});
    if (!ev.ok()) std::abort();
    Timestamp now = 0;
    for (size_t i = 0; i < n; ++i) {
      ptl::StateSnapshot s;
      s.seq = i;
      s.time = ++now;
      // Price crosses the threshold on 2 of every 7 states, leaving residual
      // time clauses in the retained state.
      s.query_values.push_back(Value::Int(static_cast<int64_t>(i % 7) * 20));
      auto fired = ev->Step(s);
      if (!fired.ok()) std::abort();
      fired_total += *fired;
      max_live = std::max(max_live, ev->LiveNodeCount());
      ev->MaybeCollect();
    }
  }
  benchmark::DoNotOptimize(fired_total);
  state.counters["max_live_nodes"] =
      benchmark::Counter(static_cast<double>(max_live));
  state.counters["sec_per_update"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_BoundedState_Pruned(benchmark::State& state) { RunOnce(state, true); }
void BM_BoundedState_NoPruning(benchmark::State& state) {
  RunOnce(state, false);
}

BENCHMARK(BM_BoundedState_Pruned)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);
// Unpruned state grows linearly (and per-update cost superlinearly): keep the
// sweep smaller.
BENCHMARK(BM_BoundedState_NoPruning)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

// ---- CI smoke mode (--smoke [--metrics-out <file>]) -------------------------

// Drives the full engine + metrics wiring over a bounded-operator workload
// and asserts the §5 claim end-to-end: retained state stays bounded because
// the collection policy engages. Returns a process exit code.
int RunSmoke(const std::string& metrics_out) {
  constexpr size_t kStates = 4000;
  SimClock clock(0);
  db::Database database(&clock);
  // Declared before the engine: ~RuleEngine detaches from the registry.
  Metrics metrics;
  rules::RuleEngine engine(&database);
  engine.SetMetrics(&metrics);
  // A small threshold so the policy must engage many times within the run.
  engine.SetCollectThreshold(256);

  if (!database.CreateTable("stock", db::Schema({{"name", ValueType::kString},
                                                 {"price", ValueType::kInt64}}))
           .ok()) {
    return 2;
  }
  if (!database.InsertRow("stock", {Value::Str("IBM"), Value::Int(0)}).ok()) {
    return 2;
  }
  if (!engine.queries()
           .Register("price", "SELECT price FROM stock WHERE name = $p1",
                     {"p1"})
           .ok()) {
    return 2;
  }
  if (!engine
           .AddTrigger("hot", kCondition,
                       [](rules::ActionContext&) { return Status::OK(); },
                       rules::RuleOptions{.record_execution = false})
           .ok()) {
    return 2;
  }

  size_t max_live_first_quarter = 0, max_live = 0, max_store = 0;
  for (size_t i = 0; i < kStates; ++i) {
    clock.Advance(1);
    Value price = Value::Int(static_cast<int64_t>(i % 7) * 20);
    if (!database
             .UpdateRows("stock", {{"price", price.ToString()}},
                         "name = 'IBM'")
             .ok()) {
      return 2;
    }
    (void)engine.TakeFirings();
    auto info = engine.Describe("hot");
    if (!info.ok()) return 2;
    max_live = std::max(max_live, info->retained_nodes);
    max_store = std::max(max_store, info->store_nodes);
    if (i < kStates / 4) max_live_first_quarter = max_live;
  }
  if (!engine.TakeErrors().empty()) return 2;

  uint64_t collections = engine.stats().collections;
  // Bounded-operator workload: the late-run retained state must not dwarf the
  // early-run state, and the collection policy must actually have fired.
  bool bounded = max_live <= 2 * max_live_first_quarter + 32;
  bool collected = collections > 0;

  std::string json = metrics.ToJson();
  std::string doc = StrCat(
      "{\n  \"benchmark\": \"bounded_state_smoke\",\n  \"states\": ", kStates,
      ",\n  \"max_live_nodes\": ", max_live,
      ",\n  \"max_live_nodes_first_quarter\": ", max_live_first_quarter,
      ",\n  \"max_store_nodes\": ", max_store,
      ",\n  \"collections\": ", collections,
      ",\n  \"bounded\": ", bounded ? "true" : "false",
      ",\n  \"collected\": ", collected ? "true" : "false",
      ",\n  \"metrics\": ", json, "\n}\n");
  std::fputs(doc.c_str(), stdout);
  if (!metrics_out.empty()) {
    std::FILE* f = std::fopen(metrics_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", metrics_out.c_str());
      return 2;
    }
    std::fputs(doc.c_str(), f);
    std::fclose(f);
  }
  if (!bounded) {
    std::fprintf(stderr,
                 "FAIL: retained nodes grew unboundedly (%zu late vs %zu "
                 "early)\n",
                 max_live, max_live_first_quarter);
    return 1;
  }
  if (!collected) {
    std::fprintf(stderr, "FAIL: the collection policy never engaged\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ptldb

int main(int argc, char** argv) {
  bool smoke = false;
  bool json = false;
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    }
  }
  // `--json` selects the shared-schema emitter over the BM_ functions;
  // `--smoke` without it keeps the legacy CI check (bounded-state assertion +
  // Metrics snapshot) that the bench-smoke job depends on.
  if (json) return ptldb::bench::BenchMain(argc, argv, "bounded_state");
  if (smoke) return ptldb::RunSmoke(metrics_out);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

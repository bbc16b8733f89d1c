// ptlbench: the ptldb benchmark binary.
//
//   ptlbench --workload ticks_steady|stock_churn|served_mixed --seed N
//            --seconds S --trace 0|1 --run-dir DIR [--spans-out FILE]
//
// One process runs one workload. It builds a fresh world per repetition
// ("rep") from inputs generated once from the seed, so every rep of a run
// replays the same operations: rep 0 warms caches and is not timed, then reps
// run until `--seconds` have elapsed, then one shadow rep runs in the other
// tracing mode (after peak RSS is read). Timings are pooled or taken as
// medians over the timed reps; the last stdout line is the result JSON.
//
// Every rep checks its own outputs (see README.md, "Correctness gates"); a
// failed gate sets "correct": false and the exit code to 1.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/codec.h"
#include "common/metrics.h"
#include "db/database.h"
#include "harness.h"
#include "rules/engine.h"
#include "rules/offline_check.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/durability.h"
#include "storage/recovery.h"
#include "temporal/versioning.h"

namespace ptldb::ptlbench {
namespace {

namespace fs = std::filesystem;
using Steady = std::chrono::steady_clock;

double SecondsSince(Steady::time_point t0) {
  return std::chrono::duration<double>(Steady::now() - t0).count();
}

// ---- Workload parameters -------------------------------------------------------

constexpr int kSymbols = 16;
const char* const kSymbolNames[kSymbols] = {
    "IBM", "HP",   "DEC",  "SUN",  "SGI",  "CRAY", "APPL", "INTC",
    "MSFT", "ORCL", "SYBS", "INFX", "TDM", "NCR",  "AMDH", "WANG"};

constexpr int kTicksOps = 2500;        // ticks_steady operations per rep
constexpr int kTicksEventEvery = 4;    // every 4th operation raises `alert`
constexpr int kChurnOps = 4000;        // stock_churn operations per rep
constexpr int kChurnAsOfEvery = 4;     // every 4th operation is an AS OF read
constexpr uint64_t kChurnCheckpointStates = 4096;
// One session with 64 requests in flight fills the server's 64-request
// batches. With two sessions of 32, batch formation is bistable: the two
// bursts either merge into one batch or split into two, which moved
// throughput by about 15% from rep to rep.
constexpr int kServedSessions = 1;
constexpr int kServedRequests = 4000;  // per session per rep
constexpr int kServedWindow = 64;      // requests in flight per session
constexpr int kPostRunProbes = 2000;   // AS OF reads after the op loop
constexpr int kMinTimedReps = 3;

constexpr const char* kAsOfSql = "SELECT price FROM stock WHERE name = $s";

enum class Workload { kTicksSteady, kStockChurn, kServedMixed };

struct Options {
  Workload workload = Workload::kTicksSteady;
  std::string workload_name;
  uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string run_dir;
  std::string spans_out;
};

// ---- Generated inputs ------------------------------------------------------------

struct ChurnUpdate {
  int sym = 0;
  double delta = 0;
};

/// One operation of a library workload, fixed before any timing starts.
struct LibOp {
  enum Kind { kInsertTick, kRaiseAlert, kTxn, kAsOf } kind = kInsertTick;
  double price = 0;                  // tick price
  std::vector<ChurnUpdate> updates;  // kTxn: 1-3 distinct symbols
  int sym = 0;                       // kAsOf
  double frac = 0;                   // kAsOf: position in the archive, [0,1)
};

struct Inputs {
  std::vector<double> initial_prices;  // per symbol
  std::vector<LibOp> ops;              // library workloads
  std::vector<std::vector<server::Request>> sessions;  // served_mixed
  std::vector<std::pair<int, double>> post_probes;     // (symbol, frac)
};

Inputs MakeInputs(const Options& opt) {
  std::mt19937_64 rng(opt.seed * 0x9E3779B97F4A7C15ull +
                      static_cast<uint64_t>(opt.workload));
  std::uniform_real_distribution<double> unit(0, 1);
  Inputs in;
  // Fixed starting prices, so that seeds vary the operation stream only:
  // IBM starts near the cap and HP near the window threshold, so `cap` and
  // `window` see real transitions wherever stock moves, and three symbols
  // start below `cheap`'s threshold.
  in.initial_prices = {92, 28, 20, 35, 45, 55, 65, 75,
                       85, 15, 40, 50, 60, 70, 80, 22};
  auto tick_price = [&] { return 5 + 90 * unit(rng); };
  switch (opt.workload) {
    case Workload::kTicksSteady:
      for (int i = 0; i < kTicksOps; ++i) {
        LibOp op;
        op.kind = i % kTicksEventEvery == kTicksEventEvery - 1
                      ? LibOp::kRaiseAlert
                      : LibOp::kInsertTick;
        op.price = tick_price();
        in.ops.push_back(std::move(op));
      }
      break;
    case Workload::kStockChurn:
      for (int i = 0; i < kChurnOps; ++i) {
        LibOp op;
        if (i % kChurnAsOfEvery == kChurnAsOfEvery - 1) {
          op.kind = LibOp::kAsOf;
          op.sym = static_cast<int>(rng() % kSymbols);
          op.frac = unit(rng);
        } else {
          op.kind = LibOp::kTxn;
          op.price = tick_price();
          std::set<int> picked;
          const int n = 1 + static_cast<int>(rng() % 3);
          while (static_cast<int>(picked.size()) < n) {
            // IBM is drawn half the time so the cap is probed often.
            picked.insert(unit(rng) < 0.5 ? 0 : static_cast<int>(rng() % kSymbols));
          }
          for (int sym : picked) op.updates.push_back({sym, -4 + 8 * unit(rng)});
        }
        in.ops.push_back(std::move(op));
      }
      break;
    case Workload::kServedMixed:
      // The ptldb-loadgen --mode=mixed shape: ticks inserts, stock updates
      // and raised events in turn. Each session updates its own symbols,
      // never IBM or HP, at prices in [25, 95]: so every request is acked
      // OK, and `on_alert` is the only rule that fires while serving. A
      // second rule firing inside one server batch would make Recover report
      // order mismatches: the batched Flush logs a batch's firings rule by
      // rule, while WAL replay reproduces them state by state.
      constexpr int kOwned = (kSymbols - 2) / kServedSessions;
      for (int s = 0; s < kServedSessions; ++s) {
        std::vector<server::Request> reqs;
        for (int j = 0; j < kServedRequests; ++j) {
          server::Request req;
          switch (j % 3) {
            case 0:
              req.type = server::MsgType::kInsert;
              req.table = "ticks";
              req.row = {Value::Int(s), Value::Int(j), Value::Real(tick_price())};
              break;
            case 1: {
              const int sym = 2 + s * kOwned + static_cast<int>(rng() % kOwned);
              req.type = server::MsgType::kUpdate;
              req.table = "stock";
              req.set = {{"price", "$p"}};
              req.where = "name = $n";
              req.params = {{"p", Value::Real(25 + 70 * unit(rng))},
                            {"n", Value::Str(kSymbolNames[sym])}};
              break;
            }
            default:
              req.type = server::MsgType::kRaiseEvent;
              req.event_name = "alert";
              req.event_params = {Value::Int(s), Value::Int(j)};
              break;
          }
          reqs.push_back(std::move(req));
        }
        in.sessions.push_back(std::move(reqs));
      }
      break;
  }
  for (int i = 0; i < kPostRunProbes; ++i) {
    in.post_probes.emplace_back(static_cast<int>(rng() % kSymbols), unit(rng));
  }
  return in;
}

// ---- The world -------------------------------------------------------------------

/// The demo stock world of ptldb-server, widened to 16 symbols, with `stock`
/// versioned and the shared rule set registered. With a tracer, the listener
/// and temporal-sink proxies sit between the database and the engine/store;
/// after Attach the WAL-sink proxy wraps the durability manager. The firing
/// observer proxy is installed in both modes: it keeps the firing log the
/// gates compare and costs nothing per state (it runs only on firings).
struct World {
  explicit World(Tracer* t) : tracer(t) {
    if (tracer != nullptr) {
      db.SetListener(&listener);
      db.SetTemporalSink(&temporal_proxy);
    }
  }
  ~World() { Detach(); }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Tables, rules, versioning; seeds stock rows when `seed_rows` (a world
  /// built for recovery leaves contents to the checkpoint).
  Status Build(const std::vector<double>& prices, bool seed_rows) {
    PTLDB_RETURN_IF_ERROR(db.CreateTable(
        "stock",
        db::Schema({{"name", ValueType::kString}, {"price", ValueType::kDouble}}),
        {"name"}));
    PTLDB_RETURN_IF_ERROR(db.CreateTable(
        "ticks",
        db::Schema({{"client", ValueType::kInt64},
                    {"seq", ValueType::kInt64},
                    {"price", ValueType::kDouble}}),
        {"client", "seq"}));
    auto t0 = Steady::now();
    PTLDB_RETURN_IF_ERROR(engine.queries().Register(
        "price", "SELECT price FROM stock WHERE name = $sym", {"sym"}));
    auto noop = [](rules::ActionContext&) { return Status::OK(); };
    rules::RuleOptions quiet;
    quiet.record_execution = false;
    PTLDB_RETURN_IF_ERROR(
        engine.AddTrigger("window", "WITHIN(price('HP') > 30, 25)", noop, quiet));
    PTLDB_RETURN_IF_ERROR(
        engine.AddIntegrityConstraint("cap", "price('IBM') <= 100"));
    PTLDB_RETURN_IF_ERROR(engine.AddTrigger(
        "latch", "[x := price('IBM')] PREVIOUSLY (price('IBM') < x - 8)", noop,
        quiet));
    PTLDB_RETURN_IF_ERROR(engine.AddTriggerFamily(
        "cheap", "SELECT name FROM stock", {"sym"}, "price(sym) < 25", noop,
        quiet));
    // Records its executions: the __executed insert is a transaction nested
    // inside the dispatch of the state that raised `alert`.
    PTLDB_RETURN_IF_ERROR(engine.AddTrigger("on_alert", "@alert", noop));
    register_ms = SecondsSince(t0) * 1e3;
    PTLDB_RETURN_IF_ERROR(temporal.SetVersioned("stock"));
    if (seed_rows) {
      for (int s = 0; s < kSymbols; ++s) {
        PTLDB_RETURN_IF_ERROR(db.InsertRow(
            "stock", {Value::Str(kSymbolNames[s]), Value::Real(prices[s])}));
      }
    }
    return Status::OK();
  }

  void Analyze() {
    auto t0 = Steady::now();
    (void)engine.AnalyzeRuleSet();
    analyze_ms = SecondsSince(t0) * 1e3;
  }

  storage::CheckpointTargets Targets() {
    storage::CheckpointTargets t;
    t.db = &db;
    t.engine = &engine;
    t.clock = &clock;
    t.temporal = &temporal;
    return t;
  }

  Status Attach(const std::string& dir, storage::FsyncPolicy fsync) {
    auto t0 = Steady::now();
    storage::DurabilityOptions opts;
    opts.dir = dir;
    opts.fsync = fsync;
    auto m = storage::DurabilityManager::Attach(opts, Targets());
    if (!m.ok()) return m.status();
    mgr = std::move(m).value();
    attach_ms = SecondsSince(t0) * 1e3;
    if (tracer != nullptr) {
      wal_proxy = std::make_unique<WalSinkProxy>(mgr.get(), tracer);
      db.SetWalSink(wal_proxy.get());
    }
    firing = std::make_unique<FiringObserverProxy>(mgr.get(), tracer);
    engine.SetFiringObserver(firing.get());
    return Status::OK();
  }

  /// Drops the durability manager without a final checkpoint (the WAL tail
  /// is what recovery replays).
  void Detach() {
    db.SetWalSink(nullptr);
    engine.SetFiringObserver(nullptr);
    mgr.reset();
  }

  Result<std::string> Contents() const {
    std::string out;
    codec::Writer w(&out);
    PTLDB_RETURN_IF_ERROR(db.SerializeContents(&w));
    return out;
  }

  Tracer* tracer;
  SimClock clock{0};
  db::Database db{&clock};
  rules::RuleEngine engine{&db};
  temporal::VersionStore temporal{&db};
  ListenerProxy listener{&engine, tracer};
  TemporalSinkProxy temporal_proxy{&temporal, tracer};
  std::unique_ptr<WalSinkProxy> wal_proxy;
  std::unique_ptr<FiringObserverProxy> firing;
  std::unique_ptr<storage::DurabilityManager> mgr;
  double register_ms = 0, analyze_ms = 0, attach_ms = 0;
};

// ---- One rep ---------------------------------------------------------------------

/// Exact work counters of one rep's operation loop; identical across reps of
/// one seed on the library workloads.
struct Counters {
  uint64_t ops = 0;
  uint64_t states = 0;
  uint64_t commit_attempts = 0;
  uint64_t query_evals = 0;
  uint64_t memo_hits = 0;
  uint64_t rule_steps = 0;
  uint64_t actions = 0;
  uint64_t ic_checks = 0;
  uint64_t ic_vetoes = 0;
  uint64_t firings = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_records = 0;
  uint64_t wal_syncs = 0;
  uint64_t group_syncs = 0;
  uint64_t temporal_commits = 0;
  uint64_t temporal_rows = 0;
  uint64_t temporal_bytes = 0;
  // Levels at the end of the loop rather than flows.
  uint64_t retained_nodes = 0;
  uint64_t store_nodes = 0;
  uint64_t collections = 0;

  bool operator==(const Counters&) const = default;

  /// The flows since `before`; levels stay as they are.
  Counters Since(const Counters& before) const {
    Counters d = *this;
    d.ops -= before.ops;
    d.states -= before.states;
    d.commit_attempts -= before.commit_attempts;
    d.query_evals -= before.query_evals;
    d.memo_hits -= before.memo_hits;
    d.rule_steps -= before.rule_steps;
    d.actions -= before.actions;
    d.ic_checks -= before.ic_checks;
    d.ic_vetoes -= before.ic_vetoes;
    d.firings -= before.firings;
    d.wal_bytes -= before.wal_bytes;
    d.wal_records -= before.wal_records;
    d.wal_syncs -= before.wal_syncs;
    d.group_syncs -= before.group_syncs;
    d.temporal_commits -= before.temporal_commits;
    d.temporal_rows -= before.temporal_rows;
    d.temporal_bytes -= before.temporal_bytes;
    return d;
  }
};

struct RepResult {
  double setup_s = 0, register_ms = 0, analyze_ms = 0, attach_ms = 0;
  double loop_s = 0;
  uint64_t attempted = 0, failed = 0;
  std::vector<double> lat_us, asof_us, table_asof_us;
  double recover_s = 0;
  uint64_t recover_states = 0;
  double checkpoint_ms_sum = 0;
  uint64_t checkpoints = 0, checkpoint_bytes_sum = 0;
  uint64_t firing_digest = 0, contents_digest = 0;
  Counters counters;
  LayerTimes layers;
  std::vector<Span> spans;  // kept for the last traced rep only
  MetricsSnapshot metrics;  // traced reps: the engine/server registry
  double offline_states = 0, offline_s = 0;
  std::vector<std::string> errors;  // failed gates

  void Fail(std::string msg) {
    if (errors.size() < 8) errors.push_back(std::move(msg));
  }
};

/// Reads the counters the program publishes: EngineStats, WalStats,
/// GroupCommitStats, Describe, VersionStore accessors; plus the listener
/// proxy's commit-attempt count (traced worlds only).
Counters ReadCounters(const World& w) {
  Counters out;
  Counters* c = &out;
  c->states = w.db.history().size();
  c->commit_attempts = w.listener.commit_attempts;
  const rules::EngineStats& st = w.engine.stats();
  c->query_evals = st.queries_evaluated;
  c->memo_hits = st.query_memo_hits;
  c->rule_steps = st.rule_steps;
  c->actions = st.actions_executed;
  c->ic_checks = st.ic_checks;
  c->ic_vetoes = st.ic_violations;
  if (w.firing != nullptr) c->firings = w.firing->log.size();
  if (w.mgr != nullptr) {
    storage::WalStats ws = w.mgr->wal_stats();
    c->wal_bytes = ws.bytes_appended;
    c->wal_records = ws.records_appended;
    c->wal_syncs = ws.syncs;
    if (w.mgr->group() != nullptr) {
      storage::GroupCommitStats gs = w.mgr->group()->stats();
      c->group_syncs = gs.sync_batches;
    }
  }
  c->temporal_commits = w.temporal.commits_archived();
  c->temporal_rows = w.temporal.rows_archived();
  c->temporal_bytes = w.temporal.EstimateBytes();
  for (const std::string& name : w.engine.RuleNames()) {
    auto info = w.engine.Describe(name);
    if (!info.ok()) continue;
    c->retained_nodes += info->retained_nodes;
    c->store_nodes += info->store_nodes;
    c->collections += info->collections;
  }
  return out;
}

/// Committed price history per symbol, the oracle for AS OF reads.
struct PriceModel {
  std::vector<std::vector<std::pair<Timestamp, double>>> changes;

  explicit PriceModel(const std::vector<double>& initial) {
    changes.resize(initial.size());
    for (size_t s = 0; s < initial.size(); ++s) changes[s].push_back({0, initial[s]});
  }
  double Current(int sym) const { return changes[static_cast<size_t>(sym)].back().second; }
  void Commit(int sym, Timestamp t, double p) {
    changes[static_cast<size_t>(sym)].push_back({t, p});
  }
  double AsOf(int sym, Timestamp t) const {
    const auto& v = changes[static_cast<size_t>(sym)];
    auto it = std::upper_bound(
        v.begin(), v.end(), t,
        [](Timestamp x, const std::pair<Timestamp, double>& e) { return x < e.first; });
    return it == v.begin() ? v.front().second : std::prev(it)->second;
  }
};

double Reflect(double p) {
  // Non-IBM symbols walk inside [5, 95].
  if (p < 5) return 10 - p;
  if (p > 95) return 190 - p;
  return p;
}

/// One timed AS OF read through SQL; checks the answer when `want` is set.
void AsOfRead(World& w, int sym, Timestamp t, std::optional<double> want,
              RepResult* r) {
  db::ParamMap params{{"s", Value::Str(kSymbolNames[sym])}};
  auto t0 = Steady::now();
  Result<db::Relation> rel = w.db.QuerySqlAsOf(kAsOfSql, t, &params);
  r->asof_us.push_back(SecondsSince(t0) * 1e6);
  ++r->attempted;
  if (!rel.ok() || rel->size() != 1) {
    ++r->failed;
    r->Fail("AS OF read failed: " +
            (rel.ok() ? std::to_string(rel->size()) + " rows" : rel.status().ToString()));
    return;
  }
  if (want.has_value() && rel->row(0)[0].AsDouble() != *want) {
    r->Fail("AS OF " + std::string(kSymbolNames[sym]) + " at t=" +
            std::to_string(t) + " read " +
            std::to_string(rel->row(0)[0].AsDouble()) + ", committed " +
            std::to_string(*want));
  }
}

/// Times `Checkpoint()` and reads the written file's size.
void TimedCheckpoint(World& w, const std::string& dir, RepResult* r) {
  auto t0 = Steady::now();
  Status s = w.mgr->Checkpoint();
  r->checkpoint_ms_sum += SecondsSince(t0) * 1e3;
  ++r->checkpoints;
  if (!s.ok()) {
    r->Fail("checkpoint: " + s.ToString());
    return;
  }
  std::error_code ec;
  r->checkpoint_bytes_sum += fs::file_size(
      fs::path(dir) / (std::string(storage::kCheckpointFilePrefix) +
                       std::to_string(w.mgr->last_checkpoint_id())),
      ec);
}

/// Gate (b), run once per run on rep 0: Theorem 2 over the run's archive.
void RunOfflineCheck(World& w, RepResult* r) {
  auto t0 = Steady::now();
  auto report = rules::OfflineCheck(w.temporal, w.engine, w.firing->log);
  r->offline_s = SecondsSince(t0);
  if (!report.ok()) {
    r->Fail("OfflineCheck: " + report.status().ToString());
    return;
  }
  r->offline_states = static_cast<double>(report->retained_states);
  if (!report->agreed()) r->Fail("OfflineCheck disagreed:\n" + report->ToString());
}

/// Gate (a): recovery of the rep's directory into fresh components (plain:
/// no proxies) is clean and reproduces the live contents byte for byte.
/// With `trace` on, then times a checkpoint of the recovered state.
void RecoverAndCompare(const Inputs& in, const std::string& dir,
                       const std::string& live_contents, bool time_checkpoint,
                       RepResult* r) {
  World fresh(nullptr);
  Status s = fresh.Build(in.initial_prices, /*seed_rows=*/false);
  if (!s.ok()) {
    r->Fail("recovery world: " + s.ToString());
    return;
  }
  auto t0 = Steady::now();
  auto report = storage::Recover(dir, fresh.Targets());
  r->recover_s = SecondsSince(t0);
  if (!report.ok()) {
    r->Fail("Recover: " + report.status().ToString());
    return;
  }
  r->recover_states = report->states_replayed;
  if (!report->clean()) r->Fail("Recover not clean:\n" + report->ToString());
  auto contents = fresh.Contents();
  if (!contents.ok() || *contents != live_contents) {
    r->Fail("recovered contents differ from the live contents");
  }
  if (time_checkpoint) {
    s = fresh.Attach(dir, storage::FsyncPolicy::kNone);
    if (!s.ok()) {
      r->Fail("attach after recovery: " + s.ToString());
      return;
    }
    TimedCheckpoint(fresh, dir, r);
  }
}

/// The AS OF reads after the loop, at seeded positions in the archive
/// [t0, now]; `want` gives the committed price to check against, if known.
void PostRunProbes(World& w, const Inputs& in, Timestamp t0,
                   const std::function<std::optional<double>(int)>& want,
                   std::vector<Timestamp>* times, RepResult* r) {
  const Timestamp now = w.db.history().last_time();
  for (const auto& [sym, frac] : in.post_probes) {
    const auto at = t0 + static_cast<Timestamp>(frac * static_cast<double>(now - t0));
    times->push_back(at);
    AsOfRead(w, sym, at, want(sym), r);
  }
}

/// The rest of a rep once its operations are done: the archive gather timed
/// alone at the AS OF probe times (traced), the firing and Theorem 2 gates,
/// the trace, teardown without a final checkpoint, and gate (a).
void FinishRep(std::unique_ptr<World> w, const Inputs& in,
               const std::string& dir, const std::vector<Timestamp>& probe_times,
               bool offline_check, Metrics* registry, RepResult* r) {
  Tracer* tracer = w->tracer;
  if (tracer != nullptr) {
    for (Timestamp at : probe_times) {
      auto t0 = Steady::now();
      auto rel = w->temporal.TableAsOf("stock", at);
      r->table_asof_us.push_back(SecondsSince(t0) * 1e6);
      if (!rel.ok()) r->Fail("TableAsOf: " + rel.status().ToString());
    }
  }
  r->firing_digest = FiringDigest(w->firing->log);
  if (w->firing->log.empty()) r->Fail("no rule fired");
  if (offline_check) RunOfflineCheck(*w, r);
  auto live = w->Contents();
  if (!live.ok()) {
    r->Fail("SerializeContents: " + live.status().ToString());
    return;
  }
  r->contents_digest = Fnv1a(*live);
  if (tracer != nullptr) {
    w->engine.SetMetrics(nullptr);
    r->layers = SumLayers(tracer->spans());
    r->spans = tracer->spans();
    r->metrics = registry->TakeSnapshot();
  }
  w.reset();
  RecoverAndCompare(in, dir, *live, tracer != nullptr, r);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

/// A rep's set-up, timed into `r`: a fresh world in a fresh `dir`, analyzed
/// and attached; traced worlds get `registry`. Null when set-up failed.
std::unique_ptr<World> SetUp(const Inputs& in, Tracer* tracer,
                             Metrics* registry, const std::string& dir,
                             storage::FsyncPolicy fsync, RepResult* r) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  auto setup0 = Steady::now();
  auto w = std::make_unique<World>(tracer);
  Status s = w->Build(in.initial_prices, /*seed_rows=*/true);
  if (s.ok()) {
    w->Analyze();
    s = w->Attach(dir, fsync);
  }
  r->setup_s = SecondsSince(setup0);
  if (!s.ok()) {
    r->Fail("setup: " + s.ToString());
    return nullptr;
  }
  r->register_ms = w->register_ms;
  r->analyze_ms = w->analyze_ms;
  r->attach_ms = w->attach_ms;
  if (tracer != nullptr) w->engine.SetMetrics(registry);
  return w;
}

RepResult RunLibraryRep(const Options& opt, const Inputs& in, bool traced,
                        bool offline_check, const std::string& dir) {
  RepResult r;
  Tracer tracer;
  Metrics registry;
  Tracer* t = traced ? &tracer : nullptr;
  auto w = SetUp(in, t, &registry, dir, storage::FsyncPolicy::kNone, &r);
  if (w == nullptr) return r;

  PriceModel model(in.initial_prices);
  const Timestamp t_archive0 = w->db.history().last_time();
  const Counters before = ReadCounters(*w);
  std::vector<Timestamp> probe_times;
  r.lat_us.reserve(in.ops.size());

  auto loop0 = Steady::now();
  uint64_t op_id = 0;
  for (const LibOp& op : in.ops) {
    ++op_id;
    if (t != nullptr) t->SetOp(op_id);
    if (op.kind == LibOp::kAsOf) {
      const Timestamp now = w->db.history().last_time();
      const auto at = t_archive0 + static_cast<Timestamp>(
                                       op.frac * static_cast<double>(now - t_archive0));
      probe_times.push_back(at);
      ScopedSpan span(t, kOp);
      AsOfRead(*w, op.sym, at, model.AsOf(op.sym, at), &r);
      continue;
    }
    ++r.attempted;
    auto op0 = Steady::now();
    Status st = Status::OK();
    bool expect_veto = false;
    std::vector<std::pair<int, double>> proposed;
    {
      ScopedSpan span(t, kOp);
      switch (op.kind) {
        case LibOp::kInsertTick:
          st = w->db.InsertRow("ticks", {Value::Int(0), Value::Int(static_cast<int64_t>(op_id)),
                                         Value::Real(op.price)});
          break;
        case LibOp::kRaiseAlert:
          st = w->db.RaiseEvent(event::Event{"alert", {Value::Int(static_cast<int64_t>(op_id))}});
          break;
        case LibOp::kTxn: {
          auto txn = w->db.Begin();
          if (!txn.ok()) {
            st = txn.status();
            break;
          }
          for (const ChurnUpdate& u : op.updates) {
            double p = model.Current(u.sym) + u.delta;
            if (u.sym != 0) p = Reflect(p);
            // IBM drifts back toward 98, so attempts past the cap recur.
            if (u.sym == 0) p += 0.2 * (98 - model.Current(0));
            if (u.sym == 0 && p > 100) expect_veto = true;
            proposed.emplace_back(u.sym, p);
            db::ParamMap params{{"n", Value::Str(kSymbolNames[u.sym])},
                                {"p", Value::Real(p)}};
            auto n = w->db.Update(*txn, "stock", {{"price", "$p"}}, "name = $n",
                                  &params);
            if (!n.ok() || *n != 1) {
              st = n.ok() ? Status::Internal("update matched no row") : n.status();
              break;
            }
          }
          if (st.ok()) {
            st = w->db.Insert(*txn, "ticks",
                              {Value::Int(1), Value::Int(static_cast<int64_t>(op_id)),
                               Value::Real(op.price)});
          }
          if (st.ok()) {
            st = w->db.Commit(*txn);
          } else {
            (void)w->db.Abort(*txn);
          }
          break;
        }
        case LibOp::kAsOf:
          break;
      }
    }
    if (op.kind == LibOp::kTxn) {
      if (st.ok() && !expect_veto) {
        const Timestamp tc = w->db.history().last_time();
        for (const auto& [sym, p] : proposed) model.Commit(sym, tc, p);
      } else if (st.code() == StatusCode::kTransactionAborted && expect_veto) {
        // The IC vetoed a commit that breaks the cap: a correct outcome.
      } else {
        ++r.failed;
        r.Fail("transaction " + std::to_string(op_id) + ": " +
               (st.ok() ? std::string("committed past the cap") : st.ToString()));
      }
    } else if (!st.ok()) {
      ++r.failed;
      r.Fail("operation " + std::to_string(op_id) + ": " + st.ToString());
    }
    if (opt.workload == Workload::kStockChurn &&
        w->mgr->states_since_checkpoint() >= kChurnCheckpointStates) {
      // Charged to the operation that crossed the boundary, as the manager's
      // own checkpoint_every_n_states would.
      TimedCheckpoint(*w, dir, &r);
    }
    r.lat_us.push_back(SecondsSince(op0) * 1e6);
  }
  r.loop_s = SecondsSince(loop0);
  if (t != nullptr) t->SetOp(0);

  r.counters = ReadCounters(*w).Since(before);
  r.counters.ops = in.ops.size();
  if (opt.workload == Workload::kStockChurn && r.counters.ic_vetoes == 0) {
    r.Fail("stock_churn produced no IC veto");
  }
  if (opt.workload == Workload::kTicksSteady) {
    // stock never changes here, so every read must see the seeded prices.
    PostRunProbes(*w, in, t_archive0,
                  [&](int sym) { return in.initial_prices[static_cast<size_t>(sym)]; },
                  &probe_times, &r);
  }
  FinishRep(std::move(w), in, dir, probe_times, offline_check, &registry, &r);
  return r;
}

// ---- served_mixed ---------------------------------------------------------------

struct SessionOutcome {
  std::vector<double> lat_us;
  std::vector<std::pair<int64_t, int64_t>> acked_inserts;  // (client, seq)
  uint64_t acked = 0, failed = 0;
  std::string first_error;
};

void RunSession(uint16_t port, const std::vector<server::Request>& reqs,
                SessionOutcome* out) {
  server::Client client;
  Status s = client.Connect(port);
  if (!s.ok()) {
    out->failed = reqs.size();
    out->first_error = s.ToString();
    return;
  }
  out->lat_us.reserve(reqs.size());
  struct InFlight {
    Steady::time_point start;
    size_t index;
  };
  std::map<uint32_t, InFlight> in_flight;
  size_t sent = 0;
  while (sent < reqs.size() || !in_flight.empty()) {
    if (sent < reqs.size() && in_flight.size() < static_cast<size_t>(kServedWindow)) {
      auto start = Steady::now();
      auto tag = client.Send(reqs[sent]);
      if (!tag.ok()) {
        out->failed += reqs.size() - sent;
        out->first_error = tag.status().ToString();
        break;
      }
      in_flight[*tag] = {start, sent};
      ++sent;
      continue;
    }
    auto resp = client.Receive();
    if (!resp.ok()) {
      out->failed += in_flight.size() + (reqs.size() - sent);
      if (out->first_error.empty()) out->first_error = resp.status().ToString();
      break;
    }
    auto it = in_flight.find(resp->tag);
    if (it == in_flight.end()) continue;
    out->lat_us.push_back(SecondsSince(it->second.start) * 1e6);
    const server::Request& req = reqs[it->second.index];
    if (resp->code == StatusCode::kOk) {
      ++out->acked;
      if (req.type == server::MsgType::kInsert) {
        out->acked_inserts.emplace_back(req.row[0].AsInt(), req.row[1].AsInt());
      }
    } else {
      ++out->failed;
      if (out->first_error.empty()) out->first_error = resp->message;
    }
    in_flight.erase(it);
  }
  client.Close();
}

RepResult RunServedRep(const Inputs& in, bool traced, bool offline_check,
                       const std::string& dir) {
  RepResult r;
  Tracer tracer;
  Metrics registry;
  Tracer* t = traced ? &tracer : nullptr;
  auto w = SetUp(in, t, &registry, dir, storage::FsyncPolicy::kGroup, &r);
  if (w == nullptr) return r;
  const Timestamp t_archive0 = w->db.history().last_time();
  const Counters before = ReadCounters(*w);
  server::ServerOptions sopts;
  if (traced) sopts.metrics = &registry;
  auto start0 = Steady::now();
  auto srv = std::make_unique<server::Server>(sopts, &w->db, &w->engine,
                                              w->mgr.get());
  Status s = srv->Start();
  r.setup_s += SecondsSince(start0);
  if (!s.ok()) {
    r.Fail("server start: " + s.ToString());
    return r;
  }

  std::vector<SessionOutcome> outcomes(in.sessions.size());
  auto loop0 = Steady::now();
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < in.sessions.size(); ++i) {
      threads.emplace_back(RunSession, srv->port(), std::cref(in.sessions[i]),
                           &outcomes[i]);
    }
    for (auto& th : threads) th.join();
  }
  r.loop_s = SecondsSince(loop0);
  srv->Stop();
  srv.reset();
  w->engine.SetBatching(1);

  // Gate (c): every acked insert is present exactly once, nothing else is.
  std::set<std::pair<int64_t, int64_t>> acked;
  uint64_t acked_total = 0;
  for (const SessionOutcome& o : outcomes) {
    r.lat_us.insert(r.lat_us.end(), o.lat_us.begin(), o.lat_us.end());
    r.attempted += o.acked + o.failed;
    r.failed += o.failed;
    acked_total += o.acked;
    if (!o.first_error.empty()) r.Fail("served request failed: " + o.first_error);
    for (const auto& key : o.acked_inserts) {
      if (!acked.insert(key).second) r.Fail("insert acked twice");
    }
  }
  auto rows = w->db.QuerySql("SELECT client, seq FROM ticks");
  if (!rows.ok()) {
    r.Fail("ticks scan: " + rows.status().ToString());
  } else {
    std::set<std::pair<int64_t, int64_t>> present;
    for (const db::Tuple& row : rows->rows()) {
      present.emplace(row[0].AsInt(), row[1].AsInt());
    }
    if (present != acked || rows->size() != acked.size()) {
      r.Fail("ticks rows (" + std::to_string(rows->size()) +
             ") differ from acked inserts (" + std::to_string(acked.size()) + ")");
    }
  }

  r.counters = ReadCounters(*w).Since(before);
  r.counters.ops = acked_total;
  // The benchmark does not see when the server's transactions committed, so
  // these reads are checked for one row each.
  std::vector<Timestamp> probe_times;
  PostRunProbes(*w, in, t_archive0, [](int) { return std::nullopt; },
                &probe_times, &r);
  FinishRep(std::move(w), in, dir, probe_times, offline_check, &registry, &r);
  return r;
}

// ---- Reporting -----------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const std::vector<Metric>& metrics, bool correct,
                 uint64_t attempted, uint64_t failed) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

uint64_t HistSumNs(const MetricsSnapshot& m, const std::string& name) {
  auto it = m.histograms.find(name);
  return it == m.histograms.end() ? 0 : it->second.sum_ns;
}

double HistMeanUs(const MetricsSnapshot& m, const std::string& name) {
  auto it = m.histograms.find(name);
  return it == m.histograms.end() ? 0 : it->second.mean_ns() / 1000.0;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "index\tlayer\top\tparent\tstart_ns\tend_ns\n");
  const uint64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu\t%s\t%" PRIu64 "\t%d\t%" PRIu64 "\t%" PRIu64 "\n", i,
                 LayerName(s.layer), s.op, s.parent, s.start_ns - base,
                 s.end_ns - base);
  }
  std::fclose(f);
}

int Usage() {
  std::fprintf(stderr,
               "usage: ptlbench --workload ticks_steady|stock_churn|served_mixed"
               " --seed N --seconds S --trace 0|1 --run-dir DIR"
               " [--spans-out FILE]\n");
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      opt.workload_name = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atoi(val.c_str());
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--run-dir") {
      opt.run_dir = val;
    } else if (key == "--spans-out") {
      opt.spans_out = val;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || opt.run_dir.empty() || opt.seconds < 1) return Usage();
  if (opt.workload_name == "ticks_steady") {
    opt.workload = Workload::kTicksSteady;
  } else if (opt.workload_name == "stock_churn") {
    opt.workload = Workload::kStockChurn;
  } else if (opt.workload_name == "served_mixed") {
    opt.workload = Workload::kServedMixed;
  } else {
    return Usage();
  }

  // glibc gives each new thread its own malloc arena; which of the served
  // workload's threads allocate first then decides peak RSS more than the
  // program does. Two arenas keep peak_rss_mb a property of the program.
  mallopt(M_ARENA_MAX, 2);
  const Inputs in = MakeInputs(opt);
  const bool served = opt.workload == Workload::kServedMixed;
  int rep_no = 0;
  auto run_rep = [&](bool traced, bool offline_check) {
    const std::string dir =
        (fs::path(opt.run_dir) / ("rep" + std::to_string(rep_no++))).string();
    return served ? RunServedRep(in, traced, offline_check, dir)
                  : RunLibraryRep(opt, in, traced, offline_check, dir);
  };

  // Rep 0 warms up and runs the Theorem 2 gate; it is not timed.
  RepResult warm = run_rep(opt.trace, /*offline_check=*/true);
  std::vector<RepResult> reps;
  auto t0 = Steady::now();
  while (reps.size() < static_cast<size_t>(kMinTimedReps) ||
         SecondsSince(t0) < opt.seconds) {
    reps.push_back(run_rep(opt.trace, false));
    // Only the last traced rep's spans are written out.
    if (reps.size() > 1) std::vector<Span>().swap(reps[reps.size() - 2].spans);
  }
  const double peak_rss_mb = PeakRssMb();
  // Gate (d): the same inputs in the other tracing mode.
  RepResult shadow = run_rep(!opt.trace, false);

  std::vector<std::string> errors;
  auto gather_errors = [&](const RepResult& r, const std::string& what) {
    for (const std::string& e : r.errors) errors.push_back(what + ": " + e);
  };
  gather_errors(warm, "rep 0");
  for (size_t i = 0; i < reps.size(); ++i) {
    gather_errors(reps[i], "rep " + std::to_string(i + 1));
  }
  gather_errors(shadow, "shadow rep");
  if (!served) {
    // Library reps replay identical inputs: outputs and work counters repeat
    // exactly, in both tracing modes.
    for (const RepResult* r : {&shadow, &reps.front(), &reps.back()}) {
      if (r->firing_digest != warm.firing_digest) {
        errors.push_back("firing log differs between reps");
      }
      if (r->contents_digest != warm.contents_digest) {
        errors.push_back("contents digest differs between reps");
      }
    }
    for (const RepResult& r : reps) {
      if (!(r.counters == warm.counters)) {
        errors.push_back("work counters differ between reps");
        break;
      }
    }
  }

  uint64_t attempted = 0, failed = 0;
  // Every timing is taken per rep (each rep has at least 1000 latency
  // samples, so its p99 has 10 beyond it) and reported as the good fifth
  // over reps; set-up as the median over reps.
  std::vector<double> lat_all, table_asof, setup, recover, eps;
  std::vector<double> lat50, lat99, asof50, asof99;
  size_t asof_n = 0;
  for (RepResult& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
    if (r.lat_us.size() < 1000 || r.asof_us.size() < 1000) {
      errors.push_back("a rep has fewer than 1000 samples for its p99");
    }
    lat_all.insert(lat_all.end(), r.lat_us.begin(), r.lat_us.end());
    asof_n += r.asof_us.size();
    table_asof.insert(table_asof.end(), r.table_asof_us.begin(),
                      r.table_asof_us.end());
    setup.push_back(r.setup_s);
    recover.push_back(r.recover_s);
    eps.push_back(static_cast<double>(r.counters.ops) / r.loop_s);
    lat50.push_back(Percentile(&r.lat_us, 50));
    lat99.push_back(Percentile(&r.lat_us, 99));
    asof50.push_back(Percentile(&r.asof_us, 50));
    asof99.push_back(Percentile(&r.asof_us, 99));
  }
  const bool correct = errors.empty() && failed == 0;

  std::printf("ptlbench workload=%s seed=%" PRIu64 " seconds=%d trace=%d\n",
              opt.workload_name.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0);
  std::printf("timed reps=%zu (+1 warm-up, +1 shadow in the other mode)\n",
              reps.size());
  std::printf("firing digest=%016" PRIx64 " (%" PRIu64
              " firings) contents digest=%016" PRIx64 "\n",
              warm.firing_digest, warm.counters.firings, warm.contents_digest);
  std::printf("offline check: %.0f retained states in %.3f s\n",
              warm.offline_states, warm.offline_s);
  for (const std::string& e : errors) std::printf("GATE FAILED: %s\n", e.c_str());
  for (size_t i = 0; i < reps.size(); ++i) {
    std::printf("rep %zu: %.1f ops/s p50 %.2f us p99 %.2f us asof p50 %.2f us"
                " p99 %.2f us setup %.2f ms recover %.3f s\n",
                i + 1, eps[i], lat50[i], lat99[i], asof50[i], asof99[i],
                setup[i] * 1e3, recover[i]);
  }

  std::vector<Metric> out;
  if (!opt.trace) {
    const size_t lat_n = lat_all.size();
    const double top = HighestSupportedPercentile(lat_n);
    std::printf("latency samples=%zu; pooled, the highest supported percentile"
                " p%g = %.3f us\n",
                lat_n, top, Percentile(&lat_all, top));
    std::printf("AS OF samples=%zu; error_rate = %" PRIu64 "/%" PRIu64 "\n",
                asof_n, failed, attempted);
    out.push_back({"setup_s", Median(setup), "s"});
    out.push_back({"throughput_eps", GoodFifth(eps, false), "ops/s"});
    out.push_back({"latency_p50_us", GoodFifth(lat50, true), "us"});
    out.push_back({"latency_p99_us", GoodFifth(lat99, true), "us"});
    out.push_back({"asof_p50_us", GoodFifth(asof50, true), "us"});
    out.push_back({"asof_p99_us", GoodFifth(asof99, true), "us"});
    out.push_back({"recover_s", GoodFifth(recover, true), "s"});
    out.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  } else {
    // Per-layer metrics: times summed over the timed reps per operation;
    // work counters from one rep (they repeat exactly on library workloads).
    LayerTimes lt;
    uint64_t ops = 0, gather = 0, step = 0, merge = 0, action = 0;
    double ckpt_ms = 0, recover_s = 0;
    uint64_t ckpts = 0, ckpt_bytes = 0, recover_states = 0;
    for (const RepResult& r : reps) {
      for (int l = 0; l < kNumLayers; ++l) {
        lt.self_ns[l] += r.layers.self_ns[l];
        lt.inclusive_ns[l] += r.layers.inclusive_ns[l];
        lt.count[l] += r.layers.count[l];
      }
      lt.op_root_ns += r.layers.op_root_ns;
      lt.op_tree_self_ns += r.layers.op_tree_self_ns;
      ops += r.counters.ops;
      gather += HistSumNs(r.metrics, "engine.gather_ns");
      step += HistSumNs(r.metrics, "engine.step_ns");
      merge += HistSumNs(r.metrics, "engine.merge_ns");
      action += HistSumNs(r.metrics, "engine.action_ns");
      ckpt_ms += r.checkpoint_ms_sum;
      ckpts += r.checkpoints;
      ckpt_bytes += r.checkpoint_bytes_sum;
      recover_s += r.recover_s;
      recover_states += r.recover_states;
    }
    const Counters& c = reps.front().counters;
    auto per_op_us = [&](uint64_t ns) {
      return ops == 0 ? 0 : static_cast<double>(ns) / 1000.0 / static_cast<double>(ops);
    };
    const uint64_t op_ns = lt.inclusive_ns[kOp];
    const uint64_t wal_ns =
        lt.self_ns[kWalDelta] + lt.self_ns[kWalState] + lt.self_ns[kWalFiring];
    const double traced_eps = GoodFifth(eps, false);
    const double untraced_eps =
        static_cast<double>(shadow.counters.ops) / shadow.loop_s;
    std::printf("trace: %zu spans in the last timed rep; op spans %.3f us/op\n",
                reps.back().spans.size(), per_op_us(op_ns));
    std::printf("work counters (rep 1 of %zu; exact on library workloads):\n",
                reps.size());
    // An exact ratio of counts: printed with its base, reported as a value.
    auto exact = [&](const char* name, uint64_t num, uint64_t den,
                     const char* unit) {
      std::printf("  %-36s %" PRIu64 " / %" PRIu64 " %s\n", name, num, den, unit);
      out.push_back({name, Ratio(num, den), unit});
    };
    // Self times inside operation spans, every layer, over the spans'
    // total: db.self plus its proxied children must cover the operation.
    const double accounted = Ratio(lt.op_tree_self_ns, lt.op_root_ns);
    out.push_back({"db.self_us_per_op", per_op_us(lt.self_ns[kOp]), "us"});
    exact("db.states_per_op", c.states, c.ops, "states/op");
    out.push_back({"rules.on_state_us", per_op_us(lt.inclusive_ns[kOnState]), "us"});
    out.push_back({"rules.on_state_self_us", per_op_us(lt.self_ns[kOnState]), "us"});
    out.push_back({"rules.commit_probe_us", per_op_us(lt.self_ns[kCommitProbe]), "us"});
    out.push_back({"rules.gather_us", per_op_us(gather), "us"});
    out.push_back({"rules.step_us", per_op_us(step), "us"});
    out.push_back({"rules.merge_us", per_op_us(merge), "us"});
    out.push_back({"rules.action_us", per_op_us(action), "us"});
    exact("rules.query_evals_per_state", c.query_evals, c.states, "evals/state");
    exact("rules.memo_hits_per_state", c.memo_hits, c.states, "hits/state");
    exact("rules.steps_per_state", c.rule_steps, c.states, "steps/state");
    exact("rules.actions_per_state", c.actions, c.states, "actions/state");
    exact("rules.ic_checks_per_commit", c.ic_checks, c.commit_attempts, "checks/commit");
    exact("rules.ic_vetoes", c.ic_vetoes, 1, "count");
    out.push_back({"rules.offline_check_states_per_s",
                   warm.offline_s > 0 ? warm.offline_states / warm.offline_s : 0, "states/s"});
    exact("eval.retained_nodes", c.retained_nodes, 1, "count");
    exact("eval.store_nodes", c.store_nodes, 1, "count");
    exact("eval.collections", c.collections, 1, "count");
    out.push_back({"storage.wal_append_us", per_op_us(wal_ns), "us"});
    exact("storage.wal_bytes_per_op", c.wal_bytes, c.ops, "B/op");
    exact("storage.wal_records_per_op", c.wal_records, c.ops, "records/op");
    out.push_back({"storage.fsyncs_per_op", Ratio(c.wal_syncs, c.ops), "fsyncs/op"});
    out.push_back({"storage.group.commits_per_sync", Ratio(c.temporal_commits, c.group_syncs), "commits/sync"});
    out.push_back({"storage.checkpoint_ms", ckpts == 0 ? 0 : ckpt_ms / static_cast<double>(ckpts), "ms"});
    out.push_back({"storage.checkpoint_bytes", ckpts == 0 ? 0 : static_cast<double>(ckpt_bytes) / static_cast<double>(ckpts), "B"});
    out.push_back({"storage.recover_states_per_s", recover_s > 0 ? static_cast<double>(recover_states) / recover_s : 0, "states/s"});
    out.push_back({"temporal.archive_us", per_op_us(lt.self_ns[kArchive]), "us"});
    exact("temporal.bytes_per_commit", c.temporal_bytes, c.temporal_commits, "B/commit");
    exact("temporal.rows_archived_per_commit", c.temporal_rows, c.temporal_commits,
          "rows/commit");
    out.push_back({"temporal.table_asof_us", Median(table_asof), "us"});
    for (const char* stage : {"read", "queue", "batch", "apply", "eval", "commit", "ack"}) {
      double sum = 0;
      for (const RepResult& r : reps) {
        sum += HistMeanUs(r.metrics, std::string("server.stage.") + stage + "_ns");
      }
      out.push_back({std::string("server.stage.") + stage + "_us",
                     sum / static_cast<double>(reps.size()), "us"});
    }
    {
      uint64_t sizes = 0, batches = 0;
      for (const RepResult& r : reps) {
        auto it = r.metrics.histograms.find("server.batch_size");
        if (it == r.metrics.histograms.end()) continue;
        sizes += it->second.sum_ns;
        batches += it->second.count;
      }
      out.push_back({"server.batch_size_mean", Ratio(sizes, batches), "requests/batch"});
    }
    std::vector<double> reg, ana, att;
    for (const RepResult& r : reps) {
      reg.push_back(r.register_ms);
      ana.push_back(r.analyze_ms);
      att.push_back(r.attach_ms);
    }
    out.push_back({"setup.register_ms", Median(reg), "ms"});
    out.push_back({"setup.analyze_ms", Median(ana), "ms"});
    out.push_back({"setup.attach_ms", Median(att), "ms"});
    out.push_back({"trace.throughput_eps", traced_eps, "ops/s"});
    out.push_back({"trace.overhead_pct",
                   untraced_eps > 0 ? 100.0 * (untraced_eps - traced_eps) / untraced_eps : 0, "%"});
    out.push_back({"trace.accounted_ratio", accounted, "ratio"});
    if (!opt.spans_out.empty()) WriteSpans(opt.spans_out, reps.back().spans);
  }
  for (const Metric& m : out) {
    std::printf("  %-36s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", Json(out, correct, attempted, failed).c_str());
  std::fflush(stdout);
  std::error_code ec;
  fs::remove_all(opt.run_dir, ec);
  return correct ? 0 : 1;
}

}  // namespace ptldb::ptlbench

int main(int argc, char** argv) { return ptldb::ptlbench::Main(argc, argv); }

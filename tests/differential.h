// The differential harness: one scenario model, run by every execution
// configuration ("arm") and compared with a reference run.
//
// A scenario is (world, seed). The seed fixes the world's rule set and one
// op list, grouped in waves; the clock advances before each wave. Worlds:
//
//   * kRandom — tables data(k, v), dom(p), acts(rule, n); queries q0/q1 over
//     data; a tests/formula_gen.h RuleSetGen rule set (plain triggers, rule
//     families over dom, integrity constraints, rewritten aggregates,
//     @executed cascades, actions that write acts).
//   * kStock — the stock-monitoring world: two prices, a PREVIOUSLY binder
//     rule, a WITHIN window, a §6 aggregate, a family, and a price cap IC
//     that vetoes some of the updates.
//
// An op is one wire Request, applied through the library API or sent over a
// socket, or a multi-statement transaction (library only). Every run yields
// one Observed record; an arm asserts it equals the reference run's. This is
// §8's "trigger firing may be delayed, but not go unrecognized" held to the
// byte, and Theorem 1 across our own execution choices.

#ifndef PTLDB_TESTS_DIFFERENTIAL_H_
#define PTLDB_TESTS_DIFFERENTIAL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/codec.h"
#include "common/logging.h"
#include "common/strings.h"
#include "db/database.h"
#include "formula_gen.h"
#include "ptl/analyzer.h"
#include "ptl/naive_eval.h"
#include "ptl/parser.h"
#include "rules/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/checkpoint.h"
#include "testutil.h"

namespace ptldb::differential {

using testutil::Rng;
using testutil::RuleSpec;

enum class WorldKind { kRandom, kStock };

// One workload step: a single request, or (when `txn` is non-empty) the
// update statements of one transaction that commits or aborts.
struct Op {
  server::Request req;
  std::vector<server::Request> txn;
  bool abort = false;
};

struct Wave {
  std::vector<Op> ops;
  Timestamp advance = 1;  // clock advance before the wave
};

struct Scenario {
  WorldKind world = WorldKind::kRandom;
  uint64_t seed = 0;
  std::vector<RuleSpec> rules;
  std::vector<Wave> waves;
};

inline server::Request UpdateRequest(std::string table, std::string column,
                                     Value value, std::string key_column,
                                     Value key) {
  server::Request r;
  r.type = server::MsgType::kUpdate;
  r.table = std::move(table);
  r.set = {{std::move(column), "$v"}};
  r.where = StrCat(key_column, " = $k");
  r.params = {{"v", std::move(value)}, {"k", std::move(key)}};
  return r;
}

inline server::Request RandomUpdate(Rng& rng) {
  return UpdateRequest("data", "v", Value::Int(rng.Range(-5, 15)), "k",
                       Value::Str(rng.Chance(0.5) ? "q0" : "q1"));
}

inline RuleSpec StockRule(RuleSpec::Kind kind, std::string name,
                          std::string_view condition) {
  RuleSpec spec;
  spec.kind = kind;
  spec.name = std::move(name);
  auto parsed = ptl::ParseFormula(condition);
  PTLDB_CHECK_OK(parsed.status());
  spec.condition = std::move(parsed).value();
  return spec;
}

// The seed's rule set and op list. `wire_only` draws no transactions, so
// every op can be sent to a server.
inline Scenario MakeScenario(WorldKind world, uint64_t seed,
                             bool wire_only = false) {
  Scenario sc{world, seed, {}, {}};
  Rng rng(seed);
  if (world == WorldKind::kStock) {
    using Kind = RuleSpec::Kind;
    sc.rules.push_back(StockRule(
        Kind::kTrigger, "sharp_increase",
        "[t := time][x := price('IBM')] "
        "PREVIOUSLY (price('IBM') <= 0.5 * x AND time >= t - 10)"));
    sc.rules.push_back(
        StockRule(Kind::kTrigger, "window", "WITHIN(price('HP') > 30, 25)"));
    sc.rules.push_back(StockRule(Kind::kTrigger, "agg",
                                 "sum(price('IBM'); time = 0; true) > 400"));
    sc.rules.push_back(StockRule(Kind::kFamily, "cheap", "price(sym) < 25"));
    sc.rules.back().domain_sql = "SELECT name FROM stock";
    sc.rules.back().param_names = {"sym"};
    sc.rules.push_back(StockRule(Kind::kIc, "cap", "price('IBM') <= 100"));
    size_t waves = 6 + rng.Below(4);
    for (size_t w = 0; w < waves; ++w) {
      Wave wave;
      for (size_t n = 1 + rng.Below(2); n > 0; --n) {
        Op op;
        double cents = static_cast<double>(rng.Range(500, 9500));
        if (rng.Below(10) == 0) {  // breaks the cap: the IC vetoes it
          op.req = UpdateRequest("stock", "price",
                                 Value::Real(110 + cents / 100), "name",
                                 Value::Str("IBM"));
        } else {
          op.req = UpdateRequest("stock", "price", Value::Real(cents / 100),
                                 "name",
                                 Value::Str(rng.Chance(0.5) ? "IBM" : "HP"));
        }
        wave.ops.push_back(std::move(op));
      }
      wave.advance = 1 + static_cast<Timestamp>(rng.Below(5));
      sc.waves.push_back(std::move(wave));
    }
    return sc;
  }

  sc.rules = testutil::RuleSetGen(&rng, "SELECT p FROM dom")
                 .Gen(3 + rng.Below(6));
  size_t waves = 3 + rng.Below(3);
  for (size_t w = 0; w < waves; ++w) {
    Wave wave;
    for (size_t n = 6 + rng.Below(10); n > 0; --n) {
      Op op;
      server::Request& req = op.req;
      switch (rng.Below(wire_only ? 10 : 12)) {
        case 0:
        case 1:
          req.type = server::MsgType::kRaiseEvent;
          req.event_name = rng.Chance(0.5) ? "e0" : "e1";
          if (rng.Chance(0.3)) req.event_params = {Value::Int(1)};
          break;
        case 2:
          req.type = server::MsgType::kRaiseEvent;
          req.event_name = "tick";
          break;
        case 3:
        case 4:
        case 5:
          req = RandomUpdate(rng);
          break;
        case 6:  // domain growth: lazy family instantiation mid-history
          req.type = server::MsgType::kInsert;
          req.table = "dom";
          req.row = {Value::Int(rng.Range(0, 5))};
          break;
        case 7:
          req.type = server::MsgType::kQuery;
          req.sql = "SELECT v FROM data WHERE k = $k";
          req.params = {{"k", Value::Str(rng.Chance(0.5) ? "q0" : "q1")}};
          break;
        case 8:  // doomed: error paths must match too
          req.type = server::MsgType::kDelete;
          req.table = "nope";
          req.where = "v = 0";
          break;
        case 9:
          req.type = server::MsgType::kPing;
          break;
        default:  // multi-statement transaction the random ICs may veto
          for (size_t s = 1 + rng.Below(3); s > 0; --s) {
            op.txn.push_back(RandomUpdate(rng));
          }
          op.abort = rng.Chance(0.2);
          break;
      }
      wave.ops.push_back(std::move(op));
    }
    wave.advance = 1 + static_cast<Timestamp>(rng.Below(3));
    sc.waves.push_back(std::move(wave));
  }
  return sc;
}

// A scenario's database, engine and registered rules. Built the same way on
// both sides of a crash: rules are code and are re-registered on recovery.
struct World {
  SimClock clock{0};
  db::Database db{&clock};
  rules::RuleEngine engine{&db};
  std::string reg;  // registration skips and certification prunes
  size_t certified_triggers = 0;

  // `certify` gives every rule a pure no-op action, adds a twin with
  // commutativity-friendly options per trigger, and prunes the population
  // to the analyzer's batching-commutativity certificates.
  explicit World(const Scenario& sc, bool certify = false) {
    if (sc.world == WorldKind::kStock) {
      PTLDB_CHECK_OK(db.CreateTable(
          "stock",
          db::Schema({{"name", ValueType::kString},
                      {"price", ValueType::kDouble}}),
          {"name"}));
      PTLDB_CHECK_OK(engine.queries().Register(
          "price", "SELECT price FROM stock WHERE name = $sym", {"sym"}));
      PTLDB_CHECK_OK(
          db.InsertRow("stock", {Value::Str("IBM"), Value::Real(40)}));
      PTLDB_CHECK_OK(
          db.InsertRow("stock", {Value::Str("HP"), Value::Real(20)}));
    } else {
      PTLDB_CHECK_OK(db.CreateTable(
          "data",
          db::Schema({{"k", ValueType::kString}, {"v", ValueType::kInt64}}),
          {"k"}));
      PTLDB_CHECK_OK(db.InsertRow("data", {Value::Str("q0"), Value::Int(5)}));
      PTLDB_CHECK_OK(db.InsertRow("data", {Value::Str("q1"), Value::Int(7)}));
      PTLDB_CHECK_OK(
          db.CreateTable("dom", db::Schema({{"p", ValueType::kInt64}})));
      PTLDB_CHECK_OK(db.CreateTable(
          "acts",
          db::Schema({{"rule", ValueType::kString}, {"n", ValueType::kInt64}}),
          {"rule"}));
      auto acts = db.catalog().GetTable("acts");
      PTLDB_CHECK(acts.ok());
      for (const RuleSpec& spec : sc.rules) {
        PTLDB_CHECK_OK((*acts)->Insert({Value::Str(spec.name), Value::Int(0)}));
      }
      PTLDB_CHECK_OK(engine.queries().Register(
          "q0", "SELECT v FROM data WHERE k = 'q0'", {}));
      PTLDB_CHECK_OK(engine.queries().Register(
          "q1", "SELECT v FROM data WHERE k = 'q1'", {}));
    }
    for (const RuleSpec& spec : sc.rules) {
      rules::RuleOptions options;
      options.record_execution = spec.record_execution;
      options.level_triggered = spec.level_triggered;
      options.event_filtered = spec.event_filtered;
      options.priority = spec.priority;
      options.aggregate_mode = spec.aggregate_rewrite
                                   ? rules::AggregateMode::kRewrite
                                   : rules::AggregateMode::kDirect;
      if (certify) options.effects = analysis::EffectSet{};  // no-op actions
      Register(spec, spec.name, certify ? false : spec.wants_db_action,
               options);
      if (certify && spec.kind != RuleSpec::Kind::kIc) {
        // Same condition, options that do not by themselves make history
        // depend on batch boundaries. Whether the twin commutes is still the
        // analyzer's call below.
        options.priority = 0;
        options.record_execution = false;
        options.aggregate_mode = rules::AggregateMode::kDirect;
        Register(spec, spec.name + "c", false, options);
      }
    }
    if (certify) Certify();
  }

  storage::CheckpointTargets Targets() {
    return {.db = &db, .engine = &engine, .clock = &clock};
  }

  std::string Bytes() const {
    std::string out;
    codec::Writer w(&out);
    PTLDB_CHECK_OK(db.SerializeContents(&w));
    return out;
  }

  std::string Tables() {
    std::string out;
    for (const std::string& name : db.catalog().TableNames()) {
      auto r = db.QuerySql(StrCat("SELECT * FROM ", name));
      out += StrCat("== ", name, "\n",
                    r.ok() ? r->ToString() : r.status().ToString());
    }
    return out;
  }

 private:
  // Registration rejects (malformed random conditions, unsupported option
  // combinations) are logged, not fatal: every run must reject the same.
  void Register(const RuleSpec& spec, const std::string& name, bool db_action,
                const rules::RuleOptions& options) {
    rules::ActionFn action = [](rules::ActionContext&) { return Status::OK(); };
    if (db_action) {
      action = [rule = spec.name](rules::ActionContext& ctx) -> Status {
        db::ParamMap params{{"r", Value::Str(rule)}};
        return ctx.database()
            .UpdateRows("acts", {{"n", "n + 1"}}, "rule = $r", &params)
            .status();
      };
    }
    Status s;
    switch (spec.kind) {
      case RuleSpec::Kind::kTrigger:
        s = engine.AddTriggerFormula(name, spec.condition, std::move(action),
                                     options);
        break;
      case RuleSpec::Kind::kFamily:
        s = engine.AddTriggerFamilyFormula(name, spec.domain_sql,
                                           spec.param_names, spec.condition,
                                           std::move(action), options);
        break;
      case RuleSpec::Kind::kIc:
        s = engine.AddIntegrityConstraintFormula(name, spec.condition);
        break;
    }
    if (!s.ok()) reg += StrCat("reg-skip ", name, ": ", s.ToString(), "\n");
  }

  // Fixed point: removing an uncertified state-appender can certify the
  // clock-sensitive readers that shared its partition, so re-analyze until
  // the population is certified relative to itself.
  void Certify() {
    for (;;) {
      const analysis::SetReport& rep = engine.AnalyzeRuleSet();
      std::vector<std::pair<std::string, std::string>> uncertified;
      for (size_t i = 0; i < rep.decls.size(); ++i) {
        if (rep.decls[i].is_system) continue;  // removed with their parent
        if (!rep.rules[i].commutative) {
          uncertified.emplace_back(rep.decls[i].name,
                                   rep.rules[i].commutative_reason);
        }
      }
      if (uncertified.empty()) {
        for (const analysis::RuleDecl& d : rep.decls) {
          if (!d.is_system && !d.is_ic) ++certified_triggers;
        }
        return;
      }
      for (const auto& [name, reason] : uncertified) {
        reg += StrCat("uncertified ", name, ": ", reason, "\n");
        PTLDB_CHECK_OK(engine.RemoveRule(name));
      }
    }
  }
};

// Everything a run lets a client observe.
struct Observed {
  std::string reg;       // registration skips and certification prunes
  std::string ops;       // per-op outcomes (and per-op drains, if any)
  std::string tail;      // what the final drain after Flush returned
  std::string counters;  // engine counters and history size
  std::string tables;    // final contents of every table
};

inline ::testing::AssertionResult Same(const Observed& want,
                                       const Observed& got) {
  for (auto field : {&Observed::reg, &Observed::ops, &Observed::tail,
                     &Observed::counters, &Observed::tables}) {
    if (want.*field != got.*field) {
      return ::testing::AssertionFailure()
             << "--- reference\n" << want.*field << "\n--- arm\n"
             << got.*field;
    }
  }
  return ::testing::AssertionSuccess();
}

inline std::string Outcome(size_t index, StatusCode code,
                           std::string_view message, int64_t rows,
                           uint64_t seq, std::string_view text) {
  return StrCat("op", index, " code=", static_cast<int>(code), " msg=",
                message, " rows=", rows, " seq=", seq, " text=[", text, "]\n");
}

inline std::string RenderFirings(const std::vector<rules::Firing>& firings) {
  std::string out;
  for (const rules::Firing& f : firings) {
    out += StrCat("fired ", f.rule, "[", f.params, "] t=", f.time, "\n");
  }
  return out;
}

// Fills in the end-of-run observables: every engine counter a checkpoint
// carries, the history length, and the tables.
inline void Seal(World& w, Observed* out) {
  const rules::EngineStats& st = w.engine.stats();
  out->counters.clear();
  for (const StatRow<rules::EngineStats>& row : rules::kEngineStatRows) {
    if (row.kind != StatKind::kPersisted) continue;
    // How often steps fan out over the pool depends on the thread count.
    if (row.member == &rules::EngineStats::parallel_dispatches) continue;
    out->counters += StrCat(row.name, "=", st.*row.member, " ");
  }
  out->counters += StrCat("history=", w.db.history().size(), "\n");
  out->tables = w.Tables();
}

// Library semantics of one request (the server's, minus the socket).
inline std::string ApplyRequest(World& w, const server::Request& req,
                                size_t index) {
  db::ParamMap params(req.params.begin(), req.params.end());
  Status s;
  int64_t rows = 0;
  std::string text;
  switch (req.type) {
    case server::MsgType::kPing:
      break;
    case server::MsgType::kRaiseEvent:
      s = w.db.RaiseEvent(event::Event{req.event_name, req.event_params});
      break;
    case server::MsgType::kInsert:
      s = w.db.InsertRow(req.table, req.row);
      break;
    case server::MsgType::kUpdate:
    case server::MsgType::kDelete: {
      Result<size_t> n =
          req.type == server::MsgType::kUpdate
              ? w.db.UpdateRows(req.table, req.set, req.where, &params)
              : w.db.DeleteRows(req.table, req.where, &params);
      s = n.status();
      if (n.ok()) rows = static_cast<int64_t>(*n);
      break;
    }
    case server::MsgType::kQuery: {
      Result<db::Relation> rel = w.db.QuerySql(req.sql, &params);
      s = rel.status();
      if (rel.ok()) {
        rows = static_cast<int64_t>(rel->size());
        text = rel->ToString();
      }
      break;
    }
    default:
      PTLDB_CHECK(false);  // the scenario generates no other request type
  }
  return Outcome(index, s.code(), s.message(), rows, w.db.history().size(),
                 text);
}

inline std::string ApplyOp(World& w, const Op& op, size_t index) {
  if (op.txn.empty()) return ApplyRequest(w, op.req, index);
  auto txn = w.db.Begin();
  PTLDB_CHECK_OK(txn.status());
  std::string stmts;
  for (const server::Request& stmt : op.txn) {
    db::ParamMap params(stmt.params.begin(), stmt.params.end());
    auto n = w.db.Update(*txn, stmt.table, stmt.set, stmt.where, &params);
    stmts += n.ok() ? StrCat("rows=", *n, "; ") : n.status().ToString() + "; ";
  }
  Status s = op.abort ? w.db.Abort(*txn) : w.db.Commit(*txn);
  return Outcome(index, s.code(), s.message(), 0, w.db.history().size(),
                 StrCat(op.abort ? "abort " : "commit ", stmts));
}

// When a library run takes firings: after every op (firings and errors land
// in Observed::ops, right after the op that produced them) or once after the
// final Flush, as the wire serves them (the server drops engine errors, so
// this mode drops them too).
enum class Drain { kEachOp, kAtEnd };

inline std::string TakeLog(World& w, Drain drain) {
  std::string out = RenderFirings(w.engine.TakeFirings());
  for (const Status& e : w.engine.TakeErrors()) {
    if (drain == Drain::kEachOp) out += StrCat("error ", e.ToString(), "\n");
  }
  return out;
}

// Applies waves [first, last) of the scenario through the library API at
// the engine's configured threads and batching.
inline void ApplyWaves(World& w, const Scenario& sc, size_t first, size_t last,
                       Drain drain, Observed* out) {
  size_t index = 0;
  for (size_t i = 0; i < first; ++i) index += sc.waves[i].ops.size();
  for (size_t i = first; i < last; ++i) {
    w.clock.Advance(sc.waves[i].advance);
    for (const Op& op : sc.waves[i].ops) {
      out->ops += ApplyOp(w, op, index++);
      if (drain == Drain::kEachOp) out->ops += TakeLog(w, drain);
    }
  }
}

// The whole scenario through the library on a world the caller configured
// (threads, batching, durability).
inline Observed RunLibrary(World& w, const Scenario& sc,
                           Drain drain = Drain::kEachOp) {
  Observed out;
  out.reg = w.reg;
  ApplyWaves(w, sc, 0, sc.waves.size(), drain, &out);
  PTLDB_CHECK_OK(w.engine.Flush());
  out.tail = TakeLog(w, drain);
  Seal(w, &out);
  return out;
}

inline Observed RunLibrary(const Scenario& sc, size_t threads, size_t batch) {
  World w(sc);
  PTLDB_CHECK_OK(w.engine.SetThreads(threads));
  w.engine.SetBatching(batch);
  return RunLibrary(w, sc);
}

struct ServeConfig {
  const char* name;
  size_t max_batch;
  int64_t delay_us;
};

// The scenario through a real socket server, a whole wave in flight at once
// so the engine thread forms multi-request batches. With `take_each_wave`
// a kTakeFirings request after every wave serves (and clears) the firings
// so far; the rest come from the server-side log at shutdown.
inline Observed RunServed(World& w, const Scenario& sc, const ServeConfig& cfg,
                          bool take_each_wave = false) {
  server::ServerOptions opts;
  opts.max_batch = cfg.max_batch;
  opts.batch_delay_us = cfg.delay_us;
  server::Server srv(opts, &w.db, &w.engine, /*mgr=*/nullptr);
  PTLDB_CHECK_OK(srv.Start());
  server::Client client;
  PTLDB_CHECK_OK(client.Connect(srv.port()));

  auto call = [&client](server::MsgType type) {
    server::Request req;
    req.type = type;
    auto resp = client.Call(std::move(req));
    PTLDB_CHECK_OK(resp.status());
    PTLDB_CHECK(resp->code == StatusCode::kOk);
    return std::move(resp).value();
  };

  Observed out;
  out.reg = w.reg;
  size_t index = 0;
  for (const Wave& wave : sc.waves) {
    // Every response of the previous wave is in, so the engine thread is
    // parked on an empty queue: only now is it safe to touch the clock.
    w.clock.Advance(wave.advance);
    for (const Op& op : wave.ops) {
      PTLDB_CHECK(op.txn.empty());  // transactions are library-only
      PTLDB_CHECK_OK(client.Send(op.req).status());
    }
    for (size_t i = 0; i < wave.ops.size(); ++i) {
      auto resp = client.Receive();
      PTLDB_CHECK_OK(resp.status());
      out.ops += Outcome(index++, resp->code, resp->message, resp->rows,
                         resp->applied_seq, resp->text);
    }
    if (take_each_wave) {
      out.tail += RenderFirings(call(server::MsgType::kTakeFirings).firings);
    }
  }
  call(server::MsgType::kFlush);  // deferred evaluation, like the library's
  client.Close();
  srv.Stop();
  out.tail += RenderFirings(srv.TakeFirings());
  Seal(w, &out);
  return out;
}

// ---- Theorem 1 oracle ---------------------------------------------------------
//
// A listener proxy between the database and the engine snapshots every
// appended state — its events and each eligible rule instance's query values —
// before the engine sees it, whatever the engine then steps or skips. After
// the run ptl::NaiveEvaluator decides every instance over its full history,
// and its edge- and level-triggered firings must equal the engine's decision
// log (every action it ran, recorded or not — the stream the WAL persists).
class NaiveOracle : public db::Database::Listener,
                    public rules::RuleEngine::FiringObserver {
 public:
  // Tracks `sc`'s rules in `w`; attaches between w.db and w.engine.
  NaiveOracle(World& w, const Scenario& sc) : w_(w) {
    for (const RuleSpec& spec : sc.rules) {
      Rule rule;
      rule.spec = &spec;
      if (spec.kind == RuleSpec::Kind::kIc) {
        rule.skip = "integrity constraint: decides prospective states";
      } else if (spec.event_filtered) {
        rule.skip = "event-filtered: steps only states naming its events";
      } else if (spec.aggregate_rewrite) {
        rule.skip = "rewritten aggregate: its items change during dispatch";
      } else if (!w.engine.Describe(spec.name).ok()) {
        rule.skip = "not registered";
      }
      rules_.push_back(std::move(rule));
    }
    w_.db.SetListener(this);
    w_.engine.SetFiringObserver(this);
  }
  ~NaiveOracle() override {
    w_.engine.SetFiringObserver(nullptr);
    w_.db.SetListener(&w_.engine);
  }

  void OnFiring(const rules::Firing& firing) override {
    decisions_.push_back(firing);
  }
  void OnIcVeto(int64_t, Timestamp, const std::vector<std::string>&) override {}

  Status OnCommitAttempt(const event::SystemState& prospective,
                         int64_t txn) override {
    return Engine().OnCommitAttempt(prospective, txn);
  }

  void OnStateAppended(const event::SystemState& state) override {
    for (Rule& rule : rules_) {
      if (rule.skip.empty()) Observe(&rule, state);
    }
    Engine().OnStateAppended(state);
  }

  // Compares the naive decisions with the engine's; appends one line per
  // disagreement to `diff` and counts checked and skipped rules.
  void Check(std::string* diff, size_t* checked,
             std::map<std::string, size_t>* skipped) {
    for (Rule& rule : rules_) {
      std::vector<std::string> naive;
      for (const auto& instance : rule.instances) {
        if (!rule.skip.empty()) break;
        bool prev = false;
        for (size_t i = 0; i < instance->times.size(); ++i) {
          auto sat = instance->naive.SatisfiedAt(i);
          if (!sat.ok()) {
            rule.skip = StrCat("naive evaluation failed: ",
                               sat.status().ToString());
            break;
          }
          if (*sat && (rule.spec->level_triggered || !prev)) {
            naive.push_back(StrCat(instance->params, "@", instance->times[i]));
          }
          prev = *sat;
        }
      }
      if (!rule.skip.empty()) {
        ++(*skipped)[rule.skip.substr(0, rule.skip.find(':'))];
        continue;
      }
      ++*checked;
      std::vector<std::string> online;
      for (const rules::Firing& f : decisions_) {
        if (f.rule == rule.spec->name) {
          online.push_back(StrCat(f.params, "@", f.time));
        }
      }
      std::sort(naive.begin(), naive.end());
      std::sort(online.begin(), online.end());
      if (naive != online) {
        *diff += StrCat(rule.spec->name, " ", rule.spec->condition->ToString(),
                        rule.spec->level_triggered ? " (level)" : "",
                        ": naive fires [", Join(naive, " "),
                        "], engine fired [", Join(online, " "), "]\n");
      }
    }
  }

 private:
  struct Instance {
    explicit Instance(ptl::Analysis a)
        : analysis(std::move(a)), naive(&analysis) {}
    std::string params;  // rendered as rules::Firing::params
    ptl::Analysis analysis;
    ptl::NaiveEvaluator naive;
    std::vector<Timestamp> times;
  };
  struct Rule {
    const RuleSpec* spec = nullptr;
    std::string skip;  // why the rule is not checked; empty = checked
    std::vector<std::unique_ptr<Instance>> instances;
    std::map<std::string, Instance*> by_params;
  };

  db::Database::Listener& Engine() { return w_.engine; }

  // A family instance exists from the first state whose domain names it
  // (the engine refreshes families while gathering that state).
  Instance* Find(Rule* rule, const std::map<std::string, Value>& params) {
    std::vector<std::string> parts;
    for (const auto& [name, value] : params) {
      parts.push_back(StrCat(name, "=", value.ToString()));
    }
    std::string key = Join(parts, ",");
    auto it = rule->by_params.find(key);
    if (it != rule->by_params.end()) return it->second;
    auto analysis =
        ptl::Analyze(ptl::SubstituteParams(rule->spec->condition, params));
    if (!analysis.ok()) {
      rule->skip = StrCat("does not analyze: ", analysis.status().ToString());
      return nullptr;
    }
    rule->instances.push_back(
        std::make_unique<Instance>(std::move(analysis).value()));
    Instance* instance = rule->instances.back().get();
    instance->params = key;
    rule->by_params.emplace(std::move(key), instance);
    return instance;
  }

  void Observe(Rule* rule, const event::SystemState& state) {
    std::vector<Instance*> live;
    if (rule->spec->kind == RuleSpec::Kind::kFamily) {
      auto domain = w_.db.QuerySql(rule->spec->domain_sql);
      if (!domain.ok()) {
        rule->skip = StrCat("domain query failed: ", domain.status().ToString());
        return;
      }
      for (const db::Tuple& row : domain->rows()) {
        std::map<std::string, Value> params;
        for (size_t i = 0; i < rule->spec->param_names.size(); ++i) {
          params.emplace(rule->spec->param_names[i], row[i]);
        }
        if (Find(rule, params) == nullptr) return;
      }
      for (const auto& instance : rule->instances) live.push_back(instance.get());
    } else {
      Instance* instance = Find(rule, {});
      if (instance == nullptr) return;
      live.push_back(instance);
    }
    for (Instance* instance : live) {
      ptl::StateSnapshot snap;
      snap.seq = state.seq;
      snap.time = state.time;
      snap.events = state.events;
      for (const ptl::QuerySpec& spec : instance->analysis.slots) {
        auto v = w_.engine.queries().Eval(spec);
        if (!v.ok()) {
          rule->skip = StrCat("query failed: ", v.status().ToString());
          return;
        }
        snap.query_values.push_back(std::move(v).value());
      }
      instance->naive.Observe(std::move(snap));
      instance->times.push_back(state.time);
    }
  }

  World& w_;
  std::vector<Rule> rules_;
  std::vector<rules::Firing> decisions_;
};

struct NaiveResult {
  std::string diff;  // empty when the engine matched the oracle
  size_t checked = 0;
  std::map<std::string, size_t> skipped;  // rules per reason
};

// The scenario through the serial, unbatched library engine with the oracle
// attached. A failed action (its transaction vetoed) was still decided; any
// other engine error means a state went unevaluated, which voids the
// comparison, so such runs count every rule as skipped.
inline NaiveResult RunNaive(const Scenario& sc) {
  World w(sc);
  NaiveOracle oracle(w, sc);
  size_t index = 0;
  bool step_errors = false;
  for (const Wave& wave : sc.waves) {
    w.clock.Advance(wave.advance);
    for (const Op& op : wave.ops) {
      (void)ApplyOp(w, op, index++);
      for (const Status& e : w.engine.TakeErrors()) {
        step_errors = step_errors || !e.message().starts_with("action of rule");
      }
    }
  }
  NaiveResult out;
  if (step_errors) {
    out.skipped["engine step errors"] = sc.rules.size();
    return out;
  }
  oracle.Check(&out.diff, &out.checked, &out.skipped);
  return out;
}

}  // namespace ptldb::differential

#endif  // PTLDB_TESTS_DIFFERENTIAL_H_

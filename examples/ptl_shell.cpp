// ptl_shell — an interactive active-database shell.
//
// Drive the whole system from a prompt (or a piped script):
//
//   create stock name:string key price:double
//   insert stock 'IBM' 72.0
//   query price SELECT price FROM stock WHERE name = $sym
//   trigger hot := wavg(price('IBM'), 20) > 50
//   ic cap := price('IBM') <= 1000
//   sql SELECT * FROM stock
//   update stock price 80 WHERE name = 'IBM'
//   event login 'alice'
//   tick 5
//   describe hot
//   stats
//   quit
//
// Run: ./build/examples/ptl_shell            (interactive)
//      ./build/examples/ptl_shell < script   (batch)

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "db/database.h"
#include "ptl/lint.h"
#include "rules/engine.h"
#include "rules/offline_check.h"
#include "rules/provenance.h"
#include "storage/durability.h"
#include "storage/recovery.h"
#include "temporal/versioning.h"

using namespace ptldb;

namespace {

// Crash sink: if a CHECK fails while tracing, the in-memory ring is the only
// record of what the engine was doing — persist it before the abort.
trace::Recorder* g_crash_recorder = nullptr;

// Prints one `<registry name> <value>` line per row of a stats table.
template <typename S, size_t N>
void PrintStats(const S& stats, const StatRow<S> (&rows)[N]) {
  for (const StatRow<S>& row : rows) {
    std::printf("%-32s %llu\n", row.name,
                static_cast<unsigned long long>(stats.*row.member));
  }
}

void CrashSink(const char* file, int line, const std::string& message) {
  std::fprintf(stderr, "%s:%d: %s\n", file, line, message.c_str());
  if (g_crash_recorder != nullptr && g_crash_recorder->enabled()) {
    const char* path = "ptldb_crash_trace.jsonl";
    if (g_crash_recorder->DumpJsonl(path).ok()) {
      std::fprintf(stderr, "trace dumped to %s (%zu update record(s))\n", path,
                   g_crash_recorder->update_count());
    }
  }
}

class Shell {
 public:
  Shell() : clock_(0), database_(&clock_), engine_(&database_) {
    engine_.SetMetrics(&metrics_);
    engine_.SetTrace(&trace_);
    g_crash_recorder = &trace_;
    SetCheckFailureSink(&CrashSink);
  }

  ~Shell() {
    SetCheckFailureSink(nullptr);
    g_crash_recorder = nullptr;
  }

  int Run() {
    std::string line;
    bool tty = isatty(0);
    if (tty) {
      std::printf("ptldb shell — 'help' lists commands, 'quit' exits.\n");
    }
    while (true) {
      if (tty) std::printf("ptldb> ");
      if (!std::getline(std::cin, line)) break;
      if (!Dispatch(line)) break;
      DrainEngineOutput();
    }
    return 0;
  }

 private:
  // Splits off the first word; returns (word, rest).
  static std::pair<std::string, std::string> Split(const std::string& s) {
    size_t i = s.find_first_not_of(" \t");
    if (i == std::string::npos) return {"", ""};
    size_t j = s.find_first_of(" \t", i);
    if (j == std::string::npos) return {s.substr(i), ""};
    size_t k = s.find_first_not_of(" \t", j);
    return {s.substr(i, j - i), k == std::string::npos ? "" : s.substr(k)};
  }

  // Parses one shell literal: 42, 3.5, 'text', true, false, null.
  static Result<Value> ParseLiteral(const std::string& tok) {
    if (tok.empty()) return Status::ParseError("empty literal");
    if (tok == "true") return Value::Bool(true);
    if (tok == "false") return Value::Bool(false);
    if (tok == "null") return Value::Null();
    if (tok.front() == '\'') {
      if (tok.size() < 2 || tok.back() != '\'') {
        return Status::ParseError("unterminated string " + tok);
      }
      return Value::Str(tok.substr(1, tok.size() - 2));
    }
    try {
      if (tok.find('.') != std::string::npos) {
        return Value::Real(std::stod(tok));
      }
      return Value::Int(std::stoll(tok));
    } catch (...) {
      return Status::ParseError("bad literal " + tok);
    }
  }

  // Tokenizes respecting single quotes.
  static std::vector<std::string> Tokens(const std::string& s) {
    std::vector<std::string> out;
    std::string cur;
    bool in_str = false;
    for (char c : s) {
      if (c == '\'') {
        in_str = !in_str;
        cur += c;
      } else if (!in_str && (c == ' ' || c == '\t')) {
        if (!cur.empty()) out.push_back(std::move(cur));
        cur.clear();
      } else {
        cur += c;
      }
    }
    if (!cur.empty()) out.push_back(std::move(cur));
    return out;
  }

  void Report(const Status& s) {
    if (!s.ok()) std::printf("error: %s\n", s.ToString().c_str());
  }

  void DrainEngineOutput() {
    for (const rules::Firing& f : engine_.TakeFirings()) {
      std::printf(">>> fired %s%s%s at t=%lld\n", f.rule.c_str(),
                  f.params.empty() ? "" : " ", f.params.c_str(),
                  static_cast<long long>(f.time));
      firing_log_.push_back(f);  // retained for 'offline'
    }
    for (const Status& e : engine_.TakeErrors()) {
      std::printf("engine error: %s\n", e.ToString().c_str());
    }
  }

  bool Dispatch(const std::string& line) {
    auto [cmd, rest] = Split(line);
    if (cmd.empty() || cmd[0] == '#') return true;
    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") {
      std::printf(
          "commands:\n"
          "  create <table> <col:type>... (append 'key' after the key column)\n"
          "  insert <table> <literal>...\n"
          "  update <table> <col> <literal> WHERE <sql-expr>\n"
          "  delete <table> WHERE <sql-expr>\n"
          "  sql <SELECT ...>\n"
          "  query <name> <SELECT ... $p1 ...>   (args bind $p1, $p2, ...)\n"
          "  trigger <name> := <PTL condition>\n"
          "  ic <name> := <PTL constraint>\n"
          "  drop <rule>\n"
          "  event <name> [literal...]\n"
          "  tick [n]         advance the clock\n"
          "  set threads <n>  shard rule evaluation over n threads\n"
          "  set strict on|off   reject unbounded/contradictory rules at\n"
          "                   registration (strict mode)\n"
          "  set fold on|off  constant-fold conditions at registration\n"
          "  lint <rule|file> static analysis: boundedness, time-bound\n"
          "                   satisfiability, dead subformulas (PTL0xx)\n"
          "  analyze [json|dot]  whole-rule-set analysis: triggering graph,\n"
          "                   termination, confluence partition (PTL2xx)\n"
          "  explain <rule>   retained F formulas + node accounting\n"
          "  stats [json]     engine counters (json: full metrics snapshot)\n"
          "  trace on|off|clear | trace dump|chrome|replay <file>\n"
          "  why <rule>       witness chain of the rule's last traced firing\n"
          "  durable <dir> [sync|async|none] [every <N>]\n"
          "                   attach WAL + checkpoints (async fsync default)\n"
          "  checkpoint       serialize retained state now, reset the WAL\n"
          "  recover <dir>    restore checkpoint + replay WAL tail into this\n"
          "                   session (re-register rules first)\n"
          "  wal stats        durable-store record/byte/sync counters\n"
          "  versioned [<table> | drop <table> | history <table>]\n"
          "                   declare/undeclare system-period versioning,\n"
          "                   list versioned tables, dump a history table\n"
          "  asof <t> <SELECT ...>   run the query AS OF time t\n"
          "  trim <t>         drop archived history ending at or before t\n"
          "  offline          re-check all rules over the committed history\n"
          "                   and diff the verdicts against the online run\n"
          "  history          the collapsed committed history (commit points\n"
          "                   and event states) the offline check replays\n"
          "  describe <rule> | rules | help | quit\n");
      return true;
    }
    if (cmd == "create") return CmdCreate(rest);
    if (cmd == "insert") return CmdInsert(rest);
    if (cmd == "update") return CmdUpdate(rest);
    if (cmd == "delete") return CmdDelete(rest);
    if (cmd == "sql") return CmdSql(rest);
    if (cmd == "query") return CmdQuery(rest);
    if (cmd == "trigger") return CmdRule(rest, /*ic=*/false);
    if (cmd == "ic") return CmdRule(rest, /*ic=*/true);
    if (cmd == "drop") {
      Report(engine_.RemoveRule(rest));
      return true;
    }
    if (cmd == "event") return CmdEvent(rest);
    if (cmd == "tick") {
      int64_t n = 1;
      if (!rest.empty()) {
        auto parsed = ParseInt64(rest);
        if (!parsed.ok() || *parsed <= 0) {
          std::printf("error: tick count must be a positive integer, got "
                      "'%s'\n",
                      rest.c_str());
          return true;
        }
        n = *parsed;
      }
      clock_.Advance(n);
      // A clock tick is itself an event: time-based conditions advance.
      Report(database_.RaiseEvent(event::Event{"tick", {}}));
      return true;
    }
    if (cmd == "set") {
      auto [what, value] = Split(rest);
      if (what == "threads" && !value.empty()) {
        // Strict parse: `atol` would silently turn junk into 0 and a silent
        // clamp would hide the mistake; reject anything but a positive count.
        auto parsed = ParseInt64(value);
        if (!parsed.ok()) {
          std::printf("error: thread count must be an integer, got '%s'\n",
                      value.c_str());
          return true;
        }
        if (*parsed <= 0) {
          std::printf("error: thread count must be >= 1, got %lld\n",
                      static_cast<long long>(*parsed));
          return true;
        }
        Report(engine_.SetThreads(static_cast<size_t>(*parsed)));
        std::printf("threads = %zu (firing order is identical at any "
                    "thread count)\n",
                    engine_.threads());
      } else if (what == "strict" && (value == "on" || value == "off")) {
        engine_.SetStrictRegistration(value == "on");
        std::printf("strict registration = %s\n", value.c_str());
      } else if (what == "fold" && (value == "on" || value == "off")) {
        engine_.SetLintFolding(value == "on");
        std::printf("lint folding = %s (affects rules registered from "
                    "now on)\n",
                    value.c_str());
      } else {
        std::printf(
            "usage: set threads <n> | set strict on|off | set fold on|off\n");
      }
      return true;
    }
    if (cmd == "versioned") return CmdVersioned(rest);
    if (cmd == "asof") return CmdAsOf(rest);
    if (cmd == "trim") return CmdTrim(rest);
    if (cmd == "offline") return CmdOffline();
    if (cmd == "lint") return CmdLint(rest);
    if (cmd == "analyze") return CmdAnalyze(rest);
    if (cmd == "durable") return CmdDurable(rest);
    if (cmd == "checkpoint") return CmdCheckpoint();
    if (cmd == "recover") return CmdRecover(rest);
    if (cmd == "wal") return CmdWal(rest);
    if (cmd == "explain") return CmdExplain(rest);
    if (cmd == "trace") return CmdTrace(rest);
    if (cmd == "why") return CmdWhy(rest);
    if (cmd == "describe") return CmdDescribe(rest);
    if (cmd == "rules") {
      for (const std::string& name : engine_.RuleNames()) {
        std::printf("  %s\n", name.c_str());
      }
      return true;
    }
    if (cmd == "stats") return CmdStats(rest);
    if (cmd == "history") return CmdHistory();
    std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
    return true;
  }

  bool CmdCreate(const std::string& rest) {
    auto toks = Tokens(rest);
    if (toks.size() < 2) {
      std::printf("usage: create <table> <col:type>... [key]\n");
      return true;
    }
    std::vector<db::Column> cols;
    std::vector<std::string> key;
    for (size_t i = 1; i < toks.size(); ++i) {
      if (toks[i] == "key") {
        if (!cols.empty()) key.push_back(cols.back().name);
        continue;
      }
      size_t colon = toks[i].find(':');
      if (colon == std::string::npos) {
        std::printf("column must be <name>:<type>, got %s\n", toks[i].c_str());
        return true;
      }
      std::string name = toks[i].substr(0, colon);
      std::string type = ToLower(toks[i].substr(colon + 1));
      ValueType vt;
      if (type == "int") vt = ValueType::kInt64;
      else if (type == "double") vt = ValueType::kDouble;
      else if (type == "string") vt = ValueType::kString;
      else if (type == "bool") vt = ValueType::kBool;
      else {
        std::printf("unknown type %s (int|double|string|bool)\n", type.c_str());
        return true;
      }
      cols.push_back(db::Column{name, vt});
    }
    Report(database_.CreateTable(toks[0], db::Schema(std::move(cols)), key));
    return true;
  }

  bool CmdInsert(const std::string& rest) {
    auto toks = Tokens(rest);
    if (toks.empty()) {
      std::printf("usage: insert <table> <literal>...\n");
      return true;
    }
    db::Tuple row;
    for (size_t i = 1; i < toks.size(); ++i) {
      auto v = ParseLiteral(toks[i]);
      if (!v.ok()) {
        Report(v.status());
        return true;
      }
      row.push_back(*v);
    }
    clock_.Advance(1);
    Report(database_.InsertRow(toks[0], std::move(row)));
    return true;
  }

  bool CmdUpdate(const std::string& rest) {
    // update <table> <col> <literal> WHERE <expr>
    auto toks = Tokens(rest);
    size_t where = 0;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (ToLower(toks[i]) == "where") where = i;
    }
    if (toks.size() < 5 || where != 3) {
      std::printf("usage: update <table> <col> <literal> WHERE <expr>\n");
      return true;
    }
    auto v = ParseLiteral(toks[2]);
    if (!v.ok()) {
      Report(v.status());
      return true;
    }
    std::string expr;
    for (size_t i = where + 1; i < toks.size(); ++i) {
      expr += toks[i];
      expr += " ";
    }
    clock_.Advance(1);
    db::ParamMap params{{"__v", *v}};
    auto n = database_.UpdateRows(toks[0], {{toks[1], "$__v"}}, expr, &params);
    if (n.ok()) {
      std::printf("%zu row(s)\n", *n);
    } else {
      Report(n.status());
    }
    return true;
  }

  bool CmdDelete(const std::string& rest) {
    auto toks = Tokens(rest);
    if (toks.size() < 3 || ToLower(toks[1]) != "where") {
      std::printf("usage: delete <table> WHERE <expr>\n");
      return true;
    }
    std::string expr;
    for (size_t i = 2; i < toks.size(); ++i) {
      expr += toks[i];
      expr += " ";
    }
    clock_.Advance(1);
    auto n = database_.DeleteRows(toks[0], expr);
    if (n.ok()) {
      std::printf("%zu row(s)\n", *n);
    } else {
      Report(n.status());
    }
    return true;
  }

  bool CmdSql(const std::string& rest) {
    auto r = database_.QuerySql(rest);
    if (!r.ok()) {
      Report(r.status());
      return true;
    }
    std::printf("%s", r->ToString().c_str());
    std::printf("(%zu row(s))\n", r->size());
    return true;
  }

  bool CmdQuery(const std::string& rest) {
    auto [name, sql] = Split(rest);
    if (name.empty() || sql.empty()) {
      std::printf("usage: query <name> <SELECT ...>\n");
      return true;
    }
    // Positional parameters $p1, $p2, ... map to PTL arguments.
    std::vector<std::string> params;
    for (int i = 1; i <= 8; ++i) {
      std::string p = "p" + std::to_string(i);
      if (sql.find("$" + p) != std::string::npos) params.push_back(p);
    }
    Report(engine_.queries().Register(name, sql, params));
    return true;
  }

  bool CmdRule(const std::string& rest, bool ic) {
    size_t sep = rest.find(":=");
    if (sep == std::string::npos) {
      std::printf("usage: %s <name> := <condition>\n", ic ? "ic" : "trigger");
      return true;
    }
    std::string name = rest.substr(0, sep);
    while (!name.empty() && name.back() == ' ') name.pop_back();
    std::string condition = rest.substr(sep + 2);
    if (ic) {
      Report(engine_.AddIntegrityConstraint(name, condition));
    } else {
      Report(engine_.AddTrigger(
          name, condition, [](rules::ActionContext&) { return Status::OK(); }));
    }
    return true;
  }

  bool CmdEvent(const std::string& rest) {
    auto toks = Tokens(rest);
    if (toks.empty()) {
      std::printf("usage: event <name> [literal...]\n");
      return true;
    }
    event::Event e;
    e.name = toks[0];
    for (size_t i = 1; i < toks.size(); ++i) {
      auto v = ParseLiteral(toks[i]);
      if (!v.ok()) {
        Report(v.status());
        return true;
      }
      e.params.push_back(*v);
    }
    clock_.Advance(1);
    Report(database_.RaiseEvent(std::move(e)));
    return true;
  }

  bool CmdDescribe(const std::string& name) {
    auto info = engine_.Describe(name);
    if (!info.ok()) {
      Report(info.status());
      return true;
    }
    std::printf("rule       %s%s%s%s\n", info->name.c_str(),
                info->is_ic ? " [integrity constraint]" : "",
                info->is_system ? " [system]" : "",
                info->is_family ? " [family]" : "");
    std::printf("condition  %s\n", info->condition.c_str());
    std::printf("instances  %zu\n", info->num_instances);
    std::printf("bounded    %s (%zu lint diagnostic(s), %zu node(s) "
                "folded)\n",
                ptl::BoundednessToString(info->boundedness),
                info->lint_diagnostics, info->folded_nodes);
    std::printf("events     %s\n", Join(info->event_names, ", ").c_str());
    std::printf("retained   %zu node(s)\n", info->retained_nodes);
    std::printf("steps      %llu\n",
                static_cast<unsigned long long>(info->steps));
    return true;
  }

  bool CmdStats(const std::string& rest) {
    if (Split(rest).first == "json") {
      // The full registry snapshot: engine counters, latency histograms, and
      // the provider-refreshed evaluator/per-rule gauges.
      std::printf("%s\n", metrics_.ToJson().c_str());
      return true;
    }
    PrintStats(engine_.stats(), rules::kEngineStatRows);
    return true;
  }

  bool CmdTrace(const std::string& rest) {
    auto [sub, arg] = Split(rest);
    if (sub == "on") {
      trace_.Enable();
      std::printf("tracing on\n");
    } else if (sub == "off") {
      trace_.Disable();
      std::printf("tracing off (%zu span(s), %zu update record(s) "
                  "retained)\n",
                  trace_.span_count(), trace_.update_count());
    } else if (sub == "clear") {
      trace_.Clear();
      std::printf("trace cleared\n");
    } else if (sub == "dump" && !arg.empty()) {
      Status s = trace_.DumpJsonl(arg);
      if (s.ok()) {
        std::printf("wrote %zu update record(s) to %s (%llu dropped)\n",
                    trace_.update_count(), arg.c_str(),
                    static_cast<unsigned long long>(trace_.dropped_updates()));
      } else {
        Report(s);
      }
    } else if (sub == "chrome" && !arg.empty()) {
      Status s = trace_.DumpChromeTrace(arg);
      if (s.ok()) {
        std::printf("wrote %zu span(s) to %s (load in chrome://tracing)\n",
                    trace_.span_count(), arg.c_str());
      } else {
        Report(s);
      }
    } else if (sub == "replay" && !arg.empty()) {
      auto report = rules::TraceReplayFile(arg);
      if (!report.ok()) {
        Report(report.status());
        return true;
      }
      std::printf("%s\n", report->Summary().c_str());
      for (const std::string& line : report->details) {
        std::printf("  %s\n", line.c_str());
      }
    } else {
      std::printf(
          "usage: trace on|off|clear | trace dump <file> | trace chrome "
          "<file> | trace replay <file>\n");
    }
    return true;
  }

  bool CmdWhy(const std::string& name) {
    if (name.empty()) {
      std::printf("usage: why <rule>\n");
      return true;
    }
    auto text = engine_.Why(name);
    if (!text.ok()) {
      Report(text.status());
      return true;
    }
    std::printf("%s", text->c_str());
    return true;
  }

  bool CmdVersioned(const std::string& rest) {
    auto [sub, arg] = Split(rest);
    if (sub.empty()) {
      auto tables = temporal_.VersionedTables();
      if (tables.empty()) {
        std::printf("no versioned tables (use 'versioned <table>')\n");
      }
      for (const std::string& name : tables) {
        std::printf("  %s\n", name.c_str());
      }
      return true;
    }
    if (sub == "drop") {
      if (arg.empty()) {
        std::printf("usage: versioned drop <table>\n");
        return true;
      }
      Report(temporal_.DropVersioned(arg));
      return true;
    }
    if (sub == "history") {
      if (arg.empty()) {
        std::printf("usage: versioned history <table>\n");
        return true;
      }
      auto rel = temporal_.HistoryRelation(arg);
      if (!rel.ok()) {
        Report(rel.status());
        return true;
      }
      std::printf("%s(%zu archived interval(s))\n", rel->ToString().c_str(),
                  rel->size());
      return true;
    }
    Status s = temporal_.SetVersioned(sub);
    if (s.ok()) {
      std::printf("%s is versioned from t=%lld on\n", sub.c_str(),
                  static_cast<long long>(clock_.Now()));
    } else {
      Report(s);
    }
    return true;
  }

  bool CmdAsOf(const std::string& rest) {
    auto [t_str, sql] = Split(rest);
    auto t = ParseInt64(t_str);
    if (!t.ok() || sql.empty()) {
      std::printf("usage: asof <t> <SELECT ...>\n");
      return true;
    }
    auto r = database_.QuerySqlAsOf(sql, *t);
    if (!r.ok()) {
      Report(r.status());
      return true;
    }
    std::printf("%s", r->ToString().c_str());
    std::printf("(%zu row(s) as of t=%lld)\n", r->size(),
                static_cast<long long>(*t));
    return true;
  }

  bool CmdTrim(const std::string& rest) {
    auto t = ParseInt64(rest);
    if (!t.ok()) {
      std::printf("usage: trim <t>\n");
      return true;
    }
    Status s = temporal_.TrimHistoryBefore(*t);
    if (s.ok()) {
      std::printf("history trimmed below t=%lld\n",
                  static_cast<long long>(*t));
    } else {
      Report(s);
    }
    return true;
  }

  bool CmdHistory() {
    for (const temporal::CommitPoint& p : temporal_.commit_log()) {
      const event::SystemState s{p.seq, p.time, p.events};
      std::printf("%s %s\n", p.is_commit ? "commit" : "event ",
                  s.ToString().c_str());
    }
    return true;
  }

  bool CmdOffline() {
    DrainEngineOutput();  // fold any still-buffered firings into the log
    auto report = rules::OfflineCheck(temporal_, engine_, firing_log_);
    if (!report.ok()) {
      Report(report.status());
      return true;
    }
    std::printf("%s", report->ToString().c_str());
    return true;
  }

  storage::CheckpointTargets Targets() {
    storage::CheckpointTargets t;
    t.db = &database_;
    t.engine = &engine_;
    t.clock = &clock_;
    t.temporal = &temporal_;
    return t;
  }

  bool CmdDurable(const std::string& rest) {
    if (durability_ != nullptr) {
      std::printf("already durable (dir %s); restart the shell to detach\n",
                  durability_->options().dir.c_str());
      return true;
    }
    auto toks = Tokens(rest);
    if (toks.empty()) {
      std::printf("usage: durable <dir> [sync|async|none] [every <N>]\n");
      return true;
    }
    storage::DurabilityOptions opts;
    opts.dir = toks[0];
    for (size_t i = 1; i < toks.size(); ++i) {
      if (toks[i] == "sync") {
        opts.fsync = storage::FsyncPolicy::kSync;
      } else if (toks[i] == "async") {
        opts.fsync = storage::FsyncPolicy::kAsync;
      } else if (toks[i] == "none") {
        opts.fsync = storage::FsyncPolicy::kNone;
      } else if (toks[i] == "every" && i + 1 < toks.size()) {
        auto n = ParseInt64(toks[++i]);
        if (!n.ok() || *n <= 0) {
          std::printf("error: 'every' needs a positive state count\n");
          return true;
        }
        opts.checkpoint_every_n_states = static_cast<uint64_t>(*n);
      } else {
        std::printf("usage: durable <dir> [sync|async|none] [every <N>]\n");
        return true;
      }
    }
    auto mgr = storage::DurabilityManager::Attach(opts, Targets());
    if (!mgr.ok()) {
      Report(mgr.status());
      return true;
    }
    durability_ = std::move(mgr).value();
    std::printf("durable store at %s (checkpoint %llu written)\n",
                opts.dir.c_str(),
                static_cast<unsigned long long>(
                    durability_->last_checkpoint_id()));
    return true;
  }

  bool CmdCheckpoint() {
    if (durability_ == nullptr) {
      std::printf("no durable store attached (use 'durable <dir>')\n");
      return true;
    }
    Status s = durability_->Checkpoint();
    if (!s.ok()) {
      Report(s);
      return true;
    }
    std::printf("checkpoint %llu committed\n",
                static_cast<unsigned long long>(
                    durability_->last_checkpoint_id()));
    return true;
  }

  bool CmdRecover(const std::string& dir) {
    if (dir.empty()) {
      std::printf("usage: recover <dir>\n");
      return true;
    }
    if (durability_ != nullptr) {
      std::printf("detach first: cannot recover while a durable store is "
                  "attached\n");
      return true;
    }
    auto report = storage::Recover(dir, Targets());
    if (!report.ok()) {
      Report(report.status());
      return true;
    }
    std::printf("%s\n", report->ToString().c_str());
    return true;
  }

  bool CmdWal(const std::string& rest) {
    if (rest != "stats") {
      std::printf("usage: wal stats\n");
      return true;
    }
    if (durability_ == nullptr) {
      std::printf("no durable store attached (use 'durable <dir>')\n");
      return true;
    }
    PrintStats(durability_->wal_stats(), storage::kWalStatRows);
    std::printf(
        "checkpoints: %llu taken, last id %llu, %llu state(s) since last\n"
        "status: %s\n",
        static_cast<unsigned long long>(durability_->checkpoints_taken()),
        static_cast<unsigned long long>(durability_->last_checkpoint_id()),
        static_cast<unsigned long long>(
            durability_->states_since_checkpoint()),
        durability_->status().ok() ? "ok"
                                   : durability_->status().ToString().c_str());
    return true;
  }

  bool CmdLint(const std::string& target) {
    if (target.empty()) {
      std::printf("usage: lint <rule|file>\n");
      return true;
    }
    // A registered rule name wins; otherwise treat the argument as a path
    // to a rule file (one `name := condition` per line).
    auto text = engine_.Lint(target);
    if (text.ok()) {
      std::printf("%s", text->c_str());
      return true;
    }
    std::ifstream in{std::string(target)};
    if (!in) {
      std::printf("error: no rule named '%s' and no such file\n",
                  target.c_str());
      return true;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    ptl::FileLintResult res = ptl::LintRulesText(buf.str());
    std::printf("%s\n", res.rendered.c_str());
    return true;
  }

  bool CmdAnalyze(const std::string& mode) {
    const analysis::SetReport& report = engine_.AnalyzeRuleSet();
    if (mode == "json") {
      std::printf("%s\n", report.ToJson().Dump().c_str());
    } else if (mode == "dot") {
      std::printf("%s", report.ToDot().c_str());
    } else if (mode.empty()) {
      std::printf("%s", report.ToText().c_str());
    } else {
      std::printf("usage: analyze [json|dot]\n");
    }
    return true;
  }

  bool CmdExplain(const std::string& name) {
    if (name.empty()) {
      std::printf("usage: explain <rule>\n");
      return true;
    }
    auto text = engine_.Explain(name);
    if (!text.ok()) {
      Report(text.status());
      return true;
    }
    std::printf("%s", text->c_str());
    return true;
  }

  SimClock clock_;
  db::Database database_;
  // Declared before the engine: the engine's destructor detaches from the
  // registry, so the registry must outlive it.
  Metrics metrics_;
  trace::Recorder trace_;
  rules::RuleEngine engine_;
  // Attaches to the database as its temporal sink; declared after it so the
  // destructor detaches while the database is still alive.
  temporal::VersionStore temporal_{&database_};
  // Every firing drained to the screen, retained as the online half of the
  // 'offline' differential check.
  std::vector<rules::Firing> firing_log_;
  // Declared after the engine/database it observes: destroyed first, so its
  // destructor can detach and flush cleanly.
  std::unique_ptr<storage::DurabilityManager> durability_;
};

}  // namespace

int main() {
  Shell shell;
  return shell.Run();
}

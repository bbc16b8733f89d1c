// ptldb-top: live console for a running ptldb-server.
//
// Polls the server's STATS_DELTA request and renders per-window rates and
// the wire-to-ack latency decomposition: event and firing rates, queue
// depth, admission rejects, WAL bytes and fsyncs per second with commits
// per group-commit sync, and p50/p99 per pipeline stage
// (read/queue/batch/apply/eval/commit/ack — DESIGN.md §15). Because the
// delta is computed server-side against this session's previous poll, the
// numbers are true per-window distributions, not lifetime aggregates.
//
//   ptldb-top --port-file=/tmp/port                   # live text dashboard
//   ptldb-top --port=5432 --interval-ms=500 --iterations=10 --json
//
// --json prints one JSON document per poll (scripting/CI: the server-smoke
// workflow asserts bounded queue depth and nonzero acks from it), including
// `stage_sum_mean_us` — the sum of per-stage means, which E16 cross-checks
// against the client-observed wire-to-ack latency (±10%).
//
// One-shot admin modes (run once, print, exit):
//   --once [--stats-format=json|prom]       full STATS snapshot
//   --trace-out=FILE [--trace-format=chrome|jsonl] [--trace-clear]
//   --trace-ctl=status|enable|disable|clear

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "common/json.h"
#include "server/client.h"

namespace ptldb {
namespace {

/// Null-safe numeric field lookup (0 when absent or non-numeric).
uint64_t U(const json::Json* obj, const char* key) {
  if (obj == nullptr) return 0;
  const json::Json* f = obj->Find(key);
  if (f == nullptr || !f->is_number()) return 0;
  auto v = f->AsInt64();
  return v.ok() && v.value() > 0 ? static_cast<uint64_t>(v.value()) : 0;
}

int64_t I(const json::Json* obj, const char* key) {
  if (obj == nullptr) return 0;
  const json::Json* f = obj->Find(key);
  if (f == nullptr || !f->is_number()) return 0;
  auto v = f->AsInt64();
  return v.ok() ? v.value() : 0;
}

constexpr const char* kStages[] = {"read",  "queue",  "batch", "apply",
                                   "eval",  "commit", "ack"};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port=N | --port-file=PATH]\n"
      "          [--interval-ms=N] [--iterations=N] [--json]\n"
      "          [--once] [--stats-format=json|prom]\n"
      "          [--trace-out=FILE] [--trace-format=chrome|jsonl] "
      "[--trace-clear]\n"
      "          [--trace-ctl=status|enable|disable|clear]\n",
      argv0);
  return 1;
}

int Fail(const Status& s, const char* what) {
  std::fprintf(stderr, "%s failed: %s\n", what, s.ToString().c_str());
  return 1;
}

/// One poll rendered for humans. `window_s` is the server-reported window.
void RenderText(const json::Json& stats, double window_s, bool clear_screen) {
  const json::Json* counters = stats.Find("counters");
  const json::Json* gauges = stats.Find("gauges");
  const json::Json* hists = stats.Find("histograms");
  auto rate = [&](const char* name) {
    return window_s > 0 ? static_cast<double>(U(counters, name)) / window_s
                        : 0;
  };
  if (clear_screen) std::fputs("\x1b[H\x1b[2J", stdout);
  std::printf("ptldb-top  window=%.2fs\n", window_s);
  std::printf(
      "  requests %8.1f/s   acked %8.1f/s   states %8.1f/s   actions "
      "%8.1f/s\n",
      rate("server.requests"), rate("server.acked"),
      rate("engine.states_processed"), rate("engine.actions_executed"));
  std::printf(
      "  queue_depth %5lld   sessions %4lld   rejects %6llu   slow %6llu   "
      "batches %8llu\n",
      static_cast<long long>(I(gauges, "server.queue_depth")),
      static_cast<long long>(I(gauges, "server.sessions_active")),
      static_cast<unsigned long long>(U(counters, "server.busy_rejections")),
      static_cast<unsigned long long>(U(counters, "server.slow_events")),
      static_cast<unsigned long long>(U(counters, "server.batches")));
  // Each acked request is one transaction; a group-commit fsync retires a
  // whole batch of them.
  const uint64_t group_syncs = U(counters, "group.sync_batches");
  std::printf(
      "  wal %10.1f B/s   fsyncs %8.1f/s   commits/sync %6.1f\n",
      rate("wal.bytes_appended"), rate("wal.syncs"),
      group_syncs > 0 ? static_cast<double>(U(counters, "server.acked")) /
                            static_cast<double>(group_syncs)
                      : 0.0);
  std::printf("  %-8s %10s %10s %10s %10s\n", "stage", "count", "mean_us",
              "p50_us", "p99_us");
  double stage_sum_mean_us = 0;
  for (const char* stage : kStages) {
    std::string key = std::string("server.stage.") + stage + "_ns";
    const json::Json* h = hists != nullptr ? hists->Find(key) : nullptr;
    double mean_us = static_cast<double>(U(h, "mean_ns")) / 1000.0;
    stage_sum_mean_us += mean_us;
    std::printf("  %-8s %10llu %10.1f %10.1f %10.1f\n", stage,
                static_cast<unsigned long long>(U(h, "count")), mean_us,
                static_cast<double>(U(h, "p50_ns")) / 1000.0,
                static_cast<double>(U(h, "p99_ns")) / 1000.0);
  }
  const json::Json* total =
      hists != nullptr ? hists->Find("server.wire_to_ack_ns") : nullptr;
  std::printf("  %-8s %10llu %10.1f %10.1f %10.1f   (stage sum mean %.1fus)\n",
              "total", static_cast<unsigned long long>(U(total, "count")),
              static_cast<double>(U(total, "mean_ns")) / 1000.0,
              static_cast<double>(U(total, "p50_ns")) / 1000.0,
              static_cast<double>(U(total, "p99_ns")) / 1000.0,
              stage_sum_mean_us);
  std::fflush(stdout);
}

/// One poll rendered as a single JSON document for scripting.
void RenderJson(const json::Json& stats, uint64_t window_ns) {
  const json::Json* counters = stats.Find("counters");
  const json::Json* gauges = stats.Find("gauges");
  const json::Json* hists = stats.Find("histograms");
  double window_s = static_cast<double>(window_ns) / 1e9;
  json::Json out = json::Json::Object();
  out.Set("window_ns", json::Json::UInt(window_ns));
  json::Json rates = json::Json::Object();
  for (const char* c : {"server.requests", "server.acked",
                        "engine.states_processed",
                        "engine.actions_executed"}) {
    rates.Set(c, json::Json::Real(
                     window_s > 0
                         ? static_cast<double>(U(counters, c)) / window_s
                         : 0));
  }
  out.Set("per_sec", std::move(rates));
  out.Set("acked", json::Json::UInt(U(counters, "server.acked")));
  out.Set("rejections", json::Json::UInt(U(counters,
                                           "server.busy_rejections")));
  out.Set("slow_events", json::Json::UInt(U(counters, "server.slow_events")));
  out.Set("queue_depth", json::Json::Int(I(gauges, "server.queue_depth")));
  out.Set("sessions", json::Json::Int(I(gauges, "server.sessions_active")));
  json::Json stages = json::Json::Object();
  double stage_sum_mean_us = 0;
  for (const char* stage : kStages) {
    std::string key = std::string("server.stage.") + stage + "_ns";
    const json::Json* h = hists != nullptr ? hists->Find(key) : nullptr;
    double mean_us = static_cast<double>(U(h, "mean_ns")) / 1000.0;
    stage_sum_mean_us += mean_us;
    json::Json s = json::Json::Object();
    s.Set("count", json::Json::UInt(U(h, "count")));
    s.Set("mean_us", json::Json::Real(mean_us));
    s.Set("p50_us",
          json::Json::Real(static_cast<double>(U(h, "p50_ns")) / 1000.0));
    s.Set("p99_us",
          json::Json::Real(static_cast<double>(U(h, "p99_ns")) / 1000.0));
    stages.Set(stage, std::move(s));
  }
  out.Set("stages", std::move(stages));
  const json::Json* total =
      hists != nullptr ? hists->Find("server.wire_to_ack_ns") : nullptr;
  out.Set("wire_to_ack_mean_us",
          json::Json::Real(static_cast<double>(U(total, "mean_ns")) / 1000.0));
  out.Set("wire_to_ack_p99_us",
          json::Json::Real(static_cast<double>(U(total, "p99_ns")) / 1000.0));
  out.Set("stage_sum_mean_us", json::Json::Real(stage_sum_mean_us));
  std::printf("%s\n", out.Dump().c_str());
  std::fflush(stdout);
}

}  // namespace

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return Usage(argv[0]);
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg.substr(2)] = "1";
    } else {
      flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  auto flag = [&](const std::string& name, const std::string& dflt) {
    auto it = flags.find(name);
    return it == flags.end() ? dflt : it->second;
  };

  int port = std::atoi(flag("port", "0").c_str());
  std::string port_file = flag("port-file", "");
  if (port == 0 && !port_file.empty()) {
    std::ifstream in(port_file);
    in >> port;
  }
  if (port <= 0) {
    std::fprintf(stderr, "need --port or --port-file\n");
    return Usage(argv[0]);
  }

  server::Client client;
  Status s = client.Connect(static_cast<uint16_t>(port));
  if (!s.ok()) return Fail(s, "connect");

  std::string trace_ctl = flag("trace-ctl", "");
  if (!trace_ctl.empty()) {
    server::Request req;
    req.type = server::MsgType::kTraceCtl;
    if (trace_ctl == "status") {
      req.trace_op = server::TraceOp::kStatus;
    } else if (trace_ctl == "enable") {
      req.trace_op = server::TraceOp::kEnable;
    } else if (trace_ctl == "disable") {
      req.trace_op = server::TraceOp::kDisable;
    } else if (trace_ctl == "clear") {
      req.trace_op = server::TraceOp::kClear;
    } else {
      return Usage(argv[0]);
    }
    auto resp = client.Call(std::move(req));
    if (!resp.ok()) return Fail(resp.status(), "trace_ctl");
    if (resp->code != StatusCode::kOk) {
      std::fprintf(stderr, "trace_ctl: %s\n", resp->message.c_str());
      return 1;
    }
    std::printf("%s\n", resp->text.c_str());
    return 0;
  }

  std::string trace_out = flag("trace-out", "");
  if (!trace_out.empty()) {
    server::Request req;
    req.type = server::MsgType::kTraceDump;
    req.trace_format = flag("trace-format", "jsonl") == "chrome"
                           ? server::TraceFormat::kChrome
                           : server::TraceFormat::kJsonl;
    req.trace_clear = flags.count("trace-clear") != 0;
    auto resp = client.Call(std::move(req));
    if (!resp.ok()) return Fail(resp.status(), "trace_dump");
    if (resp->code != StatusCode::kOk) {
      std::fprintf(stderr, "trace_dump: %s\n", resp->message.c_str());
      return 1;
    }
    std::ofstream out(trace_out, std::ios::binary);
    out << resp->text;
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu bytes to %s\n", resp->text.size(),
                 trace_out.c_str());
    return 0;
  }

  if (flags.count("once") != 0) {
    server::Request req;
    req.type = server::MsgType::kStats;
    req.stats_format = flag("stats-format", "json") == "prom"
                           ? server::StatsFormat::kPrometheus
                           : server::StatsFormat::kJson;
    auto resp = client.Call(std::move(req));
    if (!resp.ok()) return Fail(resp.status(), "stats");
    std::printf("%s\n", resp->text.c_str());
    return 0;
  }

  int interval_ms = std::max(1, std::atoi(flag("interval-ms", "1000").c_str()));
  long iterations = std::atol(flag("iterations", "0").c_str());  // 0 = forever
  bool as_json = flags.count("json") != 0;
  bool clear_screen = !as_json && isatty(fileno(stdout)) != 0;

  for (long i = 0; iterations == 0 || i < iterations; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    server::Request req;
    req.type = server::MsgType::kStatsDelta;
    auto resp = client.Call(std::move(req));
    if (!resp.ok()) return Fail(resp.status(), "stats_delta");
    if (resp->code != StatusCode::kOk) {
      std::fprintf(stderr, "stats_delta: %s\n", resp->message.c_str());
      return 1;
    }
    auto doc = json::Parse(resp->text);
    if (!doc.ok()) return Fail(doc.status(), "parse stats_delta");
    uint64_t window_ns = U(&doc.value(), "window_ns");
    const json::Json* stats = doc->Find("stats");
    if (stats == nullptr) {
      std::fprintf(stderr, "stats_delta response has no \"stats\" field\n");
      return 1;
    }
    if (as_json) {
      RenderJson(*stats, window_ns);
    } else {
      RenderText(*stats, static_cast<double>(window_ns) / 1e9, clear_screen);
    }
  }
  return 0;
}

}  // namespace ptldb

int main(int argc, char** argv) { return ptldb::Main(argc, argv); }

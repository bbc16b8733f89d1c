// ptldb-server: standalone event-ingestion server over a fixed demo world.
//
// Hosts the stock-ticker world the tests and docs use (a `stock` table with
// temporal rules and a price-cap constraint, plus an append-only `ticks`
// table for ingest workloads) behind the wire protocol of src/server. With
// --dir the world is durable: WAL + checkpoints, group commit under
// --fsync=group, and --recover replays a crashed directory back to the exact
// pre-crash state before serving (exit code 2 if the recovery report is not
// clean — the differential oracle caught a divergence).
//
//   ptldb-server --port=0 --port-file=/tmp/port --dir=/tmp/ptldb
//                --fsync=group --batch=64 --delay-us=200 [--recover]
//
// Prints "LISTENING <port>" once serving; SIGINT/SIGTERM stop it cleanly
// (kill -9 is what the crash-recovery smoke test does instead).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/clock.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "db/database.h"
#include "rules/engine.h"
#include "server/server.h"
#include "storage/durability.h"
#include "storage/recovery.h"
#include "temporal/versioning.h"

namespace ptldb {
namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

/// The demo world. Rules are code: the same registrations run before
/// recovery and before fresh serving, so checkpoints validate.
struct World {
  SimClock clock;
  db::Database db{&clock};
  rules::RuleEngine engine{&db};
  temporal::VersionStore temporal{&db};

  World() {
    PTLDB_CHECK_OK(db.CreateTable(
        "stock",
        db::Schema({{"name", ValueType::kString},
                    {"price", ValueType::kDouble}}),
        {"name"}));
    PTLDB_CHECK_OK(db.CreateTable(
        "ticks",
        db::Schema({{"client", ValueType::kInt64},
                    {"seq", ValueType::kInt64},
                    {"price", ValueType::kDouble}}),
        {"client", "seq"}));
    PTLDB_CHECK_OK(engine.queries().Register(
        "price", "SELECT price FROM stock WHERE name = $sym", {"sym"}));
    auto noop = [](rules::ActionContext&) { return Status::OK(); };
    PTLDB_CHECK_OK(engine.AddTrigger(
        "sharp_drop",
        "[t := time][x := price('IBM')] "
        "PREVIOUSLY (price('IBM') <= 0.5 * x AND time >= t - 10)",
        noop));
    PTLDB_CHECK_OK(
        engine.AddTrigger("window", "WITHIN(price('HP') > 30, 25)", noop));
    PTLDB_CHECK_OK(engine.AddTriggerFamily(
        "cheap", "SELECT name FROM stock", {"sym"}, "price(sym) < 25", noop));
    PTLDB_CHECK_OK(engine.AddIntegrityConstraint("cap", "price('IBM') <= 100"));
    // stock is versioned from the start, so QUERY_ASOF works out of the box
    // (ticks stays unversioned — the ingest hot path pays no archival cost).
    // On recovery the checkpointed store replaces this empty declaration.
    PTLDB_CHECK_OK(temporal.SetVersioned("stock"));
  }

  /// Initial contents; applied only on a fresh start (recovery restores the
  /// checkpointed rows instead).
  void Seed() {
    PTLDB_CHECK_OK(db.InsertRow("stock", {Value::Str("IBM"), Value::Real(40)}));
    PTLDB_CHECK_OK(db.InsertRow("stock", {Value::Str("HP"), Value::Real(20)}));
  }

  storage::CheckpointTargets Targets() {
    storage::CheckpointTargets t;
    t.db = &db;
    t.engine = &engine;
    t.clock = &clock;
    t.temporal = &temporal;
    return t;
  }
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port=N] [--port-file=PATH] [--dir=PATH]\n"
      "          [--fsync=none|async|sync|group] [--batch=N] [--delay-us=N]\n"
      "          [--queue=N] [--reject-when-full] [--checkpoint-every=N]\n"
      "          [--recover] [--trace] [--slow-us=N] [--slow-log=PATH]\n",
      argv0);
  return 1;
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

  storage::FsyncPolicy fsync = storage::FsyncPolicy::kGroup;
  std::string fsync_name = flag("fsync", "group");
  if (fsync_name == "none") {
    fsync = storage::FsyncPolicy::kNone;
  } else if (fsync_name == "async") {
    fsync = storage::FsyncPolicy::kAsync;
  } else if (fsync_name == "sync") {
    fsync = storage::FsyncPolicy::kSync;
  } else if (fsync_name != "group") {
    std::fprintf(stderr, "unknown --fsync=%s\n", fsync_name.c_str());
    return Usage(argv[0]);
  }

  World world;
  std::string dir = flag("dir", "");
  bool fresh = true;

  std::unique_ptr<storage::DurabilityManager> mgr;
  if (!dir.empty()) {
    if (flags.count("recover") != 0 &&
        std::filesystem::exists(std::filesystem::path(dir) / "CURRENT")) {
      auto report = storage::Recover(dir, world.Targets());
      if (!report.ok()) {
        std::fprintf(stderr, "recovery failed: %s\n",
                     report.status().ToString().c_str());
        return 2;
      }
      std::fprintf(stderr, "%s", report->ToString().c_str());
      if (!report->clean()) {
        std::fprintf(stderr, "RECOVERY NOT CLEAN\n");
        return 2;
      }
      std::printf("RECOVERED states_replayed=%llu firings=%llu\n",
                  static_cast<unsigned long long>(report->states_replayed),
                  static_cast<unsigned long long>(report->firings_replayed));
      fresh = false;
    }
    if (fresh) world.Seed();
    storage::DurabilityOptions opts;
    opts.dir = dir;
    opts.fsync = fsync;
    opts.checkpoint_every_n_states =
        std::strtoull(flag("checkpoint-every", "0").c_str(), nullptr, 10);
    auto attached = storage::DurabilityManager::Attach(opts, world.Targets());
    if (!attached.ok()) {
      std::fprintf(stderr, "durability attach failed: %s\n",
                   attached.status().ToString().c_str());
      return 1;
    }
    mgr = std::move(attached).value();
  } else {
    world.Seed();
  }

  Metrics metrics;
  world.engine.SetMetrics(&metrics);
  metrics.AddProvider(
      [&world](Metrics& m) { world.temporal.ExportTo(m); });

  // The recorder is always attached so TRACE_CTL can enable recording on a
  // live server; --trace starts it enabled. Attached-but-disabled costs one
  // relaxed load per dispatch.
  trace::Recorder recorder;
  world.engine.SetTrace(&recorder);
  if (flags.count("trace") != 0) recorder.Enable();

  server::ServerOptions opts;
  opts.port = static_cast<uint16_t>(std::atoi(flag("port", "0").c_str()));
  opts.max_batch =
      static_cast<size_t>(std::strtoull(flag("batch", "64").c_str(), nullptr, 10));
  opts.batch_delay_us = std::atoll(flag("delay-us", "200").c_str());
  opts.queue_capacity = static_cast<size_t>(
      std::strtoull(flag("queue", "1024").c_str(), nullptr, 10));
  opts.reject_when_full = flags.count("reject-when-full") != 0;
  opts.metrics = &metrics;
  opts.trace = &recorder;
  opts.slow_threshold_us = std::atoll(flag("slow-us", "0").c_str());
  opts.slow_log_path = flag("slow-log", "");

  server::Server srv(opts, &world.db, &world.engine, mgr.get());
  Status s = srv.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("LISTENING %u\n", srv.port());
  std::fflush(stdout);
  std::string port_file = flag("port-file", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << srv.port() << "\n";
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  srv.Stop();
  world.engine.SetMetrics(nullptr);
  world.engine.SetTrace(nullptr);
  std::printf("STOPPED\n");
  return 0;
}

}  // namespace ptldb

int main(int argc, char** argv) { return ptldb::Main(argc, argv); }

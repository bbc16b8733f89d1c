// Serving-path observability battery (DESIGN.md §15): the per-stage
// wire-to-ack latency decomposition must tile exactly, the slow-event log
// must be parseable JSONL whose stage breakdown sums to the total, and the
// admin introspection surface (STATS, STATS_DELTA, TRACE_DUMP, TRACE_CTL)
// must work over the wire — including graceful degradation on a server that
// runs without a metrics registry or trace recorder.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "db/database.h"
#include "rules/engine.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/durability.h"
#include "testutil.h"

namespace ptldb::server {
namespace {

namespace fs = std::filesystem;

// A small world with one rule so batches exercise the evaluation stage.
struct ObsWorld {
  SimClock clock{0};
  db::Database db{&clock};
  rules::RuleEngine engine{&db};

  ObsWorld() {
    PTLDB_CHECK_OK(db.CreateTable(
        "ticks",
        db::Schema({{"seq", ValueType::kInt64}, {"price", ValueType::kDouble}}),
        {"seq"}));
    PTLDB_CHECK_OK(engine.queries().Register(
        "last_price", "SELECT price FROM ticks WHERE seq = $s", {"s"}));
    auto noop = [](rules::ActionContext&) -> Status { return Status::OK(); };
    PTLDB_CHECK_OK(engine.AddTrigger("spike", "last_price(0) > 1000", noop));
  }
};

Request InsertTick(int seq) {
  Request req;
  req.type = MsgType::kInsert;
  req.table = "ticks";
  req.row = {Value::Int(seq), Value::Real(10.0 + seq % 7)};
  return req;
}

uint64_t HistSum(Metrics& m, const std::string& name) {
  return m.histogram(name).sum_ns();
}

uint64_t HistCount(Metrics& m, const std::string& name) {
  return m.histogram(name).count();
}

const char* const kStageHists[] = {
    "server.stage.read_ns",  "server.stage.queue_ns",
    "server.stage.batch_ns", "server.stage.apply_ns",
    "server.stage.eval_ns",  "server.stage.commit_ns",
    "server.stage.ack_ns",
};

TEST(ServerObservabilityTest, StageHistogramsTileWireToAckExactly) {
  ObsWorld world;
  Metrics metrics;
  ServerOptions opts;
  opts.max_batch = 8;
  opts.batch_delay_us = 100;
  opts.metrics = &metrics;
  Server srv(opts, &world.db, &world.engine, /*mgr=*/nullptr);
  ASSERT_OK(srv.Start());

  Client client;
  ASSERT_OK(client.Connect(srv.port()));
  constexpr int kEvents = 40;
  // Pipeline a burst so batches actually form (batch > 1).
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_OK(client.Send(InsertTick(i)).status());
  }
  for (int i = 0; i < kEvents; ++i) {
    auto resp = client.Receive();
    ASSERT_OK(resp.status());
    EXPECT_EQ(resp->code, StatusCode::kOk);
  }
  client.Close();
  srv.Stop();

  // Every acked request got exactly one observation in every stage histogram
  // and one in the total.
  const uint64_t acked = metrics.counter("server.acked").Get();
  ASSERT_GE(acked, static_cast<uint64_t>(kEvents));  // + the Hello
  EXPECT_EQ(HistCount(metrics, "server.wire_to_ack_ns"), acked);
  for (const char* name : kStageHists) {
    EXPECT_EQ(HistCount(metrics, name), acked) << name;
  }
  // The seven stages tile [t_read, t_ack] per event, so the stage sums add
  // up to the total sum *exactly* — no unmeasured gap, no double count.
  uint64_t stage_sum = 0;
  for (const char* name : kStageHists) stage_sum += HistSum(metrics, name);
  EXPECT_EQ(stage_sum, HistSum(metrics, "server.wire_to_ack_ns"));
  EXPECT_GT(stage_sum, 0u);
}

TEST(ServerObservabilityTest, SlowLogIsParseableJsonlAndStagesSumToTotal) {
  fs::path log_path =
      fs::path(::testing::TempDir()) / "ptldb_obs_slow_events.jsonl";
  fs::remove(log_path);

  ObsWorld world;
  ServerOptions opts;
  // A 1us threshold classifies everything as slow (queue + batch delay alone
  // dwarf it), so the log must carry one record per acked request. No
  // metrics registry: the slow threshold alone must switch stamping on.
  opts.slow_threshold_us = 1;
  opts.slow_log_path = log_path.string();
  Server srv(opts, &world.db, &world.engine, nullptr);
  ASSERT_OK(srv.Start());

  Client client;
  ASSERT_OK(client.Connect(srv.port()));
  constexpr int kEvents = 12;
  for (int i = 0; i < kEvents; ++i) {
    auto resp = client.Call(InsertTick(i));
    ASSERT_OK(resp.status());
    EXPECT_EQ(resp->code, StatusCode::kOk);
  }
  client.Close();
  srv.Stop();

  std::ifstream in(log_path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  int records = 0, inserts = 0;
  while (std::getline(in, line)) {
    ASSERT_OK_AND_ASSIGN(json::Json rec, json::Parse(line));
    ++records;
    ASSERT_OK_AND_ASSIGN(const json::Json* type, rec.Get("type"));
    if (type->AsString() == "insert") ++inserts;
    ASSERT_OK_AND_ASSIGN(const json::Json* total, rec.Get("total_ns"));
    ASSERT_OK_AND_ASSIGN(int64_t total_ns, total->AsInt64());
    ASSERT_OK_AND_ASSIGN(const json::Json* stages, rec.Get("stages"));
    int64_t stage_sum = 0;
    for (const char* stage :
         {"read", "queue", "batch", "apply", "eval", "commit", "ack"}) {
      ASSERT_OK_AND_ASSIGN(const json::Json* v, stages->Get(stage));
      ASSERT_OK_AND_ASSIGN(int64_t ns, v->AsInt64());
      EXPECT_GE(ns, 0) << stage;
      stage_sum += ns;
    }
    EXPECT_EQ(stage_sum, total_ns) << line;
    EXPECT_GE(total_ns, 1000);  // it was classified as slow
    ASSERT_OK_AND_ASSIGN(const json::Json* batch, rec.Get("batch"));
    ASSERT_OK_AND_ASSIGN(int64_t batch_size, batch->AsInt64());
    EXPECT_GE(batch_size, 1);
    EXPECT_TRUE(rec.Find("t_us") != nullptr);
    EXPECT_TRUE(rec.Find("session") != nullptr);
    EXPECT_TRUE(rec.Find("code") != nullptr);
  }
  EXPECT_EQ(inserts, kEvents);
  EXPECT_GE(records, kEvents);  // + the Hello handshake
  fs::remove(log_path);
}

TEST(ServerObservabilityTest, StatsServesBothExpositionFormats) {
  ObsWorld world;
  Metrics metrics;
  ServerOptions opts;
  opts.metrics = &metrics;
  Server srv(opts, &world.db, &world.engine, nullptr);
  ASSERT_OK(srv.Start());

  Client client;
  ASSERT_OK(client.Connect(srv.port()));
  ASSERT_OK(client.Call(InsertTick(1)).status());

  Request stats;
  stats.type = MsgType::kStats;
  stats.stats_format = StatsFormat::kJson;
  auto resp = client.Call(stats);
  ASSERT_OK(resp.status());
  ASSERT_EQ(resp->code, StatusCode::kOk);
  ASSERT_OK_AND_ASSIGN(json::Json doc, json::Parse(resp->text));
  const json::Json* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  const json::Json* requests = counters->Find("server.requests");
  ASSERT_NE(requests, nullptr);
  ASSERT_OK_AND_ASSIGN(int64_t n, requests->AsInt64());
  EXPECT_GE(n, 2);  // hello + insert at least
  EXPECT_NE(doc.Find("histograms"), nullptr);

  stats.stats_format = StatsFormat::kPrometheus;
  resp = client.Call(stats);
  ASSERT_OK(resp.status());
  ASSERT_EQ(resp->code, StatusCode::kOk);
  EXPECT_NE(resp->text.find("# TYPE ptldb_server_requests counter"),
            std::string::npos);
  EXPECT_NE(resp->text.find("ptldb_server_wire_to_ack_ns_bucket{le="),
            std::string::npos);
  client.Close();
  srv.Stop();
}

TEST(ServerObservabilityTest, StorageCountersPublishedUnderGroupCommit) {
  fs::path dir = fs::path(::testing::TempDir()) / "ptldb_obs_storage";
  fs::remove_all(dir);
  ObsWorld world;
  storage::DurabilityOptions dopts;
  dopts.dir = dir.string();
  dopts.fsync = storage::FsyncPolicy::kGroup;
  ASSERT_OK_AND_ASSIGN(
      auto mgr,
      storage::DurabilityManager::Attach(
          dopts,
          {.db = &world.db, .engine = &world.engine, .clock = &world.clock}));
  Metrics metrics;
  ServerOptions opts;
  opts.metrics = &metrics;
  Server srv(opts, &world.db, &world.engine, mgr.get());
  ASSERT_OK(srv.Start());

  Client client;
  ASSERT_OK(client.Connect(srv.port()));
  for (int i = 0; i < 5; ++i) {
    auto resp = client.Call(InsertTick(i));
    ASSERT_OK(resp.status());
    EXPECT_EQ(resp->code, StatusCode::kOk);
  }
  Request stats;
  stats.type = MsgType::kStats;
  auto resp = client.Call(stats);
  ASSERT_OK(resp.status());
  ASSERT_EQ(resp->code, StatusCode::kOk);
  ASSERT_OK_AND_ASSIGN(json::Json doc, json::Parse(resp->text));
  // Every row appears, in the section its kind names; the rows this
  // workload drives (state records, group-commit fsyncs) are nonzero.
  auto value = [&doc](const char* name, StatKind kind) -> int64_t {
    const json::Json* section =
        doc.Find(kind == StatKind::kGauge ? "gauges" : "counters");
    const json::Json* v = section != nullptr ? section->Find(name) : nullptr;
    if (v == nullptr) {
      ADD_FAILURE() << name << " missing from\n" << doc.Dump();
      return -1;
    }
    return v->AsInt64().value();
  };
  for (const auto& row : storage::kWalStatRows) value(row.name, row.kind);
  for (const auto& row : storage::kGroupCommitStatRows) {
    value(row.name, row.kind);
  }
  for (const char* name : {"wal.records_appended", "wal.bytes_appended",
                           "wal.syncs", "wal.state_records", "group.appends",
                           "group.sync_batches", "group.commits_acked"}) {
    EXPECT_GT(value(name, StatKind::kCounter), 0) << name;
  }
  EXPECT_GE(value("group.max_batch", StatKind::kGauge), 1);
  client.Close();
  srv.Stop();

  // Stop published the final totals before removing the provider.
  EXPECT_EQ(metrics.counter("wal.bytes_appended").Get(),
            mgr->wal_stats().bytes_appended);
  EXPECT_EQ(metrics.counter("group.sync_batches").Get(),
            mgr->group()->stats().sync_batches);
  mgr.reset();
  fs::remove_all(dir);
}

TEST(ServerObservabilityTest, StatsDeltaWindowsArePerSession) {
  ObsWorld world;
  Metrics metrics;
  ServerOptions opts;
  opts.metrics = &metrics;
  Server srv(opts, &world.db, &world.engine, nullptr);
  ASSERT_OK(srv.Start());

  auto poll = [](Client& c) -> std::pair<int64_t, json::Json> {
    Request req;
    req.type = MsgType::kStatsDelta;
    auto resp = c.Call(std::move(req));
    PTLDB_CHECK_OK(resp.status());
    PTLDB_CHECK(resp->code == StatusCode::kOk);
    auto doc = json::Parse(resp->text);
    PTLDB_CHECK_OK(doc.status());
    auto window = doc->Get("window_ns").value()->AsInt64();
    PTLDB_CHECK_OK(window.status());
    const json::Json* stats = doc->Find("stats");
    PTLDB_CHECK(stats != nullptr);
    return {window.value(), *stats};
  };
  auto acked_in = [](const json::Json& stats) -> int64_t {
    const json::Json* counters = stats.Find("counters");
    if (counters == nullptr) return -1;
    const json::Json* acked = counters->Find("server.acked");
    if (acked == nullptr) return -1;
    return acked->AsInt64().value();
  };

  Client a;
  ASSERT_OK(a.Connect(srv.port()));
  // First poll on a session: full snapshot, window = uptime so far.
  auto [w1, s1] = poll(a);
  EXPECT_GT(w1, 0);
  int64_t base = acked_in(s1);
  ASSERT_GE(base, 1);  // at least the hello

  constexpr int kEvents = 10;
  for (int i = 0; i < kEvents; ++i) ASSERT_OK(a.Call(InsertTick(i)).status());

  // Second poll: the delta window covers the inserts plus the acks of the
  // admin requests themselves (each stats ack lands after its snapshot).
  auto [w2, s2] = poll(a);
  EXPECT_GT(w2, 0);
  int64_t delta = acked_in(s2);
  EXPECT_GE(delta, kEvents);
  EXPECT_LE(delta, kEvents + 2);

  // A second session has its own cursor: its first poll is a full snapshot
  // again, seeing everything both sessions did.
  Client b;
  ASSERT_OK(b.Connect(srv.port()));
  auto [wb, sb] = poll(b);
  EXPECT_GT(wb, 0);
  EXPECT_GE(acked_in(sb), base + kEvents);

  a.Close();
  b.Close();
  srv.Stop();
}

TEST(ServerObservabilityTest, TraceCtlAndDumpOverTheWire) {
  ObsWorld world;
  trace::Recorder recorder;  // attached but disabled, like ptldb-server
  ServerOptions opts;
  opts.trace = &recorder;
  Server srv(opts, &world.db, &world.engine, nullptr);
  ASSERT_OK(srv.Start());

  Client client;
  ASSERT_OK(client.Connect(srv.port()));

  auto ctl = [&client](TraceOp op) -> json::Json {
    Request req;
    req.type = MsgType::kTraceCtl;
    req.trace_op = op;
    auto resp = client.Call(std::move(req));
    PTLDB_CHECK_OK(resp.status());
    PTLDB_CHECK(resp->code == StatusCode::kOk);
    auto doc = json::Parse(resp->text);
    PTLDB_CHECK_OK(doc.status());
    return doc.value();
  };

  EXPECT_FALSE(ctl(TraceOp::kStatus).Get("enabled").value()->AsBool());
  EXPECT_TRUE(ctl(TraceOp::kEnable).Get("enabled").value()->AsBool());
  for (int i = 0; i < 20; ++i) ASSERT_OK(client.Call(InsertTick(i)).status());

  json::Json status = ctl(TraceOp::kStatus);
  ASSERT_OK_AND_ASSIGN(int64_t spans_before,
                       status.Get("spans").value()->AsInt64());
  EXPECT_GT(spans_before, 0);

  // JSONL dump: first line is the recorder header.
  Request dump;
  dump.type = MsgType::kTraceDump;
  dump.trace_format = TraceFormat::kJsonl;
  auto resp = client.Call(dump);
  ASSERT_OK(resp.status());
  ASSERT_EQ(resp->code, StatusCode::kOk);
  std::istringstream lines(resp->text);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_OK(json::Parse(header).status());

  // Chrome dump with clear: valid JSON containing the server batch spans,
  // then the ring starts over.
  dump.trace_format = TraceFormat::kChrome;
  dump.trace_clear = true;
  resp = client.Call(dump);
  ASSERT_OK(resp.status());
  ASSERT_EQ(resp->code, StatusCode::kOk);
  ASSERT_OK_AND_ASSIGN(json::Json chrome, json::Parse(resp->text));
  const json::Json* events = chrome.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_server_batch = false;
  for (const json::Json& ev : events->items()) {
    const json::Json* name = ev.Find("name");
    if (name != nullptr && name->AsString() == "server_batch") {
      saw_server_batch = true;
    }
  }
  EXPECT_TRUE(saw_server_batch);

  json::Json after = ctl(TraceOp::kStatus);
  ASSERT_OK_AND_ASSIGN(int64_t spans_after,
                       after.Get("spans").value()->AsInt64());
  EXPECT_LT(spans_after, spans_before);  // the clear took

  EXPECT_FALSE(ctl(TraceOp::kDisable).Get("enabled").value()->AsBool());
  client.Close();
  srv.Stop();
}

TEST(ServerObservabilityTest, AdminSurfaceDegradesWithoutRegistryOrRecorder) {
  ObsWorld world;
  ServerOptions opts;  // no metrics, no trace, no slow threshold
  Server srv(opts, &world.db, &world.engine, nullptr);
  ASSERT_OK(srv.Start());

  Client client;
  ASSERT_OK(client.Connect(srv.port()));

  Request stats;
  stats.type = MsgType::kStats;
  auto resp = client.Call(stats);
  ASSERT_OK(resp.status());
  EXPECT_EQ(resp->code, StatusCode::kOk);
  EXPECT_EQ(resp->text, "{}");
  stats.stats_format = StatsFormat::kPrometheus;
  resp = client.Call(stats);
  ASSERT_OK(resp.status());
  EXPECT_EQ(resp->code, StatusCode::kOk);
  EXPECT_EQ(resp->text, "");

  Request delta;
  delta.type = MsgType::kStatsDelta;
  resp = client.Call(delta);
  ASSERT_OK(resp.status());
  ASSERT_EQ(resp->code, StatusCode::kOk);
  ASSERT_OK_AND_ASSIGN(json::Json doc, json::Parse(resp->text));
  ASSERT_OK_AND_ASSIGN(int64_t window,
                       doc.Get("window_ns").value()->AsInt64());
  EXPECT_EQ(window, 0);

  // Trace requests against a recorder-less server are errors, not crashes —
  // and the session survives them.
  Request dump;
  dump.type = MsgType::kTraceDump;
  resp = client.Call(dump);
  ASSERT_OK(resp.status());
  EXPECT_EQ(resp->code, StatusCode::kInvalidArgument);
  Request tctl;
  tctl.type = MsgType::kTraceCtl;
  resp = client.Call(tctl);
  ASSERT_OK(resp.status());
  EXPECT_EQ(resp->code, StatusCode::kInvalidArgument);

  resp = client.Call(InsertTick(1));
  ASSERT_OK(resp.status());
  EXPECT_EQ(resp->code, StatusCode::kOk);
  client.Close();
  srv.Stop();
}

TEST(ServerObservabilityTest, MissingSlowLogDirectoryFailsStartCleanly) {
  ObsWorld world;
  ServerOptions opts;
  opts.slow_threshold_us = 100;
  opts.slow_log_path = (fs::path(::testing::TempDir()) / "no_such_dir" /
                        "slow.jsonl").string();
  Server srv(opts, &world.db, &world.engine, nullptr);
  Status s = srv.Start();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // A failed Start leaves the server restartable with a fixed config.
  srv.Stop();
}

}  // namespace
}  // namespace ptldb::server

// Soak battery for the ingestion server: many concurrent sessions with deep
// pipelining against a durable (group-commit) store, abrupt mid-stream
// disconnects, admission-control overload, and a simulated crash. The
// contract under test is ack semantics end to end:
//
//   * every ACKED insert survives crash recovery exactly once (the pk makes
//     duplicates a hard failure, recovery makes loss one);
//   * every REJECTED (kUnavailable) insert was never admitted and is absent;
//   * sessions that vanish mid-stream cost nothing but their own unacked
//     tail — the server stays healthy and its gauges return to zero.
//
// CI runs this binary under ThreadSanitizer as well (see the tsan job): the
// reader threads, engine thread, and group-commit waiters form the most
// concurrent path in the system.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "db/database.h"
#include "rules/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/durability.h"
#include "storage/recovery.h"
#include "temporal/versioning.h"
#include "testutil.h"

namespace ptldb::server {
namespace {

namespace fs = std::filesystem;

// The durable world: an append-only `ticks` table keyed by (client, seq) —
// each acked row is auditable — plus a `stock` table with a temporal rule
// and an IC so the mixed load exercises the rule engine, and firings land in
// the WAL.
struct SoakWorld {
  SimClock clock{0};
  db::Database db{&clock};
  rules::RuleEngine engine{&db};

  SoakWorld() {
    PTLDB_CHECK_OK(db.CreateTable(
        "ticks",
        db::Schema({{"client", ValueType::kInt64},
                    {"seq", ValueType::kInt64},
                    {"price", ValueType::kDouble}}),
        {"client", "seq"}));
    PTLDB_CHECK_OK(db.CreateTable(
        "stock",
        db::Schema({{"name", ValueType::kString},
                    {"price", ValueType::kDouble}}),
        {"name"}));
    PTLDB_CHECK_OK(engine.queries().Register(
        "price", "SELECT price FROM stock WHERE name = $sym", {"sym"}));
    auto noop = [](rules::ActionContext&) -> Status { return Status::OK(); };
    PTLDB_CHECK_OK(engine.AddTrigger(
        "window", "WITHIN(price('HP') > 30, 25)", noop));
    PTLDB_CHECK_OK(
        engine.AddIntegrityConstraint("cap", "price('IBM') <= 100"));
  }

  void Seed() {
    PTLDB_CHECK_OK(db.InsertRow("stock", {Value::Str("IBM"), Value::Real(40)}));
    PTLDB_CHECK_OK(db.InsertRow("stock", {Value::Str("HP"), Value::Real(20)}));
  }

  storage::CheckpointTargets Targets() {
    storage::CheckpointTargets t;
    t.db = &db;
    t.engine = &engine;
    t.clock = &clock;
    return t;
  }
};

Request InsertTick(int client, int seq) {
  Request req;
  req.type = MsgType::kInsert;
  req.table = "ticks";
  req.row = {Value::Int(client), Value::Int(seq),
             Value::Real(10.0 + (client * 131 + seq) % 50)};
  return req;
}

// One pipelined session: inserts `count` unique ticks starting at
// `first_seq`, keeping up to `depth` in flight, recording which seqs were
// acked. If `abandon_after >= 0` the session abruptly closes its socket once
// that many responses have been read — a mid-stream disconnect with
// requests still in flight.
struct SessionLog {
  std::set<int> acked;
  std::set<int> rejected;  // kUnavailable (admission control)
  std::vector<std::string> errors;
};

void RunInsertSession(uint16_t port, int client_id, int first_seq, int count,
                      int depth, int abandon_after, SessionLog* out) {
  Client client;
  Status s = client.Connect(port);
  if (!s.ok()) {
    out->errors.push_back(s.ToString());
    return;
  }
  std::map<uint32_t, int> in_flight;  // tag -> seq
  int sent = 0, received = 0;
  while (sent < count || !in_flight.empty()) {
    if (abandon_after >= 0 && received >= abandon_after) {
      client.Close();  // vanish with in_flight requests unacknowledged
      return;
    }
    if (sent < count && in_flight.size() < static_cast<size_t>(depth)) {
      int seq = first_seq + sent;
      auto tag = client.Send(InsertTick(client_id, seq));
      if (!tag.ok()) {
        out->errors.push_back(tag.status().ToString());
        return;
      }
      in_flight[tag.value()] = seq;
      ++sent;
      continue;
    }
    auto resp = client.Receive();
    if (!resp.ok()) {
      out->errors.push_back(resp.status().ToString());
      return;
    }
    ++received;
    auto it = in_flight.find(resp->tag);
    if (it == in_flight.end()) {
      out->errors.push_back(StrCat("unmatched tag ", resp->tag));
      return;
    }
    if (resp->code == StatusCode::kOk) {
      out->acked.insert(it->second);
    } else if (resp->code == StatusCode::kUnavailable) {
      out->rejected.insert(it->second);
    } else {
      out->errors.push_back(StrCat("seq ", it->second, ": ", resp->message));
    }
    in_flight.erase(it);
  }
  client.Close();
}

// Background stir: stock updates and user events riding along with the
// inserts so rule evaluation and the IC run concurrently with ingest.
void RunMixedSession(uint16_t port, int rounds, SessionLog* out) {
  Client client;
  Status s = client.Connect(port);
  if (!s.ok()) {
    out->errors.push_back(s.ToString());
    return;
  }
  for (int i = 0; i < rounds; ++i) {
    Request req;
    if (i % 3 == 0) {
      req.type = MsgType::kUpdate;
      req.table = "stock";
      req.set = {{"price", "$p"}};
      req.where = "name = $n";
      req.params = {{"p", Value::Real(15 + (i * 7) % 40)},
                    {"n", Value::Str(i % 2 == 0 ? "HP" : "IBM")}};
    } else if (i % 3 == 1) {
      req.type = MsgType::kRaiseEvent;
      req.event_name = "tick";
      req.event_params = {Value::Int(i)};
    } else {
      req.type = MsgType::kQuery;
      req.sql = "SELECT price FROM stock WHERE name = 'HP'";
    }
    auto resp = client.Call(std::move(req));
    if (!resp.ok()) {
      out->errors.push_back(resp.status().ToString());
      return;
    }
  }
  client.Close();
}

class ServerSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           StrCat("ptldb_soak_",
                  ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Asserts the (client, seq) tick is present exactly once.
  static void ExpectTickOnce(db::Database* db, int client, int seq) {
    db::ParamMap params{{"c", Value::Int(client)}, {"s", Value::Int(seq)}};
    auto r = db->QuerySql("SELECT price FROM ticks WHERE client = $c AND seq = $s",
                          &params);
    ASSERT_OK(r.status());
    ASSERT_EQ(r->size(), 1u) << "client " << client << " seq " << seq;
  }

  fs::path dir_;
};

TEST_F(ServerSoakTest, ConcurrentSessionsDisconnectsAndCrashRecovery) {
  constexpr int kClients = 6;
  constexpr int kEvents = 120;

  SoakWorld world;
  world.Seed();
  storage::DurabilityOptions dopts;
  dopts.dir = dir_.string();
  dopts.fsync = storage::FsyncPolicy::kGroup;
  auto mgr = storage::DurabilityManager::Attach(dopts, world.Targets());
  ASSERT_OK(mgr.status());

  Metrics metrics;
  ServerOptions opts;
  opts.max_batch = 32;
  opts.batch_delay_us = 200;
  opts.queue_capacity = 64;
  opts.metrics = &metrics;
  Server srv(opts, &world.db, &world.engine, mgr->get());
  ASSERT_OK(srv.Start());

  // ---- Phase 1: concurrent ingest, two sessions vanish mid-stream ----
  std::vector<SessionLog> logs(kClients + 1);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      // Clients 4 and 5 abandon their connection after ~a third of their
      // acks; everyone else runs to completion.
      int abandon = c >= 4 ? kEvents / 3 : -1;
      threads.emplace_back(RunInsertSession, srv.port(), c, /*first_seq=*/0,
                           kEvents, /*depth=*/8, abandon, &logs[c]);
    }
    threads.emplace_back(RunMixedSession, srv.port(), 90, &logs[kClients]);
    for (auto& t : threads) t.join();
  }
  for (int c = 0; c <= kClients; ++c) {
    EXPECT_TRUE(logs[c].errors.empty())
        << "client " << c << ": " << logs[c].errors.front();
  }
  // Completed sessions got every event acked (blocking admission: no
  // rejections); the abandoners acked at least their pre-disconnect third.
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(logs[c].acked.size(), static_cast<size_t>(kEvents)) << c;
  }
  for (int c = 4; c < kClients; ++c) {
    EXPECT_GE(logs[c].acked.size(), static_cast<size_t>(kEvents / 3)) << c;
  }

  // Durability barrier, then snapshot the directory: byte-for-byte this is
  // what a kill -9 right now would leave behind.
  {
    Client barrier;
    ASSERT_OK(barrier.Connect(srv.port()));
    Request flush;
    flush.type = MsgType::kFlush;
    auto resp = barrier.Call(std::move(flush));
    ASSERT_OK(resp.status());
    ASSERT_EQ(resp->code, StatusCode::kOk);
    barrier.Close();
  }
  fs::path crash_image = dir_.parent_path() / (dir_.filename().string() + ".crash");
  fs::remove_all(crash_image);
  fs::copy(dir_, crash_image, fs::copy_options::recursive);

  // ---- Phase 2: the server keeps serving after the snapshot ----
  std::vector<SessionLog> logs2(3);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < 3; ++c) {
      threads.emplace_back(RunInsertSession, srv.port(), c,
                           /*first_seq=*/1000, 60, /*depth=*/8,
                           /*abandon_after=*/-1, &logs2[c]);
    }
    for (auto& t : threads) t.join();
  }
  for (auto& log : logs2) {
    EXPECT_TRUE(log.errors.empty()) << log.errors.front();
    EXPECT_EQ(log.acked.size(), 60u);
  }

  srv.Stop();
  // Gauges are bounded and return to rest: no leaked sessions, empty queue.
  EXPECT_EQ(metrics.gauge("server.sessions_active").Get(), 0);
  EXPECT_EQ(metrics.gauge("server.queue_depth").Get(), 0);
  EXPECT_GT(metrics.counter("server.requests").Get(), 0u);
  mgr->reset();  // release the WAL before reading the live directory

  // ---- Recover the crash image: phase-1 acks survive exactly once ----
  {
    SoakWorld twin;
    auto report = storage::Recover(crash_image.string(), twin.Targets());
    ASSERT_OK(report.status());
    EXPECT_TRUE(report->clean()) << report->ToString();
    for (int c = 0; c < kClients; ++c) {
      for (int seq : logs[c].acked) ExpectTickOnce(&twin.db, c, seq);
    }
  }

  // ---- Recover the live directory: phase 1 + phase 2 acks all present ----
  {
    SoakWorld twin;
    auto report = storage::Recover(dir_.string(), twin.Targets());
    ASSERT_OK(report.status());
    EXPECT_TRUE(report->clean()) << report->ToString();
    for (int c = 0; c < kClients; ++c) {
      for (int seq : logs[c].acked) ExpectTickOnce(&twin.db, c, seq);
    }
    for (int c = 0; c < 3; ++c) {
      for (int seq : logs2[c].acked) ExpectTickOnce(&twin.db, c, seq);
    }
  }
  fs::remove_all(crash_image);
}

// Admission control: with reject_when_full, a burst deeper than the queue
// draws kUnavailable for the overflow — and a rejected insert was never
// admitted, so afterwards acked ⇔ present, rejected ⇔ absent, per seq.
TEST_F(ServerSoakTest, RejectWhenFullShedsLoadWithoutCorruption) {
  SoakWorld world;
  world.Seed();

  Metrics metrics;
  ServerOptions opts;
  opts.max_batch = 4;
  opts.batch_delay_us = 2000;  // slow the drain so the burst can pile up
  opts.queue_capacity = 4;
  opts.reject_when_full = true;
  opts.metrics = &metrics;
  Server srv(opts, &world.db, &world.engine, /*mgr=*/nullptr);
  ASSERT_OK(srv.Start());

  constexpr int kClients = 4;
  constexpr int kEvents = 200;
  std::vector<SessionLog> logs(kClients);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(RunInsertSession, srv.port(), c, /*first_seq=*/0,
                           kEvents, /*depth=*/32, /*abandon_after=*/-1,
                           &logs[c]);
    }
    for (auto& t : threads) t.join();
  }
  srv.Stop();

  uint64_t acked = 0, rejected = 0;
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(logs[c].errors.empty())
        << "client " << c << ": " << logs[c].errors.front();
    // Every request got exactly one verdict.
    EXPECT_EQ(logs[c].acked.size() + logs[c].rejected.size(),
              static_cast<size_t>(kEvents));
    acked += logs[c].acked.size();
    rejected += logs[c].rejected.size();
    for (int seq : logs[c].acked) ExpectTickOnce(&world.db, c, seq);
    for (int seq : logs[c].rejected) {
      db::ParamMap params{{"c", Value::Int(c)}, {"s", Value::Int(seq)}};
      auto r = world.db.QuerySql(
          "SELECT price FROM ticks WHERE client = $c AND seq = $s", &params);
      ASSERT_OK(r.status());
      EXPECT_EQ(r->size(), 0u) << "rejected seq " << seq << " was applied";
    }
  }
  EXPECT_GT(acked, 0u);
  EXPECT_EQ(metrics.counter("server.busy_rejections").Get(), rejected);
  EXPECT_EQ(srv.busy_rejections(), rejected);
}

// A QUERY_ASOF frame runs the same keyed archive read as the library call,
// and an unversioned table fails the same way over the wire.
TEST_F(ServerSoakTest, QueryAsOfFrameAnswersFromTheArchive) {
  SoakWorld world;
  temporal::VersionStore temporal(&world.db);
  ASSERT_OK(temporal.SetVersioned("stock"));
  world.Seed();
  const Timestamp seeded = world.db.history().last_time();
  world.clock.Advance(5);
  ASSERT_OK(world.db.UpdateRows("stock", {{"price", "55"}}, "name = 'IBM'")
                .status());

  Server srv(ServerOptions{}, &world.db, &world.engine, /*mgr=*/nullptr);
  ASSERT_OK(srv.Start());
  Client client;
  ASSERT_OK(client.Connect(srv.port()));
  auto asof = [&client](std::string sql, Timestamp t) {
    Request req;
    req.type = MsgType::kQueryAsOf;
    req.sql = std::move(sql);
    req.asof_time = t;
    req.params = {{"n", Value::Str("IBM")}};
    auto resp = client.Call(std::move(req));
    PTLDB_CHECK_OK(resp.status());
    return std::move(resp).value();
  };
  const std::string sql = "SELECT price FROM stock WHERE name = $n";
  Response old_price = asof(sql, seeded);
  Response unversioned = asof("SELECT seq FROM ticks WHERE client = 1", seeded);
  client.Close();
  srv.Stop();

  db::ParamMap params{{"n", Value::Str("IBM")}};
  ASSERT_OK_AND_ASSIGN(db::Relation want,
                       world.db.QuerySqlAsOf(sql, seeded, &params));
  EXPECT_EQ(old_price.code, StatusCode::kOk) << old_price.message;
  EXPECT_EQ(old_price.rows, 1);
  EXPECT_EQ(old_price.text, want.ToString());
  EXPECT_NE(old_price.text.find("40"), std::string::npos) << old_price.text;
  Status lib = world.db
                   .QuerySqlAsOf("SELECT seq FROM ticks WHERE client = 1",
                                 seeded)
                   .status();
  EXPECT_EQ(unversioned.code, lib.code());
  EXPECT_EQ(unversioned.message, lib.message());
}

// Observability under load: STATS_DELTA pollers run concurrently with
// pipelined ingest sessions — some of which vanish mid-stream — and one
// poller disconnects with a poll in flight. The admin path must never
// corrupt the serving path: every ingest session still gets one verdict per
// request, every poll response stays parseable with a positive window, and
// the server's gauges return to rest.
TEST_F(ServerSoakTest, StatsPollingRidesAlongsidePipelinedIngest) {
  SoakWorld world;
  world.Seed();

  Metrics metrics;
  ServerOptions opts;
  opts.max_batch = 16;
  opts.batch_delay_us = 200;
  opts.queue_capacity = 64;
  opts.metrics = &metrics;
  Server srv(opts, &world.db, &world.engine, /*mgr=*/nullptr);
  ASSERT_OK(srv.Start());

  constexpr int kClients = 4;
  constexpr int kEvents = 150;
  std::vector<SessionLog> logs(kClients);
  struct PollLog {
    int polls = 0;
    std::vector<std::string> errors;
  };
  std::vector<PollLog> poll_logs(3);

  // A poller issues repeated STATS_DELTA calls; `abandon_after >= 0` drops
  // the socket with that many polls done (and possibly one in flight).
  auto run_poller = [&srv](int rounds, int abandon_after, PollLog* out) {
    Client client;
    Status s = client.Connect(srv.port());
    if (!s.ok()) {
      out->errors.push_back(s.ToString());
      return;
    }
    for (int i = 0; i < rounds; ++i) {
      if (abandon_after >= 0 && out->polls >= abandon_after) {
        Request req;
        req.type = MsgType::kStatsDelta;
        (void)client.Send(std::move(req));  // leave the response in flight
        client.Close();
        return;
      }
      Request req;
      req.type = MsgType::kStatsDelta;
      auto resp = client.Call(std::move(req));
      if (!resp.ok()) {
        out->errors.push_back(resp.status().ToString());
        return;
      }
      if (resp->code != StatusCode::kOk) {
        out->errors.push_back(resp->message);
        return;
      }
      auto doc = json::Parse(resp->text);
      if (!doc.ok()) {
        out->errors.push_back(doc.status().ToString());
        return;
      }
      auto window = doc->Get("window_ns").value()->AsInt64();
      if (!window.ok() || window.value() <= 0) {
        out->errors.push_back(StrCat("bad window in ", resp->text));
        return;
      }
      ++out->polls;
    }
    client.Close();
  };

  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      // Client 3 abandons its connection a third of the way through.
      int abandon = c == 3 ? kEvents / 3 : -1;
      threads.emplace_back(RunInsertSession, srv.port(), c, /*first_seq=*/0,
                           kEvents, /*depth=*/8, abandon, &logs[c]);
    }
    threads.emplace_back(run_poller, 40, -1, &poll_logs[0]);
    threads.emplace_back(run_poller, 40, -1, &poll_logs[1]);
    threads.emplace_back(run_poller, 40, /*abandon_after=*/10, &poll_logs[2]);
    for (auto& t : threads) t.join();
  }

  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(logs[c].errors.empty())
        << "client " << c << ": " << logs[c].errors.front();
  }
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(logs[c].acked.size(), static_cast<size_t>(kEvents)) << c;
    for (int seq : logs[c].acked) ExpectTickOnce(&world.db, c, seq);
  }
  EXPECT_GE(logs[3].acked.size(), static_cast<size_t>(kEvents / 3));
  for (size_t p = 0; p < poll_logs.size(); ++p) {
    EXPECT_TRUE(poll_logs[p].errors.empty())
        << "poller " << p << ": " << poll_logs[p].errors.front();
  }
  EXPECT_EQ(poll_logs[0].polls, 40);
  EXPECT_EQ(poll_logs[1].polls, 40);
  EXPECT_EQ(poll_logs[2].polls, 10);

  srv.Stop();
  EXPECT_EQ(metrics.gauge("server.sessions_active").Get(), 0);
  EXPECT_EQ(metrics.gauge("server.queue_depth").Get(), 0);
  // Every stage observation matches an ack, polls included.
  EXPECT_EQ(metrics.histogram("server.wire_to_ack_ns").count(),
            metrics.counter("server.acked").Get());
}

// A session that sends garbage gets a protocol error and a closed
// connection; the server keeps serving everyone else.
TEST_F(ServerSoakTest, GarbageFrameClosesOnlyTheOffendingSession) {
  SoakWorld world;
  world.Seed();
  ServerOptions opts;
  Server srv(opts, &world.db, &world.engine, nullptr);
  ASSERT_OK(srv.Start());

  Client good;
  ASSERT_OK(good.Connect(srv.port()));

  {
    Client bad;
    ASSERT_OK(bad.Connect(srv.port()));
    // A frame whose payload is not a decodable request.
    ASSERT_OK(WriteFrame(bad.fd(), "\xff\xff not a request"));
    auto resp = bad.Receive();
    ASSERT_OK(resp.status());
    EXPECT_NE(resp->code, StatusCode::kOk);
    // The server hangs up after a protocol error.
    std::string dummy;
    EXPECT_EQ(ReadFrame(bad.fd(), &dummy).code(), StatusCode::kNotFound);
    bad.Close();
  }

  // The well-behaved session is unaffected.
  auto resp = good.Call(InsertTick(1, 1));
  ASSERT_OK(resp.status());
  EXPECT_EQ(resp->code, StatusCode::kOk);
  good.Close();
  srv.Stop();
  ExpectTickOnce(&world.db, 1, 1);
}

}  // namespace
}  // namespace ptldb::server

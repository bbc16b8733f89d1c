// Tests of the benchmark's own helpers: percentile selection, self-time
// attribution over nested spans, and forwarding through the proxies.

#include "harness.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/codec.h"
#include "storage/durability.h"
#include "temporal/versioning.h"

namespace ptldb::ptlbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Percentile(&v, 50), 50);
  EXPECT_EQ(Percentile(&v, 99), 99);
  EXPECT_EQ(Percentile(&v, 100), 100);
  EXPECT_EQ(Percentile(&v, 0.1), 1);
  std::vector<double> empty;
  EXPECT_EQ(Percentile(&empty, 50), 0);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(19), 0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50);
  EXPECT_EQ(HighestSupportedPercentile(99), 50);
  EXPECT_EQ(HighestSupportedPercentile(100), 90);
  EXPECT_EQ(HighestSupportedPercentile(999), 90);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(25000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100, 5), 90);
}

TEST(Percentile, GoodFifthOfReps) {
  std::vector<double> v = {9, 1, 8, 2, 7, 3, 6, 4, 5, 10, 11};
  EXPECT_EQ(GoodFifth(v, /*lower_is_better=*/true), 3);  // 2 of 11 beat it
  EXPECT_EQ(GoodFifth(v, /*lower_is_better=*/false), 9);
  EXPECT_EQ(GoodFifth({4, 2}, true), 2);
  EXPECT_EQ(GoodFifth({}, true), 0);
}

Span MakeSpan(Layer layer, int32_t parent, uint64_t start, uint64_t end,
              bool nested = false) {
  Span s;
  s.layer = layer;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.nested_in_same_layer = nested;
  return s;
}

// An operation whose state dispatch runs an action that appends an
// __executed state, dispatched (and logged) inside the outer dispatch.
TEST(SelfTime, NestedDispatchInsideOnStateAppended) {
  std::vector<Span> spans = {
      MakeSpan(kOp, -1, 0, 100),                 // 0
      MakeSpan(kWalState, 0, 2, 6),              // 1
      MakeSpan(kOnState, 0, 10, 80),             // 2
      MakeSpan(kWalState, 2, 30, 33),            // 3: nested state logged
      MakeSpan(kOnState, 2, 40, 70, true),       // 4: nested dispatch
      MakeSpan(kCommitProbe, 4, 45, 50),         // 5
  };
  std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self, (std::vector<uint64_t>{100 - 4 - 70, 4, 70 - 3 - 30, 3,
                                         30 - 5, 5}));
  LayerTimes lt = SumLayers(spans);
  EXPECT_EQ(lt.self_ns[kOnState], 37u + 25u);
  EXPECT_EQ(lt.inclusive_ns[kOnState], 70u);  // the nested span is inside
  EXPECT_EQ(lt.count[kOnState], 2u);
  EXPECT_EQ(lt.op_root_ns, 100u);
  EXPECT_EQ(lt.op_tree_self_ns, 100u);  // self times tile the operation
}

TEST(SelfTime, OverlappingAndOverhangingChildrenCountOnce) {
  std::vector<Span> spans = {
      MakeSpan(kOnState, -1, 100, 200),
      MakeSpan(kWalState, 0, 90, 120),   // clipped to [100, 120)
      MakeSpan(kArchive, 0, 110, 150),   // overlaps the first: [100, 150)
      MakeSpan(kWalFiring, 0, 190, 260), // clipped to [190, 200)
  };
  EXPECT_EQ(SelfTimes(spans)[0], 100u - 50u - 10u);
  LayerTimes lt = SumLayers(spans);
  EXPECT_EQ(lt.op_root_ns, 0u);  // no operation span at the root
}

// The benchmark's rule set in miniature: a stock table versioned, a cap IC,
// a trigger, and an event rule that records its executions.
struct MiniWorld {
  explicit MiniWorld(Tracer* tracer)
      : listener(&engine, tracer), temporal_proxy(&temporal, tracer) {
    if (tracer != nullptr) {
      db.SetListener(&listener);
      db.SetTemporalSink(&temporal_proxy);
    }
    EXPECT_TRUE(db.CreateTable("stock",
                               db::Schema({{"name", ValueType::kString},
                                           {"price", ValueType::kDouble}}),
                               {"name"})
                    .ok());
    EXPECT_TRUE(engine.queries()
                    .Register("price",
                              "SELECT price FROM stock WHERE name = $sym",
                              {"sym"})
                    .ok());
    auto noop = [](rules::ActionContext&) { return Status::OK(); };
    EXPECT_TRUE(engine.AddIntegrityConstraint("cap", "price('IBM') <= 100").ok());
    rules::RuleOptions quiet;
    quiet.record_execution = false;
    EXPECT_TRUE(engine.AddTrigger("high", "price('IBM') > 50", noop, quiet).ok());
    EXPECT_TRUE(engine.AddTrigger("on_alert", "@alert", noop).ok());
    EXPECT_TRUE(temporal.SetVersioned("stock").ok());
    EXPECT_TRUE(
        db.InsertRow("stock", {Value::Str("IBM"), Value::Real(40)}).ok());
  }

  Status Attach(const std::string& dir, Tracer* tracer) {
    storage::DurabilityOptions opts;
    opts.dir = dir;
    opts.fsync = storage::FsyncPolicy::kNone;
    storage::CheckpointTargets t;
    t.db = &db;
    t.engine = &engine;
    t.clock = &clock;
    t.temporal = &temporal;
    auto m = storage::DurabilityManager::Attach(opts, t);
    if (!m.ok()) return m.status();
    mgr = std::move(m).value();
    if (tracer != nullptr) {
      wal = std::make_unique<WalSinkProxy>(mgr.get(), tracer);
      db.SetWalSink(wal.get());
    }
    firing = std::make_unique<FiringObserverProxy>(mgr.get(), tracer);
    engine.SetFiringObserver(firing.get());
    return Status::OK();
  }

  ~MiniWorld() {
    db.SetWalSink(nullptr);
    engine.SetFiringObserver(nullptr);
  }

  /// Updates, a veto, an event and AS OF reads; returns the AS OF prices.
  std::vector<double> Drive() {
    std::vector<double> seen;
    for (double p : {60.0, 120.0, 45.0, 70.0}) {
      db::ParamMap params{{"p", Value::Real(p)}};
      auto n = db.UpdateRows("stock", {{"price", "$p"}}, "name = 'IBM'", &params);
      EXPECT_EQ(n.ok(), p <= 100) << n.status().ToString();
      times.push_back(db.history().last_time());
    }
    EXPECT_TRUE(db.RaiseEvent(event::Event{"alert", {}}).ok());
    for (Timestamp t : times) {
      auto rel = db.QuerySqlAsOf("SELECT price FROM stock WHERE name = 'IBM'", t);
      EXPECT_TRUE(rel.ok()) << rel.status().ToString();
      if (rel.ok()) seen.push_back(rel->row(0)[0].AsDouble());
    }
    return seen;
  }

  std::string Contents() {
    std::string out;
    codec::Writer w(&out);
    EXPECT_TRUE(db.SerializeContents(&w).ok());
    return out;
  }

  SimClock clock{0};
  db::Database db{&clock};
  rules::RuleEngine engine{&db};
  temporal::VersionStore temporal{&db};
  ListenerProxy listener;
  TemporalSinkProxy temporal_proxy;
  std::unique_ptr<storage::DurabilityManager> mgr;
  std::unique_ptr<WalSinkProxy> wal;
  std::unique_ptr<FiringObserverProxy> firing;
  std::vector<Timestamp> times;
};

std::string TestDir(const std::string& name) {
  auto dir = std::filesystem::current_path() / ("ptlbench_test_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(Proxies, ForwardEverythingAndChangeNoOutput) {
  const std::string plain_dir = TestDir("plain");
  const std::string traced_dir = TestDir("traced");
  MiniWorld plain(nullptr);
  ASSERT_TRUE(plain.Attach(plain_dir, nullptr).ok());
  std::vector<double> plain_seen = plain.Drive();

  Tracer tracer;
  MiniWorld traced(&tracer);
  ASSERT_TRUE(traced.Attach(traced_dir, &tracer).ok());
  std::vector<double> traced_seen = traced.Drive();

  // Same reads (the veto left 60 in place), contents, firings and WAL.
  EXPECT_EQ(plain_seen, (std::vector<double>{60, 60, 45, 70}));
  EXPECT_EQ(traced_seen, plain_seen);
  EXPECT_EQ(traced.Contents(), plain.Contents());
  EXPECT_EQ(FiringDigest(traced.firing->log), FiringDigest(plain.firing->log));
  EXPECT_FALSE(traced.firing->log.empty());
  EXPECT_EQ(traced.firing->vetoes, 1u);
  EXPECT_EQ(plain.firing->vetoes, 1u);
  EXPECT_EQ(traced.mgr->wal_stats().bytes_appended,
            plain.mgr->wal_stats().bytes_appended);

  // Every seam saw traffic, and AS OF scans went through the temporal proxy.
  LayerTimes lt = SumLayers(tracer.spans());
  for (Layer l : {kOnState, kCommitProbe, kWalDelta, kWalState, kWalFiring,
                  kArchive, kTableAsOf}) {
    EXPECT_GT(lt.count[l], 0u) << LayerName(l);
  }
  EXPECT_EQ(traced.temporal_proxy.table_asof_calls, traced.times.size());
  EXPECT_GT(traced.listener.commit_attempts, 0u);
  EXPECT_EQ(traced.listener.states, traced.db.history().size());

  // on_alert's __executed insert is dispatched inside the alert's dispatch.
  bool nested = false;
  for (const Span& s : tracer.spans()) {
    nested = nested || (s.layer == kOnState && s.nested_in_same_layer);
  }
  EXPECT_TRUE(nested);

  std::filesystem::remove_all(plain_dir);
  std::filesystem::remove_all(traced_dir);
}

}  // namespace
}  // namespace ptldb::ptlbench

// The arms of the differential harness (differential.h). Each test suite is
// one arm and one ctest entry (the recover arm's random world is a second):
//
//   Threads  — 2/4/8-thread sharded engines against the serial engine.
//   Batched  — §8 batched invocation (batch 3) at 2/8 threads against the
//              serial batched engine.
//   Served   — a loopback socket server at several batch configurations
//              against the unbatched library, on the analyzer-certified
//              population.
//   Naive    — Theorem 1: ptl::NaiveEvaluator over every appended state
//              of every eligible rule instance against the engine's firings.
//   Recover  — crash at every WAL record boundary (and torn offsets inside
//              the next record), then Recover into a freshly built world:
//              replay must reproduce every logged firing decision
//              (RecoveryReport::clean) and the live database bytes.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "differential.h"
#include "storage/durability.h"
#include "storage/recovery.h"
#include "storage/wal.h"

namespace ptldb::differential {
namespace {

namespace fs = std::filesystem;

constexpr WorldKind kWorlds[] = {WorldKind::kRandom, WorldKind::kStock};

std::string Label(const Scenario& sc) {
  return StrCat(sc.world == WorldKind::kStock ? "stock" : "random", " seed ",
                sc.seed);
}

TEST(Threads, TwoFourEightThreadsMatchSerial) {
  for (WorldKind world : kWorlds) {
    for (uint64_t seed = 1; seed <= 200; ++seed) {
      Scenario sc = MakeScenario(world, seed);
      Observed serial = RunLibrary(sc, /*threads=*/1, /*batch=*/1);
      for (size_t threads : {2, 4, 8}) {
        ASSERT_TRUE(Same(serial, RunLibrary(sc, threads, /*batch=*/1)))
            << Label(sc) << " threads " << threads;
      }
    }
  }
}

// A family with many instances must actually fan out over the pool (guards
// against the parallel path silently degrading to serial) and still match.
TEST(Threads, ManyInstancesEngageThePool) {
  auto run = [](size_t threads) {
    SimClock clock(0);
    db::Database db(&clock);
    rules::RuleEngine engine(&db);
    PTLDB_CHECK_OK(engine.SetThreads(threads));
    PTLDB_CHECK_OK(
        db.CreateTable("dom", db::Schema({{"p", ValueType::kInt64}})));
    PTLDB_CHECK_OK(
        engine.queries().Register("total", "SELECT SUM(p) FROM dom", {}));
    for (int i = 0; i < 128; ++i) {
      PTLDB_CHECK_OK(db.InsertRow("dom", {Value::Int(i)}));
    }
    PTLDB_CHECK_OK(engine.AddTriggerFamily(
        "fam", "SELECT p FROM dom", {"p"},
        "PREVIOUSLY (total() >= 2 * $p AND @bump)",
        [](rules::ActionContext&) -> Status { return Status::OK(); }));
    std::string log;
    for (int i = 0; i < 10; ++i) {
      clock.Advance(1);
      PTLDB_CHECK_OK(db.RaiseEvent(event::Event{"bump", {}}));
      log += RenderFirings(engine.TakeFirings());
    }
    return std::pair(log, engine.stats().parallel_dispatches);
  };
  auto [serial_log, serial_dispatches] = run(1);
  auto [sharded_log, sharded_dispatches] = run(4);
  EXPECT_EQ(serial_log, sharded_log);
  EXPECT_EQ(serial_dispatches, 0u);
  EXPECT_GT(sharded_dispatches, 0u);
}

// The deferred queue drains state by state; decisions still merge in queue
// order, whatever the thread count.
TEST(Batched, BatchedDispatchMatchesSerialBatched) {
  for (WorldKind world : kWorlds) {
    for (uint64_t seed = 1; seed <= 60; ++seed) {
      Scenario sc = MakeScenario(world, seed);
      Observed serial = RunLibrary(sc, /*threads=*/1, /*batch=*/3);
      for (size_t threads : {2, 8}) {
        ASSERT_TRUE(Same(serial, RunLibrary(sc, threads, /*batch=*/3)))
            << Label(sc) << " threads " << threads;
      }
    }
  }
}

// {1, 8, 64} pin the batch size; "latency-bound" leaves the size effectively
// unbounded and lets the delay close batches, the intended production
// configuration.
constexpr ServeConfig kServeConfigs[] = {
    {"batch=1", 1, 0},
    {"batch=8", 8, 0},
    {"batch=64", 64, 200},
    {"latency-bound", 1024, 2000},
};

// Which rules may run under batching at all is the analyzer's call: the
// certified population must give byte-identical observables at any batch
// boundary placement, so an over-eager certificate fails here.
TEST(Served, ServerMatchesLibraryAtEveryBatchSize) {
  size_t certified = 0;
  for (WorldKind world : kWorlds) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      Scenario sc = MakeScenario(world, seed, /*wire_only=*/true);
      World ref_world(sc, /*certify=*/true);
      Observed ref = RunLibrary(ref_world, sc, Drain::kAtEnd);
      if (world == WorldKind::kRandom) {
        certified += ref_world.certified_triggers;
      }
      for (const ServeConfig& cfg : kServeConfigs) {
        World w(sc, /*certify=*/true);
        ASSERT_TRUE(Same(ref, RunServed(w, sc, cfg)))
            << Label(sc) << " " << cfg.name;
      }
    }
  }
  // Guard against a vacuous pass: certification must let a meaningful
  // number of random triggers through to actually exercise batching.
  EXPECT_GE(certified, 8u);
}

// kTakeFirings serves exactly the firings so far, in order, and clears
// them: the probes after each wave partition the whole log.
TEST(Served, TakeFiringsServesAndClearsTheLog) {
  Scenario sc = MakeScenario(WorldKind::kRandom, 3, /*wire_only=*/true);
  World ref_world(sc, /*certify=*/true);
  Observed ref = RunLibrary(ref_world, sc, Drain::kAtEnd);
  World w(sc, /*certify=*/true);
  EXPECT_TRUE(Same(ref, RunServed(w, sc, {"batch=16", 16, 200},
                                  /*take_each_wave=*/true)));
}

// Theorem 1 as an oracle: the naive evaluator, fed every appended state,
// fires exactly where the incremental engine fired.
TEST(Naive, NaiveEvaluatorAgreesWithEngineFirings) {
  for (WorldKind world : kWorlds) {
    size_t checked = 0;
    std::map<std::string, size_t> skipped;
    for (uint64_t seed = 1; seed <= 200; ++seed) {
      Scenario sc = MakeScenario(world, seed);
      NaiveResult r = RunNaive(sc);
      EXPECT_EQ(r.diff, "") << Label(sc);
      checked += r.checked;
      for (const auto& [reason, n] : r.skipped) skipped[reason] += n;
    }
    std::printf("naive arm, %s world: %zu rule(s) checked\n",
                world == WorldKind::kStock ? "stock" : "random", checked);
    for (const auto& [reason, n] : skipped) {
      std::printf("  skipped %zu: %s\n", n, reason.c_str());
    }
    EXPECT_GT(checked, 0u) << "no rule was checked";
  }
}

// Offsets at which a truncation leaves a whole number of records.
std::vector<size_t> RecordBoundaries(const std::string& image) {
  std::vector<size_t> cuts;
  auto reader = storage::WalReader::Open(image);
  PTLDB_CHECK_OK(reader.status());
  cuts.push_back(storage::kWalMagicLen);
  while (true) {
    auto rec = reader->Next();
    PTLDB_CHECK_OK(rec.status());
    if (!rec->has_value()) break;
    cuts.push_back(reader->valid_prefix_bytes());
  }
  return cuts;
}

// Failures are collected in recovery_failure.log next to the preserved
// durability directories (the CI crash-recovery job uploads it).
class Recover : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    base_ = fs::path(::testing::TempDir()) /
            StrCat("ptldb_differential_", info->name());
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override {
    if (!HasFailure()) fs::remove_all(base_);
  }

  void Fail(const std::string& text) {
    const fs::path log = base_ / "recovery_failure.log";
    std::ofstream(log, std::ios::app) << text << "\n";
    ADD_FAILURE() << text << "\n(logged to " << log.string() << ")";
  }

  storage::DurabilityOptions Options(const fs::path& dir) {
    storage::DurabilityOptions opts;
    opts.dir = dir.string();
    opts.fsync = storage::FsyncPolicy::kNone;  // crashes copy the file
    return opts;
  }

  // Runs the scenario live with durability attached (auto-checkpoints on
  // every third seed), then recovers the full log and a crash at every
  // record boundary. `torn` adds torn header and payload offsets inside the
  // record after each boundary, and recovers every cut a second time.
  void CrashMatrix(const Scenario& sc, bool torn) {
    const std::string label = Label(sc);
    fs::path dir = base_ / StrCat("w", sc.seed);
    World live(sc);
    storage::DurabilityOptions opts = Options(dir);
    if (sc.seed % 3 == 0) opts.checkpoint_every_n_states = 4 + sc.seed % 7;
    {
      auto mgr = storage::DurabilityManager::Attach(opts, live.Targets());
      ASSERT_OK(mgr.status());
      RunLibrary(live, sc);
      ASSERT_OK((*mgr)->status());
    }  // detached: the WAL image on disk is complete
    std::string image;
    ASSERT_OK(storage::ReadFileToString((dir / storage::kWalFileName).string(),
                                        &image));

    // Full-log recovery reproduces the live store bit for bit.
    {
      World rec(sc);
      auto report = storage::Recover(dir.string(), rec.Targets());
      ASSERT_OK(report.status());
      if (!report->clean()) {
        Fail(StrCat(label, " full-log recovery:\n", report->ToString()));
        return;
      }
      records_ += report->wal_records_read;
      if (rec.Bytes() != live.Bytes()) {
        Fail(StrCat(label, " full-log recovery diverged from the live "
                           "database contents\n", report->ToString()));
        return;
      }
      EXPECT_EQ(rec.clock.Now(), live.clock.Now()) << label;
      EXPECT_EQ(rec.db.history().size(), live.db.history().size()) << label;
    }

    std::vector<size_t> offsets;
    for (size_t cut : RecordBoundaries(image)) {
      offsets.push_back(cut);
      if (!torn) continue;
      for (size_t off : {cut + 3, cut + storage::kWalFrameHeaderLen + 1}) {
        if (off < image.size()) offsets.push_back(off);
      }
    }
    fs::path crash = base_ / StrCat("c", sc.seed);
    fs::copy(dir, crash);  // Recover rewrites nothing but the WAL
    for (size_t cut : offsets) {
      std::ofstream(crash / storage::kWalFileName,
                    std::ios::binary | std::ios::trunc)
          .write(image.data(), static_cast<std::streamsize>(cut));
      World rec(sc);
      auto report = storage::Recover(crash.string(), rec.Targets());
      if (!report.ok()) {
        Fail(StrCat(label, " cut ", cut, ": recovery failed: ",
                    report.status().ToString()));
        continue;
      }
      ++cuts_;
      if (!report->clean()) {
        Fail(StrCat(label, " cut ", cut, ":\n", report->ToString()));
        continue;
      }
      if (!torn) continue;
      // The torn tail was truncated on disk: recovering the directory again
      // reads a clean log and reproduces the same state.
      World again(sc);
      auto report2 = storage::Recover(crash.string(), again.Targets());
      ASSERT_OK(report2.status());
      EXPECT_EQ(report2->torn_bytes, 0u) << label << " cut " << cut;
      if (again.Bytes() != rec.Bytes()) {
        Fail(StrCat(label, " cut ", cut, ": second recovery diverged"));
      }
    }
    fs::remove_all(crash);
  }

  fs::path base_;
  uint64_t cuts_ = 0;
  uint64_t records_ = 0;
};

TEST_F(Recover, StockWorldCrashAtEveryRecordBoundary) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    CrashMatrix(MakeScenario(WorldKind::kStock, seed), /*torn=*/true);
  }
  // Sanity: the matrix exercised a meaningful number of crashes.
  EXPECT_GT(cuts_, 1000u);
  EXPECT_GT(records_, 1000u);
}

TEST_F(Recover, RandomWorldCrashAtEveryRecordBoundary) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    CrashMatrix(MakeScenario(WorldKind::kRandom, seed), /*torn=*/false);
  }
  EXPECT_GT(cuts_, 1000u);
}

TEST_F(Recover, RecoveredStoreContinuesAndReattaches) {
  Scenario sc = MakeScenario(WorldKind::kStock, 7);
  const size_t half = sc.waves.size() / 2;
  fs::path dir = base_ / "continue";
  fs::path crash = base_ / "continue_crash";

  // Live run, crash halfway (simulated by copying the directory).
  World live(sc);
  auto mgr = storage::DurabilityManager::Attach(Options(dir), live.Targets());
  ASSERT_OK(mgr.status());
  Observed ignored;
  ApplyWaves(live, sc, 0, half, Drain::kEachOp, &ignored);
  fs::copy(dir, crash);

  // Recover, re-attach durability, continue with the remaining waves.
  World rec(sc);
  auto report = storage::Recover(crash.string(), rec.Targets());
  ASSERT_OK(report.status());
  EXPECT_TRUE(report->clean()) << report->ToString();
  auto reattached =
      storage::DurabilityManager::Attach(Options(crash), rec.Targets());
  ASSERT_OK(reattached.status());
  EXPECT_GT((*reattached)->last_checkpoint_id(), 0u);  // continued the ids
  (void)rec.engine.TakeFirings();  // the replayed decisions

  // Identical op streams from the crash point produce identical stores.
  Observed live_rest, rec_rest;
  ApplyWaves(live, sc, half, sc.waves.size(), Drain::kEachOp, &live_rest);
  ApplyWaves(rec, sc, half, sc.waves.size(), Drain::kEachOp, &rec_rest);
  EXPECT_EQ(rec_rest.ops, live_rest.ops);
  EXPECT_EQ(rec.Bytes(), live.Bytes());
  EXPECT_EQ(rec.clock.Now(), live.clock.Now());

  // And the re-attached manager's directory recovers once more.
  reattached->reset();
  World rec2(sc);
  auto report2 = storage::Recover(crash.string(), rec2.Targets());
  ASSERT_OK(report2.status());
  EXPECT_TRUE(report2->clean()) << report2->ToString();
  EXPECT_EQ(rec2.Bytes(), rec.Bytes());
}

TEST_F(Recover, InjectedWalFaultLeavesRecoverableStore) {
  // Kill the WAL write stream at byte k (the FaultInjectingFile syncs the
  // torn prefix, exactly like a crash). Whatever k, the store must recover.
  for (uint64_t k : {5u, 30u, 90u, 157u, 400u, 2000u}) {
    Scenario sc = MakeScenario(WorldKind::kStock, k);
    fs::path dir = base_ / StrCat("fault", k);
    storage::FaultInjectingFileFactory factory(storage::kWalFileName, k);
    World live(sc);
    storage::DurabilityOptions opts = Options(dir);
    opts.fsync = storage::FsyncPolicy::kSync;
    opts.file_factory = &factory;
    auto mgr = storage::DurabilityManager::Attach(opts, live.Targets());
    if (mgr.ok()) {
      RunLibrary(live, sc);
      // With a small k the injected fault must have tripped the manager.
      if (k < 1000) {
        EXPECT_FALSE((*mgr)->status().ok()) << "k=" << k;
      }
    }
    // Either way the directory holds the attach checkpoint + a torn WAL.
    World rec(sc);
    auto report = storage::Recover(dir.string(), rec.Targets());
    ASSERT_OK(report.status());
    EXPECT_TRUE(report->clean()) << "k=" << k << "\n" << report->ToString();
  }
}

}  // namespace
}  // namespace ptldb::differential

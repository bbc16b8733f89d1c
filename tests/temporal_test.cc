// System-period temporal tables (src/temporal): versioning DDL lifecycle,
// AS OF boundary semantics on the half-open system period [T_start, T_end)
// including the zero-length [t, t) phantom-row rule, retention trimming,
// checkpoint + WAL durability of the archive, a randomized shadow-log
// property test (AS OF must equal a naive full-snapshot log at every commit
// point, including across checkpoint restore and crash recovery), and the
// §9 offline integrity-checker oracle over randomized workloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/codec.h"
#include "common/logging.h"
#include "common/strings.h"
#include "db/database.h"
#include "eval/aux_store.h"
#include "rules/engine.h"
#include "rules/offline_check.h"
#include "storage/checkpoint.h"
#include "storage/durability.h"
#include "storage/recovery.h"
#include "temporal/versioning.h"
#include "testutil.h"

namespace ptldb::temporal {
namespace {

namespace fs = std::filesystem;

/// Order-insensitive rendering of a relation (live snapshots keep table row
/// order while AS OF reconstructions keep interval order, so bag equality is
/// the meaningful comparison).
std::string Canon(const db::Relation& rel) {
  std::vector<std::string> lines;
  lines.reserve(rel.size());
  for (const db::Tuple& row : rel.rows()) {
    std::string line;
    for (const Value& v : row) {
      line += v.ToString();
      line += '|';
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  return Join(lines, "\n");
}

/// A stock world with the engine attached (checkpoints require one) and the
/// version store versioning `stock` from before the first row, so the whole
/// commit log is reconstructible. `note` starts unversioned — tests declare
/// it mid-workload to exercise journaled DDL.
struct World {
  SimClock clock;
  db::Database db{&clock};
  rules::RuleEngine engine{&db};
  VersionStore temporal{&db};

  World() {
    PTLDB_CHECK_OK(db.CreateTable(
        "stock",
        db::Schema({{"name", ValueType::kString},
                    {"price", ValueType::kDouble}}),
        {"name"}));
    PTLDB_CHECK_OK(db.CreateTable(
        "note", db::Schema({{"id", ValueType::kInt64},
                            {"text", ValueType::kString}}),
        {"id"}));
    PTLDB_CHECK_OK(temporal.SetVersioned("stock"));
    PTLDB_CHECK_OK(engine.queries().Register(
        "price", "SELECT price FROM stock WHERE name = $sym", {"sym"}));
  }

  void Seed() {
    PTLDB_CHECK_OK(db.InsertRow("stock", {Value::Str("IBM"), Value::Real(40)}));
    PTLDB_CHECK_OK(db.InsertRow("stock", {Value::Str("HP"), Value::Real(20)}));
  }

  void SetPrice(const std::string& name, double price, Timestamp advance = 1) {
    clock.Advance(advance);
    db::ParamMap params{{"p", Value::Real(price)}, {"n", Value::Str(name)}};
    auto n = db.UpdateRows("stock", {{"price", "$p"}}, "name = $n", &params);
    PTLDB_CHECK(n.ok());
  }

  Timestamp LastTime() const { return db.history().last_time(); }

  std::string StockAsOf(Timestamp t) {
    auto rel = db.QuerySqlAsOf("SELECT name, price FROM stock", t);
    PTLDB_CHECK_OK(rel.status());
    return rel->ToString();
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

// ---- Versioning DDL ---------------------------------------------------------

TEST(TemporalDdl, LifecycleAndErrors) {
  World w;
  EXPECT_TRUE(w.temporal.IsVersioned("stock"));
  EXPECT_FALSE(w.temporal.IsVersioned("note"));
  EXPECT_EQ(w.temporal.VersionedTables(), std::vector<std::string>{"stock"});

  // Unknown table, double declaration, drop of a non-versioned table.
  EXPECT_EQ(w.temporal.SetVersioned("ghost").code(), StatusCode::kNotFound);
  EXPECT_EQ(w.temporal.SetVersioned("stock").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(w.temporal.DropVersioned("note").code(), StatusCode::kNotFound);

  // AS OF against an unversioned table is an explicit error, not a fallback
  // to the live contents.
  EXPECT_EQ(w.temporal.TableAsOf("note", 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(w.db.QuerySqlAsOf("SELECT * FROM note", 0).ok());

  ASSERT_OK(w.temporal.DropVersioned("stock"));
  EXPECT_FALSE(w.temporal.IsVersioned("stock"));
  EXPECT_EQ(w.temporal.DropVersioned("stock").code(), StatusCode::kNotFound);
  EXPECT_TRUE(w.temporal.VersionedTables().empty());
}

TEST(TemporalDdl, DeclarationSeedsCurrentContents) {
  World w;
  w.Seed();
  w.SetPrice("IBM", 55);
  // `note` becomes versioned only now: its history starts at the declaration
  // instant with the then-current contents.
  ASSERT_OK(w.db.InsertRow("note", {Value::Int(1), Value::Str("hello")}));
  ASSERT_OK(w.temporal.SetVersioned("note"));
  Timestamp declared = w.LastTime();
  ASSERT_OK(w.db.InsertRow("note", {Value::Int(2), Value::Str("world")}));

  ASSERT_OK_AND_ASSIGN(db::Relation at_decl,
                       w.temporal.TableAsOf("note", declared));
  EXPECT_EQ(at_decl.size(), 1u);
  ASSERT_OK_AND_ASSIGN(db::Relation now,
                       w.temporal.TableAsOf("note", w.LastTime()));
  EXPECT_EQ(now.size(), 2u);
  // Instants before the declaration answer from the (empty) archive: the
  // history simply has nothing recorded yet, which is distinct from the
  // loud kOutOfRange a trimmed horizon produces.
  ASSERT_OK_AND_ASSIGN(db::Relation pre,
                       w.temporal.TableAsOf("note", declared - 1));
  EXPECT_EQ(pre.size(), 0u);
}

TEST(TemporalDdl, SeedingThroughApplyDeltaKeepsBagsAndKeys) {
  // SetVersioned seeds through ApplyDelta(seed, {}, rows), the path every
  // commit takes: duplicates of a keyless bag stay distinct rows, and a keyed
  // table's seed rows land in its per-key index.
  World w;
  ASSERT_OK(w.db.CreateTable(
      "bag", db::Schema({{"sym", ValueType::kString},
                         {"qty", ValueType::kInt64}})));
  const db::Tuple ibm{Value::Str("IBM"), Value::Int(5)};
  ASSERT_OK(w.db.InsertRow("bag", ibm));
  ASSERT_OK(w.db.InsertRow("bag", ibm));
  ASSERT_OK(w.db.InsertRow("bag", {Value::Str("HP"), Value::Int(7)}));
  ASSERT_OK(w.db.InsertRow("note", {Value::Int(1), Value::Str("hello")}));
  ASSERT_OK(w.db.InsertRow("note", {Value::Int(2), Value::Str("world")}));
  ASSERT_OK(w.temporal.SetVersioned("bag"));
  ASSERT_OK(w.temporal.SetVersioned("note"));
  const Timestamp seeded = w.LastTime();
  ASSERT_OK_AND_ASSIGN(const eval::RelationHistory* bag_history,
                       w.temporal.History("bag"));
  EXPECT_FALSE(bag_history->key_column().has_value());
  EXPECT_EQ(bag_history->num_rows(), 3u);
  ASSERT_OK_AND_ASSIGN(const eval::RelationHistory* note_history,
                       w.temporal.History("note"));
  EXPECT_EQ(note_history->key_column(), std::optional<size_t>(0));
  ASSERT_OK_AND_ASSIGN(db::Relation keyed,
                       note_history->AsOf(seeded, Value::Int(2)));
  ASSERT_EQ(keyed.size(), 1u);
  EXPECT_EQ(keyed.row(0)[1], Value::Str("world"));

  const std::string bag_sql = "SELECT sym, qty FROM bag";
  const std::string point_sql = "SELECT text FROM note WHERE id = 2";
  ASSERT_OK_AND_ASSIGN(db::Relation bag_at_seed,
                       w.db.QuerySqlAsOf(bag_sql, seeded));
  EXPECT_EQ(Canon(bag_at_seed), "\"HP\"|7|\n\"IBM\"|5|\n\"IBM\"|5|");
  ASSERT_OK_AND_ASSIGN(db::Relation note_at_seed,
                       w.db.QuerySqlAsOf(point_sql, seeded));
  ASSERT_EQ(note_at_seed.size(), 1u);
  EXPECT_EQ(note_at_seed.row(0)[0], Value::Str("world"));

  // Delete one duplicate: both copies go and one comes back in the same
  // transaction, so the commit's delta cancels one copy and closes the other.
  w.clock.Advance(1);
  ASSERT_OK_AND_ASSIGN(int64_t txn, w.db.Begin());
  ASSERT_OK_AND_ASSIGN(size_t deleted, w.db.Delete(txn, "bag", "sym = 'IBM'"));
  EXPECT_EQ(deleted, 2u);
  ASSERT_OK(w.db.Insert(txn, "bag", ibm));
  ASSERT_OK(w.db.Commit(txn));
  const Timestamp after = w.LastTime();
  ASSERT_GT(after, seeded);

  ASSERT_OK_AND_ASSIGN(db::Relation bag_after,
                       w.db.QuerySqlAsOf(bag_sql, after));
  EXPECT_EQ(Canon(bag_after), "\"HP\"|7|\n\"IBM\"|5|");
  ASSERT_OK_AND_ASSIGN(db::Relation live, w.db.QuerySql(bag_sql));
  EXPECT_EQ(Canon(bag_after), Canon(live));
  ASSERT_OK_AND_ASSIGN(bag_at_seed, w.db.QuerySqlAsOf(bag_sql, seeded));
  EXPECT_EQ(Canon(bag_at_seed), "\"HP\"|7|\n\"IBM\"|5|\n\"IBM\"|5|");
  // One IBM interval closed at the commit, the other never closed.
  ASSERT_OK_AND_ASSIGN(db::Relation hist, w.temporal.HistoryRelation("bag"));
  EXPECT_EQ(Canon(hist),
            StrCat("\"HP\"|7|", seeded, "|", eval::kTimeMax, "|\n\"IBM\"|5|",
                   seeded, "|", after, "|\n\"IBM\"|5|", seeded, "|",
                   eval::kTimeMax, "|"));
  ASSERT_OK_AND_ASSIGN(db::Relation note_after,
                       w.db.QuerySqlAsOf(point_sql, after));
  ASSERT_EQ(note_after.size(), 1u);
  EXPECT_EQ(note_after.row(0)[0], Value::Str("world"));
}

// ---- AS OF boundary semantics ----------------------------------------------

TEST(TemporalAsOf, HalfOpenPeriodBoundaries) {
  World w;
  w.Seed();
  Timestamp seeded = w.LastTime();
  w.SetPrice("IBM", 50);
  Timestamp t1 = w.LastTime();
  w.SetPrice("IBM", 60, /*advance=*/5);
  Timestamp t2 = w.LastTime();

  auto ibm_at = [&](Timestamp t) {
    db::ParamMap params{{"t", Value::Int(t)}};
    auto rel = w.db.QuerySqlAsOf(
        "SELECT price FROM stock WHERE name = 'IBM'", t, &params);
    PTLDB_CHECK_OK(rel.status());
    PTLDB_CHECK(rel->size() == 1u);
    return rel->row(0)[0].AsDouble();
  };

  // At the update instant the new value is already visible (T_end of the old
  // row is exclusive); one tick before, the old value still rules.
  EXPECT_EQ(ibm_at(seeded), 40.0);
  EXPECT_EQ(ibm_at(t1), 50.0);
  EXPECT_EQ(ibm_at(t1 - 1), 40.0);
  EXPECT_EQ(ibm_at(t2), 60.0);
  EXPECT_EQ(ibm_at(t2 - 1), 50.0);  // the gap belongs to the superseded row
  EXPECT_EQ(ibm_at(t2 + 100), 60.0);  // open row: current from T_start on

  // An inline `AS OF` expression overrides the executor-wide default time.
  db::ParamMap params{{"t", Value::Int(t1)}};
  ASSERT_OK_AND_ASSIGN(
      db::Relation rel,
      w.db.QuerySqlAsOf("SELECT price FROM stock AS OF $t WHERE name = 'IBM'",
                        t2, &params));
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel.row(0)[0], Value::Real(50));
}

TEST(TemporalAsOf, InsertAndDeleteInOneTransactionLeavesNoTrace) {
  World w;
  w.Seed();
  ASSERT_OK_AND_ASSIGN(int64_t txn, w.db.Begin());
  ASSERT_OK(w.db.Insert(txn, "stock", {Value::Str("TMP"), Value::Real(5)}));
  ASSERT_OK(w.db.Delete(txn, "stock", "name = 'TMP'").status());
  ASSERT_OK(w.db.Commit(txn));
  Timestamp t = w.LastTime();

  // The row's system period would be the empty interval [t, t): it must not
  // be observable at any instant, nor appear as an archived interval.
  for (Timestamp probe : {t - 1, t, t + 1}) {
    ASSERT_OK_AND_ASSIGN(db::Relation rel,
                         w.temporal.TableAsOf("stock", probe));
    for (const db::Tuple& row : rel.rows()) {
      EXPECT_NE(row[0], Value::Str("TMP")) << "phantom visible at " << probe;
    }
  }
  ASSERT_OK_AND_ASSIGN(db::Relation hist, w.temporal.HistoryRelation("stock"));
  for (const db::Tuple& row : hist.rows()) {
    EXPECT_NE(row[0], Value::Str("TMP"));
  }
}

TEST(TemporalAsOf, ZeroLengthIntervalIsDroppedByTheColumnarStore) {
  // Regression for the [t, t) rule at the eval layer: a row opened and closed
  // at the same timestamp is dropped outright, not retained as a phantom.
  eval::RelationHistory h(
      db::Schema({{"name", ValueType::kString}, {"v", ValueType::kInt64}}));
  db::Tuple row{Value::Str("x"), Value::Int(1)};
  ASSERT_OK(h.ApplyDelta(10, {}, {row}));
  ASSERT_OK(h.ApplyDelta(10, {row}, {}));
  EXPECT_EQ(h.phantom_rows_dropped(), 1u);
  EXPECT_EQ(h.num_rows(), 0u);
  ASSERT_OK_AND_ASSIGN(db::Relation at10, h.AsOf(10));
  EXPECT_EQ(at10.size(), 0u);

  // A genuine [10, 11) interval survives and obeys the half-open boundary.
  ASSERT_OK(h.ApplyDelta(10, {}, {row}));
  ASSERT_OK(h.ApplyDelta(11, {row}, {}));
  EXPECT_EQ(h.num_rows(), 1u);
  ASSERT_OK_AND_ASSIGN(at10, h.AsOf(10));
  EXPECT_EQ(at10.size(), 1u);
  ASSERT_OK_AND_ASSIGN(db::Relation at11, h.AsOf(11));
  EXPECT_EQ(at11.size(), 0u);
}

// ---- Keyed AS OF point reads ----------------------------------------------

// Runs `keyed` (a primary-key point lookup the executor answers from the
// archive's key index) and `scan` (the same question phrased so no index
// applies) and expects identical answers, or identical codes and messages.
void ExpectSameAsScan(const World& w, const std::string& keyed,
                      const std::string& scan, std::optional<Timestamp> at,
                      const db::ParamMap* params) {
  auto run = [&](const std::string& sql) {
    return at.has_value() ? w.db.QuerySqlAsOf(sql, *at, params)
                          : w.db.QuerySql(sql, params);
  };
  Result<db::Relation> a = run(keyed);
  Result<db::Relation> b = run(scan);
  ASSERT_EQ(a.ok(), b.ok()) << keyed << " | " << scan;
  if (!a.ok()) {
    EXPECT_EQ(a.status().code(), b.status().code()) << keyed;
    EXPECT_EQ(a.status().message(), b.status().message()) << keyed;
    return;
  }
  EXPECT_EQ(a->ToString(), b->ToString()) << keyed;
}

TEST(TemporalAsOf, KeyedPointReadsMatchTheScanPath) {
  World w;
  w.Seed();
  std::vector<Timestamp> times = {w.LastTime()};
  for (double price : {50.0, 61.5, 70.0}) {
    w.SetPrice("IBM", price);
    times.push_back(w.LastTime());
    w.SetPrice("HP", price / 2, /*advance=*/3);
    times.push_back(w.LastTime());
  }
  // One text, many $params: each key reads its own versions.
  const std::string keyed = "SELECT price FROM stock WHERE name = $n";
  const std::string scan = "SELECT price FROM stock WHERE NOT (name != $n)";
  const std::string keyed_alias =
      "SELECT s.name, s.price FROM stock AS s WHERE s.name = $n";
  const std::string scan_alias =
      "SELECT s.name, s.price FROM stock AS s WHERE NOT (s.name != $n)";
  const std::string keyed_inline =
      "SELECT price FROM stock AS OF $t WHERE $n = name";
  const std::string scan_inline =
      "SELECT price FROM stock AS OF $t WHERE NOT ($n != name)";
  for (Timestamp t : times) {
    for (Timestamp probe : {t - 1, t, t + 1}) {
      for (const char* name : {"IBM", "HP", "GHOST"}) {
        db::ParamMap params{{"n", Value::Str(name)}, {"t", Value::Int(probe)}};
        ExpectSameAsScan(w, keyed, scan, probe, &params);
        ExpectSameAsScan(w, keyed_alias, scan_alias, probe, &params);
        ExpectSameAsScan(w, keyed_inline, scan_inline, std::nullopt, &params);
      }
    }
  }
  // The keyed path answered from the archive at the right instants.
  db::ParamMap ibm{{"n", Value::Str("IBM")}};
  ASSERT_OK_AND_ASSIGN(db::Relation rel,
                       w.db.QuerySqlAsOf(keyed, times[1], &ibm));
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel.row(0)[0], Value::Real(50));
  ASSERT_OK_AND_ASSIGN(rel, w.db.QuerySqlAsOf(keyed, times[1] - 1, &ibm));
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel.row(0)[0], Value::Real(40));
}

TEST(TemporalAsOf, KeyedReadsCoerceLikeSqlEquality) {
  World w;
  ASSERT_OK(w.db.CreateTable(
      "rate", db::Schema({{"r", ValueType::kDouble},
                          {"label", ValueType::kString}}),
      {"r"}));
  ASSERT_OK(w.temporal.SetVersioned("rate"));
  ASSERT_OK(w.temporal.SetVersioned("note"));
  // The int is archived widened, as the table stores it, so a later update
  // supersedes the archived row.
  ASSERT_OK(w.db.InsertRow("rate", {Value::Int(1), Value::Str("one")}));
  ASSERT_OK(w.db.InsertRow("note", {Value::Int(1), Value::Str("n1")}));
  const Timestamp t = w.LastTime();
  ASSERT_OK(w.db.UpdateRows("rate", {{"label", "'uno'"}}, "r = 1").status());
  // An int probes the kDouble key (rows are stored widened), a double probes
  // the kInt64 key (1 = 1.0 holds), and a string probes a numeric key (never
  // equal, not an error).
  struct Case {
    const char* keyed;
    const char* scan;
    size_t rows;
  };
  const Case cases[] = {
      {"SELECT label FROM rate WHERE r = 1",
       "SELECT label FROM rate WHERE NOT (r != 1)", 1},
      {"SELECT label FROM rate WHERE r = 1.0",
       "SELECT label FROM rate WHERE NOT (r != 1.0)", 1},
      {"SELECT text FROM note WHERE id = 1.0",
       "SELECT text FROM note WHERE NOT (id != 1.0)", 1},
      {"SELECT text FROM note WHERE id = '1'",
       "SELECT text FROM note WHERE NOT (id != '1')", 0},
  };
  // The live tables' hash index follows the same rule.
  for (const Case& c : cases) {
    ExpectSameAsScan(w, c.keyed, c.scan, t, nullptr);
    ExpectSameAsScan(w, c.keyed, c.scan, std::nullopt, nullptr);
    ASSERT_OK_AND_ASSIGN(db::Relation rel, w.db.QuerySqlAsOf(c.keyed, t));
    EXPECT_EQ(rel.size(), c.rows) << c.keyed;
    ASSERT_OK_AND_ASSIGN(rel, w.db.QuerySql(c.keyed));
    EXPECT_EQ(rel.size(), c.rows) << c.keyed;
  }
}

TEST(TemporalAsOf, KeyedReadErrorsMatchTheScanPath) {
  World w;
  w.Seed();
  w.SetPrice("IBM", 50);
  w.SetPrice("IBM", 60);
  const Timestamp horizon = w.LastTime();
  w.SetPrice("IBM", 70);
  ASSERT_OK(w.temporal.TrimHistoryBefore(horizon));

  // Unversioned table: InvalidArgument, same message either way.
  ExpectSameAsScan(w, "SELECT text FROM note WHERE id = 1",
                   "SELECT text FROM note WHERE NOT (id != 1)", horizon,
                   nullptr);
  EXPECT_EQ(w.db.QuerySqlAsOf("SELECT text FROM note WHERE id = 1", horizon)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Behind the trim horizon: OutOfRange, same message either way.
  ExpectSameAsScan(w, "SELECT price FROM stock WHERE name = 'IBM'",
                   "SELECT price FROM stock WHERE NOT (name != 'IBM')",
                   horizon - 1, nullptr);
  EXPECT_EQ(w.db.QuerySqlAsOf("SELECT price FROM stock WHERE name = 'IBM'",
                              horizon - 1)
                .status()
                .code(),
            StatusCode::kOutOfRange);
  // No version store attached: the inline AS OF fails alike.
  SimClock clock;
  db::Database bare(&clock);
  ASSERT_OK(bare.CreateTable(
      "stock", db::Schema({{"name", ValueType::kString}}), {"name"}));
  Result<db::Relation> keyed =
      bare.QuerySql("SELECT name FROM stock AS OF 3 WHERE name = 'IBM'");
  Result<db::Relation> scan =
      bare.QuerySql("SELECT name FROM stock AS OF 3 WHERE NOT (name != 'IBM')");
  ASSERT_FALSE(keyed.ok());
  EXPECT_EQ(keyed.status().code(), scan.status().code());
  EXPECT_EQ(keyed.status().message(), scan.status().message());
}

TEST(TemporalAsOf, KeyIndexIsRederivedOnRestore) {
  World w;
  w.Seed();
  w.SetPrice("IBM", 50);
  const Timestamp t = w.LastTime();
  w.SetPrice("IBM", 60);
  std::string bytes;
  codec::Writer writer(&bytes);
  w.temporal.Serialize(&writer);

  World restored;
  codec::Reader reader(bytes);
  ASSERT_OK(restored.temporal.Deserialize(&reader));
  ASSERT_OK_AND_ASSIGN(const eval::RelationHistory* h,
                       restored.temporal.History("stock"));
  EXPECT_EQ(h->key_column(), std::optional<size_t>(0));
  ASSERT_OK_AND_ASSIGN(db::Relation rel,
                       h->AsOf(t, Value::Str("IBM")));
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel.row(0)[1], Value::Real(50));
  // The derived index never reaches the checkpoint bytes.
  std::string again;
  codec::Writer writer2(&again);
  restored.temporal.Serialize(&writer2);
  EXPECT_EQ(again, bytes);
}

// ---- Retention --------------------------------------------------------------

TEST(TemporalTrim, DropsClosedIntervalsAndRefusesIncompleteReads) {
  World w;
  w.Seed();
  w.SetPrice("IBM", 50);
  w.SetPrice("IBM", 60);
  Timestamp horizon = w.LastTime();
  w.SetPrice("IBM", 70);
  Timestamp t_last = w.LastTime();

  size_t commit_points_before = w.temporal.commit_log().size();
  ASSERT_OK(w.temporal.TrimHistoryBefore(horizon));
  EXPECT_GT(w.temporal.commit_points_trimmed(), 0u);
  EXPECT_LT(w.temporal.commit_log().size(), commit_points_before);
  for (const CommitPoint& p : w.temporal.commit_log()) {
    EXPECT_GE(p.time, horizon);
  }

  // Reads behind the horizon fail loudly instead of answering incompletely.
  EXPECT_EQ(w.temporal.TableAsOf("stock", horizon - 1).status().code(),
            StatusCode::kOutOfRange);
  // At and past the horizon the archive still answers, open rows included.
  ASSERT_OK_AND_ASSIGN(db::Relation rel, w.temporal.TableAsOf("stock", t_last));
  EXPECT_EQ(rel.size(), 2u);
  ASSERT_OK(w.temporal.TableAsOf("stock", horizon).status());
}

// ---- Durability -------------------------------------------------------------

TEST(TemporalDurability, SerializeRoundTripIsByteStable) {
  World a;
  a.Seed();
  a.SetPrice("IBM", 50);
  a.SetPrice("HP", 25);
  a.SetPrice("IBM", 61);

  auto bytes = [](const VersionStore& s) {
    std::string out;
    codec::Writer w(&out);
    s.Serialize(&w);
    return out;
  };

  World b;
  {
    std::string blob = bytes(a.temporal);
    codec::Reader r(blob);
    ASSERT_OK(b.temporal.Deserialize(&r));
    ASSERT_OK(r.ExpectEnd());
  }
  EXPECT_EQ(bytes(a.temporal), bytes(b.temporal));
  EXPECT_EQ(b.temporal.commit_log().size(), a.temporal.commit_log().size());
  for (Timestamp t = 0; t <= a.LastTime(); ++t) {
    ASSERT_OK_AND_ASSIGN(db::Relation ra, a.temporal.TableAsOf("stock", t));
    ASSERT_OK_AND_ASSIGN(db::Relation rb, b.temporal.TableAsOf("stock", t));
    EXPECT_EQ(ra.ToString(), rb.ToString()) << "AS OF " << t;
  }
}

TEST(TemporalDurability, AsOfSurvivesCrashRecoveryByteIdentically) {
  fs::path dir = fs::path(::testing::TempDir()) / "ptldb_temporal_recovery";
  fs::remove_all(dir);

  std::vector<Timestamp> commits;
  std::vector<std::string> before;
  Timestamp note_declared = 0;
  {
    World a;
    storage::DurabilityOptions opts;
    opts.dir = dir.string();
    opts.fsync = storage::FsyncPolicy::kNone;
    ASSERT_OK_AND_ASSIGN(auto mgr,
                         storage::DurabilityManager::Attach(opts, a.Targets()));
    a.Seed();
    a.SetPrice("IBM", 50);
    commits.push_back(a.LastTime());
    a.SetPrice("HP", 31);
    commits.push_back(a.LastTime());
    // A checkpoint mid-stream: the archive so far travels inside it, and
    // everything after it must replay from the WAL tail.
    ASSERT_OK(mgr->Checkpoint());
    // Journaled DDL after the checkpoint: declare `note` versioned, write to
    // it, and trim — all three temporal op kinds land in the WAL tail.
    ASSERT_OK(a.temporal.SetVersioned("note"));
    note_declared = a.LastTime();
    ASSERT_OK(a.db.InsertRow("note", {Value::Int(1), Value::Str("n1")}));
    ASSERT_OK(a.temporal.TrimHistoryBefore(commits.front()));
    a.SetPrice("IBM", 64, /*advance=*/3);
    commits.push_back(a.LastTime());
    ASSERT_OK(a.db.InsertRow("note", {Value::Int(2), Value::Str("n2")}));
    commits.push_back(a.LastTime());

    for (Timestamp t : commits) before.push_back(a.StockAsOf(t));
    before.push_back(
        a.db.QuerySqlAsOf("SELECT id, text FROM note", a.LastTime())
            ->ToString());
    // No clean shutdown: the manager is dropped with the WAL tail unsynced
    // (kNone wrote the bytes; a kill -9 equivalent is exercised end-to-end by
    // the CI crash-recovery job).
  }

  World b;
  ASSERT_OK_AND_ASSIGN(storage::RecoveryReport report,
                       storage::Recover(dir.string(), b.Targets()));
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_GT(report.states_replayed, 0u);
  EXPECT_GT(report.temporal_ops_replayed, 0u);
  EXPECT_TRUE(b.temporal.IsVersioned("note"));

  std::vector<std::string> after;
  for (Timestamp t : commits) after.push_back(b.StockAsOf(t));
  after.push_back(
      b.db.QuerySqlAsOf("SELECT id, text FROM note", b.LastTime())
          ->ToString());
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i], before[i]) << "AS OF render " << i;
  }
  // The trim horizon is durable too: reads behind it still refuse.
  EXPECT_EQ(b.temporal.TableAsOf("stock", commits.front() - 1).status().code(),
            StatusCode::kOutOfRange);
  ASSERT_OK_AND_ASSIGN(db::Relation note_before,
                       b.temporal.TableAsOf("note", note_declared));
  EXPECT_EQ(note_before.size(), 0u);

  fs::remove_all(dir);
}

// ---- Randomized shadow-log property ----------------------------------------

// Every committed workload step records a naive full snapshot of the table;
// afterwards AS OF must reproduce each snapshot exactly, both from the live
// store and from a checkpoint restorate.
TEST(TemporalProperty, AsOfMatchesShadowLogAtEveryCommitPoint) {
  const char* kSyms[] = {"IBM", "HP", "XOM", "GE"};
  for (uint32_t seed = 0; seed < 20; ++seed) {
    std::mt19937 rng(seed);
    World w;
    w.Seed();
    std::vector<std::pair<Timestamp, std::string>> shadow;
    auto snapshot = [&] {
      auto rel = w.db.QuerySql("SELECT name, price FROM stock");
      PTLDB_CHECK_OK(rel.status());
      shadow.emplace_back(w.LastTime(), Canon(*rel));
    };
    snapshot();

    for (int op = 0; op < 25; ++op) {
      const std::string sym = kSyms[rng() % 4];
      w.clock.Advance(rng() % 3);
      db::ParamMap params{{"n", Value::Str(sym)},
                          {"p", Value::Real(static_cast<double>(rng() % 200))}};
      switch (rng() % 4) {
        case 0: {  // upsert-style insert (ignore PK conflicts)
          auto exists = w.db.QuerySql(
              "SELECT name FROM stock WHERE name = $n", &params);
          PTLDB_CHECK_OK(exists.status());
          if (!exists->size()) {
            PTLDB_CHECK_OK(w.db.InsertRow(
                "stock", {params["n"], params["p"]}));
          }
          break;
        }
        case 1:
          PTLDB_CHECK(
              w.db.DeleteRows("stock", "name = $n", &params).ok());
          break;
        default:
          PTLDB_CHECK(
              w.db.UpdateRows("stock", {{"price", "$p"}}, "name = $n", &params)
                  .ok());
          break;
      }
      snapshot();
    }

    for (const auto& [t, want] : shadow) {
      ASSERT_OK_AND_ASSIGN(db::Relation rel, w.temporal.TableAsOf("stock", t));
      ASSERT_EQ(Canon(rel), want) << "seed " << seed << " AS OF " << t;
    }

    // The same property must hold through a checkpoint round trip, and the
    // restorate's AS OF renders must be byte-identical to the original's.
    std::string body;
    ASSERT_OK(storage::EncodeCheckpoint(1, w.Targets(), &body));
    World r;
    ASSERT_OK(storage::RestoreCheckpoint(body, r.Targets()).status());
    for (const auto& [t, want] : shadow) {
      ASSERT_OK_AND_ASSIGN(db::Relation rel, r.temporal.TableAsOf("stock", t));
      ASSERT_EQ(Canon(rel), want) << "restored seed " << seed << " AS OF " << t;
      ASSERT_EQ(r.StockAsOf(t), w.StockAsOf(t)) << "seed " << seed;
    }
  }
}

// ---- Offline integrity checking (§9, Theorem 2) -----------------------------

// For randomized update/event workloads the offline re-evaluation over the
// collapsed committed history must agree with the online engine: constraints
// hold at every retained commit point (the engine vetoed the violators) and
// trigger verdicts match the recorded firing stream.
/// Collects the engine's firing-decision stream. TakeFirings only surfaces
/// rules with record_execution on, and the oracle rules keep it off (the
/// @executed echo states it raises would pollute the very commit log being
/// checked), so the observer hook is the faithful tap.
struct FiringCollector : rules::RuleEngine::FiringObserver {
  std::vector<rules::Firing> firings;
  void OnFiring(const rules::Firing& f) override { firings.push_back(f); }
  void OnIcVeto(int64_t, Timestamp, const std::vector<std::string>&) override {}
};

TEST(TemporalOffline, OracleAgreesOverRandomWorkloads) {
  for (uint32_t seed = 0; seed < 100; ++seed) {
    std::mt19937 rng(seed);
    World w;
    FiringCollector collector;
    w.engine.SetFiringObserver(&collector);
    int fired = 0;
    auto count = [&fired](rules::ActionContext&) -> Status {
      ++fired;
      return Status::OK();
    };
    rules::RuleOptions quiet;
    quiet.record_execution = false;
    rules::RuleOptions level = quiet;
    level.level_triggered = true;
    ASSERT_OK(w.engine.AddTrigger("cheap_hp", "price('HP') < 25", count,
                                  level));
    ASSERT_OK(w.engine.AddTrigger("spike", "price('IBM') > 60", count, quiet));
    ASSERT_OK(w.engine.AddTrigger(
        "was_low", "PREVIOUSLY price('IBM') < 30", count, quiet));
    ASSERT_OK(w.engine.AddIntegrityConstraint("cap", "price('IBM') <= 90"));
    w.Seed();
    for (int op = 0; op < 12; ++op) {
      w.clock.Advance(rng() % 3);
      switch (rng() % 5) {
        case 0:
          ASSERT_OK(w.db.RaiseEvent(event::Event{"tick", {}}));
          break;
        default: {
          const std::string sym = (rng() % 2) ? "IBM" : "HP";
          double price = static_cast<double>(rng() % 120);
          db::ParamMap params{{"n", Value::Str(sym)},
                              {"p", Value::Real(price)}};
          auto n = w.db.UpdateRows("stock", {{"price", "$p"}}, "name = $n",
                                   &params);
          // IBM above the cap is vetoed; the abort must stay invisible to
          // the collapsed history and the offline verdicts alike.
          if (!n.ok()) {
            ASSERT_EQ(n.status().code(), StatusCode::kTransactionAborted);
            ASSERT_TRUE(sym == "IBM" && price > 90) << n.status().ToString();
          }
          break;
        }
      }
    }
    ASSERT_OK_AND_ASSIGN(
        rules::OfflineCheckReport report,
        rules::OfflineCheck(w.temporal, w.engine, collector.firings));
    EXPECT_GT(report.commit_points, 0u);
    EXPECT_GE(report.rules_checked, 4u);
    EXPECT_TRUE(report.agreed())
        << "seed " << seed << "\n" << report.ToString();
  }
}

TEST(TemporalOffline, SkipsRulesOutsideTheoremTwo) {
  World w;
  w.Seed();
  auto noop = [](rules::ActionContext&) { return Status::OK(); };
  // Real-time bound: satisfaction can flip at dropped states.
  ASSERT_OK(w.engine.AddTrigger(
      "timed", "[t := time] PREVIOUSLY (price('IBM') > 10 AND time >= t - 5)",
      noop));
  // Transaction-control event atom: invisible in the collapsed history.
  // (@commit stays eligible — commit points are retained with their events.)
  ASSERT_OK(w.engine.AddTrigger("on_begin", "@begin(0)", noop));
  // Rule family: free variables are unbound offline.
  ASSERT_OK(w.engine.AddTriggerFamily(
      "cheap", "SELECT name FROM stock", {"sym"}, "price(sym) < 25", noop));
  w.SetPrice("IBM", 45);

  ASSERT_OK_AND_ASSIGN(
      rules::OfflineCheckReport report,
      rules::OfflineCheck(w.temporal, w.engine, w.engine.TakeFirings()));
  EXPECT_TRUE(report.agreed()) << report.ToString();
  std::map<std::string, std::string> skip_reasons;
  for (const rules::OfflineRuleReport& r : report.rules) {
    if (!r.checked) skip_reasons[r.rule] = r.skip_reason;
  }
  EXPECT_NE(skip_reasons["timed"].find("real-time"), std::string::npos);
  EXPECT_NE(skip_reasons["on_begin"].find("begin"), std::string::npos);
  EXPECT_NE(skip_reasons["cheap"].find("family"), std::string::npos);
}

}  // namespace
}  // namespace ptldb::temporal

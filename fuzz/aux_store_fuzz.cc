// libFuzzer harness for the history-substrate decoders, the bytes a
// checkpoint restore or WAL replay hands them:
//   * eval::RelationHistory::Deserialize (tag 0xC2, version 2; every other
//     dump, the retired row-oriented v1 format included, is refused);
//   * temporal::VersionStore::Deserialize, against a database holding one
//     keyed table and one bag table;
//   * temporal::DeserializeTemporalOp (a WAL kTemporal record body).
//
// Invariants under fuzzing:
//   * Decoding NEVER crashes, aborts, trips a sanitizer or allocates without
//     bound on any byte sequence: a crafted dump comes back as a Status.
//   * A rejected RelationHistory dump leaves an empty history.
//   * After a decode, reads stay in bounds, and the per-key index rebuilt
//     from the decoded bytes agrees with the scan: the keyed AsOf(t, key)
//     equals AsOf(t) filtered on the key (rows, order, and errors).
//   * A decoded VersionStore re-serializes to bytes that decode again and
//     re-serialize identically; a decoded TemporalOp re-encodes to exactly
//     the bytes it consumed.
//
// Build modes mirror parser_fuzz.cc (fuzz/CMakeLists.txt): a real libFuzzer
// binary under clang with -DPTLDB_FUZZERS=ON, and a standalone corpus-replay
// runner everywhere else that doubles as a ctest regression gate.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/codec.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "db/database.h"
#include "eval/aux_store.h"
#include "temporal/versioning.h"

namespace {

using ptldb::Timestamp;
using ptldb::Value;
using ptldb::ValueType;
using ptldb::eval::kTimeMax;

// Every probe is bounded: this many stored rows seed times and keys.
constexpr size_t kMaxProbeRows = 32;

void CheckRelationHistory(std::string_view input, ptldb::db::Schema schema) {
  ptldb::eval::RelationHistory history(std::move(schema), /*key_column=*/0);
  ptldb::codec::Reader r(input);
  if (!history.Deserialize(&r).ok()) {
    if (history.num_rows() != 0) std::abort();  // half-loaded
    if (history.AsOf(0).ok()) std::abort();
    return;
  }
  const ptldb::db::Relation store = history.Store();
  const size_t start_col = history.schema().num_columns();
  std::vector<Value> keys = {Value::Str("k"), Value::Int(0), Value::Null()};
  std::vector<Timestamp> probes = {std::numeric_limits<Timestamp>::min(), -1,
                                   0, 1, kTimeMax};
  for (size_t i = 0; i < store.size() && i < kMaxProbeRows; ++i) {
    const ptldb::db::Tuple& row = store.row(i);
    keys.push_back(row[0]);
    for (size_t c : {start_col, start_col + 1}) {
      const Timestamp t = row[c].AsInt();
      probes.push_back(t);
      if (t > std::numeric_limits<Timestamp>::min()) probes.push_back(t - 1);
      if (t < kTimeMax) probes.push_back(t + 1);
    }
  }
  for (Timestamp t : probes) {
    auto all = history.AsOf(t);
    for (const Value& key : keys) {
      auto keyed = history.AsOf(t, key);
      if (all.ok() != keyed.ok()) std::abort();
      if (!all.ok()) {
        if (all.status().code() != keyed.status().code()) std::abort();
        continue;
      }
      ptldb::db::Relation want(all->schema());
      for (const ptldb::db::Tuple& row : all->rows()) {
        if (row[0] == key) want.AppendUnchecked(row);
      }
      // Rendered, so a NaN cell compares equal to itself.
      if (keyed->ToString() != want.ToString()) std::abort();
    }
  }
}

// Serializes `store` into a fresh string.
std::string Dump(const ptldb::temporal::VersionStore& store) {
  std::string bytes;
  ptldb::codec::Writer w(&bytes);
  store.Serialize(&w);
  return bytes;
}

// A database with the two table shapes a version store keys differently:
// `quote` has a single-column primary key (keyed archive index), `fill` is a
// bag with no key.
struct StoreWorld {
  ptldb::SimClock clock;
  ptldb::db::Database db{&clock};
  ptldb::temporal::VersionStore store{&db};

  StoreWorld() {
    PTLDB_CHECK_OK(db.CreateTable(
        "quote",
        ptldb::db::Schema({{"sym", ValueType::kString},
                           {"px", ValueType::kDouble}}),
        {"sym"}));
    PTLDB_CHECK_OK(db.CreateTable(
        "fill", ptldb::db::Schema({{"sym", ValueType::kString},
                                   {"qty", ValueType::kInt64}})));
  }
};

void CheckVersionStore(std::string_view input) {
  StoreWorld w;
  ptldb::codec::Reader r(input);
  if (!w.store.Deserialize(&r).ok()) return;
  std::vector<Timestamp> probes = {std::numeric_limits<Timestamp>::min(), -1,
                                   0, 1, kTimeMax};
  const auto& log = w.store.commit_log();
  for (size_t i = 0; i < log.size() && i < kMaxProbeRows; ++i) {
    probes.push_back(log[i].time);
  }
  for (const std::string& table : w.store.VersionedTables()) {
    (void)w.store.HistoryRelation(table);
    for (Timestamp t : probes) {
      (void)w.store.TableAsOf(table, t);
      for (const Value& key : {Value::Str("IBM"), Value::Int(0)}) {
        (void)w.store.TableAsOfKey(table, t, "sym", key);
      }
    }
  }
  ptldb::Metrics m;
  w.store.ExportTo(m);
  // What a decoded store writes, a store decodes, to the same bytes.
  const std::string once = Dump(w.store);
  StoreWorld again;
  ptldb::codec::Reader r2(once);
  if (!again.store.Deserialize(&r2).ok() || !r2.ExpectEnd().ok()) {
    std::abort();
  }
  if (Dump(again.store) != once) std::abort();
}

void CheckTemporalOp(std::string_view input) {
  ptldb::codec::Reader r(input);
  auto op = ptldb::temporal::DeserializeTemporalOp(&r);
  if (!op.ok()) return;
  std::string bytes;
  ptldb::codec::Writer w(&bytes);
  ptldb::temporal::SerializeTemporalOp(*op, &w);
  if (bytes != input.substr(0, input.size() - r.remaining())) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  CheckRelationHistory(input, ptldb::db::Schema({{"sym", ValueType::kString},
                                                 {"px", ValueType::kInt64}}));
  CheckRelationHistory(input, ptldb::db::Schema({{"k", ValueType::kInt64},
                                                 {"v", ValueType::kDouble}}));
  CheckVersionStore(input);
  CheckTemporalOp(input);
  return 0;
}

#ifdef PTLDB_FUZZ_STANDALONE
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[i]);
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                           bytes.size());
  }
  std::printf("ok: %d input(s) replayed\n", argc - 1);
  return 0;
}
#endif

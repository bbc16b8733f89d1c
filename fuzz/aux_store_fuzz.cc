// libFuzzer harness for the aux-store decoders: RelationHistory::Deserialize
// and ScalarSeries::Deserialize, columnar (v2) and row-oriented (v1) dumps —
// the bytes a checkpoint restore hands them.
//
// Invariants under fuzzing:
//   * Decoding NEVER crashes, aborts, trips a sanitizer or allocates without
//     bound on any byte sequence: a crafted dump comes back as a Status.
//   * A rejected dump leaves an empty RelationHistory.
//   * After a decode, reads stay in bounds, and the per-key index rebuilt
//     from the decoded bytes agrees with the scan: the keyed AsOf(t, key)
//     equals AsOf(t) filtered on the key (rows, order, and errors).
//
// Build modes mirror parser_fuzz.cc (fuzz/CMakeLists.txt): a real libFuzzer
// binary under clang with -DPTLDB_FUZZERS=ON, and a standalone corpus-replay
// runner everywhere else that doubles as a ctest regression gate.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "eval/aux_store.h"

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

void CheckScalarSeries(std::string_view input) {
  ptldb::eval::ScalarSeries series;
  ptldb::codec::Reader r(input);
  if (!series.Deserialize(&r).ok()) return;
  (void)series.Latest();
  std::vector<Timestamp> probes = {std::numeric_limits<Timestamp>::min(), -1,
                                   0, 1, 1000, kTimeMax};
  for (Timestamp t : probes) (void)series.AsOf(t);
  std::sort(probes.begin(), probes.end());
  std::vector<Value> out;
  (void)series.GatherAsOf(probes, &out);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  CheckRelationHistory(input, ptldb::db::Schema({{"sym", ValueType::kString},
                                                 {"px", ValueType::kInt64}}));
  CheckRelationHistory(input, ptldb::db::Schema({{"k", ValueType::kInt64},
                                                 {"v", ValueType::kDouble}}));
  CheckScalarSeries(input);
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

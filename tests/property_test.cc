// Parameterized and randomized property tests for invariants not already
// covered by the incremental-vs-naive oracle:
//
//   * WITHIN / HELDFOR against an independent direct specification over the
//     raw history (TEST_P over window widths and seeds);
//   * window aggregates against direct recomputation from the price path;
//   * total-order properties of Value::Compare on numerics;
//   * RelationHistory::AsOf against a linear-scan reference;
//   * printer/parser fixpoint on random formulas;
//   * Graph::Collect preserving semantics under random rewrite workloads.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "eval/aux_store.h"
#include "db/sql_parser.h"
#include "eval/incremental.h"
#include "formula_gen.h"
#include "ptl/parser.h"
#include "testutil.h"

namespace ptldb {
namespace {

using ptl::StateSnapshot;
using testutil::Rng;
using testutil::Snap;

// ---- WITHIN / HELDFOR vs direct specification --------------------------------

struct WindowCase {
  uint64_t seed;
  Timestamp width;
};

class WindowSpecTest : public ::testing::TestWithParam<WindowCase> {};

TEST_P(WindowSpecTest, WithinMatchesDirectSpec) {
  const auto& p = GetParam();
  Rng rng(p.seed);
  std::string condition =
      "WITHIN(price('X') >= 80, " + std::to_string(p.width) + ")";
  auto analysis = ptl::Analyze(*ptl::ParseFormula(condition));
  ASSERT_TRUE(analysis.ok());
  auto ev = eval::IncrementalEvaluator::Make(std::move(analysis).value());
  ASSERT_TRUE(ev.ok());

  std::vector<std::pair<Timestamp, int64_t>> states;  // (time, price)
  Timestamp now = 0;
  for (int i = 0; i < 300; ++i) {
    now += rng.Range(1, 4);
    int64_t price = rng.Range(0, 100);
    states.emplace_back(now, price);
    ASSERT_OK_AND_ASSIGN(
        bool fired,
        ev->Step(Snap(static_cast<size_t>(i), now, {}, {Value::Int(price)})));
    // Direct specification: exists a state within the last `width` ticks
    // (inclusive) whose price was >= 80.
    bool want = false;
    for (const auto& [t, v] : states) {
      if (t >= now - p.width && v >= 80) want = true;
    }
    ASSERT_EQ(fired, want) << condition << " at state " << i << " t=" << now;
  }
}

TEST_P(WindowSpecTest, HeldForMatchesDirectSpec) {
  const auto& p = GetParam();
  Rng rng(p.seed ^ 0x5555);
  std::string condition =
      "HELDFOR(price('X') >= 20, " + std::to_string(p.width) + ")";
  auto analysis = ptl::Analyze(*ptl::ParseFormula(condition));
  ASSERT_TRUE(analysis.ok());
  auto ev = eval::IncrementalEvaluator::Make(std::move(analysis).value());
  ASSERT_TRUE(ev.ok());

  std::vector<std::pair<Timestamp, int64_t>> states;
  Timestamp now = 0;
  for (int i = 0; i < 300; ++i) {
    now += rng.Range(1, 4);
    int64_t price = rng.Range(0, 100);
    states.emplace_back(now, price);
    ASSERT_OK_AND_ASSIGN(
        bool fired,
        ev->Step(Snap(static_cast<size_t>(i), now, {}, {Value::Int(price)})));
    // Direct specification: every state within the last `width` ticks
    // satisfies the predicate (the empty window is vacuously true, but the
    // current state is always in the window).
    bool want = true;
    for (const auto& [t, v] : states) {
      if (t >= now - p.width && v < 20) want = false;
    }
    ASSERT_EQ(fired, want) << condition << " at state " << i << " t=" << now;
  }
}

TEST_P(WindowSpecTest, WindowAggregatesMatchDirectRecomputation) {
  const auto& p = GetParam();
  Rng rng(p.seed ^ 0xabcd);
  // Sum and count via two conditions evaluated in lockstep against the spec.
  for (const char* fn : {"wsum", "wcount", "wmin", "wmax"}) {
    std::vector<std::pair<Timestamp, int64_t>> states;
    Timestamp now = 0;
    Rng local(p.seed ^ 0xabcd);
    for (int i = 0; i < 200; ++i) {
      now += local.Range(1, 3);
      int64_t price = local.Range(1, 50);
      states.emplace_back(now, price);
      // Direct recomputation of the aggregate over the window.
      double sum = 0;
      int64_t count = 0;
      double mn = 1e18, mx = -1e18;
      for (const auto& [t, v] : states) {
        if (t < now - p.width) continue;
        sum += static_cast<double>(v);
        ++count;
        mn = std::min(mn, static_cast<double>(v));
        mx = std::max(mx, static_cast<double>(v));
      }
      double want = std::string(fn) == "wsum"     ? sum
                    : std::string(fn) == "wcount" ? static_cast<double>(count)
                    : std::string(fn) == "wmin"   ? mn
                                                  : mx;
      // Assert via an equality condition: fn(q,w) = want.
      std::string condition = std::string(fn) + "(price('X'), " +
                              std::to_string(p.width) + ") = " +
                              std::to_string(want);
      auto analysis = ptl::Analyze(*ptl::ParseFormula(condition));
      ASSERT_TRUE(analysis.ok());
      auto ev = eval::IncrementalEvaluator::Make(std::move(analysis).value());
      ASSERT_TRUE(ev.ok());
      // Replay the whole history into a fresh evaluator (O(n^2) total; n is
      // small). The last step must satisfy the equality.
      bool fired = false;
      for (size_t j = 0; j < states.size(); ++j) {
        auto r = ev->Step(Snap(j, states[j].first, {},
                               {Value::Int(states[j].second)}));
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        fired = *r;
      }
      ASSERT_TRUE(fired) << condition << " after " << states.size()
                         << " states";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WindowSpecTest,
    ::testing::Values(WindowCase{1, 1}, WindowCase{2, 2}, WindowCase{3, 5},
                      WindowCase{4, 13}, WindowCase{5, 50}),
    [](const ::testing::TestParamInfo<WindowCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_w" +
             std::to_string(info.param.width);
    });

// ---- Value::Compare order properties -----------------------------------------

TEST(ValueOrderPropertyTest, TotalOrderOnNumerics) {
  Rng rng(77);
  auto random_numeric = [&rng]() {
    return rng.Chance(0.5)
               ? Value::Int(rng.Range(-50, 50))
               : Value::Real(static_cast<double>(rng.Range(-100, 100)) / 2.0);
  };
  for (int i = 0; i < 2000; ++i) {
    Value a = random_numeric(), b = random_numeric(), c = random_numeric();
    ASSERT_OK_AND_ASSIGN(int ab, Value::Compare(a, b));
    ASSERT_OK_AND_ASSIGN(int ba, Value::Compare(b, a));
    EXPECT_EQ(ab, -ba);  // antisymmetry
    ASSERT_OK_AND_ASSIGN(int bc, Value::Compare(b, c));
    ASSERT_OK_AND_ASSIGN(int ac, Value::Compare(a, c));
    if (ab <= 0 && bc <= 0) {
      EXPECT_LE(ac, 0);  // transitivity
    }
    if (ab >= 0 && bc >= 0) {
      EXPECT_GE(ac, 0);
    }
    ASSERT_OK_AND_ASSIGN(int aa, Value::Compare(a, a));
    EXPECT_EQ(aa, 0);  // reflexivity
  }
}

// ---- RelationHistory vs linear-scan reference ------------------------------

TEST(RelationHistoryPropertyTest, AsOfMatchesLinearScan) {
  Rng rng(123);
  const db::Schema schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}});
  for (int round = 0; round < 20; ++round) {
    eval::RelationHistory history(schema);
    // Reference: the live bag after every delta, in write order.
    std::vector<std::pair<Timestamp, db::Relation>> reference;
    std::vector<db::Tuple> live;
    Timestamp now = 0;
    for (int i = 0; i < 100; ++i) {
      now += rng.Range(0, 3);  // repeats allowed (same-instant rewrites)
      std::vector<db::Tuple> removed, added;
      for (int64_t n = rng.Range(0, 2); n > 0 && !live.empty(); --n) {
        const size_t at = rng.Below(live.size());
        removed.push_back(live[at]);
        live.erase(live.begin() + static_cast<long>(at));
      }
      for (int64_t n = rng.Range(0, 2); n > 0; --n) {
        added.push_back(
            {Value::Int(rng.Range(0, 3)), Value::Int(rng.Range(0, 5))});
        live.push_back(added.back());
      }
      ASSERT_OK(history.ApplyDelta(now, removed, added));
      reference.emplace_back(now, db::Relation(schema, live));
    }
    for (Timestamp probe = -1; probe <= now + 5; ++probe) {
      // Reference: the last write at or before the probe wins; before the
      // first write the relation was empty.
      db::Relation want(schema);
      for (const auto& [t, rel] : reference) {
        if (t <= probe) want = rel;
      }
      ASSERT_OK_AND_ASSIGN(db::Relation got, history.AsOf(probe));
      EXPECT_TRUE(got.BagEquals(want))
          << "probe " << probe << "\ngot " << got.ToString() << "\nwant "
          << want.ToString();
    }
  }
}

// ---- Printer / parser fixpoint -----------------------------------------------

TEST(PrinterPropertyTest, ToStringParsesBackToSamePrintedForm) {
  Rng rng(31337);
  testutil::FormulaGen gen(&rng);
  for (int round = 0; round < 200; ++round) {
    ptl::FormulaPtr f = gen.Gen(4);
    std::string printed = f->ToString();
    auto reparsed = ptl::ParseFormula(printed);
    ASSERT_TRUE(reparsed.ok())
        << reparsed.status().ToString() << "\nprinted: " << printed;
    EXPECT_EQ((*reparsed)->ToString(), printed);
  }
}

// ---- Parser fuzzing: random input never crashes, only errors -----------------

TEST(ParserFuzzTest, RandomInputNeverCrashes) {
  Rng rng(0xfeed);
  const std::string charset =
      "abcxyz01239 ()[]<>=!%$@;:.,*+-/'\"_ SINCEANDORNOTtime";
  for (int round = 0; round < 3000; ++round) {
    std::string input;
    size_t len = rng.Below(40);
    for (size_t i = 0; i < len; ++i) {
      input += charset[rng.Below(charset.size())];
    }
    // Either parses or returns a Status; must never crash or hang.
    auto f = ptl::ParseFormula(input);
    if (f.ok()) {
      // Whatever parsed must print and re-parse.
      auto again = ptl::ParseFormula((*f)->ToString());
      EXPECT_TRUE(again.ok()) << (*f)->ToString();
    }
  }
}

TEST(ParserFuzzTest, TokenSoupNeverCrashes) {
  Rng rng(0xbeef);
  const char* tokens[] = {"SELECT", "FROM",  "WHERE", "GROUP", "BY",
                          "ORDER",  "LIMIT", "JOIN",  "ON",    "AS",
                          "(",      ")",     ",",     "*",     "=",
                          "price",  "stock", "'x'",   "42",    "$p",
                          "COUNT",  "AND",   "OR",    "<",     "DISTINCT"};
  for (int round = 0; round < 3000; ++round) {
    std::string input;
    size_t len = rng.Below(25);
    for (size_t i = 0; i < len; ++i) {
      input += tokens[rng.Below(std::size(tokens))];
      input += " ";
    }
    auto q = db::ParseSql(input);
    (void)q;  // ok or error; no crash
  }
}

// ---- Collection preserves behaviour under random workloads --------------------

TEST(CollectPropertyTest, AggressiveCollectionNeverChangesFirings) {
  Rng rng(4242);
  testutil::FormulaGen gen(&rng);
  for (int round = 0; round < 15; ++round) {
    ptl::FormulaPtr f = gen.Gen(3);
    auto a1 = ptl::Analyze(f);
    auto a2 = ptl::Analyze(f);
    ASSERT_TRUE(a1.ok() && a2.ok());
    auto plain = eval::IncrementalEvaluator::Make(std::move(a1).value());
    auto collected = eval::IncrementalEvaluator::Make(std::move(a2).value());
    ASSERT_TRUE(plain.ok() && collected.ok());
    auto history = testutil::GenHistory(&rng, plain->analysis(), 60);
    for (const StateSnapshot& s : history) {
      ASSERT_OK_AND_ASSIGN(bool f1, plain->Step(s));
      ASSERT_OK_AND_ASSIGN(bool f2, collected->Step(s));
      ASSERT_EQ(f1, f2) << f->ToString();
      collected->MaybeCollect(/*threshold=*/1);
    }
  }
}

}  // namespace
}  // namespace ptldb

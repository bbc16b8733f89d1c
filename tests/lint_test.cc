// The rule linter: golden diagnostics per PTL0xx code, boundedness
// classification across the lattice, caret rendering, file-level linting,
// and the fold-soundness property: across randomly generated formulas, the
// folded condition fires exactly where the unfolded one does (checked
// against the reference evaluator on random histories).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "formula_gen.h"
#include "ptl/analyzer.h"
#include "ptl/diagnostics.h"
#include "ptl/lint.h"
#include "ptl/naive_eval.h"
#include "ptl/parser.h"
#include "testutil.h"

namespace ptldb {
namespace {

using ptl::Boundedness;
using ptl::DiagCode;
using ptl::Diagnostic;
using ptl::FormulaPtr;
using ptl::LintFormula;
using ptl::LintOptions;
using ptl::LintReport;
using ptl::Severity;
using ptl::SourceSpan;
using ptl::StateSnapshot;
using testutil::FormulaGen;
using testutil::GenHistory;
using testutil::Rng;

FormulaPtr Parse(std::string_view text) {
  auto f = ptl::ParseFormula(text);
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return f.ok() ? f.value() : nullptr;
}

LintReport Lint(std::string_view text) {
  return LintFormula(Parse(text));
}

const Diagnostic* FindCode(const LintReport& rep, DiagCode code) {
  for (const Diagnostic& d : rep.diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

// ---- The shared decision table ----------------------------------------------

TEST(DecideTimeAtom, FullTable) {
  using ptl::CmpOp;
  using ptl::TimeAtomFate;
  struct Row {
    CmpOp cmp;
    TimeAtomFate before, at, after;  // rel = -1, 0, +1
  };
  const Row kRows[] = {
      {CmpOp::kLe, TimeAtomFate::kUndecided, TimeAtomFate::kUndecided,
       TimeAtomFate::kSettlesFalse},
      {CmpOp::kLt, TimeAtomFate::kUndecided, TimeAtomFate::kSettlesFalse,
       TimeAtomFate::kSettlesFalse},
      {CmpOp::kGe, TimeAtomFate::kUndecided, TimeAtomFate::kSettlesTrue,
       TimeAtomFate::kSettlesTrue},
      {CmpOp::kGt, TimeAtomFate::kUndecided, TimeAtomFate::kUndecided,
       TimeAtomFate::kSettlesTrue},
      {CmpOp::kEq, TimeAtomFate::kUndecided, TimeAtomFate::kUndecided,
       TimeAtomFate::kSettlesFalse},
      {CmpOp::kNe, TimeAtomFate::kUndecided, TimeAtomFate::kUndecided,
       TimeAtomFate::kSettlesTrue},
  };
  for (const Row& row : kRows) {
    EXPECT_EQ(ptl::DecideTimeAtom(row.cmp, -1), row.before)
        << ptl::CmpOpToString(row.cmp);
    EXPECT_EQ(ptl::DecideTimeAtom(row.cmp, 0), row.at)
        << ptl::CmpOpToString(row.cmp);
    EXPECT_EQ(ptl::DecideTimeAtom(row.cmp, 1), row.after)
        << ptl::CmpOpToString(row.cmp);
  }
}

// ---- Golden diagnostics, one per code ---------------------------------------

TEST(LintDiagnostics, Ptl001UnboundedRetained) {
  const std::string src = "[x := q()] PREVIOUSLY (q() = x)";
  LintReport rep = Lint(src);
  EXPECT_EQ(rep.boundedness, Boundedness::kUnbounded);
  const Diagnostic* d = FindCode(rep, DiagCode::kUnboundedRetained);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(ptl::DiagCodeName(d->code), "PTL001");
  // The span covers the PREVIOUSLY subformula.
  EXPECT_EQ(src.substr(d->span.begin, d->span.end - d->span.begin),
            "PREVIOUSLY (q() = x)");
}

TEST(LintDiagnostics, Ptl002ContradictoryBoundGolden) {
  const std::string src =
      "[t := time] PREVIOUSLY (price(IBM) > 50 AND time >= t + 5)";
  LintReport rep = Lint(src);
  const Diagnostic* d = FindCode(rep, DiagCode::kContradictoryBound);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(
      ptl::RenderDiagnostic(*d, src),
      "PTL002 warning: time bound can never hold: past states have time <= "
      "the binder's capture, so this comparison is unsatisfiable\n"
      "  [t := time] PREVIOUSLY (price(IBM) > 50 AND time >= t + 5)\n"
      "                                              ^~~~~~~~~~~~~");
  // The contradiction folds the whole condition away.
  ASSERT_NE(rep.folded, nullptr);
  EXPECT_EQ(rep.folded->kind, ptl::Formula::Kind::kFalse);
  EXPECT_NE(FindCode(rep, DiagCode::kNeverFires), nullptr);
}

TEST(LintDiagnostics, Ptl003TautologicalBoundGolden) {
  const std::string src = "[t := time] THROUGHOUT_PAST (time <= t)";
  LintReport rep = Lint(src);
  const Diagnostic* d = FindCode(rep, DiagCode::kTautologicalBound);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(src.substr(d->span.begin, d->span.end - d->span.begin),
            "time <= t");
  ASSERT_NE(rep.folded, nullptr);
  EXPECT_EQ(rep.folded->kind, ptl::Formula::Kind::kTrue);
  EXPECT_NE(FindCode(rep, DiagCode::kAlwaysFires), nullptr);
}

TEST(LintDiagnostics, Ptl004ConstantSubformula) {
  LintReport rep = Lint("1 = 1 AND @e()");
  const Diagnostic* d = FindCode(rep, DiagCode::kConstantSubformula);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kNote);
  // `1 = 1` folds to true, the conjunction to its other arm.
  ASSERT_NE(rep.folded, nullptr);
  EXPECT_EQ(rep.folded->ToString(), "@e()");
  EXPECT_GT(rep.folded_nodes, 0u);
  EXPECT_FALSE(rep.has_errors());
}

TEST(LintDiagnostics, Ptl005NeverFires) {
  LintReport rep = Lint("@e() AND FALSE");
  const Diagnostic* d = FindCode(rep, DiagCode::kNeverFires);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_TRUE(rep.has_errors());
  EXPECT_EQ(rep.Count(Severity::kError), 1u);
}

TEST(LintDiagnostics, Ptl006AlwaysFires) {
  LintReport rep = Lint("2 > 1 OR @e()");
  const Diagnostic* d = FindCode(rep, DiagCode::kAlwaysFires);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_FALSE(rep.has_errors());
}

TEST(LintDiagnostics, CodeNamesAndSeverities) {
  EXPECT_EQ(ptl::DiagCodeName(DiagCode::kParseError), "PTL000");
  EXPECT_EQ(ptl::DiagCodeName(DiagCode::kAlwaysFires), "PTL006");
  EXPECT_EQ(ptl::DiagCodeSeverity(DiagCode::kParseError), Severity::kError);
  EXPECT_EQ(ptl::DiagCodeSeverity(DiagCode::kConstantSubformula),
            Severity::kNote);
}

// ---- Interval analysis corners ----------------------------------------------

TEST(LintIntervals, SameStateTimePointsCompareExactly) {
  // No temporal hop between binder and use: t == time exactly.
  LintReport rep = Lint("[t := time] (time = t)");
  ASSERT_NE(rep.folded, nullptr);
  EXPECT_EQ(rep.folded->kind, ptl::Formula::Kind::kTrue);

  rep = Lint("[t := time] (time > t)");
  EXPECT_EQ(rep.folded->kind, ptl::Formula::Kind::kFalse);
}

TEST(LintIntervals, HopMakesDifferenceNonPositive) {
  // One hop: inner time <= t, so `time <= t` is tautological...
  LintReport rep = Lint("[t := time] PREVIOUSLY (time <= t)");
  EXPECT_EQ(rep.folded->kind, ptl::Formula::Kind::kTrue);
  // ...but `time < t` is NOT decidable (the clock may not have moved).
  rep = Lint("[t := time] PREVIOUSLY (@e() AND time < t)");
  EXPECT_NE(rep.folded->kind, ptl::Formula::Kind::kTrue);
  EXPECT_NE(rep.folded->kind, ptl::Formula::Kind::kFalse);
  EXPECT_EQ(FindCode(rep, DiagCode::kContradictoryBound), nullptr);
}

TEST(LintIntervals, BoundedWindowAtomsAreNotFlagged) {
  // The §5 window encoding must never be folded: `time >= t - 10` is
  // satisfiable within the window and dead outside it.
  LintReport rep = Lint("[t := time] PREVIOUSLY (@e() AND time >= t - 10)");
  EXPECT_EQ(rep.diagnostics.size(), 0u);
  EXPECT_EQ(rep.folded_nodes, 0u);
}

TEST(LintIntervals, VariablesCancel) {
  LintReport rep = Lint("[x := q()] (x + 1 > x)");
  ASSERT_NE(rep.folded, nullptr);
  EXPECT_EQ(rep.folded->kind, ptl::Formula::Kind::kTrue);
  const Diagnostic* d = FindCode(rep, DiagCode::kConstantSubformula);
  ASSERT_NE(d, nullptr);
}

// ---- Boundedness lattice ----------------------------------------------------

struct BoundCase {
  const char* condition;
  Boundedness want;
};

class BoundednessTest : public ::testing::TestWithParam<BoundCase> {};

TEST_P(BoundednessTest, Classifies) {
  LintOptions opts;
  opts.fold = false;  // classify the condition as written
  LintReport rep = LintFormula(Parse(GetParam().condition), opts);
  EXPECT_EQ(rep.boundedness, GetParam().want)
      << GetParam().condition << " -> "
      << ptl::BoundednessToString(rep.boundedness);
}

INSTANTIATE_TEST_SUITE_P(
    Lattice, BoundednessTest,
    ::testing::Values(
        // No temporal operators at all.
        BoundCase{"price(IBM) > 50", Boundedness::kConstant},
        // Ground at the operator: instances collapse to sentinels.
        BoundCase{"@a() SINCE @b()", Boundedness::kConstant},
        BoundCase{"PREVIOUSLY (price(IBM) > 50)", Boundedness::kConstant},
        // Lasttime retains exactly one instance.
        BoundCase{"[x := q()] LASTTIME (q() = x)", Boundedness::kConstant},
        // §5 subsumption: one one-sided atom over a fixed symbolic side.
        BoundCase{"[x := q()] PREVIOUSLY (q() > x)", Boundedness::kConstant},
        // Window sugar carries its own prunable guard.
        BoundCase{"WITHIN(price(IBM) > 50, 5)", Boundedness::kTimeBounded},
        BoundCase{"HELDFOR(price(IBM) > 50, 5)", Boundedness::kTimeBounded},
        // Hand-written §5 window encoding.
        BoundCase{"[t := time] PREVIOUSLY (@e() AND time >= t - 10)",
                  Boundedness::kTimeBounded},
        // Parens scope the binder over the whole SINCE; without them the
        // binder captures per past state and the guard folds away.
        BoundCase{"[t := time] ((@a() AND time >= t - 2) SINCE @b())",
                  Boundedness::kTimeBounded},
        // Sliding-window aggregates retain the window.
        BoundCase{"wavg(q(), 20) > 7", Boundedness::kTimeBounded},
        // Equality atoms do not subsume; no guard: unbounded.
        BoundCase{"[x := q()] PREVIOUSLY (q() = x)", Boundedness::kUnbounded},
        // Two one-sided atoms on the same side do not collapse to one key.
        BoundCase{"[x := q()] [y := r()] PREVIOUSLY (q() > x AND r() > y)",
                  Boundedness::kUnbounded},
        // An unbounded operand dominates a bounded operator.
        BoundCase{"WITHIN([x := q()] PREVIOUSLY (q() = x), 5)",
                  Boundedness::kUnbounded}));

TEST(Boundedness, MaxBoundIsLattice) {
  EXPECT_EQ(ptl::MaxBound(Boundedness::kConstant, Boundedness::kTimeBounded),
            Boundedness::kTimeBounded);
  EXPECT_EQ(ptl::MaxBound(Boundedness::kUnbounded, Boundedness::kConstant),
            Boundedness::kUnbounded);
  EXPECT_STREQ(ptl::BoundednessToString(Boundedness::kTimeBounded),
               "time-bounded");
}

// ---- Caret rendering --------------------------------------------------------

TEST(Diagnostics, RenderCaret) {
  EXPECT_EQ(ptl::RenderCaret("abcdef", SourceSpan{2, 5}),
            "  abcdef\n    ^~~");
  // Invalid or out-of-range spans render nothing.
  EXPECT_EQ(ptl::RenderCaret("abc", SourceSpan{}), "");
  EXPECT_EQ(ptl::RenderCaret("abc", SourceSpan{7, 9}), "");
  // Multi-line: the line containing the span, clamped to it.
  EXPECT_EQ(ptl::RenderCaret("ab\ncdef\ngh", SourceSpan{3, 7}),
            "  cdef\n  ^~~~");
}

// ---- Folding controls -------------------------------------------------------

TEST(LintOptionsTest, NoFoldKeepsConditionButDiagnoses) {
  LintOptions opts;
  opts.fold = false;
  FormulaPtr f = Parse("1 = 1 AND @e()");
  LintReport rep = LintFormula(f, opts);
  EXPECT_EQ(rep.folded, f);  // untouched
  EXPECT_EQ(rep.folded_nodes, 0u);
  EXPECT_NE(FindCode(rep, DiagCode::kConstantSubformula), nullptr);
}

TEST(LintFold, SinceIdentities) {
  EXPECT_EQ(Lint("@e() SINCE TRUE").folded->kind, ptl::Formula::Kind::kTrue);
  EXPECT_EQ(Lint("@e() SINCE FALSE").folded->kind, ptl::Formula::Kind::kFalse);
  EXPECT_EQ(Lint("FALSE SINCE @e()").folded->ToString(), "@e()");
  EXPECT_EQ(Lint("TRUE SINCE @e()").folded->ToString(), "PREVIOUSLY (@e())");
  // LASTTIME TRUE is false at the first state: must NOT fold.
  EXPECT_EQ(Lint("LASTTIME TRUE").folded->ToString(), "LASTTIME (true)");
  EXPECT_EQ(Lint("LASTTIME FALSE").folded->kind, ptl::Formula::Kind::kFalse);
}

TEST(Lint, NullFormulaYieldsEmptyReport) {
  LintReport rep = LintFormula(nullptr);
  EXPECT_EQ(rep.boundedness, Boundedness::kConstant);
  EXPECT_TRUE(rep.diagnostics.empty());
  EXPECT_EQ(rep.folded, nullptr);
}

// ---- File-level linting -----------------------------------------------------

TEST(LintRulesText, ParsesNamesCommentsAndKeywords) {
  ptl::FileLintResult res = ptl::LintRulesText(
      "# comment\n"
      "\n"
      "hot := WITHIN(price(IBM) > 70, 10)\n"
      "trigger leak := [x := q()] PREVIOUSLY (q() = x)\n"
      "broken := price(\n");
  EXPECT_EQ(res.rules, 3u);
  EXPECT_EQ(res.errors, 1u);     // the parse failure
  EXPECT_EQ(res.warnings, 1u);   // PTL001 on leak
  EXPECT_EQ(res.unbounded, 1u);
  EXPECT_NE(res.rendered.find("hot (line 3): boundedness: time-bounded"),
            std::string::npos)
      << res.rendered;
  EXPECT_NE(res.rendered.find("PTL001"), std::string::npos);
  EXPECT_NE(res.rendered.find("PTL000"), std::string::npos);
  EXPECT_NE(res.rendered.find("3 rules: 1 error, 1 warning, 1 unbounded"),
            std::string::npos)
      << res.rendered;
}

TEST(LintRulesText, BareConditionAndBinderFirstLine) {
  // A line starting with a binder must not be mistaken for `name :=`.
  ptl::FileLintResult res =
      ptl::LintRulesText("[t := time] PREVIOUSLY (time >= t - 1)\n");
  EXPECT_EQ(res.rules, 1u);
  EXPECT_EQ(res.errors, 0u);
  EXPECT_NE(res.rendered.find("<line 1>"), std::string::npos) << res.rendered;
}

TEST(LintRulesText, SharesTheAnalyzerGrammar) {
  // Effect clauses split off the condition; names follow ptldb-analyze.
  ptl::FileLintResult res = ptl::LintRulesText(
      "trigger a := @x AND q() > 'a|b' | writes(t) raises(y)\n"
      "TRIGGER b := @x\n");
  ASSERT_EQ(res.entries.size(), 2u);
  EXPECT_EQ(res.entries[0].name, "a");
  EXPECT_EQ(res.entries[0].condition, "@x AND q() > 'a|b'");
  EXPECT_EQ(res.entries[0].parse_error, "");
  EXPECT_EQ(res.entries[1].parse_error, "bad rule name 'TRIGGER b'");
  EXPECT_EQ(res.errors, 1u);
}

TEST(LintRulesText, CheckedInRuleFilesParse) {
  for (const char* name : {"monitoring.rules", "feedback.rules"}) {
    std::ifstream in(std::string(PTLDB_RULESETS_DIR) + "/" + name);
    ASSERT_TRUE(in) << name;
    std::stringstream text;
    text << in.rdbuf();
    ptl::FileLintResult res = ptl::LintRulesText(text.str());
    EXPECT_GT(res.rules, 0u) << name;
    for (const auto& e : res.entries) {
      EXPECT_EQ(e.parse_error, "") << name << ": " << e.name;
    }
    EXPECT_EQ(res.errors, 0u) << res.rendered;
  }
}

// ---- Fold soundness (property) ----------------------------------------------

// For >= 200 random formulas: analyze the original and the folded condition,
// feed both reference evaluators the same world (slot values mapped by query
// spec), and require identical satisfaction at every state. This is the
// linter's soundness contract: folding never changes firing behavior.
TEST(LintFoldProperty, FoldedMatchesUnfoldedOnRandomHistories) {
  size_t tested = 0;
  size_t total_folded_nodes = 0;
  size_t formulas_with_folding = 0;
  for (uint64_t seed = 1; seed <= 70; ++seed) {
    Rng rng(seed * 0x9e3779b9ULL + 7);
    FormulaGen gen(&rng);
    for (int round = 0; round < 3; ++round) {
      int depth = 2 + static_cast<int>(seed % 3);
      FormulaPtr f = gen.Gen(depth);
      auto a_orig = ptl::Analyze(f);
      ASSERT_TRUE(a_orig.ok())
          << a_orig.status().ToString() << "\nformula: " << f->ToString();

      LintReport rep = LintFormula(f);
      ASSERT_NE(rep.folded, nullptr);
      total_folded_nodes += rep.folded_nodes;
      if (rep.folded_nodes > 0) ++formulas_with_folding;

      auto a_fold = ptl::Analyze(rep.folded);
      ASSERT_TRUE(a_fold.ok()) << a_fold.status().ToString() << "\nfolded: "
                               << rep.folded->ToString()
                               << "\noriginal: " << f->ToString();

      // Folding only removes query occurrences, so every folded slot must
      // exist in the original analysis; map by spec.
      std::vector<size_t> slot_map;
      for (const ptl::QuerySpec& spec : a_fold->slots) {
        size_t found = SIZE_MAX;
        for (size_t k = 0; k < a_orig->slots.size(); ++k) {
          if (a_orig->slots[k] == spec) {
            found = k;
            break;
          }
        }
        ASSERT_NE(found, SIZE_MAX)
            << "folded condition queries " << spec.ToString()
            << " which the original never evaluates";
        slot_map.push_back(found);
      }

      ptl::NaiveEvaluator naive_orig(&*a_orig);
      ptl::NaiveEvaluator naive_fold(&*a_fold);
      std::vector<StateSnapshot> history = GenHistory(&rng, *a_orig, 16);
      for (size_t i = 0; i < history.size(); ++i) {
        StateSnapshot mapped = history[i];
        mapped.query_values.clear();
        for (size_t k : slot_map) {
          mapped.query_values.push_back(history[i].query_values[k]);
        }
        naive_orig.Observe(history[i]);
        naive_fold.Observe(std::move(mapped));
        auto want = naive_orig.SatisfiedAtEnd();
        auto got = naive_fold.SatisfiedAtEnd();
        ASSERT_TRUE(want.ok())
            << want.status().ToString() << "\nformula: " << f->ToString();
        ASSERT_TRUE(got.ok()) << got.status().ToString()
                              << "\nfolded: " << rep.folded->ToString();
        ASSERT_EQ(*want, *got)
            << "fold changed firing at state " << i
            << "\noriginal: " << f->ToString()
            << "\nfolded:   " << rep.folded->ToString();
      }
      ++tested;
    }
  }
  EXPECT_GE(tested, 200u);
  // The property is vacuous if folding never engages on generated formulas.
  EXPECT_GT(formulas_with_folding, 0u);
  EXPECT_GT(total_folded_nodes, 0u);
}

}  // namespace
}  // namespace ptldb

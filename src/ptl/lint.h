// Static analysis over PTL formulas ("the rule linter").
//
// Three layered analyses, all purely syntactic over the AST (no database and
// no evaluator involved), designed to run at rule-registration time:
//
//  1. Retained-state boundedness. The §5 incremental evaluator retains one
//     symbolic formula per temporal subformula; depending on the shape of the
//     operands that state is
//       - `constant`:     instances are ground at capture (or collapse under
//                         the §5 one-sided-atom subsumption), so the retained
//                         formula never grows;
//       - `time-bounded`: every retained instance carries a time-bound atom
//                         on an outer `[t := time]` variable that the §5
//                         pruning pass eventually settles, so retained state
//                         is proportional to the window, not to history;
//       - `unbounded`:    instances stay symbolic forever (PTL001).
//
//  2. Time-bound satisfiability. Comparisons between time points (`time` and
//     `[x := time]` binder variables) are decided by interval arithmetic:
//     with no temporal operator between binder and use the two points are
//     equal; with at least one hop the used point lags the binder by some
//     d <= 0 (the clock is nondecreasing). Atoms that can never hold fold to
//     false (PTL002); atoms that always hold fold to true (PTL003).
//
//  3. Constant folding. Decided atoms and constant comparisons propagate
//     through the connectives and the temporal operators (PTL004/005/006),
//     shrinking the graph the evaluator has to retain. Folding preserves
//     firing behavior; it may only *strip* runtime type errors (a folded
//     branch is never evaluated, so a condition that would have errored can
//     instead fire normally).
//
// The linter tolerates free variables (rule-family parameters): they are
// substituted with constants before evaluation, so boundedness treats them
// as ground and the interval analysis treats them as unknown.

#ifndef PTLDB_PTL_LINT_H_
#define PTLDB_PTL_LINT_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "ptl/ast.h"
#include "ptl/diagnostics.h"

namespace ptldb::ptl {

/// Retained-state growth class, ordered as a lattice:
/// kConstant < kTimeBounded < kUnbounded.
enum class Boundedness { kConstant = 0, kTimeBounded = 1, kUnbounded = 2 };
const char* BoundednessToString(Boundedness b);
inline Boundedness MaxBound(Boundedness a, Boundedness b) {
  return a < b ? b : a;
}

/// Fate of a retained time atom `t cmp B` (t a time variable, B a ground
/// bound) as the clock advances. `rel` is the three-way comparison of the
/// current clock against B (<0, 0, >0). This is the single decision table
/// shared by the evaluator's §5 pruning pass (eval::Graph::PruneTimeBounds)
/// and the linter's guard analysis: all future substitutions of a time
/// variable are >= now.
enum class TimeAtomFate { kUndecided, kSettlesFalse, kSettlesTrue };
TimeAtomFate DecideTimeAtom(CmpOp cmp, int rel);

struct LintOptions {
  /// Rewrite provably-constant subformulas out of the condition. When off,
  /// the diagnostics are still produced but `folded` is the input formula.
  bool fold = true;
};

struct LintReport {
  Boundedness boundedness = Boundedness::kConstant;
  std::vector<Diagnostic> diagnostics;
  /// The condition after constant folding (the input when nothing folded).
  FormulaPtr folded;
  /// AST nodes eliminated by folding (input size - folded size).
  size_t folded_nodes = 0;

  bool has_errors() const;
  size_t Count(Severity s) const;
  /// All diagnostics rendered with carets into `source` (may be empty),
  /// joined with newlines. Empty when there are no diagnostics.
  std::string Render(std::string_view source) const;
};

/// Runs all analyses over `f`. Null input yields an empty report.
LintReport LintFormula(const FormulaPtr& f, const LintOptions& opts = {});

/// One rule line of a rule file, split but not parsed; the views point into
/// the text given to SplitRuleLines. ptldb-lint and ptldb-analyze share this
/// grammar, one rule per line:
///
///   [trigger|ic] [name :=] condition [| effects]
///
/// Blank lines and `#` comments are skipped. A `:=` names the rule only when
/// no `[` precedes it, so a bare condition may open with a binder. The `|`
/// separator is recognized outside string literals only; the effect clause
/// itself is the analyzer's (analysis::ParseRuleSetText).
struct RuleLine {
  size_t line = 0;  // 1-based line number in the input
  bool is_ic = false;
  std::string_view name;  // empty for a bare condition
  std::string_view condition;
  bool has_effects = false;  // a `|` clause follows the condition
  std::string_view effects;
  std::string error;  // non-empty when the line is malformed (bad name)
};
std::vector<RuleLine> SplitRuleLines(std::string_view text);

/// True for a C-style identifier: [A-Za-z_][A-Za-z0-9_]*.
bool IsIdentifier(std::string_view s);

/// Lints a rule file (SplitRuleLines grammar) for the ptldb-lint CLI: each
/// rule's condition; effect clauses are left to ptldb-analyze.
struct FileLintResult {
  /// One structured entry per rule line, for machine-readable output
  /// (`ptldb-lint --json`). `parse_error` is non-empty when the condition
  /// failed to parse (and `report` is empty).
  struct RuleLint {
    std::string name;       // declared name or "<line N>"
    size_t line = 0;        // 1-based line number in the input
    std::string condition;  // condition source text (diagnostic spans)
    std::string parse_error;
    LintReport report;
  };

  std::string rendered;
  std::vector<RuleLint> entries;
  size_t rules = 0;
  size_t errors = 0;    // parse errors + error-severity diagnostics
  size_t warnings = 0;
  size_t unbounded = 0; // rules classified Boundedness::kUnbounded
};
FileLintResult LintRulesText(std::string_view text,
                             const LintOptions& opts = {});

}  // namespace ptldb::ptl

#endif  // PTLDB_PTL_LINT_H_

// Whole-rule-set static analysis: triggering graphs, termination, confluence.
//
// PR 5's `ptl::Lint` analyzes each rule in isolation; this module analyzes
// the *population*. Every rule is a node; there is an edge A -> B when A's
// declared action effects (effects.h) can make B's condition rise at a state
// A appends — B's read set is extracted from the condition AST: query slots
// (resolved to the relations they scan), event atoms, `@executed(...)`
// references, and a conservative "any appended state" class for conditions
// that are clock-sensitive (contain `time`, aggregates, or LASTTIME),
// level-triggered, or absence-triggered (an event atom or past operator in
// non-positive polarity can rise when a state *omits* its atoms).
//
// Termination (Aiken/Widom-style): Tarjan SCCs over the graph. A cycle is
// reported PTL200 (strict registration rejects) unless every edge in it is
// *cut*: the target rule is edge-triggered and carries a conjunctive time
// guard the interval analysis proves settles false (`time <= C` shapes) —
// history timestamps strictly increase, so only finitely many states can
// satisfy the guard and the cascade must die out. A cycle whose every edge
// is cut is reported PTL201 (proved terminating).
//
// Confluence: rules conflict when one's writes intersect the other's reads
// or writes, or when one appends history states at all and the other's
// condition can rise at any appended state (clock-sensitive conditions see
// different transition points when batching moves where those states land);
// the conflict relation partitions the set (union-find). A rule
// whose whole partition is effect-free (and which has default priority and
// no execution recording) is certified *batching-commutative*: the server
// may evaluate it under any batch boundary placement with byte-identical
// firings. The differential harness's served arm consumes this certificate.

#ifndef PTLDB_ANALYSIS_RULESET_H_
#define PTLDB_ANALYSIS_RULESET_H_

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "analysis/effects.h"
#include "common/json.h"
#include "common/status.h"
#include "ptl/ast.h"
#include "ptl/diagnostics.h"
#include "ptl/lint.h"

namespace ptldb::analysis {

/// One rule as the analyzer sees it. The engine builds these from its
/// registered population (resolving query names to scanned relations); the
/// `ptldb-analyze` CLI builds them from a rule file (where a query name *is*
/// the relation it reads).
struct RuleDecl {
  std::string name;
  ptl::FormulaPtr condition;  // grounded (family params substituted)
  std::string source;         // condition text, for caret rendering ("" ok)
  EffectSet effects;          // declared effects; derived ones are added
  bool effects_declared = false;  // false: unknown action, assume worst case
  bool is_ic = false;             // integrity constraint (vetoes, no action)
  bool is_system = false;         // engine-generated (aggregate rewrite)
  bool level_triggered = false;   // fires on every satisfied state
  bool record_execution = false;  // appends to __executed + raises @executed
  int priority = 0;
  ptl::Boundedness boundedness = ptl::Boundedness::kConstant;
};

/// What a condition can observe, extracted from its AST.
struct ReadSet {
  std::set<std::string> tables;     // relations read via query slots
  std::set<std::string> events;     // user event atoms
  std::set<std::string> row_event_tables;  // @insert/@update/@delete(t) atoms
  std::set<std::string> executed_rules;    // @executed("r") refinements
  bool executed_any = false;  // @executed with non-constant/missing rule arg
  bool row_event_any = false; // row-event atom with non-constant table arg
  /// Condition can rise at *any* appended state: clock-sensitive (`time`,
  /// aggregates, LASTTIME), txn-control atoms, level triggering, or an
  /// absence-triggered (non-positive polarity) event atom / past operator.
  bool any_state = false;

  bool empty() const {
    return tables.empty() && events.empty() && row_event_tables.empty() &&
           executed_rules.empty() && !executed_any && !row_event_any &&
           !any_state;
  }
};

struct Edge {
  size_t from = 0;
  size_t to = 0;
  std::string reason;  // e.g. "writes relation 'stock' read by condition"
  /// Edge cannot sustain an unbounded cascade: the target is edge-triggered
  /// behind a time guard that permanently settles false.
  bool cut = false;
  std::string cut_reason;
  /// Lint boundedness of the target's retained state, as edge annotation.
  ptl::Boundedness target_bound = ptl::Boundedness::kConstant;
};

struct CycleInfo {
  std::vector<size_t> rules;  // SCC members, in rule order
  bool proven = false;        // every internal edge cut -> terminates
};

/// Per-rule analysis results, parallel to the decl list.
struct RuleReport {
  ReadSet reads;
  EffectSet effects;  // effective: declared + derived (__executed, abort)
  bool effects_declared = false;
  int partition = -1;       // confluence class (index of smallest member)
  bool commutative = false; // certified batching-commutative
  std::string commutative_reason;  // why not, "" when certified
  bool in_flagged_cycle = false;
  std::vector<ptl::Diagnostic> diagnostics;  // PTL2xx, spans into source
};

struct SetReport {
  std::vector<RuleDecl> decls;
  std::vector<RuleReport> rules;  // parallel to decls
  std::vector<Edge> edges;
  std::vector<CycleInfo> cycles;  // non-trivial SCCs, flagged or proven
  size_t flagged_cycles = 0;
  size_t proven_cycles = 0;
  size_t commutative_rules = 0;
  size_t partitions = 0;

  const RuleReport* Find(const std::string& name) const;
  bool has_flagged_cycles() const { return flagged_cycles > 0; }

  /// Human-readable report: per-rule effects/reads/certificates, the edge
  /// list, and rendered PTL2xx diagnostics with carets into rule sources.
  std::string ToText() const;
  /// Stable machine-readable report (the golden-file format).
  json::Json ToJson() const;
  /// Graphviz: flagged-cycle members red, commutative rules green, cut
  /// edges dashed.
  std::string ToDot() const;
};

struct AnalyzeOptions {
  /// Resolves a query symbol to the relations it scans. When unset, the
  /// query name itself is taken as the relation (file mode, tests).
  std::function<std::vector<std::string>(const std::string&)> tables_of;
};

/// Runs the whole analysis. Never fails: unparseable inputs are the
/// caller's problem (decls carry ASTs, not text).
SetReport AnalyzeRuleSet(std::vector<RuleDecl> decls,
                         const AnalyzeOptions& opts = {});

/// Extracts one condition's read set (exposed for tests).
ReadSet ExtractReadSet(const ptl::FormulaPtr& f, const AnalyzeOptions& opts,
                       bool level_triggered);

/// True when the condition carries a conjunctive `time <= C`-shaped guard
/// that the interval analysis proves settles false as the clock advances
/// (exposed for tests).
bool HasSettlingTimeGuard(const ptl::FormulaPtr& f);

/// Rule-file front end for `ptldb-analyze` and the fuzzer. Lines split by
/// ptl::SplitRuleLines (the grammar ptldb-lint shares); this parses the
/// declared-effect clause after the condition:
///
///   [trigger|ic] [name :=] condition [| effects]
///   effects := writes(a b ...) | raises(e ...) | abort | pure | level
///            | record | priority=N   (space separated, any order)
///
/// `ic` lines abort implicitly. A trigger line without a `|` clause has
/// *undeclared* effects (the analyzer assumes the worst, PTL202); `pure`
/// declares the empty set. Unnamed rules are called rule1, rule2, ...
struct ParsedRuleSet {
  std::vector<RuleDecl> decls;
  /// One entry per malformed line: rendered parse error with caret.
  std::vector<std::string> errors;
};
ParsedRuleSet ParseRuleSetText(std::string_view text);

}  // namespace ptldb::analysis

#endif  // PTLDB_ANALYSIS_RULESET_H_

// The rule engine — the paper's "temporal component".
//
// Implements the CA rule model of §3 on top of the database substrate:
//
//   * Triggers: PTL condition + action. The engine listens to every appended
//     system state (§8: "whenever an event occurs the DBMS invokes the
//     temporal component"), evaluates each rule's condition incrementally,
//     and runs the actions of fired rules.
//   * Integrity constraints: rules whose action is abort(X), evaluated at
//     attempts-to-commit (TCA coupling). The engine probes the constraint
//     against the prospective commit state using evaluator checkpoints and
//     vetoes the commit on violation.
//   * Rule families (the paper's free-variable rules): a domain query
//     enumerates parameter tuples; the engine lazily instantiates one
//     incremental evaluator per tuple — the §6.1.1 "multiple database items,
//     indexed with different values for the free variables" generalized to
//     whole rules. Fired actions receive their instance's parameters.
//   * The §7 `executed` machinery: every completed action is recorded in the
//     queryable `__executed` table and announced with an `@executed(rule)`
//     event, so composite/temporal actions are programmed as ordinary rules
//     over that relation (see examples/composite_actions.cc).
//   * The §8 event-relevance filter: a rule marked `event_filtered` is only
//     stepped on states carrying one of the events its condition mentions.
//     This is the paper's ECA-efficiency recovery; like the paper's, it is an
//     approximation — conditions that must observe every state (Lasttime, or
//     time-window formulas that expire silently) should leave it off, and the
//     engine refuses it for conditions using Lasttime.
//   * §6 aggregates: evaluated directly by default (in-evaluator machines) or
//     via the §6.1.1 rewriting (`AggregateMode::kRewrite`), which materializes
//     auxiliary items as real single-row tables and generated reset/accumulate
//     system rules. Both modes observe identical values at every state.

#ifndef PTLDB_RULES_ENGINE_H_
#define PTLDB_RULES_ENGINE_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "agg/rewriter.h"
#include "analysis/ruleset.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "db/database.h"
#include "eval/incremental.h"
#include "ptl/analyzer.h"
#include "ptl/lint.h"
#include "ptl/parser.h"
#include "rules/provenance.h"
#include "rules/query_registry.h"

namespace ptldb::rules {

/// How temporal aggregates in a condition are processed.
enum class AggregateMode {
  kDirect,   // in-evaluator accumulator machines (default)
  kRewrite,  // §6.1.1 auxiliary items + reset/accumulate rules
};

struct RuleOptions {
  /// §8 relevance filter: step this rule only on states carrying one of the
  /// events its condition mentions. Off by default (see header caveat).
  bool event_filtered = false;

  AggregateMode aggregate_mode = AggregateMode::kDirect;

  /// Actions of rules fired at the same state run in ascending priority
  /// (ties: registration order).
  int priority = 0;

  /// Record fired actions in `__executed` and raise `@executed(name)`.
  /// On by default; heavy-traffic rules may opt out.
  bool record_execution = true;

  /// When false (default) the action runs only on a false->true transition of
  /// the condition (edge-triggered). When true it runs at *every* state where
  /// the condition is satisfied — beware: combined with record_execution this
  /// re-enters the rule at the @executed state and loops if the condition is
  /// still true (the engine cuts such loops off at a depth limit and reports
  /// an error). Integrity constraints always veto at every violating commit.
  bool level_triggered = false;

  /// Declared action effects (analysis/ruleset.h): the relations the action
  /// writes, the events it raises. Feeds the whole-rule-set triggering graph
  /// — an undeclared action is analyzed as a worst-case writer (PTL202) that
  /// edges into every rule. Declarations are trusted by the analyzer and
  /// therefore validated at runtime while effect validation is on (debug
  /// default): an action observed writing or raising outside its declaration
  /// aborts the process. The `__executed` write and `@executed` raise of
  /// record_execution are derived automatically — do not declare them.
  std::optional<analysis::EffectSet> effects = std::nullopt;
};

/// Everything an action may consult when it runs.
class ActionContext {
 public:
  ActionContext(db::Database* database, std::string rule,
                const std::map<std::string, Value>* params, Timestamp fired_at)
      : database_(database),
        rule_(std::move(rule)),
        params_(params),
        fired_at_(fired_at) {}

  db::Database& database() const { return *database_; }
  const std::string& rule() const { return rule_; }
  /// Family parameters (empty for plain rules).
  const std::map<std::string, Value>& params() const { return *params_; }
  /// Binding for one parameter; Null when absent.
  Value param(const std::string& name) const {
    auto it = params_->find(name);
    return it == params_->end() ? Value::Null() : it->second;
  }
  /// Timestamp of the state at which the condition was satisfied.
  Timestamp fired_at() const { return fired_at_; }

 private:
  db::Database* database_;
  std::string rule_;
  const std::map<std::string, Value>* params_;
  Timestamp fired_at_;
};

using ActionFn = std::function<Status(ActionContext&)>;

/// One fired-rule record (also the shape of `__executed` rows).
struct Firing {
  std::string rule;
  std::string params;  // canonical rendering, "" for plain rules
  Timestamp time = 0;
};

struct EngineStats {
  uint64_t states_processed = 0;
  uint64_t rule_steps = 0;
  uint64_t steps_skipped_by_filter = 0;
  uint64_t queries_evaluated = 0;
  uint64_t actions_executed = 0;
  uint64_t ic_checks = 0;
  uint64_t ic_violations = 0;
  uint64_t instances_created = 0;
  /// Parallel regions actually fanned out over the shard pool.
  uint64_t parallel_dispatches = 0;
  /// Ground-query evaluations answered from the per-pass memo.
  uint64_t query_memo_hits = 0;
  /// Whole query_values vectors reused because another instance in the same
  /// pass had an identical slot layout (cross-rule snapshot sharing).
  uint64_t snapshot_layout_hits = 0;
  /// Node-store collections across all rule instances (proves the
  /// bounded-state policy engages on long runs).
  uint64_t collections = 0;
  /// Action and internal errors reported (see TakeErrors).
  uint64_t errors = 0;
};

/// EngineStats' field table. A checkpoint carries the persisted rows in
/// table order, so reordering or inserting one changes the checkpoint bytes.
inline constexpr StatRow<EngineStats> kEngineStatRows[] = {
    {"engine.states_processed", &EngineStats::states_processed,
     StatKind::kPersisted},
    {"engine.rule_steps", &EngineStats::rule_steps, StatKind::kPersisted},
    {"engine.steps_skipped_by_filter", &EngineStats::steps_skipped_by_filter,
     StatKind::kPersisted},
    {"query.evals", &EngineStats::queries_evaluated, StatKind::kPersisted},
    {"engine.actions_executed", &EngineStats::actions_executed,
     StatKind::kPersisted},
    {"engine.ic_checks", &EngineStats::ic_checks, StatKind::kPersisted},
    {"engine.ic_violations", &EngineStats::ic_violations,
     StatKind::kPersisted},
    {"engine.instances_created", &EngineStats::instances_created,
     StatKind::kPersisted},
    {"engine.parallel_dispatches", &EngineStats::parallel_dispatches,
     StatKind::kPersisted},
    {"query.memo_hits", &EngineStats::query_memo_hits, StatKind::kPersisted},
    {"engine.collections", &EngineStats::collections, StatKind::kPersisted},
    {"query.snapshot_layout_hits", &EngineStats::snapshot_layout_hits},
    {"engine.errors", &EngineStats::errors},
};

class RuleEngine : public db::Database::Listener {
 public:
  /// Attaches to `database` (becomes its listener) and creates the
  /// `__executed` table. The database must outlive the engine.
  explicit RuleEngine(db::Database* database);
  ~RuleEngine() override;

  RuleEngine(const RuleEngine&) = delete;
  RuleEngine& operator=(const RuleEngine&) = delete;

  QueryRegistry& queries() { return registry_; }
  const QueryRegistry& queries() const { return registry_; }

  // ---- Rule registration ----

  /// Adds a trigger with a PTL condition given as text.
  Status AddTrigger(const std::string& name, std::string_view condition,
                    ActionFn action, RuleOptions options = {});

  /// Adds a trigger with an already-built condition.
  Status AddTriggerFormula(const std::string& name, ptl::FormulaPtr condition,
                           ActionFn action, RuleOptions options = {});

  /// Adds a temporal integrity constraint: `constraint` must hold at every
  /// commit point; a violating transaction is aborted (§3: a rule with
  /// condition attempts_to_commit(X) AND NOT constraint, action abort(X)).
  Status AddIntegrityConstraint(const std::string& name,
                                std::string_view constraint);

  /// Adds an integrity constraint with an already-built formula.
  Status AddIntegrityConstraintFormula(const std::string& name,
                                       ptl::FormulaPtr constraint);

  /// Adds a rule family: `domain_sql` enumerates parameter tuples; its i-th
  /// output column binds the parameter `param_names[i]` in `condition` (and
  /// is visible to the action via ActionContext::params()). An instance's
  /// history begins at the state where its tuple first appears in the domain.
  Status AddTriggerFamily(const std::string& name, std::string_view domain_sql,
                          std::vector<std::string> param_names,
                          std::string_view condition, ActionFn action,
                          RuleOptions options = {});

  /// Adds a rule family with an already-built condition.
  Status AddTriggerFamilyFormula(const std::string& name,
                                 std::string_view domain_sql,
                                 std::vector<std::string> param_names,
                                 ptl::FormulaPtr condition, ActionFn action,
                                 RuleOptions options = {});

  /// Removes a rule (and its instances / generated system rules).
  Status RemoveRule(const std::string& name);

  // ---- §8 batched invocation ----

  /// With `batch_size` > 1, trigger evaluation is deferred: each state's
  /// query slots are captured immediately (so conditions still observe the
  /// correct database states) but evaluator stepping and action execution
  /// happen once `batch_size` states have accumulated, or at Flush(). The
  /// paper: "the temporal component invocation can be executed for multiple
  /// events at the same time... trigger firing may be delayed, but not go
  /// unrecognized." Integrity constraints are unaffected (they must veto the
  /// committing transaction synchronously).
  void SetBatching(size_t batch_size) { batch_size_ = batch_size; }

  /// Evaluates all buffered states now. No-op when nothing is buffered.
  Status Flush();

  // ---- Sharded evaluation ----

  /// Shards rule-instance stepping across `n` threads (1 = serial, the
  /// default; 0 is treated as 1). Query snapshots are always captured
  /// serially — conditions observe the database single-threaded — and only
  /// evaluator stepping fans out: every instance's evaluator owns a private
  /// and-or Graph, so a shard (the set of instances one pool thread claims)
  /// never shares hash-consed nodes with another. Step results merge back in
  /// canonical (registration order, instance-creation order), so an N-thread
  /// engine produces the identical action sequence, `__executed` contents,
  /// and IC commit/abort verdicts as the serial one. This also parallelizes
  /// TCA probing (integrity constraints at commit attempts) and batched
  /// Flush(), which steps its buffered states one at a time, each state's
  /// instances fanned out like an unbatched update. Cannot be called from
  /// within a rule action.
  Status SetThreads(size_t n);
  size_t threads() const { return num_threads_; }

  // ---- Static analysis at registration ----

  /// Strict registration: a rule whose lint report carries an error-severity
  /// diagnostic (PTL000/PTL005) or whose retained state is classified
  /// `unbounded` (PTL001) is rejected with InvalidArgument; the message
  /// embeds the rendered report. Off by default. Only affects rules added
  /// while the mode is on.
  void SetStrictRegistration(bool on) { strict_registration_ = on; }
  bool strict_registration() const { return strict_registration_; }

  /// Constant folding of registered conditions: provably-constant
  /// subformulas (decided time bounds, ground comparisons, degenerate
  /// temporal operators) are rewritten out before the evaluator sees the
  /// condition. On by default; turn off to evaluate conditions verbatim
  /// (diagnostics are still produced either way). Only affects rules added
  /// while the mode is set.
  void SetLintFolding(bool on) { lint_folding_ = on; }
  bool lint_folding() const { return lint_folding_; }

  /// The registration-time lint report of one rule, rendered with carets
  /// into the rule's source text (when it was registered from text).
  /// RestoreRetainedState overwrites the stored report with the one
  /// persisted at original registration, so the rendering is stable across
  /// a checkpoint/restore even when the restoring process registered an
  /// already-folded condition.
  Result<std::string> Lint(const std::string& name) const;

  // ---- Whole-rule-set static analysis (analysis/ruleset.h) ----

  /// Analyzes the registered population: declared/derived action effects,
  /// the triggering graph (edges where one rule's effects intersect
  /// another's condition read set), termination verdicts over its cycles
  /// (PTL200 flagged / PTL201 proven), and the confluence partition with
  /// batching-commutativity certificates. Query symbols resolve to the
  /// relations their registered plans scan; family conditions are analyzed
  /// with their parameters free (the read-set walk ignores them). The
  /// report is cached and recomputed after the rule set changes.
  ///
  /// Under strict registration (SetStrictRegistration) a rule whose
  /// addition creates a flagged cycle — one the termination analysis cannot
  /// prove finite — is rolled back and rejected with InvalidArgument, in
  /// addition to the per-rule lint bar.
  const analysis::SetReport& AnalyzeRuleSet() const;

  /// Runtime validation of declared action effects: while on, every state
  /// appended during an action is attributed to the innermost running
  /// action, and when a rule that declared effects finishes, the observed
  /// writes/raises are CHECKed against the declaration — the process aborts
  /// on a lie, because a wrong declaration silently poisons the triggering
  /// graph. On by default in debug builds (assert-style), off in NDEBUG.
  void SetEffectValidation(bool on) { validate_effects_ = on; }
  bool effect_validation() const { return validate_effects_; }

  /// Cascade tracking: while on, records a (triggering rule, fired rule)
  /// pair whenever an action runs with another rule's action on the
  /// dispatch stack — the runtime ground truth the triggering graph must
  /// over-approximate (property-tested). Off by default.
  void SetCascadeTracking(bool on) { track_cascades_ = on; }
  /// Recorded cascade pairs since the last call.
  std::vector<std::pair<std::string, std::string>> TakeCascades();

  // ---- Retained-state collection policy ----

  /// Node-store size above which an instance's and-or graph is compacted
  /// after stepping. Collections run post-merge on paths where no evaluator
  /// checkpoint is outstanding (the hypothetical IC probe defers; the commit
  /// of the probed state collects instead). Lower values trade collection
  /// work for a tighter memory bound.
  void SetCollectThreshold(size_t nodes) { collect_threshold_ = nodes; }
  size_t collect_threshold() const { return collect_threshold_; }

  // ---- Observability ----

  /// Attaches a metrics registry (nullptr detaches). The engine times its
  /// phases into histograms and registers a provider that, at each snapshot,
  /// publishes stats() and derived gauges (per-rule retained nodes,
  /// pool/queue state, evaluator totals). Detaching and destruction publish
  /// once more. The registry must outlive the engine or be detached first.
  void SetMetrics(Metrics* metrics);
  Metrics* metrics() const { return metrics_; }

  /// Multi-line EXPLAIN of one rule: per instance, the retained F_{g,i}
  /// formula of every temporal subformula (built on the evaluator's
  /// DebugString) plus node/step/collection accounting.
  Result<std::string> Explain(const std::string& name) const;

  /// Attaches a trace recorder (nullptr detaches). While the recorder is
  /// enabled the engine emits phase/rule-step/recurrence spans, one JSONL
  /// update record per stepped instance (the replayable provenance stream),
  /// and captures a firing witness per rule for `Why`. With the recorder
  /// detached or disabled the per-update cost is a handful of branches. The
  /// recorder must outlive the engine or be detached first.
  void SetTrace(trace::Recorder* recorder) { trace_ = recorder; }
  trace::Recorder* trace() const { return trace_; }

  /// Human-readable account of the most recent firing of `name`: the state
  /// it fired at and the witness chain through its temporal subformulas.
  /// NotFound when no such rule exists or it has never fired; if it fired
  /// without tracing enabled, explains how to capture a witness.
  Result<std::string> Why(const std::string& name) const;

  // ---- Introspection ----

  /// A point-in-time description of one rule.
  struct RuleInfo {
    std::string name;
    std::string condition;
    bool is_ic = false;
    bool is_system = false;
    bool is_family = false;
    /// The rule's RuleOptions::level_triggered (offline checker semantics).
    bool level_triggered = false;
    size_t num_instances = 0;
    std::vector<std::string> event_names;
    /// Sum of retained graph nodes over instances (the §5 state).
    size_t retained_nodes = 0;
    /// Sum of backing node-store sizes over instances (>= retained_nodes;
    /// the gap is what a collection reclaims).
    size_t store_nodes = 0;
    /// Total evaluator steps over instances.
    uint64_t steps = 0;
    /// Node-store collections over instances.
    uint64_t collections = 0;
    /// Times this rule's action ran (ICs: times it vetoed a commit).
    uint64_t fires = 0;
    /// Registration-time lint results (see ptl/lint.h).
    ptl::Boundedness boundedness = ptl::Boundedness::kConstant;
    size_t lint_diagnostics = 0;
    /// AST nodes the registration-time fold removed from the condition.
    size_t folded_nodes = 0;
  };

  Result<RuleInfo> Describe(const std::string& name) const;

  // ---- Durability (src/storage) ----

  /// Observer of firing decisions. OnFiring is invoked for every action the
  /// engine decides to run (before the action executes) and OnIcVeto for
  /// every vetoed commit, both in execution order — the decision stream the
  /// WAL persists and recovery compares against as a differential oracle.
  class FiringObserver {
   public:
    virtual ~FiringObserver() = default;
    virtual void OnFiring(const Firing& firing) = 0;
    virtual void OnIcVeto(int64_t txn, Timestamp time,
                          const std::vector<std::string>& violated_rules) = 0;
  };
  void SetFiringObserver(FiringObserver* observer) {
    firing_observer_ = observer;
  }

  /// WAL replay mode: conditions are evaluated and firing decisions are
  /// recorded exactly as live (observer, counters, TakeFirings), but actions
  /// do not run and executions are not re-recorded — their database effects
  /// arrive as logged states/deltas from the WAL, and external side effects
  /// must not repeat across a recovery (exactly-once actions).
  void SetReplayMode(bool on) { replay_mode_ = on; }
  bool replay_mode() const { return replay_mode_; }

  /// Accounting for an IC veto observed in the WAL during replay (no commit
  /// attempt is re-issued, so Describe/stats fidelity needs the bump).
  void NoteReplayedIcVeto(const std::vector<std::string>& violated_rules);

  /// Invoked after every top-level update completes (dispatch depth back at
  /// zero). The durability manager schedules checkpoint-every-N here —
  /// serializing mid-dispatch would capture a half-stepped engine.
  void SetPostUpdateHook(std::function<void()> hook) {
    post_update_hook_ = std::move(hook);
  }

  /// Serializes every rule's retained evaluation state — per-instance
  /// F_{g,i} graphs, aggregate machines, firing counters — keyed by rule
  /// name and instance parameters. Rules themselves are code: the
  /// application re-registers them before RestoreRetainedState, which
  /// validates each rule's condition against the dump. Fails mid-dispatch
  /// or with batched states pending (Flush first).
  Status SerializeRetainedState(codec::Writer* w) const;
  Status RestoreRetainedState(codec::Reader* r);

  const EngineStats& stats() const { return stats_; }
  /// Firings since the last call (actions that ran, in execution order).
  std::vector<Firing> TakeFirings();
  /// Action and internal errors since the last call.
  std::vector<Status> TakeErrors();
  /// Name of every registered rule (including generated system rules).
  std::vector<std::string> RuleNames() const;

  // ---- db::Database::Listener ----

  Status OnCommitAttempt(const event::SystemState& prospective,
                         int64_t txn) override;
  void OnStateAppended(const event::SystemState& state) override;

  /// Name of the §7 execution-log table.
  static constexpr const char* kExecutedTable = "__executed";

 private:
  struct Instance {
    std::map<std::string, Value> params;
    std::string params_key;  // canonical rendering
    eval::IncrementalEvaluator ev;
    size_t last_seq = SIZE_MAX;

    Instance(std::map<std::string, Value> p, std::string key,
             eval::IncrementalEvaluator e)
        : params(std::move(p)), params_key(std::move(key)), ev(std::move(e)) {}
  };

  struct Rule {
    std::string name;
    ptl::FormulaPtr condition;  // post-fold/rewrite, pre-param-substitution
    ActionFn action;            // null for ICs and system rules
    RuleOptions options;
    // Condition source text when registered from text ("" for built ASTs);
    // lint diagnostics render their carets into it.
    std::string source;
    // Registration-time static analysis of the (pre-rewrite) condition.
    ptl::LintReport lint;
    // Event names the condition mentions (drives the §8 relevance index).
    std::set<std::string> event_names;
    bool uses_lasttime = false;
    bool is_ic = false;
    bool is_system = false;
    agg::SystemRule::Op sys_op{};
    std::string sys_item;
    ptl::QuerySpec sys_source;
    bool is_family = false;
    db::QueryPtr domain;
    std::vector<std::string> param_names;
    std::vector<std::unique_ptr<Instance>> instances;
    std::map<std::string, size_t> instance_index;  // params_key -> index
    size_t registration_order = 0;
    // Per-rule accounting, published through the metrics provider. Mutated
    // only on the serial merge/action paths.
    uint64_t fires = 0;
    // Most recent firing's provenance; captured only while tracing (`Why`).
    std::optional<Witness> last_witness;
  };

  struct PendingAction {
    Rule* rule;
    Instance* instance;
    size_t seq;  // state the condition was satisfied at
    Timestamp fired_at;
  };

  // One instance-step prepared for sharded execution — the single unit of
  // evaluation work, whether stepped at once or deferred to Flush() (§8
  // batching). The snapshot is built serially when the state is appended;
  // Step runs on whichever shard claims the task (safe: each evaluator owns
  // its graph); outputs merge back in task order, which the gather loops
  // keep canonical — registration order, then instance-creation order — so
  // firing decisions, action order, and error reporting are byte-identical
  // to the serial engine regardless of thread count or batching.
  struct StepTask {
    Rule* rule = nullptr;
    Instance* instance = nullptr;
    ptl::StateSnapshot snapshot;
    bool allow_collect = true;
    // Dedupe hit: outputs were filled at gather time, and the snapshot
    // carries only the state's seq and time.
    bool resolved = false;
    // Outputs:
    bool stepped = false;
    bool fired = false;
    bool was_satisfied = false;
    bool collected = false;  // the post-step collection policy engaged
    Status status = Status::OK();
  };

  Status AddRuleInternal(std::string name, ptl::FormulaPtr condition,
                         ActionFn action, RuleOptions options, bool is_ic,
                         bool is_family, std::string_view domain_sql,
                         std::vector<std::string> param_names,
                         std::string source = {});
  Status MaterializeRewrite(const std::string& rule_name,
                            const agg::RewriteResult& rewrite);
  Result<Instance*> MakeInstance(Rule* rule,
                                 std::map<std::string, Value> params);
  Status RefreshFamily(Rule* rule);
  /// Memo for ground query values within one gather pass. Valid only while
  /// the database is not mutated — gather loops never run actions, but phase 1
  /// system rules do mutate aggregate tables, so each pass uses a fresh memo
  /// created after phase 1. Two tiers: per-spec values, and whole snapshot
  /// layouts shared across instances whose analyses resolve to an identical
  /// slot vector (family instances, structurally equal rules).
  struct QueryMemo {
    std::unordered_map<ptl::QuerySpec, Value, ptl::QuerySpecHash> values;
    struct Layout {
      const std::vector<ptl::QuerySpec>* slots;  // points into an Analysis
      std::vector<Value> query_values;
    };
    // Keyed on a fingerprint of the slot vector; candidates are verified by
    // full equality before reuse, so a fingerprint collision costs a compare,
    // never a wrong snapshot.
    std::unordered_map<size_t, std::vector<Layout>> layouts;
  };
  Result<ptl::StateSnapshot> BuildSnapshot(const Instance& instance,
                                           const event::SystemState& state,
                                           QueryMemo* memo = nullptr);
  /// Builds a dedupe-resolved or steppable task for one instance at `state`.
  Result<StepTask> GatherStepTask(Rule* rule, Instance* instance,
                                  const event::SystemState& state,
                                  bool allow_collect = true,
                                  QueryMemo* memo = nullptr);
  /// Executes every unresolved task — across the shard pool when one is
  /// configured, serially otherwise. Mutates only task outputs and the
  /// tasks' own evaluators; engine-wide stats are updated by the merge.
  void RunStepTasks(std::span<StepTask> tasks);
  /// Folds one stepped task back into the engine (serial): step/collection
  /// counters, error reporting, the edge/level firing decision, the trace
  /// update record and firing witness. Appends the action to `pending` when
  /// it runs. Must follow the task's step before its evaluator steps again.
  /// Returns the condition's verdict at the task's state (false on error).
  bool MergeStepTask(StepTask& task, std::vector<PendingAction>* pending);
  /// Steps one state's tasks, then merges them in task order.
  void StepAndMerge(std::span<StepTask> tasks, size_t seq,
                    std::vector<PendingAction>* pending);
  void ProcessState(const event::SystemState& state);
  Status ApplySystemOp(const Rule& rule);
  Status RecordExecution(const Rule& rule, const Instance& instance,
                         Timestamp time);
  void ReportError(Status status);

  void RebuildEventIndex();

  /// Provider callback: publishes stats_ and derived gauges.
  void RefreshDerivedMetrics(Metrics& m);

  /// Maps the registered population to analyzer inputs (AnalyzeRuleSet).
  std::vector<analysis::RuleDecl> BuildRuleDecls() const;
  /// Charges `state`'s events to the innermost running action's observed
  /// effect set (effect validation / cascade attribution).
  void AttributeStateToAction(const event::SystemState& state);

  db::Database* database_;
  QueryRegistry registry_;
  std::vector<std::unique_ptr<Rule>> rules_;  // registration order
  std::map<std::string, size_t> rule_index_;
  // §8 relevance index: event name -> filtered rules mentioning it. Rules
  // not subject to filtering are stepped on every state.
  std::map<std::string, std::vector<Rule*>> event_index_;
  EngineStats stats_;
  std::vector<Firing> firings_;
  std::vector<Status> errors_;
  int dispatch_depth_ = 0;
  size_t next_registration_order_ = 0;

  // Durability wiring (see SetFiringObserver/SetReplayMode).
  FiringObserver* firing_observer_ = nullptr;
  bool replay_mode_ = false;
  std::function<void()> post_update_hook_;

  // Sharded evaluation (1 = serial; pool_ is null then).
  size_t num_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;

  // Retained-state collection policy (see SetCollectThreshold).
  size_t collect_threshold_ = 65536;

  // Static analysis at registration (see SetStrictRegistration).
  bool strict_registration_ = false;
  bool lint_folding_ = true;

  // Whole-rule-set analysis cache; dirtied by registration changes and
  // rebuilt lazily on AnalyzeRuleSet() (also from const paths: Explain,
  // the metrics provider).
  mutable std::optional<analysis::SetReport> set_report_;
  mutable bool set_report_dirty_ = true;

  // Runtime effect recorder (see SetEffectValidation/SetCascadeTracking).
  // One frame per action currently on the dispatch stack; states appended
  // while a frame is live are attributed to the innermost one.
  struct ActionFrame {
    const Rule* rule;
    analysis::EffectSet observed;
  };
  std::vector<ActionFrame> action_frames_;
#ifdef NDEBUG
  bool validate_effects_ = false;
#else
  bool validate_effects_ = true;
#endif
  bool track_cascades_ = false;
  std::vector<std::pair<std::string, std::string>> cascades_;

  /// Builds the JSONL provenance record for one instance right after its
  /// step (the evaluator's step count numbers the record). `fired` is the
  /// post-edge-trigger verdict (whether the action actually runs).
  json::Json MakeUpdateRecord(const Rule& rule, const Instance& instance,
                              const ptl::StateSnapshot& snapshot,
                              bool satisfied, bool was_satisfied, bool fired);
  /// Emits one instant span per recurrence flip of the instance's last Step.
  void EmitRecurrenceSpans(const eval::IncrementalEvaluator& ev);
  /// Captures a Witness for a firing and stores it on the rule for `Why`.
  void CaptureWitness(Rule* rule, const Instance& instance,
                      const ptl::StateSnapshot& snapshot,
                      std::vector<eval::IncrementalEvaluator::WitnessLink>
                          chain);

  // Observability: cached phase histograms, null when detached, so the hot
  // path pays one branch per timer and nothing else.
  trace::Recorder* trace_ = nullptr;
  Metrics* metrics_ = nullptr;
  uint64_t metrics_provider_id_ = 0;
  struct MetricSet {
    Metrics::Histogram* gather_ns = nullptr;
    Metrics::Histogram* step_ns = nullptr;
    Metrics::Histogram* merge_ns = nullptr;
    Metrics::Histogram* action_ns = nullptr;
  };
  MetricSet ins_;

  // §8 batching (1 = synchronous).
  size_t batch_size_ = 1;
  size_t batched_states_ = 0;
  bool flushing_ = false;
  std::vector<StepTask> batch_queue_;  // deferred steps, in state order

  /// Runs fired actions in ascending (state seq, priority, registration
  /// order) — the order state-by-state evaluation, and so WAL replay,
  /// produces, however many states one call covers.
  void RunPendingActions(std::vector<PendingAction> pending);
};

}  // namespace ptldb::rules

#endif  // PTLDB_RULES_ENGINE_H_

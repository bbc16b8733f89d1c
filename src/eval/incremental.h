// The §5 incremental condition evaluator — the paper's core contribution.
//
// For a PTL condition f, the evaluator maintains one symbolic formula
// F_{g,i} (a Graph node) per temporal subformula g, updated on each new
// system state via the recurrences
//
//   F_{g Since h, i}      = F_{h,i} OR (F_{g,i} AND F_{g Since h, i-1})
//   F_{Previously g, i}   = F_{g,i} OR F_{Previously g, i-1}
//   F_{Throughout g, i}   = F_{g,i} AND F_{Throughout g, i-1}
//   F_{Lasttime g, i}     = F_{g, i-1}
//   F_{[x := q] g, i}     = F_{g,i}[x := q(S_i)]
//
// and fires the trigger iff the top formula evaluates to `true` (Theorem 1).
// Per-update work depends on the size of the retained symbolic state, never
// on the length of the history. Temporal aggregates (§6) are folded in as
// incremental accumulator machines whose start/sampling formulas are
// themselves evaluated incrementally; sliding-window aggregates use
// O(1)-amortized monotonic-deque machines.
//
// Checkpoint/Restore supports the execution model's hypothetical evaluation:
// integrity constraints are probed against a prospective commit state and
// rolled back when the transaction aborts (§8), and the valid-time layer
// replays suffixes after retroactive updates (§9).

#ifndef PTLDB_EVAL_INCREMENTAL_H_
#define PTLDB_EVAL_INCREMENTAL_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "eval/graph.h"
#include "ptl/analyzer.h"
#include "ptl/naive_eval.h"
#include "ptl/snapshot.h"

namespace ptldb::eval {

/// Persistent state of one temporal-aggregate machine. Copyable (checkpoints
/// store the whole vector).
struct AggMachineState {
  // kAgg (start/sample driven):
  bool is_window = false;
  bool started = false;
  ptl::AggAccumulator acc{ptl::TemporalAggFn::kSum};
  int start_unit = -1;   // unit index of the start formula root
  int sample_unit = -1;  // unit index of the sampling formula root
  int query_slot = -1;   // snapshot slot of the aggregated query
  ptl::TemporalAggFn fn = ptl::TemporalAggFn::kSum;

  // kWindowAgg:
  Timestamp width = 0;
  std::deque<std::pair<Timestamp, double>> window;  // (time, value) in order
  std::deque<std::pair<Timestamp, double>> mono;    // monotonic, for min/max
  double running_sum = 0;

  /// Current aggregate value.
  Result<Value> Current() const;
  /// Window-machine update for one state.
  Status WindowObserve(Timestamp now, const Value& v);
};

class IncrementalEvaluator {
 public:
  struct Options {
    /// §5 time-bound pruning. Disable only for the E2 ablation.
    bool time_pruning = true;
    /// §5 interval subsumption in the and-or graph. Disable only for the E2
    /// ablation (together with time_pruning this gives the unoptimized
    /// algorithm whose retained formulas grow with the history).
    bool subsumption = true;
  };

  /// Compiles `analysis` (which must have been produced by ptl::Analyze).
  static Result<IncrementalEvaluator> Make(ptl::Analysis analysis,
                                           Options options);
  static Result<IncrementalEvaluator> Make(ptl::Analysis analysis) {
    return Make(std::move(analysis), Options{});
  }

  IncrementalEvaluator(IncrementalEvaluator&&) = default;
  IncrementalEvaluator& operator=(IncrementalEvaluator&&) = default;

  const ptl::Analysis& analysis() const { return analysis_; }

  /// Advances over one system state; returns whether the condition is
  /// satisfied at that state (i.e. whether the trigger fires).
  Result<bool> Step(const ptl::StateSnapshot& snapshot);

  /// Number of states observed so far.
  uint64_t steps() const { return steps_; }

  /// Whether the last Step reported satisfaction.
  bool last_fired() const { return last_fired_; }

  // ---- Firing-provenance tracing ----
  //
  // With tracing on, each Step additionally records which temporal
  // subformulas' truth status flipped at that state (the F_{g,i} recurrence
  // transitions) and which `[x := q]` values were bound, and maintains a
  // per-subformula *anchor*: the most recent state at which its recurrence
  // became satisfied, with the bindings observed there. The anchors form the
  // witness chain a fired rule reports (rules/provenance.h). Off (the
  // default) the only cost is one predictable branch per temporal/bind unit.

  /// One `[x := q]` substitution observed during a Step.
  struct BindEvent {
    std::string var;
    Value value;
  };

  /// One temporal subformula whose truth status changed at this Step.
  struct FlipEvent {
    std::string subformula;    // g's source rendering
    const char* op = "";       // "since" | "lasttime" | ...
    const char* transition = "";  // "sat" | "unsat" | "residual"
    int64_t seq = -1;          // snapshot sequence of the flip
    int mem_slot = -1;
  };

  struct StepTrace {
    std::vector<FlipEvent> flips;
    std::vector<BindEvent> binds;
  };

  /// The most recent state at which one temporal subformula's recurrence
  /// became satisfied (one per mem slot; seq -1 until that happens).
  struct Anchor {
    int64_t seq = -1;
    Timestamp time = 0;
    std::vector<BindEvent> binds;
  };

  /// One link of the witness chain: a temporal subformula, its current
  /// retained F_{g,i} formula, and the anchor state that last satisfied it.
  struct WitnessLink {
    std::string op;
    std::string subformula;
    std::string retained;      // rendered F_{g,i} after the last Step
    int64_t anchor_seq = -1;   // -1: never satisfied while tracing
    Timestamp anchor_time = 0;
    std::vector<BindEvent> bindings;  // binds at the anchor state
  };

  /// Enables/disables provenance collection. Enabling (re)initializes the
  /// per-subformula status so the next Step re-records every transition.
  void set_tracing(bool on);
  bool tracing() const { return tracing_; }

  /// Flip/bind events of the most recent Step (empty when tracing is off).
  const StepTrace& last_step_trace() const { return step_trace_; }

  /// One link per temporal subformula, in compilation (bottom-up) order.
  /// Meaningful after at least one traced Step; anchors are only tracked
  /// while tracing is on.
  std::vector<WitnessLink> WitnessChain() const;

  // ---- Checkpointing ----

  /// Opaque saved state. Valid until the next MaybeCollect() on this
  /// evaluator (generation-checked).
  struct Checkpoint {
    uint64_t generation = 0;
    uint64_t steps = 0;
    bool last_fired = false;
    std::vector<NodeId> mem;
    std::vector<AggMachineState> machines;
    // Provenance state, captured only while tracing so a rolled-back
    // hypothetical probe (IC veto, valid-time replay) cannot pollute witness
    // anchors with states that never materialized.
    std::vector<int8_t> prev_status;
    std::vector<Anchor> anchors;
  };

  Checkpoint Save() const;
  Status Restore(const Checkpoint& cp);

  // ---- Durable serialization ----

  /// Writes the retained state — the backing and-or graph (raw dump, NodeIds
  /// preserved), per-subformula mem slots, step count, and the dynamic state
  /// of every aggregate machine — for a durability checkpoint. Tracing state
  /// is not serialized (provenance does not survive a restart).
  void SerializeState(codec::Writer* w) const;

  /// Restores state written by SerializeState into an evaluator freshly
  /// compiled from the same condition: slot counts and machine shapes must
  /// match, otherwise InvalidArgument.
  Status RestoreState(codec::Reader* r);

  // ---- Introspection / GC ----

  /// Distinct graph nodes reachable from the retained state (experiment E2's
  /// "retained state" metric).
  size_t LiveNodeCount() const;
  /// Total nodes in the backing store (grows until MaybeCollect).
  size_t StoreNodeCount() const { return graph_->num_nodes(); }

  /// Compacts the node store when it exceeds `threshold` nodes. Invalidates
  /// outstanding Checkpoints (they fail Restore with a clear error). Returns
  /// whether a collection actually ran, so callers can account for it.
  bool MaybeCollect(size_t threshold = 65536);

  /// Number of collections this evaluator's store has undergone (equals the
  /// graph generation counter).
  uint64_t collections() const { return graph_->generation(); }

  /// §5 optimization hit counters, forwarded from the backing graph.
  uint64_t prune_hits() const { return graph_->prune_hits(); }
  uint64_t subsume_hits() const { return graph_->subsume_hits(); }

  /// Structural-cache counters, forwarded from the backing graph: subtrees
  /// skipped by the var/time bitmasks, and hits in the persistent
  /// common-subformula substitution cache.
  uint64_t mask_skips() const { return graph_->mask_skips(); }
  uint64_t subst_cache_hits() const { return graph_->subst_cache_hits(); }
  uint64_t subst_cache_misses() const { return graph_->subst_cache_misses(); }

  /// Compacts the node store while keeping `checkpoints` valid: their node
  /// ids are remapped in place and their generation updated. Used by
  /// long-running holders of checkpoints (the valid-time monitors).
  Status CollectKeepingCheckpoints(std::vector<Checkpoint*> checkpoints);

  /// Multi-line dump of each temporal subformula's retained F formula.
  std::string DebugString() const;

 private:
  // One compiled evaluation step. Units are topologically ordered: children
  // and aggregate machinery precede their users.
  struct Unit {
    enum class Kind {
      kTrue,
      kFalse,
      kCompare,
      kEvent,
      kNot,
      kAnd,
      kOr,
      kSince,
      kLasttime,
      kPreviously,
      kThroughoutPast,
      kBind,
      kAggUpdate,  // advances one aggregate machine; produces no output
    };
    Kind kind;
    const ptl::Formula* ast = nullptr;
    int left = -1;   // unit index
    int right = -1;  // unit index
    VarId bind_var = 0;
    const ptl::Term* bind_term = nullptr;
    int mem_slot = -1;      // kSince/kLasttime/kPreviously/kThroughoutPast
    int machine_idx = -1;   // kAggUpdate
  };

  IncrementalEvaluator() = default;

  Result<int> CompileFormula(const ptl::FormulaPtr& f);
  Status CompileTermMachines(const ptl::TermPtr& t);
  Result<SymExprId> BuildTerm(const ptl::TermPtr& t,
                              const ptl::StateSnapshot& snapshot);
  Result<Value> EvalGroundTerm(const ptl::TermPtr& t,
                               const ptl::StateSnapshot& snapshot);
  NodeId InitialMemValue(Unit::Kind kind) const;

  ptl::Analysis analysis_;
  Options options_;
  // unique_ptr keeps the evaluator cheaply movable and Term*-keyed maps valid.
  std::unique_ptr<Graph> graph_;
  std::vector<Unit> units_;
  int root_unit_ = -1;
  std::vector<NodeId> mem_;

  std::vector<AggMachineState> machines_;
  std::vector<const ptl::Term*> machine_terms_;  // parallel to machines_
  std::vector<NodeId> outputs_;  // scratch, resized once

  uint64_t steps_ = 0;
  bool last_fired_ = false;

  // Provenance tracing (see set_tracing). prev_status_/anchors_ are indexed
  // by mem slot; -1 status means "unknown, record the next transition".
  void TraceTemporalUnit(const Unit& u, NodeId out,
                         const ptl::StateSnapshot& snapshot);
  static const char* TemporalOpName(Unit::Kind kind);
  bool tracing_ = false;
  StepTrace step_trace_;
  std::vector<int8_t> prev_status_;
  std::vector<Anchor> anchors_;
};

/// The JSON array of a witness chain, shared by the rule engine's firing
/// records and the valid-time layer's `vt_fire` records: one object per link
/// with `op`, `subformula`, `retained`, `anchor_seq`, `anchor_time` and, when
/// the link has any, `bindings` (`var` plus a trace-encoded `value`).
json::Json WitnessChainToJson(
    const std::vector<IncrementalEvaluator::WitnessLink>& chain);

}  // namespace ptldb::eval

#endif  // PTLDB_EVAL_INCREMENTAL_H_

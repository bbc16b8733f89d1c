#include "eval/incremental.h"

#include "common/logging.h"
#include "common/strings.h"
#include "common/trace.h"

namespace ptldb::eval {

Result<Value> AggMachineState::Current() const {
  if (!is_window) return acc.Current();
  switch (fn) {
    case ptl::TemporalAggFn::kCount:
      return Value::Int(static_cast<int64_t>(window.size()));
    case ptl::TemporalAggFn::kSum:
      return Value::Real(running_sum);
    case ptl::TemporalAggFn::kAvg:
      if (window.empty()) return Value::Null();
      return Value::Real(running_sum / static_cast<double>(window.size()));
    case ptl::TemporalAggFn::kMin:
    case ptl::TemporalAggFn::kMax:
      if (mono.empty()) return Value::Null();
      return Value::Real(mono.front().second);
  }
  return Status::Internal("unknown window aggregate fn");
}

Status AggMachineState::WindowObserve(Timestamp now, const Value& v) {
  if (!v.is_numeric()) {
    if (v.is_null()) return Status::OK();  // nulls are skipped, like SQL
    return Status::TypeMismatch(
        StrCat("window aggregate over non-numeric value ", v.ToString()));
  }
  double x = v.AsDouble();
  window.emplace_back(now, x);
  running_sum += x;
  if (fn == ptl::TemporalAggFn::kMin || fn == ptl::TemporalAggFn::kMax) {
    // Monotonic deque: front is the extremum of the window.
    const bool is_min = fn == ptl::TemporalAggFn::kMin;
    while (!mono.empty() && (is_min ? mono.back().second >= x
                                    : mono.back().second <= x)) {
      mono.pop_back();
    }
    mono.emplace_back(now, x);
  }
  // Evict samples older than the window.
  Timestamp cutoff = now - width;
  while (!window.empty() && window.front().first < cutoff) {
    running_sum -= window.front().second;
    window.pop_front();
  }
  while (!mono.empty() && mono.front().first < cutoff) {
    mono.pop_front();
  }
  return Status::OK();
}

Result<IncrementalEvaluator> IncrementalEvaluator::Make(ptl::Analysis analysis,
                                                        Options options) {
  IncrementalEvaluator ev;
  ev.analysis_ = std::move(analysis);
  ev.options_ = options;
  ev.graph_ = std::make_unique<Graph>();
  ev.graph_->set_subsumption(options.subsumption);
  PTLDB_ASSIGN_OR_RETURN(ev.root_unit_, ev.CompileFormula(ev.analysis_.root));
  ev.outputs_.resize(ev.units_.size(), kFalseNode);
  return ev;
}

NodeId IncrementalEvaluator::InitialMemValue(Unit::Kind kind) const {
  // F_{g,-1} values making the i=0 base cases come out right:
  //   Since:        F_{h,0} OR (F_{g,0} AND false) = F_{h,0}
  //   Previously:   F_{g,0} OR false               = F_{g,0}
  //   Throughout:   F_{g,0} AND true               = F_{g,0}
  //   Lasttime:     false (no previous state)
  return kind == Unit::Kind::kThroughoutPast ? kTrueNode : kFalseNode;
}

Status IncrementalEvaluator::CompileTermMachines(const ptl::TermPtr& t) {
  if (t == nullptr) return Status::OK();
  using TK = ptl::Term::Kind;
  switch (t->kind) {
    case TK::kConst:
    case TK::kVar:
    case TK::kTime:
      return Status::OK();
    case TK::kArith:
      for (const ptl::TermPtr& op : t->operands) {
        PTLDB_RETURN_IF_ERROR(CompileTermMachines(op));
      }
      return Status::OK();
    case TK::kQuery:
      return Status::OK();
    case TK::kAgg: {
      // Compile start/sample formulas first (their units precede the
      // machine's update unit), then register the machine.
      PTLDB_ASSIGN_OR_RETURN(int start_unit, CompileFormula(t->agg_start));
      PTLDB_ASSIGN_OR_RETURN(int sample_unit, CompileFormula(t->agg_sample));
      AggMachineState m;
      m.is_window = false;
      m.fn = t->agg_fn;
      m.acc = ptl::AggAccumulator(t->agg_fn);
      m.start_unit = start_unit;
      m.sample_unit = sample_unit;
      auto it = analysis_.slot_of.find(t->agg_query.get());
      if (it == analysis_.slot_of.end()) {
        return Status::Internal("aggregate query has no snapshot slot");
      }
      m.query_slot = it->second;
      int idx = static_cast<int>(machines_.size());
      machines_.push_back(std::move(m));
      machine_terms_.push_back(t.get());
      Unit u;
      u.kind = Unit::Kind::kAggUpdate;
      u.machine_idx = idx;
      units_.push_back(u);
      return Status::OK();
    }
    case TK::kWindowAgg: {
      AggMachineState m;
      m.is_window = true;
      m.fn = t->agg_fn;
      m.width = t->window_width;
      auto it = analysis_.slot_of.find(t->agg_query.get());
      if (it == analysis_.slot_of.end()) {
        return Status::Internal("window aggregate query has no snapshot slot");
      }
      m.query_slot = it->second;
      int idx = static_cast<int>(machines_.size());
      machines_.push_back(std::move(m));
      machine_terms_.push_back(t.get());
      Unit u;
      u.kind = Unit::Kind::kAggUpdate;
      u.machine_idx = idx;
      units_.push_back(u);
      return Status::OK();
    }
  }
  return Status::Internal("unknown term kind");
}

Result<int> IncrementalEvaluator::CompileFormula(const ptl::FormulaPtr& f) {
  using FK = ptl::Formula::Kind;
  Unit u;
  u.ast = f.get();
  switch (f->kind) {
    case FK::kTrue:
      u.kind = Unit::Kind::kTrue;
      break;
    case FK::kFalse:
      u.kind = Unit::Kind::kFalse;
      break;
    case FK::kCompare:
      PTLDB_RETURN_IF_ERROR(CompileTermMachines(f->lhs_term));
      PTLDB_RETURN_IF_ERROR(CompileTermMachines(f->rhs_term));
      u.kind = Unit::Kind::kCompare;
      break;
    case FK::kEvent:
      u.kind = Unit::Kind::kEvent;
      break;
    case FK::kNot: {
      PTLDB_ASSIGN_OR_RETURN(u.left, CompileFormula(f->left));
      u.kind = Unit::Kind::kNot;
      break;
    }
    case FK::kAnd:
    case FK::kOr: {
      PTLDB_ASSIGN_OR_RETURN(u.left, CompileFormula(f->left));
      PTLDB_ASSIGN_OR_RETURN(u.right, CompileFormula(f->right));
      u.kind = f->kind == FK::kAnd ? Unit::Kind::kAnd : Unit::Kind::kOr;
      break;
    }
    case FK::kSince: {
      PTLDB_ASSIGN_OR_RETURN(u.left, CompileFormula(f->left));
      PTLDB_ASSIGN_OR_RETURN(u.right, CompileFormula(f->right));
      u.kind = Unit::Kind::kSince;
      break;
    }
    case FK::kLasttime: {
      PTLDB_ASSIGN_OR_RETURN(u.left, CompileFormula(f->left));
      u.kind = Unit::Kind::kLasttime;
      break;
    }
    case FK::kPreviously: {
      PTLDB_ASSIGN_OR_RETURN(u.left, CompileFormula(f->left));
      u.kind = Unit::Kind::kPreviously;
      break;
    }
    case FK::kThroughoutPast: {
      PTLDB_ASSIGN_OR_RETURN(u.left, CompileFormula(f->left));
      u.kind = Unit::Kind::kThroughoutPast;
      break;
    }
    case FK::kBind: {
      PTLDB_RETURN_IF_ERROR(CompileTermMachines(f->bind_term));
      PTLDB_ASSIGN_OR_RETURN(u.left, CompileFormula(f->left));
      u.kind = Unit::Kind::kBind;
      u.bind_var = graph_->InternVar(
          f->var, analysis_.time_vars.count(f->var) > 0);
      u.bind_term = f->bind_term.get();
      break;
    }
  }
  if (u.kind == Unit::Kind::kSince || u.kind == Unit::Kind::kLasttime ||
      u.kind == Unit::Kind::kPreviously ||
      u.kind == Unit::Kind::kThroughoutPast) {
    u.mem_slot = static_cast<int>(mem_.size());
    mem_.push_back(InitialMemValue(u.kind));
  }
  units_.push_back(std::move(u));
  return static_cast<int>(units_.size() - 1);
}

Result<Value> IncrementalEvaluator::EvalGroundTerm(
    const ptl::TermPtr& t, const ptl::StateSnapshot& snapshot) {
  PTLDB_ASSIGN_OR_RETURN(SymExprId e, BuildTerm(t, snapshot));
  const SymExpr& expr = graph_->expr(e);
  if (expr.kind != SymExpr::Kind::kConst) {
    return Status::Internal(
        StrCat("term '", t->ToString(), "' is not ground at evaluation"));
  }
  return expr.constant;
}

Result<SymExprId> IncrementalEvaluator::BuildTerm(
    const ptl::TermPtr& t, const ptl::StateSnapshot& snapshot) {
  using TK = ptl::Term::Kind;
  switch (t->kind) {
    case TK::kConst:
      return graph_->ExprConst(t->constant);
    case TK::kVar:
      // Time-var flags were registered when the binder was compiled; a var
      // seen here before its binder can only be a rule parameter that was
      // not substituted, which the analyzer already rejected.
      return graph_->ExprVar(graph_->InternVar(
          t->name, analysis_.time_vars.count(t->name) > 0));
    case TK::kTime:
      return graph_->ExprConst(Value::Time(snapshot.time));
    case TK::kArith: {
      if (t->arith_op == ptl::ArithOp::kNeg) {
        PTLDB_ASSIGN_OR_RETURN(SymExprId a, BuildTerm(t->operands[0], snapshot));
        return graph_->ExprNeg(a);
      }
      PTLDB_ASSIGN_OR_RETURN(SymExprId a, BuildTerm(t->operands[0], snapshot));
      PTLDB_ASSIGN_OR_RETURN(SymExprId b, BuildTerm(t->operands[1], snapshot));
      return graph_->ExprArith(t->arith_op, a, b);
    }
    case TK::kQuery: {
      auto it = analysis_.slot_of.find(t.get());
      if (it == analysis_.slot_of.end()) {
        return Status::Internal(
            StrCat("query term ", t->ToString(), " has no snapshot slot"));
      }
      if (static_cast<size_t>(it->second) >= snapshot.query_values.size()) {
        return Status::Internal("snapshot missing query slot value");
      }
      return graph_->ExprConst(snapshot.query_values[it->second]);
    }
    case TK::kAgg:
    case TK::kWindowAgg: {
      // The machine was updated earlier in this step (its kAggUpdate unit
      // precedes every unit whose terms read it).
      for (size_t i = 0; i < machine_terms_.size(); ++i) {
        if (machine_terms_[i] == t.get()) {
          PTLDB_ASSIGN_OR_RETURN(Value v, machines_[i].Current());
          return graph_->ExprConst(std::move(v));
        }
      }
      return Status::Internal("aggregate term has no machine");
    }
  }
  return Status::Internal("unknown term kind");
}

const char* IncrementalEvaluator::TemporalOpName(Unit::Kind kind) {
  switch (kind) {
    case Unit::Kind::kSince:
      return "since";
    case Unit::Kind::kLasttime:
      return "lasttime";
    case Unit::Kind::kPreviously:
      return "previously";
    case Unit::Kind::kThroughoutPast:
      return "throughout";
    default:
      return "?";
  }
}

void IncrementalEvaluator::set_tracing(bool on) {
  if (on == tracing_) return;
  tracing_ = on;
  step_trace_.flips.clear();
  step_trace_.binds.clear();
  if (on) {
    prev_status_.assign(mem_.size(), -1);
    anchors_.assign(mem_.size(), Anchor{});
  }
}

void IncrementalEvaluator::TraceTemporalUnit(
    const Unit& u, NodeId out, const ptl::StateSnapshot& snapshot) {
  int8_t status = out == kTrueNode ? 1 : out == kFalseNode ? 0 : 2;
  if (status == prev_status_[u.mem_slot]) return;
  prev_status_[u.mem_slot] = status;
  FlipEvent flip;
  flip.subformula = u.ast->ToString();
  flip.op = TemporalOpName(u.kind);
  flip.transition = status == 1 ? "sat" : status == 0 ? "unsat" : "residual";
  flip.seq = static_cast<int64_t>(snapshot.seq);
  flip.mem_slot = u.mem_slot;
  step_trace_.flips.push_back(std::move(flip));
  if (status == 1) {
    anchors_[u.mem_slot].seq = static_cast<int64_t>(snapshot.seq);
    anchors_[u.mem_slot].time = snapshot.time;
    // Bindings are attached at the end of Step — binder units run after the
    // temporal units beneath them, so the step's binds are not complete yet.
  }
}

std::vector<IncrementalEvaluator::WitnessLink>
IncrementalEvaluator::WitnessChain() const {
  std::vector<WitnessLink> chain;
  for (const Unit& u : units_) {
    if (u.mem_slot < 0) continue;
    WitnessLink link;
    link.op = TemporalOpName(u.kind);
    link.subformula = u.ast->ToString();
    link.retained = graph_->ToString(mem_[u.mem_slot]);
    if (static_cast<size_t>(u.mem_slot) < anchors_.size()) {
      const Anchor& a = anchors_[u.mem_slot];
      link.anchor_seq = a.seq;
      link.anchor_time = a.time;
      link.bindings = a.binds;
    }
    if (link.anchor_seq < 0 && link.retained != "false" &&
        !step_trace_.binds.empty()) {
      // Binders outside the temporal scope (the §5.2 sharp-increase shape):
      // the retained formula stays open in the bound variables, so the unit
      // never flips to a sentinel and no anchor exists. The firing-state
      // bindings are then the values that closed the formula — report them.
      link.bindings = step_trace_.binds;
    }
    chain.push_back(std::move(link));
  }
  return chain;
}

Result<bool> IncrementalEvaluator::Step(const ptl::StateSnapshot& snapshot) {
  if (tracing_) {
    step_trace_.flips.clear();
    step_trace_.binds.clear();
  }
  for (size_t i = 0; i < units_.size(); ++i) {
    Unit& u = units_[i];
    NodeId out = kFalseNode;
    switch (u.kind) {
      case Unit::Kind::kTrue:
        out = kTrueNode;
        break;
      case Unit::Kind::kFalse:
        out = kFalseNode;
        break;
      case Unit::Kind::kCompare: {
        PTLDB_ASSIGN_OR_RETURN(SymExprId lhs,
                               BuildTerm(u.ast->lhs_term, snapshot));
        PTLDB_ASSIGN_OR_RETURN(SymExprId rhs,
                               BuildTerm(u.ast->rhs_term, snapshot));
        PTLDB_ASSIGN_OR_RETURN(out, graph_->MakeAtom(u.ast->cmp_op, lhs, rhs));
        break;
      }
      case Unit::Kind::kEvent: {
        std::vector<Value> args;
        args.reserve(u.ast->event_args.size());
        for (const ptl::TermPtr& a : u.ast->event_args) {
          PTLDB_ASSIGN_OR_RETURN(Value v, EvalGroundTerm(a, snapshot));
          args.push_back(std::move(v));
        }
        out = graph_->MakeBool(snapshot.HasEvent(u.ast->event_name, args));
        break;
      }
      case Unit::Kind::kNot:
        out = graph_->MakeNot(outputs_[u.left]);
        break;
      case Unit::Kind::kAnd:
        out = graph_->MakeAnd({outputs_[u.left], outputs_[u.right]});
        break;
      case Unit::Kind::kOr:
        out = graph_->MakeOr({outputs_[u.left], outputs_[u.right]});
        break;
      case Unit::Kind::kSince: {
        NodeId held = graph_->MakeAnd({outputs_[u.left], mem_[u.mem_slot]});
        out = graph_->MakeOr({outputs_[u.right], held});
        mem_[u.mem_slot] = out;
        break;
      }
      case Unit::Kind::kPreviously: {
        out = graph_->MakeOr({outputs_[u.left], mem_[u.mem_slot]});
        mem_[u.mem_slot] = out;
        break;
      }
      case Unit::Kind::kThroughoutPast: {
        out = graph_->MakeAnd({outputs_[u.left], mem_[u.mem_slot]});
        mem_[u.mem_slot] = out;
        break;
      }
      case Unit::Kind::kLasttime: {
        out = mem_[u.mem_slot];
        mem_[u.mem_slot] = outputs_[u.left];
        break;
      }
      case Unit::Kind::kBind: {
        PTLDB_ASSIGN_OR_RETURN(
            Value v, EvalGroundTerm(
                         // bind_term lives in the AST; wrap for the helper.
                         u.ast->bind_term, snapshot));
        if (tracing_) step_trace_.binds.push_back(BindEvent{u.ast->var, v});
        PTLDB_ASSIGN_OR_RETURN(
            out, graph_->Substitute(outputs_[u.left], u.bind_var, v));
        break;
      }
      case Unit::Kind::kAggUpdate: {
        AggMachineState& m = machines_[u.machine_idx];
        const Value& qv = snapshot.query_values[m.query_slot];
        if (m.is_window) {
          PTLDB_RETURN_IF_ERROR(m.WindowObserve(snapshot.time, qv));
        } else {
          // Start/sample roots are closed formulas: their outputs are
          // sentinels.
          NodeId start = outputs_[m.start_unit];
          NodeId sample = outputs_[m.sample_unit];
          if (start != kTrueNode && start != kFalseNode) {
            return Status::Internal("aggregate start formula not closed");
          }
          if (sample != kTrueNode && sample != kFalseNode) {
            return Status::Internal("aggregate sampling formula not closed");
          }
          if (start == kTrueNode) {
            m.started = true;
            m.acc.Reset();
          }
          if (m.started && sample == kTrueNode) {
            PTLDB_RETURN_IF_ERROR(m.acc.Accumulate(qv));
          }
        }
        out = kFalseNode;  // unused
        break;
      }
    }
    outputs_[i] = out;
    if (tracing_ && u.mem_slot >= 0) TraceTemporalUnit(u, out, snapshot);
  }
  if (tracing_) {
    // Attach the step's full bind set to every subformula anchored here.
    for (const FlipEvent& flip : step_trace_.flips) {
      if (flip.transition[0] == 's') {  // "sat"
        anchors_[flip.mem_slot].binds = step_trace_.binds;
      }
    }
  }

  // §5 optimization: prune time-bounded clauses that can no longer be
  // satisfied from the retained state.
  if (options_.time_pruning) {
    for (NodeId& m : mem_) {
      PTLDB_ASSIGN_OR_RETURN(m, graph_->PruneTimeBounds(m, snapshot.time));
    }
  }

  ++steps_;
  NodeId root = outputs_[root_unit_];
  if (root == kTrueNode) {
    last_fired_ = true;
    return true;
  }
  if (root == kFalseNode) {
    last_fired_ = false;
    return false;
  }
  return Status::Internal(
      StrCat("condition did not evaluate to a constant; residual: ",
             graph_->ToString(root),
             " (free variables must be rule parameters)"));
}

IncrementalEvaluator::Checkpoint IncrementalEvaluator::Save() const {
  Checkpoint cp;
  cp.generation = graph_->generation();
  cp.steps = steps_;
  cp.last_fired = last_fired_;
  cp.mem = mem_;
  cp.machines = machines_;
  if (tracing_) {
    cp.prev_status = prev_status_;
    cp.anchors = anchors_;
  }
  return cp;
}

Status IncrementalEvaluator::Restore(const Checkpoint& cp) {
  if (cp.generation != graph_->generation()) {
    return Status::InvalidArgument(
        "checkpoint predates a node-store collection and is no longer valid");
  }
  steps_ = cp.steps;
  last_fired_ = cp.last_fired;
  mem_ = cp.mem;
  machines_ = cp.machines;
  if (tracing_) {
    if (cp.prev_status.size() == mem_.size()) {
      // Roll provenance back with the recurrences so a vetoed probe leaves
      // no trace in the witness anchors.
      prev_status_ = cp.prev_status;
      anchors_ = cp.anchors;
    } else {
      // Checkpoint predates tracing: re-sync on the next Step.
      prev_status_.assign(mem_.size(), -1);
      anchors_.assign(mem_.size(), Anchor{});
    }
  }
  return Status::OK();
}

size_t IncrementalEvaluator::LiveNodeCount() const {
  return graph_->CountReachable(mem_);
}

bool IncrementalEvaluator::MaybeCollect(size_t threshold) {
  if (graph_->num_nodes() <= threshold) return false;
  std::vector<NodeId*> roots;
  roots.reserve(mem_.size());
  for (NodeId& m : mem_) roots.push_back(&m);
  graph_->Collect(std::move(roots));
  return true;
}

Status IncrementalEvaluator::CollectKeepingCheckpoints(
    std::vector<Checkpoint*> checkpoints) {
  std::vector<NodeId*> roots;
  roots.reserve(mem_.size());
  for (NodeId& m : mem_) roots.push_back(&m);
  for (Checkpoint* cp : checkpoints) {
    if (cp->generation != graph_->generation()) {
      return Status::InvalidArgument(
          "checkpoint from a different collection generation");
    }
    for (NodeId& m : cp->mem) roots.push_back(&m);
  }
  graph_->Collect(std::move(roots));
  for (Checkpoint* cp : checkpoints) cp->generation = graph_->generation();
  return Status::OK();
}

namespace {

// Full (static + dynamic) dump of one aggregate machine. The static fields
// travel with the dump so a restore into a differently compiled machine is
// rejected instead of silently mis-wired.
void SerializeMachine(const AggMachineState& m, codec::Writer* w) {
  w->Bool(m.is_window);
  w->I64(m.start_unit);
  w->I64(m.sample_unit);
  w->I64(m.query_slot);
  w->U8(static_cast<uint8_t>(m.fn));
  w->I64(m.width);
  w->Bool(m.started);
  m.acc.Serialize(w);
  w->U32(static_cast<uint32_t>(m.window.size()));
  for (const auto& [t, v] : m.window) {
    w->I64(t);
    w->F64(v);
  }
  w->U32(static_cast<uint32_t>(m.mono.size()));
  for (const auto& [t, v] : m.mono) {
    w->I64(t);
    w->F64(v);
  }
  w->F64(m.running_sum);
}

// Restores a machine dump over `m`, which must carry the compiled static
// configuration (the dump's statics are validated against it).
Status DeserializeMachineInto(codec::Reader* r, AggMachineState* m) {
  PTLDB_ASSIGN_OR_RETURN(bool is_window, r->Bool());
  PTLDB_ASSIGN_OR_RETURN(int64_t start_unit, r->I64());
  PTLDB_ASSIGN_OR_RETURN(int64_t sample_unit, r->I64());
  PTLDB_ASSIGN_OR_RETURN(int64_t query_slot, r->I64());
  PTLDB_ASSIGN_OR_RETURN(uint8_t fn, r->U8());
  PTLDB_ASSIGN_OR_RETURN(Timestamp width, r->I64());
  if (is_window != m->is_window || start_unit != m->start_unit ||
      sample_unit != m->sample_unit || query_slot != m->query_slot ||
      static_cast<ptl::TemporalAggFn>(fn) != m->fn || width != m->width) {
    return Status::InvalidArgument(
        "aggregate machine dump does not match the compiled machine");
  }
  PTLDB_ASSIGN_OR_RETURN(m->started, r->Bool());
  PTLDB_RETURN_IF_ERROR(m->acc.Deserialize(r));
  PTLDB_ASSIGN_OR_RETURN(uint32_t window_size, r->U32());
  m->window.clear();
  for (uint32_t i = 0; i < window_size; ++i) {
    PTLDB_ASSIGN_OR_RETURN(Timestamp t, r->I64());
    PTLDB_ASSIGN_OR_RETURN(double v, r->F64());
    m->window.emplace_back(t, v);
  }
  PTLDB_ASSIGN_OR_RETURN(uint32_t mono_size, r->U32());
  m->mono.clear();
  for (uint32_t i = 0; i < mono_size; ++i) {
    PTLDB_ASSIGN_OR_RETURN(Timestamp t, r->I64());
    PTLDB_ASSIGN_OR_RETURN(double v, r->F64());
    m->mono.emplace_back(t, v);
  }
  PTLDB_ASSIGN_OR_RETURN(m->running_sum, r->F64());
  return Status::OK();
}

}  // namespace

void IncrementalEvaluator::SerializeState(codec::Writer* w) const {
  graph_->Serialize(w);
  w->U64(steps_);
  w->Bool(last_fired_);
  w->U32(static_cast<uint32_t>(mem_.size()));
  for (NodeId m : mem_) w->U32(m);
  w->U32(static_cast<uint32_t>(machines_.size()));
  for (const AggMachineState& m : machines_) SerializeMachine(m, w);
}

Status IncrementalEvaluator::RestoreState(codec::Reader* r) {
  // The graph dump carries the interned variable table; because this
  // evaluator was compiled from the same condition (validated by the
  // caller), the compile-time VarIds the units reference line up with the
  // dump's by construction order.
  PTLDB_RETURN_IF_ERROR(graph_->Deserialize(r));
  PTLDB_ASSIGN_OR_RETURN(steps_, r->U64());
  PTLDB_ASSIGN_OR_RETURN(last_fired_, r->Bool());
  PTLDB_ASSIGN_OR_RETURN(uint32_t num_mem, r->U32());
  if (num_mem != mem_.size()) {
    return Status::InvalidArgument(
        "evaluator dump has a different number of temporal subformulas");
  }
  for (NodeId& m : mem_) {
    PTLDB_ASSIGN_OR_RETURN(m, r->U32());
    if (m >= graph_->num_nodes()) {
      return Status::InvalidArgument("evaluator dump: mem slot out of range");
    }
  }
  PTLDB_ASSIGN_OR_RETURN(uint32_t num_machines, r->U32());
  if (num_machines != machines_.size()) {
    return Status::InvalidArgument(
        "evaluator dump has a different number of aggregate machines");
  }
  for (AggMachineState& m : machines_) {
    PTLDB_RETURN_IF_ERROR(DeserializeMachineInto(r, &m));
  }
  // Provenance does not survive a restart: re-sync on the next traced Step.
  prev_status_.assign(prev_status_.size(), -1);
  anchors_.assign(anchors_.size(), Anchor{});
  return Status::OK();
}

std::string IncrementalEvaluator::DebugString() const {
  std::string out = StrCat("IncrementalEvaluator after ", steps_, " steps:\n");
  for (const Unit& u : units_) {
    if (u.mem_slot >= 0) {
      out += StrCat("  F[", u.ast->ToString(),
                    "] = ", graph_->ToString(mem_[u.mem_slot]), "\n");
    }
  }
  out += StrCat("  live nodes: ", LiveNodeCount(),
                ", store nodes: ", graph_->num_nodes(), "\n");
  return out;
}

json::Json WitnessChainToJson(
    const std::vector<IncrementalEvaluator::WitnessLink>& chain) {
  json::Json out = json::Json::Array();
  for (const auto& link : chain) {
    json::Json l = json::Json::Object();
    l.Set("op", json::Json::Str(link.op));
    l.Set("subformula", json::Json::Str(link.subformula));
    l.Set("retained", json::Json::Str(link.retained));
    l.Set("anchor_seq", json::Json::Int(link.anchor_seq));
    l.Set("anchor_time", json::Json::Int(link.anchor_time));
    if (!link.bindings.empty()) {
      json::Json binds = json::Json::Array();
      for (const auto& b : link.bindings) {
        json::Json bj = json::Json::Object();
        bj.Set("var", json::Json::Str(b.var));
        bj.Set("value", trace::EncodeValue(b.value));
        binds.Add(std::move(bj));
      }
      l.Set("bindings", std::move(binds));
    }
    out.Add(std::move(l));
  }
  return out;
}

}  // namespace ptldb::eval

#include "analysis/ruleset.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <numeric>
#include <utility>

#include "common/strings.h"
#include "event/event.h"
#include "ptl/parser.h"

namespace ptldb::analysis {

namespace {

// The engine's §7 execution-history table (rules/engine.h kExecutedTable;
// repeated here so the analyzer does not depend on the rules layer).
constexpr const char* kExecutedTable = "__executed";

bool IsRowEvent(const std::string& name) {
  return name == event::kInsertEvent || name == event::kDeleteEvent ||
         name == event::kUpdateEvent;
}

bool IsTxnControlEvent(const std::string& name) {
  return name == event::kBeginEvent || name == event::kCommitEvent ||
         name == event::kAttemptsToCommitEvent || name == event::kAbortEvent;
}

// ---- Read-set extraction ----------------------------------------------------

// Polarity of a subformula position: +1 positive, -1 negative, 0 mixed.
// An event atom or past operator in non-positive polarity is
// absence-triggered: a state that *omits* its atoms can raise the whole
// condition, so any appended state is a potential trigger.
class ReadSetWalker {
 public:
  ReadSetWalker(const AnalyzeOptions& opts, ReadSet* out)
      : opts_(opts), out_(out) {}

  void WalkFormula(const ptl::FormulaPtr& f, int polarity) {
    if (f == nullptr) return;
    using K = ptl::Formula::Kind;
    switch (f->kind) {
      case K::kTrue:
      case K::kFalse:
        return;
      case K::kCompare:
        WalkTerm(f->lhs_term);
        WalkTerm(f->rhs_term);
        return;
      case K::kEvent: {
        if (polarity <= 0) out_->any_state = true;
        const std::string& name = f->event_name;
        if (name == event::kRuleExecutedEvent) {
          if (!f->event_args.empty() &&
              f->event_args[0]->kind == ptl::Term::Kind::kConst &&
              f->event_args[0]->constant.is_string()) {
            out_->executed_rules.insert(f->event_args[0]->constant.AsString());
          } else {
            out_->executed_any = true;
          }
        } else if (IsRowEvent(name)) {
          if (!f->event_args.empty() &&
              f->event_args[0]->kind == ptl::Term::Kind::kConst &&
              f->event_args[0]->constant.is_string()) {
            out_->row_event_tables.insert(
                f->event_args[0]->constant.AsString());
          } else {
            out_->row_event_any = true;
          }
        } else if (IsTxnControlEvent(name)) {
          // Every transaction emits these; any appended state can match.
          out_->any_state = true;
        } else {
          out_->events.insert(name);
        }
        for (const auto& a : f->event_args) WalkTerm(a);
        return;
      }
      case K::kNot:
        WalkFormula(f->left, -polarity);
        return;
      case K::kAnd:
      case K::kOr:
        WalkFormula(f->left, polarity);
        WalkFormula(f->right, polarity);
        return;
      case K::kSince:
      case K::kPreviously:
        if (polarity <= 0) out_->any_state = true;
        WalkFormula(f->left, polarity);
        WalkFormula(f->right, polarity);
        return;
      case K::kThroughoutPast:
        // TP falls when its body is absent at the new state, so in negative
        // polarity (NOT TP f) any appended state can raise the condition;
        // walk the body as mixed to keep the edge set conservative.
        if (polarity <= 0) out_->any_state = true;
        WalkFormula(f->left, 0);
        return;
      case K::kLasttime:
        // A Lasttime verdict shifts frame at every appended state.
        out_->any_state = true;
        WalkFormula(f->left, polarity);
        return;
      case K::kBind:
        WalkTerm(f->bind_term);
        WalkFormula(f->left, polarity);
        return;
    }
  }

  void WalkTerm(const ptl::TermPtr& t) {
    if (t == nullptr) return;
    using K = ptl::Term::Kind;
    switch (t->kind) {
      case K::kConst:
      case K::kVar:
        return;
      case K::kTime:
        // Clock-sensitive: any appended state advances the clock.
        out_->any_state = true;
        return;
      case K::kArith:
        for (const auto& o : t->operands) WalkTerm(o);
        return;
      case K::kQuery: {
        if (opts_.tables_of) {
          for (auto& tab : opts_.tables_of(t->name)) {
            out_->tables.insert(std::move(tab));
          }
        } else {
          out_->tables.insert(t->name);
        }
        for (const auto& a : t->operands) WalkTerm(a);
        return;
      }
      case K::kAgg:
      case K::kWindowAgg:
        // Aggregate values can move at any sampled state.
        out_->any_state = true;
        WalkTerm(t->agg_query);
        WalkFormula(t->agg_start, 0);
        WalkFormula(t->agg_sample, 0);
        return;
    }
  }

 private:
  const AnalyzeOptions& opts_;
  ReadSet* out_;
};

// ---- Settling time guards ---------------------------------------------------

// Linear form a*time + c over integer constants; anything else is opaque.
struct LinTime {
  bool ok = true;
  bool has_other = false;  // a variable or non-integer leaked in
  int64_t time_coeff = 0;
  int64_t c = 0;
};

void Linearize(const ptl::TermPtr& t, int64_t sign, LinTime* out) {
  if (t == nullptr || !out->ok) {
    out->ok = false;
    return;
  }
  using K = ptl::Term::Kind;
  switch (t->kind) {
    case K::kConst:
      if (t->constant.is_int()) {
        out->c += sign * t->constant.AsInt();
      } else {
        out->has_other = true;
      }
      return;
    case K::kTime:
      out->time_coeff += sign;
      return;
    case K::kVar:
      out->has_other = true;
      return;
    case K::kArith:
      switch (t->arith_op) {
        case ptl::ArithOp::kAdd:
          for (const auto& o : t->operands) Linearize(o, sign, out);
          return;
        case ptl::ArithOp::kSub:
          if (t->operands.size() == 2) {
            Linearize(t->operands[0], sign, out);
            Linearize(t->operands[1], -sign, out);
            return;
          }
          out->ok = false;
          return;
        case ptl::ArithOp::kNeg:
          if (t->operands.size() == 1) {
            Linearize(t->operands[0], -sign, out);
            return;
          }
          out->ok = false;
          return;
        default:
          out->ok = false;
          return;
      }
    default:
      out->ok = false;
      return;
  }
}

/// `a*time + c cmp 0` with a != 0 and no other symbols: as the clock grows
/// the left side tends to +/- infinity, so kLt/kLe/kEq against a finite
/// bound settle false when the side grows positive.
bool ComparisonSettlesFalse(const ptl::Formula& f) {
  LinTime lin;
  Linearize(f.lhs_term, +1, &lin);
  Linearize(f.rhs_term, -1, &lin);
  if (!lin.ok || lin.has_other || lin.time_coeff == 0) return false;
  ptl::CmpOp cmp = f.cmp_op;
  if (lin.time_coeff < 0) {
    // Flip so the expression grows toward +infinity.
    switch (cmp) {
      case ptl::CmpOp::kLt: cmp = ptl::CmpOp::kGt; break;
      case ptl::CmpOp::kLe: cmp = ptl::CmpOp::kGe; break;
      case ptl::CmpOp::kGt: cmp = ptl::CmpOp::kLt; break;
      case ptl::CmpOp::kGe: cmp = ptl::CmpOp::kLe; break;
      default: break;
    }
  }
  return cmp == ptl::CmpOp::kLt || cmp == ptl::CmpOp::kLe ||
         cmp == ptl::CmpOp::kEq;
}

}  // namespace

ReadSet ExtractReadSet(const ptl::FormulaPtr& f, const AnalyzeOptions& opts,
                       bool level_triggered) {
  ReadSet out;
  // A level-triggered rule fires at every satisfied state, so any appended
  // state (not just a rising edge) can refire it.
  if (level_triggered) out.any_state = true;
  ReadSetWalker(opts, &out).WalkFormula(f, +1);
  return out;
}

bool HasSettlingTimeGuard(const ptl::FormulaPtr& f) {
  if (f == nullptr) return false;
  using K = ptl::Formula::Kind;
  switch (f->kind) {
    case K::kCompare:
      return ComparisonSettlesFalse(*f);
    case K::kAnd:
      return HasSettlingTimeGuard(f->left) || HasSettlingTimeGuard(f->right);
    case K::kBind:
      // Binders cannot rebind `time`; an absolute guard under one still
      // gates the whole condition conjunctively.
      return HasSettlingTimeGuard(f->left);
    default:
      return false;
  }
}

namespace {

// Iterative Tarjan (the fuzzer feeds arbitrarily deep graphs). Returns the
// non-trivial SCCs (size > 1, or a single node with a self-edge) with
// members sorted by rule index.
std::vector<std::vector<size_t>> NontrivialSccs(
    size_t n, const std::vector<std::vector<size_t>>& adj) {
  std::vector<int64_t> index(n, -1), low(n, 0);
  std::vector<bool> onstack(n, false), self_edge(n, false);
  for (size_t v = 0; v < n; ++v) {
    for (size_t w : adj[v]) {
      if (w == v) self_edge[v] = true;
    }
  }
  std::vector<size_t> stack;
  std::vector<std::vector<size_t>> sccs;
  struct Frame {
    size_t v;
    size_t edge = 0;
  };
  int64_t next = 0;
  for (size_t root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    std::vector<Frame> frames{{root}};
    index[root] = low[root] = next++;
    stack.push_back(root);
    onstack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.edge < adj[f.v].size()) {
        size_t w = adj[f.v][f.edge++];
        if (index[w] == -1) {
          index[w] = low[w] = next++;
          stack.push_back(w);
          onstack[w] = true;
          frames.push_back({w});
        } else if (onstack[w]) {
          low[f.v] = std::min(low[f.v], index[w]);
        }
      } else {
        size_t v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
        if (low[v] == index[v]) {
          std::vector<size_t> scc;
          for (;;) {
            size_t w = stack.back();
            stack.pop_back();
            onstack[w] = false;
            scc.push_back(w);
            if (w == v) break;
          }
          if (scc.size() > 1 || self_edge[v]) {
            std::sort(scc.begin(), scc.end());
            sccs.push_back(std::move(scc));
          }
        }
      }
    }
  }
  return sccs;
}

std::string CycleLabel(const std::vector<size_t>& members,
                       const std::vector<RuleDecl>& decls) {
  std::string out;
  for (size_t i : members) {
    out += decls[i].name;
    out += " -> ";
  }
  out += decls[members.front()].name;
  return out;
}

// Union-find with path compression.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), size_t{0});
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<size_t> parent_;
};

json::Json StrArray(const std::set<std::string>& xs) {
  json::Json a = json::Json::Array();
  for (const auto& x : xs) a.Add(json::Json::Str(x));
  return a;
}

std::string JoinSet(const std::set<std::string>& xs) {
  std::string out;
  for (const auto& x : xs) {
    if (!out.empty()) out += ", ";
    out += x;
  }
  return out;
}

std::string DotEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

SetReport AnalyzeRuleSet(std::vector<RuleDecl> decls,
                         const AnalyzeOptions& opts) {
  SetReport rep;
  const size_t n = decls.size();
  rep.rules.resize(n);

  // Effective effects: declaration plus what the engine machinery derives.
  for (size_t i = 0; i < n; ++i) {
    RuleDecl& d = decls[i];
    RuleReport& r = rep.rules[i];
    r.effects = d.effects;
    r.effects_declared = d.effects_declared;
    if (d.is_ic) {
      r.effects.aborts = true;
      r.effects_declared = true;
    }
    if (d.record_execution) {
      r.effects.writes.insert(kExecutedTable);
      r.effects.raises.insert(event::kRuleExecutedEvent);
    }
    r.reads = ExtractReadSet(d.condition, opts, d.level_triggered);
    if (!r.effects_declared && !d.is_system) {
      r.diagnostics.push_back(ptl::Diagnostic{
          ptl::DiagCode::kUndeclaredEffects,
          ptl::DiagCodeSeverity(ptl::DiagCode::kUndeclaredEffects),
          StrCat("rule '", d.name,
                 "' has no declared action effects; analysis assumes it may "
                 "write any relation and raise any event"),
          d.condition != nullptr ? d.condition->span : ptl::SourceSpan{}});
    }
  }

  // ---- Triggering graph ----
  std::vector<bool> settling(n);
  for (size_t i = 0; i < n; ++i) {
    settling[i] = HasSettlingTimeGuard(decls[i].condition);
  }
  for (size_t a = 0; a < n; ++a) {
    const RuleReport& ra = rep.rules[a];
    const bool appends = !ra.effects_declared || !ra.effects.writes.empty() ||
                         !ra.effects.raises.empty() || ra.effects.aborts;
    if (!appends) continue;
    for (size_t b = 0; b < n; ++b) {
      const RuleReport& rb = rep.rules[b];
      std::vector<std::string> reasons;
      if (!ra.effects_declared && !rb.reads.empty()) {
        reasons.push_back("undeclared effects may touch anything the "
                          "condition reads");
      }
      for (const auto& t : ra.effects.writes) {
        if (rb.reads.tables.count(t) != 0) {
          reasons.push_back(StrCat("writes relation '", t,
                                   "' read by condition"));
        }
        if (rb.reads.row_event_tables.count(t) != 0 ||
            (rb.reads.row_event_any && t != kExecutedTable)) {
          reasons.push_back(StrCat("writes relation '", t,
                                   "' observed by a row-event atom"));
        }
      }
      for (const auto& e : ra.effects.raises) {
        if (rb.reads.events.count(e) != 0) {
          reasons.push_back(StrCat("raises event '", e, "'"));
        }
      }
      if (decls[a].record_execution &&
          (rb.reads.executed_any ||
           rb.reads.executed_rules.count(decls[a].name) != 0)) {
        reasons.push_back("records execution observed by @executed");
      }
      if (rb.reads.any_state && reasons.empty()) {
        reasons.push_back("appends states observed by an any-state-sensitive "
                          "condition");
      }
      if (reasons.empty()) continue;
      Edge e;
      e.from = a;
      e.to = b;
      e.reason = reasons.front();
      for (size_t i = 1; i < reasons.size(); ++i) {
        e.reason += "; ";
        e.reason += reasons[i];
      }
      e.target_bound = decls[b].boundedness;
      if (!decls[b].level_triggered && settling[b]) {
        e.cut = true;
        e.cut_reason = "target is edge-triggered behind a time guard that "
                       "settles false";
      }
      rep.edges.push_back(std::move(e));
    }
  }

  // ---- Termination: SCCs over uncut edges (flagged) and all edges ----
  std::vector<std::vector<size_t>> adj_uncut(n), adj_all(n);
  for (const Edge& e : rep.edges) {
    adj_all[e.from].push_back(e.to);
    if (!e.cut) adj_uncut[e.from].push_back(e.to);
  }
  std::vector<std::vector<size_t>> flagged = NontrivialSccs(n, adj_uncut);
  std::vector<bool> in_flagged(n, false);
  for (const auto& scc : flagged) {
    CycleInfo ci;
    ci.rules = scc;
    ci.proven = false;
    const std::string label = CycleLabel(scc, decls);
    for (size_t i : scc) {
      in_flagged[i] = true;
      rep.rules[i].in_flagged_cycle = true;
      rep.rules[i].diagnostics.push_back(ptl::Diagnostic{
          ptl::DiagCode::kRuleCycle,
          ptl::DiagCodeSeverity(ptl::DiagCode::kRuleCycle),
          StrCat("rule '", decls[i].name, "' is on the triggering cycle [",
                 label, "] whose termination cannot be proved"),
          decls[i].condition != nullptr ? decls[i].condition->span
                                        : ptl::SourceSpan{}});
    }
    rep.cycles.push_back(std::move(ci));
  }
  rep.flagged_cycles = flagged.size();
  for (auto& scc : NontrivialSccs(n, adj_all)) {
    bool overlaps_flagged = false;
    for (size_t i : scc) overlaps_flagged = overlaps_flagged || in_flagged[i];
    if (overlaps_flagged) continue;
    CycleInfo ci;
    ci.rules = scc;
    ci.proven = true;
    const std::string label = CycleLabel(scc, decls);
    for (size_t i : scc) {
      rep.rules[i].diagnostics.push_back(ptl::Diagnostic{
          ptl::DiagCode::kRuleCycleBounded,
          ptl::DiagCodeSeverity(ptl::DiagCode::kRuleCycleBounded),
          StrCat("triggering cycle [", label,
                 "] proved terminating: every edge is cut by a finite time "
                 "bound"),
          decls[i].condition != nullptr ? decls[i].condition->span
                                        : ptl::SourceSpan{}});
    }
    rep.proven_cycles++;
    rep.cycles.push_back(std::move(ci));
  }

  // ---- Confluence: conflict partition + commutativity certificates ----
  auto writes_of = [&](size_t i) {
    const RuleReport& r = rep.rules[i];
    return !r.effects_declared || !r.effects.writes.empty() ||
           !r.effects.raises.empty();
  };
  auto conflicts = [&](size_t a, size_t b) {
    const RuleReport &ra = rep.rules[a], &rb = rep.rules[b];
    auto one_way = [&](const RuleReport& w, const RuleReport& r) {
      if (!w.effects_declared) {
        // Unknown writer conflicts with anything that reads or writes.
        return !r.reads.empty() || !r.effects.writes.empty() ||
               !r.effects.raises.empty() || !r.effects_declared;
      }
      // Every state the writer appends (row events from its writes, raised
      // events, @executed records) shifts the position and timestamp of
      // subsequent history states. A condition that can rise at *any*
      // appended state (clock-sensitive, level-triggered, absence atoms)
      // therefore observes different transition points depending on where
      // those states land — which is exactly what batch placement moves.
      if (r.reads.any_state &&
          (!w.effects.writes.empty() || !w.effects.raises.empty())) {
        return true;
      }
      for (const auto& t : w.effects.writes) {
        if (r.reads.tables.count(t) != 0 ||
            r.reads.row_event_tables.count(t) != 0 ||
            r.effects.writes.count(t) != 0 ||
            (r.reads.row_event_any && t != kExecutedTable)) {
          return true;
        }
      }
      for (const auto& e : w.effects.raises) {
        if (r.reads.events.count(e) != 0 || r.effects.raises.count(e) != 0) {
          return true;
        }
        if (e == event::kRuleExecutedEvent &&
            (r.reads.executed_any || !r.reads.executed_rules.empty())) {
          return true;
        }
      }
      return false;
    };
    return one_way(ra, rb) || one_way(rb, ra);
  };
  UnionFind uf(n);
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      if (conflicts(a, b)) uf.Union(a, b);
    }
  }
  std::set<size_t> roots;
  for (size_t i = 0; i < n; ++i) {
    size_t root = uf.Find(i);
    rep.rules[i].partition = static_cast<int>(root);
    roots.insert(root);
  }
  rep.partitions = roots.size();
  for (size_t i = 0; i < n; ++i) {
    RuleReport& r = rep.rules[i];
    if (decls[i].is_ic) {
      // ICs are evaluated synchronously at commit in every batching mode.
      r.commutative = true;
    } else if (decls[i].is_system) {
      r.commutative_reason = "engine-generated system rule";
    } else if (!r.effects_declared) {
      r.commutative_reason = "action effects undeclared";
    } else if (!r.effects.writes.empty() || !r.effects.raises.empty()) {
      r.commutative_reason =
          StrCat("action has effects (", r.effects.ToString(), ")");
    } else if (decls[i].priority != 0) {
      r.commutative_reason = "non-default priority reorders across batches";
    } else {
      size_t writer = n;
      for (size_t j = 0; j < n && writer == n; ++j) {
        if (j != i && uf.Find(j) == uf.Find(i) && writes_of(j)) writer = j;
      }
      if (writer != n) {
        r.commutative_reason = StrCat("shares state with writer '",
                                      decls[writer].name, "'");
      } else {
        r.commutative = true;
      }
    }
    if (r.commutative) rep.commutative_rules++;
  }

  rep.decls = std::move(decls);
  return rep;
}

const RuleReport* SetReport::Find(const std::string& name) const {
  for (size_t i = 0; i < decls.size(); ++i) {
    if (decls[i].name == name) return &rules[i];
  }
  return nullptr;
}

std::string SetReport::ToText() const {
  std::string out = StrCat(
      "rule-set analysis: ", decls.size(), " rule(s), ", edges.size(),
      " edge(s), ", partitions, " partition(s), ", commutative_rules,
      " commutative, ", flagged_cycles, " flagged cycle(s), ", proven_cycles,
      " proven cycle(s)\n");
  for (size_t i = 0; i < decls.size(); ++i) {
    const RuleDecl& d = decls[i];
    const RuleReport& r = rules[i];
    out += StrCat("\nrule ", d.name);
    if (d.is_ic) out += " [ic]";
    if (d.is_system) out += " [system]";
    if (d.level_triggered) out += " [level]";
    if (d.priority != 0) out += StrCat(" [priority=", d.priority, "]");
    out += "\n";
    out += StrCat("  effects: ",
                  r.effects_declared ? r.effects.ToString() : "undeclared",
                  "\n");
    std::string reads;
    if (!r.reads.tables.empty()) {
      reads += StrCat(" tables(", JoinSet(r.reads.tables), ")");
    }
    if (!r.reads.events.empty()) {
      reads += StrCat(" events(", JoinSet(r.reads.events), ")");
    }
    if (!r.reads.row_event_tables.empty() || r.reads.row_event_any) {
      reads += StrCat(" row-events(", JoinSet(r.reads.row_event_tables),
                      r.reads.row_event_any ? "*" : "", ")");
    }
    if (!r.reads.executed_rules.empty() || r.reads.executed_any) {
      reads += StrCat(" executed(", JoinSet(r.reads.executed_rules),
                      r.reads.executed_any ? "*" : "", ")");
    }
    if (r.reads.any_state) reads += " any-state";
    if (reads.empty()) reads = " none";
    out += StrCat("  reads:", reads, "\n");
    out += StrCat("  boundedness: ", ptl::BoundednessToString(d.boundedness),
                  "\n");
    out += StrCat("  confluence: ",
                  r.commutative ? "commutative"
                                : StrCat("not commutative (",
                                         r.commutative_reason, ")"),
                  "; partition ", r.partition, "\n");
    for (const auto& diag : r.diagnostics) {
      out += StrCat("  ", ptl::RenderDiagnostic(diag, d.source), "\n");
    }
  }
  if (!edges.empty()) {
    out += "\nedges:\n";
    for (const Edge& e : edges) {
      out += StrCat("  ", decls[e.from].name, " -> ", decls[e.to].name, "  (",
                    e.reason, ")");
      if (e.cut) out += StrCat(" [cut: ", e.cut_reason, "]");
      out += "\n";
    }
  }
  if (!cycles.empty()) {
    out += "\ncycles:\n";
    for (const CycleInfo& c : cycles) {
      out += StrCat("  ", c.proven ? "proven:  " : "flagged: ",
                    CycleLabel(c.rules, decls), "\n");
    }
  }
  return out;
}

json::Json SetReport::ToJson() const {
  json::Json doc = json::Json::Object();
  json::Json jrules = json::Json::Array();
  for (size_t i = 0; i < decls.size(); ++i) {
    const RuleDecl& d = decls[i];
    const RuleReport& r = rules[i];
    json::Json jr = json::Json::Object();
    jr.Set("name", json::Json::Str(d.name));
    if (d.condition != nullptr) {
      jr.Set("condition", json::Json::Str(d.condition->ToString()));
    }
    jr.Set("ic", json::Json::Bool(d.is_ic));
    jr.Set("system", json::Json::Bool(d.is_system));
    jr.Set("effects",
           json::Json::Object()
               .Set("declared", json::Json::Bool(r.effects_declared))
               .Set("writes", StrArray(r.effects.writes))
               .Set("raises", StrArray(r.effects.raises))
               .Set("aborts", json::Json::Bool(r.effects.aborts)));
    json::Json jreads = json::Json::Object();
    jreads.Set("tables", StrArray(r.reads.tables));
    jreads.Set("events", StrArray(r.reads.events));
    jreads.Set("row_events", StrArray(r.reads.row_event_tables));
    jreads.Set("executed", StrArray(r.reads.executed_rules));
    jreads.Set("executed_any", json::Json::Bool(r.reads.executed_any));
    jreads.Set("any_state", json::Json::Bool(r.reads.any_state));
    jr.Set("reads", std::move(jreads));
    jr.Set("boundedness",
           json::Json::Str(ptl::BoundednessToString(d.boundedness)));
    jr.Set("partition", json::Json::Int(r.partition));
    jr.Set("commutative", json::Json::Bool(r.commutative));
    if (!r.commutative) {
      jr.Set("commutative_reason", json::Json::Str(r.commutative_reason));
    }
    json::Json jdiags = json::Json::Array();
    for (const auto& diag : r.diagnostics) {
      jdiags.Add(ptl::DiagnosticToJson(diag));
    }
    jr.Set("diagnostics", std::move(jdiags));
    jrules.Add(std::move(jr));
  }
  doc.Set("rules", std::move(jrules));
  json::Json jedges = json::Json::Array();
  for (const Edge& e : edges) {
    json::Json je = json::Json::Object();
    je.Set("from", json::Json::Str(decls[e.from].name));
    je.Set("to", json::Json::Str(decls[e.to].name));
    je.Set("reason", json::Json::Str(e.reason));
    je.Set("cut", json::Json::Bool(e.cut));
    if (e.cut) je.Set("cut_reason", json::Json::Str(e.cut_reason));
    je.Set("target_bound",
           json::Json::Str(ptl::BoundednessToString(e.target_bound)));
    jedges.Add(std::move(je));
  }
  doc.Set("edges", std::move(jedges));
  json::Json jcycles = json::Json::Array();
  for (const CycleInfo& c : cycles) {
    json::Json jc = json::Json::Object();
    json::Json members = json::Json::Array();
    for (size_t i : c.rules) members.Add(json::Json::Str(decls[i].name));
    jc.Set("rules", std::move(members));
    jc.Set("proven", json::Json::Bool(c.proven));
    jcycles.Add(std::move(jc));
  }
  doc.Set("cycles", std::move(jcycles));
  doc.Set("summary",
          json::Json::Object()
              .Set("rules", json::Json::UInt(decls.size()))
              .Set("edges", json::Json::UInt(edges.size()))
              .Set("partitions", json::Json::UInt(partitions))
              .Set("commutative_rules", json::Json::UInt(commutative_rules))
              .Set("flagged_cycles", json::Json::UInt(flagged_cycles))
              .Set("proven_cycles", json::Json::UInt(proven_cycles)));
  return doc;
}

std::string SetReport::ToDot() const {
  std::string out = "digraph ruleset {\n  rankdir=LR;\n  node [shape=box];\n";
  for (size_t i = 0; i < decls.size(); ++i) {
    const RuleReport& r = rules[i];
    std::string attrs;
    if (r.in_flagged_cycle) {
      attrs = "color=red, fontcolor=red";
    } else if (r.commutative) {
      attrs = "color=darkgreen";
    }
    if (decls[i].is_ic) {
      attrs += attrs.empty() ? "" : ", ";
      attrs += "shape=octagon";
    }
    out += StrCat("  \"", DotEscape(decls[i].name), "\"");
    if (!attrs.empty()) out += StrCat(" [", attrs, "]");
    out += ";\n";
  }
  for (const Edge& e : edges) {
    out += StrCat("  \"", DotEscape(decls[e.from].name), "\" -> \"",
                  DotEscape(decls[e.to].name), "\" [label=\"",
                  DotEscape(e.reason), "\"");
    if (e.cut) out += ", style=dashed";
    out += "];\n";
  }
  out += "}\n";
  return out;
}

// ---- Rule-file front end ----------------------------------------------------

namespace {

std::vector<std::string> SplitList(std::string_view s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

/// Parses the effect clause into `d`; returns "" or an error message.
std::string ParseEffectClause(std::string_view clause, RuleDecl* d) {
  // Tokenize at top level: identifiers optionally followed by (...) groups.
  size_t i = 0;
  while (i < clause.size()) {
    if (std::isspace(static_cast<unsigned char>(clause[i])) ||
        clause[i] == ',') {
      ++i;
      continue;
    }
    size_t start = i;
    while (i < clause.size() && clause[i] != '(' && clause[i] != ',' &&
           !std::isspace(static_cast<unsigned char>(clause[i]))) {
      ++i;
    }
    std::string word(clause.substr(start, i - start));
    std::string args;
    if (i < clause.size() && clause[i] == '(') {
      size_t close = clause.find(')', i);
      if (close == std::string_view::npos) {
        return StrCat("unterminated '(' in effect clause after '", word, "'");
      }
      args = std::string(clause.substr(i + 1, close - i - 1));
      i = close + 1;
    }
    if (word == "writes" || word == "raises") {
      auto names = SplitList(args);
      if (names.empty()) {
        return StrCat("'", word, "' needs at least one name");
      }
      for (auto& name : names) {
        if (!ptl::IsIdentifier(name)) {
          return StrCat("bad name '", name, "' in '", word, "'");
        }
        (word == "writes" ? d->effects.writes : d->effects.raises)
            .insert(std::move(name));
      }
    } else if (word == "abort") {
      d->effects.aborts = true;
    } else if (word == "pure") {
      // Declares the empty set; nothing to record.
    } else if (word == "level") {
      d->level_triggered = true;
    } else if (word == "record") {
      d->record_execution = true;
    } else if (word.rfind("priority=", 0) == 0) {
      const std::string num = word.substr(9);
      char* end = nullptr;
      long v = std::strtol(num.c_str(), &end, 10);
      if (num.empty() || end == nullptr || *end != '\0') {
        return StrCat("bad priority '", num, "'");
      }
      d->priority = static_cast<int>(v);
    } else {
      return StrCat("unknown effect token '", word, "'");
    }
  }
  return "";
}

}  // namespace

ParsedRuleSet ParseRuleSetText(std::string_view text) {
  ParsedRuleSet out;
  std::set<std::string> names;
  size_t anon = 0;
  for (const ptl::RuleLine& l : ptl::SplitRuleLines(text)) {
    if (!l.error.empty()) {
      out.errors.push_back(StrCat("line ", l.line, ": ", l.error));
      continue;
    }
    RuleDecl d;
    d.is_ic = l.is_ic;
    d.name = l.name.empty() ? StrCat("rule", ++anon) : std::string(l.name);
    if (!names.insert(d.name).second) {
      out.errors.push_back(StrCat("line ", l.line, ": duplicate rule name '",
                                  d.name, "'"));
      continue;
    }
    d.effects_declared = l.has_effects;
    d.source = std::string(l.condition);
    auto parsed = ptl::ParseFormula(d.source);
    if (!parsed.ok()) {
      out.errors.push_back(StrCat("line ", l.line, ": rule '", d.name, "': ",
                                  parsed.status().message()));
      continue;
    }
    d.condition = std::move(parsed).value();
    if (!l.effects.empty()) {
      std::string err = ParseEffectClause(l.effects, &d);
      if (!err.empty()) {
        out.errors.push_back(StrCat("line ", l.line, ": rule '", d.name,
                                    "': ", err));
        continue;
      }
    }
    if (d.is_ic) {
      d.effects.aborts = true;
      d.effects_declared = true;
    }
    d.boundedness =
        ptl::LintFormula(d.condition, ptl::LintOptions{false}).boundedness;
    out.decls.push_back(std::move(d));
  }
  return out;
}

}  // namespace ptldb::analysis

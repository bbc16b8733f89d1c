#include "ptl/lint.h"

#include <cctype>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "common/strings.h"
#include "ptl/naive_eval.h"
#include "ptl/parser.h"

namespace ptldb::ptl {

const char* BoundednessToString(Boundedness b) {
  switch (b) {
    case Boundedness::kConstant:
      return "constant";
    case Boundedness::kTimeBounded:
      return "time-bounded";
    case Boundedness::kUnbounded:
      return "unbounded";
  }
  return "?";
}

TimeAtomFate DecideTimeAtom(CmpOp cmp, int rel) {
  switch (cmp) {
    case CmpOp::kLe:  // t <= B: dead once now > B
      return rel > 0 ? TimeAtomFate::kSettlesFalse : TimeAtomFate::kUndecided;
    case CmpOp::kLt:  // t < B: dead once now >= B
      return rel >= 0 ? TimeAtomFate::kSettlesFalse : TimeAtomFate::kUndecided;
    case CmpOp::kGe:  // t >= B: settled once now >= B
      return rel >= 0 ? TimeAtomFate::kSettlesTrue : TimeAtomFate::kUndecided;
    case CmpOp::kGt:  // t > B: settled once now > B
      return rel > 0 ? TimeAtomFate::kSettlesTrue : TimeAtomFate::kUndecided;
    case CmpOp::kEq:  // t = B: dead once now > B
      return rel > 0 ? TimeAtomFate::kSettlesFalse : TimeAtomFate::kUndecided;
    case CmpOp::kNe:  // t != B: settled once now > B
      return rel > 0 ? TimeAtomFate::kSettlesTrue : TimeAtomFate::kUndecided;
  }
  return TimeAtomFate::kUndecided;
}

bool LintReport::has_errors() const {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) return true;
  }
  return false;
}

size_t LintReport::Count(Severity s) const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == s) ++n;
  }
  return n;
}

std::string LintReport::Render(std::string_view source) const {
  std::vector<std::string> parts;
  parts.reserve(diagnostics.size());
  for (const Diagnostic& d : diagnostics) {
    parts.push_back(RenderDiagnostic(d, source));
  }
  return Join(parts, "\n");
}

namespace {

// Swaps the sides of a comparison: `a cmp b` == `b Swap(cmp) a`.
CmpOp SwapCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
    case CmpOp::kEq:
    case CmpOp::kNe:
      return op;
  }
  return op;
}

// Copies the span of `from` onto a freshly built replacement node (the sole
// owner is the linter at this point, so the cast is benign — same idiom as
// the parser).
FormulaPtr WithSpanOf(FormulaPtr node, const FormulaPtr& from) {
  if (node != nullptr && from != nullptr && from->span.valid() &&
      !node->span.valid()) {
    const_cast<Formula*>(node.get())->span = from->span;
  }
  return node;
}

// Key for the `time` term in linear forms. User identifiers cannot start
// with '\x01' (the lexer rejects it), so no variable can collide.
constexpr const char kTimeKey[] = "\x01time";

const char* OpName(Formula::Kind k) {
  switch (k) {
    case Formula::Kind::kSince:
      return "SINCE";
    case Formula::Kind::kLasttime:
      return "LASTTIME";
    case Formula::Kind::kPreviously:
      return "PREVIOUSLY";
    case Formula::Kind::kThroughoutPast:
      return "THROUGHOUT_PAST";
    default:
      return "?";
  }
}

class Linter {
 public:
  explicit Linter(LintOptions opts) : opts_(opts) {}

  LintReport Run(const FormulaPtr& f) {
    LintReport rep;
    FormulaPtr folded = FoldFormula(f, 0);
    if (folded->kind == Formula::Kind::kFalse) {
      Emit(DiagCode::kNeverFires,
           "condition is constant false: the rule can never fire",
           SpanOrOf(folded, f));
    } else if (folded->kind == Formula::Kind::kTrue) {
      Emit(DiagCode::kAlwaysFires,
           "condition is constant true: the rule fires on every state",
           SpanOrOf(folded, f));
    }
    if (!opts_.fold) folded = f;
    scope_.clear();
    rep.boundedness = BoundFormula(folded, 0);
    rep.folded = folded;
    size_t before = FormulaSize(f);
    size_t after = FormulaSize(folded);
    rep.folded_nodes = before > after ? before - after : 0;
    rep.diagnostics = std::move(diags_);
    return rep;
  }

 private:
  // A binder in scope during a walk: its name, the temporal hop depth at
  // which it was bound, and whether it captures `time` (a "time point").
  struct ScopeEntry {
    std::string name;
    int depth;
    bool is_time;
  };

  static SourceSpan SpanOrOf(const FormulaPtr& a, const FormulaPtr& b) {
    return a->span.valid() ? a->span : b->span;
  }

  void Emit(DiagCode code, std::string msg, SourceSpan span) {
    Diagnostic d;
    d.code = code;
    d.severity = DiagCodeSeverity(code);
    d.message = std::move(msg);
    d.span = span;
    diags_.push_back(std::move(d));
  }

  const ScopeEntry* Lookup(const std::string& name) const {
    for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
      if (it->name == name) return &*it;
    }
    return nullptr;
  }

  // ---- Interval analysis over time points -----------------------------------
  //
  // An atom `lhs cmp rhs` is linearized to `sum(coeff_i * x_i) + c cmp 0`.
  // If everything cancels except two time points x (coeff +1) and y (coeff
  // -1), the difference d = x - y is constrained by the temporal structure:
  // with zero temporal hops between the two capture points d == 0 exactly;
  // with at least one hop the inner point lags, d ∈ (-∞, 0] (the clock is
  // nondecreasing). That interval decides many atoms outright.

  struct Linear {
    std::map<std::string, int64_t> coeffs;
    int64_t c = 0;
  };

  // Accumulates `sign * t` into `out`. Returns false when the term is not
  // linear over variables/time with integer constants (queries, aggregates,
  // multiplication, non-integer constants), or on int64 overflow.
  bool Linearize(const TermPtr& t, int sign, Linear* out) {
    switch (t->kind) {
      case Term::Kind::kConst: {
        if (!t->constant.is_int()) return false;
        int64_t v = t->constant.AsInt();
        return sign > 0 ? !__builtin_add_overflow(out->c, v, &out->c)
                        : !__builtin_sub_overflow(out->c, v, &out->c);
      }
      case Term::Kind::kVar:
        out->coeffs[t->name] += sign;
        return true;
      case Term::Kind::kTime:
        out->coeffs[kTimeKey] += sign;
        return true;
      case Term::Kind::kArith:
        switch (t->arith_op) {
          case ArithOp::kAdd:
            return Linearize(t->operands[0], sign, out) &&
                   Linearize(t->operands[1], sign, out);
          case ArithOp::kSub:
            return Linearize(t->operands[0], sign, out) &&
                   Linearize(t->operands[1], -sign, out);
          case ArithOp::kNeg:
            return Linearize(t->operands[0], -sign, out);
          default:
            return false;
        }
      default:
        return false;
    }
  }

  // Bind depth of a linear-form key when it names a time point: the hop
  // depth of the binder for variables, `atom_depth` for `time` itself.
  // nullopt when the key is not a time point (value binder, free parameter).
  std::optional<int> TimePointDepth(const std::string& key, int atom_depth) {
    if (key == kTimeKey) return atom_depth;
    const ScopeEntry* e = Lookup(key);
    if (e != nullptr && e->is_time) return e->depth;
    return std::nullopt;
  }

  // Decides `d cmp bound` for d ∈ (-∞, 0].
  static std::optional<bool> DecideNonPositive(CmpOp cmp, int64_t bound) {
    switch (cmp) {
      case CmpOp::kLe:
        if (bound >= 0) return true;
        return std::nullopt;
      case CmpOp::kLt:
        if (bound > 0) return true;
        return std::nullopt;
      case CmpOp::kGe:
        if (bound > 0) return false;
        return std::nullopt;
      case CmpOp::kGt:
        if (bound >= 0) return false;
        return std::nullopt;
      case CmpOp::kEq:
        if (bound > 0) return false;
        return std::nullopt;
      case CmpOp::kNe:
        if (bound > 0) return true;
        return std::nullopt;
    }
    return std::nullopt;
  }

  static bool CmpInts(CmpOp cmp, int64_t a, int64_t b) {
    switch (cmp) {
      case CmpOp::kEq:
        return a == b;
      case CmpOp::kNe:
        return a != b;
      case CmpOp::kLt:
        return a < b;
      case CmpOp::kLe:
        return a <= b;
      case CmpOp::kGt:
        return a > b;
      case CmpOp::kGe:
        return a >= b;
    }
    return false;
  }

  struct AtomVerdict {
    bool value;
    bool time_bound;  // the decision used the time-point interval
  };

  std::optional<AtomVerdict> DecideAtom(const Formula& f, int depth) {
    Linear lin;
    if (!Linearize(f.lhs_term, +1, &lin) || !Linearize(f.rhs_term, -1, &lin)) {
      return std::nullopt;
    }
    for (auto it = lin.coeffs.begin(); it != lin.coeffs.end();) {
      it = it->second == 0 ? lin.coeffs.erase(it) : std::next(it);
    }
    if (lin.coeffs.empty()) {
      // Fully cancelled: `c cmp 0` (covers `x + 1 > x` for any x).
      return AtomVerdict{CmpInts(f.cmp_op, lin.c, 0), false};
    }
    if (lin.coeffs.size() != 2) return std::nullopt;
    auto a = lin.coeffs.begin();
    auto b = std::next(a);
    if (a->second + b->second != 0 || a->second * a->second != 1) {
      return std::nullopt;
    }
    const std::string& pos_key = a->second > 0 ? a->first : b->first;
    const std::string& neg_key = a->second > 0 ? b->first : a->first;
    std::optional<int> dx = TimePointDepth(pos_key, depth);
    std::optional<int> dy = TimePointDepth(neg_key, depth);
    if (!dx.has_value() || !dy.has_value()) return std::nullopt;
    // Atom is `(x - y) cmp bound` with bound = -c.
    if (lin.c == INT64_MIN) return std::nullopt;
    int64_t bound = -lin.c;
    if (*dx == *dy) {
      // No temporal hop between the capture points: x == y exactly.
      return AtomVerdict{CmpInts(f.cmp_op, 0, bound), true};
    }
    CmpOp cmp = f.cmp_op;
    if (*dx < *dy) {
      // x is the outer point: x - y ∈ [0, ∞). Mirror into the canonical
      // form: (y - x) SwapCmp(cmp) (-bound), with y - x ∈ (-∞, 0].
      cmp = SwapCmp(cmp);
      bound = -bound;  // cannot overflow: bound != INT64_MIN (c != INT64_MAX
                       // would be needed; -c of any c != INT64_MIN is safe,
                       // and -bound == c)
    }
    std::optional<bool> decided = DecideNonPositive(cmp, bound);
    if (!decided.has_value()) return std::nullopt;
    return AtomVerdict{*decided, true};
  }

  // ---- Constant folding -----------------------------------------------------

  FormulaPtr FoldFormula(const FormulaPtr& f, int depth) {
    switch (f->kind) {
      case Formula::Kind::kTrue:
      case Formula::Kind::kFalse:
      case Formula::Kind::kEvent:
        return f;
      case Formula::Kind::kCompare:
        return FoldCompare(f, depth);
      case Formula::Kind::kNot: {
        FormulaPtr c = FoldFormula(f->left, depth);
        if (c->kind == Formula::Kind::kTrue) return WithSpanOf(False(), f);
        if (c->kind == Formula::Kind::kFalse) return WithSpanOf(True(), f);
        if (c == f->left) return f;
        return WithSpanOf(Not(std::move(c)), f);
      }
      case Formula::Kind::kAnd:
      case Formula::Kind::kOr:
        return FoldBinary(f, depth);
      case Formula::Kind::kSince:
        return FoldSince(f, depth);
      case Formula::Kind::kLasttime: {
        FormulaPtr c = FoldFormula(f->left, depth + 1);
        if (c->kind == Formula::Kind::kFalse) {
          NoteDegenerate(f, "its operand is constant false");
          return WithSpanOf(False(), f);
        }
        // LASTTIME true is NOT constant: it is false at the first state.
        if (c == f->left) return f;
        return WithSpanOf(Lasttime(std::move(c)), f);
      }
      case Formula::Kind::kPreviously:
      case Formula::Kind::kThroughoutPast: {
        FormulaPtr c = FoldFormula(f->left, depth + 1);
        if (c->kind == Formula::Kind::kTrue ||
            c->kind == Formula::Kind::kFalse) {
          // PREVIOUSLY g == g and THROUGHOUT_PAST g == g for constant g
          // (both recurrences fix constants from the first state on).
          NoteDegenerate(f, c->kind == Formula::Kind::kTrue
                                ? "its operand is constant true"
                                : "its operand is constant false");
          return WithSpanOf(c->kind == Formula::Kind::kTrue ? True() : False(),
                            f);
        }
        if (c == f->left) return f;
        return WithSpanOf(f->kind == Formula::Kind::kPreviously
                              ? Previously(std::move(c))
                              : ThroughoutPast(std::move(c)),
                          f);
      }
      case Formula::Kind::kBind: {
        TermPtr term = FoldTerm(f->bind_term, depth);
        scope_.push_back(
            {f->var, depth, f->bind_term->kind == Term::Kind::kTime});
        FormulaPtr body = FoldFormula(f->left, depth);
        scope_.pop_back();
        if (body->kind == Formula::Kind::kTrue ||
            body->kind == Formula::Kind::kFalse) {
          Emit(DiagCode::kConstantSubformula,
               StrCat("binder [", f->var,
                      " := ...] folded away: its body is constant"),
               f->span);
          return WithSpanOf(std::move(body), f);
        }
        if (term == f->bind_term && body == f->left) return f;
        return WithSpanOf(Bind(f->var, std::move(term), std::move(body)), f);
      }
    }
    return f;
  }

  FormulaPtr FoldCompare(const FormulaPtr& f, int depth) {
    // Ground comparison between literals: evaluate with the evaluator's own
    // comparison semantics so folding cannot diverge from runtime.
    if (f->lhs_term->kind == Term::Kind::kConst &&
        f->rhs_term->kind == Term::Kind::kConst) {
      Result<bool> v =
          ApplyCmp(f->cmp_op, f->lhs_term->constant, f->rhs_term->constant);
      if (v.ok()) {
        Emit(DiagCode::kConstantSubformula,
             StrCat("comparison of constants is always ",
                    v.value() ? "true" : "false"),
             f->span);
        return WithSpanOf(v.value() ? True() : False(), f);
      }
      return f;  // would error at runtime; leave it to surface there
    }
    std::optional<AtomVerdict> verdict = DecideAtom(*f, depth);
    if (verdict.has_value()) {
      if (verdict->time_bound) {
        Emit(verdict->value ? DiagCode::kTautologicalBound
                            : DiagCode::kContradictoryBound,
             verdict->value
                 ? "time bound always holds: every reachable state satisfies "
                   "it (the bound does not constrain the window)"
                 : "time bound can never hold: past states have time <= the "
                   "binder's capture, so this comparison is unsatisfiable",
             f->span);
      } else {
        Emit(DiagCode::kConstantSubformula,
             StrCat("comparison is always ",
                    verdict->value ? "true" : "false",
                    " (variables cancel)"),
             f->span);
      }
      return WithSpanOf(verdict->value ? True() : False(), f);
    }
    TermPtr lhs = FoldTerm(f->lhs_term, depth);
    TermPtr rhs = FoldTerm(f->rhs_term, depth);
    if (lhs == f->lhs_term && rhs == f->rhs_term) return f;
    return WithSpanOf(Compare(f->cmp_op, std::move(lhs), std::move(rhs)), f);
  }

  FormulaPtr FoldBinary(const FormulaPtr& f, int depth) {
    const bool is_and = f->kind == Formula::Kind::kAnd;
    FormulaPtr l = FoldFormula(f->left, depth);
    FormulaPtr r = FoldFormula(f->right, depth);
    const Formula::Kind absorbing =
        is_and ? Formula::Kind::kFalse : Formula::Kind::kTrue;
    const Formula::Kind identity =
        is_and ? Formula::Kind::kTrue : Formula::Kind::kFalse;
    if (l->kind == absorbing || r->kind == absorbing) {
      const FormulaPtr& other = l->kind == absorbing ? r : l;
      if (other->kind != Formula::Kind::kTrue &&
          other->kind != Formula::Kind::kFalse) {
        Emit(DiagCode::kConstantSubformula,
             StrCat("dead subformula: the enclosing ",
                    is_and ? "conjunction is constant false"
                           : "disjunction is constant true"),
             SpanOrOf(other, f));
      }
      return WithSpanOf(is_and ? False() : True(), f);
    }
    if (l->kind == identity) return r;
    if (r->kind == identity) return l;
    if (l == f->left && r == f->right) return f;
    return WithSpanOf(is_and ? And(std::move(l), std::move(r))
                             : Or(std::move(l), std::move(r)),
                      f);
  }

  FormulaPtr FoldSince(const FormulaPtr& f, int depth) {
    FormulaPtr l = FoldFormula(f->left, depth + 1);
    FormulaPtr r = FoldFormula(f->right, depth + 1);
    // Since recurrence: F_i = F_h,i OR (F_g,i AND F_{i-1}), init false.
    if (r->kind == Formula::Kind::kTrue) {
      NoteDegenerate(f, "its right operand is always satisfied");
      return WithSpanOf(True(), f);
    }
    if (r->kind == Formula::Kind::kFalse) {
      NoteDegenerate(f, "its right operand is never satisfied");
      return WithSpanOf(False(), f);
    }
    if (l->kind == Formula::Kind::kFalse) {
      // F_i = F_h,i: only the current state matters.
      NoteDegenerate(f, "its left operand is constant false: only the "
                        "current state is inspected");
      return r;
    }
    if (l->kind == Formula::Kind::kTrue) {
      // true SINCE h == PREVIOUSLY h.
      NoteDegenerate(f,
                     "its left operand is constant true: equivalent to "
                     "PREVIOUSLY of the right operand");
      return WithSpanOf(Previously(std::move(r)), f);
    }
    if (l == f->left && r == f->right) return f;
    return WithSpanOf(Since(std::move(l), std::move(r)), f);
  }

  void NoteDegenerate(const FormulaPtr& f, std::string_view why) {
    Emit(DiagCode::kConstantSubformula,
         StrCat(OpName(f->kind), " degenerates: ", why), f->span);
  }

  TermPtr FoldTerm(const TermPtr& t, int depth) {
    switch (t->kind) {
      case Term::Kind::kArith:
      case Term::Kind::kQuery: {
        std::vector<TermPtr> ops;
        ops.reserve(t->operands.size());
        bool changed = false;
        for (const TermPtr& op : t->operands) {
          TermPtr folded = FoldTerm(op, depth);
          changed |= folded != op;
          ops.push_back(std::move(folded));
        }
        if (!changed) return t;
        TermPtr out = t->kind == Term::Kind::kArith
                          ? Arith(t->arith_op, std::move(ops))
                          : QueryRef(t->name, std::move(ops));
        const_cast<Term*>(out.get())->span = t->span;
        return out;
      }
      case Term::Kind::kAgg: {
        // Aggregate formulas evaluate in their own machine: fresh scope and
        // depth; outer binders are not visible inside.
        std::vector<ScopeEntry> saved;
        saved.swap(scope_);
        FormulaPtr start = FoldFormula(t->agg_start, 0);
        FormulaPtr sample = FoldFormula(t->agg_sample, 0);
        saved.swap(scope_);
        if (start == t->agg_start && sample == t->agg_sample) return t;
        TermPtr out = AggTerm(t->agg_fn, t->agg_query, std::move(start),
                              std::move(sample));
        const_cast<Term*>(out.get())->span = t->span;
        return out;
      }
      default:
        return t;
    }
  }

  // ---- Boundedness ----------------------------------------------------------

  Boundedness BoundFormula(const FormulaPtr& f, int depth) {
    switch (f->kind) {
      case Formula::Kind::kTrue:
      case Formula::Kind::kFalse:
      case Formula::Kind::kEvent:
        return Boundedness::kConstant;
      case Formula::Kind::kCompare:
        return MaxBound(BoundTerm(f->lhs_term, depth),
                        BoundTerm(f->rhs_term, depth));
      case Formula::Kind::kNot:
        return BoundFormula(f->left, depth);
      case Formula::Kind::kAnd:
      case Formula::Kind::kOr:
        return MaxBound(BoundFormula(f->left, depth),
                        BoundFormula(f->right, depth));
      case Formula::Kind::kBind: {
        Boundedness t = BoundTerm(f->bind_term, depth);
        scope_.push_back(
            {f->var, depth, f->bind_term->kind == Term::Kind::kTime});
        Boundedness b = BoundFormula(f->left, depth);
        scope_.pop_back();
        return MaxBound(t, b);
      }
      case Formula::Kind::kLasttime:
        // LASTTIME retains exactly one instance of its operand: constant
        // size regardless of symbolic structure.
        return BoundFormula(f->left, depth + 1);
      case Formula::Kind::kSince:
      case Formula::Kind::kPreviously:
      case Formula::Kind::kThroughoutPast:
        return ClassifyRetainingOp(f, depth);
    }
    return Boundedness::kUnbounded;
  }

  Boundedness BoundTerm(const TermPtr& t, int depth) {
    switch (t->kind) {
      case Term::Kind::kArith:
      case Term::Kind::kQuery: {
        Boundedness b = Boundedness::kConstant;
        for (const TermPtr& op : t->operands) {
          b = MaxBound(b, BoundTerm(op, depth));
        }
        return b;
      }
      case Term::Kind::kAgg: {
        // The aggregate machine itself retains O(1) running state; its start
        // and sample formulas are evaluated in their own context.
        std::vector<ScopeEntry> saved;
        saved.swap(scope_);
        Boundedness b = MaxBound(BoundFormula(t->agg_start, 0),
                                 BoundFormula(t->agg_sample, 0));
        saved.swap(scope_);
        return b;
      }
      case Term::Kind::kWindowAgg:
        // Retains the last `width` ticks of samples: bounded by the window.
        return Boundedness::kTimeBounded;
      default:
        return Boundedness::kConstant;
    }
  }

  // Since / Previously / ThroughoutPast: the operators whose recurrence
  // accumulates one retained instance per state. `depth` is the operator's
  // own hop depth H; its operands evaluate at H+1.
  Boundedness ClassifyRetainingOp(const FormulaPtr& f, int depth) {
    Boundedness child = BoundFormula(f->left, depth + 1);
    if (f->right != nullptr) {
      child = MaxBound(child, BoundFormula(f->right, depth + 1));
    }

    Boundedness op_cls;
    std::vector<std::string> shadow;
    bool ground = !HasOuterVarF(f->left, depth, &shadow) &&
                  (f->right == nullptr ||
                   (shadow.clear(), !HasOuterVarF(f->right, depth, &shadow)));
    if (ground) {
      // Instances are ground at capture: they collapse to true/false
      // immediately, so the retained formula is a running constant.
      op_cls = Boundedness::kConstant;
    } else if (IsGuarded(f, depth)) {
      op_cls = Boundedness::kTimeBounded;
    } else if (SubsumptionBounded(f, depth)) {
      // §5 one-sided-atom subsumption keeps a running extremum: constant.
      op_cls = Boundedness::kConstant;
    } else {
      Emit(DiagCode::kUnboundedRetained,
           StrCat(OpName(f->kind),
                  " retains state that grows with history: instances stay "
                  "symbolic and no time bound prunes them (guard with "
                  "WITHIN/HELDFOR or a `time >= t - w` clause on an outer "
                  "[t := time] binder)"),
           f->span);
      op_cls = Boundedness::kUnbounded;
    }
    return MaxBound(op_cls, child);
  }

  bool IsGuarded(const FormulaPtr& f, int depth) {
    switch (f->kind) {
      case Formula::Kind::kSince:
        // F_i = OR_j (h_j AND g_{j+1} .. g_i): a term dies when its h
        // conjunct dies or any of its g conjuncts dies.
        return Dies(f->right, depth, depth + 1) ||
               Dies(f->left, depth, depth + 1);
      case Formula::Kind::kPreviously:
        return Dies(f->left, depth, depth + 1);
      case Formula::Kind::kThroughoutPast:
        // Retained conjuncts are absorbed once they settle to true.
        return Holds(f->left, depth, depth + 1);
      default:
        return false;
    }
  }

  // Guard analysis. `Dies(f)` / `Holds(f)`: every retained instance of `f`
  // settles to constant false / true within a bounded window of its capture
  // state, as the §5 pruning pass advances the clock. An instance keeps the
  // operator's *outer* binder variables (bind depth <= op_depth) symbolic;
  // everything else is a constant at capture.
  bool Dies(const FormulaPtr& f, int op_depth, int depth) {
    switch (f->kind) {
      case Formula::Kind::kFalse:
        return true;
      case Formula::Kind::kCompare:
        return GuardFate(*f, op_depth, depth) == TimeAtomFate::kSettlesFalse;
      case Formula::Kind::kNot:
        return Holds(f->left, op_depth, depth);
      case Formula::Kind::kAnd:
        return Dies(f->left, op_depth, depth) ||
               Dies(f->right, op_depth, depth);
      case Formula::Kind::kOr:
        return Dies(f->left, op_depth, depth) &&
               Dies(f->right, op_depth, depth);
      case Formula::Kind::kBind: {
        scope_.push_back(
            {f->var, depth, f->bind_term->kind == Term::Kind::kTime});
        bool d = Dies(f->left, op_depth, depth);
        scope_.pop_back();
        return d;
      }
      case Formula::Kind::kSince:
        // Every term of a nested Since instance conjoins h (and g for older
        // terms); if h's instances die, so does the whole.
        return Dies(f->right, op_depth, depth + 1);
      case Formula::Kind::kLasttime:
      case Formula::Kind::kPreviously:
      case Formula::Kind::kThroughoutPast:
        return Dies(f->left, op_depth, depth + 1);
      default:
        return false;
    }
  }

  bool Holds(const FormulaPtr& f, int op_depth, int depth) {
    switch (f->kind) {
      case Formula::Kind::kTrue:
        return true;
      case Formula::Kind::kCompare:
        return GuardFate(*f, op_depth, depth) == TimeAtomFate::kSettlesTrue;
      case Formula::Kind::kNot:
        return Dies(f->left, op_depth, depth);
      case Formula::Kind::kAnd:
        return Holds(f->left, op_depth, depth) &&
               Holds(f->right, op_depth, depth);
      case Formula::Kind::kOr:
        return Holds(f->left, op_depth, depth) ||
               Holds(f->right, op_depth, depth);
      case Formula::Kind::kBind: {
        scope_.push_back(
            {f->var, depth, f->bind_term->kind == Term::Kind::kTime});
        bool h = Holds(f->left, op_depth, depth);
        scope_.pop_back();
        return h;
      }
      case Formula::Kind::kSince:
        return Holds(f->left, op_depth, depth + 1) &&
               Holds(f->right, op_depth, depth + 1);
      case Formula::Kind::kLasttime:
      case Formula::Kind::kPreviously:
      case Formula::Kind::kThroughoutPast:
        return Holds(f->left, op_depth, depth + 1);
      default:
        return false;
    }
  }

  // Classifies a comparison as a prunable guard relative to the operator at
  // `op_depth`: a difference `x - y cmp c` between an inner time point x
  // (constant in the retained instance) and an outer time variable y (still
  // symbolic, all of whose future substitutions are >= its capture). The
  // retained atom is then `y cmp' B`, and DecideTimeAtom's table tells us
  // whether the clock eventually settles it.
  TimeAtomFate GuardFate(const Formula& f, int op_depth, int depth) {
    Linear lin;
    if (!Linearize(f.lhs_term, +1, &lin) || !Linearize(f.rhs_term, -1, &lin)) {
      return TimeAtomFate::kUndecided;
    }
    for (auto it = lin.coeffs.begin(); it != lin.coeffs.end();) {
      it = it->second == 0 ? lin.coeffs.erase(it) : std::next(it);
    }
    if (lin.coeffs.size() != 2) return TimeAtomFate::kUndecided;
    auto a = lin.coeffs.begin();
    auto b = std::next(a);
    if (a->second + b->second != 0 || a->second * a->second != 1) {
      return TimeAtomFate::kUndecided;
    }
    std::string pos_key = a->second > 0 ? a->first : b->first;
    std::string neg_key = a->second > 0 ? b->first : a->first;
    CmpOp cmp = f.cmp_op;
    // Normalize so the inner point carries +1: `(x - y) cmp c`.
    if (IsOuterTimeVar(pos_key, op_depth) &&
        IsInnerTimePoint(neg_key, op_depth, depth)) {
      std::swap(pos_key, neg_key);
      cmp = SwapCmp(cmp);
    }
    if (!IsInnerTimePoint(pos_key, op_depth, depth) ||
        !IsOuterTimeVar(neg_key, op_depth)) {
      return TimeAtomFate::kUndecided;
    }
    // In the retained instance x is a constant and y symbolic:
    //   x - y >= c  ==  y <= x - c   (an upper bound on y: dies)
    //   x - y <= c  ==  y >= x - c   (a lower bound on y: settles true)
    switch (cmp) {
      case CmpOp::kGe:
      case CmpOp::kGt:
      case CmpOp::kEq:
        return TimeAtomFate::kSettlesFalse;
      case CmpOp::kLe:
      case CmpOp::kLt:
      case CmpOp::kNe:
        return TimeAtomFate::kSettlesTrue;
    }
    return TimeAtomFate::kUndecided;
  }

  bool IsInnerTimePoint(const std::string& key, int op_depth, int depth) {
    if (key == kTimeKey) return true;
    const ScopeEntry* e = Lookup(key);
    (void)depth;
    return e != nullptr && e->is_time && e->depth > op_depth;
  }

  bool IsOuterTimeVar(const std::string& key, int op_depth) {
    if (key == kTimeKey) return false;
    const ScopeEntry* e = Lookup(key);
    return e != nullptr && e->is_time && e->depth <= op_depth;
  }

  // ---- Free-variable and subsumption shape analysis -------------------------

  // True when `f` references a variable bound outside the operator at
  // `op_depth` (all entries currently in scope_ are outside it); `shadow`
  // accumulates binders seen inside `f`, which hide same-named outer ones.
  bool HasOuterVarF(const FormulaPtr& f, int op_depth,
                    std::vector<std::string>* shadow) {
    switch (f->kind) {
      case Formula::Kind::kTrue:
      case Formula::Kind::kFalse:
        return false;
      case Formula::Kind::kCompare:
        return HasOuterVarT(f->lhs_term, op_depth, shadow) ||
               HasOuterVarT(f->rhs_term, op_depth, shadow);
      case Formula::Kind::kEvent:
        for (const TermPtr& a : f->event_args) {
          if (HasOuterVarT(a, op_depth, shadow)) return true;
        }
        return false;
      case Formula::Kind::kNot:
      case Formula::Kind::kLasttime:
      case Formula::Kind::kPreviously:
      case Formula::Kind::kThroughoutPast:
        return HasOuterVarF(f->left, op_depth, shadow);
      case Formula::Kind::kAnd:
      case Formula::Kind::kOr:
      case Formula::Kind::kSince:
        return HasOuterVarF(f->left, op_depth, shadow) ||
               HasOuterVarF(f->right, op_depth, shadow);
      case Formula::Kind::kBind: {
        if (HasOuterVarT(f->bind_term, op_depth, shadow)) return true;
        shadow->push_back(f->var);
        bool has = HasOuterVarF(f->left, op_depth, shadow);
        shadow->pop_back();
        return has;
      }
    }
    return false;
  }

  bool HasOuterVarT(const TermPtr& t, int op_depth,
                    std::vector<std::string>* shadow) {
    switch (t->kind) {
      case Term::Kind::kVar: {
        for (auto it = shadow->rbegin(); it != shadow->rend(); ++it) {
          if (*it == t->name) return false;  // rebound inside
        }
        // Any binder variable currently in scope was bound outside the
        // operator being classified; unknown names are rule parameters
        // (constants at registration).
        return Lookup(t->name) != nullptr;
      }
      case Term::Kind::kArith:
      case Term::Kind::kQuery:
        for (const TermPtr& op : t->operands) {
          if (HasOuterVarT(op, op_depth, shadow)) return true;
        }
        return false;
      case Term::Kind::kAgg: {
        if (HasOuterVarF(t->agg_start, op_depth, shadow)) return true;
        return HasOuterVarF(t->agg_sample, op_depth, shadow);
      }
      default:
        return false;
    }
  }

  // §5 subsumption shape: instances reduce to at most ONE one-sided atom
  // whose symbolic side is identical across instances (outer variables and
  // constants only). The evaluator's SubsumeIntervalAtoms then keeps a
  // running extremum per (expression, comparison) key, so retained state
  // stays O(1). Returns the number of such atoms, or -1 when the shape does
  // not collapse (binders, nested temporal operators, symbolic atoms that
  // are not one-sided, or equality atoms).
  int SubShape(const FormulaPtr& f, int op_depth,
               std::vector<std::string>* shadow) {
    switch (f->kind) {
      case Formula::Kind::kTrue:
      case Formula::Kind::kFalse:
        return 0;
      case Formula::Kind::kEvent:
        for (const TermPtr& a : f->event_args) {
          if (HasOuterVarT(a, op_depth, shadow)) return -1;
        }
        return 0;
      case Formula::Kind::kCompare: {
        bool l = HasOuterVarT(f->lhs_term, op_depth, shadow);
        bool r = HasOuterVarT(f->rhs_term, op_depth, shadow);
        if (!l && !r) return 0;  // ground at capture
        if (l && r) return -1;
        if (f->cmp_op == CmpOp::kEq || f->cmp_op == CmpOp::kNe) return -1;
        const TermPtr& sym = l ? f->lhs_term : f->rhs_term;
        return OuterOnlyTerm(sym, shadow) ? 1 : -1;
      }
      case Formula::Kind::kNot: {
        // NOT over an atom folds into the complementary one-sided atom.
        return SubShape(f->left, op_depth, shadow);
      }
      case Formula::Kind::kAnd:
      case Formula::Kind::kOr: {
        int a = SubShape(f->left, op_depth, shadow);
        int b = SubShape(f->right, op_depth, shadow);
        if (a < 0 || b < 0) return -1;
        return a + b;
      }
      default:
        return -1;
    }
  }

  // The symbolic side must be the *same expression in the graph* for every
  // instance: constants, outer binder variables, and rule parameters only.
  bool OuterOnlyTerm(const TermPtr& t, std::vector<std::string>* shadow) {
    switch (t->kind) {
      case Term::Kind::kConst:
      case Term::Kind::kVar:
        return true;  // vars: outer binder or parameter — fixed either way
      case Term::Kind::kArith:
        for (const TermPtr& op : t->operands) {
          if (!OuterOnlyTerm(op, shadow)) return false;
        }
        return true;
      default:
        return false;  // time/queries/aggregates vary per instance
    }
  }

  bool SubsumptionBounded(const FormulaPtr& f, int depth) {
    std::vector<std::string> shadow;
    int n = SubShape(f->left, depth, &shadow);
    if (n < 0) return false;
    if (f->right != nullptr) {
      shadow.clear();
      int m = SubShape(f->right, depth, &shadow);
      if (m < 0) return false;
      n += m;
    }
    return n <= 1;
  }

  LintOptions opts_;
  std::vector<ScopeEntry> scope_;
  std::vector<Diagnostic> diags_;
};

std::string_view Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

// Indents every line of `text` by two spaces.
std::string Indent(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  size_t start = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    std::string_view line =
        text.substr(start, nl == std::string_view::npos ? std::string_view::npos
                                                        : nl - start);
    out.append("  ").append(line);
    if (nl == std::string_view::npos) break;
    out.push_back('\n');
    start = nl + 1;
  }
  return out;
}

/// First '|' outside single/double-quoted string literals, or npos.
size_t FindEffectSeparator(std::string_view s) {
  char quote = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (quote != 0) {
      if (c == quote) quote = 0;
    } else if (c == '\'' || c == '"') {
      quote = c;
    } else if (c == '|') {
      return i;
    }
  }
  return std::string_view::npos;
}

}  // namespace

bool IsIdentifier(std::string_view s) {
  if (s.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_') {
    return false;
  }
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

std::vector<RuleLine> SplitRuleLines(std::string_view text) {
  std::vector<RuleLine> out;
  size_t line_no = 0;
  for (size_t pos = 0; pos <= text.size();) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view rest = Trim(text.substr(pos, eol - pos));
    pos = eol + 1;
    ++line_no;
    if (rest.empty() || rest.front() == '#') continue;
    RuleLine l;
    l.line = line_no;
    if (rest.rfind("trigger ", 0) == 0) {
      rest = Trim(rest.substr(8));
    } else if (rest.rfind("ic ", 0) == 0) {
      l.is_ic = true;
      rest = Trim(rest.substr(3));
    }
    size_t def = rest.find(":=");
    if (def != std::string_view::npos &&
        rest.substr(0, def).find('[') == std::string_view::npos) {
      l.name = Trim(rest.substr(0, def));
      if (!IsIdentifier(l.name)) {
        l.error = StrCat("bad rule name '", l.name, "'");
      }
      rest = Trim(rest.substr(def + 2));
    }
    l.condition = rest;
    size_t sep = FindEffectSeparator(rest);
    if (sep != std::string_view::npos) {
      l.condition = Trim(rest.substr(0, sep));
      l.has_effects = true;
      l.effects = Trim(rest.substr(sep + 1));
    }
    out.push_back(std::move(l));
  }
  return out;
}

LintReport LintFormula(const FormulaPtr& f, const LintOptions& opts) {
  if (f == nullptr) return LintReport{};
  Linter linter(opts);
  return linter.Run(f);
}

FileLintResult LintRulesText(std::string_view text, const LintOptions& opts) {
  FileLintResult out;
  std::vector<std::string> rendered;
  for (const RuleLine& l : SplitRuleLines(text)) {
    ++out.rules;
    std::string label = l.name.empty() ? StrCat("<line ", l.line, ">")
                                       : std::string(l.name);
    std::string_view cond = l.condition;
    FileLintResult::RuleLint entry_rec;
    entry_rec.name = label;
    entry_rec.line = l.line;
    entry_rec.condition = std::string(cond);

    Result<FormulaPtr> parsed = l.error.empty()
                                    ? ParseFormula(cond)
                                    : Status::ParseError(l.error);
    if (!parsed.ok()) {
      ++out.errors;
      entry_rec.parse_error = parsed.status().message();
      out.entries.push_back(std::move(entry_rec));
      rendered.push_back(StrCat(
          label, " (line ", l.line, "): parse failed\n",
          Indent(StrCat(DiagCodeName(DiagCode::kParseError), " error: ",
                        parsed.status().message()))));
      continue;
    }
    LintReport rep = LintFormula(parsed.value(), opts);
    out.errors += rep.Count(Severity::kError);
    out.warnings += rep.Count(Severity::kWarning);
    if (rep.boundedness == Boundedness::kUnbounded) ++out.unbounded;
    entry_rec.report = rep;
    out.entries.push_back(std::move(entry_rec));
    std::string entry =
        StrCat(label, " (line ", l.line,
               "): boundedness: ", BoundednessToString(rep.boundedness), ", ",
               rep.diagnostics.size(), " diagnostic",
               rep.diagnostics.size() == 1 ? "" : "s");
    if (!rep.diagnostics.empty()) {
      entry.push_back('\n');
      entry += Indent(rep.Render(cond));
    }
    rendered.push_back(std::move(entry));
  }
  rendered.push_back(StrCat(out.rules, " rule", out.rules == 1 ? "" : "s",
                            ": ", out.errors, " error",
                            out.errors == 1 ? "" : "s", ", ", out.warnings,
                            " warning", out.warnings == 1 ? "" : "s", ", ",
                            out.unbounded, " unbounded"));
  out.rendered = Join(rendered, "\n");
  return out;
}

}  // namespace ptldb::ptl

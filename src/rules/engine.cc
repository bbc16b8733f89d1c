#include "rules/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"
#include "db/tuple.h"

namespace ptldb::rules {

namespace {

constexpr int kMaxDispatchDepth = 32;

// Schema of an auxiliary aggregate item (one row).
db::Schema AggItemSchema() {
  return db::Schema({{"started", ValueType::kBool},
                     {"sum", ValueType::kDouble},
                     {"cnt", ValueType::kInt64},
                     {"minv", ValueType::kDouble},
                     {"maxv", ValueType::kDouble}});
}

db::Tuple InitialAggRow() {
  return {Value::Bool(false), Value::Real(0), Value::Int(0), Value::Null(),
          Value::Null()};
}

// Collects the event names a condition mentions and whether it uses
// Lasttime, without requiring parameter substitution (used for the §8
// relevance index, including for rule families).
void CollectTermMeta(const ptl::TermPtr& t, std::set<std::string>* events,
                     bool* uses_lasttime);

void CollectConditionMeta(const ptl::FormulaPtr& f,
                          std::set<std::string>* events, bool* uses_lasttime) {
  if (f == nullptr) return;
  if (f->kind == ptl::Formula::Kind::kEvent) events->insert(f->event_name);
  if (f->kind == ptl::Formula::Kind::kLasttime) *uses_lasttime = true;
  CollectTermMeta(f->lhs_term, events, uses_lasttime);
  CollectTermMeta(f->rhs_term, events, uses_lasttime);
  CollectTermMeta(f->bind_term, events, uses_lasttime);
  CollectConditionMeta(f->left, events, uses_lasttime);
  CollectConditionMeta(f->right, events, uses_lasttime);
}

void CollectTermMeta(const ptl::TermPtr& t, std::set<std::string>* events,
                     bool* uses_lasttime) {
  if (t == nullptr) return;
  for (const ptl::TermPtr& op : t->operands) {
    CollectTermMeta(op, events, uses_lasttime);
  }
  CollectConditionMeta(t->agg_start, events, uses_lasttime);
  CollectConditionMeta(t->agg_sample, events, uses_lasttime);
}

// Canonical rendering of a parameter map (instance key / __executed column).
std::string ParamsKey(const std::map<std::string, Value>& params) {
  std::vector<std::string> parts;
  parts.reserve(params.size());
  for (const auto& [name, value] : params) {
    parts.push_back(StrCat(name, "=", value.ToString()));
  }
  return Join(parts, ",");
}

}  // namespace

RuleEngine::RuleEngine(db::Database* database)
    : database_(database), registry_(database) {
  // §7: the execution log is an ordinary, queryable relation.
  Status s = database_->CreateTable(
      kExecutedTable, db::Schema({{"rule", ValueType::kString},
                                  {"params", ValueType::kString},
                                  {"t", ValueType::kInt64}}));
  PTLDB_CHECK_OK(s);
  database_->SetListener(this);
}

RuleEngine::~RuleEngine() {
  if (metrics_ != nullptr) metrics_->RemoveProvider(metrics_provider_id_);
  database_->SetListener(nullptr);
}

// ---- Observability ----------------------------------------------------------

void RuleEngine::SetMetrics(Metrics* metrics) {
  if (metrics_ != nullptr) metrics_->RemoveProvider(metrics_provider_id_);
  metrics_ = metrics;
  if (metrics_ == nullptr) {
    ins_ = MetricSet{};
    metrics_provider_id_ = 0;
    return;
  }
  ins_.states_processed = &metrics_->counter("engine.states_processed");
  ins_.rule_steps = &metrics_->counter("engine.rule_steps");
  ins_.steps_skipped_by_filter =
      &metrics_->counter("engine.steps_skipped_by_filter");
  ins_.actions_executed = &metrics_->counter("engine.actions_executed");
  ins_.ic_checks = &metrics_->counter("engine.ic_checks");
  ins_.ic_violations = &metrics_->counter("engine.ic_violations");
  ins_.instances_created = &metrics_->counter("engine.instances_created");
  ins_.parallel_dispatches = &metrics_->counter("engine.parallel_dispatches");
  ins_.collections = &metrics_->counter("engine.collections");
  ins_.errors = &metrics_->counter("engine.errors");
  ins_.query_evals = &metrics_->counter("query.evals");
  ins_.query_memo_hits = &metrics_->counter("query.memo_hits");
  ins_.snapshot_layout_hits = &metrics_->counter("query.snapshot_layout_hits");
  ins_.gather_ns = &metrics_->histogram("engine.gather_ns");
  ins_.step_ns = &metrics_->histogram("engine.step_ns");
  ins_.merge_ns = &metrics_->histogram("engine.merge_ns");
  ins_.action_ns = &metrics_->histogram("engine.action_ns");
  metrics_provider_id_ =
      metrics_->AddProvider([this](Metrics& m) { RefreshDerivedMetrics(m); });
}

void RuleEngine::RefreshDerivedMetrics(Metrics& m) {
  m.gauge("engine.rules").Set(static_cast<int64_t>(rules_.size()));
  m.gauge("engine.threads").Set(static_cast<int64_t>(num_threads_));
  m.gauge("engine.batch_queue_depth")
      .Set(static_cast<int64_t>(batch_queue_.size()));
  size_t instances = 0, live = 0, store = 0;
  uint64_t collections = 0, prune_hits = 0, subsume_hits = 0;
  uint64_t mask_skips = 0, subst_hits = 0, subst_misses = 0;
  int64_t unbounded_rules = 0, folded_nodes = 0;
  for (const auto& rule : rules_) {
    if (rule->lint.boundedness == ptl::Boundedness::kUnbounded) {
      ++unbounded_rules;
    }
    folded_nodes += static_cast<int64_t>(rule->lint.folded_nodes);
    size_t rule_live = 0, rule_store = 0;
    uint64_t rule_steps = 0;
    for (const auto& instance : rule->instances) {
      rule_live += instance->ev.LiveNodeCount();
      rule_store += instance->ev.StoreNodeCount();
      rule_steps += instance->ev.steps();
      collections += instance->ev.collections();
      prune_hits += instance->ev.prune_hits();
      subsume_hits += instance->ev.subsume_hits();
      mask_skips += instance->ev.mask_skips();
      subst_hits += instance->ev.subst_cache_hits();
      subst_misses += instance->ev.subst_cache_misses();
    }
    instances += rule->instances.size();
    live += rule_live;
    store += rule_store;
    if (rule->is_system) continue;  // keep generated-rule cardinality out
    const std::string base = StrCat("rule.", rule->name);
    m.gauge(base + ".steps").Set(static_cast<int64_t>(rule_steps));
    m.gauge(base + ".fires").Set(static_cast<int64_t>(rule->fires));
    m.gauge(base + ".retained_nodes").Set(static_cast<int64_t>(rule_live));
    m.gauge(base + ".store_nodes").Set(static_cast<int64_t>(rule_store));
    m.gauge(base + ".boundedness")
        .Set(static_cast<int64_t>(rule->lint.boundedness));
  }
  m.gauge("lint.unbounded_rules").Set(unbounded_rules);
  m.gauge("lint.folded_nodes").Set(folded_nodes);
  {
    // Rule-set analysis certificates (cached; recomputed only after the
    // population changed).
    const analysis::SetReport& rep = AnalyzeRuleSet();
    m.gauge("analysis.edges").Set(static_cast<int64_t>(rep.edges.size()));
    m.gauge("analysis.partitions").Set(static_cast<int64_t>(rep.partitions));
    m.gauge("analysis.commutative_rules")
        .Set(static_cast<int64_t>(rep.commutative_rules));
    m.gauge("analysis.flagged_cycles")
        .Set(static_cast<int64_t>(rep.flagged_cycles));
    m.gauge("analysis.proven_cycles")
        .Set(static_cast<int64_t>(rep.proven_cycles));
  }
  m.gauge("engine.instances").Set(static_cast<int64_t>(instances));
  m.gauge("evaluator.live_nodes").Set(static_cast<int64_t>(live));
  m.gauge("evaluator.store_nodes").Set(static_cast<int64_t>(store));
  m.gauge("evaluator.collections").Set(static_cast<int64_t>(collections));
  m.gauge("evaluator.prune_hits").Set(static_cast<int64_t>(prune_hits));
  m.gauge("evaluator.subsume_hits").Set(static_cast<int64_t>(subsume_hits));
  m.gauge("evaluator.mask_skips").Set(static_cast<int64_t>(mask_skips));
  m.gauge("evaluator.subst_cache_hits").Set(static_cast<int64_t>(subst_hits));
  m.gauge("evaluator.subst_cache_misses")
      .Set(static_cast<int64_t>(subst_misses));
}

// ---- Firing-provenance tracing ----------------------------------------------

json::Json RuleEngine::MakeUpdateRecord(const Rule& rule,
                                        const Instance& instance,
                                        const ptl::StateSnapshot& snapshot,
                                        bool satisfied, bool was_satisfied,
                                        bool fired) {
  json::Json rec = json::Json::Object();
  rec.Set("kind", json::Json::Str("update"));
  rec.Set("rule", json::Json::Str(rule.name));
  if (!instance.params_key.empty()) {
    rec.Set("params", json::Json::Str(instance.params_key));
  }
  // The grounded condition re-parses and re-analyzes to the same query-slot
  // order, which is what lets TraceReplay line the recorded values back up.
  rec.Set("condition",
          json::Json::Str(instance.ev.analysis().root->ToString()));
  rec.Set("step", json::Json::UInt(instance.ev.steps()));
  rec.Set("seq", json::Json::Int(static_cast<int64_t>(snapshot.seq)));
  rec.Set("time", json::Json::Int(snapshot.time));
  rec.Set("events", EncodeSnapshotEvents(snapshot));
  rec.Set("query_values", EncodeSnapshotQueryValues(snapshot));
  rec.Set("satisfied", json::Json::Bool(satisfied));
  rec.Set("was_satisfied", json::Json::Bool(was_satisfied));
  rec.Set("fired", json::Json::Bool(fired));
  return rec;
}

void RuleEngine::EmitRecurrenceSpans(const eval::IncrementalEvaluator& ev) {
  for (const auto& flip : ev.last_step_trace().flips) {
    trace::Span span;
    span.kind = trace::SpanKind::kRecurrence;
    span.instant = true;
    span.start_ns = trace::Recorder::NowNs();
    span.seq = flip.seq;
    span.name = flip.subformula;
    span.detail = StrCat(flip.op, " -> ", flip.transition);
    trace_->RecordSpan(std::move(span));
  }
}

void RuleEngine::CaptureWitness(
    Rule* rule, const Instance& instance, const ptl::StateSnapshot& snapshot,
    std::vector<eval::IncrementalEvaluator::WitnessLink> chain) {
  Witness w;
  w.rule = rule->name;
  w.params = instance.params_key;
  w.condition = instance.ev.analysis().root->ToString();
  w.seq = static_cast<int64_t>(snapshot.seq);
  w.time = snapshot.time;
  w.chain = std::move(chain);
  rule->last_witness = std::move(w);
}

Result<std::string> RuleEngine::Why(const std::string& name) const {
  auto it = rule_index_.find(name);
  if (it == rule_index_.end()) {
    return Status::NotFound(StrCat("no rule named '", name, "'"));
  }
  const Rule& rule = *rules_[it->second];
  if (rule.fires == 0) {
    return Status::NotFound(
        StrCat("rule '", name, "' has never fired",
               rule.is_ic ? " (no commit has violated it)" : ""));
  }
  if (!rule.last_witness.has_value()) {
    return StrCat("rule '", name, "' has fired ", rule.fires,
                  " time(s), but no witness was captured — enable tracing "
                  "before the next firing to record one");
  }
  return WitnessSummary(*rule.last_witness);
}

// ---- Registration -----------------------------------------------------------

Status RuleEngine::AddTrigger(const std::string& name,
                              std::string_view condition, ActionFn action,
                              RuleOptions options) {
  PTLDB_ASSIGN_OR_RETURN(ptl::FormulaPtr f, ptl::ParseFormula(condition));
  return AddRuleInternal(name, std::move(f), std::move(action), options,
                         /*is_ic=*/false, /*is_family=*/false, "", {},
                         std::string(condition));
}

Status RuleEngine::AddTriggerFormula(const std::string& name,
                                     ptl::FormulaPtr condition, ActionFn action,
                                     RuleOptions options) {
  return AddRuleInternal(name, std::move(condition), std::move(action), options,
                         /*is_ic=*/false, /*is_family=*/false, "", {});
}

Status RuleEngine::AddIntegrityConstraint(const std::string& name,
                                          std::string_view constraint) {
  PTLDB_ASSIGN_OR_RETURN(ptl::FormulaPtr c, ptl::ParseFormula(constraint));
  // The negation wrapper is synthesized (no span); inner spans still point
  // into the constraint text, so diagnostics render against it.
  return AddRuleInternal(name, ptl::Not(std::move(c)), nullptr, RuleOptions{},
                         /*is_ic=*/true, /*is_family=*/false, "", {},
                         std::string(constraint));
}

Status RuleEngine::AddIntegrityConstraintFormula(const std::string& name,
                                                 ptl::FormulaPtr constraint) {
  // The rule's condition is the *negation* of the constraint; its action is
  // abort(X), realized by the commit-attempt veto.
  return AddRuleInternal(name, ptl::Not(std::move(constraint)), nullptr,
                         RuleOptions{}, /*is_ic=*/true, /*is_family=*/false,
                         "", {});
}

Status RuleEngine::AddTriggerFamily(const std::string& name,
                                    std::string_view domain_sql,
                                    std::vector<std::string> param_names,
                                    std::string_view condition, ActionFn action,
                                    RuleOptions options) {
  if (param_names.empty()) {
    return Status::InvalidArgument("rule family needs at least one parameter");
  }
  PTLDB_ASSIGN_OR_RETURN(ptl::FormulaPtr f, ptl::ParseFormula(condition));
  return AddRuleInternal(name, std::move(f), std::move(action), options,
                         /*is_ic=*/false, /*is_family=*/true, domain_sql,
                         std::move(param_names), std::string(condition));
}

Status RuleEngine::AddTriggerFamilyFormula(const std::string& name,
                                           std::string_view domain_sql,
                                           std::vector<std::string> param_names,
                                           ptl::FormulaPtr condition,
                                           ActionFn action,
                                           RuleOptions options) {
  if (param_names.empty()) {
    return Status::InvalidArgument("rule family needs at least one parameter");
  }
  return AddRuleInternal(name, std::move(condition), std::move(action), options,
                         /*is_ic=*/false, /*is_family=*/true, domain_sql,
                         std::move(param_names));
}

Status RuleEngine::AddRuleInternal(std::string name, ptl::FormulaPtr condition,
                                   ActionFn action, RuleOptions options,
                                   bool is_ic, bool is_family,
                                   std::string_view domain_sql,
                                   std::vector<std::string> param_names,
                                   std::string source) {
  if (dispatch_depth_ > 0) {
    return Status::InvalidArgument(
        "rules cannot be added from within rule actions");
  }
  if (rule_index_.count(name) > 0) {
    return Status::AlreadyExists(StrCat("rule '", name, "' already exists"));
  }
  // Any mutation attempt invalidates the cached rule-set analysis, even on
  // failure paths (the aggregate rewrite may have registered system rules
  // before a later step failed).
  set_report_dirty_ = true;

  // Static analysis runs before the aggregate rewrite, so strict rejection
  // leaves no generated system rules or auxiliary tables behind, and folding
  // shrinks what both the rewriter and the evaluator see.
  ptl::LintOptions lint_opts;
  lint_opts.fold = lint_folding_;
  ptl::LintReport lint = ptl::LintFormula(condition, lint_opts);
  if (strict_registration_ &&
      (lint.has_errors() ||
       lint.boundedness == ptl::Boundedness::kUnbounded)) {
    std::string rendered = lint.Render(source);
    return Status::InvalidArgument(
        StrCat("rule '", name, "' rejected by strict registration "
               "(retained state: ",
               ptl::BoundednessToString(lint.boundedness), ")",
               rendered.empty() ? "" : "\n", rendered));
  }
  if (lint_folding_ && lint.folded != nullptr) condition = lint.folded;

  if (options.aggregate_mode == AggregateMode::kRewrite) {
    if (is_family) {
      return Status::NotImplemented(
          "aggregate rewriting for rule families is not supported; use "
          "AggregateMode::kDirect (indexed aggregate items are evaluated "
          "per instance there)");
    }
    PTLDB_ASSIGN_OR_RETURN(agg::RewriteResult rewrite,
                           agg::RewriteAggregates(condition, name));
    PTLDB_RETURN_IF_ERROR(MaterializeRewrite(name, rewrite));
    condition = rewrite.condition;
  }

  auto rule = std::make_unique<Rule>();
  rule->name = name;
  rule->condition = std::move(condition);
  rule->action = std::move(action);
  rule->options = options;
  rule->source = std::move(source);
  rule->lint = std::move(lint);
  rule->is_ic = is_ic;
  rule->is_family = is_family;
  rule->param_names = std::move(param_names);
  rule->registration_order = next_registration_order_++;
  CollectConditionMeta(rule->condition, &rule->event_names,
                       &rule->uses_lasttime);
  if (rule->options.event_filtered && rule->uses_lasttime) {
    return Status::InvalidArgument(
        StrCat("rule '", name,
               "': event_filtered cannot be combined with Lasttime (the "
               "filter would shift its frame of reference)"));
  }
  if (is_family) {
    PTLDB_ASSIGN_OR_RETURN(rule->domain, db::ParseSql(domain_sql));
  } else {
    // Plain rules and ICs have a single parameterless instance; build it now
    // so malformed conditions are rejected at registration.
    PTLDB_ASSIGN_OR_RETURN(Instance * unused, MakeInstance(rule.get(), {}));
    (void)unused;
  }
  rule_index_.emplace(rule->name, rules_.size());
  rules_.push_back(std::move(rule));
  RebuildEventIndex();

  // Strict registration, rule-set tier: reject a rule whose addition closes
  // a triggering cycle the termination analysis cannot prove finite. The
  // rule (and any system rules its rewrite generated) is rolled back so
  // strict mode never leaves a flagged population behind.
  if (strict_registration_) {
    const analysis::SetReport& report = AnalyzeRuleSet();
    const analysis::RuleReport* rr = report.Find(name);
    if (rr != nullptr && rr->in_flagged_cycle) {
      std::vector<std::string> rendered;
      for (const ptl::Diagnostic& d : rr->diagnostics) {
        if (d.code == ptl::DiagCode::kRuleCycle) rendered.push_back(d.message);
      }
      PTLDB_CHECK_OK(RemoveRule(name));
      return Status::InvalidArgument(StrCat(
          "rule '", name, "' rejected by strict registration (",
          ptl::DiagCodeName(ptl::DiagCode::kRuleCycle),
          " unproven triggering cycle): ", Join(rendered, "; ")));
    }
  }
  return Status::OK();
}

void RuleEngine::RebuildEventIndex() {
  event_index_.clear();
  for (const auto& rule : rules_) {
    if (rule->is_system || !rule->options.event_filtered ||
        rule->event_names.empty()) {
      continue;
    }
    for (const std::string& name : rule->event_names) {
      event_index_[name].push_back(rule.get());
    }
  }
}

Status RuleEngine::MaterializeRewrite(const std::string& rule_name,
                                      const agg::RewriteResult& rewrite) {
  (void)rule_name;  // the generated names are already namespaced by the rewriter
  for (const agg::AuxItem& item : rewrite.items) {
    PTLDB_RETURN_IF_ERROR(database_->CreateTable(item.name, AggItemSchema()));
    PTLDB_ASSIGN_OR_RETURN(db::Table * table,
                           database_->catalog().GetTable(item.name));
    PTLDB_RETURN_IF_ERROR(table->Insert(InitialAggRow()));
    // The computed query derives the aggregate's current value from the row.
    ptl::TemporalAggFn fn = item.fn;
    std::string table_name = item.name;
    db::Database* db = database_;
    PTLDB_RETURN_IF_ERROR(registry_.RegisterComputed(
        item.name,
        [db, table_name, fn](const std::vector<Value>& args) -> Result<Value> {
          if (!args.empty()) {
            return Status::InvalidArgument("aggregate item takes no arguments");
          }
          PTLDB_ASSIGN_OR_RETURN(const db::Table* t,
                                 static_cast<const db::Database*>(db)
                                     ->catalog()
                                     .GetTable(table_name));
          const db::Tuple& row = t->rows()[0];
          const Value& sum = row[1];
          const Value& cnt = row[2];
          switch (fn) {
            case ptl::TemporalAggFn::kSum:
              return sum;
            case ptl::TemporalAggFn::kCount:
              return cnt;
            case ptl::TemporalAggFn::kAvg:
              if (cnt.AsInt() == 0) return Value::Null();
              return Value::Real(sum.AsDouble() /
                                 static_cast<double>(cnt.AsInt()));
            case ptl::TemporalAggFn::kMin:
              return row[3];
            case ptl::TemporalAggFn::kMax:
              return row[4];
          }
          return Status::Internal("unknown aggregate fn");
        }));
  }
  for (const agg::SystemRule& sys : rewrite.system_rules) {
    auto rule = std::make_unique<Rule>();
    rule->name = sys.name;
    rule->condition = sys.condition;
    // Classify (but never fold or reject) generated conditions so the
    // boundedness gauges account for them too.
    ptl::LintOptions lint_opts;
    lint_opts.fold = false;
    rule->lint = ptl::LintFormula(rule->condition, lint_opts);
    rule->is_system = true;
    rule->sys_op = sys.op;
    rule->sys_item = sys.item;
    rule->sys_source = sys.source;
    rule->registration_order = next_registration_order_++;
    PTLDB_ASSIGN_OR_RETURN(Instance * unused, MakeInstance(rule.get(), {}));
    (void)unused;
    rule_index_.emplace(rule->name, rules_.size());
    rules_.push_back(std::move(rule));
  }
  return Status::OK();
}

Result<RuleEngine::Instance*> RuleEngine::MakeInstance(
    Rule* rule, std::map<std::string, Value> params) {
  ptl::FormulaPtr grounded = ptl::SubstituteParams(rule->condition, params);
  PTLDB_ASSIGN_OR_RETURN(ptl::Analysis analysis, ptl::Analyze(grounded));
  // Make sure every query the condition mentions is resolvable now.
  for (const ptl::QuerySpec& spec : analysis.slots) {
    if (!registry_.Has(spec.name)) {
      return Status::NotFound(
          StrCat("rule '", rule->name, "': no query registered for function "
                 "symbol '", spec.name, "'"));
    }
  }
  PTLDB_ASSIGN_OR_RETURN(eval::IncrementalEvaluator ev,
                         eval::IncrementalEvaluator::Make(std::move(analysis)));
  std::string key = ParamsKey(params);
  auto instance = std::make_unique<Instance>(std::move(params), key,
                                             std::move(ev));
  Instance* ptr = instance.get();
  rule->instance_index.emplace(ptr->params_key, rule->instances.size());
  rule->instances.push_back(std::move(instance));
  ++stats_.instances_created;
  MetricAdd(ins_.instances_created);
  return ptr;
}

Status RuleEngine::RemoveRule(const std::string& name) {
  if (dispatch_depth_ > 0) {
    return Status::InvalidArgument(
        "rules cannot be removed from within rule actions");
  }
  // Deferred steps hold instance pointers; evaluate them before removal.
  PTLDB_RETURN_IF_ERROR(Flush());
  set_report_dirty_ = true;
  auto it = rule_index_.find(name);
  if (it == rule_index_.end()) {
    return Status::NotFound(StrCat("no rule named '", name, "'"));
  }
  rules_.erase(rules_.begin() + static_cast<ptrdiff_t>(it->second));
  // Also drop system rules generated for this rule's aggregates (their names
  // are namespaced "__agg_<rule>_..."). Their auxiliary tables stay behind as
  // inert single-row tables.
  std::string prefix = StrCat("__agg_", name, "_");
  rules_.erase(std::remove_if(rules_.begin(), rules_.end(),
                              [&prefix](const std::unique_ptr<Rule>& r) {
                                return StartsWith(r->name, prefix);
                              }),
               rules_.end());
  rule_index_.clear();
  for (size_t i = 0; i < rules_.size(); ++i) {
    rule_index_.emplace(rules_[i]->name, i);
  }
  RebuildEventIndex();
  return Status::OK();
}

// ---- Whole-rule-set static analysis -----------------------------------------

std::vector<analysis::RuleDecl> RuleEngine::BuildRuleDecls() const {
  std::vector<analysis::RuleDecl> decls;
  decls.reserve(rules_.size());
  for (const auto& rule : rules_) {
    analysis::RuleDecl d;
    d.name = rule->name;
    d.condition = rule->condition;
    d.source = rule->source;
    d.is_ic = rule->is_ic;
    d.is_system = rule->is_system;
    d.level_triggered = rule->options.level_triggered;
    d.priority = rule->options.priority;
    d.boundedness = rule->lint.boundedness;
    // Execution is only recorded for actions that actually run.
    d.record_execution = !rule->is_ic && !rule->is_system &&
                         rule->action != nullptr &&
                         rule->options.record_execution;
    if (rule->is_system) {
      // Generated reset/accumulate rules write exactly their aggregate item.
      d.effects.writes.insert(rule->sys_item);
      d.effects_declared = true;
    } else if (rule->options.effects.has_value()) {
      d.effects = *rule->options.effects;
      d.effects_declared = true;
    } else if (rule->action == nullptr) {
      // No action at all (ICs, observe-only triggers): provably effect-free.
      d.effects_declared = true;
    }
    decls.push_back(std::move(d));
  }
  return decls;
}

const analysis::SetReport& RuleEngine::AnalyzeRuleSet() const {
  if (set_report_dirty_ || !set_report_.has_value()) {
    analysis::AnalyzeOptions opts;
    opts.tables_of = [this](const std::string& query) {
      return registry_.ScannedTables(query);
    };
    set_report_ = analysis::AnalyzeRuleSet(BuildRuleDecls(), opts);
    set_report_dirty_ = false;
  }
  return *set_report_;
}

std::vector<std::pair<std::string, std::string>> RuleEngine::TakeCascades() {
  std::vector<std::pair<std::string, std::string>> out;
  out.swap(cascades_);
  return out;
}

void RuleEngine::AttributeStateToAction(const event::SystemState& state) {
  analysis::EffectSet& observed = action_frames_.back().observed;
  for (const event::Event& e : state.events) {
    if (e.name == event::kInsertEvent || e.name == event::kDeleteEvent ||
        e.name == event::kUpdateEvent) {
      if (!e.params.empty() && e.params[0].is_string()) {
        const std::string table = e.params[0].AsString();
        // The __executed append is the engine's own (derived) effect.
        if (table != kExecutedTable) observed.writes.insert(table);
      }
    } else if (e.name == event::kRuleExecutedEvent ||
               e.name == event::kBeginEvent ||
               e.name == event::kAttemptsToCommitEvent ||
               e.name == event::kCommitEvent || e.name == event::kAbortEvent) {
      // Derived (@executed) or transaction control — not action effects.
    } else {
      observed.raises.insert(e.name);
    }
  }
}

std::vector<Firing> RuleEngine::TakeFirings() {
  std::vector<Firing> out;
  out.swap(firings_);
  return out;
}

std::vector<Status> RuleEngine::TakeErrors() {
  std::vector<Status> out;
  out.swap(errors_);
  return out;
}

std::vector<std::string> RuleEngine::RuleNames() const {
  std::vector<std::string> names;
  names.reserve(rules_.size());
  for (const auto& rule : rules_) names.push_back(rule->name);
  return names;
}

void RuleEngine::ReportError(Status status) {
  MetricAdd(ins_.errors);
  errors_.push_back(std::move(status));
}

// ---- Evaluation -------------------------------------------------------------

Status RuleEngine::RefreshFamily(Rule* rule) {
  PTLDB_ASSIGN_OR_RETURN(db::Relation domain, database_->Query(rule->domain));
  ++stats_.queries_evaluated;
  MetricAdd(ins_.query_evals);
  if (domain.schema().num_columns() < rule->param_names.size()) {
    return Status::InvalidArgument(
        StrCat("rule '", rule->name, "': domain query returns ",
               domain.schema().num_columns(), " column(s) but the family has ",
               rule->param_names.size(), " parameter(s)"));
  }
  for (const db::Tuple& row : domain.rows()) {
    std::map<std::string, Value> params;
    for (size_t i = 0; i < rule->param_names.size(); ++i) {
      params.emplace(rule->param_names[i], row[i]);
    }
    std::string key = ParamsKey(params);
    if (rule->instance_index.count(key) > 0) continue;
    PTLDB_ASSIGN_OR_RETURN(Instance * unused,
                           MakeInstance(rule, std::move(params)));
    (void)unused;
  }
  return Status::OK();
}

namespace {
size_t SlotFingerprint(const std::vector<ptl::QuerySpec>& slots) {
  size_t seed = slots.size();
  ptl::QuerySpecHash h;
  for (const ptl::QuerySpec& s : slots) seed = HashCombine(seed, h(s));
  return seed;
}
}  // namespace

Result<ptl::StateSnapshot> RuleEngine::BuildSnapshot(
    const Instance& instance, const event::SystemState& state,
    QueryMemo* memo) {
  ptl::StateSnapshot snapshot;
  snapshot.seq = state.seq;
  snapshot.time = state.time;
  snapshot.events = state.events;
  const ptl::Analysis& analysis = instance.ev.analysis();
  // Layout tier: another instance in this pass with an identical slot vector
  // already computed the whole query_values vector — reuse it outright.
  size_t fingerprint = 0;
  std::vector<QueryMemo::Layout>* bucket = nullptr;
  if (memo != nullptr && !analysis.slots.empty()) {
    fingerprint = SlotFingerprint(analysis.slots);
    bucket = &memo->layouts[fingerprint];
    for (const QueryMemo::Layout& layout : *bucket) {
      if (*layout.slots == analysis.slots) {
        ++stats_.snapshot_layout_hits;
        MetricAdd(ins_.snapshot_layout_hits);
        // A layout hit answers every slot from the memo at once.
        stats_.query_memo_hits += analysis.slots.size();
        MetricAdd(ins_.query_memo_hits, analysis.slots.size());
        snapshot.query_values = layout.query_values;
        return snapshot;
      }
    }
  }
  snapshot.query_values.reserve(analysis.slots.size());
  for (const ptl::QuerySpec& spec : analysis.slots) {
    if (memo != nullptr) {
      auto it = memo->values.find(spec);
      if (it != memo->values.end()) {
        ++stats_.query_memo_hits;
        MetricAdd(ins_.query_memo_hits);
        snapshot.query_values.push_back(it->second);
        continue;
      }
    }
    PTLDB_ASSIGN_OR_RETURN(Value v, registry_.Eval(spec));
    ++stats_.queries_evaluated;
    MetricAdd(ins_.query_evals);
    if (memo != nullptr) memo->values.emplace(spec, v);
    snapshot.query_values.push_back(std::move(v));
  }
  if (bucket != nullptr) {
    bucket->push_back(
        QueryMemo::Layout{&analysis.slots, snapshot.query_values});
  }
  return snapshot;
}

Result<RuleEngine::StepTask> RuleEngine::GatherStepTask(
    Rule* rule, Instance* instance, const event::SystemState& state,
    bool allow_collect, QueryMemo* memo) {
  StepTask task;
  task.rule = rule;
  task.instance = instance;
  task.allow_collect = allow_collect;
  if (instance->last_seq == state.seq) {
    // Already advanced over this state (hypothetical IC check at commit);
    // no snapshot needed, the outputs are the evaluator's current verdict.
    task.resolved = true;
    task.snapshot.seq = state.seq;
    task.snapshot.time = state.time;
    task.fired = instance->ev.last_fired();
    task.was_satisfied = task.fired && instance->ev.steps() > 0;
    // This is the only path a constraint's evaluator routinely takes after
    // its commit-time probe (which defers collection to keep its checkpoint
    // valid), so collect here or the IC's node store grows without bound.
    // Safe: gather runs serially and no checkpoint is outstanding once the
    // probed state has committed.
    if (allow_collect && instance->ev.MaybeCollect(collect_threshold_)) {
      task.collected = true;
    }
    return task;
  }
  PTLDB_ASSIGN_OR_RETURN(task.snapshot, BuildSnapshot(*instance, state, memo));
  return task;
}

void RuleEngine::RunStepTasks(std::span<StepTask> tasks) {
  const bool tracing = trace_ != nullptr && trace_->enabled();
  auto run_one = [this, tasks, tracing](size_t i) {
    StepTask& t = tasks[i];
    if (t.resolved) return;
    eval::IncrementalEvaluator& ev = t.instance->ev;
    trace::ScopedSpan step_span(
        trace_, trace::SpanKind::kRuleStep,
        tracing ? StrCat(t.rule->name,
                         t.instance->params_key.empty() ? "" : "[",
                         t.instance->params_key,
                         t.instance->params_key.empty() ? "" : "]")
                : std::string(),
        static_cast<int64_t>(t.snapshot.seq));
    t.was_satisfied = ev.last_fired() && ev.steps() > 0;
    Result<bool> fired = ev.Step(t.snapshot);
    if (!fired.ok()) {
      t.status = fired.status();
      return;
    }
    t.instance->last_seq = t.snapshot.seq;
    t.stepped = true;
    t.fired = *fired;
    if (tracing) EmitRecurrenceSpans(ev);
    if (t.allow_collect &&
        t.instance->ev.MaybeCollect(collect_threshold_)) {
      t.collected = true;
    }
  };
  if (pool_ != nullptr && tasks.size() > 1) {
    ++stats_.parallel_dispatches;
    MetricAdd(ins_.parallel_dispatches);
    pool_->ParallelFor(tasks.size(), run_one);
  } else {
    for (size_t i = 0; i < tasks.size(); ++i) run_one(i);
  }
}

bool RuleEngine::MergeStepTask(StepTask& task,
                               std::vector<PendingAction>* pending) {
  if (task.stepped) {
    ++stats_.rule_steps;
    MetricAdd(ins_.rule_steps);
  }
  if (task.collected) {
    ++stats_.collections;
    MetricAdd(ins_.collections);
  }
  if (!task.status.ok()) {
    ReportError(std::move(task.status));
    return false;
  }
  Rule* rule = task.rule;
  const bool run_action =
      task.fired && (rule->options.level_triggered || !task.was_satisfied);
  const bool acts = run_action && !rule->is_ic && rule->action != nullptr;
  if (task.stepped && !rule->is_system && trace_ != nullptr &&
      trace_->enabled()) {
    // The evaluator has not stepped since this task, so it still holds this
    // state's step count and witness anchors. System rules are skipped:
    // their generated conditions use internal binder names that do not
    // re-parse, so a replay could never consume them.
    if (acts) {
      CaptureWitness(rule, *task.instance, task.snapshot,
                     task.instance->ev.WitnessChain());
    }
    json::Json rec = MakeUpdateRecord(*rule, *task.instance, task.snapshot,
                                      task.fired, task.was_satisfied, acts);
    if (acts) rec.Set("witness", WitnessToJson(*rule->last_witness));
    trace_->RecordUpdate(std::move(rec));
  }
  if (acts) {
    pending->push_back(PendingAction{rule, task.instance, task.snapshot.seq,
                                     task.snapshot.time});
  }
  return task.fired;
}

void RuleEngine::StepAndMerge(std::span<StepTask> tasks, size_t seq,
                              std::vector<PendingAction>* pending) {
  {
    ScopedTimer step_timer(ins_.step_ns);
    trace::ScopedSpan step_span(trace_, trace::SpanKind::kStep, "step",
                                static_cast<int64_t>(seq));
    RunStepTasks(tasks);
  }
  // Merge (serial, canonical order): identical decisions and error reporting
  // regardless of thread count.
  ScopedTimer merge_timer(ins_.merge_ns);
  trace::ScopedSpan merge_span(trace_, trace::SpanKind::kMerge, "merge",
                               static_cast<int64_t>(seq));
  for (StepTask& task : tasks) MergeStepTask(task, pending);
}

Status RuleEngine::SetThreads(size_t n) {
  if (dispatch_depth_ > 0) {
    return Status::InvalidArgument(
        "thread count cannot be changed from within rule actions");
  }
  if (n == 0) n = 1;
  if (n == num_threads_) return Status::OK();
  num_threads_ = n;
  pool_ = n > 1 ? std::make_unique<ThreadPool>(n) : nullptr;
  return Status::OK();
}

Status RuleEngine::ApplySystemOp(const Rule& rule) {
  PTLDB_ASSIGN_OR_RETURN(db::Table * table,
                         database_->catalog().GetTable(rule.sys_item));
  db::Tuple row = table->rows()[0];
  if (rule.sys_op == agg::SystemRule::Op::kReset) {
    db::Tuple fresh = InitialAggRow();
    fresh[0] = Value::Bool(true);  // started
    PTLDB_RETURN_IF_ERROR(table->ReplaceOne(row, fresh));
    return Status::OK();
  }
  // Accumulate: only once started (samples before the first start point do
  // not count — the direct machines behave identically).
  if (!row[0].AsBool()) return Status::OK();
  PTLDB_ASSIGN_OR_RETURN(Value v, registry_.Eval(rule.sys_source));
  db::Tuple next = row;
  if (v.is_numeric()) {
    PTLDB_ASSIGN_OR_RETURN(next[1], Value::Add(row[1], v));
  }
  PTLDB_ASSIGN_OR_RETURN(next[2], Value::Add(row[2], Value::Int(1)));
  if (!v.is_null()) {
    if (next[3].is_null()) {
      next[3] = v;
    } else {
      PTLDB_ASSIGN_OR_RETURN(int c, Value::Compare(v, next[3]));
      if (c < 0) next[3] = v;
    }
    if (next[4].is_null()) {
      next[4] = v;
    } else {
      PTLDB_ASSIGN_OR_RETURN(int c, Value::Compare(v, next[4]));
      if (c > 0) next[4] = v;
    }
  }
  return table->ReplaceOne(row, next);
}

Status RuleEngine::RecordExecution(const Rule& rule, const Instance& instance,
                                   Timestamp time) {
  PTLDB_ASSIGN_OR_RETURN(db::Table * table,
                         database_->catalog().GetTable(kExecutedTable));
  PTLDB_RETURN_IF_ERROR(table->Insert(
      {Value::Str(rule.name), Value::Str(instance.params_key),
       Value::Time(time)}));
  if (database_->wal_sink() != nullptr) {
    // The insert bypasses the transaction path, so its redo delta is buffered
    // by hand; it rides with the @executed state's WAL record.
    database_->wal_sink()->BufferDelta(db::RedoDelta{
        db::RedoDelta::Kind::kInsert, kExecutedTable,
        {Value::Str(rule.name), Value::Str(instance.params_key),
         Value::Time(time)},
        {}});
  }
  firings_.push_back(Firing{rule.name, instance.params_key, time});
  // Announce: `@executed(rule)` drives §7 composite/temporal actions. The
  // event appends a new system state, which recursively dispatches rules.
  return database_->RaiseEvent(
      event::Event{event::kRuleExecutedEvent,
                   {Value::Str(rule.name), Value::Time(time)}});
}

void RuleEngine::ProcessState(const event::SystemState& state) {
  if (dispatch_depth_ >= kMaxDispatchDepth) {
    ReportError(Status::Internal(
        StrCat("rule dispatch depth exceeded ", kMaxDispatchDepth,
               " at state #", state.seq,
               " — a rule's action is probably retriggering itself")));
    return;
  }
  ++dispatch_depth_;
  ++stats_.states_processed;
  MetricAdd(ins_.states_processed);
  // Effect recorder: a state appended while an action is on the dispatch
  // stack is that action's doing — charge its row events and raised events
  // to the innermost frame for validation against the declaration.
  if (validate_effects_ && !action_frames_.empty()) {
    AttributeStateToAction(state);
  }
  const bool tracing = trace_ != nullptr && trace_->enabled();
  trace::ScopedSpan update_span(
      trace_, trace::SpanKind::kUpdate,
      tracing ? StrCat("state#", state.seq) : std::string(),
      static_cast<int64_t>(state.seq));

  // Phase 1: system rules (aggregate reset/accumulate), in registration
  // order, actions applied inline so user conditions at this state already
  // observe the updated items. Each steps on its own (no query memo): the
  // previous system rule's action may have changed what its queries read.
  std::vector<PendingAction> pending;
  for (const auto& rule : rules_) {
    if (!rule->is_system) continue;
    auto task = GatherStepTask(rule.get(), rule->instances[0].get(), state);
    if (!task.ok()) {
      ReportError(task.status());
      continue;
    }
    RunStepTasks(std::span<StepTask>(&*task, 1));
    if (MergeStepTask(*task, &pending)) {
      Status s = ApplySystemOp(*rule);
      if (!s.ok()) ReportError(std::move(s));
    }
  }

  // Phase 2: user rules — evaluate all conditions first, collecting fired
  // actions, so one rule's action cannot affect a sibling's view of this
  // state. The §8 relevance index picks the rules to step: unfiltered rules
  // always, filtered rules only when one of their events is present.
  std::set<Rule*> relevant;
  for (const event::Event& e : state.events) {
    auto it = event_index_.find(e.name);
    if (it == event_index_.end()) continue;
    for (Rule* r : it->second) relevant.insert(r);
  }
  const bool batching = batch_size_ > 1;
  // Gather (serial): snapshots are captured single-threaded so conditions
  // observe the database exactly as in the serial engine, and tasks line up
  // in canonical (registration order, instance-creation order). Ground query
  // values are memoized across instances — the database cannot change within
  // the gather pass (phase 1's aggregate mutations already happened).
  QueryMemo memo;
  std::vector<StepTask> tasks;
  {
    ScopedTimer gather_timer(ins_.gather_ns);
    trace::ScopedSpan gather_span(trace_, trace::SpanKind::kGather, "gather",
                                  static_cast<int64_t>(state.seq));
  for (const auto& rule : rules_) {
    if (rule->is_system) continue;
    if (rule->options.event_filtered && !rule->event_names.empty() &&
        relevant.count(rule.get()) == 0) {
      stats_.steps_skipped_by_filter += rule->instances.size();
      MetricAdd(ins_.steps_skipped_by_filter, rule->instances.size());
      continue;
    }
    if (rule->is_family) {
      Status s = RefreshFamily(rule.get());
      if (!s.ok()) {
        ReportError(std::move(s));
        continue;
      }
    }
    // §8 batched invocation: the snapshot is captured now (conditions must
    // observe this state's query values); stepping waits for Flush().
    // Integrity constraints never wait — they veto synchronously.
    std::vector<StepTask>& sink =
        batching && !rule->is_ic ? batch_queue_ : tasks;
    for (const auto& instance : rule->instances) {
      instance->ev.set_tracing(tracing);
      auto task = GatherStepTask(rule.get(), instance.get(), state,
                                 /*allow_collect=*/true, &memo);
      if (!task.ok()) {
        ReportError(task.status());
        continue;
      }
      sink.push_back(std::move(*task));
    }
  }
  }  // gather_timer

  StepAndMerge(tasks, state.seq, &pending);

  // Phase 3: run actions, ascending (priority, registration order).
  RunPendingActions(std::move(pending));
  if (batching) {
    ++batched_states_;
    if (batched_states_ >= batch_size_) {
      Status s = Flush();
      if (!s.ok()) ReportError(std::move(s));
    }
  }
  --dispatch_depth_;
  // Top-level update complete: safe point for durability work (checkpoints
  // must never capture a half-stepped engine).
  if (dispatch_depth_ == 0 && post_update_hook_ != nullptr) post_update_hook_();
}

void RuleEngine::RunPendingActions(std::vector<PendingAction> pending) {
  std::stable_sort(pending.begin(), pending.end(),
                   [](const PendingAction& a, const PendingAction& b) {
                     if (a.seq != b.seq) return a.seq < b.seq;
                     if (a.rule->options.priority != b.rule->options.priority) {
                       return a.rule->options.priority < b.rule->options.priority;
                     }
                     return a.rule->registration_order <
                            b.rule->registration_order;
                   });
  // Every decision of this drain is persisted *before* the first action
  // runs: an action's database effects (and the firings of the nested state
  // they append) land in the WAL after the records recovery compares
  // against, in the state-by-state order replay decides them.
  if (firing_observer_ != nullptr) {
    for (const PendingAction& pa : pending) {
      firing_observer_->OnFiring(
          Firing{pa.rule->name, pa.instance->params_key, pa.fired_at});
    }
  }
  for (const PendingAction& pa : pending) {
    ++stats_.actions_executed;
    MetricAdd(ins_.actions_executed);
    ++pa.rule->fires;
    if (replay_mode_) {
      // Replay recomputes the firing decision only: the action's database
      // effects arrive as logged states/deltas from the WAL, and external
      // side effects must not repeat across a recovery (exactly-once).
      if (pa.rule->options.record_execution) {
        firings_.push_back(
            Firing{pa.rule->name, pa.instance->params_key, pa.fired_at});
      }
      continue;
    }
    // Cascade ground truth: this action was reached while another rule's
    // action was still running — the static triggering graph must carry the
    // corresponding edge (property-tested against TakeCascades()).
    if (track_cascades_ && !action_frames_.empty()) {
      cascades_.emplace_back(action_frames_.back().rule->name, pa.rule->name);
    }
    const bool recording = validate_effects_ || track_cascades_;
    if (recording) action_frames_.push_back(ActionFrame{pa.rule, {}});
    ActionContext ctx(database_, pa.rule->name, &pa.instance->params,
                      pa.fired_at);
    Status s;
    {
      ScopedTimer action_timer(ins_.action_ns);
      trace::ScopedSpan action_span(trace_, trace::SpanKind::kAction,
                                    pa.rule->name);
      s = pa.rule->action(ctx);
    }
    if (s.ok() && pa.rule->options.record_execution) {
      Status rec = RecordExecution(*pa.rule, *pa.instance, pa.fired_at);
      if (!rec.ok()) ReportError(std::move(rec));
    }
    if (recording) {
      analysis::EffectSet observed = std::move(action_frames_.back().observed);
      action_frames_.pop_back();
      if (validate_effects_ && s.ok() &&
          pa.rule->options.effects.has_value() &&
          !pa.rule->options.effects->Covers(observed)) {
        internal::CheckFailed(
            __FILE__, __LINE__,
            StrCat("rule '", pa.rule->name,
                   "': action exceeded its declared effects: declared ",
                   pa.rule->options.effects->ToString(), ", observed ",
                   observed.ToString()));
      }
    }
    if (!s.ok()) {
      ReportError(Status(s.code(), StrCat("action of rule '", pa.rule->name,
                                          "' failed: ", s.message())));
    }
  }
}

Status RuleEngine::Flush() {
  if (flushing_) return Status::OK();  // outer drain loop will pick it up
  flushing_ = true;
  trace::ScopedSpan flush_span(trace_, trace::SpanKind::kFlush, "flush");
  while (!batch_queue_.empty()) {
    std::vector<StepTask> queue;
    queue.swap(batch_queue_);
    batched_states_ = 0;
    // Drain state by state — the queue holds each state's tasks
    // contiguously, in canonical order — so every state steps and merges
    // exactly as an unbatched update would; only the actions wait for the
    // whole drain.
    std::vector<PendingAction> pending;
    std::span<StepTask> rest(queue);
    while (!rest.empty()) {
      const size_t seq = rest.front().snapshot.seq;
      size_t n = 1;
      while (n < rest.size() && rest[n].snapshot.seq == seq) ++n;
      StepAndMerge(rest.first(n), seq, &pending);
      rest = rest.subspan(n);
    }
    // Actions may append new states, refilling the queue; the while loop
    // drains them.
    RunPendingActions(std::move(pending));
  }
  flushing_ = false;
  return Status::OK();
}

Result<std::string> RuleEngine::Lint(const std::string& name) const {
  auto it = rule_index_.find(name);
  if (it == rule_index_.end()) {
    return Status::NotFound(StrCat("no rule named '", name, "'"));
  }
  const Rule& rule = *rules_[it->second];
  std::ostringstream out;
  out << "rule " << rule.name << "\n";
  out << "boundedness: " << ptl::BoundednessToString(rule.lint.boundedness)
      << "\n";
  out << "folded nodes: " << rule.lint.folded_nodes << "\n";
  if (rule.lint.diagnostics.empty()) {
    out << "no diagnostics\n";
  } else {
    out << rule.lint.Render(rule.source) << "\n";
  }
  return out.str();
}

Result<RuleEngine::RuleInfo> RuleEngine::Describe(const std::string& name) const {
  auto it = rule_index_.find(name);
  if (it == rule_index_.end()) {
    return Status::NotFound(StrCat("no rule named '", name, "'"));
  }
  const Rule& rule = *rules_[it->second];
  RuleInfo info;
  info.name = rule.name;
  info.condition = rule.condition->ToString();
  info.is_ic = rule.is_ic;
  info.is_system = rule.is_system;
  info.is_family = rule.is_family;
  info.level_triggered = rule.options.level_triggered;
  info.num_instances = rule.instances.size();
  info.event_names.assign(rule.event_names.begin(), rule.event_names.end());
  info.fires = rule.fires;
  info.boundedness = rule.lint.boundedness;
  info.lint_diagnostics = rule.lint.diagnostics.size();
  info.folded_nodes = rule.lint.folded_nodes;
  for (const auto& instance : rule.instances) {
    info.retained_nodes += instance->ev.LiveNodeCount();
    info.store_nodes += instance->ev.StoreNodeCount();
    info.steps += instance->ev.steps();
    info.collections += instance->ev.collections();
  }
  return info;
}

Result<std::string> RuleEngine::Explain(const std::string& name) const {
  auto it = rule_index_.find(name);
  if (it == rule_index_.end()) {
    return Status::NotFound(StrCat("no rule named '", name, "'"));
  }
  const Rule& rule = *rules_[it->second];
  std::ostringstream out;
  out << "rule " << rule.name;
  if (rule.is_ic) out << "  [integrity constraint]";
  if (rule.is_system) out << "  [system]";
  if (rule.is_family) out << "  [family over " << Join(rule.param_names, ", ")
                          << "]";
  out << "\ncondition: " << rule.condition->ToString() << "\n";
  out << "boundedness: " << ptl::BoundednessToString(rule.lint.boundedness)
      << "  lint: " << rule.lint.diagnostics.size() << " diagnostic"
      << (rule.lint.diagnostics.size() == 1 ? "" : "s") << ", "
      << rule.lint.folded_nodes << " nodes folded\n";
  const analysis::SetReport& report = AnalyzeRuleSet();
  const analysis::RuleReport* rr = report.Find(rule.name);
  if (rr != nullptr) {
    out << "effects: "
        << (rr->effects_declared ? rr->effects.ToString() : "undeclared")
        << "\n";
    out << "confluence: partition " << rr->partition;
    if (rr->commutative) {
      out << "  [certified batching-commutative]";
    } else if (!rr->commutative_reason.empty()) {
      out << "  (not commutative: " << rr->commutative_reason << ")";
    }
    out << "\n";
    if (rr->in_flagged_cycle) {
      out << "termination: member of an UNPROVEN triggering cycle (PTL200)\n";
    }
  }
  out << "fires: " << rule.fires
      << "  instances: " << rule.instances.size() << "\n";
  for (const auto& instance : rule.instances) {
    out << "\ninstance";
    if (!instance->params_key.empty()) out << " [" << instance->params_key
                                           << "]";
    out << ": steps=" << instance->ev.steps()
        << " live_nodes=" << instance->ev.LiveNodeCount()
        << " store_nodes=" << instance->ev.StoreNodeCount()
        << " collections=" << instance->ev.collections() << "\n";
    // The retained F_{g,i} formula per temporal subformula, one per line.
    out << instance->ev.DebugString();
  }
  return out.str();
}

// ---- Durability -------------------------------------------------------------

void RuleEngine::NoteReplayedIcVeto(
    const std::vector<std::string>& violated_rules) {
  for (const std::string& name : violated_rules) {
    auto it = rule_index_.find(name);
    if (it != rule_index_.end()) ++rules_[it->second]->fires;
  }
  ++stats_.ic_violations;
  MetricAdd(ins_.ic_violations);
}

Status RuleEngine::SerializeRetainedState(codec::Writer* w) const {
  if (dispatch_depth_ > 0) {
    return Status::InvalidArgument(
        "cannot serialize retained state from within rule dispatch");
  }
  if (!batch_queue_.empty() || flushing_) {
    return Status::InvalidArgument(
        "cannot serialize retained state with batched states pending; call "
        "Flush() first");
  }
  w->U32(static_cast<uint32_t>(rules_.size()));
  for (const auto& rule : rules_) {
    w->Str(rule->name);
    w->Str(rule->condition->ToString());
    w->Bool(rule->is_family);
    w->U64(rule->fires);
    // The registration-time lint report travels with the retained state:
    // the restoring process re-registers the *folded* condition (that is
    // what the dump validates against), so re-linting there would lose the
    // diagnostics and fold accounting of the original registration.
    // Lint/Describe/Explain must not change their answers across a restore.
    w->U8(static_cast<uint8_t>(rule->lint.boundedness));
    w->U64(rule->lint.folded_nodes);
    w->Str(rule->source);
    w->U32(static_cast<uint32_t>(rule->lint.diagnostics.size()));
    for (const ptl::Diagnostic& d : rule->lint.diagnostics) {
      w->U32(static_cast<uint32_t>(d.code));
      w->U8(static_cast<uint8_t>(d.severity));
      w->Str(d.message);
      w->U64(d.span.begin);
      w->U64(d.span.end);
    }
    w->U32(static_cast<uint32_t>(rule->instances.size()));
    for (const auto& instance : rule->instances) {
      w->Str(instance->params_key);
      w->U32(static_cast<uint32_t>(instance->params.size()));
      for (const auto& [pname, pvalue] : instance->params) {
        w->Str(pname);
        w->Val(pvalue);
      }
      instance->ev.SerializeState(w);
    }
  }
  w->U64(stats_.states_processed);
  w->U64(stats_.rule_steps);
  w->U64(stats_.steps_skipped_by_filter);
  w->U64(stats_.queries_evaluated);
  w->U64(stats_.actions_executed);
  w->U64(stats_.ic_checks);
  w->U64(stats_.ic_violations);
  w->U64(stats_.instances_created);
  w->U64(stats_.parallel_dispatches);
  w->U64(stats_.query_memo_hits);
  w->U64(stats_.collections);
  return Status::OK();
}

Status RuleEngine::RestoreRetainedState(codec::Reader* r) {
  if (dispatch_depth_ > 0) {
    return Status::InvalidArgument(
        "cannot restore retained state from within rule dispatch");
  }
  if (!batch_queue_.empty() || flushing_) {
    return Status::InvalidArgument(
        "cannot restore retained state with batched states pending");
  }
  PTLDB_ASSIGN_OR_RETURN(uint32_t num_rules, r->U32());
  for (uint32_t i = 0; i < num_rules; ++i) {
    PTLDB_ASSIGN_OR_RETURN(std::string name, r->Str());
    PTLDB_ASSIGN_OR_RETURN(std::string condition, r->Str());
    PTLDB_ASSIGN_OR_RETURN(bool is_family, r->Bool());
    PTLDB_ASSIGN_OR_RETURN(uint64_t fires, r->U64());
    PTLDB_ASSIGN_OR_RETURN(uint8_t boundedness, r->U8());
    if (boundedness > static_cast<uint8_t>(ptl::Boundedness::kUnbounded)) {
      return Status::ParseError(
          StrCat("rule '", name, "': bad boundedness class in checkpoint"));
    }
    PTLDB_ASSIGN_OR_RETURN(uint64_t folded_nodes, r->U64());
    PTLDB_ASSIGN_OR_RETURN(std::string source, r->Str());
    PTLDB_ASSIGN_OR_RETURN(uint32_t num_diags, r->U32());
    std::vector<ptl::Diagnostic> diagnostics;
    diagnostics.reserve(num_diags);
    for (uint32_t d = 0; d < num_diags; ++d) {
      ptl::Diagnostic diag;
      PTLDB_ASSIGN_OR_RETURN(uint32_t code, r->U32());
      diag.code = static_cast<ptl::DiagCode>(code);
      PTLDB_ASSIGN_OR_RETURN(uint8_t severity, r->U8());
      if (severity > static_cast<uint8_t>(ptl::Severity::kError)) {
        return Status::ParseError(
            StrCat("rule '", name, "': bad diagnostic severity in checkpoint"));
      }
      diag.severity = static_cast<ptl::Severity>(severity);
      PTLDB_ASSIGN_OR_RETURN(diag.message, r->Str());
      PTLDB_ASSIGN_OR_RETURN(diag.span.begin, r->U64());
      PTLDB_ASSIGN_OR_RETURN(diag.span.end, r->U64());
      diagnostics.push_back(std::move(diag));
    }
    PTLDB_ASSIGN_OR_RETURN(uint32_t num_instances, r->U32());
    auto it = rule_index_.find(name);
    if (it == rule_index_.end()) {
      return Status::NotFound(
          StrCat("checkpoint holds retained state for rule '", name,
                 "', which is not registered — re-register every rule before "
                 "restoring"));
    }
    Rule* rule = rules_[it->second].get();
    if (rule->is_family != is_family) {
      return Status::InvalidArgument(
          StrCat("rule '", name,
                 "': family/plain shape differs from the checkpoint"));
    }
    if (rule->condition->ToString() != condition) {
      return Status::InvalidArgument(
          StrCat("rule '", name, "': registered condition `",
                 rule->condition->ToString(),
                 "` differs from the checkpointed condition `", condition,
                 "`"));
    }
    rule->fires = fires;
    // Reinstate the original registration's lint verdict and source text
    // (the folded condition registered here lints clean — see the
    // serialization comment). `lint.folded` stays as registered: it is the
    // live condition, not a report artifact.
    rule->lint.boundedness = static_cast<ptl::Boundedness>(boundedness);
    rule->lint.folded_nodes = folded_nodes;
    rule->lint.diagnostics = std::move(diagnostics);
    rule->source = std::move(source);
    for (uint32_t j = 0; j < num_instances; ++j) {
      PTLDB_ASSIGN_OR_RETURN(std::string params_key, r->Str());
      PTLDB_ASSIGN_OR_RETURN(uint32_t num_params, r->U32());
      std::map<std::string, Value> params;
      for (uint32_t k = 0; k < num_params; ++k) {
        PTLDB_ASSIGN_OR_RETURN(std::string pname, r->Str());
        PTLDB_ASSIGN_OR_RETURN(Value pvalue, r->Val());
        params.emplace(std::move(pname), std::move(pvalue));
      }
      Instance* instance = nullptr;
      auto iit = rule->instance_index.find(params_key);
      if (iit != rule->instance_index.end()) {
        instance = rule->instances[iit->second].get();
      } else if (rule->is_family) {
        // Family instances are created lazily; materialize the checkpointed
        // one now so its retained history survives the restart.
        PTLDB_ASSIGN_OR_RETURN(instance, MakeInstance(rule, std::move(params)));
      } else {
        return Status::InvalidArgument(
            StrCat("rule '", name, "': checkpoint instance '", params_key,
                   "' does not exist and the rule is not a family"));
      }
      PTLDB_RETURN_IF_ERROR(instance->ev.RestoreState(r));
      instance->last_seq = SIZE_MAX;
    }
  }
  PTLDB_ASSIGN_OR_RETURN(stats_.states_processed, r->U64());
  PTLDB_ASSIGN_OR_RETURN(stats_.rule_steps, r->U64());
  PTLDB_ASSIGN_OR_RETURN(stats_.steps_skipped_by_filter, r->U64());
  PTLDB_ASSIGN_OR_RETURN(stats_.queries_evaluated, r->U64());
  PTLDB_ASSIGN_OR_RETURN(stats_.actions_executed, r->U64());
  PTLDB_ASSIGN_OR_RETURN(stats_.ic_checks, r->U64());
  PTLDB_ASSIGN_OR_RETURN(stats_.ic_violations, r->U64());
  PTLDB_ASSIGN_OR_RETURN(stats_.instances_created, r->U64());
  PTLDB_ASSIGN_OR_RETURN(stats_.parallel_dispatches, r->U64());
  PTLDB_ASSIGN_OR_RETURN(stats_.query_memo_hits, r->U64());
  PTLDB_ASSIGN_OR_RETURN(stats_.collections, r->U64());
  return Status::OK();
}

void RuleEngine::OnStateAppended(const event::SystemState& state) {
  ProcessState(state);
}

Status RuleEngine::OnCommitAttempt(const event::SystemState& prospective,
                                   int64_t txn) {
  // Probe every integrity constraint against the prospective commit state.
  // The database already reflects the transaction; on violation we restore
  // the evaluators and veto (the paper's abort(X) action).
  struct Probe {
    Rule* rule;
    Instance* instance;
    eval::IncrementalEvaluator::Checkpoint checkpoint;
  };
  std::vector<Probe> probes;
  std::vector<std::string> violated;
  Status failure = Status::OK();
  const bool tracing = trace_ != nullptr && trace_->enabled();
  trace::ScopedSpan probe_span(trace_, trace::SpanKind::kIcProbe,
                               tracing ? StrCat("txn#", txn) : std::string(),
                               static_cast<int64_t>(prospective.seq));

  // Gather (serial): checkpoint every constraint's evaluator and capture its
  // snapshot of the prospective commit state. Query values are memoized
  // across constraints — they all probe the same prospective database.
  QueryMemo memo;
  std::vector<StepTask> tasks;
  for (const auto& rule : rules_) {
    if (!rule->is_ic) continue;
    Instance* instance = rule->instances[0].get();
    instance->ev.set_tracing(tracing);
    probes.push_back(Probe{rule.get(), instance, instance->ev.Save()});
    // Collection would invalidate the checkpoints just saved, so the
    // hypothetical probe defers it.
    auto task = GatherStepTask(rule.get(), instance, prospective,
                               /*allow_collect=*/false, &memo);
    if (!task.ok()) {
      ++stats_.ic_checks;
      MetricAdd(ins_.ic_checks);
      failure = task.status();
      break;
    }
    tasks.push_back(std::move(*task));
  }

  // Probe (sharded): constraints step independently — each evaluator owns
  // its graph and its saved checkpoint references only that graph.
  if (failure.ok()) RunStepTasks(tasks);

  // Merge (serial, registration order): the violated list, the firing
  // verdicts, and the first reported failure come out identical to the
  // serial engine.
  std::vector<json::Json> probe_records;  // held until the verdict is known
  for (StepTask& task : tasks) {
    ++stats_.ic_checks;
    MetricAdd(ins_.ic_checks);
    if (task.stepped) {
      ++stats_.rule_steps;
      MetricAdd(ins_.rule_steps);
    }
    if (!task.status.ok()) {
      failure = std::move(task.status);
      break;
    }
    if (task.fired) {
      violated.push_back(task.rule->name);
      ++task.rule->fires;  // an IC "fires" by vetoing the commit
      if (tracing && task.stepped) {
        // Capture the veto's witness now — the rollback below rewinds the
        // evaluator (and its anchors) to the pre-probe state.
        CaptureWitness(task.rule, *task.instance, task.snapshot,
                       task.instance->ev.WitnessChain());
      }
    }
    if (tracing && task.stepped) {
      json::Json rec =
          MakeUpdateRecord(*task.rule, *task.instance, task.snapshot,
                           task.fired, task.was_satisfied,
                           /*fired=*/task.fired);
      if (task.fired && task.rule->last_witness.has_value()) {
        rec.Set("witness", WitnessToJson(*task.rule->last_witness));
      }
      probe_records.push_back(std::move(rec));
    }
  }

  if (violated.empty() && failure.ok()) {
    // The commit stands: the probed steps are now these constraints' real
    // history, so their provenance records enter the replayable stream.
    for (json::Json& rec : probe_records) trace_->RecordUpdate(std::move(rec));
    return Status::OK();
  }

  // Roll the constraints back: the commit state will not materialize. The
  // probe records are dropped with it (the vetoed state is not history); an
  // informational veto record — which TraceReplay ignores — marks the event.
  for (Probe& probe : probes) {
    Status s = probe.instance->ev.Restore(probe.checkpoint);
    PTLDB_CHECK(s.ok() && "checkpoint restore must succeed (no GC ran)");
    probe.instance->last_seq = SIZE_MAX;
  }
  if (!failure.ok()) return failure;
  ++stats_.ic_violations;
  MetricAdd(ins_.ic_violations);
  if (firing_observer_ != nullptr) {
    firing_observer_->OnIcVeto(txn, prospective.time, violated);
  }
  if (tracing) {
    json::Json veto = json::Json::Object();
    veto.Set("kind", json::Json::Str("ic_veto"));
    veto.Set("txn", json::Json::Int(txn));
    veto.Set("seq", json::Json::Int(static_cast<int64_t>(prospective.seq)));
    veto.Set("time", json::Json::Int(prospective.time));
    json::Json names = json::Json::Array();
    for (const std::string& name : violated) names.Add(json::Json::Str(name));
    veto.Set("violated", std::move(names));
    trace_->RecordUpdate(std::move(veto));
  }
  return Status::ConstraintViolation(
      StrCat("integrity constraint(s) violated by transaction ", txn, ": ",
             Join(violated, ", ")));
}

}  // namespace ptldb::rules

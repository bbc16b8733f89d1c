#include "rules/provenance.h"

#include <cstdio>
#include <map>
#include <sstream>

#include "common/strings.h"
#include "common/trace.h"
#include "ptl/analyzer.h"
#include "ptl/naive_eval.h"
#include "ptl/parser.h"

namespace ptldb::rules {

json::Json WitnessToJson(const Witness& w) {
  json::Json doc = json::Json::Object();
  doc.Set("rule", json::Json::Str(w.rule));
  if (!w.params.empty()) doc.Set("params", json::Json::Str(w.params));
  doc.Set("condition", json::Json::Str(w.condition));
  doc.Set("seq", json::Json::Int(w.seq));
  doc.Set("time", json::Json::Int(w.time));
  doc.Set("chain", eval::WitnessChainToJson(w.chain));
  return doc;
}

std::string WitnessSummary(const Witness& w) {
  std::ostringstream out;
  out << "rule '" << w.rule << "'";
  if (!w.params.empty()) out << " [" << w.params << "]";
  out << " fired at state #" << w.seq << " (t=" << w.time << ")\n";
  out << "condition: " << w.condition << "\n";
  if (w.chain.empty()) {
    out << "no temporal subformulas: the condition held at the firing state "
           "itself\n";
    return out.str();
  }
  for (const auto& link : w.chain) {
    out << "  " << link.op << "  " << link.subformula << "\n";
    if (link.anchor_seq >= 0) {
      out << "    anchored at state #" << link.anchor_seq << " (t="
          << link.anchor_time << ")";
    } else if (link.retained != "false") {
      out << "    open retained formula, satisfied under the firing bindings";
    } else {
      out << "    never satisfied while tracing";
    }
    out << "; retained F = " << link.retained << "\n";
    for (const auto& b : link.bindings) {
      out << "    bound: " << b.var << " = " << b.value.ToString() << "\n";
    }
  }
  return out.str();
}

json::Json EncodeSnapshotEvents(const ptl::StateSnapshot& snapshot) {
  json::Json events = json::Json::Array();
  for (const event::Event& e : snapshot.events) {
    json::Json ej = json::Json::Object();
    ej.Set("name", json::Json::Str(e.name));
    ej.Set("params", trace::EncodeValues(e.params));
    events.Add(std::move(ej));
  }
  return events;
}

json::Json EncodeSnapshotQueryValues(const ptl::StateSnapshot& snapshot) {
  return trace::EncodeValues(snapshot.query_values);
}

// ---- Differential replay ----------------------------------------------------

std::string ReplayReport::Summary() const {
  return StrCat(ok() ? "OK" : "MISMATCH", ": ", records, " update record(s), ",
                instances, " instance(s), ", steps, " state(s) re-evaluated, ",
                mismatches, " mismatch(es), ", partial_skipped,
                " partial group(s) skipped, ", fired_with_witness,
                " firing(s) with witness, ", fired_without_witness,
                " without");
}

namespace {

struct ReplayRecord {
  std::string condition;
  uint64_t step = 0;  // evaluator step count after this state (1-based)
  ptl::StateSnapshot snapshot;
  bool satisfied = false;
  bool fired = false;         // the action actually ran (edge-trigger applied)
  bool has_witness = false;
};

Result<ReplayRecord> ParseUpdateRecord(const json::Json& doc) {
  ReplayRecord rec;
  PTLDB_ASSIGN_OR_RETURN(const json::Json* cond, doc.Get("condition"));
  rec.condition = cond->AsString();
  PTLDB_ASSIGN_OR_RETURN(const json::Json* step, doc.Get("step"));
  PTLDB_ASSIGN_OR_RETURN(int64_t step_v, step->AsInt64());
  rec.step = static_cast<uint64_t>(step_v);
  PTLDB_ASSIGN_OR_RETURN(const json::Json* seq, doc.Get("seq"));
  PTLDB_ASSIGN_OR_RETURN(int64_t seq_v, seq->AsInt64());
  rec.snapshot.seq = static_cast<size_t>(seq_v);
  PTLDB_ASSIGN_OR_RETURN(const json::Json* time, doc.Get("time"));
  PTLDB_ASSIGN_OR_RETURN(int64_t time_v, time->AsInt64());
  rec.snapshot.time = time_v;
  PTLDB_ASSIGN_OR_RETURN(const json::Json* events, doc.Get("events"));
  if (!events->is_array()) {
    return Status::ParseError("update record 'events' is not an array");
  }
  for (const json::Json& ej : events->items()) {
    event::Event e;
    PTLDB_ASSIGN_OR_RETURN(const json::Json* name, ej.Get("name"));
    e.name = name->AsString();
    PTLDB_ASSIGN_OR_RETURN(const json::Json* params, ej.Get("params"));
    PTLDB_ASSIGN_OR_RETURN(e.params, trace::DecodeValues(*params));
    rec.snapshot.events.push_back(std::move(e));
  }
  PTLDB_ASSIGN_OR_RETURN(const json::Json* qv, doc.Get("query_values"));
  PTLDB_ASSIGN_OR_RETURN(rec.snapshot.query_values, trace::DecodeValues(*qv));
  PTLDB_ASSIGN_OR_RETURN(const json::Json* sat, doc.Get("satisfied"));
  rec.satisfied = sat->AsBool();
  if (const json::Json* fired = doc.Find("fired"); fired != nullptr) {
    rec.fired = fired->AsBool();
  }
  rec.has_witness = doc.Find("witness") != nullptr;
  return rec;
}

}  // namespace

Result<ReplayReport> TraceReplay(std::string_view jsonl) {
  ReplayReport report;
  // Group the update records by (rule, params), preserving file order —
  // records are written serially at merge time, so each group's snapshots
  // arrive in state order.
  std::map<std::string, std::vector<ReplayRecord>> groups;
  size_t pos = 0;
  size_t line_no = 0;
  while (pos < jsonl.size()) {
    size_t eol = jsonl.find('\n', pos);
    if (eol == std::string_view::npos) eol = jsonl.size();
    std::string_view line = jsonl.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    PTLDB_ASSIGN_OR_RETURN(json::Json doc, json::Parse(line));
    const json::Json* kind = doc.Find("kind");
    if (kind == nullptr || kind->AsString() != "update") {
      ++report.ignored;
      continue;
    }
    auto rec = ParseUpdateRecord(doc);
    if (!rec.ok()) {
      return Status::ParseError(StrCat("trace line ", line_no, ": ",
                                       rec.status().message()));
    }
    ++report.records;
    if (rec->fired) {
      if (rec->has_witness) {
        ++report.fired_with_witness;
      } else {
        ++report.fired_without_witness;
      }
    }
    PTLDB_ASSIGN_OR_RETURN(const json::Json* rule, doc.Get("rule"));
    std::string key = rule->AsString();
    if (const json::Json* params = doc.Find("params"); params != nullptr) {
      key += '\x1f';
      key += params->AsString();
    }
    groups[key].push_back(std::move(*rec));
  }

  for (auto& [key, records] : groups) {
    std::string label(key.substr(0, key.find('\x1f')));
    if (records.front().step != 1) {
      // The bounded update ring dropped this instance's early history; the
      // naive evaluator cannot reproduce verdicts from a truncated prefix.
      ++report.partial_skipped;
      continue;
    }
    ++report.instances;
    // The recorded condition is the instance's *grounded* condition; parsing
    // and re-analyzing it reproduces the analyzer's slot order, so the
    // recorded query_values land in the right slots.
    PTLDB_ASSIGN_OR_RETURN(ptl::FormulaPtr condition,
                           ptl::ParseFormula(records.front().condition));
    PTLDB_ASSIGN_OR_RETURN(ptl::Analysis analysis,
                           ptl::Analyze(condition));
    ptl::NaiveEvaluator naive(&analysis);
    uint64_t expect_step = 1;
    for (const ReplayRecord& rec : records) {
      if (rec.step != expect_step) {
        ++report.mismatches;
        if (report.details.size() < 32) {
          report.details.push_back(
              StrCat(label, ": history gap — record for step ", rec.step,
                     " follows step ", expect_step - 1));
        }
        break;
      }
      ++expect_step;
      if (analysis.slots.size() != rec.snapshot.query_values.size()) {
        ++report.mismatches;
        if (report.details.size() < 32) {
          report.details.push_back(
              StrCat(label, ": state #", rec.snapshot.seq, " carries ",
                     rec.snapshot.query_values.size(),
                     " query value(s) but the condition has ",
                     analysis.slots.size(), " slot(s)"));
        }
        break;
      }
      naive.Observe(rec.snapshot);
      ++report.steps;
      auto verdict = naive.SatisfiedAtEnd();
      if (!verdict.ok()) {
        ++report.mismatches;
        if (report.details.size() < 32) {
          report.details.push_back(StrCat(label, ": state #",
                                          rec.snapshot.seq, ": naive eval: ",
                                          verdict.status().ToString()));
        }
        break;
      }
      if (*verdict != rec.satisfied) {
        ++report.mismatches;
        if (report.details.size() < 32) {
          report.details.push_back(StrCat(
              label, ": state #", rec.snapshot.seq, ": trace says ",
              rec.satisfied ? "satisfied" : "not satisfied",
              ", naive evaluator says ", *verdict ? "satisfied"
                                                  : "not satisfied"));
        }
      }
    }
  }
  return report;
}

Result<ReplayReport> TraceReplayFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound(StrCat("cannot open trace file '", path, "'"));
  }
  std::string content;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);
  return TraceReplay(content);
}

}  // namespace ptldb::rules

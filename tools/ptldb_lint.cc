// ptldb-lint: standalone static analysis for PTL rule conditions.
//
//   ptldb-lint [options] <rule-file>...     lint rule files
//   ptldb-lint [options] -e '<condition>'   lint one condition from argv
//   ptldb-lint --codes                      list the PTL diagnostic codes
//   echo '<condition>' | ptldb-lint -       read rules from stdin
//
// `--json` emits one machine-readable document instead of the human text
// (shared schema with `ptldb-analyze --json`): per rule name/line/condition/
// boundedness/diagnostics plus a summary block. Exit codes are unchanged.
//
// A rule file holds one rule per line, in the grammar ptldb-analyze reads
// (ptl::SplitRuleLines): `[trigger|ic] [name :=] condition [| effects]`;
// `#` comments and blank lines are skipped. Only conditions are linted.
//
// Exit status: 0 clean, 1 any error-severity diagnostic (parse failures,
// PTL005), 2 bad usage. With --strict, unbounded retained state (PTL001)
// and warnings also fail with 1 — the same bar the engine's strict
// registration mode enforces.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "ptl/diagnostics.h"
#include "ptl/lint.h"
#include "ptl/parser.h"

namespace {

using ptldb::json::Json;
using ptldb::ptl::DiagCode;

int Usage() {
  std::fprintf(
      stderr,
      "usage: ptldb-lint [--strict] [--no-fold] [--json] <rule-file>... | -\n"
      "       ptldb-lint [--strict] [--no-fold] [--json] -e '<condition>'\n"
      "       ptldb-lint --codes\n");
  return 2;
}

void PrintCodes() {
  // The code space is sparse (per-rule 0xx, rule-set 2xx): enumerate the
  // registry, never the integer range.
  for (DiagCode code : ptldb::ptl::AllDiagCodes()) {
    std::printf("%s  %-7s  %s\n", ptldb::ptl::DiagCodeName(code).c_str(),
                ptldb::ptl::SeverityToString(
                    ptldb::ptl::DiagCodeSeverity(code)),
                ptldb::ptl::DiagCodeSummary(code));
  }
}

/// One rule entry of the --json document.
Json EntryToJson(const ptldb::ptl::FileLintResult::RuleLint& e) {
  Json j = Json::Object();
  j.Set("name", Json::Str(e.name));
  j.Set("line", Json::UInt(e.line));
  j.Set("condition", Json::Str(e.condition));
  if (!e.parse_error.empty()) {
    j.Set("parse_error", Json::Str(e.parse_error));
    return j;
  }
  j.Set("boundedness", Json::Str(ptldb::ptl::BoundednessToString(
                           e.report.boundedness)));
  j.Set("folded_nodes", Json::UInt(e.report.folded_nodes));
  Json diags = Json::Array();
  for (const auto& d : e.report.diagnostics) {
    diags.Add(ptldb::ptl::DiagnosticToJson(d));
  }
  j.Set("diagnostics", std::move(diags));
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  bool as_json = false;
  ptldb::ptl::LintOptions opts;
  std::vector<std::string> files;
  std::string expr;
  bool have_expr = false;

  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--codes") {
      PrintCodes();
      return 0;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg == "--no-fold") {
      opts.fold = false;
    } else if (arg == "-e") {
      if (i + 1 >= argc) return Usage();
      expr = argv[++i];
      have_expr = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg.size() > 1 && arg[0] == '-' && arg != "-") {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return Usage();
    } else {
      files.emplace_back(arg);
    }
  }
  if (!have_expr && files.empty()) return Usage();
  if (have_expr && !files.empty()) return Usage();

  size_t errors = 0, warnings = 0, unbounded = 0;
  Json doc = Json::Object();
  Json jrules = Json::Array();

  if (have_expr) {
    ptldb::ptl::FileLintResult::RuleLint entry;
    entry.name = "<expr>";
    entry.line = 1;
    entry.condition = expr;
    auto parsed = ptldb::ptl::ParseFormula(expr);
    if (!parsed.ok()) {
      entry.parse_error = parsed.status().message();
      errors = 1;
      if (as_json) {
        jrules.Add(EntryToJson(entry));
      } else {
        std::printf("%s error: %s\n",
                    ptldb::ptl::DiagCodeName(DiagCode::kParseError).c_str(),
                    parsed.status().message().c_str());
      }
    } else {
      ptldb::ptl::LintReport rep =
          ptldb::ptl::LintFormula(parsed.value(), opts);
      entry.report = rep;
      errors = rep.Count(ptldb::ptl::Severity::kError);
      warnings = rep.Count(ptldb::ptl::Severity::kWarning);
      unbounded = rep.boundedness == ptldb::ptl::Boundedness::kUnbounded;
      if (as_json) {
        jrules.Add(EntryToJson(entry));
      } else {
        std::printf("boundedness: %s\n",
                    ptldb::ptl::BoundednessToString(rep.boundedness));
        if (rep.folded_nodes > 0) {
          std::printf("folded: %zu node(s); condition is now: %s\n",
                      rep.folded_nodes, rep.folded->ToString().c_str());
        }
        std::string rendered = rep.Render(expr);
        if (!rendered.empty()) std::printf("%s\n", rendered.c_str());
      }
    }
  } else {
    for (const std::string& path : files) {
      std::string text;
      if (path == "-") {
        std::ostringstream buf;
        buf << std::cin.rdbuf();
        text = buf.str();
      } else {
        std::ifstream in(path);
        if (!in) {
          std::fprintf(stderr, "ptldb-lint: cannot open '%s'\n", path.c_str());
          return 2;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
      }
      ptldb::ptl::FileLintResult res = ptldb::ptl::LintRulesText(text, opts);
      if (as_json) {
        for (const auto& e : res.entries) {
          Json j = EntryToJson(e);
          if (files.size() > 1) j.Set("file", Json::Str(path));
          jrules.Add(std::move(j));
        }
      } else {
        if (files.size() > 1) std::printf("== %s ==\n", path.c_str());
        std::printf("%s\n", res.rendered.c_str());
      }
      errors += res.errors;
      warnings += res.warnings;
      unbounded += res.unbounded;
    }
  }

  if (as_json) {
    doc.Set("rules", std::move(jrules));
    doc.Set("summary", Json::Object()
                           .Set("errors", Json::UInt(errors))
                           .Set("warnings", Json::UInt(warnings))
                           .Set("unbounded", Json::UInt(unbounded)));
    std::printf("%s\n", doc.Dump().c_str());
  }

  if (errors > 0) return 1;
  if (strict && (warnings > 0 || unbounded > 0)) return 1;
  return 0;
}

// Black-box tests for the ptl_shell binary: each case pipes a script into
// the real executable (batch mode, path injected as PTL_SHELL_PATH at build
// time) and checks the printed output — argument validation must reject junk
// loudly, and the observability commands must render.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "common/json.h"
#include "rules/provenance.h"

namespace {

std::string RunShell(const std::string& script) {
  std::string path = ::testing::TempDir() + "ptl_shell_script.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    ADD_FAILURE() << "cannot write " << path;
    return "";
  }
  std::fputs(script.c_str(), f);
  std::fclose(f);
  std::string cmd = std::string(PTL_SHELL_PATH) + " < " + path + " 2>&1";
  std::FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) {
    ADD_FAILURE() << "cannot run " << cmd;
    return "";
  }
  std::string out;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), p) != nullptr) out += buf;
  int rc = pclose(p);
  EXPECT_EQ(rc, 0) << "shell exited nonzero; output:\n" << out;
  return out;
}

TEST(ShellTest, SetThreadsRejectsNonNumericAndNonPositive) {
  std::string out = RunShell(
      "set threads abc\n"
      "set threads 4x\n"
      "set threads 0\n"
      "set threads -2\n"
      "set threads 2\n"
      "quit\n");
  EXPECT_NE(out.find("thread count must be an integer, got 'abc'"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("thread count must be an integer, got '4x'"),
            std::string::npos);
  EXPECT_NE(out.find("thread count must be >= 1, got 0"), std::string::npos);
  EXPECT_NE(out.find("thread count must be >= 1, got -2"), std::string::npos);
  EXPECT_NE(out.find("threads = 2"), std::string::npos) << out;
}

TEST(ShellTest, TickRejectsJunkCounts) {
  std::string out = RunShell(
      "tick x\n"
      "tick 0\n"
      "quit\n");
  EXPECT_NE(out.find("tick count must be a positive integer"),
            std::string::npos)
      << out;
}

TEST(ShellTest, StatsAndExplainRender) {
  std::string out = RunShell(
      "create stock name:string key price:double\n"
      "insert stock 'IBM' 40\n"
      "query price SELECT price FROM stock WHERE name = $sym\n"
      "trigger hot := price('IBM') > 50\n"
      "update stock price 80 WHERE name = 'IBM'\n"
      "explain hot\n"
      "explain ghost\n"
      "stats\n"
      "stats json\n"
      "quit\n");
  EXPECT_NE(out.find("rule hot"), std::string::npos) << out;
  EXPECT_NE(out.find("store_nodes="), std::string::npos);
  EXPECT_NE(out.find("no rule named 'ghost'"), std::string::npos);
  // Plain stats: one line per EngineStats row, under its registry name.
  EXPECT_NE(out.find("engine.states_processed"), std::string::npos);
  EXPECT_NE(out.find("engine.collections"), std::string::npos);
  // JSON stats: the full registry snapshot with per-rule gauges.
  EXPECT_NE(out.find("\"counters\""), std::string::npos);
  EXPECT_NE(out.find("\"rule.hot.steps\""), std::string::npos);
}

TEST(ShellTest, StatsJsonIsValidJson) {
  std::string out = RunShell(
      "create stock name:string key price:double\n"
      "insert stock 'IBM' 40\n"
      "query price SELECT price FROM stock WHERE name = $p1\n"
      "trigger hot := price('IBM') > 50\n"
      "update stock price 80 WHERE name = 'IBM'\n"
      "stats json\n"
      "quit\n");
  // The snapshot is pretty-printed; it is the only braced region in the
  // output, so the first '{' through the last '}' bound it.
  size_t start = out.find('{');
  size_t end = out.rfind('}');
  ASSERT_NE(start, std::string::npos) << out;
  ASSERT_NE(end, std::string::npos) << out;
  ASSERT_LT(start, end);
  std::string text = out.substr(start, end - start + 1);
  auto doc = ptldb::json::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << text;
  for (const char* key : {"counters", "gauges", "histograms"}) {
    EXPECT_NE(doc->Find(key), nullptr) << key;
  }
}

TEST(ShellTest, HistoryPrintsTheCollapsedCommittedHistory) {
  std::string out = RunShell(
      "create stock name:string key price:double\n"
      "insert stock 'IBM' 40\n"
      "query price SELECT price FROM stock WHERE name = $p1\n"
      "ic cap := price('IBM') <= 100\n"
      "update stock price 150 WHERE name = 'IBM'\n"
      "event login 'alice'\n"
      "update stock price 60 WHERE name = 'IBM'\n"
      "history\n"
      "quit\n");
  size_t commits = 0;
  size_t events = 0;
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("commit [#", 0) == 0) {
      ++commits;
      EXPECT_NE(line.find("commit("), std::string::npos) << line;
    } else if (line.rfind("event  [#", 0) == 0) {
      ++events;
      EXPECT_NE(line.find("login("), std::string::npos) << line;
    }
  }
  // The insert and the accepted update are commit points; the raised event
  // is an event state; the vetoed update's begin/abort states are dropped.
  EXPECT_EQ(commits, 2u) << out;
  EXPECT_EQ(events, 1u) << out;
  EXPECT_EQ(out.find("abort("), std::string::npos) << out;
}

TEST(ShellTest, WhyExplainsFiringsAndRejectsUnknownOrNeverFired) {
  std::string out = RunShell(
      "create stock name:string key price:double\n"
      "insert stock 'IBM' 40\n"
      "query price SELECT price FROM stock WHERE name = $p1\n"
      "trace on\n"
      "trigger hot := price('IBM') > 50 since price('IBM') > 70\n"
      "trigger cold := price('IBM') > 1000\n"
      "update stock price 80 WHERE name = 'IBM'\n"
      "why hot\n"
      "why cold\n"
      "why ghost\n"
      "why\n"
      "quit\n");
  EXPECT_NE(out.find("rule 'hot' fired at state #"), std::string::npos)
      << out;
  EXPECT_NE(out.find("anchored at state #"), std::string::npos) << out;
  // A never-fired rule is a loud NotFound, not empty output.
  EXPECT_NE(out.find("rule 'cold' has never fired"), std::string::npos)
      << out;
  EXPECT_NE(out.find("no rule named 'ghost'"), std::string::npos);
  EXPECT_NE(out.find("usage: why <rule>"), std::string::npos);
}

TEST(ShellTest, TraceCommandsRoundTrip) {
  std::string dump = ::testing::TempDir() + "shell_trace_dump.jsonl";
  std::string chrome = ::testing::TempDir() + "shell_trace_chrome.json";
  std::string out = RunShell(
      "create stock name:string key price:double\n"
      "insert stock 'IBM' 40\n"
      "query price SELECT price FROM stock WHERE name = $p1\n"
      "trace on\n"
      "trigger hot := price('IBM') > 50\n"
      "update stock price 80 WHERE name = 'IBM'\n"
      "trace dump " + dump + "\n"
      "trace chrome " + chrome + "\n"
      "trace off\n"
      "trace bogus\n"
      "quit\n");
  EXPECT_NE(out.find("tracing on"), std::string::npos) << out;
  EXPECT_NE(out.find("update record(s) to " + dump), std::string::npos)
      << out;
  EXPECT_NE(out.find("span(s) to " + chrome), std::string::npos);
  EXPECT_NE(out.find("tracing off"), std::string::npos);
  EXPECT_NE(out.find("usage: trace"), std::string::npos);
  // The dumped JSONL replays cleanly against the naive evaluator.
  auto report = ptldb::rules::TraceReplayFile(dump);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->mismatches, 0u) << report->Summary();
  EXPECT_GT(report->records, 0u);
  EXPECT_GT(report->fired_with_witness, 0u);
  std::remove(dump.c_str());
  std::remove(chrome.c_str());
}

}  // namespace

// ptldb-loadgen: concurrent load generator for ptldb-server.
//
// N client sessions each push `--events` requests with up to `--pipeline`
// outstanding (pipelining is what gives the server's group commit something
// to coalesce). Per-request latency is measured tag-to-tag; the summary
// reports throughput and p50/p99 ack latency, as text or JSON.
//
//   ptldb-loadgen --port-file=/tmp/port --sessions=8 --events=500
//                 --pipeline=16 --mode=insert --json
//
// --latency-out=PATH additionally dumps the client-observed wire-to-ack
// distribution as one JSON document (count, mean, quantiles, log2-of-us
// buckets) — the client half of the E16 cross-check against the server's
// `server.wire_to_ack_ns` stage decomposition.
//
// Modes: `insert` appends unique (client, seq) rows to `ticks` (each row
// carries its session id, so a recovered store can be audited for lost or
// duplicated acked events); `mixed` interleaves stock-price updates and
// user events so temporal rules and the IC exercise under load.
//
// --probe-sql=SQL --probe-asof=T [--probe-out=PATH] additionally issues one
// QUERY_ASOF after the load drains and writes the rendered relation to PATH
// (stdout when omitted). The crash-recovery smoke captures the bytes before
// kill -9 and diffs them against the recovered server's answer; --events=0
// turns the run into a pure probe.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"

namespace ptldb {
namespace {

struct SessionResult {
  std::vector<double> lat_us;
  uint64_t ok = 0;
  uint64_t errors = 0;
  std::string first_error;
};

server::Request MakeRequest(int client_id, int seq, int mode,
                            std::mt19937* rng) {
  server::Request req;
  std::uniform_real_distribution<double> price(5, 95);
  if (mode == 0 || (seq % 3 == 0)) {
    req.type = server::MsgType::kInsert;
    req.table = "ticks";
    req.row = {Value::Int(client_id), Value::Int(seq),
               Value::Real(price(*rng))};
    return req;
  }
  if (seq % 3 == 1) {
    req.type = server::MsgType::kUpdate;
    req.table = "stock";
    req.set = {{"price", "$p"}};
    req.where = "name = $n";
    req.params = {{"p", Value::Real(price(*rng))},
                  {"n", Value::Str(seq % 6 == 1 ? "IBM" : "HP")}};
    return req;
  }
  req.type = server::MsgType::kRaiseEvent;
  req.event_name = "tick";
  req.event_params = {Value::Int(client_id), Value::Int(seq)};
  return req;
}

void RunSession(uint16_t port, int client_id, int events, int pipeline,
                int mode, SessionResult* out) {
  using Clock = std::chrono::steady_clock;
  server::Client client;
  Status s = client.Connect(port);
  if (!s.ok()) {
    out->errors = static_cast<uint64_t>(events);
    out->first_error = s.ToString();
    return;
  }
  std::mt19937 rng(static_cast<uint32_t>(client_id * 7919 + 1));
  std::map<uint32_t, Clock::time_point> in_flight;
  out->lat_us.reserve(static_cast<size_t>(events));
  int sent = 0;
  auto receive_one = [&]() {
    auto resp = client.Receive();
    if (!resp.ok()) {
      ++out->errors;
      if (out->first_error.empty()) out->first_error = resp.status().ToString();
      return false;
    }
    auto it = in_flight.find(resp->tag);
    if (it != in_flight.end()) {
      out->lat_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - it->second)
              .count());
      in_flight.erase(it);
    }
    if (resp->code == StatusCode::kOk) {
      ++out->ok;
    } else {
      ++out->errors;
      if (out->first_error.empty()) out->first_error = resp->message;
    }
    return true;
  };
  while (sent < events || !in_flight.empty()) {
    if (sent < events && in_flight.size() < static_cast<size_t>(pipeline)) {
      auto req = MakeRequest(client_id, sent, mode, &rng);
      auto start = Clock::now();
      auto tag = client.Send(std::move(req));
      if (!tag.ok()) {
        ++out->errors;
        if (out->first_error.empty()) out->first_error = tag.status().ToString();
        break;
      }
      in_flight[tag.value()] = start;
      ++sent;
      continue;
    }
    if (!receive_one()) break;
  }
  client.Close();
}

double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(v->size() - 1));
  std::nth_element(v->begin(), v->begin() + static_cast<ptrdiff_t>(idx),
                   v->end());
  return (*v)[idx];
}

/// Writes the latency sample set as one JSON histogram document. Buckets are
/// log2 of whole microseconds (bucket i counts samples with bit_width == i),
/// mirroring the server histograms' power-of-two scheme at us granularity.
bool WriteLatencyJson(const std::string& path, std::vector<double>* lat_us) {
  constexpr int kBuckets = 32;
  std::vector<uint64_t> buckets(kBuckets, 0);
  double sum = 0, max = 0;
  for (double us : *lat_us) {
    sum += us;
    if (us > max) max = us;
    auto n = static_cast<uint64_t>(us < 0 ? 0 : us);
    int b = 0;
    while (n != 0 && b < kBuckets - 1) {
      n >>= 1;
      ++b;
    }
    ++buckets[b];
  }
  int top = kBuckets;
  while (top > 0 && buckets[static_cast<size_t>(top) - 1] == 0) --top;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"count\": %zu, \"mean_us\": %.2f, \"p50_us\": %.1f, "
               "\"p90_us\": %.1f, \"p99_us\": %.1f, \"max_us\": %.1f, "
               "\"buckets_log2_us\": [",
               lat_us->size(),
               lat_us->empty() ? 0 : sum / static_cast<double>(lat_us->size()),
               Percentile(lat_us, 0.50), Percentile(lat_us, 0.90),
               Percentile(lat_us, 0.99), max);
  for (int i = 0; i < top; ++i) {
    std::fprintf(f, "%s%llu", i == 0 ? "" : ", ",
                 static_cast<unsigned long long>(buckets[static_cast<size_t>(i)]));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 1;
    }
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg.substr(2)] = "1";
    } else {
      flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  auto flag = [&](const std::string& name, const std::string& dflt) {
    auto it = flags.find(name);
    return it == flags.end() ? dflt : it->second;
  };

  int port = std::atoi(flag("port", "0").c_str());
  std::string port_file = flag("port-file", "");
  if (port == 0 && !port_file.empty()) {
    std::ifstream in(port_file);
    in >> port;
  }
  if (port <= 0) {
    std::fprintf(stderr, "need --port or --port-file\n");
    return 1;
  }
  int sessions = std::atoi(flag("sessions", "4").c_str());
  // Distinct client ids across runs keep `ticks` primary keys from
  // colliding when a recovered store is loaded again.
  int client_offset = std::atoi(flag("client-offset", "0").c_str());
  int events = std::atoi(flag("events", "1000").c_str());
  int pipeline = std::max(1, std::atoi(flag("pipeline", "16").c_str()));
  int mode = flag("mode", "insert") == "mixed" ? 1 : 0;
  bool json = flags.count("json") != 0;

  std::vector<SessionResult> results(static_cast<size_t>(sessions));
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    threads.emplace_back(RunSession, static_cast<uint16_t>(port),
                         client_offset + i, events, pipeline, mode,
                         &results[static_cast<size_t>(i)]);
  }
  for (auto& t : threads) t.join();
  double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              start)
                    .count();

  std::vector<double> all;
  uint64_t ok = 0, errors = 0;
  std::string first_error;
  for (auto& r : results) {
    all.insert(all.end(), r.lat_us.begin(), r.lat_us.end());
    ok += r.ok;
    errors += r.errors;
    if (first_error.empty()) first_error = r.first_error;
  }
  double eps = secs > 0 ? static_cast<double>(ok) / secs : 0;
  double p50 = Percentile(&all, 0.50);
  double p99 = Percentile(&all, 0.99);

  std::string probe_sql = flag("probe-sql", "");
  if (!probe_sql.empty()) {
    server::Client probe;
    Status s = probe.Connect(static_cast<uint16_t>(port));
    if (!s.ok()) {
      std::fprintf(stderr, "probe connect failed: %s\n", s.ToString().c_str());
      return 1;
    }
    server::Request req;
    req.type = server::MsgType::kQueryAsOf;
    req.sql = probe_sql;
    req.asof_time = std::atoll(flag("probe-asof", "0").c_str());
    auto resp = probe.Call(std::move(req));
    if (!resp.ok()) {
      std::fprintf(stderr, "probe failed: %s\n",
                   resp.status().ToString().c_str());
      return 1;
    }
    if (resp->code != StatusCode::kOk) {
      std::fprintf(stderr, "probe rejected: %s\n", resp->message.c_str());
      return 1;
    }
    std::string probe_out = flag("probe-out", "");
    if (probe_out.empty()) {
      std::printf("%s", resp->text.c_str());
    } else {
      std::ofstream out(probe_out, std::ios::binary);
      out << resp->text;
      if (!out) {
        std::fprintf(stderr, "cannot write --probe-out=%s\n",
                     probe_out.c_str());
        return 1;
      }
    }
  }

  std::string latency_out = flag("latency-out", "");
  if (!latency_out.empty() && !WriteLatencyJson(latency_out, &all)) {
    std::fprintf(stderr, "cannot write --latency-out=%s\n",
                 latency_out.c_str());
    return 1;
  }

  if (json) {
    std::printf(
        "{\"sessions\": %d, \"events_per_session\": %d, \"pipeline\": %d, "
        "\"mode\": \"%s\", \"acked\": %llu, \"errors\": %llu, "
        "\"seconds\": %.3f, \"events_per_sec\": %.1f, "
        "\"p50_us\": %.1f, \"p99_us\": %.1f}\n",
        sessions, events, pipeline, mode == 1 ? "mixed" : "insert",
        static_cast<unsigned long long>(ok),
        static_cast<unsigned long long>(errors), secs, eps, p50, p99);
  } else {
    std::printf(
        "sessions=%d events/session=%d pipeline=%d mode=%s\n"
        "acked=%llu errors=%llu in %.3fs -> %.1f events/s, "
        "latency p50=%.1fus p99=%.1fus\n",
        sessions, events, pipeline, mode == 1 ? "mixed" : "insert",
        static_cast<unsigned long long>(ok),
        static_cast<unsigned long long>(errors), secs, eps, p50, p99);
  }
  if (!first_error.empty()) {
    std::fprintf(stderr, "first error: %s\n", first_error.c_str());
  }
  return errors == 0 ? 0 : 1;
}

}  // namespace ptldb

int main(int argc, char** argv) { return ptldb::Main(argc, argv); }

// The event-ingestion server: the paper's §8 asynchronous invocation
// architecture behind a socket.
//
// The paper observes that the DBMS need not invoke the temporal component
// synchronously for every event: "the temporal component invocation can be
// executed for multiple events at the same time... trigger firing may be
// delayed, but not go unrecognized." The server realizes that architecture
// across processes:
//
//   * N connection reader threads decode frames and push requests into one
//     bounded MPSC queue. A full queue blocks the reader (TCP backpressure
//     propagates to the client) or, with `reject_when_full`, answers
//     kUnavailable immediately (admission control).
//   * ONE engine thread owns the database and rule engine — the substrate is
//     single-threaded by design (§2: commits serialize) and the queue is the
//     serialization point. It drains requests into batches (up to
//     `max_batch`, waiting at most `batch_delay_us` for stragglers), applies
//     them through the normal library path with RuleEngine batching, flushes,
//     then issues ONE durability barrier for the whole batch (WAL group
//     commit under FsyncPolicy::kGroup) before acknowledging any of it:
//     ack-after-durable, amortized.
//
// Because every request flows through the same engine APIs in queue order,
// the firing log the server produces is byte-identical to a direct library
// run of the same request sequence at any batch size (rules at default
// priority) — the served arm of tests/differential_test.cc holds it to that.

#ifndef PTLDB_SERVER_SERVER_H_
#define PTLDB_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "db/database.h"
#include "rules/engine.h"
#include "server/protocol.h"
#include "storage/durability.h"

namespace ptldb::server {

struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (see port()).
  uint16_t port = 0;

  /// Largest request batch the engine thread applies between durability
  /// barriers; also the RuleEngine batching window (§8). 1 = synchronous.
  size_t max_batch = 64;

  /// Latency bound: after the first request of a batch arrives, wait at most
  /// this long for more before applying a partial batch. 0 = never wait.
  int64_t batch_delay_us = 200;

  /// Bounded request queue: readers pushing past this block (backpressure)
  /// or get rejected (admission control, below).
  size_t queue_capacity = 1024;

  /// Full queue policy: false = block the reader thread, letting TCP flow
  /// control slow the client; true = answer kUnavailable immediately.
  bool reject_when_full = false;

  /// Optional observability registry (not owned; may be null). When set, the
  /// serving path stamps every request at frame read and threads the
  /// timestamp through the pipeline, decomposing wire-to-ack latency into
  /// per-stage histograms (`server.stage.*_ns`, DESIGN.md §15). With a
  /// durability manager, it also publishes the `wal.*` and `group.*` rows.
  Metrics* metrics = nullptr;

  /// Optional trace recorder (not owned; may be null). When attached and
  /// enabled, the engine thread records per-batch spans (batch size, queue
  /// depth at dequeue, admission outcome, group-commit role) alongside
  /// whatever the engine itself records into the same recorder. kTraceDump /
  /// kTraceCtl serve and control this recorder over the wire.
  trace::Recorder* trace = nullptr;

  /// Slow-event log: a request whose wire-to-ack latency reaches this bound
  /// appends one JSONL record with the full stage breakdown to
  /// `slow_log_path`. 0 disables (no clock reads unless metrics are wired).
  int64_t slow_threshold_us = 0;
  std::string slow_log_path;
};

/// Ties one engine stack (database + rules + optional durability) to a
/// listening socket. Construction wires, Start() spawns threads, Stop()
/// joins them. The components must outlive the server and must not be
/// driven concurrently from outside while it runs.
class Server {
 public:
  /// `mgr` may be null (no durability; acks mean "applied", not "durable").
  Server(ServerOptions options, db::Database* db, rules::RuleEngine* engine,
         storage::DurabilityManager* mgr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the accept + engine threads.
  Status Start();

  /// Stops accepting, drains the queue (responses for everything admitted
  /// are still written), closes sessions, joins all threads. Idempotent.
  void Stop();

  /// The bound port (valid after Start; resolves port 0).
  uint16_t port() const { return port_; }

  /// Firings drained from the engine so far, in execution order — the
  /// server-side firing log (kTakeFirings serves and clears it).
  std::vector<rules::Firing> TakeFirings();

  /// Total requests admitted into the queue so far.
  uint64_t requests_admitted() const {
    return requests_admitted_.load(std::memory_order_relaxed);
  }

  /// Requests shed by admission control (reject_when_full), with or without
  /// a metrics registry.
  uint64_t busy_rejections() const {
    return rejections_total_.load(std::memory_order_relaxed);
  }

 private:
  /// One connected client. Reader-owned except `write_mu` (the engine
  /// thread writes responses) and `closed`. `last_stats*` is the session's
  /// STATS_DELTA cursor, touched only by the engine thread.
  struct Session {
    int fd = -1;
    std::mutex write_mu;
    std::atomic<bool> closed{false};
    uint64_t id = 0;
    std::unique_ptr<MetricsSnapshot> last_stats;
    uint64_t last_stats_ns = 0;
  };

  /// One admitted request plus its pipeline timestamps (steady-clock ns; 0
  /// when observability is off — see observe_).
  struct Work {
    Request req;
    std::shared_ptr<Session> session;
    uint64_t t_read_ns = 0;  // stamped right after the frame was read
    uint64_t t_enq_ns = 0;   // after decode + admission (queue push)
    uint64_t t_deq_ns = 0;   // popped by the engine thread
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Session> session);
  void EngineLoop();

  /// Pops up to max_batch requests, honoring the latency bound. Returns
  /// false when the server is stopping and the queue is empty. Stamps each
  /// item's t_deq_ns and records the queue depth left behind in
  /// `queue_depth_after_batch_`.
  bool NextBatch(std::vector<Work>* batch);

  /// Applies one request against the engine stack (no durability barrier —
  /// the caller batches those). Fills `resp`. Takes the whole Work because
  /// the admin requests (STATS_DELTA) keep per-session cursor state.
  void ApplyRequest(Work& work, Response* resp);

  Status ApplyStatsDelta(Work& work, Response* resp);
  Status ApplyTraceDump(const Request& req, Response* resp);
  Status ApplyTraceCtl(const Request& req, Response* resp);

  /// Runs Flush + firing-log drain + durability barrier; on barrier failure
  /// rewrites every pending OK response to the barrier error (those commits
  /// are not durable and must not be acked as such). When observing, splits
  /// its own time against the caller's `apply_end_ns` stamp into `eval_ns`
  /// (engine evaluation) and `commit_ns` (durability barrier) so that
  /// apply_end + eval + commit is exactly the commit-end boundary.
  void FinishBatch(std::vector<Work>* batch, std::vector<Response>* resps,
                   uint64_t apply_end_ns, uint64_t* eval_ns,
                   uint64_t* commit_ns);

  /// Observes one finished request into the stage histograms and, past the
  /// slow threshold, the slow-event log. All boundary stamps are engine-
  /// thread local; the stages tile [t_read, t_ack] exactly.
  void ObserveRequest(const Work& work, const Response& resp,
                      uint64_t t_batch_ns, uint64_t t_apply_end_ns,
                      uint64_t eval_ns, uint64_t commit_ns,
                      uint64_t commit_end_ns, uint64_t t_ack_ns,
                      size_t batch_size);

  void SendResponse(Session* session, const Response& resp);
  /// Snapshot-time publication of the counts the server keeps itself
  /// (server.busy_rejections) and of the durability manager's stats.
  void PublishMetrics(Metrics& m) const;
  void CloseSession(Session* session);

  ServerOptions options_;
  db::Database* db_;
  rules::RuleEngine* engine_;
  storage::DurabilityManager* mgr_;  // may be null

  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::thread accept_thread_;
  std::thread engine_thread_;
  std::mutex sessions_mu_;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::vector<std::thread> reader_threads_;
  uint64_t next_session_id_ = 1;

  std::mutex queue_mu_;
  std::condition_variable queue_nonempty_;
  std::condition_variable queue_nonfull_;
  std::deque<Work> queue_;

  std::mutex firings_mu_;
  std::vector<rules::Firing> firing_log_;

  std::atomic<uint64_t> requests_admitted_{0};

  /// Admission-control rejections: the one count, kept without a registry
  /// (cold path) for trace spans and published as server.busy_rejections.
  std::atomic<uint64_t> rejections_total_{0};
  uint64_t last_rejections_seen_ = 0;  // engine-thread only

  uint64_t provider_id_ = 0;  // runs PublishMetrics; 0 = none

  // Cached instruments (null when options_.metrics is null).
  Metrics::Gauge* g_queue_depth_ = nullptr;
  Metrics::Gauge* g_sessions_ = nullptr;
  Metrics::Counter* c_requests_ = nullptr;
  Metrics::Counter* c_batches_ = nullptr;
  Metrics::Counter* c_acked_ = nullptr;
  Metrics::Counter* c_slow_ = nullptr;
  Metrics::Histogram* h_batch_size_ = nullptr;

  // Wire-to-ack decomposition: the seven stages tile [t_read, t_ack]
  // exactly, so per-event stage sums equal the total (DESIGN.md §15).
  Metrics::Histogram* h_stage_read_ = nullptr;    // frame read -> enqueue
  Metrics::Histogram* h_stage_queue_ = nullptr;   // enqueue -> dequeue
  Metrics::Histogram* h_stage_batch_ = nullptr;   // dequeue -> batch formed
  Metrics::Histogram* h_stage_apply_ = nullptr;   // batch formed -> applied
  Metrics::Histogram* h_stage_eval_ = nullptr;    // flush + firings drain
  Metrics::Histogram* h_stage_commit_ = nullptr;  // durability barrier
  Metrics::Histogram* h_stage_ack_ = nullptr;     // barrier done -> ack sent
  Metrics::Histogram* h_wire_to_ack_ = nullptr;   // t_read -> t_ack

  /// True when any per-event stamping is wanted (metrics wired or a slow
  /// threshold set). When false the serving path makes zero clock reads per
  /// request — observability off must stay within noise of PR 7 (E16).
  bool observe_ = false;

  int64_t slow_threshold_ns_ = 0;
  std::FILE* slow_log_ = nullptr;  // engine-thread only after Start
  uint64_t start_ns_ = 0;          // Start() stamp, slow-log relative times

  /// Queue depth left behind by the latest NextBatch pop (engine-thread
  /// only); feeds the per-batch trace span detail.
  size_t last_queue_depth_ = 0;
};

}  // namespace ptldb::server

#endif  // PTLDB_SERVER_SERVER_H_

#include "server/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/json.h"
#include "common/strings.h"
#include "storage/group_commit.h"

namespace ptldb::server {

namespace {

/// Pipeline stamps use the same steady-clock origin as trace spans so the
/// slow-event log and a Chrome trace dump line up on one time axis.
uint64_t NowNs() { return trace::Recorder::NowNs(); }

}  // namespace

Server::Server(ServerOptions options, db::Database* db,
               rules::RuleEngine* engine, storage::DurabilityManager* mgr)
    : options_(std::move(options)), db_(db), engine_(engine), mgr_(mgr) {
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.slow_threshold_us > 0) {
    slow_threshold_ns_ = options_.slow_threshold_us * 1000;
  }
  // Per-event stamping is one knob: either consumer (stage histograms or the
  // slow-event log) turns it on; with both off the serving path reads no
  // clocks at all (E16 holds observability-off to the PR 7 baseline).
  observe_ = options_.metrics != nullptr || slow_threshold_ns_ > 0;
  if (options_.metrics != nullptr) {
    Metrics& m = *options_.metrics;
    g_queue_depth_ = &m.gauge("server.queue_depth");
    g_sessions_ = &m.gauge("server.sessions_active");
    c_requests_ = &m.counter("server.requests");
    c_batches_ = &m.counter("server.batches");
    c_acked_ = &m.counter("server.acked");
    c_slow_ = &m.counter("server.slow_events");
    h_batch_size_ = &m.histogram("server.batch_size");
    h_stage_read_ = &m.histogram("server.stage.read_ns");
    h_stage_queue_ = &m.histogram("server.stage.queue_ns");
    h_stage_batch_ = &m.histogram("server.stage.batch_ns");
    h_stage_apply_ = &m.histogram("server.stage.apply_ns");
    h_stage_eval_ = &m.histogram("server.stage.eval_ns");
    h_stage_commit_ = &m.histogram("server.stage.commit_ns");
    h_stage_ack_ = &m.histogram("server.stage.ack_ns");
    h_wire_to_ack_ = &m.histogram("server.wire_to_ack_ns");
  }
}

Server::~Server() { Stop(); }

void Server::PublishMetrics(Metrics& m) const {
  m.counter("server.busy_rejections").Set(busy_rejections());
  if (mgr_ != nullptr) mgr_->PublishMetrics(m);
}

Status Server::Start() {
  if (running_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }
  if (slow_threshold_ns_ > 0) {
    if (options_.slow_log_path.empty()) {
      slow_log_ = stderr;
    } else {
      slow_log_ = std::fopen(options_.slow_log_path.c_str(), "a");
      if (slow_log_ == nullptr) {
        running_.store(false);
        return Status::InvalidArgument(
            StrCat("cannot open slow-event log '", options_.slow_log_path,
                   "' for appending"));
      }
    }
  }
  start_ns_ = NowNs();
  int lfd = socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) {
    return Status::Internal(StrCat("socket: ", std::strerror(errno)));
  }
  int one = 1;
  setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    close(lfd);
    return Status::Internal(StrCat("bind: ", std::strerror(errno)));
  }
  if (listen(lfd, 64) < 0) {
    close(lfd);
    return Status::Internal(StrCat("listen: ", std::strerror(errno)));
  }
  socklen_t addr_len = sizeof addr;
  if (getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    close(lfd);
    return Status::Internal(StrCat("getsockname: ", std::strerror(errno)));
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_.store(lfd);
  if (options_.max_batch > 1) engine_->SetBatching(options_.max_batch);
  if (options_.metrics != nullptr) {
    // Snapshots run on the engine thread (STATS), which also drives the WAL.
    provider_id_ = options_.metrics->AddProvider(
        [this](Metrics& m) { PublishMetrics(m); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  engine_thread_ = std::thread([this] { EngineLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (!running_.load()) return;
  stopping_.store(true);
  // Wake the accept thread: closing the listening socket fails its accept().
  int lfd = listen_fd_.exchange(-1);
  if (lfd >= 0) {
    shutdown(lfd, SHUT_RDWR);
    close(lfd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Wake readers blocked in recv (or in a blocked response send); those
  // blocked on a full queue see stopping_ via the push predicate.
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& s : sessions_) {
      std::lock_guard<std::mutex> wlock(s->write_mu);
      if (s->fd >= 0) shutdown(s->fd, SHUT_RDWR);
    }
  }
  queue_nonfull_.notify_all();
  for (auto& t : reader_threads_) {
    if (t.joinable()) t.join();
  }
  // The engine thread drains whatever the readers admitted, then exits.
  queue_nonempty_.notify_all();
  if (engine_thread_.joinable()) engine_thread_.join();
  if (provider_id_ != 0) {
    PublishMetrics(*options_.metrics);  // final totals outlive the stop
    options_.metrics->RemoveProvider(provider_id_);
    provider_id_ = 0;
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& s : sessions_) CloseSession(s.get());
    sessions_.clear();
  }
  if (slow_log_ != nullptr) {
    if (slow_log_ != stderr) std::fclose(slow_log_);
    slow_log_ = nullptr;
  }
}

std::vector<rules::Firing> Server::TakeFirings() {
  std::lock_guard<std::mutex> lock(firings_mu_);
  std::vector<rules::Firing> out = std::move(firing_log_);
  firing_log_.clear();
  return out;
}

void Server::AcceptLoop() {
  while (!stopping_.load()) {
    int fd = accept(listen_fd_.load(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket closed (Stop) or fatal
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto session = std::make_shared<Session>();
    session->fd = fd;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      if (stopping_.load()) {
        close(fd);
        break;
      }
      session->id = next_session_id_++;
      sessions_.push_back(session);
      reader_threads_.emplace_back(
          [this, session] { ReaderLoop(session); });
      if (g_sessions_ != nullptr) g_sessions_->Add(1);
    }
  }
}

void Server::ReaderLoop(std::shared_ptr<Session> session) {
  std::string payload;
  while (!stopping_.load() && !session->closed.load()) {
    Status s = ReadFrame(session->fd, &payload);
    if (!s.ok()) {
      // Clean close (NotFound), torn stream, or malformed frame: a protocol
      // error is answered best-effort, then the connection dies. The store
      // is untouched — nothing was admitted.
      if (s.code() != StatusCode::kNotFound && !stopping_.load()) {
        Response err;
        err.code = s.code();
        err.message = s.message();
        SendResponse(session.get(), err);
      }
      break;
    }
    // The wire-to-ack clock starts the moment the frame is off the socket:
    // decode cost and admission-control waiting are charged to the read
    // stage, not hidden before it.
    const uint64_t t_read_ns = observe_ ? NowNs() : 0;
    Result<Request> req = DecodeRequest(payload);
    if (!req.ok()) {
      Response err;
      err.code = req.status().code();
      err.message = req.status().message();
      SendResponse(session.get(), err);
      break;
    }
    MetricAdd(c_requests_);
    // Admission: block on the bounded queue (TCP backpressure) or reject.
    // Handshakes are exempt from shedding — a client treats a failed kHello
    // as a failed connection, not a retryable request, so under overload a
    // hello waits (blocking path) rather than being bounced.
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (options_.reject_when_full && queue_.size() >= options_.queue_capacity &&
        req.value().type != MsgType::kHello && !stopping_.load()) {
      lock.unlock();
      rejections_total_.fetch_add(1, std::memory_order_relaxed);
      Response busy;
      busy.tag = req.value().tag;
      busy.code = StatusCode::kUnavailable;
      busy.message = "server overloaded, retry";
      SendResponse(session.get(), busy);
      continue;
    }
    queue_nonfull_.wait(lock, [&] {
      return queue_.size() < options_.queue_capacity || stopping_.load();
    });
    Work work;
    work.req = std::move(req).value();
    work.session = session;
    work.t_read_ns = t_read_ns;
    work.t_enq_ns = observe_ ? NowNs() : 0;
    queue_.push_back(std::move(work));
    requests_admitted_.fetch_add(1, std::memory_order_relaxed);
    MetricSet(g_queue_depth_, static_cast<int64_t>(queue_.size()));
    lock.unlock();
    queue_nonempty_.notify_one();
  }
  CloseSession(session.get());
}

bool Server::NextBatch(std::vector<Work>* batch) {
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_nonempty_.wait(lock,
                       [&] { return !queue_.empty() || stopping_.load(); });
  if (queue_.empty()) return false;  // stopping and fully drained
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(options_.batch_delay_us);
  // One dequeue stamp per wakeup, not per item: requests drained in the same
  // burst left the queue at the same moment for latency purposes.
  uint64_t t_deq_ns = observe_ ? NowNs() : 0;
  while (batch->size() < options_.max_batch) {
    if (!queue_.empty()) {
      batch->push_back(std::move(queue_.front()));
      batch->back().t_deq_ns = t_deq_ns;
      queue_.pop_front();
      continue;
    }
    // Queue drained below max_batch: wait out the latency bound for
    // stragglers so group commit has company, but never past the deadline.
    if (options_.batch_delay_us <= 0 || stopping_.load()) break;
    if (!queue_nonempty_.wait_until(lock, deadline, [&] {
          return !queue_.empty() || stopping_.load();
        })) {
      break;  // deadline hit with nothing new
    }
    if (queue_.empty()) break;  // woken by stopping_
    t_deq_ns = observe_ ? NowNs() : 0;
  }
  last_queue_depth_ = queue_.size();
  MetricSet(g_queue_depth_, static_cast<int64_t>(queue_.size()));
  lock.unlock();
  queue_nonfull_.notify_all();
  return true;
}

void Server::EngineLoop() {
  std::vector<Work> batch;
  std::vector<Response> resps;
  while (true) {
    batch.clear();
    resps.clear();
    if (!NextBatch(&batch)) break;
    trace::ScopedSpan batch_span(options_.trace, trace::SpanKind::kServerBatch,
                                 "server_batch");
    const uint64_t t_batch_ns = observe_ ? NowNs() : 0;
    resps.resize(batch.size());
    {
      trace::ScopedSpan apply_span(options_.trace,
                                   trace::SpanKind::kServerApply,
                                   "server_apply");
      for (size_t i = 0; i < batch.size(); ++i) {
        ApplyRequest(batch[i], &resps[i]);
      }
    }
    const uint64_t apply_end_ns = observe_ ? NowNs() : 0;
    uint64_t eval_ns = 0;
    uint64_t commit_ns = 0;
    FinishBatch(&batch, &resps, apply_end_ns, &eval_ns, &commit_ns);
    // By construction (FinishBatch splits against apply_end_ns) this is the
    // exact commit-end boundary, so per-event stages tile [t_read, t_ack].
    const uint64_t commit_end_ns = apply_end_ns + eval_ns + commit_ns;
    MetricAdd(c_batches_);
    MetricObserve(h_batch_size_, batch.size());
    {
      trace::ScopedSpan ack_span(options_.trace, trace::SpanKind::kServerAck,
                                 "server_ack");
      for (size_t i = 0; i < batch.size(); ++i) {
        SendResponse(batch[i].session.get(), resps[i]);
        MetricAdd(c_acked_);
        if (observe_) {
          ObserveRequest(batch[i], resps[i], t_batch_ns, apply_end_ns,
                         eval_ns, commit_ns, commit_end_ns, NowNs(),
                         batch.size());
        }
      }
    }
    if (batch_span.active()) {
      const uint64_t rejections =
          rejections_total_.load(std::memory_order_relaxed);
      batch_span.set_detail(StrCat("batch=", batch.size(),
                                   " queue_depth=", last_queue_depth_,
                                   " shed=",
                                   rejections - last_rejections_seen_));
      last_rejections_seen_ = rejections;
    }
  }
}

void Server::ApplyRequest(Work& work, Response* resp) {
  const Request& req = work.req;
  resp->tag = req.tag;
  Status s = Status::OK();
  switch (req.type) {
    case MsgType::kHello:
      if (req.version != kProtocolVersion) {
        s = Status::InvalidArgument(StrCat("protocol version ", req.version,
                                           " unsupported; server speaks ",
                                           kProtocolVersion));
      }
      break;
    case MsgType::kPing:
      break;  // the batch barrier is the whole point
    case MsgType::kRaiseEvent:
      s = db_->RaiseEvent(event::Event{req.event_name, req.event_params});
      break;
    case MsgType::kInsert:
      s = db_->InsertRow(req.table, req.row);
      break;
    case MsgType::kUpdate:
    case MsgType::kDelete: {
      db::ParamMap params;
      for (const auto& [name, value] : req.params) params[name] = value;
      Result<size_t> n =
          req.type == MsgType::kUpdate
              ? db_->UpdateRows(req.table, req.set, req.where, &params)
              : db_->DeleteRows(req.table, req.where, &params);
      if (n.ok()) {
        resp->rows = static_cast<int64_t>(n.value());
      } else {
        s = n.status();
      }
      break;
    }
    case MsgType::kQuery:
    case MsgType::kQueryAsOf: {
      // Reads observe the engine mid-batch: flush deferred evaluation first
      // so triggered actions' effects are visible, matching the unbatched
      // library semantics request-for-request. (An AS OF read needs the
      // flush too: the target time may be the current commit point, whose
      // history rows materialize only once the batch lands.)
      s = engine_->Flush();
      if (s.ok()) {
        db::ParamMap params;
        for (const auto& [name, value] : req.params) params[name] = value;
        Result<db::Relation> rel =
            req.type == MsgType::kQueryAsOf
                ? db_->QuerySqlAsOf(req.sql, req.asof_time, &params)
                : db_->QuerySql(req.sql, &params);
        if (rel.ok()) {
          resp->rows = static_cast<int64_t>(rel.value().size());
          resp->text = rel.value().ToString();
        } else {
          s = rel.status();
        }
      }
      break;
    }
    case MsgType::kTakeFirings: {
      s = engine_->Flush();
      if (s.ok()) {
        std::lock_guard<std::mutex> lock(firings_mu_);
        auto fresh = engine_->TakeFirings();
        firing_log_.insert(firing_log_.end(),
                           std::make_move_iterator(fresh.begin()),
                           std::make_move_iterator(fresh.end()));
        resp->firings = std::move(firing_log_);
        firing_log_.clear();
      }
      break;
    }
    case MsgType::kStats:
      // Flush first so engine-side counters reflect everything admitted
      // before this request; then snapshot in the requested exposition.
      s = engine_->Flush();
      if (s.ok()) {
        if (options_.metrics == nullptr) {
          resp->text =
              req.stats_format == StatsFormat::kPrometheus ? "" : "{}";
        } else if (req.stats_format == StatsFormat::kPrometheus) {
          resp->text = options_.metrics->ToPrometheus();
        } else {
          resp->text = options_.metrics->ToJson();
        }
      }
      break;
    case MsgType::kStatsDelta:
      s = engine_->Flush();
      if (s.ok()) s = ApplyStatsDelta(work, resp);
      break;
    case MsgType::kTraceDump:
      s = ApplyTraceDump(req, resp);
      break;
    case MsgType::kTraceCtl:
      s = ApplyTraceCtl(req, resp);
      break;
    case MsgType::kFlush:
      s = engine_->Flush();
      break;
    case MsgType::kCheckpoint:
      s = engine_->Flush();
      if (s.ok()) {
        s = mgr_ != nullptr
                ? mgr_->Checkpoint()
                : Status::InvalidArgument("server runs without durability");
      }
      break;
  }
  resp->applied_seq = db_->history().size();
  if (!s.ok()) {
    resp->code = s.code();
    resp->message = s.message();
  }
}

Status Server::ApplyStatsDelta(Work& work, Response* resp) {
  if (options_.metrics == nullptr) {
    resp->text = "{\"window_ns\": 0, \"stats\": {}}";
    return Status::OK();
  }
  Session* session = work.session.get();
  const uint64_t now = NowNs();
  MetricsSnapshot snap = options_.metrics->TakeSnapshot();
  std::string stats_json;
  uint64_t window_ns = 0;
  if (session->last_stats != nullptr) {
    stats_json = snap.DeltaSince(*session->last_stats).ToJson();
    window_ns = now - session->last_stats_ns;
  } else {
    // First poll on this session: the window is the server's whole uptime
    // and the "delta" is the full snapshot.
    stats_json = snap.ToJson();
    window_ns = now - start_ns_;
  }
  session->last_stats = std::make_unique<MetricsSnapshot>(std::move(snap));
  session->last_stats_ns = now;
  resp->text = StrCat("{\"window_ns\": ", window_ns, ", \"stats\": ",
                      stats_json, "}");
  return Status::OK();
}

Status Server::ApplyTraceDump(const Request& req, Response* resp) {
  trace::Recorder* rec = options_.trace;
  if (rec == nullptr) {
    return Status::InvalidArgument("server runs without a trace recorder");
  }
  // The engine thread is the only span writer on a running server, so
  // exporting from here satisfies the recorder's quiescence requirement.
  std::string dump = req.trace_format == TraceFormat::kChrome
                         ? rec->ToChromeTrace()
                         : rec->ToJsonl();
  constexpr size_t kResponseSlack = 4096;  // tag/code/length framing
  if (dump.size() > kMaxResponseFrameLen - kResponseSlack) {
    return Status::Internal(
        StrCat("trace dump of ", dump.size(),
               " bytes exceeds the response frame bound; clear the ring "
               "(TRACE_DUMP clear=1) or shrink its capacity"));
  }
  if (req.trace_clear) rec->Clear();
  resp->text = std::move(dump);
  return Status::OK();
}

Status Server::ApplyTraceCtl(const Request& req, Response* resp) {
  trace::Recorder* rec = options_.trace;
  if (rec == nullptr) {
    return Status::InvalidArgument("server runs without a trace recorder");
  }
  switch (req.trace_op) {
    case TraceOp::kStatus:
      break;
    case TraceOp::kEnable:
      rec->Enable();
      break;
    case TraceOp::kDisable:
      rec->Disable();
      break;
    case TraceOp::kClear:
      rec->Clear();
      break;
  }
  json::Json j = json::Json::Object();
  j.Set("enabled", json::Json::Bool(rec->enabled()));
  j.Set("spans", json::Json::UInt(rec->span_count()));
  j.Set("dropped_spans", json::Json::UInt(rec->dropped_spans()));
  j.Set("updates", json::Json::UInt(rec->update_count()));
  j.Set("dropped_updates", json::Json::UInt(rec->dropped_updates()));
  resp->text = j.Dump();
  return Status::OK();
}

void Server::FinishBatch(std::vector<Work>* batch,
                         std::vector<Response>* resps, uint64_t apply_end_ns,
                         uint64_t* eval_ns, uint64_t* commit_ns) {
  Status s = engine_->Flush();
  if (s.ok()) {
    std::lock_guard<std::mutex> lock(firings_mu_);
    auto fresh = engine_->TakeFirings();
    firing_log_.insert(firing_log_.end(),
                       std::make_move_iterator(fresh.begin()),
                       std::make_move_iterator(fresh.end()));
  }
  // Action errors are per-rule, not per-request (a batched action cannot be
  // attributed to one frame); drain them so they don't accumulate.
  (void)engine_->TakeErrors();
  const uint64_t eval_end_ns = observe_ ? NowNs() : 0;
  if (observe_) *eval_ns = eval_end_ns - apply_end_ns;
  // One barrier retires every commit in the batch (group commit). A barrier
  // failure poisons every OK ack in the batch: those writes applied in
  // memory but their durability is unknown, and acking them would break the
  // acked-implies-durable contract the soak test enforces.
  if (s.ok() && mgr_ != nullptr) {
    storage::GroupCommitter* group = mgr_->group();
    const uint64_t syncs_before =
        group != nullptr ? group->stats().sync_batches : 0;
    trace::ScopedSpan commit_span(options_.trace,
                                  trace::SpanKind::kServerCommit,
                                  "server_commit");
    s = mgr_->WaitWalDurable();
    if (commit_span.active() && group != nullptr) {
      // Leader issued the fsync for this group; a follower found the tail
      // already durable (someone else's sync covered it).
      commit_span.set_detail(group->stats().sync_batches > syncs_before
                                 ? "role=leader"
                                 : "role=follower");
    }
  }
  if (observe_) *commit_ns = NowNs() - eval_end_ns;
  if (!s.ok()) {
    for (size_t i = 0; i < batch->size(); ++i) {
      Response& r = (*resps)[i];
      if (r.code == StatusCode::kOk) {
        r.code = s.code();
        r.message = StrCat("durability barrier failed: ", s.message());
      }
    }
  }
}

void Server::ObserveRequest(const Work& work, const Response& resp,
                            uint64_t t_batch_ns, uint64_t t_apply_end_ns,
                            uint64_t eval_ns, uint64_t commit_ns,
                            uint64_t commit_end_ns, uint64_t t_ack_ns,
                            size_t batch_size) {
  // The seven stages tile [t_read, t_ack] exactly: every boundary is used
  // once as an end and once as the next start, so read+queue+batch+apply+
  // eval+commit+ack == total by construction (observability_test pins it).
  const uint64_t read_ns = work.t_enq_ns - work.t_read_ns;
  const uint64_t queue_ns = work.t_deq_ns - work.t_enq_ns;
  const uint64_t batch_ns = t_batch_ns - work.t_deq_ns;
  const uint64_t apply_ns = t_apply_end_ns - t_batch_ns;
  const uint64_t ack_ns = t_ack_ns - commit_end_ns;
  const uint64_t total_ns = t_ack_ns - work.t_read_ns;
  MetricObserve(h_stage_read_, read_ns);
  MetricObserve(h_stage_queue_, queue_ns);
  MetricObserve(h_stage_batch_, batch_ns);
  MetricObserve(h_stage_apply_, apply_ns);
  MetricObserve(h_stage_eval_, eval_ns);
  MetricObserve(h_stage_commit_, commit_ns);
  MetricObserve(h_stage_ack_, ack_ns);
  MetricObserve(h_wire_to_ack_, total_ns);
  if (slow_threshold_ns_ > 0 && slow_log_ != nullptr &&
      total_ns >= static_cast<uint64_t>(slow_threshold_ns_)) {
    MetricAdd(c_slow_);
    // All fields are integers or fixed enum names — no JSON escaping needed.
    std::string line = StrCat(
        "{\"t_us\": ", (work.t_read_ns - start_ns_) / 1000,
        ", \"session\": ", work.session->id, ", \"tag\": ", work.req.tag,
        ", \"type\": \"", MsgTypeName(work.req.type),
        "\", \"code\": ", static_cast<int>(resp.code),
        ", \"batch\": ", batch_size, ", \"total_ns\": ", total_ns,
        ", \"stages\": {\"read\": ", read_ns, ", \"queue\": ", queue_ns,
        ", \"batch\": ", batch_ns, ", \"apply\": ", apply_ns,
        ", \"eval\": ", eval_ns, ", \"commit\": ", commit_ns,
        ", \"ack\": ", ack_ns, "}}\n");
    std::fwrite(line.data(), 1, line.size(), slow_log_);
    std::fflush(slow_log_);
  }
}

void Server::SendResponse(Session* session, const Response& resp) {
  if (session->closed.load()) return;
  std::string payload;
  EncodeResponse(resp, &payload);
  std::lock_guard<std::mutex> lock(session->write_mu);
  if (session->closed.load()) return;
  // A dead peer (mid-stream disconnect) surfaces here; the session is torn
  // down and remaining responses for it are dropped on the floor. Admin
  // responses (stats, trace dumps) outgrow request frames, hence the bound.
  if (!WriteFrame(session->fd, payload, kMaxResponseFrameLen).ok()) {
    session->closed.store(true);
    shutdown(session->fd, SHUT_RDWR);
  }
}

void Server::CloseSession(Session* session) {
  session->closed.store(true);
  std::lock_guard<std::mutex> lock(session->write_mu);
  if (session->fd >= 0) {
    shutdown(session->fd, SHUT_RDWR);
    close(session->fd);
    session->fd = -1;
    if (g_sessions_ != nullptr) g_sessions_->Add(-1);
  }
}

}  // namespace ptldb::server

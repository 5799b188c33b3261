#include "server/server.h"

#include <chrono>
#include <string>
#include <utility>

#include "server/metrics.h"
#include "util/timer.h"

namespace levelheaded::server {

namespace {

/// The answer for connections caught in a shutdown before a worker could
/// serve them.
std::string DrainErrorLine() {
  return BuildErrorResponse(
      Status::Cancelled("server shutting down; connection not served"));
}

}  // namespace

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already started");
  }
  LH_ASSIGN_OR_RETURN(listener_, ListenTcp(options_.port));
  LH_ASSIGN_OR_RETURN(port_, BoundPort(listener_));
  if (options_.metrics_port >= 0) {
    metrics_http_ = std::make_unique<MetricsHttpServer>(
        [this] { return RenderPrometheusMetrics(stats_, engine_); });
    Status st = metrics_http_->Start(
        static_cast<uint16_t>(options_.metrics_port),
        options_.poll_interval_ms);
    if (!st.ok()) {
      metrics_http_.reset();
      listener_.Close();
      return st;
    }
  }
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(worker_tokens_.size());
  for (int slot = 0; slot < static_cast<int>(worker_tokens_.size());
       ++slot) {
    workers_.emplace_back([this, slot] { WorkerLoop(slot); });
  }
  return Status::OK();
}

void Server::Stop() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;
  if (!running_.load(std::memory_order_acquire)) return;

  // 1. Stop accepting: the accept loop observes the flag within one poll
  //    interval and exits (closing the listener).
  draining_.store(true, std::memory_order_release);

  // 2. Drain: give in-flight requests up to drain_timeout_ms to finish.
  //    Workers stop picking up new requests on their connections as soon
  //    as they observe draining_.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(
              options_.drain_timeout_ms));
  while (stats_.snapshot().inflight > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // 3. Cancel stragglers: any request still running unwinds with
  //    kCancelled at its next executor guard check.
  for (CancelToken& token : worker_tokens_) token.Cancel();

  // 4. Release the workers and join everything.
  queue_.Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();

  // 5. Queued-but-never-served connections get an explicit drain error.
  Socket conn;
  while (queue_.TryPop(&conn)) {
    (void)SendAll(conn, DrainErrorLine());
    conn.Close();
  }
  listener_.Close();
  if (metrics_http_ != nullptr) metrics_http_->Stop();
  running_.store(false, std::memory_order_release);
}

void Server::AcceptLoop() {
  while (!Draining()) {
    Result<Socket> conn =
        AcceptWithTimeout(listener_, options_.poll_interval_ms);
    if (!conn.ok()) break;  // listener failed; nothing to serve anymore
    if (!conn.value().valid()) continue;  // poll tick — re-check draining_
    Socket s = conn.TakeValue();
    stats_.CountAccepted();
    // Workers must wake from idle recv() ticks to notice shutdown.
    if (!SetRecvTimeout(s, options_.poll_interval_ms).ok()) continue;
    switch (queue_.TryPush(&s)) {
      case RequestQueue::PushResult::kOk:
        break;
      case RequestQueue::PushResult::kFull: {
        stats_.CountRejectedOverload();
        (void)SendAll(
            s, BuildErrorResponse(
                   Status::ResourceExhausted(
                       "server overloaded: admission queue full"),
                   {{"queue_depth", static_cast<double>(queue_.size())},
                    {"queue_capacity",
                     static_cast<double>(queue_.capacity())},
                    {"num_workers",
                     static_cast<double>(worker_tokens_.size())}}));
        s.Close();
        break;
      }
      case RequestQueue::PushResult::kClosed:
        s.Close();
        break;
    }
  }
}

void Server::WorkerLoop(int slot) {
  Socket conn;
  while (queue_.Pop(&conn)) {
    if (Draining()) {
      (void)SendAll(conn, DrainErrorLine());
      conn.Close();
      continue;
    }
    ServeConnection(slot, std::move(conn));
  }
}

void Server::ServeConnection(int slot, Socket conn) {
  LineReader reader(&conn, options_.max_request_bytes);
  std::string line;
  for (;;) {
    const LineReader::ReadStatus rs = reader.ReadLine(&line);
    if (rs == LineReader::ReadStatus::kTimeout) {
      if (Draining()) break;  // idle connection during shutdown
      continue;
    }
    if (rs == LineReader::ReadStatus::kEof ||
        rs == LineReader::ReadStatus::kError) {
      break;
    }
    if (rs == LineReader::ReadStatus::kTooLong) {
      stats_.CountError();
      (void)SendAll(
          conn, BuildErrorResponse(Status::InvalidArgument(
                    "request line exceeds max_request_bytes (" +
                    std::to_string(options_.max_request_bytes) + ")")));
      break;  // the stream cannot be resynced past an unbounded line
    }
    if (line.empty()) continue;

    stats_.BeginRequest();
    WallTimer timer;
    ServerRequest request;
    std::string response;
    obs::RequestClass cls = obs::RequestClass::kOther;
    obs::RequestOutcome outcome = obs::RequestOutcome::kError;
    const Status parsed = ParseRequestLine(line, &request);
    if (!parsed.ok()) {
      stats_.CountError();
      response = BuildErrorResponse(parsed);
    } else {
      switch (request.mode) {
        case ServerRequest::Mode::kQuery:
          cls = obs::RequestClass::kQuery;
          break;
        case ServerRequest::Mode::kAnalyze:
          cls = obs::RequestClass::kAnalyze;
          break;
        case ServerRequest::Mode::kExplain:
          cls = obs::RequestClass::kExplain;
          break;
        default:
          cls = obs::RequestClass::kOther;  // stats/metrics/slowlog
      }
      response = HandleRequest(slot, request, &outcome);
    }
    stats_.RecordLatency(cls, outcome, timer.ElapsedMillis());
    stats_.EndRequest();
    if (!SendAll(conn, response).ok()) break;  // peer hung up mid-response
    if (Draining()) break;
  }
  conn.Close();
}

std::string Server::HandleRequest(int slot, const ServerRequest& request,
                                  obs::RequestOutcome* outcome) {
  *outcome = obs::RequestOutcome::kOk;
  if (request.mode == ServerRequest::Mode::kStats) {
    return BuildStatsResponse(CollectStatsExport(stats_, engine_));
  }
  if (request.mode == ServerRequest::Mode::kMetrics) {
    return BuildMetricsResponse(RenderPrometheusMetrics(stats_, engine_));
  }
  if (request.mode == ServerRequest::Mode::kSlowLog) {
    const obs::SlowQueryLog* log = engine_->slow_query_log();
    return BuildSlowLogResponse(log->Snapshot(), log->threshold_ms(),
                                log->total_recorded());
  }

  QueryOptions opts;
  opts.timeout_ms = request.timeout_ms > 0 ? request.timeout_ms
                                           : options_.default_timeout_ms;
  // Tracing a query needs its spans collected; the server-wide setting
  // additionally feeds the lifetime metrics and the slow-query log.
  opts.collect_stats = options_.collect_request_stats || request.include_trace;
  CancelToken& token = worker_tokens_[static_cast<size_t>(slot)];
  // Safe to re-arm: Stop() only cancels after draining_ is set, and a
  // draining worker never reaches this point again.
  token.Reset();
  opts.cancel_token = &token;

  if (request.mode == ServerRequest::Mode::kExplain) {
    const Result<ExplainInfo> info = engine_->Explain(request.sql, opts);
    if (info.ok()) {
      stats_.CountCompleted();
      return BuildExplainResponse(info.value());
    }
    stats_.CountError();
    *outcome = obs::RequestOutcome::kError;
    return BuildErrorResponse(info.status());
  }

  const Result<QueryResult> result =
      request.mode == ServerRequest::Mode::kAnalyze
          ? engine_->QueryAnalyze(request.sql, opts)
          : engine_->Query(request.sql, opts);
  if (result.ok()) {
    stats_.CountCompleted();
    // The profile rides only on analyze responses — a plain query run
    // with server-wide stats collection must not grow its response.
    return BuildResultResponse(
        result.value(),
        /*include_profile=*/request.mode == ServerRequest::Mode::kAnalyze,
        /*include_trace=*/request.include_trace);
  }
  const Status& st = result.status();
  if (st.code() == StatusCode::kDeadlineExceeded) {
    stats_.CountTimeout();
    *outcome = obs::RequestOutcome::kTimeout;
  } else if (st.code() == StatusCode::kCancelled) {
    stats_.CountCancelled();
    *outcome = obs::RequestOutcome::kCancelled;
  } else {
    stats_.CountError();
    *outcome = obs::RequestOutcome::kError;
  }
  return BuildErrorResponse(st);
}

}  // namespace levelheaded::server

#include "shard/sharded_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <utility>

#include "osd/transport.h"
#include "server/admin_protocol.h"
#include "telemetry/json_util.h"

namespace reo {
namespace {

/// Re-arm delay for the listener after accept4 ran out of descriptors.
constexpr uint64_t kAcceptRetryMs = 100;

std::string PeerName(const sockaddr_in& addr) {
  char ip[INET_ADDRSTRLEN] = {};
  inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

FramePayload EncodeResponsePayload(OsdResponse&& resp) {
  EncodedResponseParts p = EncodeResponseParts(std::move(resp));
  return FramePayload{std::move(p.head), std::move(p.body), std::move(p.tail)};
}

}  // namespace

/// Per-shard serving counters, updated by the owning loop thread.
struct ShardWorkerStats {
  ServingCounter accepted, closed, requests, responses, bytes_in, bytes_out;
  ServingCounter frame_errors, crc_errors, decode_errors;
  ServingCounter admin_requests, admin_errors;
  ServingCounter forwarded, forward_executed;
};

/// One shard: an EventLoop thread owning its connections and OsdTarget.
/// Everything except the stats atomics and loop().Post() is confined to
/// the shard's loop thread.
///
/// Cache-line aligned so no other heap object shares a line with it: its
/// loop thread writes it on every frame, and a neighbouring object may be
/// written by another shard's thread just as often. Unaligned, 2-shard
/// throughput moved by ~10 % with nothing but this object's size.
class alignas(64) ShardWorker final : private ConnectionHost {
 public:
  ShardWorker(ShardedServer& owner, size_t index, OsdTarget& target)
      : owner_(owner), index_(index), target_(target) {}

  EventLoop& loop() { return loop_; }
  size_t index() const { return index_; }
  OsdTarget& target() { return target_; }
  ShardWorkerStats& stats() { return stats_; }
  const ShardWorkerStats& stats() const { return stats_; }

  void AttachTelemetry(MetricRegistry& registry) {
    stats_.accepted.tel = &registry.GetCounter("server.connections.accepted");
    stats_.closed.tel = &registry.GetCounter("server.connections.closed");
    stats_.requests.tel = &registry.GetCounter("server.requests");
    stats_.bytes_in.tel = &registry.GetCounter("server.bytes_in");
    stats_.bytes_out.tel = &registry.GetCounter("server.bytes_out");
    stats_.frame_errors.tel = &registry.GetCounter("server.frame_errors");
    stats_.crc_errors.tel = &registry.GetCounter("server.crc_errors");
    stats_.decode_errors.tel = &registry.GetCounter("server.decode_errors");
    stats_.admin_requests.tel = &registry.GetCounter("server.admin.requests");
    stats_.admin_errors.tel = &registry.GetCounter("server.admin.errors");
    stats_.forwarded.tel = &registry.GetCounter("server.forwarded");
    stats_.forward_executed.tel =
        &registry.GetCounter("server.forward_executed");
    tel_active_ = &registry.GetGauge("server.connections.active");
    tel_lat_read_ = &registry.GetHistogram("server.latency.read_us");
    tel_lat_write_ = &registry.GetHistogram("server.latency.write_us");
    tel_lat_other_ = &registry.GetHistogram("server.latency.other_us");
  }

  void AttachTracing(Tracer& tracer) {
    tracer_ = &tracer;
    trace_root_ = &tracer.RecorderFor(TraceComponent::kTransport);
  }

  // --- Loop-thread entry points (Posted by the acceptor / coordinator).

  /// Adopts an accepted socket: constructs the Connection here so its
  /// EventLoop registration happens on the owning thread.
  void Adopt(int fd, uint64_t id, std::string peer, ConnectionConfig cfg) {
    ConnectionHost& host = *this;
    connections_.emplace(id, std::make_unique<Connection>(
                                 fd, id, loop_, host, cfg, peer, pool_));
    stats_.accepted.Add();
    Set(tel_active_, static_cast<double>(connections_.size()));
    Emit(owner_.events_, ShardedServer::NowNs(), EventSeverity::kDebug,
         "server.accept", "connection accepted",
         {{"peer", peer}, {"conn", std::to_string(id)},
          {"shard", std::to_string(index_)}});
    // Safety net: the acceptor's per-loop FIFO means BeginDrain always
    // lands after every adoption it raced with, but be defensive.
    if (draining_) connections_[id]->BeginDrain();
  }

  /// Phase 1: stop this shard's connections taking new requests; finish
  /// what they already received (including cross-shard hops).
  void BeginDrain() {
    draining_ = true;
    std::vector<uint64_t> ids;
    ids.reserve(connections_.size());
    for (const auto& [id, conn] : connections_) ids.push_back(id);
    for (uint64_t id : ids) {
      auto it = connections_.find(id);
      if (it != connections_.end()) it->second->BeginDrain();
    }
    ReportIfEmpty();
  }

  /// Phase 2: every shard's map is empty — checkpoint and stop.
  void FinishDrain() {
    if (owner_.config_.on_shard_drained) {
      owner_.config_.on_shard_drained(index_);
    }
    loop_.Stop();
  }

  /// Drain-deadline enforcement: force-close whatever is left.
  void ForceCloseAll() {
    size_t n = connections_.size();
    if (n == 0) return;
    stats_.closed.Add(n);
    connections_.clear();
    owner_.active_conns_.fetch_sub(n, std::memory_order_relaxed);
    Set(tel_active_, 0);
    ReportIfEmpty();
  }

  /// Delivers a cross-shard response to the connection that deferred the
  /// frame. The connection may have died meanwhile (peer reset): a miss
  /// in the map drops the completion — its slot died with the conn.
  void DeliverCompletion(uint64_t conn_id, uint64_t token,
                         FramePayload payload, SimTime start_ns, OsdOp op) {
    ObserveLatency(op, start_ns, ShardedServer::NowNs());
    stats_.responses.Add();
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) return;
    it->second->Complete(token, std::move(payload));  // may destroy conn
  }

 private:
  // ConnectionHost (loop thread):
  FrameResult OnFrame(Connection& conn,
                      std::span<const uint8_t> payload) override {
    if (IsAdminFrame(payload)) {
      return FrameResult{owner_.HandleAdminFrame(*this, conn, payload)};
    }
    stats_.requests.Add();
    auto decoded = DecodeCommand(payload);
    if (!decoded.ok()) {
      stats_.decode_errors.Add();
      Emit(owner_.events_, ShardedServer::NowNs(), EventSeverity::kWarn,
           "server.decode_error", "framed payload is not a valid OSD command",
           {{"peer", conn.peer()},
            {"bytes", std::to_string(payload.size())},
            {"error", std::string(decoded.status().message())}});
      OsdResponse err;
      err.sense = SenseCode::kFail;
      stats_.responses.Add();
      return FrameResult{EncodeResponsePayload(std::move(err))};
    }
    SimTime start = ShardedServer::NowNs();
    decoded->now = start;
    ShardRoute route = owner_.router_.RouteOf(*decoded);
    if (route.fan_out && owner_.workers_.size() > 1) {
      owner_.FanOut(*this, conn, std::move(*decoded), start);
      return FrameResult{{}, /*deferred=*/true, /*barrier=*/true};
    }
    if (!route.fan_out && route.shard != index_) {
      owner_.Forward(*this, conn, std::move(*decoded), route.shard, start);
      return FrameResult{{}, /*deferred=*/true, /*barrier=*/false};
    }
    // Home shard (or single-shard fan-out): execute synchronously. The
    // root span and the latency histogram share the same two clock
    // stamps, so stage.transport sums equal server.latency sums under
    // sample_every=1.
    TraceOp root_op = decoded->op == OsdOp::kRead    ? TraceOp::kGet
                      : decoded->op == OsdOp::kWrite ? TraceOp::kPut
                                                     : TraceOp::kOsdCommand;
    RequestTrace root(tracer_, trace_root_, root_op, start, decoded->id.oid);
    OsdResponse resp = target_.Execute(*decoded);
    SimTime end = ShardedServer::NowNs();
    root.set_end(end);
    root.Finish();
    ObserveLatency(decoded->op, start, end);
    stats_.responses.Add();
    return FrameResult{EncodeResponsePayload(std::move(resp))};
  }

  void OnCorruptFrame(Connection& conn, FrameStatus status) override {
    const char* kind = "bad_magic";
    if (status == FrameStatus::kCrcMismatch) {
      stats_.crc_errors.Add();
      kind = "crc_mismatch";
    } else {
      stats_.frame_errors.Add();
      if (status == FrameStatus::kOversized) kind = "oversized_length";
    }
    Emit(owner_.events_, ShardedServer::NowNs(), EventSeverity::kWarn,
         "server.wire_corruption", "corrupt frame on connection; dropping it",
         {{"peer", conn.peer()},
          {"conn", std::to_string(conn.id())},
          {"shard", std::to_string(index_)},
          {"kind", kind},
          {"frames_ok", std::to_string(conn.frames_handled())}});
  }

  void OnBytes(uint64_t bytes_in, uint64_t bytes_out) override {
    stats_.bytes_in.Add(bytes_in);
    stats_.bytes_out.Add(bytes_out);
  }

  void OnClose(Connection& conn, std::string_view reason) override {
    Emit(owner_.events_, ShardedServer::NowNs(), EventSeverity::kDebug,
         "server.close", "connection closed",
         {{"peer", conn.peer()},
          {"conn", std::to_string(conn.id())},
          {"shard", std::to_string(index_)},
          {"reason", std::string(reason)},
          {"frames", std::to_string(conn.frames_handled())}});
    stats_.closed.Add();
    connections_.erase(conn.id());  // destroys conn
    owner_.active_conns_.fetch_sub(1, std::memory_order_relaxed);
    Set(tel_active_, static_cast<double>(connections_.size()));
    if (draining_) ReportIfEmpty();
  }

  void ObserveLatency(OsdOp op, SimTime start, SimTime end) {
    double us = static_cast<double>(end - start) / 1e3;
    switch (op) {
      case OsdOp::kRead: Observe(tel_lat_read_, us); break;
      case OsdOp::kWrite: Observe(tel_lat_write_, us); break;
      default: Observe(tel_lat_other_, us); break;
    }
  }

  void ReportIfEmpty() {
    if (!connections_.empty() || reported_empty_) return;
    reported_empty_ = true;
    owner_.OnWorkerEmpty();
  }

  friend class ShardedServer;

  ShardedServer& owner_;
  size_t index_;
  OsdTarget& target_;
  EventLoop loop_;
  FrameMetaPool pool_;
  std::map<uint64_t, std::unique_ptr<Connection>> connections_;
  bool draining_ = false;
  bool reported_empty_ = false;
  ShardWorkerStats stats_;

  // Tracing (null when un-attached).
  Tracer* tracer_ = nullptr;
  SpanRecorder* trace_root_ = nullptr;

  // Telemetry (null when un-attached).
  Gauge* tel_active_ = nullptr;
  ShardedHistogram* tel_lat_read_ = nullptr;
  ShardedHistogram* tel_lat_write_ = nullptr;
  ShardedHistogram* tel_lat_other_ = nullptr;
};

// --- Cross-shard state blocks -----------------------------------------------
// Post() takes std::function (copyable), so per-request move-only state
// lives behind a shared_ptr.

struct ShardedServer::ForwardState {
  OsdCommand cmd;
  uint64_t conn_id = 0;
  uint64_t token = 0;
  size_t home = 0;
  SimTime start_ns = 0;
  OsdOp op = OsdOp::kRead;
};

struct ShardedServer::BarrierState {
  std::vector<OsdCommand> cmds;  ///< one per shard (FORMAT splits capacity)
  std::vector<OsdResponse> parts;
  std::atomic<size_t> remaining{0};
  uint64_t conn_id = 0;
  uint64_t token = 0;
  size_t home = 0;
  SimTime start_ns = 0;
  OsdOp op = OsdOp::kRead;
};

// --- ShardedServer ----------------------------------------------------------

ShardedServer::ShardedServer(std::span<OsdTarget* const> targets,
                             ShardedServerConfig config)
    : config_(std::move(config)), router_(targets.size()) {
  REO_CHECK(!targets.empty());
  config_.connection.idle_timeout_ms = config_.idle_timeout_ms;
  workers_.reserve(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    workers_.push_back(std::make_unique<ShardWorker>(*this, i, *targets[i]));
  }
}

ShardedServer::~ShardedServer() {
  if (listen_fd_ >= 0) close(listen_fd_);
}

SimTime ShardedServer::NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<SimTime>(ts.tv_sec) * kNsPerSec +
         static_cast<SimTime>(ts.tv_nsec);
}

Status ShardedServer::Listen() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status{ErrorCode::kInternal,
                  std::string("socket: ") + std::strerror(errno)};
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status{ErrorCode::kInvalidArgument,
                  "bad bind address " + config_.bind_address};
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status{ErrorCode::kUnavailable,
                  std::string("bind: ") + std::strerror(errno)};
  }
  if (listen(listen_fd_, config_.backlog) != 0) {
    return Status{ErrorCode::kInternal,
                  std::string("listen: ") + std::strerror(errno)};
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Status{ErrorCode::kInternal,
                  std::string("getsockname: ") + std::strerror(errno)};
  }
  port_ = ntohs(addr.sin_port);
  return Status::Ok();
}

void ShardedServer::AttachShardTelemetry(size_t shard,
                                         MetricRegistry& registry) {
  REO_CHECK(shard < workers_.size());
  workers_[shard]->AttachTelemetry(registry);
  if (shard == 0) {
    rejected_.tel = &registry.GetCounter("server.connections.rejected");
  }
}

void ShardedServer::AttachShardTracing(size_t shard, Tracer& tracer) {
  REO_CHECK(shard < workers_.size());
  workers_[shard]->AttachTracing(tracer);
}

void ShardedServer::AttachAdmin(std::vector<MetricRegistry*> registries,
                                TimeSeriesRing* series) {
  registries_ = std::move(registries);
  series_ = series;
}

void ShardedServer::Run() {
  REO_CHECK(listen_fd_ >= 0);  // Listen() first
  started_ns_ = NowNs();
  threads_.reserve(workers_.size());
  for (auto& w : workers_) {
    threads_.emplace_back([worker = w.get()] { worker->loop().Run(); });
  }
  WatchListener();
  accept_loop_.AddTimer(20, [this] { PollDrain(); });
  if (series_ != nullptr) {
    series_->Advance(started_ns_);  // pin the ring's epoch to serving start
    RollSeries();
  }
  accept_loop_.Run();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

void ShardedServer::RollSeries() {
  uint64_t ms = series_->window_ns() / 1'000'000;
  if (ms == 0) ms = 1;
  accept_loop_.AddTimer(ms, [this] {
    series_->Advance(NowNs());
    if (!accept_loop_.stopped()) RollSeries();
  });
}

void ShardedServer::RequestDrain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  accept_loop_.Wake();
}

void ShardedServer::PollDrain() {
  if (drain_requested_.load(std::memory_order_relaxed) && !drain_begun_) {
    BeginDrainOnAcceptor();
    return;
  }
  if (!accept_loop_.stopped()) {
    accept_loop_.AddTimer(20, [this] { PollDrain(); });
  }
}

void ShardedServer::BeginDrainOnAcceptor() {
  drain_begun_ = true;
  draining_.store(true, std::memory_order_relaxed);
  Emit(events_, NowNs(), EventSeverity::kInfo, "server.drain",
       "graceful shutdown requested",
       {{"active", std::to_string(active_conns_.load())},
        {"shards", std::to_string(workers_.size())}});
  if (listen_fd_ >= 0) {
    accept_loop_.Remove(listen_fd_);
    close(listen_fd_);
    listen_fd_ = -1;
  }
  // Phase 1 fan-out. Per-loop FIFO ordering guarantees every adoption
  // this thread posted earlier is processed before its BeginDrain.
  for (auto& w : workers_) {
    ShardWorker* worker = w.get();
    worker->loop().Post([worker] { worker->BeginDrain(); });
  }
  accept_loop_.AddTimer(config_.drain_timeout_ms, [this] {
    if (active_conns_.load(std::memory_order_relaxed) == 0) return;
    Emit(events_, NowNs(), EventSeverity::kWarn, "server.drain_timeout",
         "force-closing connections past the drain deadline",
         {{"remaining", std::to_string(active_conns_.load())}});
    for (auto& w : workers_) {
      ShardWorker* worker = w.get();
      worker->loop().Post([worker] { worker->ForceCloseAll(); });
    }
  });
}

void ShardedServer::OnWorkerEmpty() {
  // Called from worker loop threads; the LAST shard to empty releases
  // phase 2. No shard's map can refill: accepting stopped before the
  // phase-1 fan-out, and a connection only closes after its in-flight
  // (including forwarded) work completed — so once every map is empty,
  // no cross-shard task anywhere still needs a running peer loop.
  if (empty_workers_.fetch_add(1, std::memory_order_acq_rel) + 1 !=
      workers_.size()) {
    return;
  }
  Emit(events_, NowNs(), EventSeverity::kInfo, "server.drained",
       "all shards drained; checkpointing and stopping");
  for (auto& w : workers_) {
    ShardWorker* worker = w.get();
    worker->loop().Post([worker] { worker->FinishDrain(); });
    worker->loop().Wake();
  }
  accept_loop_.Stop();
}

void ShardedServer::OnAcceptReady() {
  for (;;) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    int fd = accept4(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EMFILE || errno == ENFILE) PauseAccepting(errno);
      return;  // EAGAIN / transient: try next wake
    }
    accept_starved_ = false;
    if (active_conns_.load(std::memory_order_relaxed) >=
        config_.max_connections) {
      rejected_.Add();
      Emit(events_, NowNs(), EventSeverity::kWarn, "server.reject",
           "connection refused at max_connections",
           {{"peer", PeerName(addr)},
            {"max", std::to_string(config_.max_connections)}});
      close(fd);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    uint64_t id = next_conn_id_++;
    active_conns_.fetch_add(1, std::memory_order_relaxed);
    size_t shard = next_shard_rr_++ % workers_.size();
    ShardWorker* worker = workers_[shard].get();
    worker->loop().Post(
        [worker, fd, id, peer = PeerName(addr), cfg = config_.connection] {
          worker->Adopt(fd, id, peer, cfg);
        });
  }
}

void ShardedServer::PauseAccepting(int err) {
  accept_loop_.Remove(listen_fd_);
  if (!accept_starved_) {
    accept_starved_ = true;
    Emit(events_, NowNs(), EventSeverity::kWarn, "server.accept_error",
         "out of file descriptors; pausing accepts",
         {{"error", std::strerror(err)},
          {"retry_ms", std::to_string(kAcceptRetryMs)},
          {"active", std::to_string(active_conns_.load())}});
  }
  accept_loop_.AddTimer(kAcceptRetryMs, [this] { WatchListener(); });
}

void ShardedServer::WatchListener() {
  if (listen_fd_ < 0) return;  // drain closed the listener meanwhile
  Status st = accept_loop_.Add(listen_fd_, EPOLLIN, [this](uint32_t) {
    OnAcceptReady();
  });
  REO_CHECK(st.ok());
}

void ShardedServer::Forward(ShardWorker& home, Connection& conn,
                            OsdCommand&& cmd, size_t dest, SimTime start_ns) {
  home.stats().forwarded.Add();
  auto st = std::make_shared<ForwardState>();
  st->op = cmd.op;
  st->cmd = std::move(cmd);
  st->conn_id = conn.id();
  st->token = conn.last_dispatch_token();
  st->home = home.index();
  st->start_ns = start_ns;
  ShardWorker* dw = workers_[dest].get();
  dw->loop().Post([this, st, dw] {
    dw->stats().forward_executed.Add();
    OsdResponse resp = dw->target().Execute(st->cmd);
    auto payload = std::make_shared<FramePayload>(
        EncodeResponsePayload(std::move(resp)));
    ShardWorker* hw = workers_[st->home].get();
    hw->loop().Post([hw, st, payload] {
      hw->DeliverCompletion(st->conn_id, st->token, std::move(*payload),
                            st->start_ns, st->op);
    });
  });
}

void ShardedServer::FanOut(ShardWorker& home, Connection& conn,
                           OsdCommand&& cmd, SimTime start_ns) {
  size_t n = workers_.size();
  home.stats().forwarded.Add(n);
  auto st = std::make_shared<BarrierState>();
  st->op = cmd.op;
  st->conn_id = conn.id();
  st->token = conn.last_dispatch_token();
  st->home = home.index();
  st->start_ns = start_ns;
  st->parts.resize(n);
  st->remaining.store(n, std::memory_order_relaxed);
  st->cmds.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    OsdCommand part = cmd;  // fan-out commands carry no bulk payload
    if (part.op == OsdOp::kFormat) {
      // FORMAT capacity is the whole logical unit; each shard owns an
      // even slice, mirroring the boot-time capacity partitioning.
      part.capacity_bytes = cmd.capacity_bytes / n;
    }
    st->cmds.push_back(std::move(part));
  }
  for (size_t k = 0; k < n; ++k) {
    ShardWorker* w = workers_[k].get();
    w->loop().Post([this, st, w, k] {
      w->stats().forward_executed.Add();
      st->parts[k] = w->target().Execute(st->cmds[k]);
      // acq_rel: the last decrementer observes every shard's part.
      if (st->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
      OsdResponse merged = MergeFanOutResponses(st->parts);
      auto payload = std::make_shared<FramePayload>(
          EncodeResponsePayload(std::move(merged)));
      ShardWorker* hw = workers_[st->home].get();
      hw->loop().Post([hw, st, payload] {
        hw->DeliverCompletion(st->conn_id, st->token, std::move(*payload),
                              st->start_ns, st->op);
      });
    });
  }
}

ShardedServerStats ShardedServer::stats() const {
  ShardedServerStats out;
  out.rejected = rejected_.load();
  for (const auto& w : workers_) {
    const ShardWorkerStats& s = w->stats();
    out.accepted += s.accepted.load();
    out.closed += s.closed.load();
    out.requests += s.requests.load();
    out.responses += s.responses.load();
    out.bytes_in += s.bytes_in.load();
    out.bytes_out += s.bytes_out.load();
    out.frame_errors += s.frame_errors.load();
    out.crc_errors += s.crc_errors.load();
    out.decode_errors += s.decode_errors.load();
    out.admin_requests += s.admin_requests.load();
    out.admin_errors += s.admin_errors.load();
    out.forwarded += s.forwarded.load();
    out.forward_executed += s.forward_executed.load();
  }
  return out;
}

std::string ShardedServer::HealthJson(const ShardWorker& home) const {
  ShardedServerStats sum = stats();
  const char* status =
      draining_.load(std::memory_order_relaxed) ? "draining"
      : (sum.crc_errors + sum.frame_errors + sum.decode_errors > 0)
          ? "degraded"
          : "ok";
  std::string out = "{\"schema\":\"reo.health.v1\",\"status\":\"";
  out += status;
  out += "\",\"uptime_ms\":";
  out += JsonNum(started_ns_ ? static_cast<double>(NowNs() - started_ns_) / 1e6
                             : 0.0);
  out += ",\"port\":" + std::to_string(port_);
  if (!cluster_dirs_.empty() && cluster_dirs_[0] != nullptr) {
    out += ",\"node_id\":" + std::to_string(cluster_dirs_[0]->local_node());
  }
  out += ",\"shard\":" + std::to_string(home.index());
  out += ",\"shards\":" + std::to_string(workers_.size());
  out += ",\"connections\":" +
         std::to_string(active_conns_.load(std::memory_order_relaxed));
  out += ",\"accepted\":" + std::to_string(sum.accepted);
  out += ",\"requests\":" + std::to_string(sum.requests);
  out += ",\"responses\":" + std::to_string(sum.responses);
  out += ",\"forwarded\":" + std::to_string(sum.forwarded);
  out += ",\"forward_executed\":" + std::to_string(sum.forward_executed);
  out += ",\"crc_errors\":" + std::to_string(sum.crc_errors);
  out += ",\"frame_errors\":" + std::to_string(sum.frame_errors);
  out += ",\"decode_errors\":" + std::to_string(sum.decode_errors);
  out += ",\"admin_requests\":" + std::to_string(sum.admin_requests);
  out += ",\"admin_errors\":" + std::to_string(sum.admin_errors);
  out += "}";
  return out;
}

FramePayload ShardedServer::HandleAdminFrame(
    ShardWorker& home, Connection& conn, std::span<const uint8_t> payload) {
  home.stats().admin_requests.Add();
  AdminResponse out;
  auto cmd = DecodeAdminCommand(payload);
  if (!cmd.ok()) {
    out.status = 1;
    out.json = "{\"error\":" +
               JsonString(std::string(cmd.status().message())) + "}";
    Emit(events_, NowNs(), EventSeverity::kWarn, "server.admin_error",
         "malformed admin request",
         {{"peer", conn.peer()},
          {"error", std::string(cmd.status().message())}});
  } else {
    switch (cmd->op) {
      case AdminOp::kStats:
        if (registries_.empty()) {
          out.status = 1;
          out.json = "{\"error\":\"no metric registry attached\"}";
        } else if (cmd->arg == 0) {
          // Whole-process view: bucket-level merge across every shard.
          std::vector<const MetricRegistry*> regs(registries_.begin(),
                                                  registries_.end());
          out.json = MetricRegistry::Merged(regs).ToJson();
        } else if (cmd->arg <= registries_.size()) {
          out.json = registries_[cmd->arg - 1]->Snapshot().ToJson();
        } else {
          out.status = 1;
          out.json = "{\"error\":\"shard " + std::to_string(cmd->arg - 1) +
                     " out of range (shards=" +
                     std::to_string(registries_.size()) + ")\"}";
        }
        break;
      case AdminOp::kSeries:
        if (series_ != nullptr) {
          series_->Advance(NowNs());  // thread-safe: internal mutex
          out.json = series_->ToJson(cmd->arg);
        } else {
          out.status = 1;
          out.json = "{\"error\":\"no time-series ring attached\"}";
        }
        break;
      case AdminOp::kEvents:
        out.json = events_ != nullptr
                       ? events_->ToJson(cmd->arg)
                       : "{\"schema\":\"reo.events.v1\",\"dropped\":0,"
                         "\"events\":[]}";
        break;
      case AdminOp::kHealth:
        out.json = HealthJson(home);
        break;
      case AdminOp::kOwners:
        if (!cluster_dirs_.empty()) {
          out.json = ClusterDirectory::MergedJson(cluster_dirs_);
        } else {
          out.status = 1;
          out.json = "{\"error\":\"no cluster directory attached\"}";
        }
        break;
    }
  }
  if (out.status != 0) {
    home.stats().admin_errors.Add();
  }
  return FramePayload{EncodeAdminResponse(out), {}, {}};
}

}  // namespace reo

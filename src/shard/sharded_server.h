// ShardedServer: the network target — N-shard serving over one TCP port.
//
// Exports the OSD wire protocol (osd/transport.h encodings) over TCP.
// The object space is hash-partitioned across N shards (ShardRouter);
// each shard owns a full serving stack — its own epoll EventLoop thread,
// its own OsdTarget (and everything behind it: data plane, flash array,
// persistence journal), and its own connections. Within a shard socket
// IO and command execution stay single-threaded and lock-free on the
// shard's loop. N = 1 is one worker: the router always picks shard 0, so
// nothing is ever forwarded and every frame executes inline.
//
// Cross-shard work moves BETWEEN loops, never shares state:
//   * An acceptor thread owns the listening socket and hands each new
//     connection to a shard round-robin (connections are not pinned to
//     the shard of any object — any connection may address any object).
//   * A frame whose command routes to another shard is FORWARDED: the
//     home loop packages the decoded command, Post()s it to the owning
//     loop, which executes and Post()s the encoded response back; the
//     connection holds the frame's response slot open so replies always
//     flush in request order (see Connection::Complete). We chose
//     forwarding over connection affinity because clients multiplex
//     objects of every shard on one pipelined connection; DESIGN.md
//     "Sharded serving" records the tradeoff.
//   * Fan-out commands (FORMAT, LIST, partition/collection ops) run
//     through a control barrier: the home shard broadcasts the command
//     to every loop, a shared atomic counts completions, the last shard
//     merges the per-shard responses (MergeFanOutResponses) and posts
//     the reply home. A fan-out frame is a pipeline BARRIER on its
//     connection: later frames do not dispatch until it completes, so a
//     FORMAT-then-WRITE pipeline can never reorder.
//
// The admin plane aggregates: STATS arg 0 answers the bucket-level merge
// of every shard's registry (MetricRegistry::Merged), arg k >= 1 answers
// shard k-1 alone; SERIES reads the single whole-process ring (columns
// sum per-shard metrics by construction — time_series.h); HEALTH sums
// every shard's counters and names the answering connection's home
// shard. Existing admin clients (reo_top, admin_probe) work unchanged.
//
// Graceful drain is two-phase so forwarded work is never orphaned:
// phase 1 stops accepting and drains every connection on every shard
// (in-flight and already-buffered requests complete, including their
// cross-shard hops); only when EVERY shard's connection map is empty —
// no forwarded request can be outstanding anywhere — does phase 2 run
// each shard's on_shard_drained checkpoint hook on its own loop thread
// and stop the loops.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "osd/osd_target.h"
#include "server/connection.h"
#include "server/event_loop.h"
#include "shard/shard_router.h"
#include "telemetry/metric_registry.h"
#include "telemetry/time_series.h"
#include "trace/event_log.h"
#include "trace/tracer.h"

namespace reo {

class ShardWorker;

/// One serving counter: a relaxed atomic, so HEALTH aggregation (which
/// runs on whichever shard answers the probe) reads it without locks or
/// races, mirrored into a shard's registry when telemetry is attached.
struct ServingCounter {
  std::atomic<uint64_t> value{0};
  Counter* tel = nullptr;

  void Add(uint64_t n = 1) {
    value.fetch_add(n, std::memory_order_relaxed);
    Inc(tel, n);
  }
  uint64_t load() const { return value.load(std::memory_order_relaxed); }
};

struct ShardedServerConfig {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral; read the bound port via port()
  int backlog = 128;
  size_t max_connections = 1024;  ///< across all shards
  uint64_t idle_timeout_ms = 60'000;
  /// After RequestDrain(), connections that have not finished within this
  /// budget are force-closed so shutdown always completes.
  uint64_t drain_timeout_ms = 5'000;
  ConnectionConfig connection;
  /// Phase-2 drain hook, run on shard `shard`'s loop thread after every
  /// connection everywhere has drained and before that loop stops — the
  /// per-shard clean-shutdown checkpoint (each shard checkpoints its own
  /// journal; nothing can dirty any shard's state afterwards).
  std::function<void(size_t shard)> on_shard_drained;
};

/// Whole-process serving counters summed across shards (stats()).
struct ShardedServerStats {
  uint64_t accepted = 0;
  uint64_t closed = 0;
  uint64_t rejected = 0;
  uint64_t requests = 0;
  uint64_t responses = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t frame_errors = 0;
  uint64_t crc_errors = 0;
  uint64_t decode_errors = 0;
  uint64_t admin_requests = 0;
  uint64_t admin_errors = 0;
  /// Frames whose command was handed to another loop (each fan-out part
  /// counts once). Invariant: forwarded == forward_executed once idle.
  uint64_t forwarded = 0;
  uint64_t forward_executed = 0;
};

class ShardedServer {
 public:
  /// @param targets one executor per shard (targets.size() = shard
  /// count); each must be confined to its shard's loop thread and must
  /// outlive the server.
  ShardedServer(std::span<OsdTarget* const> targets,
                ShardedServerConfig config = {});
  ~ShardedServer();

  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  /// Binds and listens; after success port() returns the bound port.
  Status Listen();
  uint16_t port() const { return port_; }

  /// Spawns one serving thread per shard, runs the acceptor on the
  /// calling thread, and returns once drain completes everywhere.
  void Run();

  /// Initiates graceful shutdown. Thread- and async-signal-safe.
  void RequestDrain();

  const ShardRouter& router() const { return router_; }

  /// Wires shard `shard`'s serving counters ("server.*", plus the
  /// cross-shard "server.forwarded" / "server.forward_executed") into
  /// its per-shard registry. Call before Run(), once per shard.
  void AttachShardTelemetry(size_t shard, MetricRegistry& registry);

  /// Opens a sampled root span (the transport track) around every data
  /// command shard `shard` executes at home, with the same two clock
  /// stamps its server.latency.* histograms observe — so with
  /// sample_every == 1 the stage.transport totals match server.latency.*
  /// exactly. Tracer holds one active context, so attach it to one shard
  /// only, and only when no other thread traces through it.
  void AttachShardTracing(size_t shard, Tracer& tracer);

  /// Shared structured event sink (EventLog is thread-safe; events from
  /// every shard interleave in global ticket order).
  void AttachEvents(EventLog& events) { events_ = &events; }

  /// Enables in-band ADMIN on every connection. `registries[k]` is
  /// shard k's registry: STATS arg 0 answers their bucket-level merge,
  /// arg k >= 1 answers shard k-1, anything larger is an error.
  /// `series` is the single whole-process ring (may be null).
  void AttachAdmin(std::vector<MetricRegistry*> registries,
                   TimeSeriesRing* series);

  /// Cluster mode: `directories[k]` is shard k's slice of this node's
  /// hint space; ADMIN OWNERS answers their merge (directories are
  /// thread-safe, so any shard's loop can snapshot all of them) and
  /// HealthJson reports the node id. Each must outlive the server.
  void AttachCluster(std::vector<const ClusterDirectory*> directories) {
    cluster_dirs_ = std::move(directories);
  }

  /// Counters summed across every shard (safe to call after Run()
  /// returns, or concurrently — per-shard counters are relaxed atomics).
  ShardedServerStats stats() const;

 private:
  friend class ShardWorker;

  struct ForwardState;
  struct BarrierState;

  void OnAcceptReady();
  /// Registers the listening socket with the acceptor loop.
  void WatchListener();
  /// accept4 ran out of file descriptors (`err` is EMFILE or ENFILE):
  /// stop watching the listener — it is level-triggered, so a pending
  /// connection would spin the acceptor — and re-watch it on a timer.
  void PauseAccepting(int err);
  void PollDrain();
  void BeginDrainOnAcceptor();
  /// Worker -> coordinator: this shard's connection map went (and every
  /// subsequent map stays) empty. The last reporter triggers phase 2.
  void OnWorkerEmpty();
  std::string HealthJson(const ShardWorker& home) const;
  FramePayload HandleAdminFrame(ShardWorker& home, Connection& conn,
                                std::span<const uint8_t> payload);
  /// Hands one decoded command to shard `dest`'s loop; the response
  /// posts back to `home` and completes the connection's slot.
  void Forward(ShardWorker& home, Connection& conn, OsdCommand&& cmd,
               size_t dest, SimTime start_ns);
  /// Broadcasts one command to every shard through the control barrier.
  void FanOut(ShardWorker& home, Connection& conn, OsdCommand&& cmd,
              SimTime start_ns);
  void RollSeries();
  static SimTime NowNs();

  ShardedServerConfig config_;
  ShardRouter router_;
  std::vector<std::unique_ptr<ShardWorker>> workers_;
  std::vector<std::thread> threads_;
  EventLoop accept_loop_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  uint64_t next_conn_id_ = 1;  ///< acceptor thread only
  size_t next_shard_rr_ = 0;   ///< acceptor thread only
  std::atomic<size_t> active_conns_{0};
  ServingCounter rejected_;  ///< mirrored into shard 0's registry
  std::atomic<bool> drain_requested_{false};
  bool drain_begun_ = false;  ///< acceptor thread only
  /// Set on EMFILE/ENFILE, cleared by the next successful accept: one
  /// server.accept_error event per episode, not per retry.
  bool accept_starved_ = false;  ///< acceptor thread only
  std::atomic<size_t> empty_workers_{0};
  std::atomic<bool> draining_{false};  ///< for HEALTH status
  SimTime started_ns_ = 0;

  EventLog* events_ = nullptr;
  std::vector<MetricRegistry*> registries_;
  TimeSeriesRing* series_ = nullptr;
  std::vector<const ClusterDirectory*> cluster_dirs_;
};

}  // namespace reo

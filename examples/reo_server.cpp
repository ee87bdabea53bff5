// reo_server: the Reo cache target as a real network service.
//
// Stands up the production stack — flash array, stripe manager,
// differentiated-redundancy data plane, OSD target — behind the epoll
// ShardedServer, and serves the OSD wire protocol over TCP until SIGTERM /
// SIGINT, which triggers a graceful drain (stop accepting, finish
// in-flight requests, flush, exit). Examples:
//
//   reo_server --port 9555
//   reo_server --port 0 --port-file port.txt --stats-out stats.json
//   reo_server --policy 2-parity --devices 8 --capacity-mb 512
//   reo_server --port 9555 --data-dir /var/lib/reo     # durable, restartable
//   reo_server --port 9555 --shards 4                  # multi-threaded
//
// The object space is hash-partitioned across --shards N independent
// serving stacks, each on its own event-loop thread with its own flash
// array and cache state. One acceptor thread owns the listening port;
// commands landing on the "wrong" shard's connection are forwarded
// between loops (see src/shard/sharded_server.h). With --shards 1 (the
// default) there is one stack and nothing is forwarded. Under --data-dir
// a single shard journals in the directory itself, and shard K of N > 1
// in data-dir/shardK.
#include <signal.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/units.h"
#include "fault/fault_spec.h"
#include "node/node_stack.h"
#include "shard/sharded_server.h"
#include "telemetry/metric_registry.h"
#include "telemetry/time_series.h"
#include "trace/event_log.h"
#include "trace/tracer.h"

using namespace reo;

namespace {

ShardedServer* g_server = nullptr;

void HandleShutdownSignal(int) {
  // RequestDrain is async-signal-safe: a flag store plus an eventfd write.
  if (g_server != nullptr) g_server->RequestDrain();
}

void Usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --bind ADDR          listen address (default 127.0.0.1)\n"
      "  --port N             listen port; 0 picks an ephemeral one (default 0)\n"
      "  --port-file PATH     write the bound port to PATH (for scripts/CI)\n"
      "  --node-id N          cluster node identity: attaches the cluster\n"
      "                       directory (owner hints, ADMIN OWNERS, node_id\n"
      "                       in HEALTH) for multi-node deployments\n"
      "                       (default: single-node, no directory)\n"
      "  --shards N           serving shards, one event-loop thread each, behind\n"
      "                       one acceptor thread; the object space is\n"
      "                       hash-partitioned across N independent stacks\n"
      "                       (default 1: one stack, nothing forwarded).\n"
      "                       Capacity and DRAM budgets are split evenly;\n"
      "                       --devices is per shard; per-stage tracing is\n"
      "                       only available with 1 shard\n"
      "  --policy reo|0-parity|1-parity|2-parity|full-repl   (default reo)\n"
      "  --reserve F          Reo redundancy reserve fraction (default 0.2)\n"
      "  --devices N          flash devices per shard, >= 1 (default 5)\n"
      "  --capacity-mb N      cache capacity budget in MiB (default 256)\n"
      "  --chunk-kb N         chunk size in KiB, >= 1 (default 64)\n"
      "  --scale-shift N      physical payload scale (default 0: full bytes)\n"
      "  --max-connections N  concurrent connection cap (default 1024)\n"
      "  --idle-timeout-ms N  close idle connections (default 60000)\n"
      "  --stats-out PATH     write the telemetry snapshot JSON on exit\n"
      "                       (multi-shard: the merged cross-shard snapshot)\n"
      "  --events-out PATH    write the event log text on exit\n"
      "  --trace-sample N     trace 1 in N requests into the per-stage\n"
      "                       latency histograms; 0 disables (default 64).\n"
      "                       Ignored with --shards N > 1\n"
      "  --series-window-ms N time-series window width (default 1000)\n"
      "  --series-windows N   closed windows retained (default 300)\n"
      "  --data-dir PATH      durable cache state: data log + journal +\n"
      "                       checkpoints under PATH; restart recovers in\n"
      "                       class order 0->1->2->3 (default: in-memory).\n"
      "                       With --shards N > 1, shard K journals under\n"
      "                       PATH/shardK\n"
      "  --fsync-batch N      group-commit fsync batch, records (default 32)\n"
      "  --checkpoint-interval N  journal records between automatic\n"
      "                       checkpoints (default 4096)\n"
      "  --fault-spec PATH    JSON fault-injection spec (chaos testing; see\n"
      "                       src/fault/fault_spec.h for the format)\n"
      "  --dram-mb N          DRAM admission tier budget in MiB; clean\n"
      "                       writes stage in DRAM and only graduate to\n"
      "                       flash per the admission policy (default 0:\n"
      "                       tier off, every write goes straight to flash)\n"
      "  --admission P        all|flashiness|credit - policy deciding which\n"
      "                       DRAM evictions earn a flash write (default all)\n"
      "  --flash-write-budget N   write-credit budget for --admission\n"
      "                       credit, MiB of flash writes per second\n"
      "                       (default 64)\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  ShardedServerConfig server_cfg;
  // The node-wide stack config; ShardConfig derives each shard's.
  NodeStackConfig node{
      .stripes = {.chunk_logical_bytes = 64 * 1024,
                  .capacity_limit_bytes = 256ull << 20},
      .policy = {.mode = ProtectionMode::kReo, .reo_reserve_fraction = 0.2},
  };
  size_t num_shards = 1;
  std::string port_file, stats_out, events_out;
  uint64_t trace_sample = 64;
  uint64_t series_window_ms = 1000;
  size_t series_windows = 300;

  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    // The next value as a decimal integer in [min, max]; anything else
    // is a usage error (exit 2), never a failed check deeper in.
    auto number = [&](uint64_t min = 0,
                      uint64_t max = UINT64_MAX) -> uint64_t {
      const char* flag = argv[i];
      const char* text = next();
      char* end = nullptr;
      errno = 0;
      unsigned long long v = std::strtoull(text, &end, 10);
      if (errno != 0 || end == text || *end != '\0' || text[0] == '-' ||
          v < min || v > max) {
        std::fprintf(stderr, "%s wants an integer in [%llu, %llu], got '%s'\n",
                     flag, static_cast<unsigned long long>(min),
                     static_cast<unsigned long long>(max), text);
        Usage(argv[0]);
        std::exit(2);
      }
      return v;
    };
    if (!std::strcmp(argv[i], "--bind")) {
      server_cfg.bind_address = next();
    } else if (!std::strcmp(argv[i], "--port")) {
      server_cfg.port = static_cast<uint16_t>(number(0, UINT16_MAX));
    } else if (!std::strcmp(argv[i], "--port-file")) {
      port_file = next();
    } else if (!std::strcmp(argv[i], "--node-id")) {
      node.node_id = static_cast<uint32_t>(number(0, UINT32_MAX));
    } else if (!std::strcmp(argv[i], "--shards")) {
      num_shards = std::max<uint64_t>(number(), 1);
    } else if (!std::strcmp(argv[i], "--policy")) {
      std::string p = next();
      if (p == "reo") node.policy.mode = ProtectionMode::kReo;
      else if (p == "0-parity") node.policy.mode = ProtectionMode::kUniform0;
      else if (p == "1-parity") node.policy.mode = ProtectionMode::kUniform1;
      else if (p == "2-parity") node.policy.mode = ProtectionMode::kUniform2;
      else if (p == "full-repl")
        node.policy.mode = ProtectionMode::kFullReplication;
      else {
        std::fprintf(stderr, "unknown policy %s\n", p.c_str());
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--reserve")) {
      node.policy.reo_reserve_fraction = std::atof(next());
    } else if (!std::strcmp(argv[i], "--devices")) {
      node.devices = number(1);
    } else if (!std::strcmp(argv[i], "--capacity-mb")) {
      node.stripes.capacity_limit_bytes = number(0, UINT64_MAX >> 20) << 20;
    } else if (!std::strcmp(argv[i], "--chunk-kb")) {
      node.stripes.chunk_logical_bytes = number(1, UINT64_MAX / 1024) * 1024;
    } else if (!std::strcmp(argv[i], "--scale-shift")) {
      node.stripes.scale_shift = static_cast<uint32_t>(number(0, 63));
    } else if (!std::strcmp(argv[i], "--max-connections")) {
      server_cfg.max_connections = number();
    } else if (!std::strcmp(argv[i], "--idle-timeout-ms")) {
      server_cfg.idle_timeout_ms = number();
    } else if (!std::strcmp(argv[i], "--stats-out")) {
      stats_out = next();
    } else if (!std::strcmp(argv[i], "--events-out")) {
      events_out = next();
    } else if (!std::strcmp(argv[i], "--trace-sample")) {
      trace_sample = number();
    } else if (!std::strcmp(argv[i], "--series-window-ms")) {
      series_window_ms = std::max<uint64_t>(number(), 1);
    } else if (!std::strcmp(argv[i], "--series-windows")) {
      series_windows = std::max<uint64_t>(number(), 1);
    } else if (!std::strcmp(argv[i], "--data-dir")) {
      node.persistence.data_dir = next();
    } else if (!std::strcmp(argv[i], "--fsync-batch")) {
      node.persistence.fsync_batch_records = number();
    } else if (!std::strcmp(argv[i], "--checkpoint-interval")) {
      node.persistence.checkpoint_interval_records = number();
    } else if (!std::strcmp(argv[i], "--dram-mb")) {
      node.admission.dram_bytes = number(0, UINT64_MAX / kMiB) * kMiB;
    } else if (!std::strcmp(argv[i], "--admission")) {
      const char* p = next();
      if (!ParseAdmissionPolicy(p, &node.admission.policy)) {
        std::fprintf(stderr, "unknown admission policy %s\n", p);
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--flash-write-budget")) {
      node.admission.flash_write_budget_bps =
          number(0, UINT64_MAX / kMiB) * kMiB;
    } else if (!std::strcmp(argv[i], "--fault-spec")) {
      auto spec = LoadFaultSpecFile(next());
      if (!spec.ok()) {
        std::fprintf(stderr, "bad fault spec: %s\n",
                     spec.status().to_string().c_str());
        return 2;
      }
      node.faults = std::move(*spec);
    } else if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      Usage(argv[0]);
      return 2;
    }
  }

  // Tracer holds a single active context, so per-stage tracing runs only
  // at 1 shard, where one worker thread executes every command. With
  // shards it would need one tracer per shard and a per-shard span merge.
  bool tracing_on = trace_sample > 0 && num_shards == 1;

  EventLog events;  // shared: thread-safe, global ticket order across shards
  TimeSeriesRing series(TimeSeriesConfig{
      .window_ns = series_window_ms * 1'000'000, .capacity = series_windows});
  Tracer tracer(TracerConfig{.sample_every = trace_sample});

  // One NodeStack per shard, each an independent stack over its hash
  // slice of the object space. Durable state opens (running crash
  // recovery) and replays its objects back through the stack in class
  // order, shard by shard.
  std::vector<std::unique_ptr<NodeStack>> nodes;
  std::vector<OsdTarget*> targets;
  std::vector<MetricRegistry*> registries;
  std::vector<const ClusterDirectory*> dirs;
  for (size_t k = 0; k < num_shards; ++k) {
    auto opened = NodeStack::Open(ShardConfig(node, k, num_shards));
    if (!opened.ok()) {
      if (opened.status().code() == ErrorCode::kCorrupted) {
        // Fail-stop on corrupt durable state: refuse to serve from a
        // state image we cannot trust, and name the offending file so
        // the operator can remove or restore it. Distinct exit code
        // for CI.
        std::fprintf(stderr, "reo_server: corrupt durable state: %s\n",
                     opened.status().to_string().c_str());
        return 3;
      }
      std::fprintf(stderr, "persistence open failed: %s\n",
                   opened.status().to_string().c_str());
      return 1;
    }
    NodeStack& n = *nodes.emplace_back(std::move(*opened));
    n.AttachEvents(events);
    // Per-stage latency attribution: sampled request traces feed
    // stage.<component>.span_us histograms. --trace-sample 0 turns it off.
    if (tracing_on) {
      tracer.AttachStageMetrics(n.registry());
      n.AttachTracing(tracer);
    }
    auto restored = n.Restore();
    if (!restored.ok()) {
      std::fprintf(stderr, "startup checkpoint failed: %s\n",
                   restored.status().to_string().c_str());
      return 1;
    }
    if (const std::optional<RestoreReport>& rr = *restored) {
      std::printf(
          "shard %zu: restored %llu objects (class0=%llu class1=%llu"
          " class2=%llu class3=%llu, dirty_lost=%llu, verify_failures=%llu)"
          " in %llu us\n",
          k, static_cast<unsigned long long>(rr->total_restored()),
          static_cast<unsigned long long>(rr->restored_per_class[0]),
          static_cast<unsigned long long>(rr->restored_per_class[1]),
          static_cast<unsigned long long>(rr->restored_per_class[2]),
          static_cast<unsigned long long>(rr->restored_per_class[3]),
          static_cast<unsigned long long>(rr->dirty_lost),
          static_cast<unsigned long long>(rr->payload_verify_failures),
          static_cast<unsigned long long>(rr->duration_us));
    }
    targets.push_back(&n.target());
    registries.push_back(&n.registry());
    if (n.cluster() != nullptr) dirs.push_back(n.cluster());
  }

  // Phase-2 drain: every shard checkpoints its own journal on its own
  // loop thread once all in-flight work everywhere completed, so restart
  // replays a checkpoint instead of a long journal.
  if (node.persistence.enabled()) {
    server_cfg.on_shard_drained = [&nodes, &events](size_t k) {
      Status st = nodes[k]->persistence()->Checkpoint(0);
      if (!st.ok()) {
        Emit(&events, 0, EventSeverity::kError, "persist.checkpoint",
             "shutdown checkpoint failed",
             {{"error", st.to_string()}, {"shard", std::to_string(k)}});
      }
    };
  }
  ShardedServer server(targets, server_cfg);
  server.AttachEvents(events);
  // Live observability: per-window time series over the serving metrics,
  // plus the in-band STATS/SERIES admin plane.
  for (size_t k = 0; k < num_shards; ++k) {
    server.AttachShardTelemetry(k, *registries[k]);
  }
  // One whole-process ring: every column sums the same-named metric
  // across shard registries, so reo_top's ratios stay correct.
  TrackServingDefaults(registries, series, node.devices);
  server.AttachAdmin(registries, &series);
  if (tracing_on) server.AttachShardTracing(0, tracer);
  if (!dirs.empty()) server.AttachCluster(std::move(dirs));
  Status st = server.Listen();
  if (!st.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", st.to_string().c_str());
    return 1;
  }
  // Handlers go in before the port file appears: a script that signals
  // as soon as it reads the port must get the graceful drain.
  struct sigaction sa{};
  sa.sa_handler = HandleShutdownSignal;
  g_server = &server;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);
  if (!port_file.empty()) {
    Status wf =
        WriteFileAtomic(port_file, std::to_string(server.port()) + "\n");
    if (!wf.ok()) {
      g_server = nullptr;
      std::fprintf(stderr, "port file: %s\n", wf.to_string().c_str());
      return 1;
    }
  }
  std::printf("reo_server listening on %s:%u (%zu shard%s, policy %s,"
              " %zu devices/shard, %llu MiB budget)\n",
              server_cfg.bind_address.c_str(), server.port(), num_shards,
              num_shards == 1 ? "" : "s",
              std::string(to_string(node.policy.mode)).c_str(), node.devices,
              static_cast<unsigned long long>(
                  node.stripes.capacity_limit_bytes >> 20));
  if (nodes[0]->admission_tier() != nullptr) {
    std::printf("dram admission tier: %llu MiB, policy %s\n",
                static_cast<unsigned long long>(node.admission.dram_bytes >>
                                                20),
                std::string(to_string(node.admission.policy)).c_str());
  }
  std::fflush(stdout);

  server.Run();
  g_server = nullptr;

  ShardedServerStats totals = server.stats();
  std::printf("drained: %llu connections served, %llu requests,"
              " %llu bytes in / %llu out\n",
              static_cast<unsigned long long>(totals.accepted),
              static_cast<unsigned long long>(totals.requests),
              static_cast<unsigned long long>(totals.bytes_in),
              static_cast<unsigned long long>(totals.bytes_out));
  std::printf("wire errors: %llu frame, %llu crc, %llu decode;"
              " cross-shard: %llu forwarded, %llu executed\n",
              static_cast<unsigned long long>(totals.frame_errors),
              static_cast<unsigned long long>(totals.crc_errors),
              static_cast<unsigned long long>(totals.decode_errors),
              static_cast<unsigned long long>(totals.forwarded),
              static_cast<unsigned long long>(totals.forward_executed));

  if (!stats_out.empty()) {
    std::vector<const MetricRegistry*> regs(registries.begin(),
                                            registries.end());
    Status wf = WriteFileAtomic(stats_out, MetricRegistry::Merged(regs).ToJson());
    if (!wf.ok()) {
      std::fprintf(stderr, "stats write failed: %s\n", wf.to_string().c_str());
      return 1;
    }
    std::printf("telemetry snapshot -> %s\n", stats_out.c_str());
  }
  if (!events_out.empty()) {
    Status wf = WriteFileAtomic(events_out, events.ToText());
    if (!wf.ok()) {
      std::fprintf(stderr, "events write failed: %s\n", wf.to_string().c_str());
      return 1;
    }
    std::printf("event log -> %s\n", events_out.c_str());
  }
  return 0;
}

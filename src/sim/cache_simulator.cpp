#include "sim/cache_simulator.h"

#include <algorithm>
#include <cstdio>

#include "flash/flash_array.h"
#include "osd/osd_target.h"

namespace reo {

CacheSimulator::CacheSimulator(const Trace& trace, SimulationConfig config)
    : trace_(trace),
      config_(std::move(config)),
      tracer_(config_.tracer),
      router_(config_.shards == 0 ? 1 : config_.shards) {
  // Capacity splits evenly: each shard serves ~1/N of the dataset (hash
  // partition), so its slice keeps the configured cache fraction.
  uint64_t dataset = trace_.catalog.TotalBytes();
  NodeStackConfig node_cfg{
      .devices = config_.num_devices,
      .device = config_.device,
      .stripes = {.chunk_logical_bytes = config_.chunk_logical_bytes,
                  .scale_shift = config_.scale_shift,
                  .capacity_limit_bytes = static_cast<uint64_t>(
                      config_.cache_fraction * static_cast<double>(dataset))},
      .policy = config_.policy,
      .admission = config_.admission,
      .persistence = config_.persistence,
      .faults = config_.faults,
      .failslow = config_.failslow,
  };
  CacheManagerConfig cmc = config_.cache;
  cmc.verify_hits = config_.verify_hits;
  cmc.failslow_demote = config_.failslow_demote;

  const size_t shards = router_.num_shards();
  for (size_t k = 0; k < shards; ++k) {
    auto opened = NodeStack::Open(ShardConfig(node_cfg, k, shards));
    // Simulator runs treat an unopenable data dir as a configuration
    // error; the REO_CHECK keeps misconfigured benches from silently
    // running without the durability they asked for.
    REO_CHECK(opened.ok());
    NodeStack& node = *nodes_.emplace_back(std::move(*opened));

    // The initiator side: backend, cache manager, optional wire transport.
    // The optional layers the node lacks attach as null (off).
    BackendStore& backend = *backends_.emplace_back(
        std::make_unique<BackendStore>(config_.hdd, config_.net));
    backend.AttachFaults(node.fault_injector());
    CacheManager& cache = *caches_.emplace_back(std::make_unique<CacheManager>(
        node.target(), node.plane(), backend, cmc));
    cache.AttachPersistence(node.persistence());
    cache.AttachFaultDetector(node.failslow_detector());
    // Graduating objects classify from observed hotness, not the staged
    // cold-start guess.
    if (node.admission_tier()) cache.AttachAdmission(*node.admission_tier());
    OsdTransport* transport = nullptr;
    if (config_.wire_transport) {
      transport = transports_
                      .emplace_back(std::make_unique<OsdTransport>(
                          node.target(), config_.net))
                      .get();
      cache.initiator_mutable().UseTransport(transport);
      transport->AttachTelemetry(node.registry());
    }
    // The cache manager attaches its recovery scheduler itself.
    cache.AttachTelemetry(node.registry());

    if (config_.enable_tracing) {
      // The cache manager adds its own track and the backend's. Replay is
      // single-threaded, so every shard shares the one tracer.
      node.AttachTracing(tracer_);
      node.AttachEvents(tracer_.events());
      cache.AttachTracing(tracer_);
      if (transport) transport->AttachTracing(tracer_);
    }
  }

  if (config_.enable_tracing) sim_ev_ = &tracer_.events();

  // Register the catalog with each object's owning shard.
  for (uint32_t i = 0; i < trace_.catalog.count(); ++i) {
    ObjectId id = ObjectCatalog::IdFor(i);
    uint64_t logical = trace_.catalog.sizes[i];
    size_t k = router_.ShardOf(id);
    backends_[k]->RegisterObject(id, logical,
                                 nodes_[k]->stripes().PhysicalSize(logical));
  }
  for (auto& cache : caches_) cache->Initialize(clock_.now());
}

CacheSimulator::~CacheSimulator() = default;

void CacheSimulator::ReplayUnmeasured() {
  for (const Request& req : trace_.requests) {
    ObjectId id = ObjectCatalog::IdFor(req.object);
    uint64_t size = trace_.catalog.sizes[req.object];
    CacheManager& cache = Route(id);
    RequestResult r = req.is_write ? cache.Put(id, size, clock_.now())
                                   : cache.Get(id, size, clock_.now());
    clock_.Advance(r.latency);
  }
}

RunReport CacheSimulator::Run() {
  if (config_.warmup_pass) ReplayUnmeasured();

  MetricsCollector metrics;
  metrics.StartWindow("0-failures", clock_.now());
  const SimTime measure_start = clock_.now();
  server_free_ = clock_.now();

  size_t next_failure = 0;
  size_t next_spare = 0;
  size_t failed_so_far = 0;
  uint64_t probe_until = 0;  // request index ending the current probe window

  for (uint64_t i = 0; i < trace_.requests.size(); ++i) {
    while (next_failure < config_.failures.size() &&
           config_.failures[next_failure].at_request == i) {
      // A device failure hits every shard: the shards partition one
      // physical array, so losing a device loses its slice everywhere.
      Emit(sim_ev_, clock_.now(), EventSeverity::kWarn, "sim.fail_injected",
           "scripted device failure",
           {{"device", std::to_string(config_.failures[next_failure].device)},
            {"request", std::to_string(i)}});
      for (auto& cache : caches_) {
        cache->OnDeviceFailure(config_.failures[next_failure].device,
                                  clock_.now());
      }
      ++failed_so_far;
      char label[48];
      if (config_.probe_window_requests > 0) {
        std::snprintf(label, sizeof(label), "%zu-failures-early", failed_so_far);
        probe_until = i + config_.probe_window_requests;
      } else {
        std::snprintf(label, sizeof(label), "%zu-failures", failed_so_far);
      }
      metrics.StartWindow(label, clock_.now());
      ++next_failure;
    }
    if (probe_until != 0 && i == probe_until) {
      char label[48];
      std::snprintf(label, sizeof(label), "%zu-failures", failed_so_far);
      metrics.StartWindow(label, clock_.now());
      probe_until = 0;
    }
    while (next_spare < config_.spares.size() &&
           config_.spares[next_spare].at_request == i) {
      Emit(sim_ev_, clock_.now(), EventSeverity::kInfo, "sim.spare_injected",
           "scripted spare insertion",
           {{"device", std::to_string(config_.spares[next_spare].device)},
            {"request", std::to_string(i)}});
      for (auto& cache : caches_) {
        cache->OnSpareInserted(config_.spares[next_spare].device,
                                  clock_.now());
      }
      ++next_spare;
    }

    const Request& req = trace_.requests[i];
    ObjectId id = ObjectCatalog::IdFor(req.object);
    uint64_t size = trace_.catalog.sizes[req.object];
    CacheManager& cache = Route(id);

    // Closed loop: the next request starts when the previous finished.
    // Open loop: it arrives on schedule and may queue behind the server.
    SimTime arrival = clock_.now();
    SimTime start = arrival;
    if (config_.arrival_interval_ns > 0) {
      arrival = measure_start + i * config_.arrival_interval_ns;
      start = std::max(arrival, server_free_);
    }
    RequestResult r = req.is_write ? cache.Put(id, size, start)
                                   : cache.Get(id, size, start);
    server_free_ = start + r.latency;
    SimTime observed = server_free_ - arrival;  // includes queueing
    clock_.AdvanceTo(server_free_);
    metrics.Record(r.hit, r.is_write, r.bytes, observed, clock_.now());

    // Periodic scrubbing: find latent corruption while redundancy can
    // still repair it (the scrub itself charges device time).
    if (config_.scrub_interval_requests > 0 &&
        (i + 1) % config_.scrub_interval_requests == 0) {
      for (auto& cache : caches_) {
        auto scrub = cache->RunScrub(clock_.now());
        server_free_ = std::max(server_free_, scrub.complete);
      }
      clock_.AdvanceTo(server_free_);
    }
  }
  metrics.Finish(clock_.now());

  RunReport report;
  report.name = config_.name;
  report.total = metrics.total();
  report.windows = metrics.windows();
  report.dataset_bytes = trace_.catalog.TotalBytes();
  for (size_t k = 0; k < nodes_.size(); ++k) {
    NodeStack& node = *nodes_[k];
    CacheStats cs = caches_[k]->stats();
    report.cache.gets += cs.gets;
    report.cache.hits += cs.hits;
    report.cache.misses += cs.misses;
    report.cache.writes += cs.writes;
    report.cache.evictions += cs.evictions;
    report.cache.lost_evictions += cs.lost_evictions;
    report.cache.dirty_lost += cs.dirty_lost;
    report.cache.degraded_reads += cs.degraded_reads;
    report.cache.rebuilds += cs.rebuilds;
    report.cache.flushes += cs.flushes;
    report.cache.reclassifications += cs.reclassifications;
    report.cache.verify_failures += cs.verify_failures;
    report.cache.uncacheable += cs.uncacheable;
    SpaceStats ss = node.stripes().Space();
    report.space.user_bytes += ss.user_bytes;
    report.space.redundancy_bytes += ss.redundancy_bytes;
    report.space.capacity_bytes += ss.capacity_bytes;
    report.space.free_bytes += ss.free_bytes;
    OsdTargetStats os = node.target().stats();
    report.osd.commands += os.commands;
    report.osd.reads += os.reads;
    report.osd.read_misses += os.read_misses;
    report.osd.writes += os.writes;
    report.osd.control_messages += os.control_messages;
    report.osd.degraded_reads += os.degraded_reads;
    report.osd.sense_errors += os.sense_errors;
    report.max_wear = std::max(report.max_wear, node.array().MaxWearFraction());
    report.raw_capacity_bytes += node.array().total_capacity_bytes();
  }
  if (nodes_.size() == 1) {
    report.telemetry = nodes_[0]->registry().Snapshot();
  } else {
    std::vector<const MetricRegistry*> regs;
    regs.reserve(nodes_.size());
    for (auto& node : nodes_) regs.push_back(&node->registry());
    report.telemetry = MetricRegistry::Merged(regs);
  }
  report.trace = tracer_.Stats();
  return report;
}

std::string FormatReportRow(const RunReport& report) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%-18s hit=%5.1f%%  bw=%7.1f MB/s  lat=%6.2f ms  eff=%5.1f%%",
                report.name.c_str(), report.total.HitRatio() * 100.0,
                report.total.BandwidthMBps(), report.total.AvgLatencyMs(),
                report.space.SpaceEfficiency() * 100.0);
  return buf;
}

}  // namespace reo

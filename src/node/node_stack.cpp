#include "node/node_stack.h"

#include <algorithm>
#include <string>
#include <utility>

#include "admit/admission_tier.h"
#include "core/data_plane.h"
#include "fault/fault_injector.h"
#include "flash/flash_array.h"
#include "osd/cluster_directory.h"
#include "osd/osd_target.h"
#include "trace/event_log.h"
#include "trace/tracer.h"

namespace reo {

NodeStackConfig ShardConfig(const NodeStackConfig& node, size_t shard,
                            size_t shards) {
  NodeStackConfig s = node;
  s.stripes.capacity_limit_bytes = node.stripes.capacity_limit_bytes / shards;
  s.device.capacity_bytes = std::max<uint64_t>(
      s.stripes.capacity_limit_bytes, 4 * node.stripes.chunk_logical_bytes);
  s.admission.dram_bytes = node.admission.dram_bytes / shards;
  s.faults.seed += shard;
  if (shards > 1 && s.persistence.enabled()) {
    s.persistence.data_dir += "/shard" + std::to_string(shard);
  }
  return s;
}

NodeStack::NodeStack(NodeStackConfig config) : config_(std::move(config)) {
  array_ = std::make_unique<FlashArray>(config_.devices, config_.device);
  stripes_ = std::make_unique<StripeManager>(*array_, config_.stripes);
  plane_ = std::make_unique<ReoDataPlane>(*stripes_,
                                          RedundancyPolicy(config_.policy));
  // DRAM admission tier: clean writes stage in DRAM and reach flash only
  // when the admission policy graduates them.
  if (config_.admission.dram_bytes > 0) {
    admit_ = std::make_unique<AdmissionTier>(config_.admission);
    plane_->AttachAdmission(*admit_);
    admit_->AttachTelemetry(registry_);
  }
  target_ = std::make_unique<OsdTarget>(*plane_);

  // Deterministic fault injection into the device layer (DESIGN.md "Fault
  // model & partial-failure handling"). The retry backoff jitter seeds
  // from the fault seed so the failure/recovery interleaving reproduces.
  if (!config_.faults.empty()) {
    injector_ = std::make_unique<FaultInjector>(config_.faults);
    failslow_ = std::make_unique<FailSlowDetector>(config_.devices,
                                                   config_.failslow);
    array_->AttachFaults(injector_.get(), failslow_.get());
    injector_->AttachTelemetry(registry_);
    failslow_->AttachTelemetry(registry_);
    plane_->ConfigureRetry(plane_->retry_policy(), config_.faults.seed);
  }

  // Cluster mode: this node's slice of the cluster's owner hints.
  if (config_.node_id) {
    cluster_ = std::make_unique<ClusterDirectory>(*config_.node_id);
    cluster_->AttachTelemetry(registry_);
    target_->AttachCluster(*cluster_);
  }

  array_->AttachTelemetry(registry_);
  plane_->AttachTelemetry(registry_);
  target_->AttachTelemetry(registry_);
}

NodeStack::~NodeStack() = default;

Result<std::unique_ptr<NodeStack>> NodeStack::Open(NodeStackConfig config) {
  std::unique_ptr<NodeStack> node(new NodeStack(std::move(config)));
  if (node->config_.persistence.enabled()) {
    // Opening runs crash recovery over the journal; a corrupt image is
    // refused, never served.
    auto opened = PersistenceManager::Open(node->config_.persistence);
    if (!opened.ok()) return opened.status();
    node->persist_ = std::move(*opened);
    node->persist_->AttachFaults(node->injector_.get());
    node->persist_->AttachTelemetry(node->registry_);
    node->plane_->AttachPersistence(node->persist_.get());
  }
  return node;
}

Result<std::optional<RestoreReport>> NodeStack::Restore() {
  std::optional<RestoreReport> report;
  if (persist_ == nullptr) return report;
  if (persist_->live_objects() > 0) {
    report = RestoreToTarget(*persist_, *target_,
                             config_.stripes.capacity_limit_bytes, 0, events_);
  }
  Status cp = persist_->Checkpoint(0);
  if (!cp.ok()) return cp;
  return report;
}

void NodeStack::AttachEvents(EventLog& events) {
  events_ = &events;
  plane_->AttachEvents(events);
  if (admit_) admit_->AttachEvents(events);
  if (injector_) injector_->AttachEvents(events);
  if (failslow_) failslow_->AttachEvents(events);
  if (persist_) persist_->AttachEvents(events);
  if (cluster_) cluster_->AttachEvents(events);
}

void NodeStack::AttachTracing(Tracer& tracer) {
  plane_->AttachTracing(tracer);  // fans out to stripes and devices
  target_->AttachTracing(tracer);
}

}  // namespace reo

// NodeStack: the osd-target half of one Reo node (paper §V).
//
// The paper splits a node in two. The osd-target side holds the flash
// array, the stripe manager, the differentiated-redundancy data plane
// and the OSD target; the osd-initiator side holds the cache manager and
// the backend. NodeStack builds the target side — plus the optional DRAM
// admission tier, fault injector + fail-slow detector, durable state and
// cluster directory — from one NodeStackConfig, and attaches every layer
// to its own metric registry. reo_server serves one NodeStack per shard
// over the wire; CacheSimulator layers the initiator side (backend, cache
// manager, optional wire transport) on one NodeStack per shard.
//
// ShardConfig is the one place the per-shard rules live: how a
// node-wide config becomes shard K of N.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "admit/admission.h"
#include "array/stripe_manager.h"
#include "common/status.h"
#include "core/policy.h"
#include "fault/failslow.h"
#include "fault/fault_spec.h"
#include "flash/flash_device.h"
#include "persist/persistence.h"
#include "persist/restore.h"
#include "telemetry/metric_registry.h"

namespace reo {

class AdmissionTier;
class ClusterDirectory;
class EventLog;
class FaultInjector;
class FlashArray;
class OsdTarget;
class ReoDataPlane;
class Tracer;

struct NodeStackConfig {
  size_t devices = 5;  ///< flash devices in the array
  /// Device model; ShardConfig sizes capacity_bytes from the budget.
  FlashDeviceConfig device;
  /// capacity_limit_bytes is the budget (data + redundancy); in a
  /// node-wide config ShardConfig splits it across shards.
  StripeManagerConfig stripes;
  PolicyConfig policy;
  AdmissionConfig admission;  ///< dram_bytes 0: no DRAM tier
  PersistenceConfig persistence;  ///< empty data_dir: in-memory only
  FaultSpec faults;  ///< no rules: no injector, no fail-slow detector
  FailSlowConfig failslow;
  std::optional<uint32_t> node_id;  ///< set: attach a ClusterDirectory
};

/// Shard `shard` of `shards` of a node-wide config: capacity and DRAM
/// budgets split evenly, every device sized to hold the shard's whole
/// budget (at least 4 chunks — the budget is enforced logically by the
/// stripe manager, so a failure costs data, not allocatable space), the
/// fault seed offset by the shard index so shards do not fault in
/// lockstep, and at shards > 1 the journal under data_dir/shardK.
NodeStackConfig ShardConfig(const NodeStackConfig& node, size_t shard,
                            size_t shards);

/// One fully wired target-side stack. Member order is destruction-safe:
/// every layer outlives the layers that hold pointers to it (the data
/// plane needs its tier and durable state, the target its directory).
class NodeStack {
 public:
  /// Builds the stack exactly as `config` says (ShardConfig derives a
  /// shard's config). Fails only when opening the durable state does;
  /// ErrorCode::kCorrupted names the file that failed verification.
  static Result<std::unique_ptr<NodeStack>> Open(NodeStackConfig config);
  ~NodeStack();

  NodeStack(const NodeStack&) = delete;
  NodeStack& operator=(const NodeStack&) = delete;

  /// Replays the objects the durable state recovered back through the
  /// target in class order 0 -> 1 -> 2 -> 3, then checkpoints so the next
  /// restart starts from a compact image. The report is empty when there
  /// was nothing to restore; an in-memory stack does nothing.
  Result<std::optional<RestoreReport>> Restore();

  /// Routes every layer's events (partial-failure milestones, admission,
  /// cluster, persistence and restore) into `events`.
  void AttachEvents(EventLog& events);
  /// Span tracks for the target, data plane, reconstruction and devices.
  void AttachTracing(Tracer& tracer);

  MetricRegistry& registry() { return registry_; }
  FlashArray& array() { return *array_; }
  StripeManager& stripes() { return *stripes_; }
  ReoDataPlane& plane() { return *plane_; }
  OsdTarget& target() { return *target_; }
  /// Null unless the config asked for them.
  AdmissionTier* admission_tier() { return admit_.get(); }
  FaultInjector* fault_injector() { return injector_.get(); }
  FailSlowDetector* failslow_detector() { return failslow_.get(); }
  PersistenceManager* persistence() { return persist_.get(); }
  ClusterDirectory* cluster() { return cluster_.get(); }

 private:
  explicit NodeStack(NodeStackConfig config);

  NodeStackConfig config_;
  MetricRegistry registry_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<FailSlowDetector> failslow_;
  std::unique_ptr<PersistenceManager> persist_;
  std::unique_ptr<AdmissionTier> admit_;
  std::unique_ptr<ClusterDirectory> cluster_;
  std::unique_ptr<FlashArray> array_;
  std::unique_ptr<StripeManager> stripes_;
  std::unique_ptr<ReoDataPlane> plane_;
  std::unique_ptr<OsdTarget> target_;
  EventLog* events_ = nullptr;
};

}  // namespace reo

// Shared by the unit tests that run on a real target-side stack.
#pragma once

#include <memory>

#include "backend/backend_store.h"
#include "core/cache_manager.h"
#include "node/node_stack.h"

namespace reo {

/// A five-device in-memory NodeStack: `device_bytes` per device, `chunk`
/// chunks at full-size payloads, no budget beyond the devices.
inline std::unique_ptr<NodeStack> TestNode(uint64_t device_bytes,
                                           uint64_t chunk, ProtectionMode mode,
                                           double reserve) {
  auto node = NodeStack::Open(
      {.device = {.capacity_bytes = device_bytes},
       .stripes = {.chunk_logical_bytes = chunk},
       .policy = {.mode = mode, .reo_reserve_fraction = reserve}});
  REO_CHECK(node.ok());
  return std::move(*node);
}

/// The osd-initiator side over a test node: a default backend and a cache
/// manager whose commands go down `channel` (the node's own target unless
/// a wire channel is given).
struct TestInitiatorSide {
  TestInitiatorSide(NodeStack& node, OsdChannel& channel,
                    CacheManagerConfig config)
      : cache(channel, node.plane(), backend, config) {}
  // cache refers to backend.
  TestInitiatorSide(const TestInitiatorSide&) = delete;
  TestInitiatorSide& operator=(const TestInitiatorSide&) = delete;

  BackendStore backend{HddConfig{}, NetworkLinkConfig{}};
  CacheManager cache;
};

/// Builds the initiator side and, unless `initialize` is false (to attach
/// tracing first, say), runs CacheManager::Initialize(0): FORMAT plus the
/// Table I metadata objects.
inline std::unique_ptr<TestInitiatorSide> TestCache(
    NodeStack& node, CacheManagerConfig config = {},
    OsdChannel* channel = nullptr, bool initialize = true) {
  auto side = std::make_unique<TestInitiatorSide>(
      node, channel ? *channel : node.target(), config);
  if (initialize) side->cache.Initialize(0);
  return side;
}

}  // namespace reo

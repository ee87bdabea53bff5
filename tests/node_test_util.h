// Shared by the unit tests that run on a real target-side stack.
#pragma once

#include <memory>

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

}  // namespace reo

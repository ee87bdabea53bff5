// Quickstart: build a five-SSD Reo cache, serve a few objects, inspect the
// classification and space accounting.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "core/cache_manager.h"
#include "common/units.h"
#include "node/node_stack.h"

using namespace reo;

int main() {
  // 1. The target side: five simulated flash SSDs of 64 MiB each, striped
  //    in 64 KiB chunks at full-size payloads, under the Reo policy
  //    (differentiated redundancy with a 20 % reserve), behind an OSD
  //    target.
  auto node = NodeStack::Open({
      .device = {.capacity_bytes = 64ULL << 20},
      .stripes = {.chunk_logical_bytes = 64 * 1024},
      .policy = {.mode = ProtectionMode::kReo, .reo_reserve_fraction = 0.20},
  });
  if (!node.ok()) return 1;
  StripeManager& stripes = (*node)->stripes();

  // 2. The initiator side: backend store + cache manager.
  BackendStore backend(HddConfig{}, NetworkLinkConfig{});
  CacheManagerConfig cache_cfg;
  cache_cfg.hhot_refresh_interval = 50;
  CacheManager cache((*node)->target(), (*node)->plane(), backend, cache_cfg);
  cache.Initialize(0);

  // Populate a small backend catalog.
  const int kObjects = 40;
  const uint64_t kSize = 1 << 20;  // 1 MiB objects
  for (int i = 0; i < kObjects; ++i) {
    ObjectId id{kFirstUserId, 0x20000u + static_cast<uint64_t>(i)};
    backend.RegisterObject(id, kSize, stripes.PhysicalSize(kSize));
  }

  // Serve a skewed read pattern: objects 0-3 are hot, the rest are cold.
  SimClock clock;
  for (int round = 0; round < 60; ++round) {
    for (int i = 0; i < kObjects; ++i) {
      bool hot = i < 4;
      if (!hot && round % 10 != 0) continue;
      ObjectId id{kFirstUserId, 0x20000u + static_cast<uint64_t>(i)};
      auto r = cache.Get(id, kSize, clock.now());
      clock.Advance(r.latency);
    }
  }

  const auto& st = cache.stats();
  auto space = stripes.Space();
  std::printf("Reo quickstart\n");
  std::printf("  requests        : %llu (%.1f%% hits)\n",
              static_cast<unsigned long long>(st.gets), st.HitRatio() * 100);
  std::printf("  resident objects: %zu (%s)\n", cache.resident_objects(),
              HumanBytes(cache.resident_bytes()).c_str());
  std::printf("  space efficiency: %.1f%% (user %s, redundancy %s)\n",
              space.SpaceEfficiency() * 100, HumanBytes(space.user_bytes).c_str(),
              HumanBytes(space.redundancy_bytes).c_str());
  std::printf("  hot threshold H : %g\n", cache.h_hot());

  // Inspect classification results: hot objects should be 2-parity.
  for (int i = 0; i < 6; ++i) {
    ObjectId id{kFirstUserId, 0x20000u + static_cast<uint64_t>(i)};
    if (!stripes.Contains(id)) continue;
    std::printf("  object %2d -> %s\n", i,
                std::string(to_string(*stripes.LevelOf(id))).c_str());
  }

  // A device failure: hot data keeps serving, cold data refetches.
  cache.OnDeviceFailure(2, clock.now());
  ObjectId hot{kFirstUserId, 0x20000};
  auto r = cache.Get(hot, kSize, clock.now());
  std::printf("  after failure   : hot object %s (degraded=%d)\n",
              r.hit ? "HIT" : "MISS", r.degraded ? 1 : 0);
  return 0;
}

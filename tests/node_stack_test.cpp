// NodeStack wiring: ShardConfig derives shard K of N from one node-wide
// config, and every optional layer comes up when asked for and reports to
// the shard's registry. persist_test reopens a durable NodeStack and
// checks the class-ordered restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "admit/admission_tier.h"
#include "backend/backend_store.h"
#include "core/data_plane.h"
#include "fault/fault_injector.h"
#include "node/node_stack.h"
#include "osd/cluster_directory.h"
#include "trace/event_log.h"
#include "trace/tracer.h"

namespace reo {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kChunk = 4096;
constexpr uint64_t kCapacity = 16ull << 20;

ObjectId Oid(uint64_t n) { return ObjectId{kFirstUserId, 0x20000 + n}; }

std::string ScratchDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("reo_node_" + name);
  fs::remove_all(dir);
  return dir.string();
}

/// Every optional layer on: faults (a rule that never fires), durable
/// state, a DRAM tier and a cluster node id.
NodeStackConfig FullNode(const std::string& data_dir) {
  auto faults = ParseFaultSpec(R"({"seed": 11, "rules": [
    {"site": "flash.latent", "probability": 0.0}]})");
  EXPECT_TRUE(faults.ok());
  return NodeStackConfig{
      .stripes = {.chunk_logical_bytes = kChunk,
                  .capacity_limit_bytes = kCapacity},
      .policy = {.mode = ProtectionMode::kReo, .reo_reserve_fraction = 0.5},
      .admission = {.dram_bytes = 2 << 20},
      .persistence = {.data_dir = data_dir},
      .faults = *faults,
      .node_id = 7,
  };
}

Status WriteObject(NodeStack& node, ObjectId id, uint8_t cls) {
  uint64_t physical = node.stripes().PhysicalSize(kChunk);
  auto io = node.plane().WriteObject(
      id, BackendStore::SynthesizePayload(id, 0, physical), kChunk, cls, 0);
  return io.ok() ? Status::Ok() : io.status();
}

TEST(ShardConfigTest, SplitsBudgetsSeedsAndJournalsPerShard) {
  NodeStackConfig node = FullNode("/var/reo");
  for (size_t k = 0; k < 2; ++k) {
    NodeStackConfig s = ShardConfig(node, k, 2);
    EXPECT_EQ(s.stripes.capacity_limit_bytes, kCapacity / 2);
    EXPECT_EQ(s.device.capacity_bytes, kCapacity / 2);
    EXPECT_EQ(s.admission.dram_bytes, 1u << 20);
    EXPECT_EQ(s.faults.seed, 11u + k);
    EXPECT_EQ(s.persistence.data_dir, "/var/reo/shard" + std::to_string(k));
  }
  // One shard journals flat in data_dir and keeps the seed.
  NodeStackConfig one = ShardConfig(node, 0, 1);
  EXPECT_EQ(one.persistence.data_dir, "/var/reo");
  EXPECT_EQ(one.faults.seed, 11u);
  EXPECT_EQ(one.stripes.capacity_limit_bytes, kCapacity);
  // A budget under four chunks still gets devices that hold four.
  node.stripes.capacity_limit_bytes = kChunk;
  EXPECT_EQ(ShardConfig(node, 0, 1).device.capacity_bytes, 4 * kChunk);
}

TEST(NodeStackTest, TwoShardsWireEveryLayerIntoTheirOwnRegistry) {
  const std::string dir = ScratchDir("two_shards");
  NodeStackConfig node = FullNode(dir);
  EventLog events;
  Tracer tracer;
  for (size_t k = 0; k < 2; ++k) {
    auto opened = NodeStack::Open(ShardConfig(node, k, 2));
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();
    NodeStack& shard = **opened;
    shard.AttachEvents(events);
    shard.AttachTracing(tracer);

    const std::string shard_dir = dir + "/shard" + std::to_string(k);
    ASSERT_NE(shard.persistence(), nullptr);
    EXPECT_EQ(shard.persistence()->data_dir(), shard_dir);
    EXPECT_TRUE(fs::is_directory(shard_dir));
    ASSERT_NE(shard.fault_injector(), nullptr);
    EXPECT_EQ(shard.fault_injector()->spec().seed, 11u + k);
    ASSERT_NE(shard.failslow_detector(), nullptr);
    ASSERT_NE(shard.admission_tier(), nullptr);
    EXPECT_EQ(shard.admission_tier()->config().dram_bytes, 1u << 20);
    ASSERT_NE(shard.cluster(), nullptr);
    EXPECT_EQ(shard.cluster()->local_node(), 7u);

    ASSERT_TRUE(WriteObject(shard, Oid(k), /*cls=*/1).ok());
    MetricSnapshot snapshot = shard.registry().Snapshot();
    for (const char* prefix :
         {"flash.", "dataplane.", "osd.", "admit.", "fault.", "failslow.",
          "persist.", "cluster."}) {
      bool found = std::any_of(
          snapshot.entries.begin(), snapshot.entries.end(),
          [&](const auto& e) { return e.name.rfind(prefix, 0) == 0; });
      EXPECT_TRUE(found) << "shard " << k << " has no " << prefix << "*";
    }
    const auto* writes = snapshot.Find("dataplane.writes");
    ASSERT_NE(writes, nullptr);
    EXPECT_EQ(writes->value, 1.0) << "shard " << k;
  }
  // Shards journal only under their own subdirectories.
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_TRUE(entry.is_directory()) << entry.path();
  }
}

}  // namespace
}  // namespace reo

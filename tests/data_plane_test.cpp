// ReoDataPlane tests: class -> level mapping per policy mode, the
// redundancy-reserve cap (sense 0x67 semantics), health reporting, space
// queries, and the transient-error budget of the in-place repair.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend_store.h"
#include "core/data_plane.h"
#include "fault/fault_injector.h"
#include "node_test_util.h"

namespace reo {
namespace {

constexpr uint64_t kChunk = 1024;

ObjectId Oid(uint64_t n) { return ObjectId{kFirstUserId, 0x20000 + n}; }

struct PlaneFixture {
  explicit PlaneFixture(ProtectionMode mode, double reserve = 0.10,
                        uint64_t device_capacity = 256 * kChunk)
      : node(TestNode(device_capacity, kChunk, mode, reserve)) {}

  Result<DataPlaneIo> Write(uint64_t n, uint64_t logical, uint8_t cls) {
    auto payload =
        BackendStore::SynthesizePayload(Oid(n), 0, stripes->PhysicalSize(logical));
    return plane->WriteObject(Oid(n), payload, logical, cls, 0);
  }

  std::unique_ptr<NodeStack> node;
  FlashArray* array = &node->array();
  StripeManager* stripes = &node->stripes();
  ReoDataPlane* plane = &node->plane();
};

TEST(ReoDataPlaneTest, ReoClassToLevelMapping) {
  PlaneFixture fx(ProtectionMode::kReo, 0.5);
  ASSERT_TRUE(fx.Write(0, 2 * kChunk, 0).ok());
  ASSERT_TRUE(fx.Write(1, 2 * kChunk, 1).ok());
  ASSERT_TRUE(fx.Write(2, 2 * kChunk, 2).ok());
  ASSERT_TRUE(fx.Write(3, 2 * kChunk, 3).ok());
  EXPECT_EQ(*fx.stripes->LevelOf(Oid(0)), RedundancyLevel::kReplicate);
  EXPECT_EQ(*fx.stripes->LevelOf(Oid(1)), RedundancyLevel::kReplicate);
  EXPECT_EQ(*fx.stripes->LevelOf(Oid(2)), RedundancyLevel::kParity2);
  EXPECT_EQ(*fx.stripes->LevelOf(Oid(3)), RedundancyLevel::kNone);
}

TEST(ReoDataPlaneTest, UniformModesIgnoreClass) {
  for (auto [mode, level] :
       std::vector<std::pair<ProtectionMode, RedundancyLevel>>{
           {ProtectionMode::kUniform1, RedundancyLevel::kParity1},
           {ProtectionMode::kFullReplication, RedundancyLevel::kReplicate}}) {
    PlaneFixture fx(mode);
    for (uint8_t cls = 0; cls <= 3; ++cls) {
      ASSERT_TRUE(fx.Write(cls, 2 * kChunk, cls).ok());
      EXPECT_EQ(*fx.stripes->LevelOf(Oid(cls)), level);
    }
  }
}

TEST(ReoDataPlaneTest, ReserveCapDowngradesHotData) {
  // Reserve = 10% of 5*256 KiB = 128 KiB = 128 chunks... here: 0.10 * 1280
  // chunks = 128 chunks of reserve.
  PlaneFixture fx(ProtectionMode::kReo, 0.10);
  uint64_t reserve = fx.plane->reserve_bytes();
  ASSERT_GT(reserve, 0u);

  // Fill the reserve with hot data (class 2 -> 2 parity per 3 data).
  uint64_t n = 0;
  while (fx.stripes->redundancy_bytes() + 2 * kChunk <= reserve) {
    ASSERT_TRUE(fx.Write(n++, 3 * kChunk, 2).ok());
  }
  EXPECT_EQ(fx.plane->reserve_rejections(), 0u);

  // The next hot write exceeds the reserve: stored, but unprotected.
  ASSERT_TRUE(fx.Write(900, 3 * kChunk, 2).ok());
  EXPECT_EQ(*fx.stripes->LevelOf(Oid(900)), RedundancyLevel::kNone);
  EXPECT_GE(fx.plane->reserve_rejections(), 1u);
  EXPECT_LE(fx.stripes->redundancy_bytes(), reserve);
}

TEST(ReoDataPlaneTest, DirtyDataExemptFromReserve) {
  PlaneFixture fx(ProtectionMode::kReo, 0.0);  // zero reserve
  ASSERT_TRUE(fx.Write(1, 2 * kChunk, 1).ok());
  // Dirty data must be replicated even with no reserve at all.
  EXPECT_EQ(*fx.stripes->LevelOf(Oid(1)), RedundancyLevel::kReplicate);
  // Hot data cannot be protected.
  ASSERT_TRUE(fx.Write(2, 2 * kChunk, 2).ok());
  EXPECT_EQ(*fx.stripes->LevelOf(Oid(2)), RedundancyLevel::kNone);
}

TEST(ReoDataPlaneTest, SetObjectClassReencodesAndReports0x67) {
  // Reserve of 0.2 % of 5 x 256 KiB = ~2.5 chunks: fits one 2-chunk parity
  // set but not two.
  PlaneFixture fx(ProtectionMode::kReo, 0.002);
  ASSERT_TRUE(fx.Write(1, 3 * kChunk, 3).ok());
  ASSERT_TRUE(fx.Write(2, 3 * kChunk, 3).ok());

  // First upgrade fits the reserve.
  uint64_t reserve = fx.plane->reserve_bytes();
  ASSERT_GE(reserve, 2 * kChunk);
  EXPECT_TRUE(fx.plane->SetObjectClass(Oid(1), 2, 0).ok());
  EXPECT_EQ(*fx.stripes->LevelOf(Oid(1)), RedundancyLevel::kParity2);

  // Second upgrade exhausts it: object stays, caller sees kNoSpace (0x67).
  auto st = fx.plane->SetObjectClass(Oid(2), 2, 0);
  EXPECT_EQ(st.code(), ErrorCode::kNoSpace);
  EXPECT_TRUE(fx.stripes->Contains(Oid(2)));
  EXPECT_EQ(*fx.stripes->LevelOf(Oid(2)), RedundancyLevel::kNone);

  // Downgrading the first releases the reserve; the retry then succeeds.
  EXPECT_TRUE(fx.plane->SetObjectClass(Oid(1), 3, 0).ok());
  EXPECT_TRUE(fx.plane->SetObjectClass(Oid(2), 2, 0).ok());
  EXPECT_EQ(*fx.stripes->LevelOf(Oid(2)), RedundancyLevel::kParity2);
}

TEST(ReoDataPlaneTest, HealthMapping) {
  PlaneFixture fx(ProtectionMode::kReo, 0.5);
  EXPECT_EQ(fx.plane->Health(Oid(1)), ObjectHealth::kAbsent);
  ASSERT_TRUE(fx.Write(1, 6 * kChunk, 2).ok());  // hot -> 2-parity
  ASSERT_TRUE(fx.Write(2, 6 * kChunk, 3).ok());  // cold -> 0-parity
  EXPECT_EQ(fx.plane->Health(Oid(1)), ObjectHealth::kIntact);

  ASSERT_TRUE(fx.array->FailDevice(0).ok());
  (void)fx.stripes->OnDeviceFailure(0);
  EXPECT_EQ(fx.plane->Health(Oid(1)), ObjectHealth::kDegraded);
  EXPECT_EQ(fx.plane->Health(Oid(2)), ObjectHealth::kLost);
}

TEST(ReoDataPlaneTest, ReadWriteRoundTripAndRemove) {
  PlaneFixture fx(ProtectionMode::kReo, 0.5);
  auto payload =
      BackendStore::SynthesizePayload(Oid(1), 0, fx.stripes->PhysicalSize(5 * kChunk));
  ASSERT_TRUE(fx.plane->WriteObject(Oid(1), payload, 5 * kChunk, 2, 0).ok());
  auto io = fx.plane->ReadObject(Oid(1), 0);
  ASSERT_TRUE(io.ok());
  EXPECT_EQ(io->payload, payload);
  EXPECT_FALSE(io->degraded);
  ASSERT_TRUE(fx.plane->RemoveObject(Oid(1)).ok());
  EXPECT_EQ(fx.plane->ReadObject(Oid(1), 0).code(), ErrorCode::kNotFound);
}

TEST(ReoDataPlaneTest, WireSizedPayloadIsChunkPadded) {
  // Wire clients hand over logical-sized payloads; the data plane pads
  // them to the array's chunk geometry instead of rejecting the write.
  PlaneFixture fx(ProtectionMode::kReo, 0.5);
  const uint64_t logical = kChunk / 2 + 7;  // sub-chunk, not chunk-aligned
  std::vector<uint8_t> payload(logical);
  for (uint64_t i = 0; i < logical; ++i) payload[i] = static_cast<uint8_t>(i);

  ASSERT_TRUE(fx.plane->WriteObject(Oid(1), payload, logical, 2, 0).ok());
  auto io = fx.plane->ReadObject(Oid(1), 0);
  ASSERT_TRUE(io.ok());
  ASSERT_EQ(io->payload.size(), fx.stripes->PhysicalSize(logical));
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), io->payload.begin()));
  for (uint64_t i = logical; i < io->payload.size(); ++i) {
    ASSERT_EQ(io->payload[i], 0u) << "pad byte " << i << " not zero";
  }
}

TEST(ReoDataPlaneTest, HasSpaceForConsidersRedundancy) {
  // 5 devices x 32 chunks = 160 chunks raw.
  PlaneFixture fx(ProtectionMode::kFullReplication, 0.0, 32 * kChunk);
  // Replication needs 5x: 40 chunks of data -> 200 chunks > 160.
  EXPECT_FALSE(fx.plane->HasSpaceFor(40 * kChunk, 3));
  EXPECT_TRUE(fx.plane->HasSpaceFor(30 * kChunk, 3));

  PlaneFixture fx2(ProtectionMode::kUniform0, 0.0, 32 * kChunk);
  EXPECT_TRUE(fx2.plane->HasSpaceFor(150 * kChunk, 3));
}

TEST(ReoDataPlaneTest, RecoveryFlag) {
  PlaneFixture fx(ProtectionMode::kReo);
  EXPECT_FALSE(fx.plane->recovery_active());
  fx.plane->set_recovery_active(true);
  EXPECT_TRUE(fx.plane->recovery_active());
}

TEST(ReoDataPlaneTest, ReserveScalesWithCapacityLimit) {
  // With a capacity limit below the raw device capacity, the Reo-X%
  // reserve is X% of the *limit*, not of the devices.
  auto node = NodeStack::Open(
                  {.device = {.capacity_bytes = 1000 * kChunk},
                   .stripes = {.chunk_logical_bytes = kChunk,
                               .capacity_limit_bytes = 100 * kChunk},
                   .policy = {.mode = ProtectionMode::kReo,
                              .reo_reserve_fraction = 0.2}})
                  .value();
  EXPECT_EQ(node->plane().reserve_bytes(), 20 * kChunk);
}

// --- In-place repair after a degraded read -------------------------------------

/// A class-2 (2-parity) one-chunk object whose data chunk and first parity
/// chunk were written latent-corrupt, so a read decodes from the second
/// parity alone and the repair that follows has exactly one survivor to
/// read. Slot reads from `transient_from` on, `transient_count` of them,
/// fail transiently. With `corrupt_rebuilt_data`, the repair's first
/// write (slot write 3, after data, parity 0, parity 1) is corrupt too.
struct RepairFixture {
  RepairFixture(uint64_t transient_from, uint64_t transient_count,
                bool corrupt_rebuilt_data = false)
      : node(TestNode(256 * kChunk, kChunk, ProtectionMode::kReo, 0.5)) {
    auto rule = [](const char* site, uint64_t from, uint64_t to) {
      return std::string(R"({"site": ")") + site +
             R"(", "probability": 1.0, "window": [)" + std::to_string(from) +
             ", " + std::to_string(to) + "]}";
    };
    std::string spec = R"({"rules": [)" + rule("flash.latent", 0, 2) + ", " +
                       rule("flash.read_transient", transient_from,
                            transient_from + transient_count);
    if (corrupt_rebuilt_data) spec += ", " + rule("flash.latent", 3, 4);
    spec += "]}";
    injector = std::make_unique<FaultInjector>(ParseFaultSpec(spec).value());
    node->array().AttachFaults(injector.get(), nullptr);
    plane->ConfigureRetry(RetryPolicy{}, /*seed=*/7);
    payload = BackendStore::SynthesizePayload(
        Oid(1), 0, node->stripes().PhysicalSize(kChunk));
    REO_CHECK(plane->WriteObject(Oid(1), payload, kChunk, 2, 0).ok());
  }

  double Metric(const std::string& name) {
    MetricSnapshot snapshot = node->registry().Snapshot();
    const auto* e = snapshot.Find(name);
    return e != nullptr ? e->value : 0.0;
  }

  std::unique_ptr<NodeStack> node;
  ReoDataPlane* plane = &node->plane();
  std::unique_ptr<FaultInjector> injector;
  std::vector<uint8_t> payload;
};

/// Slot reads the degraded read itself makes before the repair starts: a
/// transient window starting here hits the repair's first read.
uint64_t ReadsBeforeRepair() {
  RepairFixture probe(/*transient_from=*/1000000, 1);  // never reached
  auto io = probe.node->stripes().GetObject(Oid(1), 0);
  REO_CHECK(io.ok() && io->corrupt_chunks == 2);
  return probe.injector->ops(FaultSite::kFlashReadTransient);
}

TEST(DataPlaneRepairTest, TransientReadDuringRepairIsRetried) {
  RepairFixture fx(ReadsBeforeRepair(), 1);
  auto io = fx.plane->ReadObject(Oid(1), 0);
  ASSERT_TRUE(io.ok()) << io.status().to_string();
  EXPECT_EQ(io->payload, fx.payload);
  EXPECT_EQ(fx.injector->injected(FaultSite::kFlashReadTransient), 1u);
  EXPECT_EQ(fx.Metric("fault.crc_repairs"), 2.0);
  EXPECT_EQ(fx.Metric("fault.crc_unrepaired"), 0.0);
  EXPECT_EQ(fx.Metric("retry.successes"), 1.0);

  // Repaired in place: a plain array read sees every chunk whole.
  auto clean = fx.node->stripes().GetObject(Oid(1), 0);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->corrupt_chunks, 0u);
  EXPECT_FALSE(clean->degraded);
}

TEST(DataPlaneRepairTest, RepairReencodesFromTheDecodeNotTheNewSlot) {
  // The rebuilt data chunk is written latent-corrupt. Parity 0 is
  // re-encoded from the decoded bytes, so the repair does not trip over it;
  // the next read finds the bad data chunk and repairs it from parity.
  RepairFixture fx(/*transient_from=*/1000000, 1,
                   /*corrupt_rebuilt_data=*/true);
  auto io = fx.plane->ReadObject(Oid(1), 0);
  ASSERT_TRUE(io.ok()) << io.status().to_string();
  EXPECT_EQ(io->payload, fx.payload);
  EXPECT_EQ(fx.injector->injected(FaultSite::kFlashLatent), 3u);
  EXPECT_EQ(fx.Metric("fault.crc_repairs"), 2.0);
  EXPECT_EQ(fx.Metric("fault.crc_unrepaired"), 0.0);

  auto again = fx.plane->ReadObject(Oid(1), 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->payload, fx.payload);
  EXPECT_EQ(fx.Metric("fault.crc_repairs"), 3.0);
  auto clean = fx.node->stripes().GetObject(Oid(1), 0);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->corrupt_chunks, 0u);
}

TEST(DataPlaneRepairTest, RepairPastTheRetryBudgetCountsUnrepaired) {
  const uint32_t budget = RetryPolicy{}.max_attempts;
  RepairFixture fx(ReadsBeforeRepair(), budget);
  auto io = fx.plane->ReadObject(Oid(1), 0);
  // The read already decoded good data; only the repair gives up.
  ASSERT_TRUE(io.ok()) << io.status().to_string();
  EXPECT_EQ(io->payload, fx.payload);
  EXPECT_EQ(fx.injector->injected(FaultSite::kFlashReadTransient), budget);
  EXPECT_EQ(fx.Metric("fault.crc_repairs"), 0.0);
  EXPECT_EQ(fx.Metric("fault.crc_unrepaired"), 1.0);
  EXPECT_EQ(fx.Metric("retry.exhausted"), 1.0);

  // The chunks stay marked lost for the rebuild paths; reads still decode.
  auto again = fx.plane->ReadObject(Oid(1), 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->payload, fx.payload);
  EXPECT_TRUE(again->degraded);
}

}  // namespace
}  // namespace reo

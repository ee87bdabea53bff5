// OsdInitiator tests: the typed client API over the target, including the
// control-protocol helpers, against a real ReoDataPlane stack.
#include <gtest/gtest.h>

#include <memory>

#include "backend/backend_store.h"
#include "core/data_plane.h"
#include "osd/osd_initiator.h"
#include "node_test_util.h"

namespace reo {
namespace {

constexpr uint64_t kChunk = 1024;

ObjectId Oid(uint64_t n) { return ObjectId{kFirstUserId, 0x20000 + n}; }

struct InitiatorFixture {
  InitiatorFixture()
      : node(TestNode(1 << 20, kChunk, ProtectionMode::kReo, 0.3)) {
    initiator = std::make_unique<OsdInitiator>(*target);
    EXPECT_TRUE(initiator->FormatOsd(5 << 20).ok());
  }

  std::unique_ptr<NodeStack> node;
  FlashArray* array = &node->array();
  StripeManager* stripes = &node->stripes();
  ReoDataPlane* plane = &node->plane();
  OsdTarget* target = &node->target();
  std::unique_ptr<OsdInitiator> initiator;
};

TEST(OsdInitiatorTest, FullObjectLifecycle) {
  InitiatorFixture fx;
  ObjectId id = Oid(1);
  uint64_t logical = 3 * kChunk;
  auto payload = BackendStore::SynthesizePayload(id, 0, fx.stripes->PhysicalSize(logical));

  ASSERT_TRUE(fx.initiator->CreateObject(id, logical, 0).ok());
  ASSERT_TRUE(fx.initiator->WriteObject(id, payload, logical, 0).ok());

  auto read = fx.initiator->ReadObject(id, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.data, payload);
  EXPECT_GT(read.complete, 0u);

  ASSERT_TRUE(fx.initiator->RemoveObject(id, 0).ok());
  EXPECT_EQ(fx.initiator->ReadObject(id, 0).sense, SenseCode::kFail);
}

TEST(OsdInitiatorTest, ClassificationDrivesRedundancy) {
  InitiatorFixture fx;
  ObjectId id = Oid(1);
  uint64_t logical = 3 * kChunk;
  auto payload = BackendStore::SynthesizePayload(id, 0, fx.stripes->PhysicalSize(logical));
  ASSERT_TRUE(fx.initiator->CreateObject(id, logical, 0).ok());

  // Classify before write: class 1 (dirty) -> replicate on write.
  EXPECT_EQ(fx.initiator->SetClassId(id, 1, 0), SenseCode::kOk);
  ASSERT_TRUE(fx.initiator->WriteObject(id, payload, logical, 0).ok());
  EXPECT_EQ(*fx.stripes->LevelOf(id), RedundancyLevel::kReplicate);

  // Reclassify to hot clean -> re-encode to 2-parity.
  EXPECT_EQ(fx.initiator->SetClassId(id, 2, 0), SenseCode::kOk);
  EXPECT_EQ(*fx.stripes->LevelOf(id), RedundancyLevel::kParity2);

  // Cold -> no redundancy.
  EXPECT_EQ(fx.initiator->SetClassId(id, 3, 0), SenseCode::kOk);
  EXPECT_EQ(*fx.stripes->LevelOf(id), RedundancyLevel::kNone);
}

TEST(OsdInitiatorTest, QueriesFollowTableIII) {
  InitiatorFixture fx;
  ObjectId id = Oid(1);
  uint64_t logical = 5 * kChunk;
  auto payload = BackendStore::SynthesizePayload(id, 0, fx.stripes->PhysicalSize(logical));
  ASSERT_TRUE(fx.initiator->CreateObject(id, logical, 0).ok());
  ASSERT_TRUE(fx.initiator->WriteObject(id, payload, logical, 0).ok());

  EXPECT_EQ(fx.initiator->Query(id, false, 0, logical, 0), SenseCode::kOk);
  EXPECT_EQ(fx.initiator->QueryRecoveryState(0), SenseCode::kOk);

  // Kill a device: the cold object is lost -> 0x63; recovery flag shows
  // through the control-object query once the plane raises it.
  ASSERT_TRUE(fx.array->FailDevice(0).ok());
  (void)fx.stripes->OnDeviceFailure(0);
  EXPECT_EQ(fx.initiator->Query(id, false, 0, logical, 0), SenseCode::kCorrupted);
  fx.plane->set_recovery_active(true);
  EXPECT_EQ(fx.initiator->QueryRecoveryState(0), SenseCode::kRecoveryStarts);
}

TEST(OsdInitiatorTest, WriteQueryReportsSpace) {
  InitiatorFixture fx;
  ObjectId id = Oid(1);
  ASSERT_TRUE(fx.initiator->CreateObject(id, kChunk, 0).ok());
  EXPECT_EQ(fx.initiator->Query(id, true, 0, kChunk, 0), SenseCode::kOk);
  // Far beyond the array: 0x64.
  EXPECT_EQ(fx.initiator->Query(id, true, 0, 100 << 20, 0), SenseCode::kCacheFull);
}

TEST(OsdInitiatorTest, AttrRoundTrip) {
  InitiatorFixture fx;
  ObjectId id = Oid(1);
  ASSERT_TRUE(fx.initiator->CreateObject(id, kChunk, 0).ok());
  std::vector<uint8_t> value{9, 8, 7};
  ASSERT_TRUE(fx.initiator->SetAttr(id, kAttrReadFreq, value).ok());
  auto got = fx.initiator->GetAttr(id, kAttrReadFreq);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.attr_value, value);
}

TEST(OsdInitiatorTest, CollectionsAndListing) {
  InitiatorFixture fx;
  ObjectId coll{kFirstUserId, 0x30000};
  ASSERT_TRUE(fx.initiator->CreateCollection(coll).ok());
  auto members = fx.initiator->ListCollection(coll);
  ASSERT_TRUE(members.ok());
  EXPECT_TRUE(members.list.empty());
  ASSERT_TRUE(fx.initiator->RemoveCollection(coll).ok());

  ASSERT_TRUE(fx.initiator->CreateObject(Oid(1), kChunk, 0).ok());
  auto list = fx.initiator->ListObjects(kFirstUserId);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.list.size(), 5u);  // 4 reserved + 1
}

TEST(OsdInitiatorTest, StatsTrackTraffic) {
  InitiatorFixture fx;
  ASSERT_TRUE(fx.initiator->CreateObject(Oid(1), kChunk, 0).ok());
  (void)fx.initiator->SetClassId(Oid(1), 3, 0);
  (void)fx.initiator->ReadObject(Oid(9), 0);  // error
  const auto& st = fx.initiator->stats();
  EXPECT_GE(st.commands_sent, 4u);  // format + create + setid + read
  EXPECT_EQ(st.control_writes, 1u);
  EXPECT_GE(st.errors, 1u);
}

TEST(OsdInitiatorTest, ControlLatencyIsCharged) {
  InitiatorFixture fx;
  fx.initiator->set_control_latency(12345);
  EXPECT_EQ(fx.initiator->control_latency(), 12345u);
  ASSERT_TRUE(fx.initiator->CreateObject(Oid(1), kChunk, 0).ok());
  EXPECT_EQ(fx.initiator->SetClassId(Oid(1), 3, 0), SenseCode::kOk);
}

TEST(OsdInitiatorTest, PartitionManagement) {
  InitiatorFixture fx;
  ASSERT_TRUE(fx.initiator->CreatePartition(0x20000).ok());
  EXPECT_EQ(fx.initiator->CreatePartition(0x20000).sense, SenseCode::kFail);
  ObjectId in_new{0x20000, 0x50000};
  ASSERT_TRUE(fx.initiator->CreateObject(in_new, kChunk, 0).ok());
}

}  // namespace
}  // namespace reo

// Full-stack integration over the serialized wire: the exofs filesystem
// client talking to the OSD target exclusively through encoded
// command/response bytes on a modeled 10 GbE link — the closest in-repo
// analogue of the paper's real deployment (exofs -> osd-initiator ->
// iSCSI -> osd-target -> flash array).
#include <gtest/gtest.h>

#include <memory>

#include "core/data_plane.h"
#include "osd/exofs.h"
#include "osd/transport.h"
#include "node_test_util.h"

namespace reo {
namespace {

constexpr uint64_t kChunk = 1024;

struct WireFsFixture {
  WireFsFixture()
      : node(TestNode(1 << 20, kChunk, ProtectionMode::kReo, 0.3)) {
    transport = std::make_unique<OsdTransport>(*target);
    initiator = std::make_unique<OsdInitiator>(*target);
    initiator->UseTransport(transport.get());
    fs = std::make_unique<ExofsClient>(
        *initiator, [this](uint64_t l) { return stripes->PhysicalSize(l); });
  }

  std::unique_ptr<NodeStack> node;
  FlashArray* array = &node->array();
  StripeManager* stripes = &node->stripes();
  ReoDataPlane* plane = &node->plane();
  OsdTarget* target = &node->target();
  std::unique_ptr<OsdTransport> transport;
  std::unique_ptr<OsdInitiator> initiator;
  std::unique_ptr<ExofsClient> fs;
};

TEST(WireExofsTest, FilesystemOverSerializedTransport) {
  WireFsFixture fx;
  ASSERT_TRUE(fx.fs->MkFs(5 << 20, 0).ok());
  ASSERT_TRUE(fx.fs->Mkdir("/wire", 0).ok());

  std::string body = "every byte of this file crossed the encoded wire";
  std::vector<uint8_t> payload(body.begin(), body.end());
  ASSERT_TRUE(fx.fs->WriteFile("/wire/f", payload, payload.size(), 0).ok());

  auto read = fx.fs->ReadFile("/wire/f", 0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);

  // The transport really carried it all: commands plus the payload bytes.
  EXPECT_GT(fx.transport->stats().commands, 6u);
  EXPECT_GT(fx.transport->stats().bytes_sent, payload.size());
  EXPECT_EQ(fx.transport->stats().decode_errors, 0u);

  // Directory listing and unlink also work across the wire.
  auto dir = fx.fs->ReadDir("/wire", 0);
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(dir->size(), 1u);
  ASSERT_TRUE(fx.fs->Unlink("/wire/f", 0).ok());
  EXPECT_EQ(fx.fs->ReadFile("/wire/f", 0).code(), ErrorCode::kNotFound);
}

TEST(WireExofsTest, RemountOverWireSeesPersistentState) {
  WireFsFixture fx;
  ASSERT_TRUE(fx.fs->MkFs(5 << 20, 0).ok());
  std::vector<uint8_t> payload{1, 2, 3, 4};
  ASSERT_TRUE(fx.fs->WriteFile("/persisted", payload, payload.size(), 0).ok());

  ExofsClient again(*fx.initiator,
                    [&](uint64_t l) { return fx.stripes->PhysicalSize(l); });
  ASSERT_TRUE(again.Mount(0).ok());
  auto read = again.ReadFile("/persisted", 0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
}

}  // namespace
}  // namespace reo

// exofs-layer tests: mkfs/mount, directory tree persistence, file IO, and
// interaction with the differentiated-redundancy data plane underneath.
#include <gtest/gtest.h>

#include <memory>

#include "core/data_plane.h"
#include "osd/exofs.h"
#include "node_test_util.h"

namespace reo {
namespace {

constexpr uint64_t kChunk = 1024;

struct ExofsFixture {
  ExofsFixture()
      : node(TestNode(1 << 20, kChunk, ProtectionMode::kReo, 0.3)) {
    initiator = std::make_unique<OsdInitiator>(*target);
    fs = std::make_unique<ExofsClient>(
        *initiator, [this](uint64_t l) { return stripes->PhysicalSize(l); });
  }

  std::vector<uint8_t> Bytes(const std::string& s) {
    return {s.begin(), s.end()};
  }

  std::unique_ptr<NodeStack> node;
  FlashArray* array = &node->array();
  StripeManager* stripes = &node->stripes();
  ReoDataPlane* plane = &node->plane();
  OsdTarget* target = &node->target();
  std::unique_ptr<OsdInitiator> initiator;
  std::unique_ptr<ExofsClient> fs;
};

TEST(ExofsTest, MkFsAndMount) {
  ExofsFixture fx;
  ASSERT_TRUE(fx.fs->MkFs(5 << 20, 0).ok());
  EXPECT_TRUE(fx.fs->mounted());
  auto root = fx.fs->ReadDir("/", 0);
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root->empty());

  // A second client mounts the same volume and sees the same state.
  ExofsClient other(*fx.initiator,
                    [&](uint64_t l) { return fx.stripes->PhysicalSize(l); });
  ASSERT_TRUE(other.Mount(0).ok());
  EXPECT_EQ(other.next_oid(), fx.fs->next_oid());
}

TEST(ExofsTest, MountWithoutMkFsFails) {
  ExofsFixture fx;
  EXPECT_FALSE(fx.fs->Mount(0).ok());
  EXPECT_EQ(fx.fs->Mkdir("/a", 0).code(), ErrorCode::kUnavailable);
}

TEST(ExofsTest, DirectoryTree) {
  ExofsFixture fx;
  ASSERT_TRUE(fx.fs->MkFs(5 << 20, 0).ok());
  ASSERT_TRUE(fx.fs->Mkdir("/media", 0).ok());
  ASSERT_TRUE(fx.fs->Mkdir("/media/videos", 0).ok());
  ASSERT_TRUE(fx.fs->Mkdir("/logs", 0).ok());
  EXPECT_EQ(fx.fs->Mkdir("/media", 0).code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(fx.fs->Mkdir("/nope/sub", 0).code(), ErrorCode::kNotFound);

  auto root = fx.fs->ReadDir("/", 0);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->size(), 2u);
  auto media = fx.fs->ReadDir("/media", 0);
  ASSERT_TRUE(media.ok());
  ASSERT_EQ(media->size(), 1u);
  EXPECT_EQ((*media)[0].name, "videos");
  EXPECT_TRUE((*media)[0].is_directory);
}

TEST(ExofsTest, FileWriteReadRoundTrip) {
  ExofsFixture fx;
  ASSERT_TRUE(fx.fs->MkFs(5 << 20, 0).ok());
  ASSERT_TRUE(fx.fs->Mkdir("/data", 0).ok());

  auto content = fx.Bytes("hello object storage; exofs stores files as user objects");
  ASSERT_TRUE(fx.fs->WriteFile("/data/greeting.txt", content, content.size(), 0).ok());

  auto read = fx.fs->ReadFile("/data/greeting.txt", 0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, content);

  auto ent = fx.fs->Lookup("/data/greeting.txt", 0);
  ASSERT_TRUE(ent.ok());
  EXPECT_FALSE(ent->is_directory);
  EXPECT_EQ(ent->size, content.size());
  // The file lives as a user object above the reserved OID range.
  EXPECT_GE(ent->object.oid, 0x20000u);
}

TEST(ExofsTest, OverwriteUpdatesSize) {
  ExofsFixture fx;
  ASSERT_TRUE(fx.fs->MkFs(5 << 20, 0).ok());
  auto small = fx.Bytes("v1");
  auto big = fx.Bytes(std::string(3000, 'x'));
  ASSERT_TRUE(fx.fs->WriteFile("/f", small, small.size(), 0).ok());
  ASSERT_TRUE(fx.fs->WriteFile("/f", big, big.size(), 0).ok());
  auto read = fx.fs->ReadFile("/f", 0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, big);
  EXPECT_EQ(fx.fs->Lookup("/f", 0)->size, big.size());
}

TEST(ExofsTest, UnlinkSemantics) {
  ExofsFixture fx;
  ASSERT_TRUE(fx.fs->MkFs(5 << 20, 0).ok());
  ASSERT_TRUE(fx.fs->Mkdir("/d", 0).ok());
  auto c = fx.Bytes("x");
  ASSERT_TRUE(fx.fs->WriteFile("/d/f", c, 1, 0).ok());

  // Non-empty directory is protected.
  EXPECT_EQ(fx.fs->Unlink("/d", 0).code(), ErrorCode::kInvalidArgument);
  ASSERT_TRUE(fx.fs->Unlink("/d/f", 0).ok());
  EXPECT_EQ(fx.fs->ReadFile("/d/f", 0).code(), ErrorCode::kNotFound);
  ASSERT_TRUE(fx.fs->Unlink("/d", 0).ok());
  EXPECT_EQ(fx.fs->ReadDir("/d", 0).code(), ErrorCode::kNotFound);
  EXPECT_EQ(fx.fs->Unlink("/never", 0).code(), ErrorCode::kNotFound);
}

TEST(ExofsTest, PathValidation) {
  ExofsFixture fx;
  ASSERT_TRUE(fx.fs->MkFs(5 << 20, 0).ok());
  EXPECT_EQ(fx.fs->Mkdir("relative/path", 0).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(fx.fs->Mkdir("/bad name", 0).code(), ErrorCode::kInvalidArgument);
  auto root = fx.fs->Lookup("/", 0);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->object, kRootDirectoryObject);
}

TEST(ExofsTest, NamespaceSurvivesRemount) {
  ExofsFixture fx;
  ASSERT_TRUE(fx.fs->MkFs(5 << 20, 0).ok());
  ASSERT_TRUE(fx.fs->Mkdir("/a", 0).ok());
  auto c = fx.Bytes("persistent");
  ASSERT_TRUE(fx.fs->WriteFile("/a/f", c, c.size(), 0).ok());

  ExofsClient again(*fx.initiator,
                    [&](uint64_t l) { return fx.stripes->PhysicalSize(l); });
  ASSERT_TRUE(again.Mount(0).ok());
  auto read = again.ReadFile("/a/f", 0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, c);
  // OID allocation continues past existing objects.
  ASSERT_TRUE(again.WriteFile("/a/g", c, c.size(), 0).ok());
  EXPECT_NE(again.Lookup("/a/g", 0)->object, again.Lookup("/a/f", 0)->object);
}

TEST(ExofsTest, MetadataSurvivesDeviceFailures) {
  // The superblock and directories are Class-0-style metadata — but here
  // they are written unclassified (cold). The *reserved* superblock and
  // root directory objects written by MkFs land on the data plane like
  // any object; protect them by classifying as metadata first.
  ExofsFixture fx;
  ASSERT_TRUE(fx.fs->MkFs(5 << 20, 0).ok());
  for (ObjectId id : {kSuperBlockObject, kRootDirectoryObject}) {
    EXPECT_EQ(fx.initiator->SetClassId(id, 0, 0), SenseCode::kOk);
  }
  ASSERT_TRUE(fx.array->FailDevice(0).ok());
  (void)fx.stripes->OnDeviceFailure(0);

  ExofsClient again(*fx.initiator,
                    [&](uint64_t l) { return fx.stripes->PhysicalSize(l); });
  EXPECT_TRUE(again.Mount(0).ok());
  EXPECT_TRUE(again.ReadDir("/", 0).ok());
}

TEST(ExofsTest, ManyFilesStressNamespace) {
  ExofsFixture fx;
  ASSERT_TRUE(fx.fs->MkFs(5 << 20, 0).ok());
  ASSERT_TRUE(fx.fs->Mkdir("/bulk", 0).ok());
  for (int i = 0; i < 40; ++i) {
    auto c = fx.Bytes("file-" + std::to_string(i));
    ASSERT_TRUE(fx.fs->WriteFile("/bulk/f" + std::to_string(i), c, c.size(), 0).ok())
        << i;
  }
  auto dir = fx.fs->ReadDir("/bulk", 0);
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(dir->size(), 40u);
  for (int i = 0; i < 40; i += 7) {
    auto read = fx.fs->ReadFile("/bulk/f" + std::to_string(i), 0);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, fx.Bytes("file-" + std::to_string(i)));
  }
}

}  // namespace
}  // namespace reo

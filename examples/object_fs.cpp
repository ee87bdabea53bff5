// Object filesystem demo: the paper's Fig 1(b) stack — applications above
// an exofs-like filesystem whose files, directories, superblock all live
// as user objects on the differentiated-redundancy OSD.
//
//   $ ./build/examples/object_fs
#include <cstdio>

#include "flash/flash_array.h"
#include "node/node_stack.h"
#include "osd/exofs.h"

using namespace reo;

int main() {
  // Substrate: 5 devices, Reo policy, OSD target + initiator session.
  auto node = NodeStack::Open({
      .device = {.capacity_bytes = 64ULL << 20},
      .stripes = {.chunk_logical_bytes = 16 * 1024},
      .policy = {.mode = ProtectionMode::kReo, .reo_reserve_fraction = 0.3},
  });
  if (!node.ok()) return 1;
  FlashArray& array = (*node)->array();
  StripeManager& stripes = (*node)->stripes();
  OsdInitiator initiator((*node)->target());
  ExofsClient fs(initiator, [&](uint64_t l) { return stripes.PhysicalSize(l); });

  if (!fs.MkFs(array.total_capacity_bytes(), 0).ok()) {
    std::printf("mkfs failed\n");
    return 1;
  }
  // Protect the filesystem metadata like Reo protects Class 0.
  for (ObjectId id : {kSuperBlockObject, kRootDirectoryObject}) {
    (void)initiator.SetClassId(id, 0, 0);
  }

  std::printf("object_fs: exofs over a Reo OSD\n");
  (void)fs.Mkdir("/movies", 0);
  (void)fs.Mkdir("/movies/drafts", 0);
  std::string body(100'000, 'm');
  (void)fs.WriteFile("/movies/pilot.mp4",
                     {reinterpret_cast<const uint8_t*>(body.data()), body.size()},
                     body.size(), 0);

  auto listing = fs.ReadDir("/movies", 0);
  if (listing.ok()) {
    std::printf("  /movies:\n");
    for (const auto& e : *listing) {
      std::printf("    %c %-12s oid=0x%llx size=%llu\n",
                  e.is_directory ? 'd' : '-', e.name.c_str(),
                  static_cast<unsigned long long>(e.object.oid),
                  static_cast<unsigned long long>(e.size));
    }
  }

  // A device dies; the replicated metadata keeps the namespace alive.
  (void)array.FailDevice(1);
  (void)stripes.OnDeviceFailure(1);
  ExofsClient remount(initiator, [&](uint64_t l) { return stripes.PhysicalSize(l); });
  bool ok = remount.Mount(0).ok() && remount.ReadDir("/movies", 0).ok();
  std::printf("  after device failure: namespace %s\n",
              ok ? "still mountable (Class-0 replication)" : "LOST");

  auto file = remount.ReadFile("/movies/pilot.mp4", 0);
  std::printf("  file data: %s\n",
              file.ok() ? "readable" : "lost (was cold/unprotected)");
  return 0;
}

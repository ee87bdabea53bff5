// Object-space partitioning for the sharded server: which shard owns
// which object, which commands touch one shard, and which must fan out
// to all of them.
//
// The partition function is a pure hash of the (PID, OID) pair — the
// same ObjectIdHash the in-memory indexes use — so placement is stable
// across restarts, needs no directory state, and any party (server,
// simulator, load generator) computes it independently and agrees.
//
// Routing is command-aware, not just id-aware: RouteCommand
// (osd/command_route.h) decides which object's owner executes a command
// or that every shard must, the same rule the cluster client uses across
// nodes; the server merges fan-out replies with MergeFanOutResponses().
#pragma once

#include <cstddef>

#include "common/object_id.h"
#include "osd/command_route.h"

namespace reo {

/// Where one command executes: a single shard, or all of them.
struct ShardRoute {
  bool fan_out = false;
  size_t shard = 0;  ///< owning shard; meaningful only when !fan_out
};

class ShardRouter {
 public:
  explicit ShardRouter(size_t num_shards)
      : num_shards_(num_shards == 0 ? 1 : num_shards) {}

  size_t num_shards() const { return num_shards_; }

  /// Owning shard of an object id (stable hash partition).
  size_t ShardOf(ObjectId id) const {
    return ObjectIdHash{}(id) % num_shards_;
  }

  /// Routing decision for one decoded command (see file comment).
  ShardRoute RouteOf(const OsdCommand& cmd) const;

 private:
  size_t num_shards_;
};

}  // namespace reo

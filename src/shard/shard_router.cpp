#include "shard/shard_router.h"

namespace reo {

ShardRoute ShardRouter::RouteOf(const OsdCommand& cmd) const {
  CommandRoute route = RouteCommand(cmd);
  if (route.fan_out) return ShardRoute{true, 0};
  return ShardRoute{false, ShardOf(route.key)};
}

}  // namespace reo

#include "osd/command_route.h"

#include <algorithm>
#include <variant>

namespace reo {

CommandRoute RouteControl(std::span<const uint8_t> message) {
  auto msg = DecodeControlMessage(message);
  if (!msg.ok()) return CommandRoute{.key = kControlObject};
  CommandRoute route{.control = *msg};
  if (const auto* set = std::get_if<SetIdCommand>(&*msg)) {
    route.key = set->target;
  } else if (const auto* hint = std::get_if<OwnerHintCommand>(&*msg)) {
    // Owner hints live with the object, so a later write of the same id
    // (the refetch) lands where the hint is.
    route.key = hint->target;
  } else if (const auto* q = std::get_if<QueryCommand>(&*msg)) {
    // A query of the control object itself asks for recovery state:
    // reconstruction may be running on any member, so ask them all.
    route.fan_out = q->target == kControlObject;
    route.key = q->target;
  } else {
    // #NODEDOWN#: every member's directory holds a slice of the hints.
    route.fan_out = true;
  }
  return route;
}

OsdResponse MergeFanOutResponses(std::span<OsdResponse> parts) {
  OsdResponse merged;
  for (OsdResponse& part : parts) {
    if (merged.sense == SenseCode::kOk && part.sense != SenseCode::kOk) {
      merged.sense = part.sense;
    }
    merged.complete = std::max(merged.complete, part.complete);
    merged.degraded = merged.degraded || part.degraded;
    merged.list.insert(merged.list.end(), part.list.begin(), part.list.end());
  }
  std::sort(merged.list.begin(), merged.list.end());
  merged.list.erase(std::unique(merged.list.begin(), merged.list.end()),
                    merged.list.end());
  return merged;
}

}  // namespace reo

// Command decisions shared by every party that splits one OSD namespace
// across several targets: the sharded server (one target per shard), the
// cluster client (one node per ring owner) and the socket client's retry
// path. Each rule is written once, here.
//
//   * IdempotentRead: replaying the command changes nothing, so a client
//     may resend it after a lost connection or on another replica.
//   * RouteCommand: which object's owner executes a command, or whether
//     it must execute everywhere. Data ops route by cmd.id. Control
//     writes to the reserved communication object (§IV.C.2) route by the
//     target embedded IN the message: a "#SETID#", "#OWNER#" or
//     per-object "#QUERY#" executes next to that object, while
//     "#NODEDOWN#" and a query of the control object itself (recovery
//     state) fan out. Namespace ops whose effect or answer spans every
//     member (FORMAT, partition / collection create-remove, LIST) fan out.
//   * MergeFanOutResponses: the one response a fan-out returns.
#pragma once

#include <optional>
#include <span>

#include "osd/control_protocol.h"
#include "osd/osd_channel.h"

namespace reo {

/// Safe to resend blindly: re-executing on a target changes nothing.
inline bool IdempotentRead(OsdOp op) {
  return op == OsdOp::kRead || op == OsdOp::kGetAttr || op == OsdOp::kList ||
         op == OsdOp::kListCollection;
}

/// Must execute on every member: each one holds a slice of every
/// partition and collection.
inline bool NamespaceWide(OsdOp op) {
  return op == OsdOp::kFormat || op == OsdOp::kCreatePartition ||
         op == OsdOp::kCreateCollection || op == OsdOp::kRemoveCollection ||
         op == OsdOp::kList || op == OsdOp::kListCollection;
}

/// Where one command executes (see file comment).
struct CommandRoute {
  bool fan_out = false;  ///< every member executes it; merge the responses
  ObjectId key;          ///< the object whose owner executes it (!fan_out)
  /// The decoded message of a well-formed control write. Routing by `key`
  /// is the default; a caller with its own placement rule for a message
  /// kind (the cluster's owner-successor rule for hints) reads it here.
  std::optional<ControlMessage> control;
};

/// Routing of a control write, decoded from its payload. A malformed
/// message routes to the control object's own home: any member rejects
/// it identically, so the choice only needs to be deterministic.
CommandRoute RouteControl(std::span<const uint8_t> message);

/// Routing of any command. Data ops decode nothing and never allocate.
inline CommandRoute RouteCommand(const OsdCommand& cmd) {
  if (NamespaceWide(cmd.op)) return CommandRoute{.fan_out = true};
  if (cmd.op == OsdOp::kWrite && cmd.id == kControlObject) {
    return RouteControl(cmd.data);
  }
  return CommandRoute{.key = cmd.id};
}

/// Merges the per-member responses of a fan-out command into the single
/// response the client sees:
///   * sense: the first non-OK sense in `parts` order — a fan-out
///     succeeds only if every member succeeded, and the recovery-state
///     query reports 0x65 if ANY member is reconstructing;
///   * complete: the latest completion time;
///   * degraded: true if any part was degraded;
///   * list: the union of the per-member lists, sorted and deduplicated
///     so the merged LIST answer is deterministic.
OsdResponse MergeFanOutResponses(std::span<OsdResponse> parts);

}  // namespace reo

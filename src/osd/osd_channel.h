// The OSD command, its response, and the channel that carries one to a
// target and the other back.
//
// Paper §V puts every cache-manager command through the osd-initiator,
// whatever sits between it and the osd-target. OsdChannel is that
// "whatever": one round trip of one command. OsdInitiator builds typed
// commands and sends them down a channel; four channels exist:
//
//   OsdTarget         in-process: Roundtrip forwards to Execute;
//   OsdTransport      serialized bytes over a modeled network link;
//   SocketInitiator   framed bytes over TCP to one ShardedServer;
//   ClusterInitiator  consistent-hash routing over per-node sockets.
//
// Every implementation is `final`, so a caller holding the concrete type
// (ShardedServer calling OsdTarget::Execute) pays no virtual dispatch.
#pragma once

#include <cstdint>
#include <vector>

#include "common/buffer.h"
#include "common/object_id.h"
#include "common/sim_clock.h"
#include "osd/attribute_store.h"
#include "osd/sense.h"

namespace reo {

/// OSD command opcodes (the subset of OSD-2 Reo exercises).
enum class OsdOp : uint8_t {
  kFormat,
  kCreatePartition,
  kCreate,
  kWrite,
  kRead,
  kRemove,
  kSetAttr,
  kGetAttr,
  kList,
  kCreateCollection,
  kRemoveCollection,
  kListCollection,
};

/// One CDB-equivalent command.
struct OsdCommand {
  OsdOp op = OsdOp::kRead;
  ObjectId id;
  uint64_t logical_size = 0;          ///< WRITE: user-visible byte count
  std::vector<uint8_t> data;          ///< WRITE payload / control message
  AttributeId attr;                   ///< SET/GET ATTR target
  std::vector<uint8_t> attr_value;    ///< SET_ATTR value
  uint64_t capacity_bytes = 0;        ///< FORMAT
  SimTime now = 0;                    ///< virtual submission time
};

/// Command result.
struct OsdResponse {
  SenseCode sense = SenseCode::kOk;
  SimTime complete = 0;
  bool degraded = false;
  PayloadBuffer data;               ///< READ payload (non-zeroing buffer)
  std::vector<uint8_t> attr_value;  ///< GET_ATTR value
  std::vector<uint64_t> list;       ///< LIST / LIST_COLLECTION oids

  bool ok() const { return sense == SenseCode::kOk; }
};

class OsdChannel {
 public:
  /// Sends one command and waits for its response. Transport failures
  /// surface as a response with a non-OK sense (kFail), never a throw.
  virtual OsdResponse Roundtrip(const OsdCommand& command) = 0;

 protected:
  // Channels are never owned or deleted through this interface.
  ~OsdChannel() = default;
};

}  // namespace reo

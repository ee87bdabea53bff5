// The closed-loop client: connections that each send their next request
// only after the reply to the last one, and the bookkeeping that checks
// every reply against the writes the client made.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "osd/osd_target.h"
#include "report.h"
#include "server/socket_initiator.h"
#include "workload.h"

namespace perfbench {

/// Ops pre-generated per connection; a longer run wraps around.
inline constexpr size_t kStreamOps = 1u << 19;

/// One op as the client saw it. records[seq] is the op with stamp seq.
struct OpRecord {
  uint64_t send_ns = 0;
  uint64_t done_ns = 0;
  Stamp got;  ///< reads: the write whose bytes came back
  uint32_t rank = 0;
  bool write = false;
  bool ok = false;
  bool timed = false;
};

/// One connection, driven by one thread.
struct Worker {
  uint32_t index = 0;
  reo::SocketInitiator client;
  const std::vector<Op>* ops = nullptr;
  std::vector<OpRecord> records;
  uint64_t sense_errors = 0;
  uint64_t verify_errors = 0;
  std::string fatal;
  reo::OsdCommand read_cmd, write_cmd;  ///< reused, so no per-op allocation
};

/// One acked write of a rank, as the client saw it.
struct AckedWrite {
  Stamp stamp;
  uint64_t send_ns = 0;
  uint64_t ack_ns = 0;
};

/// The connections of one load and the inputs they send.
struct Load {
  const WorkloadSpec& spec;
  const std::vector<std::vector<uint8_t>>& payloads;
  const std::vector<int>& cores;  ///< client cores; thread c on c mod n
  std::vector<Worker> workers;
  std::vector<AckedWrite> populated;  ///< indexed by rank
};

/// Runs every worker until `deadline_ns`, thread c pinned to core
/// cores[c mod n], so connections land on the same cores in every run.
/// `timed` marks the ops' records as part of the timed phase.
void RunPhaseAll(Load& load, uint64_t deadline_ns, bool timed);

/// Opens one connection per worker; connection c sends streams[c].
reo::Status Connect(Load& load, const std::vector<std::vector<Op>>& streams,
                    uint16_t port);
void CloseAll(Load& load);

/// FORMAT, then CREATE, SETID (class-cycling workloads) and WRITE for
/// every object, recording each populate write's send and ack times.
reo::Status Populate(Load& load, uint16_t port);

/// Every acked write, findable by its stamp. Per rank, the ack times in
/// order with the running maximum of the send times: a write w is
/// superseded at time t when some write sent after w's ack was itself
/// acked before t.
class History {
 public:
  explicit History(const Load& load);

  /// The acked write of `rank` that `s` names; nullopt if there is none.
  std::optional<AckedWrite> Find(uint32_t rank, const Stamp& s) const;

  /// Whether `w` is still the latest write of its object at time `t`.
  bool Current(const AckedWrite& w, uint64_t t) const;

 private:
  const Load& load_;
  /// Per rank: (ack, running max of send) pairs in ack order.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> by_rank_;
};

/// Counts every failed op of a load into `report`: sense errors, byte
/// mismatches, wire errors, and reads that returned an unknown or
/// superseded write. `phase` names the load in the messages.
void CheckLoad(const Load& load, const char* phase, Report& report);

}  // namespace perfbench

// The benchmark's workloads and the seeded inputs they run on.
//
// Everything a run sends is generated from --seed before the clock starts:
// one op stream per connection and one base payload per object. A write's
// payload is its object's base payload with a 16-byte stamp in front that
// names the write, so any read can be checked byte for byte and traced to
// the write it returned.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/object_id.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  uint32_t shards = 1;         ///< reo_server --shards
  double write_ratio = 0.1;
  bool class_cycle = false;    ///< populate classifies rank r as r % 4
  uint32_t objects = 300;
  uint64_t object_bytes = 64 * 1024;
  double zipf_skew = 0.9;
  uint32_t connections = 4;
};

/// The named workload; nullopt for an unknown name.
std::optional<WorkloadSpec> FindWorkload(std::string_view name);
/// All workload names, for usage text.
std::vector<std::string> WorkloadNames();

/// Redundancy class populate assigns to `rank`; -1 = left unclassified.
int ClassOfRank(const WorkloadSpec& spec, uint32_t rank);

reo::ObjectId IdForRank(uint32_t rank);

/// One operation: a read or a write of one object.
struct Op {
  uint32_t rank = 0;
  bool write = false;
  friend bool operator==(const Op&, const Op&) = default;
};

/// Op stream of connection `conn`: Zipf-popular ranks, writes with
/// probability write_ratio. Deterministic in (spec, seed, conn).
std::vector<Op> GenerateOps(const WorkloadSpec& spec, uint64_t seed,
                            uint32_t conn, size_t count);

/// Base payload of every object, deterministic in (spec, seed).
std::vector<std::vector<uint8_t>> GeneratePayloads(const WorkloadSpec& spec,
                                                   uint64_t seed);

/// Names one write: which connection sent it and its index in that
/// connection's stream. Populate writes use kPopulateWriter.
struct Stamp {
  uint32_t rank = 0;
  uint32_t writer = 0;
  uint64_t seq = 0;
  friend bool operator==(const Stamp&, const Stamp&) = default;
};
inline constexpr uint32_t kPopulateWriter = 0xffffffffu;
inline constexpr size_t kStampBytes = 16;

/// Writes `base` with `stamp` in its first kStampBytes into `out`
/// (resized to base.size()).
void StampPayload(std::span<const uint8_t> base, const Stamp& stamp,
                  std::vector<uint8_t>* out);

/// Checks that `got` is `base` under some stamp for `rank` and returns
/// that stamp; nullopt on any byte mismatch (the server may pad past the
/// logical size; only the logical prefix is compared).
std::optional<Stamp> CheckPayload(std::span<const uint8_t> base,
                                  uint32_t rank,
                                  std::span<const uint8_t> got);

}  // namespace perfbench

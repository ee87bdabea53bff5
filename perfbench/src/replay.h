// The traced in-process replay: the per-layer half of the benchmark.
//
// Replays an op stream through the same public functions the serving path
// calls, in one thread and without sockets, timing each call:
//
//   client build -> EncodeCommand+EncodeFrame -> FrameDecoder+DecodeCommand
//   -> OsdTarget::Execute (DataPlane calls timed by a decorator inside)
//   -> EncodeResponseParts+frame trailer -> FrameDecoder+DecodeResponse
//   -> client verify
//
// Each boundary takes one clock read, so the spans of one op tile its
// wall time; what the spans miss is loop glue, reported as the
// unattributed share. The same ops also run untraced, and the difference
// in wall time is the tracing overhead. The stripe layer (array, EC,
// flash) and the persistence layer are then driven directly with the
// same ops, each write through every redundancy level and both commit
// paths, and every object gets one class change through #SETID#.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

/// Spans' self times may miss at most this share of the traced wall time.
inline constexpr double kSelfSumTolerance = 0.05;

/// Mean of a span over its samples.
struct SpanMean {
  double total_us = 0.0;
  uint64_t count = 0;
  double mean_us() const {
    return count ? total_us / static_cast<double>(count) : 0.0;
  }
};

struct ReplayResult {
  uint64_t ops = 0;

  // Per-op spans of the traced pass (means over the ops that ran them).
  SpanMean client_build, req_encode, req_decode, execute_read, execute_write,
      osd_self, resp_encode, resp_decode, client_verify;
  SpanMean dp_read, dp_write;
  SpanMean dp_set_class;  ///< one #SETID# class change per object

  double traced_wall_us_per_op = 0.0;
  double self_sum_us_per_op = 0.0;
  double untimed_wall_us_per_op = 0.0;  ///< mean of the two untraced passes
  double tracing_overhead_us_per_op() const {
    return traced_wall_us_per_op - untimed_wall_us_per_op;
  }
  double unattributed_share() const {
    return traced_wall_us_per_op > 0.0
               ? (traced_wall_us_per_op - self_sum_us_per_op) /
                     traced_wall_us_per_op
               : 0.0;
  }

  // Direct drives of the lower layers.
  SpanMean stripe_put_none, stripe_put_parity, stripe_put_replica,
      stripe_get;
  SpanMean persist_sync, persist_group;  ///< each write through both paths

  uint64_t failures = 0;  ///< sense errors and verify mismatches
  std::string error;      ///< first failure, for the report
};

/// Replays `ops` (already interleaved across connections; op i of
/// connection c is stamped (c, seq)) after populating the workload's
/// objects. `work_dir` holds the persistence layer's files.
ReplayResult RunReplay(const WorkloadSpec& spec,
                       const std::vector<std::vector<uint8_t>>& payloads,
                       const std::vector<Op>& ops,
                       const std::vector<Stamp>& stamps,
                       const std::string& work_dir);

}  // namespace perfbench

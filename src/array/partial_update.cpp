// In-place partial updates with parity maintenance (paper §II.B).
//
// Updating a data chunk invalidates the parity of its stripe. Two repair
// strategies exist: *direct* (read the sibling data chunks, re-encode) and
// *delta* (read the old data + old parity, apply P' = P + g*(D' ^ D)).
// Following the paper, each chunk update uses whichever incurs fewer chunk
// reads. Replicated stripes simply rewrite every copy.
#include <algorithm>

#include "array/stripe_manager.h"

namespace reo {

Result<ParityUpdateCost> StripeManager::UpdateCostOf(ObjectId id) const {
  auto it = objects_.find(id);
  if (it == objects_.end()) return Status{ErrorCode::kNotFound, "no such object"};
  auto sit = stripes_.find(it->second.stripes.front());
  REO_CHECK(sit != stripes_.end());
  return ComputeUpdateCost(sit->second.data.size(), sit->second.redundancy.size());
}

Result<ArrayIo> StripeManager::UpdateObjectRange(ObjectId id, uint64_t offset,
                                                 std::span<const uint8_t> data,
                                                 SimTime now) {
  auto it = objects_.find(id);
  if (it == objects_.end()) return Status{ErrorCode::kNotFound, "no such object"};
  ObjectEntry& entry = it->second;
  uint64_t extent = PhysicalSize(entry.logical_size);
  if (data.empty()) return ArrayIo{.complete = now};
  if (offset + data.size() > extent) {
    return Status{ErrorCode::kInvalidArgument, "range beyond object extent"};
  }

  // Map the touched physical chunk range onto (stripe, data position).
  uint64_t first_chunk = offset / chunk_physical_;
  uint64_t last_chunk = (offset + data.size() - 1) / chunk_physical_;
  struct Touched {
    StripeId sid;
    uint32_t pos;  // data position within the stripe
  };
  std::vector<Touched> touched;
  {
    uint64_t base = 0;  // first object-chunk index of the current stripe
    for (StripeId sid : entry.stripes) {
      auto sit = stripes_.find(sid);
      REO_CHECK(sit != stripes_.end());
      uint64_t count = sit->second.data.size();
      for (uint64_t ci = std::max(base, first_chunk);
           ci < base + count && ci <= last_chunk; ++ci) {
        touched.push_back({sid, static_cast<uint32_t>(ci - base)});
      }
      base += count;
      if (base > last_chunk) break;
    }
  }

  ArrayIo io;
  io.complete = now;

  auto read_slot = [&](const StripeChunk& c) -> Result<std::vector<uint8_t>> {
    auto buf = array_.device(c.device).ReadSlot(c.slot);
    if (!buf.ok()) return buf.status();
    io.complete = std::max(
        io.complete, array_.device(c.device).SubmitIo(now, c.logical_bytes, false));
    ++io.chunk_reads;
    return std::vector<uint8_t>(buf->begin(), buf->end());
  };
  auto write_slot = [&](const StripeChunk& c,
                        std::span<const uint8_t> buf) -> Status {
    Status st = array_.device(c.device).WriteSlot(c.slot, buf);
    if (!st.ok()) return st;
    io.complete = std::max(
        io.complete, array_.device(c.device).SubmitIo(now, c.logical_bytes, true));
    ++io.chunk_writes;
    return Status::Ok();
  };

  for (const Touched& t : touched) {
    auto sit = stripes_.find(t.sid);
    REO_CHECK(sit != stripes_.end());
    Stripe& stripe = sit->second;
    if (stripe.lost_count() > 0) {
      return Status{ErrorCode::kUnavailable,
                    "stripe has lost chunks; rebuild before updating"};
    }
    StripeChunk& chunk = stripe.data[t.pos];

    // Object-chunk index of this data chunk, to slice the update range.
    uint64_t ci = chunk.owner_chunk_index;
    uint64_t chunk_begin = ci * chunk_physical_;
    uint64_t lo = std::max<uint64_t>(offset, chunk_begin);
    uint64_t hi = std::min<uint64_t>(offset + data.size(),
                                     chunk_begin + chunk_physical_);
    REO_CHECK(lo < hi);

    // Read-modify-write the chunk content (the old bytes are also the
    // delta input, so this read serves both purposes).
    auto old_data = read_slot(chunk);
    if (!old_data.ok()) return old_data.status();
    std::vector<uint8_t> new_data = *old_data;
    std::copy(data.begin() + static_cast<long>(lo - offset),
              data.begin() + static_cast<long>(hi - offset),
              new_data.begin() + static_cast<long>(lo - chunk_begin));

    if (stripe.level == RedundancyLevel::kReplicate) {
      REO_RETURN_IF_ERROR(write_slot(chunk, new_data));
      for (StripeChunk& replica : stripe.redundancy) {
        REO_RETURN_IF_ERROR(write_slot(replica, new_data));
      }
      continue;
    }

    size_t m = stripe.data.size();
    size_t k = stripe.redundancy.size();
    if (k == 0) {
      REO_RETURN_IF_ERROR(write_slot(chunk, new_data));
      continue;
    }

    const RsCode& code = CodeFor(m, k);
    // §II.B: pick the method with the fewest chunk reads. The old-data
    // read above is shared by both paths, so compare the *extra* reads:
    // direct needs the m-1 siblings; delta needs the k old parity chunks.
    bool use_delta = k <= m - 1;
    if (use_delta) {
      for (size_t p = 0; p < k; ++p) {
        StripeChunk& parity = stripe.redundancy[p];
        auto old_parity = read_slot(parity);
        if (!old_parity.ok()) return old_parity.status();
        ApplyDeltaUpdate(code, p, t.pos, *old_data, new_data, *old_parity);
        REO_RETURN_IF_ERROR(write_slot(parity, *old_parity));
      }
      REO_RETURN_IF_ERROR(write_slot(chunk, new_data));
    } else {
      // Direct: gather all data chunks (with the update applied) and
      // re-encode every parity chunk.
      std::vector<std::vector<uint8_t>> bufs(m);
      for (size_t d = 0; d < m; ++d) {
        if (d == t.pos) {
          bufs[d] = new_data;
          continue;
        }
        auto sibling = read_slot(stripe.data[d]);
        if (!sibling.ok()) return sibling.status();
        bufs[d] = std::move(*sibling);
      }
      std::vector<std::span<const uint8_t>> dspans(bufs.begin(), bufs.end());
      REO_RETURN_IF_ERROR(write_slot(chunk, new_data));
      // EncodeParity overwrites every byte, so one scratch buffer serves
      // all k parity chunks.
      PayloadBuffer parity(static_cast<size_t>(chunk_physical_));
      for (size_t p = 0; p < k; ++p) {
        code.EncodeParity(p, dspans, parity);
        REO_RETURN_IF_ERROR(write_slot(stripe.redundancy[p], parity));
      }
    }
  }
  return io;
}

}  // namespace reo

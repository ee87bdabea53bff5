#include "array/stripe_manager.h"

#include <algorithm>

#include "common/crc32c.h"

namespace reo {

namespace {
constexpr uint64_t kMinPhysicalChunk = 16;

uint64_t ChunkCount(uint64_t logical, uint64_t chunk_logical) {
  if (logical == 0) return 1;
  return (logical + chunk_logical - 1) / chunk_logical;
}
}  // namespace

StripeManager::StripeManager(FlashArray& array, StripeManagerConfig config)
    : array_(array), config_(config) {
  REO_CHECK(config_.chunk_logical_bytes > 0);
  chunk_physical_ =
      std::max<uint64_t>(config_.chunk_logical_bytes >> config_.scale_shift,
                         kMinPhysicalChunk);
}

uint64_t StripeManager::PhysicalSize(uint64_t logical) const {
  return ChunkCount(logical, config_.chunk_logical_bytes) * chunk_physical_;
}

const RsCode& StripeManager::CodeFor(size_t m, size_t k) {
  uint64_t key = (static_cast<uint64_t>(m) << 16) | k;
  auto it = codes_.find(key);
  if (it == codes_.end()) {
    it = codes_.emplace(key, RsCode(m, k)).first;
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

Result<ArrayIo> StripeManager::PutObject(ObjectId id,
                                         std::span<const uint8_t> payload,
                                         uint64_t logical_bytes,
                                         RedundancyLevel level, SimTime now) {
  if (payload.size() != PhysicalSize(logical_bytes)) {
    return Status{ErrorCode::kInvalidArgument, "payload/logical size mismatch"};
  }
  auto healthy = array_.HealthyDevices();
  if (healthy.empty()) return Status{ErrorCode::kUnavailable, "no healthy devices"};

  // Refuse early if the object obviously cannot fit — avoids a long
  // allocate-then-rollback dance on every admission attempt.
  if (!HasSpaceFor(logical_bytes, level)) {
    return Status{ErrorCode::kNoSpace, "array full"};
  }
  // Overwrite: keep the old copy intact until the new one is fully
  // written, so a failed overwrite cannot destroy previously-acked data.
  // The space check above ran with the old copy still resident, so holding
  // both transiently is already covered by the admission condition.
  ObjectEntry old_entry;
  std::vector<Stripe> old_stripes;
  bool replacing = false;
  if (auto oit = objects_.find(id); oit != objects_.end()) {
    replacing = true;
    old_entry = std::move(oit->second);
    objects_.erase(oit);
    for (StripeId sid : old_entry.stripes) {
      auto sit = stripes_.find(sid);
      REO_CHECK(sit != stripes_.end());
      old_stripes.push_back(std::move(sit->second));
      stripes_.erase(sit);
    }
  }

  size_t width = healthy.size();
  size_t k = RedundantChunkCount(level, width);
  size_t m = level == RedundancyLevel::kReplicate ? 1 : width - k;
  REO_CHECK(m >= 1);

  uint64_t nchunks = ChunkCount(logical_bytes, config_.chunk_logical_bytes);
  ArrayIo io;
  ObjectEntry entry;
  entry.logical_size = logical_bytes;
  entry.level = level;

  uint64_t remaining_logical = logical_bytes == 0 ? 0 : logical_bytes;
  Status failure = Status::Ok();
  for (uint64_t first = 0; first < nchunks; first += m) {
    size_t group = static_cast<size_t>(std::min<uint64_t>(m, nchunks - first));
    std::vector<std::span<const uint8_t>> bufs(group);
    std::vector<uint64_t> logicals(group);
    for (size_t i = 0; i < group; ++i) {
      bufs[i] = payload.subspan((first + i) * chunk_physical_,
                                static_cast<size_t>(chunk_physical_));
      uint64_t l = std::min<uint64_t>(remaining_logical, config_.chunk_logical_bytes);
      if (l == 0) l = 1;  // zero-length objects still occupy one minimal chunk
      logicals[i] = l;
      remaining_logical -= std::min(remaining_logical, config_.chunk_logical_bytes);
    }
    auto done = WriteStripe(id, level, bufs, logicals,
                            static_cast<uint32_t>(first), now, io, entry.stripes);
    if (!done.ok()) {
      failure = done.status();
      break;
    }
    io.complete = std::max(io.complete, *done);
  }

  if (!failure.ok()) {
    // Roll back everything written for this object.
    for (StripeId sid : entry.stripes) {
      auto it = stripes_.find(sid);
      if (it != stripes_.end()) {
        FreeStripe(it->second);
        stripes_.erase(it);
      }
    }
    if (replacing) {
      // Restore the untouched old copy: the overwrite never happened.
      for (auto& s : old_stripes) {
        StripeId sid = s.id;
        stripes_.emplace(sid, std::move(s));
      }
      objects_[id] = std::move(old_entry);
    }
    return failure;
  }

  if (replacing) {
    for (auto& s : old_stripes) FreeStripe(s);
  }
  objects_[id] = std::move(entry);
  return io;
}

Result<SimTime> StripeManager::WriteStripe(
    ObjectId id, RedundancyLevel level,
    std::span<const std::span<const uint8_t>> data_bufs,
    std::span<const uint64_t> data_logical, uint32_t first_chunk_index,
    SimTime now, ArrayIo& io, std::vector<StripeId>& out) {
  auto healthy = array_.HealthyDevices();
  size_t width = healthy.size();
  size_t m = data_bufs.size();
  size_t k = RedundantChunkCount(level, width);
  REO_CHECK(m + k <= width || level == RedundancyLevel::kReplicate);

  StripeId sid = next_stripe_id_++;
  Stripe stripe;
  stripe.id = sid;
  stripe.owner = id;
  stripe.level = level;

  // Parity/replica logical size: the largest member, so accounting reflects
  // what the devices actually reserve.
  uint64_t parity_logical = 0;
  for (uint64_t l : data_logical) parity_logical = std::max(parity_logical, l);

  // Placement: rotating (paper §IV.C.3) spreads both data and parity
  // round-robin by stripe id; age-skewed pins parity on the top devices
  // (Differential-RAID-style uneven aging). Either way every chunk of a
  // stripe lands on a distinct device.
  auto device_at = [&](size_t pos) -> DeviceIndex {
    if (config_.parity_placement == ParityPlacement::kAgeSkewed) {
      if (pos >= m) {
        return healthy[width - 1 - (pos - m)];  // parity slots, fixed
      }
      size_t data_span = width - k > 0 ? width - k : 1;
      return healthy[(static_cast<size_t>(sid) + pos) % data_span];
    }
    return healthy[(static_cast<size_t>(sid) + pos) % width];
  };

  struct Alloc {
    DeviceIndex dev;
    SlotId slot;
  };
  std::vector<Alloc> allocs;
  auto rollback = [&] {
    for (const auto& a : allocs) {
      (void)array_.device(a.dev).FreeSlot(a.slot);
    }
  };

  auto place = [&](size_t pos, uint64_t logical) -> Result<Alloc> {
    DeviceIndex dev = device_at(pos);
    auto slot = array_.device(dev).AllocateSlot(logical);
    if (!slot.ok()) return slot.status();
    Alloc a{dev, *slot};
    allocs.push_back(a);
    return a;
  };

  // Every chunk is checksummed once per distinct buffer: a replicated
  // stripe writes one buffer k + 1 times under the same CRC.
  SimTime done = now;
  auto write_chunk = [&](const Alloc& a, std::span<const uint8_t> buf,
                         uint32_t crc, uint64_t logical) -> Status {
    Status st = array_.device(a.dev).WriteSlot(a.slot, buf, crc);
    if (!st.ok()) return st;
    done = std::max(done, array_.device(a.dev).SubmitIo(now, logical, true));
    ++io.chunk_writes;
    return Status::Ok();
  };

  // Data chunks.
  uint32_t first_crc = 0;
  for (size_t i = 0; i < m; ++i) {
    auto a = place(i, data_logical[i]);
    if (!a.ok()) {
      rollback();
      return a.status();
    }
    uint32_t crc = Crc32c(data_bufs[i]);
    if (i == 0) first_crc = crc;
    Status st = write_chunk(*a, data_bufs[i], crc, data_logical[i]);
    if (!st.ok()) {
      rollback();
      return st;
    }
    stripe.data.push_back(StripeChunk{.kind = ChunkKind::kData,
                                      .device = a->dev,
                                      .slot = a->slot,
                                      .logical_bytes = data_logical[i],
                                      .owner_chunk_index =
                                          first_chunk_index + static_cast<uint32_t>(i)});
  }

  // Redundancy chunks.
  if (level == RedundancyLevel::kReplicate) {
    for (size_t j = 0; j < k; ++j) {
      auto a = place(m + j, parity_logical);
      if (!a.ok()) {
        rollback();
        return a.status();
      }
      Status st = write_chunk(*a, data_bufs[0], first_crc, parity_logical);
      if (!st.ok()) {
        rollback();
        return st;
      }
      stripe.redundancy.push_back(StripeChunk{.kind = ChunkKind::kReplica,
                                              .device = a->dev,
                                              .slot = a->slot,
                                              .logical_bytes = parity_logical});
    }
  } else if (k > 0) {
    const RsCode& code = CodeFor(m, k);
    std::vector<PayloadBuffer> parity(k);  // Encode overwrites every byte
    std::vector<std::span<uint8_t>> pspans;
    pspans.reserve(k);
    for (auto& p : parity) {
      p.resize(static_cast<size_t>(chunk_physical_));
      pspans.emplace_back(p);
    }
    code.Encode(data_bufs, pspans);
    for (size_t j = 0; j < k; ++j) {
      auto a = place(m + j, parity_logical);
      if (!a.ok()) {
        rollback();
        return a.status();
      }
      Status st = write_chunk(*a, parity[j], Crc32c(parity[j]), parity_logical);
      if (!st.ok()) {
        rollback();
        return st;
      }
      stripe.redundancy.push_back(StripeChunk{.kind = ChunkKind::kParity,
                                              .device = a->dev,
                                              .slot = a->slot,
                                              .logical_bytes = parity_logical});
    }
  }

  // Commit accounting.
  for (uint64_t l : data_logical) user_bytes_ += l;
  uint64_t red = static_cast<uint64_t>(stripe.redundancy.size()) * parity_logical;
  redundancy_bytes_ += red;
  redundancy_by_level_[static_cast<size_t>(level)] += red;
  out.push_back(sid);
  stripes_.emplace(sid, std::move(stripe));
  return done;
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

Status StripeManager::ReadChunk(const Stripe& stripe, const StripeChunk& chunk,
                                std::span<uint8_t> out, SimTime now,
                                ArrayIo& io) {
  (void)stripe;
  auto data = array_.device(chunk.device).ReadSlot(chunk.slot);
  if (!data.ok()) return data.status();
  if (data->size() != out.size()) {
    return {ErrorCode::kCorrupted, "chunk size mismatch"};
  }
  std::copy(data->begin(), data->end(), out.begin());
  io.complete = std::max(
      io.complete,
      array_.device(chunk.device).SubmitIo(now, chunk.logical_bytes, false));
  ++io.chunk_reads;
  return Status::Ok();
}

void StripeManager::MarkChunkLost(StripeChunk& chunk) {
  (void)array_.device(chunk.device).FreeSlot(chunk.slot);
  chunk.lost = true;
  // Every MarkChunkLost call is a CRC failure found on a live read path
  // (device loss goes through OnDeviceFailure instead).
  Inc(tel_crc_detected_);
}

void StripeManager::AttachTelemetry(MetricRegistry& registry) {
  tel_scrub_passes_ = &registry.GetCounter("scrub.passes");
  tel_scrub_scanned_ = &registry.GetCounter("scrub.chunks_scanned");
  tel_scrub_corrupt_ = &registry.GetCounter("scrub.corrupt_found");
  tel_scrub_repaired_ = &registry.GetCounter("scrub.chunks_repaired");
  tel_scrub_lost_ = &registry.GetCounter("scrub.lost_objects");
  tel_crc_detected_ = &registry.GetCounter("fault.crc_detected");
}

Status StripeManager::DecodeStripe(
    Stripe& stripe, std::unordered_map<uint32_t, PayloadBuffer>& decoded,
    SimTime now, ArrayIo& io) {
  if (!stripe.recoverable()) {
    return {ErrorCode::kUnrecoverable, "stripe lost beyond parity"};
  }
  size_t m = stripe.data.size();
  TraceSpan span(trace_recon_, TraceOp::kStripeDecode, now);

  // Reads a survivor; latent corruption marks the chunk lost (read-repair
  // semantics) and reports kCorrupted so the caller tries the next one.
  auto read_survivor =
      [&](StripeChunk& c) -> Result<std::span<const uint8_t>> {
    auto buf = array_.device(c.device).ReadSlot(c.slot);
    io.complete = std::max(
        io.complete, array_.device(c.device).SubmitIo(now, c.logical_bytes, false));
    span.Cover(io.complete);
    ++io.chunk_reads;
    if (!buf.ok()) {
      if (buf.status().code() == ErrorCode::kCorrupted) {
        MarkChunkLost(c);
        ++io.corrupt_chunks;
      }
      return buf.status();
    }
    return *buf;
  };

  if (stripe.level == RedundancyLevel::kReplicate) {
    // Any surviving copy serves all lost positions (there is one data pos).
    for (auto* chunks : {&stripe.data, &stripe.redundancy}) {
      for (auto& c : *chunks) {
        if (c.lost) continue;
        auto data = read_survivor(c);
        if (!data.ok()) continue;  // corrupt copy marked lost; try next
        for (uint32_t i = 0; i < stripe.data.size(); ++i) {
          if (stripe.data[i].lost) {
            decoded[i].assign(data->begin(), data->end());
          }
        }
        return Status::Ok();
      }
    }
    span.set_flags(kSpanError);
    return {ErrorCode::kUnrecoverable, "all replicas lost"};
  }

  size_t k = stripe.redundancy.size();
  const RsCode& code = CodeFor(m, k);

  // Gather m survivors (fragment index order: data 0..m-1, parity m..m+k-1).
  std::vector<std::pair<size_t, std::span<const uint8_t>>> present;
  for (size_t i = 0; i < m && present.size() < m; ++i) {
    StripeChunk& c = stripe.data[i];
    if (c.lost) continue;
    auto buf = read_survivor(c);
    if (buf.ok()) present.emplace_back(i, *buf);
  }
  for (size_t j = 0; j < k && present.size() < m; ++j) {
    StripeChunk& c = stripe.redundancy[j];
    if (c.lost) continue;
    auto buf = read_survivor(c);
    if (buf.ok()) present.emplace_back(m + j, *buf);
  }
  if (present.size() < m) {
    span.set_flags(kSpanError);
    return {ErrorCode::kUnrecoverable, "not enough survivors"};
  }
  std::vector<size_t> missing_data;
  for (size_t i = 0; i < m; ++i) {
    if (stripe.data[i].lost) missing_data.push_back(i);
  }

  std::vector<PayloadBuffer> outs(missing_data.size());  // overwritten
  std::vector<std::span<uint8_t>> out_spans;
  out_spans.reserve(outs.size());
  for (auto& o : outs) {
    o.resize(static_cast<size_t>(chunk_physical_));
    out_spans.emplace_back(o);
  }
  REO_RETURN_IF_ERROR(code.Reconstruct(present, missing_data, out_spans));

  for (size_t i = 0; i < missing_data.size(); ++i) {
    decoded[static_cast<uint32_t>(missing_data[i])] = std::move(outs[i]);
  }
  return Status::Ok();
}

Result<ArrayIo> StripeManager::GetObject(ObjectId id, SimTime now) {
  auto it = objects_.find(id);
  if (it == objects_.end()) return Status{ErrorCode::kNotFound, "no such object"};
  const ObjectEntry& entry = it->second;

  ArrayIo io;
  io.complete = now;
  io.payload.resize(static_cast<size_t>(PhysicalSize(entry.logical_size)));

  size_t out_pos = 0;
  for (StripeId sid : entry.stripes) {
    auto sit = stripes_.find(sid);
    REO_CHECK(sit != stripes_.end());
    Stripe& stripe = sit->second;

    // Serve the stripe, retrying if a direct read exposes latent
    // corruption (the bad chunk is marked lost and parity fills in —
    // read-repair). Each retry removes a chunk, so this terminates.
    Status stripe_status = Status::Ok();
    for (size_t attempt = 0; attempt <= stripe.data.size(); ++attempt) {
      stripe_status = Status::Ok();
      std::unordered_map<uint32_t, PayloadBuffer> decoded;
      if (stripe.lost_data_count() > 0) {
        stripe_status = DecodeStripe(stripe, decoded, now, io);
        if (!stripe_status.ok()) break;
        io.degraded = true;
      }
      size_t pos = out_pos;
      bool retry = false;
      for (uint32_t i = 0; i < stripe.data.size(); ++i) {
        std::span<uint8_t> out(io.payload.data() + pos,
                               static_cast<size_t>(chunk_physical_));
        if (stripe.data[i].lost) {
          auto d = decoded.find(i);
          REO_CHECK(d != decoded.end());
          std::copy(d->second.begin(), d->second.end(), out.begin());
        } else {
          Status st = ReadChunk(stripe, stripe.data[i], out, now, io);
          if (st.code() == ErrorCode::kCorrupted) {
            MarkChunkLost(stripe.data[i]);
            ++io.corrupt_chunks;
            retry = true;
            break;
          }
          if (!st.ok()) {
            stripe_status = st;
            break;
          }
        }
        pos += static_cast<size_t>(chunk_physical_);
      }
      if (!retry) break;
    }
    REO_RETURN_IF_ERROR(stripe_status);
    out_pos += stripe.data.size() * static_cast<size_t>(chunk_physical_);
  }
  REO_CHECK(out_pos == io.payload.size());
  return io;
}

// ---------------------------------------------------------------------------
// Remove / re-encode
// ---------------------------------------------------------------------------

void StripeManager::FreeStripe(Stripe& stripe) {
  for (const auto& c : stripe.data) {
    if (!c.lost) (void)array_.device(c.device).FreeSlot(c.slot);
    user_bytes_ -= c.logical_bytes;
  }
  for (const auto& c : stripe.redundancy) {
    if (!c.lost) (void)array_.device(c.device).FreeSlot(c.slot);
    redundancy_bytes_ -= c.logical_bytes;
    redundancy_by_level_[static_cast<size_t>(stripe.level)] -= c.logical_bytes;
  }
}

Status StripeManager::RemoveObject(ObjectId id) {
  auto it = objects_.find(id);
  if (it == objects_.end()) return {ErrorCode::kNotFound, "no such object"};
  for (StripeId sid : it->second.stripes) {
    auto sit = stripes_.find(sid);
    if (sit != stripes_.end()) {
      FreeStripe(sit->second);
      stripes_.erase(sit);
    }
  }
  objects_.erase(it);
  return Status::Ok();
}

Result<ArrayIo> StripeManager::ReencodeObject(ObjectId id, RedundancyLevel level,
                                              SimTime now) {
  auto it = objects_.find(id);
  if (it == objects_.end()) return Status{ErrorCode::kNotFound, "no such object"};
  if (it->second.level == level) return ArrayIo{.complete = now};

  auto read = GetObject(id, now);
  if (!read.ok()) return read.status();
  uint64_t logical = it->second.logical_size;
  RedundancyLevel old_level = it->second.level;

  REO_RETURN_IF_ERROR(RemoveObject(id));
  auto put = PutObject(id, read->payload, logical, level, read->complete);
  if (put.ok()) {
    ArrayIo io = std::move(*put);
    io.degraded = read->degraded;
    io.chunk_reads += read->chunk_reads;
    io.payload.clear();
    return io;
  }
  // Could not fit at the new level — restore the previous encoding so the
  // object is not silently dropped.
  auto restore = PutObject(id, read->payload, logical, old_level, read->complete);
  if (!restore.ok()) {
    // The object is gone; the cache layer treats this as an eviction.
    return Status{ErrorCode::kNoSpace, "re-encode failed and restore failed"};
  }
  return put.status();
}

// ---------------------------------------------------------------------------
// Queries & accounting
// ---------------------------------------------------------------------------

Result<RedundancyLevel> StripeManager::LevelOf(ObjectId id) const {
  auto it = objects_.find(id);
  if (it == objects_.end()) return Status{ErrorCode::kNotFound, "no such object"};
  return it->second.level;
}

Result<uint64_t> StripeManager::LogicalSizeOf(ObjectId id) const {
  auto it = objects_.find(id);
  if (it == objects_.end()) return Status{ErrorCode::kNotFound, "no such object"};
  return it->second.logical_size;
}

ObjectSurvival StripeManager::SurvivalOf(ObjectId id) const {
  auto it = objects_.find(id);
  if (it == objects_.end()) return ObjectSurvival::kLost;
  bool damaged = false;
  for (StripeId sid : it->second.stripes) {
    auto sit = stripes_.find(sid);
    REO_CHECK(sit != stripes_.end());
    const Stripe& s = sit->second;
    if (!s.recoverable()) return ObjectSurvival::kLost;
    if (s.lost_count() > 0) damaged = true;
  }
  return damaged ? ObjectSurvival::kRecoverable : ObjectSurvival::kIntact;
}

std::vector<ObjectId> StripeManager::ListObjects() const {
  std::vector<ObjectId> out;
  out.reserve(objects_.size());
  for (const auto& [id, _] : objects_) out.push_back(id);
  return out;
}

SpaceStats StripeManager::Space() const {
  SpaceStats s;
  s.user_bytes = user_bytes_;
  s.redundancy_bytes = redundancy_bytes_;
  uint64_t cap = 0, used = 0;
  for (DeviceIndex i = 0; i < array_.size(); ++i) {
    const auto& d = array_.device(i);
    if (!d.healthy()) continue;
    cap += d.config().capacity_bytes;
    used += d.used_bytes();
  }
  uint64_t physical_free = cap - used;
  if (config_.capacity_limit_bytes > 0) {
    cap = std::min(cap, config_.capacity_limit_bytes);
    // Logical occupancy counts lost-but-owned chunks too, so a failure
    // does not silently enlarge the budget.
    uint64_t occupied = user_bytes_ + redundancy_bytes_;
    uint64_t budget_free = cap > occupied ? cap - occupied : 0;
    physical_free = std::min(physical_free, budget_free);
  }
  s.capacity_bytes = cap;
  s.free_bytes = physical_free;
  return s;
}

uint64_t StripeManager::FootprintEstimate(uint64_t logical_bytes,
                                          RedundancyLevel level) const {
  size_t width = array_.healthy_count();
  if (width == 0) return logical_bytes;
  size_t k = RedundantChunkCount(level, width);
  size_t m = level == RedundancyLevel::kReplicate ? 1 : width - k;
  uint64_t nchunks = ChunkCount(logical_bytes, config_.chunk_logical_bytes);
  uint64_t nstripes = (nchunks + m - 1) / m;
  return logical_bytes + nstripes * k * config_.chunk_logical_bytes;
}

bool StripeManager::HasSpaceFor(uint64_t logical_bytes,
                                RedundancyLevel level) const {
  return FootprintEstimate(logical_bytes, level) <= Space().free_bytes;
}

}  // namespace reo

#include "core/data_plane.h"

#include <algorithm>

#include "persist/persistence.h"

namespace reo {
namespace {

DataPlaneIo ToDataPlaneIo(ArrayIo io) {
  DataPlaneIo out;
  out.complete = io.complete;
  out.degraded = io.degraded;
  out.payload = std::move(io.payload);
  return out;
}

}  // namespace

ReoDataPlane::ReoDataPlane(StripeManager& stripes, RedundancyPolicy policy)
    : stripes_(stripes), policy_(policy) {
  // Reo-X% reserves X% of the *cache budget* (the configured cache size),
  // which may be far below the raw capacity of the device array.
  uint64_t budget = stripes_.array().total_capacity_bytes();
  if (uint64_t limit = stripes_.config().capacity_limit_bytes; limit > 0) {
    budget = std::min(budget, limit);
  }
  reserve_bytes_ = policy_.ReserveBytes(budget);
}

void ReoDataPlane::AttachTelemetry(MetricRegistry& registry) {
  tel_writes_ = &registry.GetCounter("dataplane.writes");
  tel_reads_ = &registry.GetCounter("dataplane.reads");
  tel_degraded_reads_ = &registry.GetCounter("dataplane.degraded_reads");
  tel_removes_ = &registry.GetCounter("dataplane.removes");
  tel_reclass_ = &registry.GetCounter("dataplane.reencodes");
  tel_reserve_rejections_ = &registry.GetCounter("dataplane.reserve_rejections");
  tel_redundancy_bytes_ = &registry.GetGauge("dataplane.redundancy_bytes");
  tel_user_bytes_ = &registry.GetGauge("dataplane.user_bytes");
  registry.GetGauge("dataplane.reserve_bytes")
      .Set(static_cast<double>(reserve_bytes_));
  tel_retry_attempts_ = &registry.GetCounter("retry.attempts");
  tel_retry_successes_ = &registry.GetCounter("retry.successes");
  tel_retry_exhausted_ = &registry.GetCounter("retry.exhausted");
  tel_crc_repairs_ = &registry.GetCounter("fault.crc_repairs");
  tel_crc_unrepaired_ = &registry.GetCounter("fault.crc_unrepaired");
  stripes_.AttachTelemetry(registry);
}

void ReoDataPlane::AttachTracing(Tracer& tracer) {
  trace_ = &tracer.RecorderFor(TraceComponent::kDataPlane);
  stripes_.AttachTracing(tracer);
}

RedundancyLevel ReoDataPlane::EffectiveLevel(uint64_t logical_bytes,
                                             uint8_t class_id) const {
  auto cls = static_cast<DataClass>(class_id);
  RedundancyLevel level = policy_.LevelFor(cls);
  if (level == RedundancyLevel::kNone || !policy_.ReserveApplies(cls)) {
    return level;
  }
  uint64_t cost =
      stripes_.FootprintEstimate(logical_bytes, level) - logical_bytes;
  if (stripes_.redundancy_bytes() + cost > reserve_bytes_) {
    // Reserve exhausted: store the data unprotected rather than reject it
    // (the paper reports this condition with sense 0x67).
    return RedundancyLevel::kNone;
  }
  return level;
}

void ReoDataPlane::AttachAdmission(AdmissionTier& tier) {
  admit_ = &tier;
  tier.SetFlashWriter([this](ObjectId id, std::span<const uint8_t> payload,
                             uint64_t logical_bytes, uint8_t class_id,
                             SimTime now) -> Status {
    auto io = WriteToFlash(id, payload, logical_bytes, class_id, now);
    return io.ok() ? Status::Ok() : io.status();
  });
}

bool ReoDataPlane::ShouldStage(uint64_t stored_bytes, uint8_t class_id) const {
  return admit_ != nullptr && admit_->enabled() &&
         AdmissionTier::StageableClass(class_id) &&
         admit_->CanHold(stored_bytes) &&
         (persist_ == nullptr || !persist_->replaying());
}

Result<DataPlaneIo> ReoDataPlane::WriteObject(ObjectId id,
                                              std::span<const uint8_t> payload,
                                              uint64_t logical_bytes,
                                              uint8_t class_id, SimTime now) {
  // The in-process simulator hands over exactly PhysicalSize(logical)
  // bytes (chunk-padded, possibly scaled); wire clients naturally send
  // logical-sized payloads. Adapt the latter to the array's chunk
  // geometry here — zero-pad up to the physical footprint (or truncate
  // under a scaled configuration, where payload storage is lossy by
  // design). Any other size mismatch still fails in PutObject.
  std::vector<uint8_t> shaped;
  if (uint64_t physical = stripes_.PhysicalSize(logical_bytes);
      payload.size() == logical_bytes && payload.size() != physical) {
    shaped.assign(payload.begin(), payload.end());
    shaped.resize(physical, 0);
    payload = shaped;
  }
  if (ShouldStage(payload.size(), class_id)) {
    if (stripes_.Contains(id)) {
      // Overwrite of a flash-resident object: write through so the flash
      // copy stays fresh (staging it would leave a stale version below),
      // and invalidate any DRAM copy of the previous version.
      auto io = WriteToFlash(id, payload, logical_bytes, class_id, now);
      if (io.ok()) {
        admit_->NoteWriteThrough(payload.size(), now);
        admit_->Erase(id);
      }
      return io;
    }
    PayloadBuffer staged(payload.begin(), payload.end());
    Status st =
        admit_->Stage(id, std::move(staged), logical_bytes, class_id, now);
    if (st.ok()) {
      DataPlaneIo io;
      io.complete = now;  // DRAM latency is noise next to the flash path
      return io;
    }
    // Staging refused: fall through to the flash path below.
  } else if (admit_ != nullptr && admit_->enabled()) {
    admit_->CountBypass();
  }
  return WriteToFlash(id, payload, logical_bytes, class_id, now);
}

template <typename Op>
auto ReoDataPlane::WithRetry(ObjectId id, SimTime now, const char* what, Op op)
    -> decltype(op(now)) {
  SimTime t = now;
  auto result = op(t);
  for (uint32_t attempt = 1; !result.ok() && IsRetryable(result.status()) &&
                             attempt < retry_.max_attempts;
       ++attempt) {
    t += RetryBackoff(retry_, attempt - 1, retry_rng_);
    Inc(tel_retry_attempts_);
    result = op(t);
    if (result.ok()) Inc(tel_retry_successes_);
  }
  if (!result.ok() && IsRetryable(result.status())) {
    Inc(tel_retry_exhausted_);
    Emit(ev_, t, EventSeverity::kWarn, "retry.exhausted",
         std::string("transient ") + what +
             " errors exceeded the retry budget",
         {{"object", std::to_string(id.oid)},
          {"attempts", std::to_string(retry_.max_attempts)}});
  }
  return result;
}

Result<DataPlaneIo> ReoDataPlane::WriteToFlash(ObjectId id,
                                               std::span<const uint8_t> payload,
                                               uint64_t logical_bytes,
                                               uint8_t class_id, SimTime now) {
  TraceSpan span(trace_, TraceOp::kDataWrite, now, id.oid);
  RedundancyLevel desired = policy_.LevelFor(static_cast<DataClass>(class_id));
  RedundancyLevel level = EffectiveLevel(logical_bytes, class_id);
  if (level != desired) {
    ++reserve_rejections_;
    Inc(tel_reserve_rejections_);
  }
  // PutObject rolls back fully on failure, so retrying a transient write
  // error is safe: nothing of the failed attempt remains.
  auto io = WithRetry(id, now, "write", [&](SimTime t) {
    return stripes_.PutObject(id, payload, logical_bytes, level, t);
  });
  if (!io.ok()) {
    span.set_flags(kSpanError);
    return io.status();
  }
  span.set_end(io->complete);
  span.set_detail(logical_bytes);
  Inc(tel_writes_);
  Set(tel_redundancy_bytes_, static_cast<double>(stripes_.redundancy_bytes()));
  Set(tel_user_bytes_, static_cast<double>(stripes_.user_bytes()));
  if (persist_ != nullptr) {
    // Persist the physical (shaped) bytes: restore replays them through
    // PutObject unchanged. Replicated classes (0/1) must be durable before
    // the ack, so a failed commit fails the write; clean classes can be
    // re-fetched from the backend, so their commit failures only count.
    Status commit = persist_->CommitWrite(id, class_id, logical_bytes,
                                          payload, now);
    if (!commit.ok() && class_id <= 1 && !persist_->replaying()) {
      span.set_flags(kSpanError);
      return Status(ErrorCode::kUnavailable,
                    "persistence commit failed: " + commit.message());
    }
  }
  return ToDataPlaneIo(std::move(*io));
}

Result<DataPlaneIo> ReoDataPlane::ReadObject(ObjectId id, SimTime now) {
  if (admit_ != nullptr && admit_->enabled()) {
    if (const DramCache::Entry* e = admit_->Lookup(id, now)) {
      DataPlaneIo io;
      io.complete = now;
      io.payload.assign(e->payload.begin(), e->payload.end());
      return io;
    }
  }
  TraceSpan span(trace_, TraceOp::kDataRead, now, id.oid);
  // Bounded retry for transient device errors. Chunks that failed with
  // kIoError were NOT marked lost, so the retry re-reads the same slots.
  auto io = WithRetry(id, now, "read",
                      [&](SimTime t) { return stripes_.GetObject(id, t); });
  if (!io.ok()) {
    span.set_flags(kSpanError);
    return io.status();
  }
  if (io->corrupt_chunks > 0) {
    // Latent sector errors surfaced during this read; the degraded-read
    // machinery already decoded good data from the surviving redundancy.
    // Repair in place now — rewrite the bad slots — so the next read (and
    // the redundancy margin) is whole again. The repair reads survivors
    // too, so it gets the same transient-error budget; a retry redoes only
    // the chunks still marked lost.
    auto rb = WithRetry(id, io->complete, "repair", [&](SimTime t) {
      return stripes_.RebuildObject(id, t);
    });
    if (rb.ok()) {
      io->complete = std::max(io->complete, rb->complete);
      io->chunk_reads += rb->chunk_reads;
      io->chunk_writes += rb->chunk_writes;
      Inc(tel_crc_repairs_, io->corrupt_chunks);
      Emit(ev_, io->complete, EventSeverity::kInfo, "fault.crc_repair",
           "corrupt chunks repaired in place after degraded read",
           {{"object", std::to_string(id.oid)},
            {"chunks", std::to_string(io->corrupt_chunks)}});
    } else {
      Inc(tel_crc_unrepaired_);
      Emit(ev_, io->complete, EventSeverity::kWarn, "fault.crc_repair_failed",
           rb.status().to_string(),
           {{"object", std::to_string(id.oid)},
            {"chunks", std::to_string(io->corrupt_chunks)}});
    }
  }
  Inc(tel_reads_);
  if (io->degraded) {
    Inc(tel_degraded_reads_);
    span.set_flags(kSpanDegraded);
  }
  span.set_end(io->complete);
  return ToDataPlaneIo(std::move(*io));
}

Status ReoDataPlane::RemoveObject(ObjectId id) {
  bool staged = admit_ != nullptr && admit_->Erase(id);
  Status st = stripes_.RemoveObject(id);
  if (st.ok()) {
    Inc(tel_removes_);
    Set(tel_redundancy_bytes_, static_cast<double>(stripes_.redundancy_bytes()));
    Set(tel_user_bytes_, static_cast<double>(stripes_.user_bytes()));
    if (persist_ != nullptr) (void)persist_->CommitEvict(id, /*now=*/0);
  } else if (staged && st.code() == ErrorCode::kNotFound) {
    // The object lived only in DRAM: nothing on flash, nothing in the
    // durable log, but the remove succeeded.
    Inc(tel_removes_);
    return Status::Ok();
  }
  return st;
}

Status ReoDataPlane::SetObjectClass(ObjectId id, uint8_t class_id, SimTime now) {
  if (admit_ != nullptr && admit_->Contains(id)) {
    if (AdmissionTier::StageableClass(class_id)) {
      // Clean reclass of a DRAM-staged object: just retag it; the class
      // takes effect when (if) the object graduates.
      admit_->SetClass(id, class_id);
      return Status::Ok();
    }
    // Reclass into a durability class: the object needs flash + journal
    // now, so it graduates immediately at the new class.
    return admit_->GraduateNow(id, class_id, now);
  }
  auto size = stripes_.LogicalSizeOf(id);
  if (!size.ok()) return size.status();
  TraceSpan span(trace_, TraceOp::kReencode, now, id.oid);
  span.set_detail(class_id);
  RedundancyLevel desired = policy_.LevelFor(static_cast<DataClass>(class_id));
  RedundancyLevel effective = EffectiveLevel(*size, class_id);
  auto io = stripes_.ReencodeObject(id, effective, now);
  if (!io.ok()) {
    span.set_flags(kSpanError);
    return io.status();
  }
  span.set_end(io->complete);
  Inc(tel_reclass_);
  Set(tel_redundancy_bytes_, static_cast<double>(stripes_.redundancy_bytes()));
  Set(tel_user_bytes_, static_cast<double>(stripes_.user_bytes()));
  if (persist_ != nullptr) {
    (void)persist_->CommitState(id, class_id, std::nullopt, now);
  }
  if (effective != desired) {
    ++reserve_rejections_;
    Inc(tel_reserve_rejections_);
    // Data stored, but at reduced protection: report "redundancy space
    // full" so the initiator can react (paper Table III, 0x67).
    return {ErrorCode::kNoSpace, "redundancy reserve exhausted"};
  }
  return Status::Ok();
}

ObjectHealth ReoDataPlane::Health(ObjectId id) const {
  if (admit_ != nullptr && admit_->Contains(id)) return ObjectHealth::kIntact;
  if (!stripes_.Contains(id)) return ObjectHealth::kAbsent;
  switch (stripes_.SurvivalOf(id)) {
    case ObjectSurvival::kIntact: return ObjectHealth::kIntact;
    case ObjectSurvival::kRecoverable: return ObjectHealth::kDegraded;
    case ObjectSurvival::kLost: return ObjectHealth::kLost;
  }
  return ObjectHealth::kLost;
}

bool ReoDataPlane::HasSpaceFor(uint64_t logical_bytes, uint8_t class_id) const {
  // A stageable write only needs DRAM room — the tier makes room by
  // evicting, and graduations make flash room through the cache manager.
  if (ShouldStage(stripes_.PhysicalSize(logical_bytes), class_id)) return true;
  return HasFlashSpaceFor(logical_bytes, class_id);
}

bool ReoDataPlane::HasFlashSpaceFor(uint64_t logical_bytes,
                                    uint8_t class_id) const {
  return stripes_.HasSpaceFor(logical_bytes, EffectiveLevel(logical_bytes, class_id));
}

void ReoDataPlane::OnFormat(uint64_t capacity_bytes, SimTime now) {
  (void)capacity_bytes;
  (void)now;
  if (admit_ != nullptr) admit_->Clear();
  // A client-driven FORMAT starts an empty cache: drop the durable state
  // too — but never while restore itself is replaying through a format.
  if (persist_ != nullptr && !persist_->replaying()) persist_->ResetAll();
}

}  // namespace reo

#include "flash/flash_device.h"

#include <algorithm>
#include <cmath>

#include "common/crc32c.h"

namespace reo {

FlashDevice::FlashDevice(FlashDeviceConfig config) : config_(config) {
  REO_CHECK(config_.capacity_bytes > 0);
  if (config_.model_ftl) InitFtl();
}

void FlashDevice::InitFtl() {
  // Size the FTL so its logical page space covers the device capacity.
  FtlConfig fc;
  fc.gc_policy = config_.ftl_gc_policy;
  uint64_t block_bytes = static_cast<uint64_t>(fc.page_bytes) * fc.pages_per_block;
  // 30 % logical headroom over the slot capacity: the lpn-range allocator
  // reuses freed ranges per size class, so mixed chunk sizes can leave
  // some ranges parked on freelists.
  uint64_t needed_pages =
      (config_.capacity_bytes + config_.capacity_bytes / 3 + fc.page_bytes - 1) /
      fc.page_bytes;
  uint64_t physical_pages = static_cast<uint64_t>(
      std::ceil(static_cast<double>(needed_pages) / (1.0 - fc.over_provisioning)));
  fc.block_count = static_cast<uint32_t>(
      std::max<uint64_t>(8, (physical_pages * fc.page_bytes + block_bytes - 1) /
                                block_bytes));
  ftl_ = std::make_unique<Ftl>(fc);
  lpn_bump_ = 0;
  lpn_free_.clear();
}

void FlashDevice::AttachTelemetry(MetricRegistry& registry,
                                  const std::string& prefix) {
  tel_registry_ = &registry;
  tel_prefix_ = prefix;
  tel_reads_ = &registry.GetCounter(prefix + ".reads");
  tel_writes_ = &registry.GetCounter(prefix + ".writes");
  tel_erases_ = &registry.GetCounter(prefix + ".erases");
  tel_bytes_read_ = &registry.GetGauge(prefix + ".bytes_read");
  tel_bytes_written_ = &registry.GetGauge(prefix + ".bytes_written");
  tel_wear_ = &registry.GetGauge(prefix + ".wear_fraction");
  if (ftl_) ftl_->AttachTelemetry(registry, prefix + ".ftl");
}

void FlashDevice::AttachTracing(Tracer& tracer, uint8_t array_index) {
  trace_ = &tracer.RecorderFor(TraceComponent::kFlashDevice, array_index);
}

void FlashDevice::AttachFaults(FaultInjector* injector,
                               FailSlowDetector* detector,
                               DeviceIndex array_index) {
  faults_ = injector;
  failslow_ = detector;
  fault_index_ = array_index;
}

Status FlashDevice::FtlWriteSlot(Slot& s) {
  if (s.page_count == 0) {
    // First write: allocate a contiguous lpn range (reusing a freed range
    // of the same size if available).
    auto pages = static_cast<uint32_t>(
        (s.logical_bytes + ftl_->config().page_bytes - 1) /
        ftl_->config().page_bytes);
    pages = std::max(pages, 1u);
    if (pages < lpn_free_.size() && !lpn_free_[pages].empty()) {
      s.lpn_base = lpn_free_[pages].back();
      lpn_free_[pages].pop_back();
    } else {
      s.lpn_base = lpn_bump_;
      lpn_bump_ += pages;
    }
    s.page_count = pages;
  }
  for (uint32_t p = 0; p < s.page_count; ++p) {
    REO_RETURN_IF_ERROR(ftl_->WritePage(s.lpn_base + p));
  }
  return Status::Ok();
}

void FlashDevice::FtlTrimSlot(Slot& s) {
  if (s.page_count == 0) return;
  for (uint32_t p = 0; p < s.page_count; ++p) {
    (void)ftl_->TrimPage(s.lpn_base + p);
  }
  if (lpn_free_.size() <= s.page_count) lpn_free_.resize(s.page_count + 1);
  lpn_free_[s.page_count].push_back(s.lpn_base);
  s.page_count = 0;
}

Result<SlotId> FlashDevice::AllocateSlot(uint64_t logical_bytes) {
  if (!healthy()) return Status{ErrorCode::kUnavailable, "device failed"};
  if (logical_bytes == 0) return Status{ErrorCode::kInvalidArgument, "empty slot"};
  if (logical_bytes > free_bytes()) {
    return Status{ErrorCode::kNoSpace, "device full"};
  }
  SlotId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
  } else {
    id = static_cast<SlotId>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[id];
  s.allocated = true;
  s.logical_bytes = logical_bytes;
  s.crc = 0;
  s.payload.clear();
  used_bytes_ += logical_bytes;
  ++live_slots_;
  return id;
}

Status FlashDevice::FreeSlot(SlotId slot) {
  if (slot >= slots_.size() || !slots_[slot].allocated) {
    return {ErrorCode::kNotFound, "no such slot"};
  }
  Slot& s = slots_[slot];
  if (ftl_) FtlTrimSlot(s);
  used_bytes_ -= s.logical_bytes;
  --live_slots_;
  s = Slot{};
  free_list_.push_back(slot);
  return Status::Ok();
}

Status FlashDevice::WriteSlot(SlotId slot, std::span<const uint8_t> payload) {
  return WriteSlot(slot, payload, Crc32c(payload));
}

Status FlashDevice::WriteSlot(SlotId slot, std::span<const uint8_t> payload,
                              uint32_t crc) {
  if (!healthy()) return {ErrorCode::kUnavailable, "device failed"};
  if (slot >= slots_.size() || !slots_[slot].allocated) {
    return {ErrorCode::kNotFound, "no such slot"};
  }
  Slot& s = slots_[slot];
  if (faults_ && faults_->enabled(FaultSite::kFlashWriteTransient) &&
      faults_
          ->Roll(FaultSite::kFlashWriteTransient,
                 static_cast<int32_t>(fault_index_))
          .fire) {
    // Before any mutation, so the caller's rollback sees the old contents.
    return {ErrorCode::kIoError, "injected transient write error"};
  }
  s.payload.assign(payload.begin(), payload.end());
  s.crc = crc;
  if (faults_ && faults_->enabled(FaultSite::kFlashLatent) &&
      faults_
          ->Roll(FaultSite::kFlashLatent, static_cast<int32_t>(fault_index_))
          .fire &&
      !s.payload.empty()) {
    // Latent sector error: damage the stored bytes but not the CRC, so the
    // corruption stays silent until the slot is read or scrubbed.
    s.payload[0] ^= 0xFF;
  }
  ++wear_.io_writes;
  Inc(tel_writes_);
  if (ftl_) {
    // Wear comes from the FTL: GC write amplification and real erases.
    REO_RETURN_IF_ERROR(FtlWriteSlot(s));
    wear_.bytes_written =
        ftl_->stats().nand_pages_written * ftl_->config().page_bytes;
    wear_.erase_cycles = ftl_->stats().erases;
    Inc(tel_erases_, wear_.erase_cycles - tel_published_erases_);
    tel_published_erases_ = wear_.erase_cycles;
    Set(tel_bytes_written_, static_cast<double>(wear_.bytes_written));
    Set(tel_wear_, wear_.WearFraction(config_));
    return Status::Ok();
  }
  // Flat model: programming `logical_bytes` eventually forces that many
  // bytes of erasure (write amplification factor 1).
  wear_.bytes_written += s.logical_bytes;
  pending_erase_bytes_ += s.logical_bytes;
  while (pending_erase_bytes_ >= config_.erase_block_bytes) {
    pending_erase_bytes_ -= config_.erase_block_bytes;
    ++wear_.erase_cycles;
    Inc(tel_erases_);
  }
  Set(tel_bytes_written_, static_cast<double>(wear_.bytes_written));
  Set(tel_wear_, wear_.WearFraction(config_));
  return Status::Ok();
}

Result<std::span<const uint8_t>> FlashDevice::ReadSlot(SlotId slot) {
  if (!healthy()) return Status{ErrorCode::kUnavailable, "device failed"};
  if (slot >= slots_.size() || !slots_[slot].allocated) {
    return Status{ErrorCode::kNotFound, "no such slot"};
  }
  const Slot& s = slots_[slot];
  if (faults_ && faults_->enabled(FaultSite::kFlashReadTransient) &&
      faults_
          ->Roll(FaultSite::kFlashReadTransient,
                 static_cast<int32_t>(fault_index_))
          .fire) {
    return Status{ErrorCode::kIoError, "injected transient read error"};
  }
  if (Crc32c(s.payload) != s.crc) {
    return Status{ErrorCode::kCorrupted, "slot CRC mismatch"};
  }
  wear_.bytes_read += s.logical_bytes;
  ++wear_.io_reads;
  Inc(tel_reads_);
  Set(tel_bytes_read_, static_cast<double>(wear_.bytes_read));
  return std::span<const uint8_t>(s.payload);
}

SimTime FlashDevice::ServiceTime(uint64_t logical_bytes, bool is_write) const {
  if (is_write) {
    return config_.write_fixed_ns + TransferTime(logical_bytes, config_.write_mbps);
  }
  return config_.read_fixed_ns + TransferTime(logical_bytes, config_.read_mbps);
}

SimTime FlashDevice::SubmitIo(SimTime start, uint64_t logical_bytes, bool is_write) {
  SimTime begin = std::max(start, busy_until_);
  SimTime service = ServiceTime(logical_bytes, is_write);
  if (faults_ && faults_->enabled(FaultSite::kFlashFailSlow)) {
    FaultDecision d = faults_->Roll(FaultSite::kFlashFailSlow,
                                    static_cast<int32_t>(fault_index_), start);
    if (d.fire) {
      service = static_cast<SimTime>(static_cast<double>(service) *
                                     d.slow_factor) +
                d.added_latency_ns;
    }
  }
  busy_until_ = begin + service;
  if (failslow_) failslow_->Observe(fault_index_, service, busy_until_);
  if (trace_) {
    // Span covers queueing-adjusted service only, so same-track spans on a
    // busy device abut instead of overlapping.
    trace_->Record(is_write ? TraceOp::kDeviceWrite : TraceOp::kDeviceRead,
                   begin, busy_until_, /*object=*/0, /*flags=*/0,
                   /*detail=*/logical_bytes);
  }
  return busy_until_;
}

Status FlashDevice::CorruptSlot(SlotId slot, uint32_t byte_index) {
  if (slot >= slots_.size() || !slots_[slot].allocated) {
    return {ErrorCode::kNotFound, "no such slot"};
  }
  Slot& s = slots_[slot];
  if (s.payload.empty()) return {ErrorCode::kInvalidArgument, "slot never written"};
  s.payload[byte_index % s.payload.size()] ^= 0xFF;
  return Status::Ok();
}

void FlashDevice::Fail() {
  state_ = DeviceState::kFailed;
  // Payload is gone; metadata (slot sizes) is retained by the array layer
  // for accounting, but this device can never serve those bytes again.
  for (auto& s : slots_) {
    s.payload.clear();
    s.payload.shrink_to_fit();
  }
}

void FlashDevice::Replace() {
  slots_.clear();
  free_list_.clear();
  used_bytes_ = 0;
  live_slots_ = 0;
  wear_ = FlashWearStats{};
  pending_erase_bytes_ = 0;
  state_ = DeviceState::kHealthy;
  if (config_.model_ftl) InitFtl();  // a spare arrives with zero wear
  tel_published_erases_ = 0;
  if (tel_registry_) {
    // Fresh gauges for the fresh device; the new FTL re-attaches under the
    // same prefix so its counters continue at this array position.
    Set(tel_bytes_read_, 0.0);
    Set(tel_bytes_written_, 0.0);
    Set(tel_wear_, 0.0);
    if (ftl_) ftl_->AttachTelemetry(*tel_registry_, tel_prefix_ + ".ftl");
  }
}

}  // namespace reo

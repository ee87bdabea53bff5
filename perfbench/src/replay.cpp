#include "replay.h"

#include <filesystem>
#include <memory>
#include <optional>

#include "clock.h"
#include "common/crc32c.h"
#include "core/data_plane.h"
#include "core/policy.h"
#include "flash/flash_array.h"
#include "osd/control_protocol.h"
#include "osd/osd_target.h"
#include "osd/transport.h"
#include "persist/persistence.h"
#include "server/frame.h"
#include "telemetry/metric_registry.h"

namespace perfbench {
namespace {

using reo::OsdCommand;
using reo::OsdOp;
using reo::OsdResponse;

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Times every DataPlane call OsdTarget makes into the real plane.
class TimingDataPlane final : public reo::DataPlane {
 public:
  explicit TimingDataPlane(reo::DataPlane& inner) : inner_(inner) {}

  reo::Result<reo::DataPlaneIo> WriteObject(reo::ObjectId id,
                                            std::span<const uint8_t> payload,
                                            uint64_t logical_bytes,
                                            uint8_t class_id,
                                            reo::SimTime now) override {
    uint64_t t0 = NowNs();
    auto r = inner_.WriteObject(id, payload, logical_bytes, class_id, now);
    write_ns += NowNs() - t0;
    return r;
  }
  reo::Result<reo::DataPlaneIo> ReadObject(reo::ObjectId id,
                                           reo::SimTime now) override {
    uint64_t t0 = NowNs();
    auto r = inner_.ReadObject(id, now);
    read_ns += NowNs() - t0;
    return r;
  }
  reo::Status RemoveObject(reo::ObjectId id) override {
    return inner_.RemoveObject(id);
  }
  reo::Status SetObjectClass(reo::ObjectId id, uint8_t class_id,
                             reo::SimTime now) override {
    uint64_t t0 = NowNs();
    auto r = inner_.SetObjectClass(id, class_id, now);
    set_class_ns += NowNs() - t0;
    ++set_classes;
    return r;
  }
  reo::ObjectHealth Health(reo::ObjectId id) const override {
    return inner_.Health(id);
  }
  bool recovery_active() const override { return inner_.recovery_active(); }
  bool HasSpaceFor(uint64_t logical_bytes, uint8_t class_id) const override {
    return inner_.HasSpaceFor(logical_bytes, class_id);
  }
  void OnFormat(uint64_t capacity_bytes, reo::SimTime now) override {
    inner_.OnFormat(capacity_bytes, now);
  }

  /// Time spent inside the plane since the last call (any method).
  uint64_t TakeNs() {
    uint64_t total = read_ns + write_ns + set_class_ns - taken_;
    taken_ = read_ns + write_ns + set_class_ns;
    return total;
  }

  uint64_t read_ns = 0, write_ns = 0, set_class_ns = 0;
  uint64_t set_classes = 0;

 private:
  reo::DataPlane& inner_;
  uint64_t taken_ = 0;
};

/// reo_server's default single-shard stack: 5 devices, 256 MiB budget,
/// 64 KiB chunks, Reo policy with a 20 % redundancy reserve, telemetry on.
struct Stack {
  static constexpr uint64_t kCapacity = 256ull << 20;
  static constexpr uint64_t kChunk = 64 * 1024;

  Stack() {
    reo::FlashDeviceConfig dev;
    dev.capacity_bytes = kCapacity;
    array = std::make_unique<reo::FlashArray>(5, dev);
    reo::StripeManagerConfig smc;
    smc.chunk_logical_bytes = kChunk;
    smc.capacity_limit_bytes = kCapacity;
    stripes = std::make_unique<reo::StripeManager>(*array, smc);
    plane = std::make_unique<reo::ReoDataPlane>(
        *stripes, reo::RedundancyPolicy(reo::PolicyConfig{
                      .mode = reo::ProtectionMode::kReo,
                      .reo_reserve_fraction = 0.2}));
  }

  std::unique_ptr<reo::FlashArray> array;
  std::unique_ptr<reo::StripeManager> stripes;
  std::unique_ptr<reo::ReoDataPlane> plane;
};

/// The serving path's functions over one in-process stack: ops go in
/// one at a time and, when traced, their spans land in the result.
class Pipeline {
 public:
  Pipeline(const WorkloadSpec& spec,
           const std::vector<std::vector<uint8_t>>& payloads,
           ReplayResult* out)
      : spec_(spec), payloads_(payloads), out_(out), timing_(*stack_.plane),
        target_(timing_) {
    stack_.array->AttachTelemetry(registry_);
    stack_.plane->AttachTelemetry(registry_);
    target_.AttachTelemetry(registry_);
  }

  reo::StripeManager& stripes() { return *stack_.stripes; }
  TimingDataPlane& timing() { return timing_; }

  /// Runs one command end to end through codec and target, untraced.
  OsdResponse Direct(const OsdCommand& cmd) {
    std::vector<uint8_t> framed = reo::EncodeFrame(reo::EncodeCommand(cmd));
    server_decoder_.Feed(framed);
    std::span<const uint8_t> view;
    if (server_decoder_.NextView(&view) != reo::FrameStatus::kFrame) {
      OsdResponse bad;
      bad.sense = reo::SenseCode::kFail;
      return bad;
    }
    auto decoded = reo::DecodeCommand(view);
    if (!decoded.ok()) {
      OsdResponse bad;
      bad.sense = reo::SenseCode::kFail;
      return bad;
    }
    decoded->now = NowNs();
    return target_.Execute(*decoded);
  }

  void Populate() {
    OsdCommand format;
    format.op = OsdOp::kFormat;
    format.capacity_bytes = 4ull * spec_.objects * spec_.object_bytes;
    Check(Direct(format), "FORMAT");
    std::vector<uint8_t> data;
    for (uint32_t rank = 0; rank < spec_.objects; ++rank) {
      OsdCommand create;
      create.op = OsdOp::kCreate;
      create.id = IdForRank(rank);
      create.logical_size = spec_.object_bytes;
      Check(Direct(create), "CREATE");
      int cls = ClassOfRank(spec_, rank);
      if (cls >= 0) SetClass(rank, static_cast<uint8_t>(cls));
      OsdCommand write;
      write.op = OsdOp::kWrite;
      write.id = IdForRank(rank);
      write.logical_size = spec_.object_bytes;
      StampPayload(payloads_[rank], Stamp{rank, kPopulateWriter, 0},
                   &write.data);
      Check(Direct(write), "populate WRITE");
    }
  }

  /// Moves every object from its populate class to the next one.
  void Reclassify() {
    for (uint32_t rank = 0; rank < spec_.objects; ++rank) {
      int cls = ClassOfRank(spec_, rank);
      SetClass(rank, static_cast<uint8_t>(((cls < 0 ? 3 : cls) + 1) % 4));
    }
  }

  /// One op; with `trace`, accumulates its spans into *out_.
  void Step(const Op& op, const Stamp& stamp, bool trace) {
    uint64_t t0 = trace ? NowNs() : 0;
    OsdCommand& cmd = op.write ? write_cmd_ : read_cmd_;
    cmd.op = op.write ? OsdOp::kWrite : OsdOp::kRead;
    cmd.id = IdForRank(op.rank);
    if (op.write) {
      cmd.logical_size = spec_.object_bytes;
      StampPayload(payloads_[op.rank], stamp, &cmd.data);
    }
    uint64_t t1 = trace ? NowNs() : 0;

    std::vector<uint8_t> framed = reo::EncodeFrame(reo::EncodeCommand(cmd));
    uint64_t t2 = trace ? NowNs() : 0;

    server_decoder_.Feed(framed);
    std::span<const uint8_t> view;
    std::optional<OsdCommand> decoded;
    if (server_decoder_.NextView(&view) == reo::FrameStatus::kFrame) {
      auto d = reo::DecodeCommand(view);
      if (d.ok()) decoded = std::move(*d);
    }
    uint64_t t3 = trace ? NowNs() : 0;
    if (!decoded) {
      Fail("request frame did not decode");
      return;
    }

    decoded->now = t3 ? t3 : NowNs();
    timing_.TakeNs();
    OsdResponse resp = target_.Execute(*decoded);
    uint64_t t4 = trace ? NowNs() : 0;
    uint64_t dp_ns = timing_.TakeNs();

    reo::EncodedResponseParts parts =
        reo::EncodeResponseParts(std::move(resp));
    size_t payload_bytes =
        parts.head.size() + parts.body.size() + parts.tail.size();
    uint8_t header[reo::kFrameHeaderBytes];
    uint8_t trailer[reo::kFrameTrailerBytes];
    reo::EncodeFrameHeader(header, payload_bytes);
    uint32_t crc = reo::Crc32c(parts.head);
    crc = reo::Crc32c(std::span<const uint8_t>(parts.body.data(),
                                               parts.body.size()),
                      crc);
    crc = reo::Crc32c(parts.tail, crc);
    reo::EncodeFrameTrailerFromCrc(trailer, crc);
    uint64_t t5 = trace ? NowNs() : 0;

    client_decoder_.Feed(header);
    client_decoder_.Feed(parts.head);
    client_decoder_.Feed(
        std::span<const uint8_t>(parts.body.data(), parts.body.size()));
    client_decoder_.Feed(parts.tail);
    client_decoder_.Feed(trailer);
    std::optional<OsdResponse> got;
    if (client_decoder_.NextView(&view) == reo::FrameStatus::kFrame) {
      auto r = reo::DecodeResponse(view);
      if (r.ok()) got = std::move(*r);
    }
    uint64_t t6 = trace ? NowNs() : 0;

    if (!got || !got->ok()) {
      Fail(!got ? "response frame did not decode" : "sense error");
    } else if (!op.write &&
               !CheckPayload(payloads_[op.rank], op.rank,
                             std::span<const uint8_t>(got->data.data(),
                                                      got->data.size()))) {
      Fail("read returned wrong bytes");
    }
    if (!trace) return;
    uint64_t t7 = NowNs();

    auto add = [](SpanMean& s, uint64_t ns) {
      s.total_us += Us(ns);
      ++s.count;
    };
    add(out_->client_build, t1 - t0);
    add(out_->req_encode, t2 - t1);
    add(out_->req_decode, t3 - t2);
    add(op.write ? out_->execute_write : out_->execute_read, t4 - t3);
    add(op.write ? out_->dp_write : out_->dp_read, dp_ns);
    add(out_->osd_self, (t4 - t3) - std::min(dp_ns, t4 - t3));
    add(out_->resp_encode, t5 - t4);
    add(out_->resp_decode, t6 - t5);
    add(out_->client_verify, t7 - t6);
  }

  void Fail(const std::string& what) {
    if (out_->error.empty()) out_->error = what;
    ++out_->failures;
  }

 private:
  /// #SETID# through the control object, as a classifier would send it.
  void SetClass(uint32_t rank, uint8_t class_id) {
    OsdCommand ctl;
    ctl.op = OsdOp::kWrite;
    ctl.id = reo::kControlObject;
    ctl.data = reo::EncodeControlMessage(
        reo::SetIdCommand{.target = IdForRank(rank), .class_id = class_id});
    ctl.logical_size = ctl.data.size();
    Check(Direct(ctl), "SETID");
  }

  void Check(const OsdResponse& r, const char* what) {
    if (!r.ok()) Fail(std::string("replay ") + what + " failed");
  }

  const WorkloadSpec& spec_;
  const std::vector<std::vector<uint8_t>>& payloads_;
  ReplayResult* out_;
  reo::MetricRegistry registry_;
  Stack stack_;
  TimingDataPlane timing_;
  reo::OsdTarget target_;
  reo::FrameDecoder server_decoder_;
  reo::FrameDecoder client_decoder_;
  OsdCommand read_cmd_;
  OsdCommand write_cmd_;
};

double PassWallUs(Pipeline& p, const std::vector<Op>& ops,
                  const std::vector<Stamp>& stamps, bool trace) {
  uint64_t t0 = NowNs();
  for (size_t i = 0; i < ops.size(); ++i) p.Step(ops[i], stamps[i], trace);
  return Us(NowNs() - t0);
}

/// Records one failure of the direct drives.
void Failed(ReplayResult* out, const std::string& what) {
  ++out->failures;
  if (out->error.empty()) out->error = what;
}

/// Array, EC and flash: StripeManager driven directly. Every write is
/// put once at each level (none, 2-parity, replicated) so each level's
/// cost is measured on every workload, then once more, untimed, at the
/// level the data plane stored the object at, which the reads then see.
void ReplayStripes(const WorkloadSpec& spec,
                   const std::vector<std::vector<uint8_t>>& payloads,
                   const std::vector<Op>& ops, const std::vector<Stamp>& stamps,
                   reo::StripeManager& levels_from, ReplayResult* out) {
  using reo::RedundancyLevel;
  Stack stack;
  std::vector<RedundancyLevel> level(spec.objects, RedundancyLevel::kNone);
  std::vector<uint8_t> data;
  auto put = [&](reo::ObjectId id, RedundancyLevel l) {
    if (!stack.stripes->PutObject(id, data, spec.object_bytes, l, NowNs()).ok()) {
      Failed(out, "stripe put failed");
    }
  };
  for (uint32_t rank = 0; rank < spec.objects; ++rank) {
    auto l = levels_from.LevelOf(IdForRank(rank));
    if (l.ok()) level[rank] = *l;
    StampPayload(payloads[rank], Stamp{rank, kPopulateWriter, 0}, &data);
    put(IdForRank(rank), level[rank]);
  }
  const std::pair<RedundancyLevel, SpanMean*> timed_levels[] = {
      {RedundancyLevel::kNone, &out->stripe_put_none},
      {RedundancyLevel::kParity2, &out->stripe_put_parity},
      {RedundancyLevel::kReplicate, &out->stripe_put_replica},
  };
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    reo::ObjectId id = IdForRank(op.rank);
    if (op.write) {
      StampPayload(payloads[op.rank], stamps[i], &data);
      for (const auto& [l, span] : timed_levels) {
        uint64_t t0 = NowNs();
        put(id, l);
        span->total_us += Us(NowNs() - t0);
        ++span->count;
      }
      put(id, level[op.rank]);
      continue;
    }
    uint64_t t0 = NowNs();
    auto io = stack.stripes->GetObject(id, t0);
    out->stripe_get.total_us += Us(NowNs() - t0);
    ++out->stripe_get.count;
    if (!io.ok() ||
        !CheckPayload(payloads[op.rank], op.rank,
                      std::span<const uint8_t>(io->payload.data(),
                                               io->payload.size()))) {
      Failed(out, "stripe get returned wrong bytes");
    }
  }
}

/// Persistence: every write of the first kPersistWrites is committed
/// twice, once in class 1 (fsync before return) and once in class 3
/// (group commit), with the server's default batch and checkpoint
/// settings, so both commit paths are measured on every workload.
void ReplayPersist(const WorkloadSpec& spec,
                   const std::vector<std::vector<uint8_t>>& payloads,
                   const std::vector<Op>& ops, const std::vector<Stamp>& stamps,
                   const std::string& dir, ReplayResult* out) {
  constexpr size_t kPersistWrites = 2000;
  reo::PersistenceConfig cfg;
  cfg.data_dir = dir;
  auto opened = reo::PersistenceManager::Open(cfg);
  if (!opened.ok()) {
    Failed(out, "persist open: " + opened.status().to_string());
    return;
  }
  reo::PersistenceManager& pm = **opened;
  std::vector<uint8_t> data;
  for (uint32_t rank = 0; rank < spec.objects; ++rank) {
    StampPayload(payloads[rank], Stamp{rank, kPopulateWriter, 0}, &data);
    (void)pm.CommitWrite(IdForRank(rank), 3, spec.object_bytes, data, NowNs());
  }
  size_t writes = 0;
  for (size_t i = 0; i < ops.size() && writes < kPersistWrites; ++i) {
    if (!ops[i].write) continue;
    ++writes;
    StampPayload(payloads[ops[i].rank], stamps[i], &data);
    for (uint8_t cls : {uint8_t{1}, uint8_t{3}}) {
      uint64_t t0 = NowNs();
      reo::Status st = pm.CommitWrite(IdForRank(ops[i].rank), cls,
                                      spec.object_bytes, data, t0);
      SpanMean& s = cls == 1 ? out->persist_sync : out->persist_group;
      s.total_us += Us(NowNs() - t0);
      ++s.count;
      if (!st.ok()) Failed(out, "CommitWrite: " + st.to_string());
    }
  }
}

}  // namespace

ReplayResult RunReplay(const WorkloadSpec& spec,
                       const std::vector<std::vector<uint8_t>>& payloads,
                       const std::vector<Op>& ops,
                       const std::vector<Stamp>& stamps,
                       const std::string& work_dir) {
  ReplayResult out;
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  std::filesystem::create_directories(work_dir, ec);
  {
    Pipeline pipe(spec, payloads, &out);
    pipe.Populate();
    // Untraced, traced, untraced: the traced pass sits between the two it
    // is compared with, so drift over the replay cancels.
    double untimed = PassWallUs(pipe, ops, stamps, false);
    double traced = PassWallUs(pipe, ops, stamps, true);
    untimed += PassWallUs(pipe, ops, stamps, false);
    double n = static_cast<double>(ops.size());
    out.ops = ops.size();
    out.traced_wall_us_per_op = traced / n;
    out.untimed_wall_us_per_op = untimed / (2 * n);
    double self = out.client_build.total_us + out.req_encode.total_us +
                  out.req_decode.total_us + out.osd_self.total_us +
                  out.dp_read.total_us + out.dp_write.total_us +
                  out.resp_encode.total_us + out.resp_decode.total_us +
                  out.client_verify.total_us;
    out.self_sum_us_per_op = self / n;
    ReplayStripes(spec, payloads, ops, stamps, pipe.stripes(), &out);
    // Last, as it changes the levels the stripe drive copies: move every
    // object to the next class through #SETID#.
    uint64_t ns = pipe.timing().set_class_ns;
    uint64_t count = pipe.timing().set_classes;
    pipe.Reclassify();
    out.dp_set_class.total_us = Us(pipe.timing().set_class_ns - ns);
    out.dp_set_class.count = pipe.timing().set_classes - count;
  }
  ReplayPersist(spec, payloads, ops, stamps, work_dir + "/persist", &out);
  std::filesystem::remove_all(work_dir, ec);
  return out;
}

}  // namespace perfbench

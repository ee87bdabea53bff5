#include "load.h"

#include <sched.h>

#include <algorithm>
#include <span>
#include <thread>

#include "clock.h"
#include "osd/control_protocol.h"

namespace perfbench {

using reo::OsdCommand;
using reo::OsdOp;
using reo::OsdResponse;

namespace {

/// One connection's closed loop until the deadline: build, send, wait,
/// check, record.
void RunPhase(Worker& w, const Load& load, uint64_t deadline_ns, bool timed) {
  while (NowNs() < deadline_ns) {
    uint64_t seq = w.records.size();
    const Op& op = (*w.ops)[seq % w.ops->size()];
    OsdCommand& cmd = op.write ? w.write_cmd : w.read_cmd;
    cmd.op = op.write ? OsdOp::kWrite : OsdOp::kRead;
    cmd.id = IdForRank(op.rank);
    if (op.write) {
      cmd.logical_size = load.spec.object_bytes;
      StampPayload(load.payloads[op.rank], Stamp{op.rank, w.index, seq},
                   &cmd.data);
    }
    OpRecord rec;
    rec.rank = op.rank;
    rec.write = op.write;
    rec.timed = timed;
    rec.send_ns = NowNs();
    OsdResponse resp = w.client.Roundtrip(cmd);
    rec.done_ns = NowNs();
    if (!w.client.connected()) {
      w.fatal = "connection lost";
      break;
    }
    rec.ok = resp.ok();
    if (!rec.ok) {
      ++w.sense_errors;
    } else if (!op.write) {
      auto got = CheckPayload(
          load.payloads[op.rank], op.rank,
          std::span<const uint8_t>(resp.data.data(), resp.data.size()));
      if (got) {
        rec.got = *got;
      } else {
        ++w.verify_errors;
        rec.ok = false;
      }
    }
    w.records.push_back(rec);
  }
}

}  // namespace

void RunPhaseAll(Load& load, uint64_t deadline_ns, bool timed) {
  std::vector<std::thread> threads;
  for (Worker& w : load.workers) {
    int core = load.cores[w.index % load.cores.size()];
    threads.emplace_back([&w, &load, core, deadline_ns, timed] {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(core, &set);
      sched_setaffinity(0, sizeof(set), &set);
      RunPhase(w, load, deadline_ns, timed);
    });
  }
  for (std::thread& t : threads) t.join();
}

reo::Status Connect(Load& load, const std::vector<std::vector<Op>>& streams,
                    uint16_t port) {
  load.workers = std::vector<Worker>(load.spec.connections);
  for (uint32_t c = 0; c < load.spec.connections; ++c) {
    Worker& w = load.workers[c];
    w.index = c;
    w.ops = &streams[c];
    w.records.reserve(kStreamOps);
    REO_RETURN_IF_ERROR(w.client.Connect("127.0.0.1", port));
  }
  return reo::Status::Ok();
}

void CloseAll(Load& load) {
  for (Worker& w : load.workers) w.client.Close();
}

reo::Status Populate(Load& load, uint16_t port) {
  reo::SocketInitiator client;
  REO_RETURN_IF_ERROR(client.Connect("127.0.0.1", port));
  auto fail = [](const std::string& what) {
    return reo::Status(reo::ErrorCode::kInternal, what);
  };
  const WorkloadSpec& spec = load.spec;
  OsdCommand format;
  format.op = OsdOp::kFormat;
  format.capacity_bytes = 4ull * spec.objects * spec.object_bytes;
  if (!client.Roundtrip(format).ok()) return fail("FORMAT failed");
  load.populated.clear();
  for (uint32_t rank = 0; rank < spec.objects; ++rank) {
    OsdCommand create;
    create.op = OsdOp::kCreate;
    create.id = IdForRank(rank);
    create.logical_size = spec.object_bytes;
    if (!client.Roundtrip(create).ok()) return fail("CREATE failed");
    int cls = ClassOfRank(spec, rank);
    if (cls >= 0) {
      OsdCommand ctl;
      ctl.op = OsdOp::kWrite;
      ctl.id = reo::kControlObject;
      ctl.data = reo::EncodeControlMessage(reo::SetIdCommand{
          .target = IdForRank(rank), .class_id = static_cast<uint8_t>(cls)});
      ctl.logical_size = ctl.data.size();
      if (!client.Roundtrip(ctl).ok()) return fail("SETID failed");
    }
    OsdCommand write;
    write.op = OsdOp::kWrite;
    write.id = IdForRank(rank);
    write.logical_size = spec.object_bytes;
    Stamp stamp{rank, kPopulateWriter, 0};
    StampPayload(load.payloads[rank], stamp, &write.data);
    uint64_t send = NowNs();
    if (!client.Roundtrip(write).ok()) return fail("populate WRITE failed");
    load.populated.push_back(AckedWrite{stamp, send, NowNs()});
  }
  const reo::SocketInitiatorStats& s = client.stats();
  if (s.crc_errors + s.frame_errors + s.decode_errors > 0) {
    return fail("wire errors during populate");
  }
  return reo::Status::Ok();
}

History::History(const Load& load)
    : load_(load), by_rank_(load.spec.objects) {
  for (const AckedWrite& w : load.populated) {
    by_rank_[w.stamp.rank].push_back({w.ack_ns, w.send_ns});
  }
  for (const Worker& w : load.workers) {
    for (const OpRecord& r : w.records) {
      if (r.write && r.ok) by_rank_[r.rank].push_back({r.done_ns, r.send_ns});
    }
  }
  for (auto& acks : by_rank_) {
    std::sort(acks.begin(), acks.end());
    for (size_t i = 1; i < acks.size(); ++i) {
      acks[i].second = std::max(acks[i].second, acks[i - 1].second);
    }
  }
}

std::optional<AckedWrite> History::Find(uint32_t rank, const Stamp& s) const {
  if (s.rank != rank) return std::nullopt;
  if (s.writer == kPopulateWriter) {
    if (s.seq != 0 || rank >= load_.populated.size()) return std::nullopt;
    return load_.populated[rank];
  }
  if (s.writer >= load_.workers.size()) return std::nullopt;
  const auto& records = load_.workers[s.writer].records;
  if (s.seq >= records.size()) return std::nullopt;
  const OpRecord& r = records[s.seq];
  if (!r.write || !r.ok || r.rank != rank) return std::nullopt;
  return AckedWrite{s, r.send_ns, r.done_ns};
}

bool History::Current(const AckedWrite& w, uint64_t t) const {
  const auto& acks = by_rank_[w.stamp.rank];
  auto it = std::lower_bound(acks.begin(), acks.end(),
                             std::pair<uint64_t, uint64_t>{t, 0});
  return it == acks.begin() || std::prev(it)->second <= w.ack_ns;
}

void CheckLoad(const Load& load, const char* phase, Report& report) {
  for (const Worker& w : load.workers) {
    report.attempted_ops += w.records.size();
    std::string conn = std::string(phase) + ", connection " +
                       std::to_string(w.index) + ": ";
    if (w.sense_errors) report.Fail(conn + "sense errors", w.sense_errors);
    if (w.verify_errors) {
      report.Fail(conn + "byte-verify mismatches", w.verify_errors);
    }
    if (!w.fatal.empty()) report.Fail(conn + w.fatal);
    const reo::SocketInitiatorStats& ws = w.client.stats();
    uint64_t wire = ws.crc_errors + ws.frame_errors + ws.decode_errors;
    if (wire) report.Fail(conn + "client-side wire errors", wire);
  }
  // Only an acked write may be read back: a write that failed may or may
  // not have been applied, and a run with one fails anyway.
  History h(load);
  uint64_t stale = 0;
  for (const Worker& w : load.workers) {
    for (const OpRecord& r : w.records) {
      if (r.write || !r.ok) continue;
      auto src = h.Find(r.rank, r.got);
      if (!src || !h.Current(*src, r.send_ns)) ++stale;
    }
  }
  if (stale) {
    report.Fail(std::string(phase) + ": " + std::to_string(stale) +
                    " reads returned a superseded or unknown write",
                stale);
  }
}

}  // namespace perfbench

#include "workload.h"

#include <cstring>

#include "common/rng.h"
#include "common/zipf.h"

namespace perfbench {
namespace {

// Why each workload exists is written down in perfbench/README.md.
const WorkloadSpec kWorkloads[] = {
    {.name = "hot_read", .shards = 1, .write_ratio = 0.1,
     .class_cycle = false},
    {.name = "class_mix", .shards = 2, .write_ratio = 0.5,
     .class_cycle = true},
};

// Distinct PCG streams keep the op streams and payloads independent.
constexpr uint64_t kOpStream = 0x6f70;
constexpr uint64_t kPayloadStream = 0x7061;

}  // namespace

std::optional<WorkloadSpec> FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : kWorkloads) names.push_back(w.name);
  return names;
}

int ClassOfRank(const WorkloadSpec& spec, uint32_t rank) {
  return spec.class_cycle ? static_cast<int>(rank % 4) : -1;
}

reo::ObjectId IdForRank(uint32_t rank) {
  // Past the exofs reserved metadata oids, as reo_loadgen places them.
  return reo::ObjectId{reo::kFirstUserId, reo::kFirstUserId + 0x1000 + rank};
}

std::vector<Op> GenerateOps(const WorkloadSpec& spec, uint64_t seed,
                            uint32_t conn, size_t count) {
  reo::ZipfSampler zipf(spec.objects, spec.zipf_skew);
  reo::Pcg32 rng(seed * 0x9e3779b97f4a7c15ULL + conn, kOpStream + conn);
  std::vector<Op> ops(count);
  for (Op& op : ops) {
    op.rank = zipf.Sample(rng);
    op.write = rng.NextDouble() < spec.write_ratio;
  }
  return ops;
}

std::vector<std::vector<uint8_t>> GeneratePayloads(const WorkloadSpec& spec,
                                                   uint64_t seed) {
  std::vector<std::vector<uint8_t>> out(spec.objects);
  reo::Pcg32 rng(seed, kPayloadStream);
  for (auto& p : out) {
    p.resize(spec.object_bytes);
    size_t i = 0;
    for (; i + 4 <= p.size(); i += 4) {
      uint32_t v = rng.Next();
      std::memcpy(p.data() + i, &v, 4);
    }
    for (; i < p.size(); ++i) p[i] = static_cast<uint8_t>(rng.Next());
  }
  return out;
}

void StampPayload(std::span<const uint8_t> base, const Stamp& stamp,
                  std::vector<uint8_t>* out) {
  out->resize(base.size());
  std::memcpy(out->data(), base.data(), base.size());
  uint8_t head[kStampBytes];
  std::memcpy(head, &stamp.rank, 4);
  std::memcpy(head + 4, &stamp.writer, 4);
  std::memcpy(head + 8, &stamp.seq, 8);
  std::memcpy(out->data(), head, std::min(base.size(), kStampBytes));
}

std::optional<Stamp> CheckPayload(std::span<const uint8_t> base,
                                  uint32_t rank,
                                  std::span<const uint8_t> got) {
  if (base.size() < kStampBytes || got.size() < base.size()) {
    return std::nullopt;
  }
  if (std::memcmp(got.data() + kStampBytes, base.data() + kStampBytes,
                  base.size() - kStampBytes) != 0) {
    return std::nullopt;
  }
  Stamp s;
  std::memcpy(&s.rank, got.data(), 4);
  std::memcpy(&s.writer, got.data() + 4, 4);
  std::memcpy(&s.seq, got.data() + 8, 8);
  if (s.rank != rank) return std::nullopt;
  return s;
}

}  // namespace perfbench

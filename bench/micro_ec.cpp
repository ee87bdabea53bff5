// Microbenchmarks: GF(256) kernels, Reed-Solomon encode / reconstruct
// throughput across the stripe geometries Reo uses, and one 64 KiB
// StripeManager put per redundancy level (google-benchmark).
#include <benchmark/benchmark.h>

#include <vector>

#include "array/stripe_manager.h"
#include "common/rng.h"
#include "ec/gf256.h"
#include "ec/rs_code.h"

namespace {

using reo::Pcg32;
using reo::RsCode;

std::vector<std::vector<uint8_t>> RandomChunks(size_t n, size_t len) {
  Pcg32 rng(42);
  std::vector<std::vector<uint8_t>> chunks(n, std::vector<uint8_t>(len));
  for (auto& c : chunks) {
    for (auto& b : c) b = static_cast<uint8_t>(rng.Next());
  }
  return chunks;
}

// Args: {length, coefficient}. Coefficient 1 is the XOR every parity of a
// one-data-chunk stripe (and all of 1-parity) reduces to; 0x57 is a real
// multiply.
void BM_GfMulAcc(benchmark::State& state) {
  size_t len = static_cast<size_t>(state.range(0));
  auto c = static_cast<uint8_t>(state.range(1));
  auto bufs = RandomChunks(2, len);
  for (auto _ : state) {
    reo::gf256::MulAcc(bufs[0], bufs[1], c);
    benchmark::DoNotOptimize(bufs[0].data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}
BENCHMARK(BM_GfMulAcc)
    ->ArgsProduct({{1024, 64 * 1024, 1024 * 1024}, {1, 0x57}});

// Pinned to the portable reference kernel so the SIMD speedup in
// BM_GfMulAcc has an in-tree denominator.
void BM_GfMulAccScalar(benchmark::State& state) {
  size_t len = static_cast<size_t>(state.range(0));
  auto bufs = RandomChunks(2, len);
  for (auto _ : state) {
    reo::gf256::MulAccScalar(bufs[0], bufs[1], 0x57);
    benchmark::DoNotOptimize(bufs[0].data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}
BENCHMARK(BM_GfMulAccScalar)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_GfMulBuf(benchmark::State& state) {
  size_t len = static_cast<size_t>(state.range(0));
  auto c = static_cast<uint8_t>(state.range(1));
  auto bufs = RandomChunks(2, len);
  for (auto _ : state) {
    reo::gf256::MulBuf(bufs[0], bufs[1], c);
    benchmark::DoNotOptimize(bufs[0].data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}
BENCHMARK(BM_GfMulBuf)->ArgsProduct({{1024, 64 * 1024}, {1, 0x57}});

void BM_GfMulBufScalar(benchmark::State& state) {
  size_t len = static_cast<size_t>(state.range(0));
  auto bufs = RandomChunks(2, len);
  for (auto _ : state) {
    reo::gf256::MulBufScalar(bufs[0], bufs[1], 0x57);
    benchmark::DoNotOptimize(bufs[0].data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}
BENCHMARK(BM_GfMulBufScalar)->Arg(1024)->Arg(64 * 1024);

void BM_RsEncode(benchmark::State& state) {
  size_t m = static_cast<size_t>(state.range(0));
  size_t k = static_cast<size_t>(state.range(1));
  size_t len = 64 * 1024;
  RsCode code(m, k);
  auto data = RandomChunks(m, len);
  std::vector<std::vector<uint8_t>> parity(k, std::vector<uint8_t>(len));
  std::vector<std::span<const uint8_t>> ds(data.begin(), data.end());
  std::vector<std::span<uint8_t>> ps(parity.begin(), parity.end());
  for (auto _ : state) {
    code.Encode(ds, ps);
    benchmark::DoNotOptimize(parity[0].data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m * len));
}
// The geometries Reo uses on a 5-device array: 4+1, 3+2, and wider arrays.
BENCHMARK(BM_RsEncode)->Args({4, 1})->Args({3, 2})->Args({8, 2})->Args({10, 4});

void BM_RsEncodeCauchy(benchmark::State& state) {
  size_t m = static_cast<size_t>(state.range(0));
  size_t k = static_cast<size_t>(state.range(1));
  size_t len = 64 * 1024;
  RsCode code(m, k, reo::RsConstruction::kCauchy);
  auto data = RandomChunks(m, len);
  std::vector<std::vector<uint8_t>> parity(k, std::vector<uint8_t>(len));
  std::vector<std::span<const uint8_t>> ds(data.begin(), data.end());
  std::vector<std::span<uint8_t>> ps(parity.begin(), parity.end());
  for (auto _ : state) {
    code.Encode(ds, ps);
    benchmark::DoNotOptimize(parity[0].data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m * len));
}
BENCHMARK(BM_RsEncodeCauchy)->Args({4, 1})->Args({3, 2});

void BM_RsReconstruct(benchmark::State& state) {
  size_t m = static_cast<size_t>(state.range(0));
  size_t k = static_cast<size_t>(state.range(1));
  size_t erased = static_cast<size_t>(state.range(2));
  size_t len = 64 * 1024;
  RsCode code(m, k);
  auto data = RandomChunks(m, len);
  std::vector<std::vector<uint8_t>> parity(k, std::vector<uint8_t>(len));
  std::vector<std::span<const uint8_t>> ds(data.begin(), data.end());
  std::vector<std::span<uint8_t>> ps(parity.begin(), parity.end());
  code.Encode(ds, ps);

  // Erase the first `erased` data fragments; decode from the rest.
  std::vector<std::pair<size_t, std::span<const uint8_t>>> present;
  for (size_t f = erased; f < m; ++f) present.emplace_back(f, data[f]);
  for (size_t p = 0; p < k; ++p) present.emplace_back(m + p, parity[p]);
  std::vector<size_t> missing;
  for (size_t f = 0; f < erased; ++f) missing.push_back(f);
  std::vector<std::vector<uint8_t>> out(erased, std::vector<uint8_t>(len));
  std::vector<std::span<uint8_t>> os(out.begin(), out.end());

  for (auto _ : state) {
    benchmark::DoNotOptimize(code.Reconstruct(present, missing, os).ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(erased * len));
}
BENCHMARK(BM_RsReconstruct)->Args({3, 2, 1})->Args({3, 2, 2})->Args({4, 1, 1});

// One 64 KiB object put over and over on a 5-device array at full scale:
// allocation, encode, copy and CRC per stored chunk, as the serving write
// path pays them. Arg: RedundancyLevel (0 = none, 2 = 2-parity,
// 3 = replicate).
void BM_StripePut(benchmark::State& state) {
  auto level = static_cast<reo::RedundancyLevel>(state.range(0));
  constexpr uint64_t kObject = 64 * 1024;
  reo::FlashArray array(5, reo::FlashDeviceConfig{});
  reo::StripeManager stripes(
      array, reo::StripeManagerConfig{.chunk_logical_bytes = kObject});
  auto payload = RandomChunks(1, kObject)[0];
  reo::ObjectId id{reo::kFirstUserId, 1};
  for (auto _ : state) {
    auto io = stripes.PutObject(id, payload, kObject, level, 0);
    if (!io.ok()) state.SkipWithError("put failed");
    benchmark::DoNotOptimize(io);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kObject));
  state.SetLabel(std::string(reo::to_string(level)));
}
BENCHMARK(BM_StripePut)
    ->Arg(static_cast<int>(reo::RedundancyLevel::kNone))
    ->Arg(static_cast<int>(reo::RedundancyLevel::kParity2))
    ->Arg(static_cast<int>(reo::RedundancyLevel::kReplicate));

}  // namespace

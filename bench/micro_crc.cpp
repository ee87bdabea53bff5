// Microbenchmarks: CRC32C throughput per kernel (google-benchmark). Each
// kernel is pinned through Crc32cWith, so one run shows where each wins;
// BM_Crc32c is the runtime dispatch every caller takes. Kernels this CPU
// lacks report an error row instead of a time.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"

namespace {

using reo::Crc32cKernel;

std::vector<uint8_t> RandomBytes(size_t len) {
  reo::Pcg32 rng(42);
  std::vector<uint8_t> buf(len);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  return buf;
}

void BM_Crc32cKernel(benchmark::State& state, Crc32cKernel kernel) {
  auto buf = RandomBytes(static_cast<size_t>(state.range(0)));
  if (!reo::Crc32cWith(kernel, buf).has_value()) {
    state.SkipWithError("kernel not supported on this CPU");
    return;
  }
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = *reo::Crc32cWith(kernel, buf, crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_Crc32c(benchmark::State& state) {
  auto buf = RandomBytes(static_cast<size_t>(state.range(0)));
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = reo::Crc32c(buf, crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}

void Sizes(benchmark::internal::Benchmark* b) {
  for (int64_t len : {256, 4 * 1024, 64 * 1024, 1024 * 1024}) b->Arg(len);
}

BENCHMARK_CAPTURE(BM_Crc32cKernel, portable, Crc32cKernel::kPortable)
    ->Apply(Sizes);
BENCHMARK_CAPTURE(BM_Crc32cKernel, sse42, Crc32cKernel::kSse42)->Apply(Sizes);
BENCHMARK_CAPTURE(BM_Crc32cKernel, clmul3lane, Crc32cKernel::kClmul3Lane)
    ->Apply(Sizes);
BENCHMARK_CAPTURE(BM_Crc32cKernel, avx512fold, Crc32cKernel::kAvx512Fold)
    ->Apply(Sizes);
BENCHMARK(BM_Crc32c)->Apply(Sizes);

}  // namespace

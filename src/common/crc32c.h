// CRC32C (Castagnoli) checksum, used to verify chunk payload integrity in
// the flash data plane and to detect corruption injected by device failures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

namespace reo {

/// Computes CRC32C over `data`, continuing from `seed` (0 for a fresh CRC).
/// Dispatches at runtime to the widest kernel this CPU has for the input
/// size (see Crc32cKernel); every kernel computes the same value.
uint32_t Crc32c(std::span<const uint8_t> data, uint32_t seed = 0);

/// Table-driven portable path, always available. Exposed as the reference
/// the differential tests pin every other kernel against.
uint32_t Crc32cPortable(std::span<const uint8_t> data, uint32_t seed = 0);

/// The CRC32C kernels, narrowest first. Crc32c takes the widest one the
/// CPU has whose minimum size the input reaches. GB/s are `bench/micro_crc`
/// on one 64 KiB buffer, one core of a 4-vCPU AVX-512 Xeon VM.
enum class Crc32cKernel : uint8_t {
  /// 256-entry table, one byte per step (0.35 GB/s). Every CPU.
  kPortable,
  /// SSE4.2 `crc32q`, one dependent stream (7.4 GB/s). Small inputs and
  /// the tails the wider kernels leave.
  kSse42,
  /// Three `crc32q` streams over adjacent lanes of each 3 KiB block,
  /// recombined by PCLMULQDQ (20.6 GB/s). The `crc32q` unit's one
  /// instruction per cycle caps it at 8 B/cycle.
  kClmul3Lane,
  /// Four 512-bit accumulators folded across 256-byte blocks with
  /// VPCLMULQDQ (61 GB/s; at 256 B 10.8 GB/s against SSE4.2's 6.1).
  /// Needs AVX-512F/VL and VPCLMULQDQ.
  kAvx512Fold,
};

/// CRC32C of `data` on exactly `kernel` (any length: a kernel hands what is
/// below its block size to the SSE4.2 loop), or nullopt when this CPU
/// lacks it. The test and micro-benchmark seam; callers use Crc32c.
std::optional<uint32_t> Crc32cWith(Crc32cKernel kernel,
                                   std::span<const uint8_t> data,
                                   uint32_t seed = 0);

/// Minimum input size (bytes) for kClmul3Lane (one 3-lane block).
inline constexpr size_t kCrc32cFoldThreshold = 3 * 1024;

}  // namespace reo

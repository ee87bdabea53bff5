#include "common/crc32c.h"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace reo {
namespace {

// Table-driven CRC32C (polynomial 0x1EDC6F41, reflected 0x82F63B78).
constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = MakeTable();

uint32_t Crc32cSoftware(std::span<const uint8_t> data, uint32_t crc) {
  for (uint8_t byte : data) {
    crc = kTable[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__) || defined(__i386__)
// Hardware path: the SSE4.2 CRC32 instruction computes exactly CRC32C.
// The data plane checksums every chunk on every IO, so this is hot.
__attribute__((target("sse4.2")))
uint32_t Crc32cHardware(std::span<const uint8_t> data, uint32_t crc) {
  const uint8_t* p = data.data();
  size_t n = data.size();
#if defined(__x86_64__)
  uint64_t crc64 = crc;
  while (n >= 8) {
    uint64_t word;
    __builtin_memcpy(&word, p, 8);
    crc64 = __builtin_ia32_crc32di(crc64, word);
    p += 8;
    n -= 8;
  }
  crc = static_cast<uint32_t>(crc64);
#endif
  while (n >= 4) {
    uint32_t word;
    __builtin_memcpy(&word, p, 4);
    crc = __builtin_ia32_crc32si(crc, word);
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    crc = __builtin_ia32_crc32qi(crc, *p);
    ++p;
    --n;
  }
  return crc;
}

bool HasSse42() {
  static const bool has = __builtin_cpu_supports("sse4.2");
  return has;
}
#endif

#if defined(__x86_64__)
// --- PCLMULQDQ-folded bulk path ---------------------------------------------
//
// The SSE4.2 crc32q instruction has 3-cycle latency but 1-cycle
// throughput, so a single dependent stream leaves 2/3 of the unit idle.
// The folded path runs THREE independent crc32q streams over adjacent
// kFoldLane-byte lanes of each block, then recombines the three partial
// CRCs with carry-less multiplies. That saturates the crc32q unit (8
// bytes per cycle), which is as fast as any crc32q-based kernel can go.
//
// Combine math, in the reflected-CRC state convention (state bit i =
// coefficient of x^i; G below is the degree-32 CRC32C polynomial in that
// convention, G = (0x82F63B78 << 1) | 1):
//
//   * Appending one zero BIT to the message multiplies the state
//     polynomial by x^-1 mod G, so appending N zero bytes multiplies by
//     x^-8N — "shifting" a lane CRC across the lanes after it.
//   * crc32q with a zero seed maps a 64-bit operand D to D(x) * x^-64
//     mod G, and PCLMULQDQ computes the plain polynomial product, so
//     crc32q(0, clmul(C, K)) = C(x) * K(x) * x^-64 mod G.
//   * Picking K = x^(64 - 8N) mod G therefore turns that two-instruction
//     sequence into exactly the shift-by-N-zero-bytes map.
//
// With lane CRCs c0 (seeded with the running CRC), c1, c2 (seeded 0):
//   crc(block) = shift_2L(c0) ^ shift_L(c1) ^ c2
//              = crc32q(0, clmul(c0, K_2L) ^ clmul(c1, K_L)) ^ c2.
// The constants are powers of x^-1 = 0x82F63B78 mod G, computed at
// compile time by plain square-and-multiply — no opaque magic numbers, and
// the differential test pins the whole construction against the portable
// table implementation.

constexpr size_t kFoldLane = kCrc32cFoldThreshold / 3;
constexpr uint64_t kPolyG = (0x82F63B78ull << 1) | 1;  // x^32..x^0 coeffs

/// GF(2) polynomial multiply mod G; operands/result use bit i = coeff x^i.
constexpr uint32_t PolyMulMod(uint32_t a, uint32_t b) {
  uint64_t prod = 0;
  for (int i = 0; i < 32; ++i) {
    if ((a >> i) & 1) prod ^= static_cast<uint64_t>(b) << i;
  }
  for (int i = 62; i >= 32; --i) {
    if ((prod >> i) & 1) prod ^= kPolyG << (i - 32);
  }
  return static_cast<uint32_t>(prod);
}

/// (x^-1)^e mod G by square-and-multiply.
constexpr uint32_t PolyPowXInv(uint64_t e) {
  uint32_t result = 1;            // polynomial "1"
  uint32_t base = 0x82F63B78u;    // x^-1 mod G
  while (e != 0) {
    if (e & 1) result = PolyMulMod(result, base);
    base = PolyMulMod(base, base);
    e >>= 1;
  }
  return result;
}

// K_L = x^(64 - 8L), K_2L = x^(64 - 16L): both exponents are negative for
// any useful lane size, i.e. powers of x^-1.
constexpr uint32_t kFoldShiftL = PolyPowXInv(8 * kFoldLane - 64);
constexpr uint32_t kFoldShift2L = PolyPowXInv(16 * kFoldLane - 64);

__attribute__((target("sse4.2,pclmul")))
uint32_t Crc32cFolded(std::span<const uint8_t> data, uint32_t crc) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t c0 = crc;
  const __m128i k = _mm_set_epi64x(static_cast<long long>(kFoldShiftL),
                                   static_cast<long long>(kFoldShift2L));
  while (n >= 3 * kFoldLane) {
    uint64_t s0 = c0, s1 = 0, s2 = 0;
    const uint8_t* q0 = p;
    const uint8_t* q1 = p + kFoldLane;
    const uint8_t* q2 = p + 2 * kFoldLane;
    for (size_t i = 0; i < kFoldLane; i += 8) {
      uint64_t w0, w1, w2;
      __builtin_memcpy(&w0, q0 + i, 8);
      __builtin_memcpy(&w1, q1 + i, 8);
      __builtin_memcpy(&w2, q2 + i, 8);
      s0 = _mm_crc32_u64(s0, w0);
      s1 = _mm_crc32_u64(s1, w1);
      s2 = _mm_crc32_u64(s2, w2);
    }
    // imm 0x00: a.lo * k.lo (c0 * K_2L); 0x10: a.lo * k.hi (c1 * K_L).
    // Both products have degree <= 62, so the low 64 bits hold them fully.
    __m128i f0 =
        _mm_clmulepi64_si128(_mm_cvtsi64_si128(static_cast<long long>(s0)), k,
                             0x00);
    __m128i f1 =
        _mm_clmulepi64_si128(_mm_cvtsi64_si128(static_cast<long long>(s1)), k,
                             0x10);
    uint64_t folded =
        static_cast<uint64_t>(_mm_cvtsi128_si64(_mm_xor_si128(f0, f1)));
    c0 = _mm_crc32_u64(0, folded) ^ s2;
    p += 3 * kFoldLane;
    n -= 3 * kFoldLane;
  }
  return Crc32cHardware({p, n}, static_cast<uint32_t>(c0));
}

bool HasClmul() {
  static const bool has =
      __builtin_cpu_supports("sse4.2") && __builtin_cpu_supports("pclmul");
  return has;
}

// --- VPCLMULQDQ (AVX-512) folding path --------------------------------------
//
// Same algebra as above, on 512-bit registers and without crc32q in the
// loop. Bytes load little-endian, so register bit k holds message bit k in
// CRC processing order, and a polynomial V sitting at some position in the
// message adds V(x) * x^-(bits after that position) to the final state.
// Moving V forward by D bytes therefore needs V * x^-8D. For each 128-bit
// lane V = lo + hi * x^64:
//
//   V * x^-8D = lo * x^-8D + hi * x^(64 - 8D)  (mod G)
//             = clmul(lo, K_lo) ^ clmul(hi, K_hi),
//
// a product of degree <= 94 that fits back in its lane. Four accumulators
// hold the first 256 bytes (the running CRC XORed into the first 4) and
// fold forward over each next 256-byte block; they then fold into one,
// 64 bytes at a time, which also absorbs the remaining whole 64-byte
// blocks. The last 64-byte value adds exactly what crc32q computes over
// it from seed 0, so the SSE4.2 loop finishes it and then the tail.

struct FoldConstants {
  uint32_t lo;  ///< x^-8D mod G
  uint32_t hi;  ///< x^(64 - 8D) mod G
};

constexpr FoldConstants FoldBy(size_t bytes) {
  return {PolyPowXInv(8 * bytes), PolyPowXInv(8 * bytes - 64)};
}

/// Minimum input for the kernel: one 64-byte block per accumulator.
/// `bench/micro_crc` has it 1.8x SSE4.2 already at this size, so Crc32c
/// sends it every input this large when the CPU has it.
constexpr size_t kAvx512Threshold = 256;

constexpr FoldConstants kFold256 = FoldBy(256);
constexpr FoldConstants kFold64 = FoldBy(64);

#define REO_AVX512_FOLD_TARGET \
  __attribute__((target("avx512f,avx512vl,vpclmulqdq,sse4.2")))

REO_AVX512_FOLD_TARGET
inline __m512i FoldKey(FoldConstants k) {
  const auto lo = static_cast<long long>(k.lo);
  const auto hi = static_cast<long long>(k.hi);
  return _mm512_set_epi64(hi, lo, hi, lo, hi, lo, hi, lo);
}

/// acc * x^-8D ^ next, per 128-bit lane: imm 0x00 multiplies the low
/// qwords (lo * K_lo), 0x11 the high ones (hi * K_hi); 0x96 is a 3-way XOR.
REO_AVX512_FOLD_TARGET
inline __m512i Fold(__m512i acc, __m512i key, __m512i next) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(acc, key, 0x00),
                                   _mm512_clmulepi64_epi128(acc, key, 0x11),
                                   next, 0x96);
}

REO_AVX512_FOLD_TARGET
uint32_t Crc32cAvx512(std::span<const uint8_t> data, uint32_t crc) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  if (n < kAvx512Threshold) return Crc32cHardware(data, crc);
  __m512i x0 = _mm512_xor_si512(_mm512_loadu_si512(p),
                                _mm512_castsi128_si512(_mm_cvtsi32_si128(
                                    static_cast<int>(crc))));
  __m512i x1 = _mm512_loadu_si512(p + 64);
  __m512i x2 = _mm512_loadu_si512(p + 128);
  __m512i x3 = _mm512_loadu_si512(p + 192);
  p += 256;
  n -= 256;
  const __m512i k256 = FoldKey(kFold256);
  while (n >= 256) {
    x0 = Fold(x0, k256, _mm512_loadu_si512(p));
    x1 = Fold(x1, k256, _mm512_loadu_si512(p + 64));
    x2 = Fold(x2, k256, _mm512_loadu_si512(p + 128));
    x3 = Fold(x3, k256, _mm512_loadu_si512(p + 192));
    p += 256;
    n -= 256;
  }
  const __m512i k64 = FoldKey(kFold64);
  __m512i x = Fold(Fold(Fold(x0, k64, x1), k64, x2), k64, x3);
  while (n >= 64) {
    x = Fold(x, k64, _mm512_loadu_si512(p));
    p += 64;
    n -= 64;
  }
  uint8_t folded[64];
  _mm512_storeu_si512(folded, x);
  return Crc32cHardware({p, n}, Crc32cHardware(folded, 0));
}

#undef REO_AVX512_FOLD_TARGET

bool HasAvx512Fold() {
  static const bool has = __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("avx512vl") &&
                          __builtin_cpu_supports("vpclmulqdq") &&
                          __builtin_cpu_supports("sse4.2");
  return has;
}
#endif

}  // namespace

uint32_t Crc32c(std::span<const uint8_t> data, uint32_t seed) {
  uint32_t crc = ~seed;
#if defined(__x86_64__)
  if (data.size() >= kAvx512Threshold && HasAvx512Fold()) {
    return ~Crc32cAvx512(data, crc);
  }
  if (data.size() >= kCrc32cFoldThreshold && HasClmul()) {
    return ~Crc32cFolded(data, crc);
  }
#endif
#if defined(__x86_64__) || defined(__i386__)
  if (HasSse42()) return ~Crc32cHardware(data, crc);
#endif
  return ~Crc32cSoftware(data, crc);
}

uint32_t Crc32cPortable(std::span<const uint8_t> data, uint32_t seed) {
  return ~Crc32cSoftware(data, ~seed);
}

std::optional<uint32_t> Crc32cWith(Crc32cKernel kernel,
                                   std::span<const uint8_t> data,
                                   uint32_t seed) {
  uint32_t crc = ~seed;
  switch (kernel) {
    case Crc32cKernel::kPortable:
      return ~Crc32cSoftware(data, crc);
#if defined(__x86_64__) || defined(__i386__)
    case Crc32cKernel::kSse42:
      if (HasSse42()) return ~Crc32cHardware(data, crc);
      break;
#endif
#if defined(__x86_64__)
    case Crc32cKernel::kClmul3Lane:
      if (HasClmul()) return ~Crc32cFolded(data, crc);
      break;
    case Crc32cKernel::kAvx512Fold:
      if (HasAvx512Fold()) return ~Crc32cAvx512(data, crc);
      break;
#endif
    default:
      break;
  }
  return std::nullopt;
}

}  // namespace reo

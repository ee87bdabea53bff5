#include "ec/gf256.h"

#include <algorithm>
#include <array>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/status.h"

namespace reo::gf256 {
namespace {

constexpr uint16_t kPoly = 0x11D;  // x^8+x^4+x^3+x^2+1

struct Tables {
  std::array<uint8_t, 512> exp{};  // doubled to avoid a mod in Mul
  std::array<uint8_t, 256> log{};
};

constexpr Tables MakeTables() {
  Tables t{};
  uint16_t x = 1;
  for (int i = 0; i < 255; ++i) {
    t.exp[static_cast<size_t>(i)] = static_cast<uint8_t>(x);
    t.log[static_cast<size_t>(x)] = static_cast<uint8_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= kPoly;
  }
  for (int i = 255; i < 512; ++i) {
    t.exp[static_cast<size_t>(i)] = t.exp[static_cast<size_t>(i - 255)];
  }
  return t;
}

constexpr Tables kT = MakeTables();

}  // namespace

uint8_t Mul(uint8_t a, uint8_t b) {
  if (a == 0 || b == 0) return 0;
  return kT.exp[static_cast<size_t>(kT.log[a]) + kT.log[b]];
}

uint8_t Div(uint8_t a, uint8_t b) {
  REO_CHECK(b != 0);
  if (a == 0) return 0;
  return kT.exp[static_cast<size_t>(kT.log[a]) + 255 - kT.log[b]];
}

uint8_t Inv(uint8_t a) {
  REO_CHECK(a != 0);
  return kT.exp[static_cast<size_t>(255 - kT.log[a])];
}

uint8_t Pow(uint8_t a, uint32_t e) {
  if (e == 0) return 1;
  if (a == 0) return 0;
  uint32_t l = (static_cast<uint32_t>(kT.log[a]) * e) % 255;
  return kT.exp[l];
}

void MulAccScalar(std::span<uint8_t> dst, std::span<const uint8_t> src,
                  uint8_t c) {
  REO_CHECK(dst.size() == src.size());
  if (c == 0) return;
  if (c == 1) {
    for (size_t i = 0; i < dst.size(); ++i) dst[i] ^= src[i];
    return;
  }
  // Per-coefficient 256-entry product table: one lookup per byte.
  uint8_t table[256];
  for (int v = 0; v < 256; ++v) table[v] = Mul(c, static_cast<uint8_t>(v));
  for (size_t i = 0; i < dst.size(); ++i) dst[i] ^= table[src[i]];
}

void MulBufScalar(std::span<uint8_t> dst, std::span<const uint8_t> src,
                  uint8_t c) {
  REO_CHECK(dst.size() == src.size());
  if (c == 0) {
    for (auto& b : dst) b = 0;
    return;
  }
  if (c == 1) {
    for (size_t i = 0; i < dst.size(); ++i) dst[i] = src[i];
    return;
  }
  uint8_t table[256];
  for (int v = 0; v < 256; ++v) table[v] = Mul(c, static_cast<uint8_t>(v));
  for (size_t i = 0; i < dst.size(); ++i) dst[i] = table[src[i]];
}

#if defined(__x86_64__) || defined(__i386__)
namespace {

/// Split-nibble product tables for one coefficient: lo[v] = c*v,
/// hi[v] = c*(v<<4), so c*b = lo[b & 0xF] ^ hi[b >> 4] — exactly the two
/// pshufb lookups per 16 bytes the SIMD kernels run.
struct NibbleTables {
  alignas(16) uint8_t lo[16];
  alignas(16) uint8_t hi[16];
};

NibbleTables MakeNibbleTables(uint8_t c) {
  NibbleTables t;
  for (int v = 0; v < 16; ++v) {
    t.lo[v] = Mul(c, static_cast<uint8_t>(v));
    t.hi[v] = Mul(c, static_cast<uint8_t>(v << 4));
  }
  return t;
}

/// 16 products per iteration: two pshufb table lookups (low and high
/// nibble) and a xor, instead of sixteen serial L1 loads.
__attribute__((target("ssse3")))
void MulAccSimd(uint8_t* dst, const uint8_t* src, size_t n, uint8_t c) {
  const NibbleTables t = MakeNibbleTables(c);
  const __m128i lo_tbl = _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo));
  const __m128i hi_tbl = _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi));
  const __m128i mask = _mm_set1_epi8(0x0F);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m128i d = _mm_loadu_si128(reinterpret_cast<__m128i*>(dst + i));
    __m128i lo = _mm_shuffle_epi8(lo_tbl, _mm_and_si128(s, mask));
    __m128i hi = _mm_shuffle_epi8(
        hi_tbl, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
    d = _mm_xor_si128(d, _mm_xor_si128(lo, hi));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), d);
  }
  for (; i < n; ++i) dst[i] ^= t.lo[src[i] & 0x0F] ^ t.hi[src[i] >> 4];
}

__attribute__((target("ssse3")))
void MulBufSimd(uint8_t* dst, const uint8_t* src, size_t n, uint8_t c) {
  const NibbleTables t = MakeNibbleTables(c);
  const __m128i lo_tbl = _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo));
  const __m128i hi_tbl = _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi));
  const __m128i mask = _mm_set1_epi8(0x0F);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m128i lo = _mm_shuffle_epi8(lo_tbl, _mm_and_si128(s, mask));
    __m128i hi = _mm_shuffle_epi8(
        hi_tbl, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(lo, hi));
  }
  for (; i < n; ++i) dst[i] = t.lo[src[i] & 0x0F] ^ t.hi[src[i] >> 4];
}

/// dst ^= src: the c == 1 product. SSE2 is a subset of SSSE3, so the one
/// runtime check covers both kernels.
__attribute__((target("sse2")))
void XorSimd(uint8_t* dst, const uint8_t* src, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m128i d = _mm_loadu_si128(reinterpret_cast<__m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_xor_si128(d, s));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

bool HasSsse3() {
  static const bool has = __builtin_cpu_supports("ssse3");
  return has;
}

/// Below this, building the nibble tables costs more than it saves.
constexpr size_t kSimdCutover = 32;

}  // namespace
#endif  // x86

bool HasSimdKernels() {
#if defined(__x86_64__) || defined(__i386__)
  return HasSsse3();
#else
  return false;
#endif
}

void MulAcc(std::span<uint8_t> dst, std::span<const uint8_t> src, uint8_t c) {
#if defined(__x86_64__) || defined(__i386__)
  if (c != 0 && dst.size() == src.size() && dst.size() >= kSimdCutover &&
      HasSsse3()) {
    if (c == 1) {
      XorSimd(dst.data(), src.data(), dst.size());
    } else {
      MulAccSimd(dst.data(), src.data(), dst.size(), c);
    }
    return;
  }
#endif
  MulAccScalar(dst, src, c);
}

void MulBuf(std::span<uint8_t> dst, std::span<const uint8_t> src, uint8_t c) {
  REO_CHECK(dst.size() == src.size());
  if (dst.empty()) return;
  if (c == 0) {
    std::fill(dst.begin(), dst.end(), uint8_t{0});
    return;
  }
  if (c == 1) {
    std::memcpy(dst.data(), src.data(), dst.size());
    return;
  }
#if defined(__x86_64__) || defined(__i386__)
  if (dst.size() >= kSimdCutover && HasSsse3()) {
    MulBufSimd(dst.data(), src.data(), dst.size(), c);
    return;
  }
#endif
  MulBufScalar(dst, src, c);
}

}  // namespace reo::gf256

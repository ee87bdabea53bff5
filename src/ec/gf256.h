// GF(2^8) arithmetic for Reed-Solomon coding.
//
// Field: polynomial basis with the AES/Rijndael-compatible primitive
// polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D), generator 2. Multiplication
// and division go through exp/log tables; bulk multiply-accumulate over
// buffers is the hot path of stripe encoding and reconstruction.
#pragma once

#include <cstdint>
#include <span>

namespace reo::gf256 {

/// a + b (== a - b) in GF(256).
constexpr uint8_t Add(uint8_t a, uint8_t b) { return a ^ b; }

/// a * b via exp/log tables.
uint8_t Mul(uint8_t a, uint8_t b);

/// a / b; b must be non-zero.
uint8_t Div(uint8_t a, uint8_t b);

/// Multiplicative inverse; a must be non-zero.
uint8_t Inv(uint8_t a);

/// a^e (e >= 0).
uint8_t Pow(uint8_t a, uint32_t e);

/// dst[i] ^= c * src[i] for all i. The stripe-encoding kernel. Dispatches
/// to an SSSE3 pshufb split-nibble kernel at runtime when the CPU has it
/// (mirroring the CRC32C SSE4.2 dispatch), and c == 1 — every coefficient
/// of XOR parity and of a one-data-chunk stripe — to a vector XOR;
/// byte-identical to the scalar path either way.
void MulAcc(std::span<uint8_t> dst, std::span<const uint8_t> src, uint8_t c);

/// dst[i] = c * src[i] for all i; every byte of dst is overwritten. c == 1
/// is a memcpy and c == 0 a fill; other coefficients dispatch like MulAcc.
void MulBuf(std::span<uint8_t> dst, std::span<const uint8_t> src, uint8_t c);

/// Portable table-per-coefficient reference kernels. Exposed so the
/// differential tests and micro-benches can pin the SIMD path against
/// them; production code calls MulAcc/MulBuf and gets the dispatch.
void MulAccScalar(std::span<uint8_t> dst, std::span<const uint8_t> src,
                  uint8_t c);
void MulBufScalar(std::span<uint8_t> dst, std::span<const uint8_t> src,
                  uint8_t c);

/// True when the runtime dispatch selects the SIMD kernels on this CPU.
bool HasSimdKernels();

}  // namespace reo::gf256

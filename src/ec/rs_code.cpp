#include "ec/rs_code.h"

#include "ec/gf256.h"

namespace reo {

RsCode::RsCode(size_t m, size_t k, RsConstruction construction)
    : m_(m), k_(k) {
  REO_CHECK(m >= 1);
  REO_CHECK(m + k <= 255);
  if (k == 1) {
    // Single parity is plain RAID-5 XOR: generator row of ones. Still MDS
    // (dropping identity row i leaves a unit upper/lower triangular-like
    // square with the ones-row, whose determinant is 1), and MulAcc's
    // coefficient-1 path reduces encoding to pure XOR.
    generator_ = GfMatrix(m + 1, m);
    for (size_t d = 0; d < m; ++d) {
      generator_.at(d, d) = 1;
      generator_.at(m, d) = 1;
    }
    return;
  }
  if (construction == RsConstruction::kCauchy) {
    // Identity on top, Cauchy parity rows C[p][d] = 1/(x_p + y_d) with
    // disjoint {x_p} and {y_d}: every square submatrix of a Cauchy matrix
    // is invertible, which makes [I; C] MDS.
    generator_ = GfMatrix(m + k, m);
    for (size_t d = 0; d < m; ++d) generator_.at(d, d) = 1;
    for (size_t p = 0; p < k; ++p) {
      for (size_t d = 0; d < m; ++d) {
        auto x = static_cast<uint8_t>(p);
        auto y = static_cast<uint8_t>(k + d);
        generator_.at(m + p, d) = gf256::Inv(gf256::Add(x, y));
      }
    }
    return;
  }
  // Systematic Vandermonde: G = V * inv(V_top). Right-multiplying by an
  // invertible matrix keeps every m x m row-submatrix invertible (each is
  // submatrix(V) * inv(V_top), a product of invertibles), so any m
  // surviving fragments decode — the MDS property. (Note: *row*-reducing V
  // instead would destroy this property.)
  GfMatrix v = GfMatrix::Vandermonde(m + k, m);
  std::vector<size_t> top(m);
  for (size_t i = 0; i < m; ++i) top[i] = i;
  auto top_inv = v.SelectRows(top).Inverse();
  REO_CHECK(top_inv.ok());
  generator_ = v.Multiply(*top_inv);
}

uint8_t RsCode::Coefficient(size_t p, size_t d) const {
  REO_CHECK(p < k_ && d < m_);
  return generator_.at(m_ + p, d);
}

void RsCode::Encode(std::span<const std::span<const uint8_t>> data,
                    std::span<const std::span<uint8_t>> parity) const {
  REO_CHECK(data.size() == m_);
  REO_CHECK(parity.size() == k_);
  for (size_t p = 0; p < k_; ++p) {
    EncodeParity(p, data, parity[p]);
  }
}

void RsCode::EncodeParity(size_t p,
                          std::span<const std::span<const uint8_t>> data,
                          std::span<uint8_t> parity) const {
  REO_CHECK(p < k_);
  REO_CHECK(data.size() == m_);
  // The first term overwrites, so whatever `parity` held does not matter.
  for (size_t d = 0; d < m_; ++d) {
    REO_CHECK(data[d].size() == parity.size());
    uint8_t coef = generator_.at(m_ + p, d);
    if (d == 0) {
      gf256::MulBuf(parity, data[d], coef);
    } else {
      gf256::MulAcc(parity, data[d], coef);
    }
  }
}

Status RsCode::Reconstruct(
    std::span<const std::pair<size_t, std::span<const uint8_t>>> present,
    std::span<const size_t> missing,
    std::span<const std::span<uint8_t>> out) const {
  REO_CHECK(missing.size() == out.size());
  if (present.size() < m_) {
    return {ErrorCode::kUnrecoverable, "fewer surviving fragments than m"};
  }
  // Use the first m survivors.
  std::vector<size_t> rows;
  rows.reserve(m_);
  std::vector<std::span<const uint8_t>> bufs;
  bufs.reserve(m_);
  for (const auto& [idx, buf] : present) {
    if (rows.size() == m_) break;
    REO_CHECK(idx < m_ + k_);
    rows.push_back(idx);
    bufs.push_back(buf);
  }
  // survivors = G[rows] * data  =>  data = inv(G[rows]) * survivors.
  GfMatrix sub = generator_.SelectRows(rows);
  auto inv = sub.Inverse();
  if (!inv.ok()) return inv.status();

  // For each missing fragment f, its row in G times recovered data gives the
  // fragment; compose G[f] * inv so each output is a single pass over the
  // survivor buffers.
  for (size_t mi = 0; mi < missing.size(); ++mi) {
    size_t f = missing[mi];
    REO_CHECK(f < m_ + k_);
    std::span<uint8_t> dst = out[mi];
    for (size_t s = 0; s < m_; ++s) {
      uint8_t coef = 0;
      for (size_t d = 0; d < m_; ++d) {
        coef = gf256::Add(coef, gf256::Mul(generator_.at(f, d), inv->at(d, s)));
      }
      REO_CHECK(bufs[s].size() == dst.size());
      if (s == 0) {
        gf256::MulBuf(dst, bufs[s], coef);  // the first term overwrites dst
      } else {
        gf256::MulAcc(dst, bufs[s], coef);
      }
    }
  }
  return Status::Ok();
}

}  // namespace reo

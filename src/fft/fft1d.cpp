#include "fft/fft1d.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace nbctune::fft {

std::size_t next_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

double fft_flops(std::size_t n) noexcept {
  if (n < 2) return 0.0;
  return 5.0 * static_cast<double>(n) * std::log2(static_cast<double>(n));
}

namespace {

/// Complex product without std::complex's Annex-G NaN/infinity recovery,
/// which finite transform data never needs.
inline cplx mul(cplx a, cplx b) noexcept {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

cplx unit(double angle) { return {std::cos(angle), std::sin(angle)}; }

}  // namespace

template <bool kBatch>
void Plan::radix2(cplx* a, std::size_t count, std::size_t ld,
                  bool inverse) const {
  // A contiguous vector is the batch of one with unit row stride, fixed at
  // compile time so the per-row loops below vanish.
  const std::size_t cnt = kBatch ? count : 1;
  const std::size_t row = kBatch ? ld : 1;
  for (const auto& [i, j] : swaps_) {
    cplx* x = a + i * row;
    cplx* y = a + j * row;
    for (std::size_t c = 0; c < cnt; ++c) std::swap(x[c], y[c]);
  }
  // The stages of length 2 and 4 fused: their twiddles are 1 and -i
  // (forward) or +i (inverse), so no multiplies.  Length 2 alone takes the
  // general loop below.
  const double s = inverse ? 1.0 : -1.0;
  for (std::size_t i = 0; i + 3 < m_; i += 4) {
    cplx* r0 = a + i * row;
    cplx* r1 = r0 + row;
    cplx* r2 = r1 + row;
    cplx* r3 = r2 + row;
    for (std::size_t c = 0; c < cnt; ++c) {
      const cplx b0 = r0[c] + r1[c], b1 = r0[c] - r1[c];
      const cplx b2 = r2[c] + r3[c], b3 = r2[c] - r3[c];
      const cplx t(-s * b3.imag(), s * b3.real());  // b3 * (s i)
      r0[c] = b0 + b2;
      r2[c] = b0 - b2;
      r1[c] = b1 + t;
      r3[c] = b1 - t;
    }
  }
  for (std::size_t len = m_ >= 4 ? 8 : 2; len <= m_; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t step = m_ / len;
    for (std::size_t i = 0; i < m_; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const cplx tw = twiddles_[k * step];
        const cplx w(tw.real(), -s * tw.imag());  // conjugate if inverse
        cplx* x = a + (i + k) * row;
        cplx* y = x + half * row;
        for (std::size_t c = 0; c < cnt; ++c) {
          const cplx v = mul(y[c], w);
          y[c] = x[c] - v;
          x[c] += v;
        }
      }
    }
  }
  if (inverse) {
    const double inv = 1.0 / static_cast<double>(m_);
    for (std::size_t j = 0; j < m_; ++j) {
      for (std::size_t c = 0; c < cnt; ++c) a[j * row + c] *= inv;
    }
  }
}

void Plan::bluestein(cplx* a, std::size_t count, std::size_t ld,
                     bool inverse) const {
  // The inverse is conj(DFT(conj(x))) / n, so one chirp and filter serve
  // both directions.  The convolution runs on all vectors at once in u,
  // element j of vector c at u[j * count + c], zero-padded to length m.
  std::vector<cplx> u(m_ * count);
  for (std::size_t j = 0; j < n_; ++j) {
    for (std::size_t c = 0; c < count; ++c) {
      const cplx x = a[j * ld + c];
      u[j * count + c] = mul(inverse ? std::conj(x) : x, chirp_[j]);
    }
  }
  radix2<true>(u.data(), count, count, false);
  for (std::size_t j = 0; j < m_; ++j) {
    for (std::size_t c = 0; c < count; ++c) {
      u[j * count + c] = mul(u[j * count + c], filter_[j]);
    }
  }
  radix2<true>(u.data(), count, count, true);
  const double inv = 1.0 / static_cast<double>(n_);
  for (std::size_t j = 0; j < n_; ++j) {
    for (std::size_t c = 0; c < count; ++c) {
      const cplx x = mul(u[j * count + c], chirp_[j]);
      a[j * ld + c] = inverse ? std::conj(x) * inv : x;
    }
  }
}

Plan::Plan(std::size_t n)
    : n_(n), m_(n <= 1 || is_pow2(n) ? n : next_pow2(2 * n - 1)) {
  if (n_ <= 1) return;
  for (std::size_t i = 1, j = 0; i < m_; ++i) {
    std::size_t bit = m_ >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) swaps_.emplace_back(i, j);
  }
  twiddles_.resize(m_ / 2);
  for (std::size_t k = 0; k < m_ / 2; ++k) {
    twiddles_[k] = unit(-2.0 * std::numbers::pi * static_cast<double>(k) /
                        static_cast<double>(m_));
  }
  if (m_ == n_) return;
  // Bluestein: a length-n DFT is the cyclic convolution of the chirped
  // input with conj(chirp), of length m, scaled by the chirp again.
  chirp_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    // k^2 mod 2n keeps the angle exact.
    const std::size_t k2 = (k * k) % (2 * n_);
    chirp_[k] = unit(-std::numbers::pi * static_cast<double>(k2) /
                     static_cast<double>(n_));
  }
  filter_.assign(m_, cplx(0.0));
  filter_[0] = std::conj(chirp_[0]);
  for (std::size_t k = 1; k < n_; ++k) {
    filter_[k] = filter_[m_ - k] = std::conj(chirp_[k]);
  }
  radix2<false>(filter_.data(), 1, 1, false);
}

void Plan::execute(cplx* data, bool inverse) const {
  if (n_ <= 1) return;
  if (m_ == n_) {
    radix2<false>(data, 1, 1, inverse);
  } else {
    bluestein(data, 1, 1, inverse);
  }
}

void Plan::execute_batch(cplx* data, std::size_t count, std::size_t ld,
                         bool inverse) const {
  if (n_ <= 1 || count == 0) return;
  if (m_ == n_) {
    radix2<true>(data, count, ld, inverse);
  } else {
    bluestein(data, count, ld, inverse);
  }
}

void fft_pow2(cplx* a, std::size_t n, bool inverse) {
  if (!is_pow2(n)) throw std::invalid_argument("fft_pow2: n not a power of 2");
  Plan(n).execute(a, inverse);
}

void fft(cplx* data, std::size_t n, bool inverse) {
  Plan(n).execute(data, inverse);
}

std::vector<cplx> dft_reference(const cplx* data, std::size_t n,
                                bool inverse) {
  std::vector<cplx> out(n);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    cplx acc(0.0);
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = sign * 2.0 * std::numbers::pi *
                         static_cast<double>(j * k % n) /
                         static_cast<double>(n);
      acc += data[j] * cplx(std::cos(ang), std::sin(ang));
    }
    out[k] = inverse ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

}  // namespace nbctune::fft

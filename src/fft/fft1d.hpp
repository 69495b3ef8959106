#pragma once

// Serial complex FFT, planned once per length: iterative radix-2 for
// powers of two, Bluestein's chirp-z algorithm for arbitrary lengths.  Used
// by the distributed 3-D kernel in real-math mode and by the tests as a
// verified building block.

#include <complex>
#include <cstddef>
#include <utility>
#include <vector>

namespace nbctune::fft {

using cplx = std::complex<double>;

[[nodiscard]] constexpr bool is_pow2(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Smallest power of two >= n.
[[nodiscard]] std::size_t next_pow2(std::size_t n) noexcept;

/// The transform of one length n, with everything that depends only on n
/// computed once: the bit-reversal swap pairs and the forward twiddles
/// exp(-2 pi i k / m) of the radix-2 length m, which is n itself for a
/// power of two and Bluestein's next_pow2(2n - 1) otherwise; for Bluestein
/// also the chirp and the already-transformed convolution filter.  A plan
/// is immutable after construction, so threads may share one freely.
class Plan {
 public:
  explicit Plan(std::size_t n);

  /// In-place transform of data[0, n).  inverse=true applies the inverse
  /// transform including the 1/n normalization.
  void execute(cplx* data, bool inverse = false) const;

  /// In-place transforms of `count` interleaved vectors: element j of
  /// vector c is data[j * ld + c], c < count <= ld.  With count = ld = n
  /// this transforms every column of a row-major n x n matrix; whole rows
  /// are swapped and butterflied, so the innermost loop runs along them.
  void execute_batch(cplx* data, std::size_t count, std::size_t ld,
                     bool inverse = false) const;

 private:
  template <bool kBatch>
  void radix2(cplx* a, std::size_t count, std::size_t ld, bool inverse) const;
  void bluestein(cplx* a, std::size_t count, std::size_t ld,
                 bool inverse) const;

  std::size_t n_;
  std::size_t m_;  // radix-2 length
  std::vector<std::pair<std::size_t, std::size_t>> swaps_;  // i < j
  std::vector<cplx> twiddles_;  // exp(-2 pi i k / m), k < m / 2
  std::vector<cplx> chirp_;     // Bluestein: exp(-i pi k^2 / n), k < n
  std::vector<cplx> filter_;    // Bluestein: FFT_m of the wrapped conj(chirp)
};

/// In-place FFT of length n (any n >= 1).  inverse=true applies the
/// unscaled-input inverse transform including the 1/n normalization.
/// Builds a Plan per call; hold a Plan to transform one length repeatedly.
void fft(cplx* data, std::size_t n, bool inverse = false);

/// In-place radix-2 FFT; n must be a power of two.
void fft_pow2(cplx* data, std::size_t n, bool inverse = false);

/// O(n^2) reference DFT (tests and documentation of the convention).
std::vector<cplx> dft_reference(const cplx* data, std::size_t n,
                                bool inverse = false);

/// Standard FFT cost model: ~5 n log2(n) floating-point operations.
[[nodiscard]] double fft_flops(std::size_t n) noexcept;

}  // namespace nbctune::fft

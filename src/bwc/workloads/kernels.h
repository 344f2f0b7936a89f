// The four kernels of the paper's Figure 1: convolution, dmxpy (Linpack),
// matrix multiply (naive jki = "-O2" and cache-blocked = "-O3"), and an
// iterative radix-2 FFT.
//
// Each kernel performs the real computation on real buffers and reports its
// exact access stream and flop count through a recorder. Instantiated with
// runtime::Recorder it feeds the hierarchy simulator (program balance);
// instantiated with runtime::NullRecorder it is the plain kernel for
// wall-clock benchmarking.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "bwc/support/error.h"
#include "bwc/workloads/address_space.h"

namespace bwc::workloads {

/// out[i] = sum_k w[k] * in[i+k], i = 0..n-1 (taps fully register-cached
/// would halve the register traffic; we keep the naive form).
class Convolution {
 public:
  Convolution(std::int64_t n, int taps, AddressSpace& space);

  std::int64_t n() const { return n_; }
  int taps() const { return taps_; }
  std::uint64_t flops() const {
    return 2ull * static_cast<std::uint64_t>(n_) *
           static_cast<std::uint64_t>(taps_);
  }

  template <typename Rec>
  double run(Rec& rec) {
    const int k = taps_;
    for (std::int64_t i = 0; i < n_; ++i) {
      double acc = 0.0;
      for (int t = 0; t < k; ++t) {
        rec.load_double(in_base_ + static_cast<std::uint64_t>(i + t) * 8);
        rec.load_double(w_base_ + static_cast<std::uint64_t>(t) * 8);
        acc += w_[static_cast<std::size_t>(t)] *
               in_[static_cast<std::size_t>(i + t)];
        rec.flops(2);
      }
      rec.store_double(out_base_ + static_cast<std::uint64_t>(i) * 8);
      out_[static_cast<std::size_t>(i)] = acc;
    }
    return out_[static_cast<std::size_t>(n_ - 1)];
  }

 private:
  std::int64_t n_;
  int taps_;
  std::vector<double> in_, out_, w_;
  std::uint64_t in_base_, out_base_, w_base_;
};

/// Linpack dmxpy: y(1:n1) += m(1:n1, 1:n2) * x(1:n2), with the classic
/// two-column unrolling. Column-major m; y is re-loaded per column pair,
/// which is what makes dmxpy the most bandwidth-hungry kernel in Figure 1.
class Dmxpy {
 public:
  Dmxpy(std::int64_t n1, std::int64_t n2, AddressSpace& space);

  std::int64_t n1() const { return n1_; }
  std::int64_t n2() const { return n2_; }
  std::uint64_t flops() const {
    return 2ull * static_cast<std::uint64_t>(n1_) *
           static_cast<std::uint64_t>(n2_);
  }

  template <typename Rec>
  double run(Rec& rec) {
    std::int64_t j = 0;
    if (n2_ % 2 == 1) {
      column_pass(rec, j, /*pair=*/false);
      j = 1;
    }
    for (; j < n2_; j += 2) column_pass(rec, j, /*pair=*/true);
    return y_[static_cast<std::size_t>(n1_ - 1)];
  }

 private:
  template <typename Rec>
  void column_pass(Rec& rec, std::int64_t j, bool pair) {
    const double xj = x_[static_cast<std::size_t>(j)];
    const double xj1 = pair ? x_[static_cast<std::size_t>(j + 1)] : 0.0;
    const std::uint64_t col0 =
        m_base_ + static_cast<std::uint64_t>(j * n1_) * 8;
    const std::uint64_t col1 =
        m_base_ + static_cast<std::uint64_t>((j + 1) * n1_) * 8;
    for (std::int64_t i = 0; i < n1_; ++i) {
      const std::uint64_t yi = y_base_ + static_cast<std::uint64_t>(i) * 8;
      rec.load_double(yi);
      double acc = y_[static_cast<std::size_t>(i)];
      rec.load_double(col0 + static_cast<std::uint64_t>(i) * 8);
      acc += xj * m_[static_cast<std::size_t>(j * n1_ + i)];
      rec.flops(2);
      if (pair) {
        rec.load_double(col1 + static_cast<std::uint64_t>(i) * 8);
        acc += xj1 * m_[static_cast<std::size_t>((j + 1) * n1_ + i)];
        rec.flops(2);
      }
      rec.store_double(yi);
      y_[static_cast<std::size_t>(i)] = acc;
    }
  }

  std::int64_t n1_, n2_;
  std::vector<double> m_, x_, y_;
  std::uint64_t m_base_, x_base_, y_base_;
};

/// Square matrix multiply C += A * B, column-major. run_jki is the naive
/// loop order a Fortran compiler emits at -O2; run_blocked is the
/// Carr-Kennedy cache-blocked version the paper credits for mm(-O3)'s
/// collapse in memory balance (5.9 -> 0.04 bytes/flop).
class MatMul {
 public:
  MatMul(std::int64_t n, AddressSpace& space);

  std::int64_t n() const { return n_; }
  std::uint64_t flops() const {
    const std::uint64_t n = static_cast<std::uint64_t>(n_);
    return 2 * n * n * n;
  }
  void reset_c();

  template <typename Rec>
  double run_jki(Rec& rec) {
    for (std::int64_t j = 0; j < n_; ++j) {
      for (std::int64_t k = 0; k < n_; ++k) {
        rec.load_double(addr(b_base_, k, j));
        const double bkj = b_[idx(k, j)];
        for (std::int64_t i = 0; i < n_; ++i) {
          rec.load_double(addr(a_base_, i, k));
          rec.load_double(addr(c_base_, i, j));
          const double v = c_[idx(i, j)] + a_[idx(i, k)] * bkj;
          rec.flops(2);
          rec.store_double(addr(c_base_, i, j));
          c_[idx(i, j)] = v;
        }
      }
    }
    return c_[idx(n_ - 1, n_ - 1)];
  }

  template <typename Rec>
  double run_blocked(Rec& rec, std::int64_t tile = 32) {
    for (std::int64_t jj = 0; jj < n_; jj += tile) {
      const std::int64_t je = std::min(jj + tile, n_);
      for (std::int64_t kk = 0; kk < n_; kk += tile) {
        const std::int64_t ke = std::min(kk + tile, n_);
        for (std::int64_t j = jj; j < je; ++j) {
          for (std::int64_t k = kk; k < ke; ++k) {
            rec.load_double(addr(b_base_, k, j));
            const double bkj = b_[idx(k, j)];
            for (std::int64_t i = 0; i < n_; ++i) {
              rec.load_double(addr(a_base_, i, k));
              rec.load_double(addr(c_base_, i, j));
              const double v = c_[idx(i, j)] + a_[idx(i, k)] * bkj;
              rec.flops(2);
              rec.store_double(addr(c_base_, i, j));
              c_[idx(i, j)] = v;
            }
          }
        }
      }
    }
    return c_[idx(n_ - 1, n_ - 1)];
  }

 private:
  std::size_t idx(std::int64_t i, std::int64_t j) const {
    return static_cast<std::size_t>(i + j * n_);
  }
  std::uint64_t addr(std::uint64_t base, std::int64_t i, std::int64_t j) const {
    return base + static_cast<std::uint64_t>(i + j * n_) * 8;
  }

  std::int64_t n_;
  std::vector<double> a_, b_, c_;
  std::uint64_t a_base_, b_base_, c_base_;
};

/// Iterative radix-2 complex FFT (separate real/imaginary arrays),
/// n a power of two. Twiddles are computed on the fly (flops counted),
/// matching a library FFT's bandwidth character: every stage streams the
/// whole data set. By default the result is left in bit-reversed order
/// (the form many libraries return); pass reorder_output=true to pay for
/// the scatter-heavy permutation pass as well.
class Fft {
 public:
  Fft(std::int64_t n, AddressSpace& space);

  std::int64_t n() const { return n_; }

  template <typename Rec>
  double run(Rec& rec, bool reorder_output = false) {
    if (reorder_output) bit_reverse(rec);
    for (std::int64_t len = 2; len <= n_; len <<= 1) {
      const double ang = -2.0 * M_PI / static_cast<double>(len);
      for (std::int64_t blk = 0; blk < n_; blk += len) {
        double wr = 1.0, wi = 0.0;
        const double cr = std::cos(ang), ci = std::sin(ang);
        for (std::int64_t k = 0; k < len / 2; ++k) {
          const std::int64_t u = blk + k;
          const std::int64_t v = blk + k + len / 2;
          rec.load_double(re_base_ + static_cast<std::uint64_t>(v) * 8);
          rec.load_double(im_base_ + static_cast<std::uint64_t>(v) * 8);
          const double tr = re_[static_cast<std::size_t>(v)] * wr -
                            im_[static_cast<std::size_t>(v)] * wi;
          const double ti = re_[static_cast<std::size_t>(v)] * wi +
                            im_[static_cast<std::size_t>(v)] * wr;
          rec.flops(6);
          rec.load_double(re_base_ + static_cast<std::uint64_t>(u) * 8);
          rec.load_double(im_base_ + static_cast<std::uint64_t>(u) * 8);
          const double ur = re_[static_cast<std::size_t>(u)];
          const double ui = im_[static_cast<std::size_t>(u)];
          rec.store_double(re_base_ + static_cast<std::uint64_t>(u) * 8);
          rec.store_double(im_base_ + static_cast<std::uint64_t>(u) * 8);
          re_[static_cast<std::size_t>(u)] = ur + tr;
          im_[static_cast<std::size_t>(u)] = ui + ti;
          rec.store_double(re_base_ + static_cast<std::uint64_t>(v) * 8);
          rec.store_double(im_base_ + static_cast<std::uint64_t>(v) * 8);
          re_[static_cast<std::size_t>(v)] = ur - tr;
          im_[static_cast<std::size_t>(v)] = ui - ti;
          rec.flops(4);
          const double nwr = wr * cr - wi * ci;
          wi = wr * ci + wi * cr;
          wr = nwr;
          rec.flops(6);
        }
      }
    }
    return re_[0] + im_[static_cast<std::size_t>(n_ - 1)];
  }

 private:
  template <typename Rec>
  void bit_reverse(Rec& rec) {
    for (std::int64_t i = 1, j = 0; i < n_; ++i) {
      std::int64_t bit = n_ >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j |= bit;
      if (i < j) {
        rec.load_double(re_base_ + static_cast<std::uint64_t>(i) * 8);
        rec.load_double(re_base_ + static_cast<std::uint64_t>(j) * 8);
        rec.store_double(re_base_ + static_cast<std::uint64_t>(i) * 8);
        rec.store_double(re_base_ + static_cast<std::uint64_t>(j) * 8);
        std::swap(re_[static_cast<std::size_t>(i)],
                  re_[static_cast<std::size_t>(j)]);
        rec.load_double(im_base_ + static_cast<std::uint64_t>(i) * 8);
        rec.load_double(im_base_ + static_cast<std::uint64_t>(j) * 8);
        rec.store_double(im_base_ + static_cast<std::uint64_t>(i) * 8);
        rec.store_double(im_base_ + static_cast<std::uint64_t>(j) * 8);
        std::swap(im_[static_cast<std::size_t>(i)],
                  im_[static_cast<std::size_t>(j)]);
      }
    }
  }

  std::int64_t n_;
  std::vector<double> re_, im_;
  std::uint64_t re_base_, im_base_;
};

}  // namespace bwc::workloads

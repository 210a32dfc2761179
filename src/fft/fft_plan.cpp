#include "fft/fft_plan.hpp"

#include <cmath>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "obs/obs.hpp"

namespace odonn::fft {

namespace {

/// Thread-local scratch so concurrent executes never contend or allocate
/// after warm-up.
template <class T>
std::vector<T>& scratch(std::size_t n) {
  thread_local std::vector<T> buf;
  if (buf.size() < n) buf.resize(n);
  return buf;
}

std::vector<std::size_t> bit_reverse_permutation(std::size_t n) {
  std::vector<std::size_t> rev(n);
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log2n; ++b) {
      r = (r << 1) | ((i >> b) & 1U);
    }
    rev[i] = r;
  }
  return rev;
}

/// exp(-2*pi*i*k/n) for k < n/2.
std::vector<Cplx> radix2_twiddles(std::size_t n) {
  std::vector<Cplx> tw(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double angle = -2.0 * M_PI * static_cast<double>(k) /
                         static_cast<double>(n);
    tw[k] = Cplx(std::cos(angle), std::sin(angle));
  }
  return tw;
}

/// One butterfly on elements i and i + half of every lane: the product by
/// the twiddle w = (wr, wi) is std::complex's finite-value formula
/// (a*c - b*d, a*d + b*c) without its NaN-recovery branch.
template <std::size_t Lanes, std::size_t Stride>
inline void butterfly(double* re, double* im, std::size_t i, std::size_t half,
                      double wr, double wi) {
  double* pr = re + i * Stride;
  double* pi = im + i * Stride;
  double* qr = re + (i + half) * Stride;
  double* qi = im + (i + half) * Stride;
  for (std::size_t s = 0; s < Lanes; ++s) {
    const double odd_r = qr[s] * wr - qi[s] * wi;
    const double odd_i = qr[s] * wi + qi[s] * wr;
    const double even_r = pr[s];
    const double even_i = pi[s];
    pr[s] = even_r + odd_r;
    pi[s] = even_i + odd_i;
    qr[s] = even_r - odd_r;
    qi[s] = even_i - odd_i;
  }
}

/// The radix-2 transform: in-place decimation-in-time transform of n
/// (power-of-two) elements, element i of lane s at re[i * Stride + s] and
/// im[i * Stride + s]. Interleaved std::complex storage is Lanes = 1,
/// Stride = 2 with im = re + 1 ([complex.numbers] fixes that layout);
/// lane-major storage is Lanes = Stride = kLanes. The inverse conjugates
/// the twiddles.
template <std::size_t Lanes, std::size_t Stride>
void radix2(double* re, double* im, std::size_t n, const Cplx* twiddles,
            const std::size_t* bit_reverse, bool inverse) {
  if (n <= 1) return;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = bit_reverse[i];
    if (i < j) {
      for (std::size_t s = 0; s < Lanes; ++s) {
        std::swap(re[i * Stride + s], re[j * Stride + s]);
        std::swap(im[i * Stride + s], im[j * Stride + s]);
      }
    }
  }
  const double conj_sign = inverse ? -1.0 : 1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    const std::size_t stride = n / len;  // also the number of groups
    // A stage's butterflies touch disjoint pairs, so their order leaves
    // every result unchanged. The longer of the two loops runs innermost:
    // early stages reuse each twiddle across all groups.
    if (half < stride) {
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = twiddles[k * stride].real();
        const double wi = conj_sign * twiddles[k * stride].imag();
        for (std::size_t base = 0; base < n; base += len) {
          butterfly<Lanes, Stride>(re, im, base + k, half, wr, wi);
        }
      }
    } else {
      for (std::size_t base = 0; base < n; base += len) {
        for (std::size_t k = 0; k < half; ++k) {
          const double wr = twiddles[k * stride].real();
          const double wi = conj_sign * twiddles[k * stride].imag();
          butterfly<Lanes, Stride>(re, im, base + k, half, wr, wi);
        }
      }
    }
  }
}

/// The butterfly at one lane over interleaved complex storage.
void radix2_interleaved(Cplx* data, std::size_t n, const Cplx* twiddles,
                        const std::size_t* bit_reverse, bool inverse) {
  double* re = reinterpret_cast<double*>(data);
  radix2<1, 2>(re, re + 1, n, twiddles, bit_reverse, inverse);
}

}  // namespace

std::size_t next_pow2(std::size_t n) {
  ODONN_CHECK(n >= 1, "next_pow2 requires n >= 1");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

Plan::Plan(std::size_t n) : n_(n) {
  ODONN_CHECK(n >= 1, "FFT length must be >= 1");
  if (is_pow2(n)) {
    conv_n_ = n;
    if (n > 1) {
      twiddles_ = radix2_twiddles(n);
      bit_reverse_ = bit_reverse_permutation(n);
    }
    return;
  }

  // Bluestein setup: convolution length m >= 2n-1, power of two.
  conv_n_ = next_pow2(2 * n - 1);
  twiddles_ = radix2_twiddles(conv_n_);
  bit_reverse_ = bit_reverse_permutation(conv_n_);

  bluestein_a_.resize(n);
  std::vector<Cplx> b(conv_n_, Cplx(0.0, 0.0));
  for (std::size_t j = 0; j < n; ++j) {
    // Reduce j^2 mod 2n before converting to an angle: keeps the chirp phase
    // accurate for large n.
    const std::size_t j2 = (j * j) % (2 * n);
    const double angle = M_PI * static_cast<double>(j2) / static_cast<double>(n);
    bluestein_a_[j] = Cplx(std::cos(angle), -std::sin(angle));  // e^{-i pi j^2/n}
    const Cplx bj = std::conj(bluestein_a_[j]);                 // e^{+i pi j^2/n}
    b[j] = bj;
    if (j != 0) b[conv_n_ - j] = bj;
  }
  radix2_interleaved(b.data(), conv_n_, twiddles_.data(), bit_reverse_.data(),
                     /*inverse=*/false);
  bluestein_b_fft_ = std::move(b);
}

void Plan::bluestein_forward(Cplx* data) const {
  const std::size_t m = conv_n_;
  auto& u = scratch<Cplx>(m);
  for (std::size_t j = 0; j < n_; ++j) u[j] = data[j] * bluestein_a_[j];
  for (std::size_t j = n_; j < m; ++j) u[j] = Cplx(0.0, 0.0);

  radix2_interleaved(u.data(), m, twiddles_.data(), bit_reverse_.data(),
                     /*inverse=*/false);
  for (std::size_t j = 0; j < m; ++j) u[j] *= bluestein_b_fft_[j];
  radix2_interleaved(u.data(), m, twiddles_.data(), bit_reverse_.data(),
                     /*inverse=*/true);

  const double scale = 1.0 / static_cast<double>(m);
  for (std::size_t k = 0; k < n_; ++k) {
    data[k] = u[k] * scale * bluestein_a_[k];
  }
}

void Plan::execute(Cplx* data, Direction dir) const {
  if (n_ == 1) return;
  if (!uses_bluestein()) {
    radix2_interleaved(data, n_, twiddles_.data(), bit_reverse_.data(),
                       dir == Direction::Inverse);
    if (dir == Direction::Inverse) {
      const double scale = 1.0 / static_cast<double>(n_);
      for (std::size_t i = 0; i < n_; ++i) data[i] *= scale;
    }
    return;
  }

  if (dir == Direction::Forward) {
    bluestein_forward(data);
    return;
  }
  // Inverse via conjugation: ifft(x) = conj(fft(conj(x))) / n.
  for (std::size_t i = 0; i < n_; ++i) data[i] = std::conj(data[i]);
  bluestein_forward(data);
  const double scale = 1.0 / static_cast<double>(n_);
  for (std::size_t i = 0; i < n_; ++i) data[i] = std::conj(data[i]) * scale;
}

void Plan::execute(std::span<Cplx> data, Direction dir) const {
  ODONN_CHECK_SHAPE(data.size() == n_,
                    "FFT buffer length does not match plan size");
  execute(data.data(), dir);
}

void Plan::execute_lanes(double* re, double* im, Direction dir) const {
  ODONN_CHECK(!uses_bluestein(), "lane-major FFT needs a power-of-two plan");
  if (n_ == 1) return;
  const bool inverse = dir == Direction::Inverse;
  radix2<kLanes, kLanes>(re, im, n_, twiddles_.data(), bit_reverse_.data(),
                         inverse);
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n_);
    for (std::size_t i = 0; i < n_ * kLanes; ++i) {
      re[i] *= scale;
      im[i] *= scale;
    }
  }
}

void Plan::transform_2d_lanes(double* re, double* im, Direction dir) const {
  const std::size_t n = n_;
  const std::size_t row = n * kLanes;
  for (std::size_t r = 0; r < n; ++r) {
    execute_lanes(re + r * row, im + r * row, dir);
  }
  auto& col = scratch<double>(2 * row);
  double* col_re = col.data();
  double* col_im = col.data() + row;
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t src = (r * n + c) * kLanes;
      for (std::size_t s = 0; s < kLanes; ++s) {
        col_re[r * kLanes + s] = re[src + s];
        col_im[r * kLanes + s] = im[src + s];
      }
    }
    execute_lanes(col_re, col_im, dir);
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t dst = (r * n + c) * kLanes;
      for (std::size_t s = 0; s < kLanes; ++s) {
        re[dst + s] = col_re[r * kLanes + s];
        im[dst + s] = col_im[r * kLanes + s];
      }
    }
  }
}

namespace {

struct PlanCache {
  Mutex mutex;
  std::unordered_map<std::size_t, std::shared_ptr<const Plan>> plans
      ODONN_GUARDED_BY(mutex);
  std::uint64_t hits ODONN_GUARDED_BY(mutex) = 0;
  std::uint64_t misses ODONN_GUARDED_BY(mutex) = 0;
};

PlanCache& plan_cache() {
  static PlanCache cache;
  return cache;
}

}  // namespace

std::shared_ptr<const Plan> plan_for(std::size_t n) {
  PlanCache& cache = plan_cache();
  MutexLock lock(cache.mutex);
  auto it = cache.plans.find(n);
  if (it != cache.plans.end()) {
    ++cache.hits;
    ODONN_OBS_COUNT("fft.plan_cache.hits", 1);
    return it->second;
  }
  ++cache.misses;
  ODONN_OBS_COUNT("fft.plan_cache.misses", 1);
  auto plan = std::make_shared<const Plan>(n);
  cache.plans.emplace(n, plan);
  ODONN_OBS_GAUGE_SET("fft.plan_cache.lengths", cache.plans.size());
  return plan;
}

PlanCacheStats plan_cache_stats() {
  PlanCache& cache = plan_cache();
  MutexLock lock(cache.mutex);
  return {cache.plans.size(), cache.hits, cache.misses};
}

void transform(std::span<Cplx> data, Direction dir) {
  plan_for(data.size())->execute(data, dir);
}

}  // namespace odonn::fft

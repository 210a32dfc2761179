// 1-D complex FFT plans.
//
// Two engines:
//  * iterative radix-2 Cooley–Tukey for power-of-two lengths;
//  * Bluestein chirp-z for arbitrary lengths (the paper's 200x200 masks are
//    not powers of two), which re-expresses the DFT as a convolution carried
//    out with an internal radix-2 plan.
//
// Both run one radix-2 butterfly routine on split real/imag pointers. The
// scalar entry (execute) runs it on interleaved std::complex storage; the
// lane-major entries (execute_lanes, transform_2d_lanes) run it on kLanes
// samples side by side, so one butterfly sweep advances every lane and the
// lane loops auto-vectorize. Each lane performs the same IEEE operation
// sequence as execute() on that lane's samples, so the two agree bitwise.
//
// Plans are immutable after construction (twiddle/chirp tables only) and are
// safe to execute concurrently from many threads; per-call scratch lives in
// thread_local storage. Convention: unnormalized forward, 1/n inverse, i.e.
//   forward:  X_k = sum_j x_j exp(-2*pi*i*j*k/n)
//   inverse:  x_j = (1/n) sum_k X_k exp(+2*pi*i*j*k/n)
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace odonn::fft {

using Cplx = std::complex<double>;

enum class Direction { Forward, Inverse };

/// Samples a lane-major buffer holds side by side: element i of lane s sits
/// at index i * kLanes + s of separate real and imaginary planes.
inline constexpr std::size_t kLanes = 4;

/// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// True if n is a power of two (n >= 1).
bool is_pow2(std::size_t n);

class Plan {
 public:
  /// Builds a plan for length n (n >= 1). Radix-2 when n is a power of two,
  /// Bluestein otherwise.
  explicit Plan(std::size_t n);

  std::size_t size() const { return n_; }
  bool uses_bluestein() const { return !bluestein_b_fft_.empty(); }

  /// In-place transform of exactly size() elements.
  void execute(Cplx* data, Direction dir) const;
  void execute(std::span<Cplx> data, Direction dir) const;

  /// In-place lane-major transform of kLanes samples of size() elements
  /// each (re/im hold size() * kLanes values). Power-of-two plans only.
  void execute_lanes(double* re, double* im, Direction dir) const;

  /// In-place lane-major 2-D transform of kLanes size() x size() row-major
  /// grids: every row, then every column gathered into thread-local
  /// scratch — the order of fft::transform_2d, on the calling thread.
  /// Power-of-two plans only.
  void transform_2d_lanes(double* re, double* im, Direction dir) const;

 private:
  void bluestein_forward(Cplx* data) const;

  std::size_t n_;
  // Radix-2 tables for the plan length itself (pow2 plans) or for the
  // internal convolution length conv_n_ (Bluestein plans).
  std::size_t conv_n_ = 0;                 // pow2 length actually transformed
  std::vector<Cplx> twiddles_;             // exp(-2*pi*i*k/conv_n), k < conv_n/2
  std::vector<std::size_t> bit_reverse_;   // permutation for conv_n
  // Bluestein tables (empty for pow2 plans).
  std::vector<Cplx> bluestein_a_;          // chirp a_j = exp(-i*pi*j^2/n)
  std::vector<Cplx> bluestein_b_fft_;      // FFT_m of the extended chirp b
};

/// Returns a cached shared plan for length n. Thread-safe; plans persist for
/// the process so repeated propagations reuse twiddle tables.
std::shared_ptr<const Plan> plan_for(std::size_t n);

/// Plan-cache audit counters: a warmed-up serving loop must be all hits —
/// every batch reuses the same row/column plans, so `misses` stays flat
/// (one per distinct length) while `hits` grows with traffic.
struct PlanCacheStats {
  std::size_t cached_lengths = 0;  ///< distinct plan lengths resident
  std::uint64_t hits = 0;          ///< plan_for calls served from cache
  std::uint64_t misses = 0;        ///< plan_for calls that built a plan
};
PlanCacheStats plan_cache_stats();

/// One-shot convenience over the plan cache.
void transform(std::span<Cplx> data, Direction dir);

}  // namespace odonn::fft

// Tests for src/fft: correctness against the naive DFT, inverse round
// trips, Parseval, linearity, shift theorem, 2-D transforms, fftshift, and
// frequency coordinates — parameterized across power-of-two and Bluestein
// sizes (including the paper's 200) — and bitwise lane/scalar parity of the
// lane-major entry points.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fft/dft_ref.hpp"
#include "fft/fft2d.hpp"
#include "fft/fft_plan.hpp"

namespace odonn::fft {
namespace {

std::vector<Cplx> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Cplx> signal(n);
  for (auto& v : signal) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return signal;
}

double max_err(const std::vector<Cplx>& a, const std::vector<Cplx>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

TEST(FftPlan, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(200), 256u);
  EXPECT_EQ(next_pow2(257), 512u);
}

TEST(FftPlan, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(200));
  EXPECT_FALSE(is_pow2(0));
}

TEST(FftPlan, EngineSelection) {
  EXPECT_FALSE(Plan(64).uses_bluestein());
  EXPECT_TRUE(Plan(200).uses_bluestein());
  EXPECT_TRUE(Plan(13).uses_bluestein());
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto signal = random_signal(n, 100 + n);
  const auto expected = dft_reference(signal, Direction::Forward);
  Plan(n).execute(signal.data(), Direction::Forward);
  EXPECT_LT(max_err(signal, expected), 1e-9 * static_cast<double>(n));
}

TEST_P(FftSizes, InverseMatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto signal = random_signal(n, 200 + n);
  const auto expected = dft_reference(signal, Direction::Inverse);
  Plan(n).execute(signal.data(), Direction::Inverse);
  EXPECT_LT(max_err(signal, expected), 1e-9 * static_cast<double>(n));
}

TEST_P(FftSizes, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  const auto original = random_signal(n, 300 + n);
  auto signal = original;
  const Plan plan(n);
  plan.execute(signal.data(), Direction::Forward);
  plan.execute(signal.data(), Direction::Inverse);
  EXPECT_LT(max_err(signal, original), 1e-10 * static_cast<double>(n));
}

TEST_P(FftSizes, ParsevalHolds) {
  const std::size_t n = GetParam();
  auto signal = random_signal(n, 400 + n);
  double time_energy = 0.0;
  for (const auto& v : signal) time_energy += std::norm(v);
  Plan(n).execute(signal.data(), Direction::Forward);
  double freq_energy = 0.0;
  for (const auto& v : signal) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-8 * time_energy * static_cast<double>(n));
}

TEST_P(FftSizes, Linearity) {
  const std::size_t n = GetParam();
  const auto a = random_signal(n, 500 + n);
  const auto b = random_signal(n, 600 + n);
  const Cplx alpha(0.7, -0.3);
  std::vector<Cplx> combo(n);
  for (std::size_t i = 0; i < n; ++i) combo[i] = a[i] + alpha * b[i];

  auto fa = a, fb = b;
  const Plan plan(n);
  plan.execute(fa.data(), Direction::Forward);
  plan.execute(fb.data(), Direction::Forward);
  plan.execute(combo.data(), Direction::Forward);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(combo[i] - (fa[i] + alpha * fb[i])), 1e-9 * n);
  }
}

TEST_P(FftSizes, ImpulseTransformsToConstant) {
  const std::size_t n = GetParam();
  std::vector<Cplx> signal(n, Cplx(0.0, 0.0));
  signal[0] = Cplx(1.0, 0.0);
  Plan(n).execute(signal.data(), Direction::Forward);
  for (const auto& v : signal) EXPECT_LT(std::abs(v - Cplx(1.0, 0.0)), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 27,
                                           32, 50, 64, 100, 128, 200, 256));

TEST(Fft2d, MatchesNaive2dDft) {
  const std::size_t rows = 12, cols = 10;
  Rng rng(9);
  std::vector<Cplx> data(rows * cols);
  for (auto& v : data) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  const auto expected = dft2d_reference(data, rows, cols, Direction::Forward);
  transform_2d(data.data(), rows, cols, Direction::Forward);
  EXPECT_LT(max_err(data, expected), 1e-9);
}

TEST(Fft2d, RoundTrip) {
  const std::size_t rows = 20, cols = 20;
  Rng rng(10);
  std::vector<Cplx> data(rows * cols);
  for (auto& v : data) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  const auto original = data;
  transform_2d(data.data(), rows, cols, Direction::Forward);
  transform_2d(data.data(), rows, cols, Direction::Inverse);
  EXPECT_LT(max_err(data, original), 1e-10);
}

TEST(Fft2d, FftShiftMovesZeroBinToCenter) {
  const std::size_t n = 8;
  std::vector<Cplx> data(n * n, Cplx(0.0, 0.0));
  data[0] = Cplx(1.0, 0.0);  // DC bin
  fftshift_2d(data.data(), n, n);
  EXPECT_DOUBLE_EQ(data[(n / 2) * n + n / 2].real(), 1.0);
}

TEST(Fft2d, ShiftInverseShiftIsIdentityEvenAndOdd) {
  for (std::size_t n : {8u, 9u}) {
    std::vector<Cplx> data(n * n);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = Cplx(static_cast<double>(i), 0.0);
    }
    auto original = data;
    fftshift_2d(data.data(), n, n);
    ifftshift_2d(data.data(), n, n);
    EXPECT_LT(max_err(data, original), 0.0 + 1e-15);
  }
}

TEST(Fft2d, FftFreqsMatchNumpyConvention) {
  const auto f = fft_freqs(8, 0.5);  // spacing 0.5 => df = 1/4
  ASSERT_EQ(f.size(), 8u);
  EXPECT_DOUBLE_EQ(f[0], 0.0);
  EXPECT_DOUBLE_EQ(f[1], 0.25);
  EXPECT_DOUBLE_EQ(f[3], 0.75);
  EXPECT_DOUBLE_EQ(f[4], -1.0);
  EXPECT_DOUBLE_EQ(f[7], -0.25);
}

TEST(Fft2d, FftFreqsOddLength) {
  const auto f = fft_freqs(5, 1.0);
  EXPECT_DOUBLE_EQ(f[0], 0.0);
  EXPECT_DOUBLE_EQ(f[2], 0.4);
  EXPECT_DOUBLE_EQ(f[3], -0.4);
  EXPECT_DOUBLE_EQ(f[4], -0.2);
}

TEST(FftPlan, ShiftTheorem) {
  // Circular shift by s multiplies spectrum by exp(-2 pi i k s / n).
  const std::size_t n = 16, s = 3;
  auto signal = random_signal(n, 77);
  std::vector<Cplx> shifted(n);
  for (std::size_t i = 0; i < n; ++i) shifted[i] = signal[(i + s) % n];

  const Plan plan(n);
  auto f0 = signal;
  plan.execute(f0.data(), Direction::Forward);
  plan.execute(shifted.data(), Direction::Forward);
  for (std::size_t k = 0; k < n; ++k) {
    const double angle = 2.0 * M_PI * static_cast<double>(k * s % n) /
                         static_cast<double>(n);
    const Cplx expected = f0[k] * Cplx(std::cos(angle), std::sin(angle));
    EXPECT_LT(std::abs(shifted[k] - expected), 1e-9);
  }
}

TEST(FftPlan, ExecuteSpanChecksLength) {
  Plan plan(8);
  std::vector<Cplx> wrong(7);
  EXPECT_THROW(plan.execute(std::span<Cplx>(wrong), Direction::Forward),
               ShapeError);
}

/// kLanes signals of length n packed lane-major; the last lane replicates
/// lane 0, the way a batch fills an incomplete lane group.
struct LaneGroup {
  std::vector<std::vector<Cplx>> lanes;
  std::vector<double> re, im;

  LaneGroup(std::size_t n, std::uint64_t seed) {
    for (std::size_t s = 0; s + 1 < kLanes; ++s) {
      lanes.push_back(random_signal(n, seed + s));
    }
    lanes.push_back(lanes.front());
    re.resize(n * kLanes);
    im.resize(n * kLanes);
    for (std::size_t s = 0; s < kLanes; ++s) {
      for (std::size_t i = 0; i < n; ++i) {
        re[i * kLanes + s] = lanes[s][i].real();
        im[i * kLanes + s] = lanes[s][i].imag();
      }
    }
  }

  /// Lane s's element i equals `expected[i]` bit for bit.
  ::testing::AssertionResult lane_equals(std::size_t s,
                                         const std::vector<Cplx>& expected) {
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (re[i * kLanes + s] != expected[i].real() ||
          im[i * kLanes + s] != expected[i].imag()) {
        return ::testing::AssertionFailure()
               << "lane " << s << " element " << i << " differs";
      }
    }
    return ::testing::AssertionSuccess();
  }
};

TEST(FftPlan, LaneMajorMatchesScalarBitwise) {
  for (std::size_t n = 1; n <= 1024; n <<= 1) {
    const Plan plan(n);
    for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
      LaneGroup group(n, 1000 + n);
      plan.execute_lanes(group.re.data(), group.im.data(), dir);
      for (std::size_t s = 0; s < kLanes; ++s) {
        auto scalar = group.lanes[s];
        plan.execute(scalar.data(), dir);
        EXPECT_TRUE(group.lane_equals(s, scalar)) << "n=" << n;
        const auto reference = dft_reference(group.lanes[s], dir);
        EXPECT_LT(max_err(scalar, reference), 1e-9 * static_cast<double>(n))
            << "n=" << n;
      }
    }
  }
}

TEST(FftPlan, LaneMajor2dMatchesTransform2dBitwise) {
  for (const std::size_t n : {1, 2, 8, 16, 64}) {
    const Plan plan(n);
    for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
      LaneGroup group(n * n, 2000 + n);
      plan.transform_2d_lanes(group.re.data(), group.im.data(), dir);
      for (std::size_t s = 0; s < kLanes; ++s) {
        auto scalar = group.lanes[s];
        transform_2d(scalar.data(), n, n, dir);
        EXPECT_TRUE(group.lane_equals(s, scalar)) << "n=" << n;
      }
    }
  }
}

TEST(FftPlan, LaneMajorRejectsBluesteinPlans) {
  const Plan plan(200);
  std::vector<double> re(200 * kLanes), im(200 * kLanes);
  EXPECT_THROW(plan.execute_lanes(re.data(), im.data(), Direction::Forward),
               Error);
}

TEST(FftPlan, PlanCacheReturnsSameInstance) {
  const auto a = plan_for(96);
  const auto b = plan_for(96);
  EXPECT_EQ(a.get(), b.get());
}

}  // namespace
}  // namespace odonn::fft

// google-benchmark microbenchmarks for the substrate kernels: FFT plans,
// free-space propagation, DONN forward/backward, roughness gradients and
// the Gumbel-Softmax 2pi step. Not a paper experiment — this is the
// engineering view of where the training time goes.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "donn/model.hpp"
#include "fft/fft2d.hpp"
#include "optics/encode.hpp"
#include "optics/propagate.hpp"
#include "roughness/roughness.hpp"
#include "smooth2pi/two_pi_opt.hpp"

using namespace odonn;

namespace {

/// Marks the run failed when the buffer a benchmark re-transforms has left
/// the finite range: its timings would then measure inf/NaN handling.
void require_finite(benchmark::State& state,
                    const std::vector<fft::Cplx>& data) {
  for (const auto& v : data) {
    if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) {
      state.SkipWithError("FFT buffer went non-finite");
      return;
    }
  }
}

// Each iteration alternates the forward and the inverse transform: the pair
// restores the input (up to rounding), so every iteration times fresh-scale
// data instead of a buffer growing by n per unnormalized pass.
fft::Direction direction_of(std::int64_t iteration) {
  return iteration % 2 == 0 ? fft::Direction::Forward
                            : fft::Direction::Inverse;
}

void BM_Fft1d(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto plan = fft::plan_for(n);
  Rng rng(1);
  std::vector<fft::Cplx> data(n);
  for (auto& v : data) v = {rng.uniform(), rng.uniform()};
  std::int64_t iteration = 0;
  for (auto _ : state) {
    plan->execute(data.data(), direction_of(iteration++));
    benchmark::DoNotOptimize(data.data());
  }
  require_finite(state, data);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
// 200 exercises the Bluestein path used by the paper's grid.
BENCHMARK(BM_Fft1d)->Arg(64)->Arg(128)->Arg(200)->Arg(256)->Arg(512);

void BM_Fft2d(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<fft::Cplx> data(n * n);
  for (auto& v : data) v = {rng.uniform(), rng.uniform()};
  std::int64_t iteration = 0;
  for (auto _ : state) {
    fft::transform_2d(data.data(), n, n, direction_of(iteration++));
    benchmark::DoNotOptimize(data.data());
  }
  require_finite(state, data);
}
BENCHMARK(BM_Fft2d)->Arg(64)->Arg(128)->Arg(200)->Arg(256);

void BM_Propagation(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const donn::DonnConfig cfg = donn::DonnConfig::scaled(n);
  optics::Propagator prop(cfg.grid, {{cfg.kernel, cfg.wavelength,
                                      cfg.distance}, false});
  Rng rng(3);
  MatrixD image(n, n);
  for (auto& v : image) v = rng.uniform();
  optics::Field field = optics::encode_image(image, cfg.grid);
  for (auto _ : state) {
    field = prop.forward(field);
    benchmark::DoNotOptimize(field.values().data());
  }
}
BENCHMARK(BM_Propagation)->Arg(64)->Arg(128)->Arg(200);

void BM_DonnForward(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  donn::DonnModel model(donn::DonnConfig::scaled(n), rng);
  MatrixD image(n, n);
  for (auto& v : image) v = rng.uniform();
  const optics::Field input = optics::encode_image(image, model.config().grid);
  for (auto _ : state) {
    auto sums = model.detector_sums(input);
    benchmark::DoNotOptimize(sums.data());
  }
}
BENCHMARK(BM_DonnForward)->Arg(64)->Arg(128)->Arg(200);

void BM_DonnForwardBackward(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  donn::DonnModel model(donn::DonnConfig::scaled(n), rng);
  MatrixD image(n, n);
  for (auto& v : image) v = rng.uniform();
  const optics::Field input = optics::encode_image(image, model.config().grid);
  auto grads = model.zero_gradients();
  for (auto _ : state) {
    model.forward_backward(input, 3, grads, {});
    benchmark::DoNotOptimize(grads.data());
  }
}
BENCHMARK(BM_DonnForwardBackward)->Arg(64)->Arg(128)->Arg(200);

void BM_RoughnessGrad(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  MatrixD w(n, n);
  for (auto& v : w) v = rng.uniform(0.0, 6.28);
  MatrixD grad(n, n, 0.0);
  for (auto _ : state) {
    grad.fill(0.0);
    const double r = roughness::roughness_with_grad(w, grad, 1.0);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RoughnessGrad)->Arg(64)->Arg(200);

void BM_TwoPiGumbelStep(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  MatrixD w(n, n);
  for (auto& v : w) v = rng.uniform(0.0, 6.28);
  smooth2pi::TwoPiOptions opt;
  opt.iterations = 1;  // a single optimizer step per bench iteration
  for (auto _ : state) {
    const auto result = smooth2pi::optimize_2pi(w, opt);
    benchmark::DoNotOptimize(result.roughness_after);
  }
}
BENCHMARK(BM_TwoPiGumbelStep)->Arg(64)->Arg(200);

}  // namespace

BENCHMARK_MAIN();

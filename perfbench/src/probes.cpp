#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <sstream>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fab/perturbation.hpp"
#include "fft/dft_ref.hpp"
#include "fft/fft2d.hpp"
#include "roughness/roughness.hpp"
#include "smooth2pi/two_pi_opt.hpp"
#include "tensor/stats.hpp"

namespace perfbench {

namespace {

using odonn::fft::Cplx;
using odonn::fft::Direction;

/// Times `calls` invocations of call(), each preceded by an untimed
/// prepare(); returns the median microseconds per call. Each call is a
/// span named `name` in a traced run.
template <class Prepare, class Call>
double median_us(SpanRecorder& spans, const char* name, std::size_t calls,
                 Prepare&& prepare, Call&& call) {
  std::vector<double> us;
  us.reserve(calls);
  for (std::size_t i = 0; i < calls; ++i) {
    prepare();
    const Clock::time_point start = Clock::now();
    call();
    const Clock::time_point end = Clock::now();
    spans.add(name, start, end);
    us.push_back(std::chrono::duration<double, std::micro>(end - start).count());
  }
  return odonn::percentile_nearest_rank(std::move(us), 0.5);
}

std::vector<Cplx> pristine_vector(std::size_t n, std::uint64_t seed) {
  odonn::Rng rng(seed);
  std::vector<Cplx> v(n);
  for (auto& x : v) x = Cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  return v;
}

template <class Range>
bool all_finite(const Range& values) {
  for (const auto& v : values) {
    if (!std::isfinite(std::real(v)) || !std::isfinite(std::imag(v))) {
      return false;
    }
  }
  return true;
}

/// max |a - b| / max |b|.
double relative_error(const Cplx* a, const Cplx* b, std::size_t n) {
  double err = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    err = std::max(err, std::abs(a[i] - b[i]));
    scale = std::max(scale, std::abs(b[i]));
  }
  return scale > 0.0 ? err / scale : err;
}

/// Direct 2-D DFT of a row-major n x n buffer, computed separably (rows,
/// then columns) with the O(n^2) 1-D reference: O(n^3) instead of the
/// O(n^4) of dft2d_reference, so it stays cheap at the paper's n = 200.
std::vector<Cplx> reference_2d(std::vector<Cplx> data, std::size_t n,
                               Direction dir) {
  std::vector<Cplx> line(n);
  for (std::size_t r = 0; r < n; ++r) {
    std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(r * n), n,
                line.begin());
    const std::vector<Cplx> out = odonn::fft::dft_reference(line, dir);
    std::copy(out.begin(), out.end(),
              data.begin() + static_cast<std::ptrdiff_t>(r * n));
  }
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t r = 0; r < n; ++r) line[r] = data[r * n + c];
    const std::vector<Cplx> out = odonn::fft::dft_reference(line, dir);
    for (std::size_t r = 0; r < n; ++r) data[r * n + c] = out[r];
  }
  return data;
}

constexpr double kFftTolerance = 1e-9;
constexpr double kSumsTolerance = 1e-9;

Check tolerance_check(const std::string& name, bool finite, double error,
                      double tolerance) {
  std::ostringstream detail;
  detail << "finite=" << (finite ? "yes" : "no") << " rel_err=" << error
         << " tol=" << tolerance;
  return {name, finite && error <= tolerance, detail.str()};
}

std::size_t grid_of(const ProbeInputs& in) {
  return in.model->config().grid.n;
}

}  // namespace

bool sums_close(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({1e-300, std::abs(a[i]), std::abs(b[i])});
    if (!std::isfinite(a[i]) || std::abs(a[i] - b[i]) / scale > kSumsTolerance) {
      return false;
    }
  }
  return true;
}

ProbeValue probe_plan_execute_us(const ProbeInputs& in, SpanRecorder& spans) {
  const std::size_t n = grid_of(in);
  const auto plan = odonn::fft::plan_for(n);
  const std::vector<Cplx> pristine = pristine_vector(n, in.seed);
  std::vector<Cplx> buf;
  ProbeValue out;
  out.value = median_us(
      spans, "fft.plan_execute", in.calls * 16, [&] { buf = pristine; },
      [&] { plan->execute(buf.data(), Direction::Forward); });
  const std::vector<Cplx> ref =
      odonn::fft::dft_reference(pristine, Direction::Forward);
  out.check = tolerance_check("fft.plan_execute matches dft_reference",
                              all_finite(buf),
                              relative_error(buf.data(), ref.data(), n),
                              kFftTolerance);
  return out;
}

ProbeValue probe_transform_2d_us(const ProbeInputs& in, bool single_thread,
                                 SpanRecorder& spans) {
  const std::size_t n = grid_of(in);
  const std::vector<Cplx> pristine = pristine_vector(n * n, in.seed + 1);
  std::vector<Cplx> buf;
  ProbeValue out;
  {
    odonn::ScopedThreadBudget budget(single_thread ? 1 : 0);
    out.value = median_us(
        spans, single_thread ? "fft.transform_2d_1t" : "fft.transform_2d",
        in.calls, [&] { buf = pristine; },
        [&] { odonn::fft::transform_2d(buf.data(), n, n, Direction::Forward); });
  }
  const std::vector<Cplx> ref = reference_2d(pristine, n, Direction::Forward);
  out.check = tolerance_check(
      single_thread ? "fft.transform_2d_1t matches dft_reference"
                    : "fft.transform_2d matches dft_reference",
      all_finite(buf), relative_error(buf.data(), ref.data(), n * n),
      kFftTolerance);
  return out;
}

ProbeValue probe_propagate_us(const ProbeInputs& in, SpanRecorder& spans) {
  const std::size_t n = grid_of(in);
  const odonn::optics::Propagator& prop = in.model->propagator();
  const odonn::MatrixC& pristine = in.fields.front().values();
  odonn::MatrixC buf;
  odonn::optics::Propagator::Workspace workspace;
  ProbeValue out;
  out.value = median_us(
      spans, "optics.propagate", in.calls, [&] { buf = pristine; },
      [&] { prop.forward_inplace(buf, workspace); });
  if (prop.options().pad2x) {
    out.check = {"optics.propagate finite", all_finite(buf), "pad2x grid"};
    return out;
  }
  // P x = IDFT2(H .* DFT2(x)) evaluated with the direct reference DFT.
  std::vector<Cplx> ref = reference_2d(
      std::vector<Cplx>(pristine.begin(), pristine.end()), n,
      Direction::Forward);
  const odonn::MatrixC& transfer = prop.transfer();
  for (std::size_t i = 0; i < ref.size(); ++i) ref[i] *= transfer[i];
  ref = reference_2d(std::move(ref), n, Direction::Inverse);
  out.check = tolerance_check("optics.propagate matches dft_reference",
                              all_finite(buf),
                              relative_error(buf.data(), ref.data(), n * n),
                              kFftTolerance);
  return out;
}

ProbeValue probe_modulation_us(const ProbeInputs& in, SpanRecorder& spans) {
  std::vector<odonn::MatrixC> tables;
  ProbeValue out;
  out.value = median_us(
      spans, "donn.modulation_tables", in.calls, [&] { tables.clear(); },
      [&] { tables = in.model->modulation_tables(); });
  double worst = 0.0;
  bool finite = true;
  for (const auto& table : tables) {
    finite = finite && all_finite(table);
    for (const Cplx& w : table) worst = std::max(worst, std::abs(std::abs(w) - 1.0));
  }
  out.check = tolerance_check("donn.modulation_tables unit modulus", finite,
                              worst, 1e-12);
  return out;
}

ProbeValue probe_forward_us(const ProbeInputs& in, SpanRecorder& spans) {
  const odonn::optics::Field& pristine = in.fields.front();
  odonn::optics::Field field;
  std::vector<double> sums;
  ProbeValue out;
  out.value = median_us(
      spans, "donn.detector_sums", in.calls, [&] { field = pristine; },
      [&] { sums = in.model->detector_sums(field); });
  const auto batch = in.model->detector_sums_batch({pristine});
  out.check = {"donn.detector_sums finite and matching the batched path",
               batch.size() == 1 && sums_close(sums, batch.front()),
               "classes=" + std::to_string(sums.size())};
  return out;
}

ProbeValue probe_forward_backward_us(const ProbeInputs& in,
                                     SpanRecorder& spans) {
  const odonn::optics::Field& pristine = in.fields.front();
  odonn::optics::Field field;
  std::vector<odonn::MatrixD> grads;
  double loss = 0.0;
  ProbeValue out;
  out.value = median_us(
      spans, "donn.forward_backward", in.calls,
      [&] {
        field = pristine;
        grads = in.model->zero_gradients();
      },
      [&] {
        loss = in.model
                   ->forward_backward(field, in.labels.front(), grads,
                                      odonn::donn::LossOptions{})
                   .loss;
      });
  bool finite = std::isfinite(loss);
  for (const auto& g : grads) finite = finite && all_finite(g);
  out.check = {"donn.forward_backward finite", finite,
               "loss=" + std::to_string(loss)};
  return out;
}

ProbeValue probe_roughness_grad_us(const ProbeInputs& in,
                                   SpanRecorder& spans) {
  const odonn::MatrixD& mask = in.model->phases().front();
  odonn::MatrixD grad;
  double value = 0.0;
  ProbeValue out;
  out.value = median_us(
      spans, "roughness.with_grad", in.calls,
      [&] { grad = odonn::MatrixD(mask.rows(), mask.cols(), 0.0); },
      [&] { value = odonn::roughness::roughness_with_grad(mask, grad, 1.0); });
  // The gradient path adds RoughnessOptions::eps under each pixel's square
  // root, which moves a flat pixel's term by up to sqrt(eps); 1e-6 relative
  // covers that at every probed grid.
  const double direct = odonn::roughness::mask_roughness(mask);
  out.check = tolerance_check(
      "roughness.with_grad value matches mask_roughness",
      std::isfinite(value) && all_finite(grad),
      std::abs(value - direct) / std::max(1.0, std::abs(direct)), 1e-6);
  return out;
}

ProbeValue probe_smooth2pi_step_us(const ProbeInputs& in,
                                   SpanRecorder& spans) {
  constexpr std::size_t kSteps = 16;
  const odonn::MatrixD& mask = in.model->phases().front();
  odonn::smooth2pi::TwoPiOptions options;
  options.iterations = kSteps;
  options.seed = in.seed;
  odonn::smooth2pi::TwoPiResult result;
  ProbeValue out;
  out.value = median_us(
                  spans, "smooth2pi.optimize_2pi", in.calls, [] {},
                  [&] { result = odonn::smooth2pi::optimize_2pi(mask, options); }) /
              static_cast<double>(kSteps);
  out.check = {"smooth2pi never worsens roughness",
               result.roughness_after <= result.roughness_before,
               "before=" + std::to_string(result.roughness_before) +
                   " after=" + std::to_string(result.roughness_after)};
  return out;
}

ProbeValue probe_realize_us(const ProbeInputs& in, SpanRecorder& spans) {
  std::uint64_t draw = 0;
  odonn::Rng rng(in.seed);
  bool finite = true;
  ProbeValue out;
  out.value = median_us(
      spans, "fab.realize_device", in.calls,
      [&] { rng = odonn::Rng(in.seed + draw++); },
      [&] {
        const odonn::donn::DonnModel device = odonn::fab::realize_device(
            *in.model, *in.stack, odonn::donn::CrosstalkOptions{}, true, rng);
        for (const auto& phase : device.phases()) {
          finite = finite && all_finite(phase);
        }
      });
  out.check = {"fab.realize_device phases finite", finite,
               "calls=" + std::to_string(in.calls)};
  return out;
}

ProbeValue probe_kernel_us_per_sample(const ProbeInputs& in,
                                      const odonn::serve::BatchedForward& fwd,
                                      SpanRecorder& spans) {
  const std::vector<odonn::optics::Field> pristine(
      in.fields.begin(),
      in.fields.begin() + static_cast<std::ptrdiff_t>(in.max_batch));
  std::vector<odonn::optics::Field> batch;
  odonn::serve::BatchedForward::Result result;
  ProbeValue out;
  out.value = median_us(
                  spans, "serve.batched_forward", in.calls,
                  [&] { batch = pristine; },
                  [&] { result = fwd.run(batch); }) /
              static_cast<double>(in.max_batch);
  bool equal = result.detector_sums.size() == pristine.size();
  for (std::size_t k = 0; equal && k < pristine.size(); ++k) {
    equal = sums_close(result.detector_sums[k],
                       fwd.model().detector_sums(pristine[k]));
  }
  out.check = {"serve.batched_forward matches single-sample detector sums",
               equal, "batch=" + std::to_string(pristine.size())};
  return out;
}

}  // namespace perfbench

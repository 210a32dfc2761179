// Layer probes for the traced run: each times one public entry point of a
// layer (median microseconds per call) and checks the call's output.
//
// Every timed call starts from a fresh copy of a pristine input, made
// outside the timed region, so a probe can never re-transform its own
// output until it degenerates. FFT, optics and donn outputs are checked to
// be finite, and FFT and propagation outputs are checked against the
// direct DFT of fft/dft_ref at the probed length.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "donn/model.hpp"
#include "fab/perturbation.hpp"
#include "serve/batched_forward.hpp"
#include "spans.hpp"

namespace perfbench {

/// Outcome of one correctness check; a run passes only if all of them do.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Detector sums agree within a relative tolerance of 1e-9 per class.
bool sums_close(const std::vector<double>& a, const std::vector<double>& b);

struct ProbeValue {
  double value = 0.0;  ///< median per call (unit given by the probe's name)
  Check check;
};

/// Inputs shared by the probes: a model at the workload's grid and a few
/// encoded samples from its test set.
struct ProbeInputs {
  const odonn::donn::DonnModel* model = nullptr;
  std::vector<odonn::optics::Field> fields;  ///< at least max_batch
  std::vector<std::size_t> labels;
  const odonn::fab::PerturbationStack* stack = nullptr;
  std::size_t calls = 32;       ///< timed calls per probe
  std::size_t max_batch = 8;    ///< serve batch size
  std::uint64_t seed = 7;
};

ProbeValue probe_plan_execute_us(const ProbeInputs& in, SpanRecorder& spans);
ProbeValue probe_transform_2d_us(const ProbeInputs& in, bool single_thread,
                                 SpanRecorder& spans);
ProbeValue probe_propagate_us(const ProbeInputs& in, SpanRecorder& spans);
ProbeValue probe_modulation_us(const ProbeInputs& in, SpanRecorder& spans);
ProbeValue probe_forward_us(const ProbeInputs& in, SpanRecorder& spans);
ProbeValue probe_forward_backward_us(const ProbeInputs& in,
                                     SpanRecorder& spans);
ProbeValue probe_roughness_grad_us(const ProbeInputs& in, SpanRecorder& spans);
ProbeValue probe_smooth2pi_step_us(const ProbeInputs& in, SpanRecorder& spans);
ProbeValue probe_realize_us(const ProbeInputs& in, SpanRecorder& spans);
/// BatchedForward::run on max_batch inputs, per sample; checked against
/// single-sample detector sums.
ProbeValue probe_kernel_us_per_sample(const ProbeInputs& in,
                                      const odonn::serve::BatchedForward& fwd,
                                      SpanRecorder& spans);

}  // namespace perfbench

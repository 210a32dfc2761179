#include "donn/model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "donn/phase_mask.hpp"

namespace odonn::donn {

namespace {

/// Paper mixing ratio lambda*z/(n*pitch^2): how far one pixel's diffraction
/// cone spreads relative to the aperture after one inter-layer hop.
constexpr double kPaperMixingRatio = 0.5735;

}  // namespace

DonnConfig DonnConfig::paper() { return DonnConfig{}; }

DonnConfig DonnConfig::scaled(std::size_t grid_n) {
  ODONN_CHECK(grid_n >= 16, "scaled config needs grid_n >= 16");
  DonnConfig cfg;
  cfg.grid.n = grid_n;
  // lambda*z/(n*pitch^2) = kPaperMixingRatio  =>  pitch as below; at n=200
  // this recovers the paper's 36 um pixels exactly.
  cfg.grid.pitch = std::sqrt(cfg.wavelength * cfg.distance /
                             (kPaperMixingRatio * static_cast<double>(grid_n)));
  cfg.detector_size = std::max<std::size_t>(2, grid_n / 10);
  return cfg;
}

DonnModel::DonnModel(const DonnConfig& config, Rng& rng)
    : config_(config),
      propagator_(std::make_shared<const optics::Propagator>(
          config.grid,
          optics::PropagatorOptions{
              {config.kernel, config.wavelength, config.distance},
              config.pad2x})),
      detector_(ReadoutStrategy::evenly_spaced(config.detector, config.grid.n,
                                               config.num_classes,
                                               config.detector_size)) {
  ODONN_CHECK(config.num_layers >= 1, "model needs at least one layer");
  phases_.reserve(config.num_layers);
  for (std::size_t i = 0; i < config.num_layers; ++i) {
    phases_.push_back(config.init == PhaseInit::Flat
                          ? flat_phase_mask(config.grid.n, rng)
                          : random_phase_mask(config.grid.n, rng));
  }
}

void DonnModel::set_phases(std::vector<MatrixD> phases) {
  ODONN_CHECK_SHAPE(phases.size() == phases_.size(),
                    "set_phases: layer count mismatch");
  for (const auto& phi : phases) {
    ODONN_CHECK_SHAPE(phi.rows() == config_.grid.n && phi.cols() == config_.grid.n,
                      "set_phases: mask shape mismatch");
  }
  phases_ = std::move(phases);
  apply_masks();
}

void DonnModel::set_masks(std::vector<sparsify::SparsityMask> masks) {
  if (!masks.empty()) {
    ODONN_CHECK_SHAPE(masks.size() == phases_.size(),
                      "set_masks: layer count mismatch");
    for (const auto& m : masks) {
      ODONN_CHECK_SHAPE(m.rows() == config_.grid.n && m.cols() == config_.grid.n,
                        "set_masks: mask shape mismatch");
    }
  }
  masks_ = std::move(masks);
  apply_masks();
}

void DonnModel::clear_masks() { masks_.clear(); }

void DonnModel::apply_masks() {
  if (masks_.empty()) return;
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    sparsify::apply_mask(phases_[i], masks_[i]);
  }
}

void DonnModel::mask_gradients(std::vector<MatrixD>& grads) const {
  if (masks_.empty()) return;
  ODONN_CHECK_SHAPE(grads.size() == masks_.size(),
                    "mask_gradients: layer count mismatch");
  for (std::size_t i = 0; i < grads.size(); ++i) {
    sparsify::apply_mask(grads[i], masks_[i]);
  }
}

void DonnModel::forward_inplace(MatrixC& buf,
                                const std::vector<MatrixC>& modulations,
                                optics::Propagator::Workspace& workspace,
                                std::vector<MatrixC>* propagated) const {
  for (std::size_t l = 0; l < modulations.size(); ++l) {
    propagator_->forward_inplace(buf, workspace);
    if (propagated) (*propagated)[l] = buf;
    const MatrixC& w = modulations[l];
    for (std::size_t i = 0; i < buf.size(); ++i) buf[i] *= w[i];
  }
  propagator_->forward_inplace(buf, workspace);
}

optics::Field DonnModel::propagate_through(const optics::Field& input) const {
  ODONN_CHECK_SHAPE(input.grid() == config_.grid,
                    "propagate_through: input grid mismatch");
  MatrixC buf = input.values();
  optics::Propagator::Workspace workspace;
  forward_inplace(buf, modulation_tables(), workspace);
  return optics::Field(config_.grid, std::move(buf));
}

MatrixD DonnModel::output_intensity(const optics::Field& input) const {
  return propagate_through(input).intensity();
}

std::vector<double> DonnModel::detector_sums(const optics::Field& input) const {
  return detector_.readout(output_intensity(input));
}

std::size_t DonnModel::predict(const optics::Field& input) const {
  return detector_.predict(output_intensity(input));
}

std::vector<MatrixC> DonnModel::modulation_tables() const {
  std::vector<MatrixC> mods;
  mods.reserve(phases_.size());
  for (const auto& phi : phases_) mods.push_back(modulation(phi));
  return mods;
}

void DonnModel::infer_batch(const std::vector<optics::Field>& inputs,
                            const std::vector<MatrixC>& modulations,
                            std::vector<std::size_t>* predictions,
                            std::vector<std::vector<double>>* sums) const {
  const std::size_t n = config_.grid.n;
  ODONN_CHECK_SHAPE(modulations.size() == phases_.size(),
                    "infer_batch: modulation table count mismatch");
  for (const auto& w : modulations) {
    ODONN_CHECK_SHAPE(w.rows() == n && w.cols() == n,
                      "infer_batch: modulation table shape mismatch");
  }
  for (const auto& input : inputs) {
    ODONN_CHECK_SHAPE(input.grid() == config_.grid,
                      "infer_batch: input grid mismatch");
  }
  if (predictions) predictions->resize(inputs.size());
  if (sums) sums->resize(inputs.size());
  if (inputs.empty()) return;

  // Samples are independent, so chunks write only to their own output
  // slots: results are deterministic regardless of scheduling. Scratch
  // buffers are hoisted per chunk and reused across that chunk's samples,
  // making steady-state per-sample work allocation-free.
  parallel_for_chunks(
      0, inputs.size(),
      [&](std::size_t lo, std::size_t hi) {
        MatrixC buf;
        optics::Propagator::Workspace workspace;
        MatrixD intensity(n, n);
        for (std::size_t k = lo; k < hi; ++k) {
          buf = inputs[k].values();
          forward_inplace(buf, modulations, workspace);
          for (std::size_t i = 0; i < buf.size(); ++i) {
            intensity[i] = std::norm(buf[i]);
          }
          auto class_sums = detector_.readout(intensity);
          if (predictions) {
            (*predictions)[k] = static_cast<std::size_t>(
                std::max_element(class_sums.begin(), class_sums.end()) -
                class_sums.begin());
          }
          if (sums) (*sums)[k] = std::move(class_sums);
        }
      },
      /*grain=*/1);
}

std::vector<std::vector<double>> DonnModel::detector_sums_batch(
    const std::vector<optics::Field>& inputs) const {
  std::vector<std::vector<double>> sums;
  infer_batch(inputs, modulation_tables(), nullptr, &sums);
  return sums;
}

std::vector<MatrixD> DonnModel::zero_gradients() const {
  std::vector<MatrixD> grads;
  grads.reserve(phases_.size());
  for (const auto& phi : phases_) {
    grads.emplace_back(phi.rows(), phi.cols(), 0.0);
  }
  return grads;
}

DonnModel::ForwardBackwardResult DonnModel::forward_backward(
    const optics::Field& input, std::size_t label,
    std::vector<MatrixD>& phase_grads, const LossOptions& loss_options) const {
  ODONN_CHECK_SHAPE(input.grid() == config_.grid,
                    "forward_backward: input grid mismatch");
  ODONN_CHECK_SHAPE(phase_grads.size() == phases_.size(),
                    "forward_backward: gradient count mismatch");
  for (std::size_t l = 0; l < phases_.size(); ++l) {
    ODONN_CHECK_SHAPE(phase_grads[l].same_shape(phases_[l]),
                      "forward_backward: phase gradient shape mismatch");
  }

  // Forward, keeping each layer's propagated field; the tables serve both
  // passes.
  const std::vector<MatrixC> mods = modulation_tables();
  std::vector<MatrixC> propagated(phases_.size());
  MatrixC buf = input.values();
  optics::Propagator::Workspace workspace;
  forward_inplace(buf, mods, workspace, &propagated);
  MatrixD intensity(buf.rows(), buf.cols());
  for (std::size_t i = 0; i < buf.size(); ++i) intensity[i] = std::norm(buf[i]);
  const auto sums = detector_.readout(intensity);
  const LossResult lr = evaluate_loss(sums, label, loss_options);

  // Backward: dL/dI -> g(f) = 2 f dL/dI -> adjoint propagation -> layers.
  const MatrixD grad_intensity = detector_.scatter(lr.grad_sums);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = 2.0 * buf[i] * grad_intensity[i];
  }
  propagator_->adjoint_inplace(buf, workspace);
  for (std::size_t l = phases_.size(); l-- > 0;) {
    const MatrixC& w = mods[l];
    const MatrixC& prop = propagated[l];
    MatrixD& grad = phase_grads[l];
    for (std::size_t i = 0; i < buf.size(); ++i) {
      const std::complex<double> gw = std::conj(prop[i]) * buf[i];
      grad[i] += (std::complex<double>(0.0, 1.0) * w[i] * std::conj(gw)).real();
      buf[i] = std::conj(w[i]) * buf[i];
    }
    // The gradient wrt the input field is not needed.
    if (l > 0) propagator_->adjoint_inplace(buf, workspace);
  }
  return {lr.loss, lr.predicted};
}

}  // namespace odonn::donn

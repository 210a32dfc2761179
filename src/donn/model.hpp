// DonnModel — the full diffractive optical neural network (paper §III-A,
// Eq. 2): source -> [free space -> phase mask] x N -> free space -> detector.
// One diffractive layer is DiffMod(f, W) = L(f, z) * exp(i W): free-space
// propagation over z, then elementwise phase modulation.
//
// Parameters are the per-layer phase masks; optional sparsity masks freeze
// pixels at zero (§III-C). Forward/backward are hand-derived (the adjoint is
// written out on forward_backward) and validated against finite differences
// in tests.
//
// One forward loop
// ----------------
// Every inference entry point (propagate_through, output_intensity,
// detector_sums, predict, infer_batch) and the training forward pass run
// one private in-place loop that carries a sample buffer through the mask
// stack using per-layer modulation tables exp(i*phi) (modulation_tables()).
// infer_batch and detector_sums_batch evaluate K samples against the single
// cached propagation kernel / FFT plan set, share one set of tables across
// the batch, and parallelize over samples via common/parallel with
// per-chunk scratch buffers; results are bitwise identical to the
// one-sample entry points (tests/serve_test.cpp asserts this).
//
// Thread-safety contract: every const member function is safe to call
// concurrently from any number of threads — inference reads the phase
// masks, the shared Propagator and the detector layout but mutates no model
// state. The non-const mutators (set_phases, set_masks, apply_masks,
// phases()) must not race with in-flight inference; the serving layer
// (src/serve) enforces this by only ever publishing models as
// shared_ptr<const DonnModel>.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "donn/detector.hpp"
#include "donn/loss.hpp"
#include "optics/encode.hpp"
#include "optics/propagate.hpp"
#include "sparsify/mask.hpp"

namespace odonn::donn {

enum class PhaseInit {
  /// Flat surface (pi + small noise): trained roughness reflects learned
  /// structure; matches the paper's baseline behavior under 2*pi
  /// optimization (<2% reduction). Default.
  Flat,
  /// Classic uniform [0, 2*pi) initialization (kept for ablation).
  Uniform,
};

struct DonnConfig {
  optics::GridSpec grid{optics::PaperSystem::kGridSize,
                        optics::PaperSystem::kPixelPitch};
  double wavelength = optics::PaperSystem::kWavelength;
  double distance = optics::PaperSystem::kLayerDistance;
  optics::KernelType kernel = optics::KernelType::AngularSpectrum;
  bool pad2x = false;
  std::size_t num_layers = optics::PaperSystem::kNumLayers;
  std::size_t num_classes = 10;
  std::size_t detector_size = optics::PaperSystem::kDetectorSize;
  DetectorMode detector = DetectorMode::Standard;
  PhaseInit init = PhaseInit::Flat;

  /// Exact paper geometry (§IV-A1).
  static DonnConfig paper();

  /// CPU-sized geometry with grid_n samples per side. Pixel pitch is chosen
  /// so the diffractive mixing ratio lambda*z/(n*pitch^2) matches the
  /// paper's 0.574, and the detector regions keep the paper's 10% linear
  /// fill — so the reduced system behaves like a shrunk paper system rather
  /// than a different optical regime.
  static DonnConfig scaled(std::size_t grid_n);
};

class DonnModel {
 public:
  /// Initializes every phase mask per config.init (flat by default,
  /// uniform in [0, 2*pi) for PhaseInit::Uniform).
  DonnModel(const DonnConfig& config, Rng& rng);

  const DonnConfig& config() const { return config_; }
  std::size_t num_layers() const { return phases_.size(); }
  const ReadoutStrategy& detector() const { return detector_; }
  const optics::Propagator& propagator() const { return *propagator_; }

  std::vector<MatrixD>& phases() { return phases_; }
  const std::vector<MatrixD>& phases() const { return phases_; }
  void set_phases(std::vector<MatrixD> phases);

  /// Installs per-layer sparsity masks (empty vector clears). Masks are
  /// applied to the phases immediately and gradients through masked pixels
  /// are zeroed by mask_gradients().
  void set_masks(std::vector<sparsify::SparsityMask> masks);
  void clear_masks();
  bool has_masks() const { return !masks_.empty(); }
  const std::vector<sparsify::SparsityMask>& masks() const { return masks_; }

  /// Re-zeroes masked phase pixels (call after optimizer steps).
  void apply_masks();

  /// Zeroes gradient entries of masked-off pixels.
  void mask_gradients(std::vector<MatrixD>& grads) const;

  /// Field at the detector plane.
  optics::Field propagate_through(const optics::Field& input) const;

  /// Detector-plane intensity |f|^2.
  MatrixD output_intensity(const optics::Field& input) const;

  /// Raw per-class scores (region intensity sums in Standard mode, signed
  /// +/- pair differences in Differential mode).
  std::vector<double> detector_sums(const optics::Field& input) const;

  /// argmax class.
  std::size_t predict(const optics::Field& input) const;

  /// Precomputed per-layer modulation tables w = exp(i*phi), shared across
  /// a batch so the transcendental cost of the masks is paid once per batch
  /// instead of once per sample. Recompute after set_phases/set_masks (the
  /// serving layer caches them per published model snapshot).
  std::vector<MatrixC> modulation_tables() const;

  /// Plan-reusing batched inference core: evaluates inputs[k] for all k
  /// through the mask stack using the cached propagator and the supplied
  /// modulation tables, parallelized over samples via common/parallel.
  /// Each non-null output vector is resized to inputs.size() and filled at
  /// index k with that sample's result. Bitwise-identical arithmetic to the
  /// single-sample path; results are deterministic and independent of the
  /// thread count. Thread-safe (const; writes only to caller outputs).
  void infer_batch(const std::vector<optics::Field>& inputs,
                   const std::vector<MatrixC>& modulations,
                   std::vector<std::size_t>* predictions,
                   std::vector<std::vector<double>>* sums) const;

  /// Batched raw per-class scores.
  std::vector<std::vector<double>> detector_sums_batch(
      const std::vector<optics::Field>& inputs) const;

  struct ForwardBackwardResult {
    double loss = 0.0;
    std::size_t predicted = 0;
  };

  /// One-sample forward + backward. Phase gradients are ACCUMULATED into
  /// `phase_grads` (must be preallocated to the right shapes); the data
  /// term only — regularizers are added by the trainer. Thread-safe for
  /// concurrent calls (model state is read-only here).
  ///
  /// The backward pass uses the complex gradient convention
  /// g(x) = dL/dRe(x) + i dL/dIm(x). At the detector, I = |f|^2 gives
  /// g(f) = 2 f dL/dI. Free space f_out = P f_in, P = F^{-1} diag(H) F, is
  /// linear with adjoint P* = F^{-1} diag(conj(H)) F, so
  /// g(f_in) = P*(g(f_out)). Each
  /// layer out = f_prop .* w with w = exp(i phi), f_prop the field after free
  /// space (kept from the forward pass), gives
  ///   g(w)      = conj(f_prop) .* g(out)
  ///   dL/dphi   = Re(i * w * conj(g(w)))     (dw/dphi = i w)
  ///   g(f_prop) = conj(w) .* g(out).
  ForwardBackwardResult forward_backward(const optics::Field& input,
                                         std::size_t label,
                                         std::vector<MatrixD>& phase_grads,
                                         const LossOptions& loss_options) const;

  /// Allocates a zeroed gradient set matching the phase shapes.
  std::vector<MatrixD> zero_gradients() const;

 private:
  /// The forward loop: carries `buf` (an input sample) in place through
  /// [propagate, multiply by modulations[l]] for every layer, then the
  /// final propagation, leaving the detector-plane field. When `propagated`
  /// is non-null, (*propagated)[l] receives layer l's field after free
  /// space, before modulation (the backward pass's cache).
  void forward_inplace(MatrixC& buf, const std::vector<MatrixC>& modulations,
                       optics::Propagator::Workspace& workspace,
                       std::vector<MatrixC>* propagated = nullptr) const;

  DonnConfig config_;
  std::shared_ptr<const optics::Propagator> propagator_;
  std::vector<MatrixD> phases_;
  std::vector<sparsify::SparsityMask> masks_;
  ReadoutStrategy detector_;
};

}  // namespace odonn::donn

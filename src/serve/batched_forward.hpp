// BatchedForward — plan-reusing batch-of-fields inference over a published
// (immutable) DONN model.
//
// Construction snapshots the per-layer modulation tables exp(i*phi) once;
// every subsequent run() shares that snapshot plus the model's cached
// propagation kernel and FFT plans across all samples of every batch, and
// parallelizes over samples via common/parallel. Deployment-style workloads
// (Li et al. 2022; Shi & Zhang 2020 treat trained masks as fixed artifacts
// evaluated under many inputs) are exactly this read-only shape.
//
// Thread safety: immutable after construction; run()/predict() may be
// called concurrently from any number of threads. Results are
// bitwise-identical to DonnModel's single-sample path.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "donn/model.hpp"
#include "serve/batch_kernel.hpp"

namespace odonn::serve {

class BatchedForward {
 public:
  /// Snapshots the modulation tables of `model`. The model must stay
  /// unmodified (and alive — the pointer is retained) while served.
  explicit BatchedForward(std::shared_ptr<const donn::DonnModel> model);

  const donn::DonnModel& model() const { return *model_; }
  const std::shared_ptr<const donn::DonnModel>& model_ptr() const {
    return model_;
  }

  struct Result {
    std::vector<std::size_t> predictions;       ///< argmax class per sample
    std::vector<std::vector<double>> detector_sums;  ///< raw per-class sums
  };

  /// Evaluates the whole batch; result vectors are indexed like `inputs`.
  Result run(const std::vector<optics::Field>& inputs) const;

  /// Predictions only (skips materializing per-class sums).
  std::vector<std::size_t> predict(
      const std::vector<optics::Field>& inputs) const;

  /// Whether this pass runs the cross-sample vectorized BatchKernel (true
  /// for radix-2 grids without pad2x) or the generic infer_batch fallback.
  bool fused() const { return kernel_ != nullptr; }

 private:
  /// Routes a batch to the fused kernel or the generic path and fills the
  /// non-null outputs.
  void evaluate(const std::vector<optics::Field>& inputs,
                std::vector<std::size_t>* predictions,
                std::vector<std::vector<double>>* sums) const;

  std::shared_ptr<const donn::DonnModel> model_;
  std::vector<MatrixC> modulations_;
  std::unique_ptr<const BatchKernel> kernel_;  ///< null -> fallback path
};

}  // namespace odonn::serve

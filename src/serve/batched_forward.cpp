#include "serve/batched_forward.hpp"

#include "common/error.hpp"

namespace odonn::serve {

BatchedForward::BatchedForward(std::shared_ptr<const donn::DonnModel> model)
    : model_(std::move(model)) {
  ODONN_CHECK(model_ != nullptr, "BatchedForward: null model");
  modulations_ = model_->modulation_tables();
  if (BatchKernel::supports(*model_)) {
    kernel_ = std::make_unique<const BatchKernel>(*model_, modulations_);
  }
}

namespace {

/// The fused kernel pays for full lane groups, so a batch that would leave
/// most of the last group idle is cheaper on the generic path. Either path
/// produces bitwise-identical results, so routing is purely a cost choice.
bool worth_fusing(std::size_t batch_size) {
  return batch_size >= BatchKernel::kLanes - 1;
}

}  // namespace

void BatchedForward::evaluate(
    const std::vector<optics::Field>& inputs,
    std::vector<std::size_t>* predictions,
    std::vector<std::vector<double>>* sums) const {
  if (kernel_ && worth_fusing(inputs.size())) {
    kernel_->run(inputs, predictions, sums);
  } else {
    model_->infer_batch(inputs, modulations_, predictions, sums);
  }
}

BatchedForward::Result BatchedForward::run(
    const std::vector<optics::Field>& inputs) const {
  Result result;
  evaluate(inputs, &result.predictions, &result.detector_sums);
  return result;
}

std::vector<std::size_t> BatchedForward::predict(
    const std::vector<optics::Field>& inputs) const {
  std::vector<std::size_t> predictions;
  evaluate(inputs, &predictions, nullptr);
  return predictions;
}

}  // namespace odonn::serve

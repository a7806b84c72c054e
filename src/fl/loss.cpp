#include "fl/loss.h"

#include <cmath>
#include <stdexcept>

namespace tradefl::fl {

LossResult softmax_cross_entropy(const Tensor& logits, const std::vector<std::size_t>& labels) {
  return softmax_cross_entropy(logits, labels.data(), labels.size());
}

LossResult softmax_cross_entropy(const Tensor& logits, const std::size_t* labels,
                                 std::size_t count) {
  if (logits.rank() != 2) throw std::invalid_argument("loss: logits must be rank 2");
  const std::size_t batch = logits.dim(0);
  const std::size_t classes = logits.dim(1);
  if (count != batch) throw std::invalid_argument("loss: label count mismatch");

  LossResult result;
  result.grad = Tensor(logits.shape());
  const float inv_batch = 1.0f / static_cast<float>(batch);
  // exp(row[c] - max) once per logit: the loss sums them and the gradient
  // divides them by the sum.
  std::vector<double> exps(classes);
  double total_loss = 0.0;
  for (std::size_t n = 0; n < batch; ++n) {
    if (labels[n] >= classes) throw std::invalid_argument("loss: label out of range");
    const float* row = logits.data() + n * classes;
    float max_logit = row[0];
    std::size_t argmax = 0;
    for (std::size_t c = 1; c < classes; ++c) {
      if (row[c] > max_logit) {
        max_logit = row[c];
        argmax = c;
      }
    }
    if (argmax == labels[n]) ++result.correct;
    double denom = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      exps[c] = std::exp(static_cast<double>(row[c] - max_logit));
      denom += exps[c];
    }
    const double log_denom = std::log(denom);
    total_loss += -(static_cast<double>(row[labels[n]] - max_logit) - log_denom);
    float* grad_row = result.grad.data() + n * classes;
    for (std::size_t c = 0; c < classes; ++c) {
      const double p = exps[c] / denom;
      grad_row[c] = (static_cast<float>(p) - (c == labels[n] ? 1.0f : 0.0f)) * inv_batch;
    }
  }
  result.mean_loss = total_loss / static_cast<double>(batch);
  return result;
}

}  // namespace tradefl::fl

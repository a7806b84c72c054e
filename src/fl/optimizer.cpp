#include "fl/optimizer.h"

#include <stdexcept>

#include "fl/lanes.h"

namespace tradefl::fl {

Sgd::Sgd(SgdOptions options) : options_(options) {
  if (options_.learning_rate <= 0.0) throw std::invalid_argument("sgd: lr must be > 0");
  if (options_.momentum < 0.0 || options_.momentum >= 1.0) {
    throw std::invalid_argument("sgd: momentum must be in [0, 1)");
  }
  if (options_.weight_decay < 0.0) throw std::invalid_argument("sgd: weight_decay must be >= 0");
}

void Sgd::step(const std::vector<Param*>& params) {
  if (velocity_.size() != params.size()) {
    velocity_.assign(params.size(), {});
    for (std::size_t p = 0; p < params.size(); ++p) {
      velocity_[p].assign(params[p]->value.size(), 0.0f);
    }
  }
  const float lr = static_cast<float>(options_.learning_rate);
  const float mu = static_cast<float>(options_.momentum);
  const float wd = static_cast<float>(options_.weight_decay);
  const v4f lr_lanes = splat(lr), mu_lanes = splat(mu), wd_lanes = splat(wd);
  for (std::size_t p = 0; p < params.size(); ++p) {
    Param& param = *params[p];
    if (velocity_[p].size() != param.value.size()) {
      throw std::invalid_argument("sgd: parameter shape changed between steps");
    }
    float* value = param.value.data();
    const float* grad = param.grad.data();
    float* velocity = velocity_[p].data();
    const std::size_t size = param.value.size();
    // Element-wise, so four lanes at a time do each element's three steps in
    // the scalar loop's order: g = grad + wd * v, vel = mu * vel + g,
    // v -= lr * vel.
    std::size_t i = 0;
    for (; i + kLanes <= size; i += kLanes) {
      const v4f g = load(grad + i) + wd_lanes * load(value + i);
      const v4f vel = mu_lanes * load(velocity + i) + g;
      store(velocity + i, vel);
      store(value + i, load(value + i) - lr_lanes * vel);
    }
    for (; i < size; ++i) {
      const float g = grad[i] + wd * value[i];
      velocity[i] = mu * velocity[i] + g;
      value[i] -= lr * velocity[i];
    }
  }
}

void Sgd::reset() { velocity_.clear(); }

}  // namespace tradefl::fl

#include "fl/net.h"

#include <cstring>
#include <sstream>
#include <stdexcept>

namespace tradefl::fl {

Net::Net(std::vector<LayerPtr> layers) {
  for (auto& layer : layers) append(std::move(layer));
}

void Net::append(LayerPtr layer) {
  if (!layer) throw std::invalid_argument("net: null layer");
  const std::vector<Param*> params = layer->parameters();
  if (first_param_layer_ == layers_.size() && params.empty()) ++first_param_layer_;
  params_.insert(params_.end(), params.begin(), params.end());
  layers_.push_back(std::move(layer));
}

Tensor Net::forward(const Tensor& input, bool training) {
  if (layers_.empty()) return input;
  Tensor activation = layers_.front()->forward(input, training);
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    activation = layers_[i]->forward(activation, training);
  }
  return activation;
}

void Net::backward(const Tensor& grad_output) {
  if (first_param_layer_ == layers_.size()) return;
  const Tensor* grad = &grad_output;
  Tensor propagated;
  for (std::size_t i = layers_.size(); --i > first_param_layer_;) {
    propagated = layers_[i]->backward(*grad);
    grad = &propagated;
  }
  layers_[first_param_layer_]->backward_params(*grad);
}

void Net::zero_grad() {
  for (Param* param : params_) {
    std::memset(param->grad.data(), 0, param->grad.size() * sizeof(float));
  }
}

std::size_t Net::parameter_count() {
  std::size_t count = 0;
  for (Param* param : parameters()) count += param->value.size();
  return count;
}

std::vector<float> Net::weights() {
  std::vector<float> flat;
  flat.reserve(parameter_count());
  for (Param* param : parameters()) {
    const float* data = param->value.data();
    flat.insert(flat.end(), data, data + param->value.size());
  }
  return flat;
}

void Net::set_weights(const std::vector<float>& flat) {
  std::size_t offset = 0;
  for (Param* param : parameters()) {
    if (offset + param->value.size() > flat.size()) {
      throw std::invalid_argument("net: weight vector too short");
    }
    for (std::size_t i = 0; i < param->value.size(); ++i) {
      param->value[i] = flat[offset + i];
    }
    offset += param->value.size();
  }
  if (offset != flat.size()) throw std::invalid_argument("net: weight vector too long");
}

std::string Net::summary() {
  std::ostringstream out;
  out << "Net(" << layers_.size() << " layers, " << parameter_count() << " params):";
  for (auto& layer : layers_) out << ' ' << layer->name();
  return out.str();
}

}  // namespace tradefl::fl

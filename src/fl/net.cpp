#include "fl/net.h"

#include <sstream>
#include <stdexcept>

namespace tradefl::fl {

Net::Net(std::vector<LayerPtr> layers) {
  for (auto& layer : layers) append(std::move(layer));
}

void Net::append(LayerPtr layer) {
  if (!layer) throw std::invalid_argument("net: null layer");
  if (first_param_layer_ == layers_.size() && layer->parameters().empty()) {
    ++first_param_layer_;
  }
  layers_.push_back(std::move(layer));
}

Tensor Net::forward(const Tensor& input, bool training) {
  Tensor activation = input;
  for (auto& layer : layers_) activation = layer->forward(activation, training);
  return activation;
}

void Net::backward(const Tensor& grad_output) {
  if (first_param_layer_ == layers_.size()) return;
  Tensor grad = grad_output;
  for (std::size_t i = layers_.size(); --i > first_param_layer_;) {
    grad = layers_[i]->backward(grad);
  }
  layers_[first_param_layer_]->backward_params(grad);
}

std::vector<Param*> Net::parameters() {
  std::vector<Param*> params;
  for (auto& layer : layers_) {
    for (Param* param : layer->parameters()) params.push_back(param);
  }
  return params;
}

void Net::zero_grad() {
  for (Param* param : parameters()) param->grad.fill(0.0f);
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

// Sequential network container plus flat weight-vector (de)serialization —
// the interface FedAvg aggregation works against (Eq. 3 averages weight
// vectors across organizations).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fl/layers.h"

namespace tradefl::fl {

class Net {
 public:
  Net() = default;
  explicit Net(std::vector<LayerPtr> layers);

  void append(LayerPtr layer);

  /// Forward pass through all layers.
  Tensor forward(const Tensor& input, bool training);

  /// Backward pass; call after forward(…, training = true). Accumulates
  /// every parameter gradient. The first layer with parameters runs
  /// backward_params(), and the layers below it are skipped: nothing reads
  /// their input gradients.
  void backward(const Tensor& grad_output);

  /// Every layer's parameters, in layer order. Layers live on the heap, so
  /// the list is collected once, as they are appended.
  [[nodiscard]] const std::vector<Param*>& parameters() { return params_; }
  void zero_grad();

  /// Total number of scalar parameters.
  [[nodiscard]] std::size_t parameter_count();

  /// Copies all parameter values into one flat vector (layer order).
  [[nodiscard]] std::vector<float> weights();

  /// Loads a flat vector produced by weights() from an identical topology.
  void set_weights(const std::vector<float>& flat);

  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t index) { return *layers_.at(index); }
  [[nodiscard]] std::string summary();

 private:
  std::vector<LayerPtr> layers_;
  std::vector<Param*> params_;
  /// Index of the first layer with parameters; layers_.size() if none.
  std::size_t first_param_layer_ = 0;
};

}  // namespace tradefl::fl

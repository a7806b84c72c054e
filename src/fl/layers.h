// Neural-network layers with explicit forward/backward passes. Everything the
// lite model zoo needs: dense, convolution (with groups, so depthwise-
// separable MobileNet blocks work), pooling, ReLU, flatten, residual and
// dense-concat composite blocks. Caches live in the layer (one in-flight
// batch at a time, matching the FedAvg training loop).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fl/tensor.h"

namespace tradefl::fl {

/// A trainable parameter tensor paired with its gradient accumulator.
struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(Tensor initial) : value(std::move(initial)), grad(value.shape(), 0.0f) {}
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output; caches whatever backward() needs.
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  /// Propagates gradients; accumulates into parameter .grad members and
  /// returns the gradient with respect to the layer input.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Accumulates the parameter gradients of backward() but may skip the
  /// input gradient (for a layer whose input gradient nobody reads). The
  /// parameter gradients are bit-identical to backward()'s.
  virtual void backward_params(const Tensor& grad_output) { (void)backward(grad_output); }

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> parameters() { return {}; }

  [[nodiscard]] virtual std::string name() const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

/// Fully connected layer: y = x W^T + b, x is (batch, in), W is (out, in).
class Dense final : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<Param*> parameters() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const override { return "Dense"; }

 private:
  /// Shared backward: parameter gradients, then dX when `input_grad` (the
  /// naive backend's fused loop always computes dX).
  Tensor backward_pass(const Tensor& grad_output, bool input_grad);

  std::size_t in_features_;
  std::size_t out_features_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;
};

/// 2-D convolution over (batch, channels, h, w), 'same' padding when
/// pad == kernel/2. Supports grouped convolution; groups == in_channels with
/// out == in gives a depthwise convolution (MobileNet).
class Conv2D final : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t pad, std::size_t groups, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<Param*> parameters() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const override { return "Conv2D"; }

 private:
  /// Output height (or width) of a forward pass over an input that high (or
  /// wide).
  [[nodiscard]] std::size_t out_extent(std::size_t in_extent) const;
  /// Shared backward, as Dense::backward_pass.
  Tensor backward_pass(const Tensor& grad_output, bool input_grad);

  std::size_t in_channels_, out_channels_, kernel_, stride_, pad_, groups_;
  Param weight_;  // (out, in/groups, k, k)
  Param bias_;    // (out)
  Tensor cached_input_;
};

/// ReLU activation (any rank).
class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }

 private:
  Tensor cached_input_;
};

/// 2x2 max pooling with stride 2 over (batch, c, h, w); floors odd extents.
class MaxPool2D final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "MaxPool2D"; }

 private:
  Tensor cached_input_;
  std::vector<std::size_t> argmax_;
};

/// Global average pooling: (batch, c, h, w) -> (batch, c).
class GlobalAvgPool final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "GlobalAvgPool"; }

 private:
  std::vector<std::size_t> cached_shape_;
};

/// (batch, ...) -> (batch, features).
class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "Flatten"; }

 private:
  std::vector<std::size_t> cached_shape_;
};

/// Residual block: y = relu(body(x) + x). The body must preserve shape
/// (ResNet-lite basic block).
class Residual final : public Layer {
 public:
  explicit Residual(std::vector<LayerPtr> body);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> parameters() override;
  [[nodiscard]] std::string name() const override { return "Residual"; }

 private:
  std::vector<LayerPtr> body_;
  Tensor cached_sum_;
};

/// Dense-concat block: y = concat_channels(x, body(x)) (DenseNet-lite).
class DenseConcat final : public Layer {
 public:
  explicit DenseConcat(std::vector<LayerPtr> body);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> parameters() override;
  [[nodiscard]] std::string name() const override { return "DenseConcat"; }

 private:
  std::vector<LayerPtr> body_;
  std::size_t cached_input_channels_ = 0;
};

/// Inverted dropout; identity during evaluation.
class Dropout final : public Layer {
 public:
  Dropout(double rate, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "Dropout"; }

 private:
  double rate_;
  Rng* rng_;
  Tensor mask_;
  bool last_training_ = false;
};

}  // namespace tradefl::fl

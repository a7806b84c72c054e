// Gradient checking: every layer's backward pass is validated against
// central finite differences of its forward pass — both input gradients and
// parameter gradients. This is the core correctness test of the NN substrate.
#include "fl/layers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/check.h"
#include "fl/gemm.h"

namespace tradefl::fl {
namespace {

Tensor random_tensor(std::vector<std::size_t> shape, Rng& rng, double scale = 1.0) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.normal(0.0, scale));
  }
  return t;
}

/// Scalar objective: sum of c ⊙ output for fixed random c (exercises all
/// output positions with distinct weights).
double objective(Layer& layer, const Tensor& input, const Tensor& weights_c) {
  const Tensor out = layer.forward(input, /*training=*/true);
  double total = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    total += static_cast<double>(out[i]) * weights_c[i];
  }
  return total;
}

/// Checks d(objective)/d(input) and d(objective)/d(params) via backward vs
/// finite differences.
void grad_check(Layer& layer, Tensor input, double tolerance = 2e-2) {
  Rng rng(99);
  const Tensor probe_out = layer.forward(input, true);
  Tensor weights_c(probe_out.shape());
  for (std::size_t i = 0; i < weights_c.size(); ++i) {
    weights_c[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (Param* param : layer.parameters()) param->grad.fill(0.0f);

  // Analytic gradients.
  layer.forward(input, true);
  Tensor grad_out = weights_c;
  const Tensor grad_in = layer.backward(grad_out);

  const float h = 1e-2f;
  // Input gradient check on a sample of coordinates.
  for (std::size_t i = 0; i < input.size(); i += std::max<std::size_t>(1, input.size() / 17)) {
    const float saved = input[i];
    input[i] = saved + h;
    const double up = objective(layer, input, weights_c);
    input[i] = saved - h;
    const double down = objective(layer, input, weights_c);
    input[i] = saved;
    const double fd = (up - down) / (2.0 * h);
    EXPECT_NEAR(grad_in[i], fd, tolerance * std::max(1.0, std::abs(fd)))
        << "input coordinate " << i;
  }

  // Parameter gradient check. Re-run the analytic pass to refresh caches.
  for (Param* param : layer.parameters()) param->grad.fill(0.0f);
  layer.forward(input, true);
  layer.backward(weights_c);
  for (Param* param : layer.parameters()) {
    for (std::size_t i = 0; i < param->value.size();
         i += std::max<std::size_t>(1, param->value.size() / 13)) {
      const float saved = param->value[i];
      param->value[i] = saved + h;
      const double up = objective(layer, input, weights_c);
      param->value[i] = saved - h;
      const double down = objective(layer, input, weights_c);
      param->value[i] = saved;
      const double fd = (up - down) / (2.0 * h);
      EXPECT_NEAR(param->grad[i], fd, tolerance * std::max(1.0, std::abs(fd)))
          << "param coordinate " << i;
    }
  }
}

TEST(Layers, DenseGradCheck) {
  Rng rng(1);
  Dense layer(6, 4, rng);
  grad_check(layer, random_tensor({3, 6}, rng));
}

TEST(Layers, Conv2DGradCheck) {
  Rng rng(2);
  Conv2D layer(2, 3, 3, 1, 1, 1, rng);
  grad_check(layer, random_tensor({2, 2, 5, 5}, rng));
}

TEST(Layers, Conv2DDepthwiseGradCheck) {
  Rng rng(3);
  Conv2D layer(3, 3, 3, 1, 1, 3, rng);  // depthwise (groups == channels)
  grad_check(layer, random_tensor({2, 3, 4, 4}, rng));
}

TEST(Layers, Conv2DStride2GradCheck) {
  Rng rng(4);
  Conv2D layer(1, 2, 3, 2, 1, 1, rng);
  grad_check(layer, random_tensor({1, 1, 6, 6}, rng));
}

TEST(Layers, Conv2DPointwiseGradCheck) {
  Rng rng(5);
  Conv2D layer(4, 2, 1, 1, 0, 1, rng);  // 1x1 conv
  grad_check(layer, random_tensor({2, 4, 3, 3}, rng));
}

TEST(Layers, ReLUGradCheck) {
  Rng rng(6);
  ReLU layer;
  // Keep activations away from the kink for finite differences.
  Tensor input = random_tensor({4, 7}, rng);
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (std::abs(input[i]) < 0.1f) input[i] = 0.5f;
  }
  grad_check(layer, input);
}

TEST(Layers, MaxPoolGradCheck) {
  Rng rng(7);
  MaxPool2D layer;
  // Spread values so max choices are stable under the FD step.
  Tensor input({1, 2, 4, 4});
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<float>(i % 7) + static_cast<float>(rng.uniform(0.0, 0.2));
  }
  grad_check(layer, input);
}

TEST(Layers, GlobalAvgPoolGradCheck) {
  Rng rng(8);
  GlobalAvgPool layer;
  grad_check(layer, random_tensor({2, 3, 4, 4}, rng));
}

TEST(Layers, FlattenGradCheck) {
  Rng rng(9);
  Flatten layer;
  grad_check(layer, random_tensor({2, 3, 2, 2}, rng));
}

TEST(Layers, ResidualGradCheck) {
  Rng rng(10);
  std::vector<LayerPtr> body;
  body.push_back(std::make_unique<Conv2D>(2, 2, 3, 1, 1, 1, rng));
  Residual layer(std::move(body));
  grad_check(layer, random_tensor({1, 2, 4, 4}, rng), 5e-2);
}

TEST(Layers, DenseConcatGradCheck) {
  Rng rng(11);
  std::vector<LayerPtr> body;
  body.push_back(std::make_unique<Conv2D>(2, 3, 3, 1, 1, 1, rng));
  DenseConcat layer(std::move(body));
  grad_check(layer, random_tensor({1, 2, 4, 4}, rng));
}

TEST(Layers, ResidualRequiresShapePreservingBody) {
  Rng rng(12);
  std::vector<LayerPtr> body;
  body.push_back(std::make_unique<Conv2D>(2, 4, 3, 1, 1, 1, rng));  // changes channels
  Residual layer(std::move(body));
  Tensor input = random_tensor({1, 2, 4, 4}, rng);
  EXPECT_THROW(layer.forward(input, true), std::invalid_argument);
}

TEST(Layers, DenseConcatAddsChannels) {
  Rng rng(13);
  std::vector<LayerPtr> body;
  body.push_back(std::make_unique<Conv2D>(2, 3, 3, 1, 1, 1, rng));
  DenseConcat layer(std::move(body));
  const Tensor out = layer.forward(random_tensor({1, 2, 4, 4}, rng), true);
  EXPECT_EQ(out.dim(1), 5u);  // 2 passthrough + 3 grown
}

TEST(Layers, DropoutTrainVsEval) {
  Rng rng(14);
  Dropout layer(0.5, rng);
  const Tensor input = random_tensor({4, 50}, rng);
  const Tensor eval_out = layer.forward(input, /*training=*/false);
  for (std::size_t i = 0; i < input.size(); ++i) EXPECT_FLOAT_EQ(eval_out[i], input[i]);
  const Tensor train_out = layer.forward(input, /*training=*/true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < train_out.size(); ++i) {
    if (train_out[i] == 0.0f) ++zeros;
  }
  EXPECT_GT(zeros, 50u);   // roughly half dropped
  EXPECT_LT(zeros, 150u);
}

TEST(Layers, DropoutBackwardUsesMask) {
  Rng rng(15);
  Dropout layer(0.5, rng);
  const Tensor input = random_tensor({2, 20}, rng);
  const Tensor out = layer.forward(input, true);
  Tensor ones(out.shape(), 1.0f);
  const Tensor grad = layer.backward(ones);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] == 0.0f) {
      EXPECT_FLOAT_EQ(grad[i], 0.0f);
    } else {
      EXPECT_FLOAT_EQ(grad[i], 2.0f);  // 1/(1-rate)
    }
  }
}

TEST(Layers, Conv2DRejectsBadGroups) {
  Rng rng(16);
  EXPECT_THROW(Conv2D(3, 4, 3, 1, 1, 2, rng), std::invalid_argument);
  EXPECT_THROW(Conv2D(4, 4, 3, 0, 1, 1, rng), std::invalid_argument);
}

TEST(Layers, DenseRejectsWrongWidth) {
  Rng rng(17);
  Dense layer(4, 2, rng);
  Tensor bad({2, 5});
  EXPECT_THROW(layer.forward(bad, true), std::invalid_argument);
}

// Regression: Conv2D::forward computed (in_h + 2*pad - kernel) in unsigned
// arithmetic, so a kernel larger than the padded input wrapped the output
// height around to ~2^64 instead of failing.
TEST(LayersContract, Conv2DRejectsKernelLargerThanPaddedInput) {
  Rng rng(17);
  Conv2D conv(1, 1, /*kernel=*/5, /*stride=*/1, /*pad=*/0, /*groups=*/1, rng);
  Tensor tiny({1, 1, 2, 2});
  EXPECT_THROW(conv.forward(tiny, /*training=*/false), ContractViolation);
}

// Regression: Conv2D::backward never checked grad_output against the
// forward's output shape, so a gradient with too few channels or samples made
// the GEMM path read past the end of it. Both halves of the backward check the
// shape, under either backend.
void expect_conv_backward_rejects(const std::vector<std::size_t>& grad_shape) {
  for (KernelBackend backend : {KernelBackend::kGemm, KernelBackend::kNaive}) {
    set_kernel_backend(backend);
    Rng rng(18);
    Conv2D conv(/*in=*/2, /*out=*/4, /*kernel=*/3, /*stride=*/1, /*pad=*/1, /*groups=*/1, rng);
    Rng values(19);
    (void)conv.forward(random_tensor({2, 2, 5, 5}, values), /*training=*/true);
    const Tensor bad = random_tensor(grad_shape, values);
    EXPECT_THROW((void)conv.backward(bad), std::invalid_argument);
    EXPECT_THROW(conv.backward_params(bad), std::invalid_argument);
  }
  set_kernel_backend(KernelBackend::kGemm);
}

TEST(LayersContract, Conv2DBackwardRejectsWrongChannelCount) {
  expect_conv_backward_rejects({2, 2, 5, 5});  // the output has 4 channels
}

TEST(LayersContract, Conv2DBackwardRejectsWrongBatch) {
  expect_conv_backward_rejects({1, 4, 5, 5});  // the forward saw 2 samples
}

// Regression: ReLU, MaxPool2D and Dropout checked the gradient's shape only
// with TFL_ASSERT, which optimized builds compile out, and Residual did not
// check it at all. A gradient larger than the forward's output then made
// backward read its cached input, argmax, mask or sum past their ends. Every
// build now rejects it.
void expect_backward_rejects(Layer& layer, const std::vector<std::size_t>& input_shape,
                             const std::vector<std::size_t>& grad_shape) {
  Rng rng(20);
  (void)layer.forward(random_tensor(input_shape, rng), /*training=*/true);
  EXPECT_THROW((void)layer.backward(random_tensor(grad_shape, rng)), std::invalid_argument)
      << layer.name();
}

TEST(LayersContract, ReLUBackwardRejectsWrongShape) {
  ReLU relu;
  expect_backward_rejects(relu, {2, 6}, {3, 6});
}

TEST(LayersContract, MaxPool2DBackwardRejectsWrongShape) {
  MaxPool2D pool;
  expect_backward_rejects(pool, {1, 2, 4, 4}, {1, 2, 4, 4});  // the output is 2x2
}

TEST(LayersContract, DropoutBackwardRejectsWrongShape) {
  Rng rng(21);
  Dropout dropout(0.5, rng);
  expect_backward_rejects(dropout, {2, 6}, {2, 9});
}

TEST(LayersContract, ResidualBackwardRejectsWrongShape) {
  std::vector<LayerPtr> body;
  body.push_back(std::make_unique<ReLU>());
  Residual block(std::move(body));
  expect_backward_rejects(block, {2, 6}, {4, 6});
}

}  // namespace
}  // namespace tradefl::fl

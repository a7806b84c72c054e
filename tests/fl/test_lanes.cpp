// The lane-wise loops outside GEMM against the scalar loops they replaced,
// kept here as references: ReLU forward and backward (alone and inside
// Residual), Dense's bias add and bias gradient, the SGD step and the
// one-exp-per-logit softmax cross-entropy. Inputs mix random values with
// 0.0, -0.0, NaN and +-inf, at sizes that are mostly not a multiple of four.
// Outputs are compared bit for bit, with one allowance: any two NaNs compare
// equal. Where two NaNs meet in an add, IEEE 754 leaves open whose payload
// (and sign) survives, and GCC picks the operand order of a commutative add
// freely, in the reference loops as in the lane-wise ones.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "fl/gemm.h"
#include "fl/layers.h"
#include "fl/loss.h"
#include "fl/optimizer.h"

namespace tradefl::fl {
namespace {

const std::vector<std::size_t> kSizes{1, 2, 3, 4, 5, 6, 7, 9, 13, 31, 33, 143, 1023};

/// Standard normals with about one entry in four replaced by 0.0, -0.0, a
/// quiet NaN, +inf or -inf.
std::vector<float> special_values(std::size_t count, std::uint64_t seed) {
  const float specials[] = {0.0f, -0.0f, std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  Rng rng(seed);
  std::vector<float> out(count);
  for (float& v : out) {
    const std::int64_t pick = rng.uniform_int(0, 19);
    v = pick < 5 ? specials[pick] : static_cast<float>(rng.normal(0.0, 1.0));
  }
  return out;
}

Tensor special_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  const std::vector<float> values = special_values(t.size(), seed);
  std::memcpy(t.data(), values.data(), values.size() * sizeof(float));
  return t;
}

template <class T>
bool same_bits(const T* a, const T* b, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (std::memcmp(a + i, b + i, sizeof(T)) != 0 && !(std::isnan(a[i]) && std::isnan(b[i]))) {
      return false;
    }
  }
  return true;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) && same_bits(a.data(), b.data(), a.size());
}

// ------------------------------------------------------ scalar references ----

Tensor reference_relu_forward(const Tensor& input) {
  Tensor output = input;
  for (std::size_t i = 0; i < output.size(); ++i) {
    if (output[i] < 0.0f) output[i] = 0.0f;
  }
  return output;
}

Tensor reference_relu_backward(const Tensor& input, const Tensor& grad_output) {
  Tensor grad_input = grad_output;
  for (std::size_t i = 0; i < grad_input.size(); ++i) {
    if (input[i] <= 0.0f) grad_input[i] = 0.0f;
  }
  return grad_input;
}

void reference_sgd_step(const SgdOptions& options, std::vector<float>& value,
                        const std::vector<float>& grad, std::vector<float>& velocity) {
  const float lr = static_cast<float>(options.learning_rate);
  const float mu = static_cast<float>(options.momentum);
  const float wd = static_cast<float>(options.weight_decay);
  for (std::size_t i = 0; i < value.size(); ++i) {
    const float g = grad[i] + wd * value[i];
    velocity[i] = mu * velocity[i] + g;
    value[i] -= lr * velocity[i];
  }
}

LossResult reference_loss(const Tensor& logits, const std::vector<std::size_t>& labels) {
  const std::size_t batch = logits.dim(0);
  const std::size_t classes = logits.dim(1);
  LossResult result;
  result.grad = Tensor(logits.shape());
  double total_loss = 0.0;
  for (std::size_t n = 0; n < batch; ++n) {
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
      denom += std::exp(static_cast<double>(row[c] - max_logit));
    }
    const double log_denom = std::log(denom);
    total_loss += -(static_cast<double>(row[labels[n]] - max_logit) - log_denom);
    const float inv_batch = 1.0f / static_cast<float>(batch);
    for (std::size_t c = 0; c < classes; ++c) {
      const double p = std::exp(static_cast<double>(row[c] - max_logit)) / denom;
      result.grad.at2(n, c) =
          (static_cast<float>(p) - (c == labels[n] ? 1.0f : 0.0f)) * inv_batch;
    }
  }
  result.mean_loss = total_loss / static_cast<double>(batch);
  return result;
}

// ------------------------------------------------------------------ tests ----

TEST(LaneOracle, ReluMatchesBranchyLoops) {
  for (std::size_t n : kSizes) {
    ReLU relu;
    const Tensor input = special_tensor({1, n}, 100 + n);
    const Tensor grad = special_tensor({1, n}, 200 + n);
    EXPECT_TRUE(same_bits(relu.forward(input, /*training=*/true), reference_relu_forward(input)))
        << "forward, n=" << n;
    EXPECT_TRUE(same_bits(relu.backward(grad), reference_relu_backward(input, grad)))
        << "backward, n=" << n;
  }
}

// y = relu(relu(x) + x): the block's inline ReLU and its body's ReLU both run
// on the lane-wise helper.
TEST(LaneOracle, ResidualMatchesBranchyLoops) {
  for (std::size_t n : kSizes) {
    std::vector<LayerPtr> body;
    body.push_back(std::make_unique<ReLU>());
    Residual block(std::move(body));
    const Tensor input = special_tensor({1, n}, 300 + n);
    const Tensor grad = special_tensor({1, n}, 400 + n);

    Tensor sum = reference_relu_forward(input);
    sum.add_scaled(input, 1.0f);
    const Tensor grad_sum = reference_relu_backward(sum, grad);
    Tensor grad_input = reference_relu_backward(input, grad_sum);
    grad_input.add_scaled(grad_sum, 1.0f);

    EXPECT_TRUE(same_bits(block.forward(input, /*training=*/true), reference_relu_forward(sum)))
        << "forward, n=" << n;
    EXPECT_TRUE(same_bits(block.backward(grad), grad_input)) << "backward, n=" << n;
  }
}

// The GEMM halves are GemmOracle's business; here they run on both sides, and
// the bias loops around them are the scalar ones.
TEST(LaneOracle, DenseBiasLoopsMatchScalarLoops) {
  for (std::size_t out : {std::size_t{1}, std::size_t{3}, std::size_t{7}, std::size_t{10},
                          std::size_t{33}}) {
    constexpr std::size_t kIn = 9, kBatch = 5;
    Rng rng(500 + out);
    Dense dense(kIn, out, rng);
    Param& weight = *dense.parameters()[0];
    Param& bias = *dense.parameters()[1];
    const std::vector<float> bias_values = special_values(out, 600 + out);
    const std::vector<float> bias_grad = special_values(out, 700 + out);
    std::memcpy(bias.value.data(), bias_values.data(), out * sizeof(float));
    std::memcpy(bias.grad.data(), bias_grad.data(), out * sizeof(float));
    const Tensor input = special_tensor({kBatch, kIn}, 800 + out);
    const Tensor grad = special_tensor({kBatch, out}, 900 + out);

    std::vector<float> expected_out(kBatch * out);
    gemm::sgemm_nt(kBatch, out, kIn, input.data(), kIn, weight.value.data(), kIn,
                   /*accumulate=*/false, expected_out.data(), out);
    for (std::size_t n = 0; n < kBatch; ++n) {
      float* row = expected_out.data() + n * out;
      for (std::size_t o = 0; o < out; ++o) row[o] += bias_values[o];
    }
    std::vector<float> expected_bias_grad = bias_grad;
    for (std::size_t n = 0; n < kBatch; ++n) {
      const float* g_row = grad.data() + n * out;
      for (std::size_t o = 0; o < out; ++o) expected_bias_grad[o] += g_row[o];
    }

    const Tensor actual_out = dense.forward(input, /*training=*/true);
    EXPECT_TRUE(same_bits(actual_out.data(), expected_out.data(), expected_out.size()))
        << "bias add, out=" << out;
    (void)dense.backward(grad);
    EXPECT_TRUE(same_bits(bias.grad.data(), expected_bias_grad.data(), out))
        << "bias gradient, out=" << out;
  }
}

TEST(LaneOracle, SgdStepMatchesScalarLoop) {
  const SgdOptions options{0.05, 0.9, 1e-3};
  std::vector<Param> params;
  for (std::size_t n : kSizes) {
    params.emplace_back(Tensor::from_values({n}, special_values(n, 1000 + n)));
  }
  std::vector<Param*> list;
  for (Param& param : params) list.push_back(&param);
  std::vector<std::vector<float>> values, velocities;
  for (const Param& param : params) {
    values.emplace_back(param.value.data(), param.value.data() + param.value.size());
    velocities.emplace_back(param.value.size(), 0.0f);
  }

  Sgd sgd(options);
  for (std::uint64_t step = 0; step < 3; ++step) {
    for (std::size_t p = 0; p < params.size(); ++p) {
      const std::vector<float> grad = special_values(params[p].grad.size(), 2000 + 100 * step + p);
      std::memcpy(params[p].grad.data(), grad.data(), grad.size() * sizeof(float));
      reference_sgd_step(options, values[p], grad, velocities[p]);
    }
    sgd.step(list);
    for (std::size_t p = 0; p < params.size(); ++p) {
      EXPECT_TRUE(same_bits(params[p].value.data(), values[p].data(), values[p].size()))
          << "step " << step << ", size " << values[p].size();
    }
  }
}

TEST(LaneOracle, SoftmaxCrossEntropyMatchesTwoExpLoop) {
  for (std::size_t classes : {std::size_t{2}, std::size_t{3}, std::size_t{7}, std::size_t{10}}) {
    for (std::size_t batch : {std::size_t{1}, std::size_t{5}, std::size_t{32}}) {
      const Tensor logits = special_tensor({batch, classes}, 3000 + 10 * classes + batch);
      Rng rng(4000 + batch);
      std::vector<std::size_t> labels(batch);
      for (std::size_t& label : labels) {
        label = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(classes) - 1));
      }
      const LossResult expected = reference_loss(logits, labels);
      const LossResult actual = softmax_cross_entropy(logits, labels);
      EXPECT_TRUE(same_bits(&actual.mean_loss, &expected.mean_loss, 1))
          << "classes=" << classes << " batch=" << batch;
      EXPECT_EQ(actual.correct, expected.correct);
      EXPECT_TRUE(same_bits(actual.grad, expected.grad))
          << "classes=" << classes << " batch=" << batch;
    }
  }
}

}  // namespace
}  // namespace tradefl::fl

#include "fl/layers.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/check.h"
#include "common/parallel.h"
#include "fl/gemm.h"
#include "fl/lanes.h"

namespace tradefl::fl {
namespace {

/// He-normal initialization for a tensor with the given fan-in.
Tensor he_init(std::vector<std::size_t> shape, std::size_t fan_in, Rng& rng) {
  Tensor tensor(std::move(shape));
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (std::size_t i = 0; i < tensor.size(); ++i) {
    tensor[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
  return tensor;
}

/// Per-thread im2col scratch: each pool worker (and the main thread) owns its
/// buffer, so concurrent forwards through the same Conv2D never share state.
/// Capacity only grows, so steady-state training does no allocation here.
std::vector<float>& col_scratch(std::size_t elements) {
  thread_local std::vector<float> buffer;
  if (buffer.size() < elements) buffer.resize(elements);
  return buffer;
}

/// Second buffer for backward passes that need the input patches and the
/// gradient patches alive at the same time.
std::vector<float>& col_scratch2(std::size_t elements) {
  thread_local std::vector<float> buffer;
  if (buffer.size() < elements) buffer.resize(elements);
  return buffer;
}

/// Samples per chunk when reducing weight/bias gradients across the batch.
/// Fixed (never derived from the pool size) so the partial-sum tree — and
/// with it every float rounding step — is identical for any thread count.
constexpr std::size_t kGradChunkSamples = 8;

/// dst[i] += src[i] for i < n, four lanes at a time: element-wise, so
/// vectorizing changes nothing.
void add_lanes(std::size_t n, const float* src, float* dst) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) store(dst + i, load(dst + i) + load(src + i));
  for (; i < n; ++i) dst[i] += src[i];
}

/// ReLU in place, four lanes at a time: values[i] = key[i] < 0 ? 0 : values[i]
/// forward (key = values = the output), and key[i] <= 0 ? 0 : values[i]
/// backward (key = the forward input, values = the gradient). A select,
/// because a branch on a fresh batch's signs mispredicts often; not max(),
/// because that treats NaN and -0.0 differently from the scalar `if`.
template <bool kBackward>
void relu_lanes(std::size_t n, const float* key, float* values) {
  const v4f zero = {};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const v4f k = load(key + i);
    store(values + i, (kBackward ? k <= zero : k < zero) ? zero : load(values + i));
  }
  for (; i < n; ++i) {
    values[i] = (kBackward ? key[i] <= 0.0f : key[i] < 0.0f) ? 0.0f : values[i];
  }
}

}  // namespace

// ---------------------------------------------------------------- Dense ----

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(he_init({out_features, in_features}, in_features, rng)),
      bias_(Tensor({out_features}, 0.0f)) {}

Tensor Dense::forward(const Tensor& input, bool training) {
  if (input.rank() != 2 || input.dim(1) != in_features_) {
    throw std::invalid_argument("Dense: expected (batch, " + std::to_string(in_features_) +
                                "), got " + input.shape_string());
  }
  if (training) cached_input_ = input;
  const std::size_t batch = input.dim(0);
  Tensor output({batch, out_features_});
  if (kernel_backend() == KernelBackend::kNaive) {
    for (std::size_t n = 0; n < batch; ++n) {
      for (std::size_t o = 0; o < out_features_; ++o) {
        float total = bias_.value[o];
        const float* w_row = weight_.value.data() + o * in_features_;
        const float* x_row = input.data() + n * in_features_;
        for (std::size_t k = 0; k < in_features_; ++k) total += w_row[k] * x_row[k];
        output.at2(n, o) = total;
      }
    }
    return output;
  }
  // Y = X W^T + b: one contiguous dot per output, rows parallelized.
  ThreadPool* pool = global_pool();
  gemm::sgemm_nt(batch, out_features_, in_features_, input.data(), in_features_,
                 weight_.value.data(), in_features_, /*accumulate=*/false, output.data(),
                 out_features_, pool);
  for (std::size_t n = 0; n < batch; ++n) {
    add_lanes(out_features_, bias_.value.data(), output.data() + n * out_features_);
  }
  return output;
}

Tensor Dense::backward(const Tensor& grad_output) {
  return backward_pass(grad_output, /*input_grad=*/true);
}

void Dense::backward_params(const Tensor& grad_output) {
  (void)backward_pass(grad_output, /*input_grad=*/false);
}

Tensor Dense::backward_pass(const Tensor& grad_output, bool input_grad) {
  const std::size_t batch = cached_input_.dim(0);
  if (grad_output.rank() != 2 || grad_output.dim(0) != batch ||
      grad_output.dim(1) != out_features_) {
    throw std::invalid_argument("Dense: bad grad shape " + grad_output.shape_string());
  }
  if (kernel_backend() == KernelBackend::kNaive) {
    Tensor grad_input({batch, in_features_});
    for (std::size_t n = 0; n < batch; ++n) {
      const float* g_row = grad_output.data() + n * out_features_;
      const float* x_row = cached_input_.data() + n * in_features_;
      for (std::size_t o = 0; o < out_features_; ++o) {
        const float g = g_row[o];
        bias_.grad[o] += g;
        float* w_grad_row = weight_.grad.data() + o * in_features_;
        const float* w_row = weight_.value.data() + o * in_features_;
        float* gi_row = grad_input.data() + n * in_features_;
        for (std::size_t k = 0; k < in_features_; ++k) {
          w_grad_row[k] += g * x_row[k];
          gi_row[k] += g * w_row[k];
        }
      }
    }
    return grad_input;
  }
  ThreadPool* pool = global_pool();
  // dW += dY^T X (each weight-grad row owned by one worker, k = batch in
  // ascending order — the same accumulation order at every thread count).
  gemm::sgemm_tn(out_features_, in_features_, batch, grad_output.data(), out_features_,
                 cached_input_.data(), in_features_, /*accumulate=*/true, weight_.grad.data(),
                 in_features_, pool);
  for (std::size_t n = 0; n < batch; ++n) {
    add_lanes(out_features_, grad_output.data() + n * out_features_, bias_.grad.data());
  }
  if (!input_grad) return {};
  // dX = dY W (each grad_input row owned by one worker; it writes no buffer
  // the parameter half reads, so running it second reorders nothing).
  Tensor grad_input({batch, in_features_});
  gemm::sgemm_nn(batch, in_features_, out_features_, grad_output.data(), out_features_,
                 weight_.value.data(), in_features_, /*accumulate=*/false, grad_input.data(),
                 in_features_, pool);
  return grad_input;
}

// --------------------------------------------------------------- Conv2D ----

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t pad, std::size_t groups, Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      groups_(groups),
      weight_(he_init({out_channels, in_channels / groups, kernel, kernel},
                      (in_channels / groups) * kernel * kernel, rng)),
      bias_(Tensor({out_channels}, 0.0f)) {
  if (groups == 0 || in_channels % groups != 0 || out_channels % groups != 0) {
    throw std::invalid_argument("Conv2D: channels must divide groups");
  }
  if (stride == 0) throw std::invalid_argument("Conv2D: stride must be >= 1");
}

std::size_t Conv2D::out_extent(std::size_t in_extent) const {
  return (in_extent + 2 * pad_ - kernel_) / stride_ + 1;
}

Tensor Conv2D::forward(const Tensor& input, bool training) {
  if (input.rank() != 4 || input.dim(1) != in_channels_) {
    throw std::invalid_argument("Conv2D: expected (n, " + std::to_string(in_channels_) +
                                ", h, w), got " + input.shape_string());
  }
  if (training) cached_input_ = input;
  const std::size_t batch = input.dim(0);
  const std::size_t in_h = input.dim(2);
  const std::size_t in_w = input.dim(3);
  // Guard the unsigned subtraction below: a kernel larger than the padded
  // input would wrap out_h/out_w around to ~2^64 and allocate accordingly.
  TFL_CHECK(in_h + 2 * pad_ >= kernel_ && in_w + 2 * pad_ >= kernel_,
            "kernel ", kernel_, " exceeds padded input ", input.shape_string(),
            " with pad ", pad_);
  const std::size_t out_h = out_extent(in_h);
  const std::size_t out_w = out_extent(in_w);
  const std::size_t cin_per_group = in_channels_ / groups_;
  const std::size_t cout_per_group = out_channels_ / groups_;

  Tensor output({batch, out_channels_, out_h, out_w});
  if (kernel_backend() == KernelBackend::kNaive) {
    for (std::size_t n = 0; n < batch; ++n) {
      for (std::size_t oc = 0; oc < out_channels_; ++oc) {
        const std::size_t group = oc / cout_per_group;
        for (std::size_t oy = 0; oy < out_h; ++oy) {
          for (std::size_t ox = 0; ox < out_w; ++ox) {
            float total = bias_.value[oc];
            for (std::size_t ic = 0; ic < cin_per_group; ++ic) {
              const std::size_t in_c = group * cin_per_group + ic;
              for (std::size_t ky = 0; ky < kernel_; ++ky) {
                const std::ptrdiff_t iy =
                    static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                    static_cast<std::ptrdiff_t>(pad_);
                if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in_h)) continue;
                for (std::size_t kx = 0; kx < kernel_; ++kx) {
                  const std::ptrdiff_t ix =
                      static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                      static_cast<std::ptrdiff_t>(pad_);
                  if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(in_w)) continue;
                  total += weight_.value.at4(oc, ic, ky, kx) *
                           input.at4(n, in_c, static_cast<std::size_t>(iy),
                                     static_cast<std::size_t>(ix));
                }
              }
            }
            output.at4(n, oc, oy, ox) = total;
          }
        }
      }
    }
    return output;
  }
  // GEMM path: per sample and group, Y_g = W_g * im2col(x_g) on top of the
  // broadcast bias. Samples are disjoint outputs, so the batch parallelizes
  // with no reduction at all.
  const gemm::ConvGeom geom{cin_per_group, in_h, in_w, kernel_, stride_, pad_, out_h, out_w};
  const std::size_t patch = geom.patch();
  const std::size_t area = geom.out_area();
  const std::size_t in_sample = in_channels_ * in_h * in_w;
  const std::size_t out_sample = out_channels_ * area;
  parallel_for(global_pool(), 0, batch, 1, [&](std::size_t lo, std::size_t hi, std::size_t) {
    float* col = col_scratch(patch * area).data();
    for (std::size_t n = lo; n < hi; ++n) {
      for (std::size_t g = 0; g < groups_; ++g) {
        gemm::im2col(input.data() + n * in_sample + g * cin_per_group * in_h * in_w, geom, col);
        float* out_g = output.data() + n * out_sample + g * cout_per_group * area;
        for (std::size_t ocg = 0; ocg < cout_per_group; ++ocg) {
          const float b = bias_.value[g * cout_per_group + ocg];
          float* row = out_g + ocg * area;
          for (std::size_t p = 0; p < area; ++p) row[p] = b;
        }
        gemm::sgemm_nn(cout_per_group, area, patch,
                       weight_.value.data() + g * cout_per_group * patch, patch, col, area,
                       /*accumulate=*/true, out_g, area, nullptr);
      }
    }
  });
  return output;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  return backward_pass(grad_output, /*input_grad=*/true);
}

void Conv2D::backward_params(const Tensor& grad_output) {
  (void)backward_pass(grad_output, /*input_grad=*/false);
}

Tensor Conv2D::backward_pass(const Tensor& grad_output, bool input_grad) {
  const std::size_t batch = cached_input_.dim(0);
  const std::size_t in_h = cached_input_.dim(2);
  const std::size_t in_w = cached_input_.dim(3);
  const std::size_t out_h = out_extent(in_h);
  const std::size_t out_w = out_extent(in_w);
  // Both halves below index grad_output by the forward's output shape.
  if (grad_output.rank() != 4 || grad_output.dim(0) != batch ||
      grad_output.dim(1) != out_channels_ || grad_output.dim(2) != out_h ||
      grad_output.dim(3) != out_w) {
    throw std::invalid_argument("Conv2D: bad grad shape " + grad_output.shape_string() +
                                " for output (" + std::to_string(batch) + ", " +
                                std::to_string(out_channels_) + ", " + std::to_string(out_h) +
                                ", " + std::to_string(out_w) + ")");
  }
  const std::size_t cin_per_group = in_channels_ / groups_;
  const std::size_t cout_per_group = out_channels_ / groups_;

  if (kernel_backend() == KernelBackend::kGemm) {
    const gemm::ConvGeom geom{cin_per_group, in_h, in_w, kernel_, stride_, pad_, out_h, out_w};
    const std::size_t patch = geom.patch();
    const std::size_t area = geom.out_area();
    const std::size_t in_sample = in_channels_ * in_h * in_w;
    const std::size_t out_sample = out_channels_ * area;
    ThreadPool* pool = global_pool();
    // dW/db: partial sums over fixed-size sample chunks, folded serially in
    // chunk order — the partial-sum tree depends only on the batch size, so
    // gradients are bit-identical at any thread count.
    struct GradPartial {
      std::vector<float> w;
      std::vector<float> b;
    };
    const std::size_t chunks = chunk_count(batch, kGradChunkSamples);
    GradPartial total = ordered_reduce<GradPartial>(
        pool, chunks,
        GradPartial{std::vector<float>(weight_.grad.size(), 0.0f),
                    std::vector<float>(out_channels_, 0.0f)},
        [&](std::size_t chunk, std::size_t) {
          GradPartial local{std::vector<float>(weight_.grad.size(), 0.0f),
                            std::vector<float>(out_channels_, 0.0f)};
          const std::size_t n_lo = chunk * kGradChunkSamples;
          const std::size_t n_hi = std::min(batch, n_lo + kGradChunkSamples);
          float* col = col_scratch2(patch * area).data();
          for (std::size_t n = n_lo; n < n_hi; ++n) {
            for (std::size_t g = 0; g < groups_; ++g) {
              gemm::im2col(cached_input_.data() + n * in_sample +
                               g * cin_per_group * in_h * in_w,
                           geom, col);
              const float* dy_g =
                  grad_output.data() + n * out_sample + g * cout_per_group * area;
              gemm::sgemm_nt(cout_per_group, patch, area, dy_g, area, col, area,
                             /*accumulate=*/true, local.w.data() + g * cout_per_group * patch,
                             patch, nullptr);
              for (std::size_t ocg = 0; ocg < cout_per_group; ++ocg) {
                const float* dy_row = dy_g + ocg * area;
                float& b = local.b[g * cout_per_group + ocg];
                for (std::size_t p = 0; p < area; ++p) b += dy_row[p];
              }
            }
          }
          return local;
        },
        [](GradPartial& acc, GradPartial&& part) {
          for (std::size_t i = 0; i < acc.w.size(); ++i) acc.w[i] += part.w[i];
          for (std::size_t i = 0; i < acc.b.size(); ++i) acc.b[i] += part.b[i];
        });
    for (std::size_t i = 0; i < total.w.size(); ++i) weight_.grad[i] += total.w[i];
    for (std::size_t i = 0; i < total.b.size(); ++i) bias_.grad[i] += total.b[i];
    if (!input_grad) return {};
    // dX: per sample/group, fold W_g^T dY_g back through col2im. Samples are
    // disjoint outputs, so the batch parallelizes without a reduction; it
    // writes no buffer the parameter half reads, so running it second reorders
    // nothing.
    Tensor grad_input(cached_input_.shape());
    parallel_for(pool, 0, batch, 1, [&](std::size_t lo, std::size_t hi, std::size_t) {
      float* dcol = col_scratch(patch * area).data();
      for (std::size_t n = lo; n < hi; ++n) {
        for (std::size_t g = 0; g < groups_; ++g) {
          gemm::sgemm_tn(patch, area, cout_per_group,
                         weight_.value.data() + g * cout_per_group * patch, patch,
                         grad_output.data() + n * out_sample + g * cout_per_group * area, area,
                         /*accumulate=*/false, dcol, area, nullptr);
          gemm::col2im_add(dcol, geom,
                           grad_input.data() + n * in_sample + g * cin_per_group * in_h * in_w);
        }
      }
    });
    return grad_input;
  }
  Tensor grad_input(cached_input_.shape());
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      const std::size_t group = oc / cout_per_group;
      for (std::size_t oy = 0; oy < out_h; ++oy) {
        for (std::size_t ox = 0; ox < out_w; ++ox) {
          const float g = grad_output.at4(n, oc, oy, ox);
          if (g == 0.0f) continue;
          bias_.grad[oc] += g;
          for (std::size_t ic = 0; ic < cin_per_group; ++ic) {
            const std::size_t in_c = group * cin_per_group + ic;
            for (std::size_t ky = 0; ky < kernel_; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                  static_cast<std::ptrdiff_t>(pad_);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in_h)) continue;
              for (std::size_t kx = 0; kx < kernel_; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                    static_cast<std::ptrdiff_t>(pad_);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(in_w)) continue;
                const std::size_t uy = static_cast<std::size_t>(iy);
                const std::size_t ux = static_cast<std::size_t>(ix);
                weight_.grad.at4(oc, ic, ky, kx) += g * cached_input_.at4(n, in_c, uy, ux);
                grad_input.at4(n, in_c, uy, ux) += g * weight_.value.at4(oc, ic, ky, kx);
              }
            }
          }
        }
      }
    }
  }
  return grad_input;
}

// ----------------------------------------------------------------- ReLU ----

Tensor ReLU::forward(const Tensor& input, bool training) {
  if (training) cached_input_ = input;
  Tensor output = input;
  relu_lanes<false>(output.size(), output.data(), output.data());
  return output;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (!grad_output.same_shape(cached_input_)) {
    throw std::invalid_argument("ReLU: bad grad shape " + grad_output.shape_string() +
                                " for input " + cached_input_.shape_string());
  }
  Tensor grad_input = grad_output;
  relu_lanes<true>(grad_input.size(), cached_input_.data(), grad_input.data());
  return grad_input;
}

// ------------------------------------------------------------ MaxPool2D ----

Tensor MaxPool2D::forward(const Tensor& input, bool training) {
  if (input.rank() != 4) throw std::invalid_argument("MaxPool2D: need rank-4 input");
  const std::size_t batch = input.dim(0), channels = input.dim(1);
  const std::size_t out_h = input.dim(2) / 2, out_w = input.dim(3) / 2;
  if (out_h == 0 || out_w == 0) throw std::invalid_argument("MaxPool2D: input too small");
  Tensor output({batch, channels, out_h, out_w});
  // The argmax bookkeeping exists only for backward; the evaluation path
  // skips it so a shared net can run concurrent eval forwards (parallel
  // evaluate()) without writing any layer state.
  if (training) argmax_.assign(output.size(), 0);
  std::size_t flat = 0;
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      for (std::size_t oy = 0; oy < out_h; ++oy) {
        for (std::size_t ox = 0; ox < out_w; ++ox, ++flat) {
          float best = -3.4e38f;
          std::size_t best_index = 0;
          for (std::size_t ky = 0; ky < 2; ++ky) {
            for (std::size_t kx = 0; kx < 2; ++kx) {
              const std::size_t iy = oy * 2 + ky, ix = ox * 2 + kx;
              const float value = input.at4(n, c, iy, ix);
              if (value > best) {
                best = value;
                best_index = ((n * channels + c) * input.dim(2) + iy) * input.dim(3) + ix;
              }
            }
          }
          output[flat] = best;
          if (training) argmax_[flat] = best_index;
        }
      }
    }
  }
  if (training) cached_input_ = input;
  return output;
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
  // argmax_ holds one input index per forward output, in output order.
  const std::vector<std::size_t>& in = cached_input_.shape();
  if (in.size() != 4 ||
      grad_output.shape() != std::vector<std::size_t>{in[0], in[1], in[2] / 2, in[3] / 2}) {
    throw std::invalid_argument("MaxPool2D: bad grad shape " + grad_output.shape_string() +
                                " for input " + cached_input_.shape_string());
  }
  Tensor grad_input(cached_input_.shape());
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    grad_input[argmax_[i]] += grad_output[i];
  }
  return grad_input;
}

// -------------------------------------------------------- GlobalAvgPool ----

Tensor GlobalAvgPool::forward(const Tensor& input, bool training) {
  if (input.rank() != 4) throw std::invalid_argument("GlobalAvgPool: need rank-4 input");
  if (training) cached_shape_ = input.shape();
  const std::size_t batch = input.dim(0), channels = input.dim(1);
  const std::size_t area = input.dim(2) * input.dim(3);
  Tensor output({batch, channels});
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      double total = 0.0;
      const float* base = input.data() + (n * channels + c) * area;
      for (std::size_t i = 0; i < area; ++i) total += static_cast<double>(base[i]);
      output.at2(n, c) = static_cast<float>(total / static_cast<double>(area));
    }
  }
  return output;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  Tensor grad_input(cached_shape_);
  const std::size_t batch = cached_shape_[0], channels = cached_shape_[1];
  const std::size_t area = cached_shape_[2] * cached_shape_[3];
  const float inv_area = 1.0f / static_cast<float>(area);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      const float g = grad_output.at2(n, c) * inv_area;
      float* base = grad_input.data() + (n * channels + c) * area;
      for (std::size_t i = 0; i < area; ++i) base[i] = g;
    }
  }
  return grad_input;
}

// -------------------------------------------------------------- Flatten ----

Tensor Flatten::forward(const Tensor& input, bool training) {
  if (training) cached_shape_ = input.shape();
  const std::size_t batch = input.dim(0);
  return input.reshaped({batch, input.size() / batch});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(cached_shape_);
}

// ------------------------------------------------------------- Residual ----

Residual::Residual(std::vector<LayerPtr> body) : body_(std::move(body)) {
  if (body_.empty()) throw std::invalid_argument("Residual: empty body");
}

Tensor Residual::forward(const Tensor& input, bool training) {
  Tensor hidden = input;
  for (auto& layer : body_) hidden = layer->forward(hidden, training);
  if (!hidden.same_shape(input)) {
    throw std::invalid_argument("Residual: body must preserve shape (" +
                                input.shape_string() + " -> " + hidden.shape_string() + ")");
  }
  hidden.add_scaled(input, 1.0f);
  Tensor output = hidden;
  relu_lanes<false>(output.size(), output.data(), output.data());
  if (training) cached_sum_ = std::move(hidden);
  return output;
}

Tensor Residual::backward(const Tensor& grad_output) {
  if (!grad_output.same_shape(cached_sum_)) {
    throw std::invalid_argument("Residual: bad grad shape " + grad_output.shape_string() +
                                " for output " + cached_sum_.shape_string());
  }
  Tensor grad_sum = grad_output;
  relu_lanes<true>(grad_sum.size(), cached_sum_.data(), grad_sum.data());
  Tensor grad_body = grad_sum;
  for (std::size_t i = body_.size(); i-- > 0;) grad_body = body_[i]->backward(grad_body);
  grad_body.add_scaled(grad_sum, 1.0f);  // skip connection
  return grad_body;
}

std::vector<Param*> Residual::parameters() {
  std::vector<Param*> params;
  for (auto& layer : body_) {
    for (Param* param : layer->parameters()) params.push_back(param);
  }
  return params;
}

// ---------------------------------------------------------- DenseConcat ----

DenseConcat::DenseConcat(std::vector<LayerPtr> body) : body_(std::move(body)) {
  if (body_.empty()) throw std::invalid_argument("DenseConcat: empty body");
}

Tensor DenseConcat::forward(const Tensor& input, bool training) {
  if (input.rank() != 4) throw std::invalid_argument("DenseConcat: need rank-4 input");
  Tensor hidden = input;
  for (auto& layer : body_) hidden = layer->forward(hidden, training);
  if (hidden.rank() != 4 || hidden.dim(0) != input.dim(0) ||
      hidden.dim(2) != input.dim(2) || hidden.dim(3) != input.dim(3)) {
    throw std::invalid_argument("DenseConcat: body must preserve spatial shape");
  }
  if (training) cached_input_channels_ = input.dim(1);
  const std::size_t batch = input.dim(0);
  const std::size_t channels = input.dim(1) + hidden.dim(1);
  const std::size_t h = input.dim(2), w = input.dim(3);
  Tensor output({batch, channels, h, w});
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < input.dim(1); ++c) {
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) output.at4(n, c, y, x) = input.at4(n, c, y, x);
      }
    }
    for (std::size_t c = 0; c < hidden.dim(1); ++c) {
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) {
          output.at4(n, input.dim(1) + c, y, x) = hidden.at4(n, c, y, x);
        }
      }
    }
  }
  return output;
}

Tensor DenseConcat::backward(const Tensor& grad_output) {
  const std::size_t batch = grad_output.dim(0);
  const std::size_t h = grad_output.dim(2), w = grad_output.dim(3);
  TFL_CHECK(grad_output.dim(1) >= cached_input_channels_,
            "grad channels ", grad_output.dim(1), " below passthrough ",
            cached_input_channels_);
  const std::size_t body_channels = grad_output.dim(1) - cached_input_channels_;

  Tensor grad_body({batch, body_channels, h, w});
  Tensor grad_passthrough({batch, cached_input_channels_, h, w});
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < cached_input_channels_; ++c) {
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) {
          grad_passthrough.at4(n, c, y, x) = grad_output.at4(n, c, y, x);
        }
      }
    }
    for (std::size_t c = 0; c < body_channels; ++c) {
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) {
          grad_body.at4(n, c, y, x) = grad_output.at4(n, cached_input_channels_ + c, y, x);
        }
      }
    }
  }
  for (std::size_t i = body_.size(); i-- > 0;) grad_body = body_[i]->backward(grad_body);
  grad_body.add_scaled(grad_passthrough, 1.0f);
  return grad_body;
}

std::vector<Param*> DenseConcat::parameters() {
  std::vector<Param*> params;
  for (auto& layer : body_) {
    for (Param* param : layer->parameters()) params.push_back(param);
  }
  return params;
}

// -------------------------------------------------------------- Dropout ----

Dropout::Dropout(double rate, Rng& rng) : rate_(rate), rng_(&rng) {
  if (rate < 0.0 || rate >= 1.0) throw std::invalid_argument("Dropout: rate must be in [0,1)");
}

Tensor Dropout::forward(const Tensor& input, bool training) {
  // No state writes on the eval path (concurrent eval forwards share layers).
  if (!training || rate_ == 0.0) return input;
  last_training_ = true;
  mask_ = Tensor(input.shape());
  Tensor output = input;
  const float keep_scale = static_cast<float>(1.0 / (1.0 - rate_));
  for (std::size_t i = 0; i < output.size(); ++i) {
    const bool keep = !rng_->bernoulli(rate_);
    mask_[i] = keep ? keep_scale : 0.0f;
    output[i] *= mask_[i];
  }
  return output;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (!last_training_ || rate_ == 0.0) return grad_output;
  if (!grad_output.same_shape(mask_)) {
    throw std::invalid_argument("Dropout: bad grad shape " + grad_output.shape_string() +
                                " for mask " + mask_.shape_string());
  }
  Tensor grad_input = grad_output;
  for (std::size_t i = 0; i < grad_input.size(); ++i) grad_input[i] *= mask_[i];
  return grad_input;
}

}  // namespace tradefl::fl

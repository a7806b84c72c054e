// The GEMM backend's contract: numerical agreement with the naive seed
// kernels, bit-identity with the scalar loops the vectorized kernels replaced
// (at four and at eight lanes) and across pool sizes, the width the public
// kernels run, im2col/col2im adjointness, Conv2D/Dense producing the same
// results under either backend, Net::backward's skipped input gradient
// leaving every parameter gradient unchanged, and guards that the kernels
// stay vectorized and that eight lanes beat four.
#include "fl/gemm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "fl/gemm_kernels.h"
#include "fl/layers.h"
#include "fl/model_zoo.h"
#include "fl/net.h"

namespace tradefl::fl {
namespace {

std::vector<float> random_values(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(count);
  for (float& v : out) v = static_cast<float>(rng.normal(0.0, 1.0));
  return out;
}

void reference_nn(std::size_t m, std::size_t n, std::size_t k, const std::vector<float>& a,
                  const std::vector<float>& b, std::vector<float>& c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a[i * k + kk]) * static_cast<double>(b[kk * n + j]);
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

TEST(Gemm, NnMatchesReference) {
  const std::size_t m = 17, n = 23, k = 71;
  const auto a = random_values(m * k, 1);
  const auto b = random_values(k * n, 2);
  std::vector<float> expected(m * n), actual(m * n);
  reference_nn(m, n, k, a, b, expected);
  gemm::sgemm_nn(m, n, k, a.data(), k, b.data(), n, /*accumulate=*/false, actual.data(), n);
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-4f * (1.0f + std::fabs(expected[i])));
  }
}

TEST(Gemm, NtMatchesReference) {
  const std::size_t m = 9, n = 13, k = 65;
  const auto a = random_values(m * k, 3);
  const auto bt = random_values(n * k, 4);  // B stored (n, k)
  std::vector<float> b(k * n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t kk = 0; kk < k; ++kk) b[kk * n + j] = bt[j * k + kk];
  }
  std::vector<float> expected(m * n), actual(m * n);
  reference_nn(m, n, k, a, b, expected);
  gemm::sgemm_nt(m, n, k, a.data(), k, bt.data(), k, /*accumulate=*/false, actual.data(), n);
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-4f * (1.0f + std::fabs(expected[i])));
  }
}

TEST(Gemm, TnMatchesReferenceAndAccumulates) {
  const std::size_t m = 11, n = 7, k = 70;
  const auto at = random_values(k * m, 5);  // A stored (k, m)
  const auto b = random_values(k * n, 6);
  std::vector<float> a(m * k);
  for (std::size_t kk = 0; kk < k; ++kk) {
    for (std::size_t i = 0; i < m; ++i) a[i * k + kk] = at[kk * m + i];
  }
  std::vector<float> expected(m * n), actual(m * n, 0.5f);
  reference_nn(m, n, k, a, b, expected);
  gemm::sgemm_tn(m, n, k, at.data(), m, b.data(), n, /*accumulate=*/true, actual.data(), n);
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i] + 0.5f, 1e-4f * (1.0f + std::fabs(expected[i])));
  }
}

TEST(Gemm, BitIdenticalAcrossPoolSizes) {
  const std::size_t m = 33, n = 29, k = 130;
  const auto a = random_values(m * k, 7);
  const auto b = random_values(k * n, 8);
  std::vector<float> serial(m * n), threaded(m * n);
  gemm::sgemm_nn(m, n, k, a.data(), k, b.data(), n, false, serial.data(), n, nullptr);
  ThreadPool pool(4);
  gemm::sgemm_nn(m, n, k, a.data(), k, b.data(), n, false, threaded.data(), n, &pool);
  EXPECT_EQ(serial, threaded);  // exact: rows partition, fixed ascending-k order
}

// The scalar loops the vectorized kernels replaced, serial and without the
// k-tiling (tiles are walked in ascending order, so tiling never changed an
// element's summation order). Built with vectorization off, so they stay
// scalar at any optimization level: the bit-exact oracle below and the
// reference of the vectorization guard.
#if defined(__GNUC__) && !defined(__clang__)
#define SCALAR_ONLY __attribute__((optimize("no-tree-vectorize")))
#else
#define SCALAR_ONLY
#endif

SCALAR_ONLY void scalar_nn(std::size_t m, std::size_t n, std::size_t k, const float* a,
                           std::size_t lda, const float* b, std::size_t ldb, bool accumulate,
                           float* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    float* c_row = c + i * ldc;
    if (!accumulate) std::fill(c_row, c_row + n, 0.0f);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = a[i * lda + kk];
      const float* b_row = b + kk * ldb;
      for (std::size_t j = 0; j < n; ++j) c_row[j] += aik * b_row[j];
    }
  }
}

SCALAR_ONLY void scalar_nt(std::size_t m, std::size_t n, std::size_t k, const float* a,
                           std::size_t lda, const float* b, std::size_t ldb, bool accumulate,
                           float* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a + i * lda;
    float* c_row = c + i * ldc;
    for (std::size_t j = 0; j < n; ++j) {
      const float* b_row = b + j * ldb;
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      std::size_t kk = 0;
      for (; kk + 4 <= k; kk += 4) {
        acc0 += a_row[kk] * b_row[kk];
        acc1 += a_row[kk + 1] * b_row[kk + 1];
        acc2 += a_row[kk + 2] * b_row[kk + 2];
        acc3 += a_row[kk + 3] * b_row[kk + 3];
      }
      for (; kk < k; ++kk) acc0 += a_row[kk] * b_row[kk];
      const float total = (acc0 + acc1) + (acc2 + acc3);
      c_row[j] = accumulate ? c_row[j] + total : total;
    }
  }
}

SCALAR_ONLY void scalar_tn(std::size_t m, std::size_t n, std::size_t k, const float* a,
                           std::size_t lda, const float* b, std::size_t ldb, bool accumulate,
                           float* c, std::size_t ldc) {
  if (!accumulate) {
    for (std::size_t i = 0; i < m; ++i) std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* a_row = a + kk * lda;
    const float* b_row = b + kk * ldb;
    for (std::size_t i = 0; i < m; ++i) {
      const float aki = a_row[i];
      float* c_row = c + i * ldc;
      for (std::size_t j = 0; j < n; ++j) c_row[j] += aki * b_row[j];
    }
  }
}

using KernelFn = void (*)(std::size_t, std::size_t, std::size_t, const float*, std::size_t,
                          const float*, std::size_t, bool, float*, std::size_t, ThreadPool*);
using ScalarFn = void (*)(std::size_t, std::size_t, std::size_t, const float*, std::size_t,
                          const float*, std::size_t, bool, float*, std::size_t);

struct KernelCase {
  const char* name;
  KernelFn kernel;
  ScalarFn oracle;
  bool a_transposed;  // A stored (k, m) instead of (m, k)
  bool b_transposed;  // B stored (n, k) instead of (k, n)
  std::size_t lanes;  // the kernel set's width
};

using gemm::detail::KernelSet;

KernelCase nn_case(const KernelSet& set) {
  return {"sgemm_nn", set.nn, &scalar_nn, false, false, set.lanes};
}

KernelCase nt_case(const KernelSet& set) {
  return {"sgemm_nt", set.nt, &scalar_nt, false, true, set.lanes};
}

KernelCase tn_case(const KernelSet& set) {
  return {"sgemm_tn", set.tn, &scalar_tn, true, false, set.lanes};
}

constexpr const char* kNoAvx2 = "this host has no AVX2, so the 8-lane kernels cannot run";

/// random_values with about one entry in six an exact 0.0f or -0.0f, as a
/// dead ReLU unit leaves them. A zero operand makes a zero product of either
/// sign, so a tile seeded with its first product instead of C's +0.0f would
/// return -0.0f where the scalar loop's 0.0f + (-0.0f) returns +0.0f.
std::vector<float> values_with_zeros(std::size_t count, std::uint64_t seed) {
  std::vector<float> out = random_values(count, seed);
  Rng rng(seed + 1000);
  for (float& v : out) {
    const std::int64_t pick = rng.uniform_int(0, 11);
    if (pick < 2) v = pick == 0 ? 0.0f : -0.0f;
  }
  return out;
}

/// Every shape, accumulate mode, row padding and pool size must reproduce
/// the scalar loop's bits exactly, including the padding C never owns.
void expect_matches_scalar_bits(const KernelCase& kc) {
  constexpr std::size_t kPad = 3;
  const std::vector<std::size_t> ms{1, 2, 3, 5, 32, 33};
  const std::vector<std::size_t> ns{1,  2,  3,  4,  5,  6,  7,  8,  9,  15,
                                    16, 17, 23, 24, 25, 31, 32, 33, 40, 144};
  const std::vector<std::size_t> ks{1, 2, 3, 4, 5, 6, 7, 8, 9, 32, 144};
  const std::size_t most = (144 + kPad) * 144;
  const auto a_values = values_with_zeros(most, 51);
  const auto b_values = values_with_zeros(most, 52);
  const auto c_values = random_values(most, 53);
  ThreadPool four(4);
  for (std::size_t m : ms) {
    for (std::size_t n : ns) {
      for (std::size_t k : ks) {
        for (bool accumulate : {false, true}) {
          for (std::size_t pad : {std::size_t{0}, kPad}) {
            for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
              const std::size_t lda = (kc.a_transposed ? m : k) + pad;
              const std::size_t ldb = (kc.b_transposed ? k : n) + pad;
              const std::size_t ldc = n + pad;
              std::vector<float> expected(c_values.begin(), c_values.begin() + m * ldc);
              std::vector<float> actual = expected;
              kc.oracle(m, n, k, a_values.data(), lda, b_values.data(), ldb, accumulate,
                        expected.data(), ldc);
              kc.kernel(m, n, k, a_values.data(), lda, b_values.data(), ldb, accumulate,
                        actual.data(), ldc, pool);
              if (std::memcmp(expected.data(), actual.data(), expected.size() * sizeof(float)) !=
                  0) {
                ADD_FAILURE() << kc.name << " at " << kc.lanes
                              << " lanes differs from the scalar loop at m=" << m
                              << " n=" << n << " k=" << k << " accumulate=" << accumulate
                              << " pad=" << pad << " pool=" << (pool == nullptr ? 0 : 4);
                return;
              }
            }
          }
        }
      }
    }
  }
}

TEST(GemmOracle, NnBitIdenticalToScalarLoop) {
  expect_matches_scalar_bits(nn_case(gemm::detail::four_lanes()));
}

TEST(GemmOracle, NtBitIdenticalToScalarLoop) {
  expect_matches_scalar_bits(nt_case(gemm::detail::four_lanes()));
}

TEST(GemmOracle, TnBitIdenticalToScalarLoop) {
  expect_matches_scalar_bits(tn_case(gemm::detail::four_lanes()));
}

TEST(GemmOracle, NnEightLanesBitIdenticalToScalarLoop) {
  if (gemm::detail::eight_lanes() == nullptr) GTEST_SKIP() << kNoAvx2;
  expect_matches_scalar_bits(nn_case(*gemm::detail::eight_lanes()));
}

TEST(GemmOracle, NtEightLanesBitIdenticalToScalarLoop) {
  if (gemm::detail::eight_lanes() == nullptr) GTEST_SKIP() << kNoAvx2;
  expect_matches_scalar_bits(nt_case(*gemm::detail::eight_lanes()));
}

TEST(GemmOracle, TnEightLanesBitIdenticalToScalarLoop) {
  if (gemm::detail::eight_lanes() == nullptr) GTEST_SKIP() << kNoAvx2;
  expect_matches_scalar_bits(tn_case(*gemm::detail::eight_lanes()));
}

// sgemm_* run the 8-lane kernels exactly where the CPU reports AVX2.
TEST(GemmDispatch, EightLanesExactlyWhereTheCpuHasAvx2) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  const bool avx2 = __builtin_cpu_supports("avx2") != 0;
#else
  const bool avx2 = false;
#endif
  const KernelSet& selected = gemm::detail::selected();
  EXPECT_EQ(gemm::detail::eight_lanes() != nullptr, avx2);
  EXPECT_EQ(&selected, avx2 ? gemm::detail::eight_lanes() : &gemm::detail::four_lanes());
  EXPECT_EQ(selected.lanes, avx2 ? 8u : 4u);
  EXPECT_EQ(gemm::detail::four_lanes().lanes, 4u);
}

// ROADMAP 8(a)'s guard: the axpy kernels must run at least twice as fast as
// the same loop with vectorization off. Both sides run in this process, so
// the ratio does not depend on how fast the host is. It times the 4-lane
// kernels, which every host runs; GemmWidth holds the 8-lane ones above them.
TEST(GemmVectorization, AxpyKernelsBeatScalarLoopTwofold) {
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "times kernels: needs an optimized build without sanitizers";
#elif defined(__clang__)
  GTEST_SKIP() << "the scalar reference is only kept scalar by GCC's optimize attribute";
#else
  // The MLP's first layer (144 -> 32, batch 32): dX = dY W is
  // sgemm_nn(32, 144, 32) and dW += dY^T X is sgemm_tn(32, 144, 32).
  constexpr std::size_t kBatch = 32, kOut = 32, kIn = 144;
  constexpr int kRuns = 30, kCallsPerRun = 8;
  const auto dy = random_values(kBatch * kOut, 61);
  const auto rhs = random_values(kOut * kIn, 62);
  for (const KernelCase& kc : {nn_case(gemm::detail::four_lanes()),
                               tn_case(gemm::detail::four_lanes())}) {
    std::vector<float> vectorized(kBatch * kIn), scalar(kBatch * kIn);
    double best_kernel = std::numeric_limits<double>::infinity();
    double best_scalar = best_kernel;
    for (int run = 0; run < kRuns; ++run) {
      Stopwatch watch;
      for (int call = 0; call < kCallsPerRun; ++call) {
        kc.kernel(kBatch, kIn, kOut, dy.data(), kOut, rhs.data(), kIn, false, vectorized.data(),
                  kIn, nullptr);
      }
      best_kernel = std::min(best_kernel, watch.elapsed_seconds());
      watch.reset();
      for (int call = 0; call < kCallsPerRun; ++call) {
        kc.oracle(kBatch, kIn, kOut, dy.data(), kOut, rhs.data(), kIn, false, scalar.data(), kIn);
      }
      best_scalar = std::min(best_scalar, watch.elapsed_seconds());
    }
    EXPECT_EQ(vectorized, scalar) << kc.name;
    EXPECT_GE(best_scalar / best_kernel, 2.0)
        << kc.name << ": " << best_kernel * 1e6 / kCallsPerRun << " us/call vs scalar "
        << best_scalar * 1e6 / kCallsPerRun << " us/call";
  }
#endif
}

// The 8-lane kernels must earn their dispatch. In one process, the five
// calls of one step of train_mlp's MLP (144 -> 32 -> 10, batch 32), summed,
// must run at least 1.25x faster at eight lanes than at four. Each side is
// the minimum over interleaved runs, so the ratio does not depend on how
// fast the host is.
TEST(GemmWidth, EightLanesBeatFourOnMlpStep) {
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "times kernels: needs an optimized build without sanitizers";
#else
  if (gemm::detail::eight_lanes() == nullptr) GTEST_SKIP() << kNoAvx2;
  constexpr std::size_t kBatch = 32, kIn = 144, kHidden = 32, kOut = 10;
  constexpr int kRuns = 40, kStepsPerRun = 10;
  const auto x = random_values(kBatch * kIn, 81);
  const auto w1 = random_values(kHidden * kIn, 82);
  const auto h = random_values(kBatch * kHidden, 83);
  const auto w2 = random_values(kOut * kHidden, 84);
  const auto dy = random_values(kBatch * kOut, 85);
  std::vector<float> y1(kBatch * kHidden), y2(kBatch * kOut), dw1(kHidden * kIn),
      dw2(kOut * kHidden), dh(kBatch * kHidden);
  const auto step = [&](const KernelSet& set) {
    set.nt(kBatch, kHidden, kIn, x.data(), kIn, w1.data(), kIn, false, y1.data(), kHidden,
           nullptr);
    set.nt(kBatch, kOut, kHidden, h.data(), kHidden, w2.data(), kHidden, false, y2.data(), kOut,
           nullptr);
    set.tn(kOut, kHidden, kBatch, dy.data(), kOut, h.data(), kHidden, false, dw2.data(), kHidden,
           nullptr);
    set.nn(kBatch, kHidden, kOut, dy.data(), kOut, w2.data(), kHidden, false, dh.data(), kHidden,
           nullptr);
    set.tn(kHidden, kIn, kBatch, dh.data(), kHidden, x.data(), kIn, false, dw1.data(), kIn,
           nullptr);
  };
  double best[2] = {std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity()};
  const KernelSet* sets[2] = {&gemm::detail::four_lanes(), gemm::detail::eight_lanes()};
  for (int run = 0; run < kRuns; ++run) {
    for (int side = 0; side < 2; ++side) {
      Stopwatch watch;
      for (int s = 0; s < kStepsPerRun; ++s) step(*sets[side]);
      best[side] = std::min(best[side], watch.elapsed_seconds());
    }
  }
  EXPECT_GE(best[0] / best[1], 1.25)
      << "4 lanes " << best[0] * 1e6 / kStepsPerRun << " us/step vs 8 lanes "
      << best[1] * 1e6 / kStepsPerRun << " us/step";
#endif
}

TEST(Gemm, Im2colExtractsPatchesWithZeroPadding) {
  // 1 channel, 3x3 image, 3x3 kernel, pad 1, stride 1 -> out 3x3.
  gemm::ConvGeom geom;
  geom.channels = 1;
  geom.in_h = geom.in_w = 3;
  geom.kernel = 3;
  geom.stride = 1;
  geom.pad = 1;
  geom.out_h = geom.out_w = 3;
  const std::vector<float> image{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> col(geom.patch() * geom.out_area());
  gemm::im2col(image.data(), geom, col.data());
  const auto at = [&](std::size_t row, std::size_t column) {
    return col[row * geom.out_area() + column];
  };
  // Output position (0, 0): kernel center (ky=1, kx=1) reads pixel (0, 0).
  EXPECT_EQ(at(1 * 3 + 1, 0), 1.0f);
  // Top-left kernel tap at output (0, 0) falls on padding.
  EXPECT_EQ(at(0, 0), 0.0f);
  // Output center (1, 1): center tap reads pixel (1, 1) = 5.
  EXPECT_EQ(at(1 * 3 + 1, 4), 5.0f);
  // Output (2, 2): top-left tap reads pixel (1, 1) = 5.
  EXPECT_EQ(at(0, 8), 5.0f);
}

TEST(Gemm, Col2imIsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im_add(y)> for all x, y (adjoint identity).
  gemm::ConvGeom geom;
  geom.channels = 2;
  geom.in_h = 5;
  geom.in_w = 4;
  geom.kernel = 3;
  geom.stride = 2;
  geom.pad = 1;
  geom.out_h = (geom.in_h + 2 * geom.pad - geom.kernel) / geom.stride + 1;
  geom.out_w = (geom.in_w + 2 * geom.pad - geom.kernel) / geom.stride + 1;
  const std::size_t image_size = geom.channels * geom.in_h * geom.in_w;
  const std::size_t col_size = geom.patch() * geom.out_area();
  const auto x = random_values(image_size, 9);
  const auto y = random_values(col_size, 10);

  std::vector<float> col(col_size);
  gemm::im2col(x.data(), geom, col.data());
  std::vector<float> folded(image_size, 0.0f);
  gemm::col2im_add(y.data(), geom, folded.data());

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < col_size; ++i) {
    lhs += static_cast<double>(col[i]) * static_cast<double>(y[i]);
  }
  for (std::size_t i = 0; i < image_size; ++i) {
    rhs += static_cast<double>(x[i]) * static_cast<double>(folded[i]);
  }
  EXPECT_NEAR(lhs, rhs, 1e-3 * (1.0 + std::fabs(lhs)));
}

struct BackendRestorer {
  ~BackendRestorer() { set_kernel_backend(KernelBackend::kGemm); }
};

/// Runs forward + backward through `layer` and returns (output, grad_input,
/// parameter gradients) for backend comparisons.
struct PassResult {
  Tensor output;
  Tensor grad_input;
  std::vector<std::vector<float>> param_grads;
};

PassResult run_pass(Layer& layer, const Tensor& input) {
  PassResult result;
  result.output = layer.forward(input, /*training=*/true);
  Tensor grad(result.output.shape());
  for (std::size_t i = 0; i < grad.size(); ++i) {
    grad[i] = 0.01f * static_cast<float>(i % 7) - 0.02f;
  }
  result.grad_input = layer.backward(grad);
  for (Param* param : layer.parameters()) {
    result.param_grads.emplace_back(param->grad.data(),
                                    param->grad.data() + param->grad.size());
  }
  return result;
}

void expect_near_tensors(const Tensor& a, const Tensor& b, float tolerance) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tolerance * (1.0f + std::fabs(a[i]))) << "index " << i;
  }
}

void compare_conv_backends(std::size_t in_channels, std::size_t out_channels,
                           std::size_t kernel, std::size_t stride, std::size_t pad,
                           std::size_t groups) {
  BackendRestorer restore;
  Rng rng_a(21), rng_b(21);
  Conv2D naive(in_channels, out_channels, kernel, stride, pad, groups, rng_a);
  Conv2D blocked(in_channels, out_channels, kernel, stride, pad, groups, rng_b);
  Tensor input({4, in_channels, 9, 8});
  const auto values = random_values(input.size(), 22);
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = values[i];

  set_kernel_backend(KernelBackend::kNaive);
  const PassResult expected = run_pass(naive, input);
  set_kernel_backend(KernelBackend::kGemm);
  const PassResult actual = run_pass(blocked, input);

  expect_near_tensors(actual.output, expected.output, 1e-4f);
  expect_near_tensors(actual.grad_input, expected.grad_input, 1e-4f);
  ASSERT_EQ(actual.param_grads.size(), expected.param_grads.size());
  for (std::size_t p = 0; p < actual.param_grads.size(); ++p) {
    ASSERT_EQ(actual.param_grads[p].size(), expected.param_grads[p].size());
    for (std::size_t i = 0; i < actual.param_grads[p].size(); ++i) {
      EXPECT_NEAR(actual.param_grads[p][i], expected.param_grads[p][i],
                  1e-4f * (1.0f + std::fabs(expected.param_grads[p][i])));
    }
  }
}

TEST(GemmConv2D, BackendsAgreeStandard) { compare_conv_backends(3, 8, 3, 1, 1, 1); }

TEST(GemmConv2D, BackendsAgreeStrided) { compare_conv_backends(4, 6, 3, 2, 1, 1); }

TEST(GemmConv2D, BackendsAgreeGrouped) { compare_conv_backends(6, 8, 3, 1, 1, 2); }

TEST(GemmConv2D, BackendsAgreeDepthwise) { compare_conv_backends(5, 5, 3, 1, 1, 5); }

TEST(GemmConv2D, BackendsAgree1x1) { compare_conv_backends(4, 7, 1, 1, 0, 1); }

TEST(GemmDense, BackendsAgree) {
  BackendRestorer restore;
  Rng rng_a(31), rng_b(31);
  Dense naive(37, 19, rng_a);
  Dense blocked(37, 19, rng_b);
  Tensor input({8, 37});
  const auto values = random_values(input.size(), 32);
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = values[i];

  set_kernel_backend(KernelBackend::kNaive);
  const PassResult expected = run_pass(naive, input);
  set_kernel_backend(KernelBackend::kGemm);
  const PassResult actual = run_pass(blocked, input);

  expect_near_tensors(actual.output, expected.output, 1e-4f);
  expect_near_tensors(actual.grad_input, expected.grad_input, 1e-4f);
  for (std::size_t p = 0; p < actual.param_grads.size(); ++p) {
    for (std::size_t i = 0; i < actual.param_grads[p].size(); ++i) {
      EXPECT_NEAR(actual.param_grads[p][i], expected.param_grads[p][i],
                  1e-4f * (1.0f + std::fabs(expected.param_grads[p][i])));
    }
  }
}

TEST(GemmConv2D, ForwardBitIdenticalAcrossPoolSizes) {
  Rng rng(41);
  Conv2D conv(4, 8, 3, 1, 1, 1, rng);
  Tensor input({6, 4, 10, 10});
  const auto values = random_values(input.size(), 42);
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = values[i];

  set_global_threads(1);
  const Tensor serial = conv.forward(input, /*training=*/true);
  set_global_threads(4);
  const Tensor threaded = conv.forward(input, /*training=*/true);
  set_global_threads(1);

  ASSERT_EQ(serial.shape(), threaded.shape());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "index " << i;
  }
}

std::vector<float> flat_grads(Net& net) {
  std::vector<float> flat;
  for (Param* param : net.parameters()) {
    flat.insert(flat.end(), param->grad.data(), param->grad.data() + param->grad.size());
  }
  return flat;
}

/// Net::backward skips the input gradient of the first layer with parameters
/// and everything below it; the parameter gradients must still equal, bit for
/// bit, those of full backward() calls through every layer. Runs on a
/// 4-worker pool, so the split halves also run under the TSan suite.
void expect_backward_matches_full_backward(ModelKind kind) {
  BackendRestorer restore;
  set_global_threads(4);
  ModelSpec spec;
  spec.kind = kind;
  spec.seed = 71;
  spec.base_width = 4;
  for (KernelBackend backend : {KernelBackend::kGemm, KernelBackend::kNaive}) {
    set_kernel_backend(backend);
    Net net = build_model(spec);
    Tensor input({9, spec.channels, spec.height, spec.width});  // two gradient chunks
    const auto values = random_values(input.size(), 72);
    for (std::size_t i = 0; i < input.size(); ++i) input[i] = values[i];
    const Tensor logits = net.forward(input, /*training=*/true);
    Tensor grad(logits.shape());
    const auto grad_values = random_values(grad.size(), 73);
    for (std::size_t i = 0; i < grad.size(); ++i) grad[i] = grad_values[i];

    net.zero_grad();
    Tensor layer_grad = grad;
    for (std::size_t i = net.layer_count(); i-- > 0;) {
      layer_grad = net.layer(i).backward(layer_grad);
    }
    const std::vector<float> full = flat_grads(net);
    net.zero_grad();
    net.backward(grad);
    const std::vector<float> skipped = flat_grads(net);

    ASSERT_EQ(full.size(), skipped.size());
    EXPECT_GT(*std::max_element(full.begin(), full.end()), 0.0f);
    EXPECT_EQ(std::memcmp(full.data(), skipped.data(), full.size() * sizeof(float)), 0)
        << model_name(kind) << (backend == KernelBackend::kGemm ? " gemm" : " naive");
  }
  set_global_threads(1);
}

TEST(GemmNet, BackwardSkipsUnreadInputGradientMlp) {
  expect_backward_matches_full_backward(ModelKind::kMlp);
}

TEST(GemmNet, BackwardSkipsUnreadInputGradientAlexNet) {
  expect_backward_matches_full_backward(ModelKind::kAlexNetLite);
}

}  // namespace
}  // namespace tradefl::fl

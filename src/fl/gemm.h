// Register-tiled single-precision GEMM + im2col, the compute backend behind
// Conv2D and Dense. Row-major throughout, no external BLAS.
//
// Determinism contract (what makes threads=1 == threads=N bit-identical):
// every output element C(i, j) is accumulated by exactly one worker, in a
// fixed ascending-k order that depends only on the operand shapes — a tile
// of C stays in registers across the whole k loop and rows are parallelized,
// never the k dimension. The naive seed kernels remain available behind
// set_kernel_backend(kNaive) as the reference for equivalence tests and the
// bench_kernels speedup baseline.
#pragma once

#include <cstddef>

#include "common/parallel.h"

namespace tradefl::fl {

/// Runtime switch between the seed loops (kNaive) and the GEMM path (kGemm)
/// in Conv2D/Dense. Process-wide; flip only between forward/backward passes.
enum class KernelBackend { kNaive, kGemm };
void set_kernel_backend(KernelBackend backend);
[[nodiscard]] KernelBackend kernel_backend();

namespace gemm {

/// C(m, n) = A(m, k) * B(k, n) [+ C when accumulate]. Rows of C are
/// parallelized over `pool` (nullptr = serial); lda/ldb/ldc are row strides.
void sgemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, bool accumulate, float* c, std::size_t ldc,
              ThreadPool* pool = nullptr);

/// C(m, n) = A(m, k) * B(n, k)^T [+ C when accumulate] (B stored row-major
/// (n, k), so each output is a contiguous dot product).
void sgemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, bool accumulate, float* c, std::size_t ldc,
              ThreadPool* pool = nullptr);

/// C(m, n) = A(k, m)^T * B(k, n) [+ C when accumulate] (A stored row-major
/// (k, m); the accumulation kernel of dW += dY^T X).
void sgemm_tn(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, bool accumulate, float* c, std::size_t ldc,
              ThreadPool* pool = nullptr);

/// Geometry of one convolution group on one sample.
struct ConvGeom {
  std::size_t channels = 0;  // input channels in this group
  std::size_t in_h = 0, in_w = 0;
  std::size_t kernel = 0, stride = 1, pad = 0;
  std::size_t out_h = 0, out_w = 0;

  [[nodiscard]] std::size_t patch() const { return channels * kernel * kernel; }
  [[nodiscard]] std::size_t out_area() const { return out_h * out_w; }
};

/// Unfolds one (channels, in_h, in_w) image into a (patch, out_area) matrix:
/// row ((c * kernel + ky) * kernel + kx), column (oy * out_w + ox). Padding
/// positions are written as exact zeros.
void im2col(const float* image, const ConvGeom& geom, float* col);

/// Transpose of im2col as a scatter-add: folds a (patch, out_area) matrix
/// back into the (channels, in_h, in_w) image, accumulating overlaps.
/// `image` must be pre-zeroed (or hold a partial gradient to accumulate into).
void col2im_add(const float* col, const ConvGeom& geom, float* image);

}  // namespace gemm
}  // namespace tradefl::fl

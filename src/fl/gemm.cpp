#include "fl/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "fl/lanes.h"

namespace tradefl::fl {
namespace {

std::atomic<KernelBackend> g_backend{KernelBackend::kGemm};

/// Rows-per-chunk for parallelizing an m-row output: aim for ~4 chunks per
/// worker so static round-robin balances without shrinking chunks to
/// cache-hostile slivers. Serial callers get one chunk.
std::size_t row_grain(std::size_t m, ThreadPool* pool) {
  const std::size_t workers = pool == nullptr ? 1 : pool->size();
  if (workers <= 1 || m == 0) return m == 0 ? 1 : m;
  return std::max<std::size_t>(1, (m + workers * 4 - 1) / (workers * 4));
}

void prepare_rows(float* c, std::size_t ldc, std::size_t lo, std::size_t hi, std::size_t n,
                  bool accumulate) {
  if (accumulate) return;
  for (std::size_t i = lo; i < hi; ++i) std::memset(c + i * ldc, 0, n * sizeof(float));
}

/// c[j] += a * b[j] for j < n: element-wise, so vectorizing changes nothing.
void axpy(std::size_t n, float a, const float* b, float* c) {
  const v4f av = splat(a);
  std::size_t j = 0;
  for (; j + 2 * kLanes <= n; j += 2 * kLanes) {
    store(c + j, load(c + j) + av * load(b + j));
    store(c + j + kLanes, load(c + j + kLanes) + av * load(b + j + kLanes));
  }
  for (; j + kLanes <= n; j += kLanes) store(c + j, load(c + j) + av * load(b + j));
  for (; j < n; ++j) c[j] += a * b[j];
}

/// C rows [lo, hi) += A * B with A(i, kk) = a[i * a_row + kk * a_k] and
/// B(kk, j) = b[kk * ldb + j]: sgemm_nn's and sgemm_tn's shared body. Each
/// element starts from C's current value and adds its k products in
/// ascending order, exactly as one axpy per k would. Row pairs hold a 2 x 16
/// tile of C in eight registers across the whole k loop (loaded once, stored
/// once), then 2 x 4 and 2 x 1 tiles take the leftover columns; an odd last
/// row runs one axpy per k. A tile is never seeded with its first product:
/// 0.0f + (-0.0f) is +0.0f, and a dead ReLU unit makes such columns real.
void axpy_rows(std::size_t lo, std::size_t hi, std::size_t n, std::size_t k, const float* a,
               std::size_t a_row, std::size_t a_k, const float* b, std::size_t ldb, float* c,
               std::size_t ldc) {
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    const float* a0 = a + i * a_row;
    const float* a1 = a0 + a_row;
    float* c0 = c + i * ldc;
    float* c1 = c0 + ldc;
    std::size_t j = 0;
    for (; j + 4 * kLanes <= n; j += 4 * kLanes) {
      v4f x00 = load(c0 + j), x01 = load(c0 + j + 4), x02 = load(c0 + j + 8),
          x03 = load(c0 + j + 12);
      v4f x10 = load(c1 + j), x11 = load(c1 + j + 4), x12 = load(c1 + j + 8),
          x13 = load(c1 + j + 12);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float* b_row = b + kk * ldb + j;
        const v4f b0 = load(b_row), b1 = load(b_row + 4), b2 = load(b_row + 8),
                  b3 = load(b_row + 12);
        const v4f s0 = splat(a0[kk * a_k]);
        const v4f s1 = splat(a1[kk * a_k]);
        x00 += s0 * b0;
        x01 += s0 * b1;
        x02 += s0 * b2;
        x03 += s0 * b3;
        x10 += s1 * b0;
        x11 += s1 * b1;
        x12 += s1 * b2;
        x13 += s1 * b3;
      }
      store(c0 + j, x00);
      store(c0 + j + 4, x01);
      store(c0 + j + 8, x02);
      store(c0 + j + 12, x03);
      store(c1 + j, x10);
      store(c1 + j + 4, x11);
      store(c1 + j + 8, x12);
      store(c1 + j + 12, x13);
    }
    for (; j + kLanes <= n; j += kLanes) {
      v4f x0 = load(c0 + j), x1 = load(c1 + j);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const v4f bv = load(b + kk * ldb + j);
        x0 += splat(a0[kk * a_k]) * bv;
        x1 += splat(a1[kk * a_k]) * bv;
      }
      store(c0 + j, x0);
      store(c1 + j, x1);
    }
    for (; j < n; ++j) {
      float x0 = c0[j], x1 = c1[j];
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float bv = b[kk * ldb + j];
        x0 += a0[kk * a_k] * bv;
        x1 += a1[kk * a_k] * bv;
      }
      c0[j] = x0;
      c1[j] = x1;
    }
  }
  if (i < hi) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      axpy(n, a[i * a_row + kk * a_k], b + kk * ldb, c + i * ldc);
    }
  }
}

/// Folds a four-lane dot product: lane l summed a[kk] * b[kk] over kk = l
/// (mod 4) in ascending order, the k mod 4 tail joins lane 0, and the lanes
/// combine as (l0 + l1) + (l2 + l3) -- a fixed order, so results never depend
/// on the pool size.
float fold(v4f acc, const float* a, const float* b, std::size_t kk, std::size_t k) {
  float lane0 = acc[0];
  for (; kk < k; ++kk) lane0 += a[kk] * b[kk];
  return (lane0 + acc[1]) + (acc[2] + acc[3]);
}

/// One output of sgemm_nt: a four-lane accumulator over the first k_vec
/// products, folded.
float dot(const float* a, const float* b, std::size_t k_vec, std::size_t k) {
  v4f acc = {};
  for (std::size_t kk = 0; kk < k_vec; kk += kLanes) acc += load(a + kk) * load(b + kk);
  return fold(acc, a, b, k_vec, k);
}

void put(float* c, float total, bool accumulate) { *c = accumulate ? *c + total : total; }

}  // namespace

void set_kernel_backend(KernelBackend backend) {
  g_backend.store(backend, std::memory_order_relaxed);
}

KernelBackend kernel_backend() { return g_backend.load(std::memory_order_relaxed); }

namespace gemm {

void sgemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, bool accumulate, float* c, std::size_t ldc,
              ThreadPool* pool) {
  if (m == 0 || n == 0) return;
  parallel_for(pool, 0, m, row_grain(m, pool),
               [&](std::size_t lo, std::size_t hi, std::size_t) {
                 prepare_rows(c, ldc, lo, hi, n, accumulate);
                 axpy_rows(lo, hi, n, k, a, lda, 1, b, ldb, c, ldc);
               });
}

void sgemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, bool accumulate, float* c, std::size_t ldc,
              ThreadPool* pool) {
  if (m == 0 || n == 0) return;
  parallel_for(pool, 0, m, row_grain(m, pool),
               [&](std::size_t lo, std::size_t hi, std::size_t) {
                 // Row pairs compute 2 x 4 outputs per pass: each output keeps
                 // its own four-lane accumulator, and each load of an A or B
                 // row serves four or two of them. Leftover columns and an odd
                 // last row take one dot product per output.
                 const std::size_t k_vec = k - k % kLanes;
                 std::size_t i = lo;
                 for (; i + 2 <= hi; i += 2) {
                   const float* a0 = a + i * lda;
                   const float* a1 = a0 + lda;
                   float* c0 = c + i * ldc;
                   float* c1 = c0 + ldc;
                   std::size_t j = 0;
                   for (; j + 4 <= n; j += 4) {
                     const float* b0 = b + j * ldb;
                     const float* b1 = b0 + ldb;
                     const float* b2 = b1 + ldb;
                     const float* b3 = b2 + ldb;
                     v4f acc00 = {}, acc01 = {}, acc02 = {}, acc03 = {};
                     v4f acc10 = {}, acc11 = {}, acc12 = {}, acc13 = {};
                     for (std::size_t kk = 0; kk < k_vec; kk += kLanes) {
                       const v4f x0 = load(a0 + kk), x1 = load(a1 + kk);
                       const v4f y0 = load(b0 + kk), y1 = load(b1 + kk), y2 = load(b2 + kk),
                                 y3 = load(b3 + kk);
                       acc00 += x0 * y0;
                       acc01 += x0 * y1;
                       acc02 += x0 * y2;
                       acc03 += x0 * y3;
                       acc10 += x1 * y0;
                       acc11 += x1 * y1;
                       acc12 += x1 * y2;
                       acc13 += x1 * y3;
                     }
                     put(c0 + j, fold(acc00, a0, b0, k_vec, k), accumulate);
                     put(c0 + j + 1, fold(acc01, a0, b1, k_vec, k), accumulate);
                     put(c0 + j + 2, fold(acc02, a0, b2, k_vec, k), accumulate);
                     put(c0 + j + 3, fold(acc03, a0, b3, k_vec, k), accumulate);
                     put(c1 + j, fold(acc10, a1, b0, k_vec, k), accumulate);
                     put(c1 + j + 1, fold(acc11, a1, b1, k_vec, k), accumulate);
                     put(c1 + j + 2, fold(acc12, a1, b2, k_vec, k), accumulate);
                     put(c1 + j + 3, fold(acc13, a1, b3, k_vec, k), accumulate);
                   }
                   for (; j < n; ++j) {
                     const float* b_row = b + j * ldb;
                     put(c0 + j, dot(a0, b_row, k_vec, k), accumulate);
                     put(c1 + j, dot(a1, b_row, k_vec, k), accumulate);
                   }
                 }
                 if (i < hi) {
                   const float* a_row = a + i * lda;
                   for (std::size_t j = 0; j < n; ++j) {
                     put(c + i * ldc + j, dot(a_row, b + j * ldb, k_vec, k), accumulate);
                   }
                 }
               });
}

void sgemm_tn(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, bool accumulate, float* c, std::size_t ldc,
              ThreadPool* pool) {
  if (m == 0 || n == 0) return;
  parallel_for(pool, 0, m, row_grain(m, pool),
               [&](std::size_t lo, std::size_t hi, std::size_t) {
                 prepare_rows(c, ldc, lo, hi, n, accumulate);
                 axpy_rows(lo, hi, n, k, a, 1, lda, b, ldb, c, ldc);
               });
}

void im2col(const float* image, const ConvGeom& geom, float* col) {
  const std::size_t plane = geom.in_h * geom.in_w;
  float* out = col;
  for (std::size_t c = 0; c < geom.channels; ++c) {
    const float* channel = image + c * plane;
    for (std::size_t ky = 0; ky < geom.kernel; ++ky) {
      for (std::size_t kx = 0; kx < geom.kernel; ++kx) {
        for (std::size_t oy = 0; oy < geom.out_h; ++oy) {
          const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy * geom.stride + ky) -
                                    static_cast<std::ptrdiff_t>(geom.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(geom.in_h)) {
            for (std::size_t ox = 0; ox < geom.out_w; ++ox) *out++ = 0.0f;
            continue;
          }
          const float* in_row = channel + static_cast<std::size_t>(iy) * geom.in_w;
          for (std::size_t ox = 0; ox < geom.out_w; ++ox) {
            const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox * geom.stride + kx) -
                                      static_cast<std::ptrdiff_t>(geom.pad);
            *out++ = (ix < 0 || ix >= static_cast<std::ptrdiff_t>(geom.in_w))
                         ? 0.0f
                         : in_row[static_cast<std::size_t>(ix)];
          }
        }
      }
    }
  }
}

void col2im_add(const float* col, const ConvGeom& geom, float* image) {
  const std::size_t plane = geom.in_h * geom.in_w;
  const float* in = col;
  for (std::size_t c = 0; c < geom.channels; ++c) {
    float* channel = image + c * plane;
    for (std::size_t ky = 0; ky < geom.kernel; ++ky) {
      for (std::size_t kx = 0; kx < geom.kernel; ++kx) {
        for (std::size_t oy = 0; oy < geom.out_h; ++oy) {
          const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy * geom.stride + ky) -
                                    static_cast<std::ptrdiff_t>(geom.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(geom.in_h)) {
            in += geom.out_w;
            continue;
          }
          float* out_row = channel + static_cast<std::size_t>(iy) * geom.in_w;
          for (std::size_t ox = 0; ox < geom.out_w; ++ox) {
            const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox * geom.stride + kx) -
                                      static_cast<std::ptrdiff_t>(geom.pad);
            if (ix >= 0 && ix < static_cast<std::ptrdiff_t>(geom.in_w)) {
              out_row[static_cast<std::size_t>(ix)] += *in;
            }
            ++in;
          }
        }
      }
    }
  }
}

}  // namespace gemm
}  // namespace tradefl::fl

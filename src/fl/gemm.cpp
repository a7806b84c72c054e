#include "fl/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstring>

namespace tradefl::fl {
namespace {

std::atomic<KernelBackend> g_backend{KernelBackend::kGemm};

// k-dimension tile: small enough that a B tile (kTileK rows) stays in L1/L2
// while a chunk of C rows streams over it. Tiles are walked in ascending
// order, so per-element accumulation order stays the plain ascending-k
// sequence regardless of tiling or chunking.
constexpr std::size_t kTileK = 64;

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

// Four floats in one SSE/NEON register (GCC/Clang vector extension). The
// kernels are written on it directly because GCC's -O2 cost model refuses to
// vectorize the scalar loops, and no level vectorizes a float reduction. Every
// lane op is the same IEEE multiply or add the scalar loop did on the same
// operands, so results stay bit-identical to the scalar kernels.
using v4f = float __attribute__((vector_size(16)));
constexpr std::size_t kLanes = 4;

// memcpy loads/stores assume no alignment and involve no type punning; they
// compile to single unaligned vector moves.
v4f load(const float* p) {
  v4f v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(float* p, v4f v) { std::memcpy(p, &v, sizeof v); }

/// c[j] += a * b[j] for j < n: element-wise, so vectorizing changes nothing.
void axpy(std::size_t n, float a, const float* b, float* c) {
  const v4f av = {a, a, a, a};
  std::size_t j = 0;
  for (; j + 2 * kLanes <= n; j += 2 * kLanes) {
    store(c + j, load(c + j) + av * load(b + j));
    store(c + j + kLanes, load(c + j + kLanes) + av * load(b + j + kLanes));
  }
  for (; j + kLanes <= n; j += kLanes) store(c + j, load(c + j) + av * load(b + j));
  for (; j < n; ++j) c[j] += a * b[j];
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
                 for (std::size_t kb = 0; kb < k; kb += kTileK) {
                   const std::size_t kend = std::min(k, kb + kTileK);
                   for (std::size_t i = lo; i < hi; ++i) {
                     const float* a_row = a + i * lda;
                     float* c_row = c + i * ldc;
                     for (std::size_t kk = kb; kk < kend; ++kk) {
                       axpy(n, a_row[kk], b + kk * ldb, c_row);
                     }
                   }
                 }
               });
}

void sgemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, bool accumulate, float* c, std::size_t ldc,
              ThreadPool* pool) {
  if (m == 0 || n == 0) return;
  parallel_for(pool, 0, m, row_grain(m, pool),
               [&](std::size_t lo, std::size_t hi, std::size_t) {
                 // Four outputs per pass share each load of the A row; each
                 // output keeps its own four-lane accumulator.
                 const std::size_t k_vec = k - k % kLanes;
                 for (std::size_t i = lo; i < hi; ++i) {
                   const float* a_row = a + i * lda;
                   float* c_row = c + i * ldc;
                   std::size_t j = 0;
                   for (; j + 4 <= n; j += 4) {
                     const float* b0 = b + j * ldb;
                     const float* b1 = b0 + ldb;
                     const float* b2 = b1 + ldb;
                     const float* b3 = b2 + ldb;
                     v4f acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {};
                     for (std::size_t kk = 0; kk < k_vec; kk += kLanes) {
                       const v4f av = load(a_row + kk);
                       acc0 += av * load(b0 + kk);
                       acc1 += av * load(b1 + kk);
                       acc2 += av * load(b2 + kk);
                       acc3 += av * load(b3 + kk);
                     }
                     put(c_row + j, fold(acc0, a_row, b0, k_vec, k), accumulate);
                     put(c_row + j + 1, fold(acc1, a_row, b1, k_vec, k), accumulate);
                     put(c_row + j + 2, fold(acc2, a_row, b2, k_vec, k), accumulate);
                     put(c_row + j + 3, fold(acc3, a_row, b3, k_vec, k), accumulate);
                   }
                   for (; j < n; ++j) {
                     const float* b_row = b + j * ldb;
                     v4f acc = {};
                     for (std::size_t kk = 0; kk < k_vec; kk += kLanes) {
                       acc += load(a_row + kk) * load(b_row + kk);
                     }
                     put(c_row + j, fold(acc, a_row, b_row, k_vec, k), accumulate);
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
                 for (std::size_t kk = 0; kk < k; ++kk) {
                   const float* a_row = a + kk * lda;
                   const float* b_row = b + kk * ldb;
                   for (std::size_t i = lo; i < hi; ++i) axpy(n, a_row[i], b_row, c + i * ldc);
                 }
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

#include "fl/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "fl/gemm_kernels.h"
#include "fl/lanes.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TFL_GEMM_AVX2_CANDIDATE 1
#endif

// The kernel bodies are templates on the vector type, instantiated plainly
// for v4f and inside a target("avx2") entry point for v8f. Bodies and helpers
// are always_inline, so no v8f crosses a call (see fl/lanes.h) and the ABI
// change -Wpsabi reports for their v8f instantiations cannot happen. The
// warning comes at the end of the file, so it stays off to the end.
#pragma GCC diagnostic ignored "-Wpsabi"

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

enum class Op { kNn, kNt, kTn };

/// One call's operands, shared by the row chunks.
struct Operands {
  Op op;
  std::size_t n, k;
  const float* a;
  std::size_t lda;
  const float* b;
  std::size_t ldb;
  bool accumulate;
  float* c;
  std::size_t ldc;
};

/// c[j] += a * b[j] for j < n: element-wise, so vectorizing changes nothing.
template <typename V>
[[gnu::always_inline]] inline void axpy(std::size_t n, float a, const float* b, float* c) {
  constexpr std::size_t kL = lanes_of<V>;
  std::size_t j = 0;
  for (; j + 2 * kL <= n; j += 2 * kL) {
    store(c + j, load<V>(c + j) + a * load<V>(b + j));
    store(c + j + kL, load<V>(c + j + kL) + a * load<V>(b + j + kL));
  }
  for (; j + kL <= n; j += kL) store(c + j, load<V>(c + j) + a * load<V>(b + j));
  for (; j < n; ++j) c[j] += a * b[j];
}

/// C rows [lo, hi) += A * B with A(i, kk) = a[i * a_row + kk * a_k] and
/// B(kk, j) = b[kk * ldb + j]: sgemm_nn's and sgemm_tn's shared body. Each
/// element starts from C's current value and adds its k products in
/// ascending order, exactly as one axpy per k would. Row pairs hold a
/// 2 x (4 * lanes) tile of C in eight registers across the whole k loop
/// (loaded once, stored once), then 2 x lanes and 2 x 1 tiles take the
/// leftover columns; an odd last row runs one axpy per k. A tile is never
/// seeded with its first product: 0.0f + (-0.0f) is +0.0f, and a dead ReLU
/// unit makes such columns real.
template <typename V>
[[gnu::always_inline]] inline void axpy_rows(std::size_t lo, std::size_t hi, std::size_t n,
                                             std::size_t k, const float* a, std::size_t a_row,
                                             std::size_t a_k, const float* b, std::size_t ldb,
                                             float* c, std::size_t ldc) {
  constexpr std::size_t kL = lanes_of<V>;
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    const float* a0 = a + i * a_row;
    const float* a1 = a0 + a_row;
    float* c0 = c + i * ldc;
    float* c1 = c0 + ldc;
    std::size_t j = 0;
    for (; j + 4 * kL <= n; j += 4 * kL) {
      V x00 = load<V>(c0 + j), x01 = load<V>(c0 + j + kL), x02 = load<V>(c0 + j + 2 * kL),
        x03 = load<V>(c0 + j + 3 * kL);
      V x10 = load<V>(c1 + j), x11 = load<V>(c1 + j + kL), x12 = load<V>(c1 + j + 2 * kL),
        x13 = load<V>(c1 + j + 3 * kL);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float* b_row = b + kk * ldb + j;
        const V b0 = load<V>(b_row), b1 = load<V>(b_row + kL), b2 = load<V>(b_row + 2 * kL),
                b3 = load<V>(b_row + 3 * kL);
        const float s0 = a0[kk * a_k];
        const float s1 = a1[kk * a_k];
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
      store(c0 + j + kL, x01);
      store(c0 + j + 2 * kL, x02);
      store(c0 + j + 3 * kL, x03);
      store(c1 + j, x10);
      store(c1 + j + kL, x11);
      store(c1 + j + 2 * kL, x12);
      store(c1 + j + 3 * kL, x13);
    }
    for (; j + kL <= n; j += kL) {
      V x0 = load<V>(c0 + j), x1 = load<V>(c1 + j);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const V bv = load<V>(b + kk * ldb + j);
        x0 += a0[kk * a_k] * bv;
        x1 += a1[kk * a_k] * bv;
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
      axpy<V>(n, a[i * a_row + kk * a_k], b + kk * ldb, c + i * ldc);
    }
  }
}

/// Folds a four-lane dot product: lane l summed a[kk] * b[kk] over kk = l
/// (mod 4) in ascending order, the k mod 4 tail joins lane 0, and the lanes
/// combine as (l0 + l1) + (l2 + l3) -- a fixed order, so results never depend
/// on the pool size or the vector width.
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

/// sgemm_nt's register layout: each V holds lanes_of<V> / 4 outputs of one
/// row of C, each in its own four lanes. The four floats of A at `a` fill
/// every four-lane group...
template <typename V>
[[gnu::always_inline]] inline V repeat(const float* a) {
  if constexpr (lanes_of<V> == kLanes) {
    return load(a);
  } else {
    return V{a[0], a[1], a[2], a[3], a[0], a[1], a[2], a[3]};
  }
}

/// ...and group g holds the four floats of B row g, at `b + g * ldb`.
template <typename V>
[[gnu::always_inline]] inline V side_by_side(const float* b, std::size_t ldb) {
  if constexpr (lanes_of<V> == kLanes) {
    return load(b);
  } else {
    return __builtin_shufflevector(load(b), load(b + ldb), 0, 1, 2, 3, 4, 5, 6, 7);
  }
}

/// Adds the k mod 4 tail products to lane 0 of each group of `acc`, in
/// ascending k, as fold does. The other lanes add -0.0f, which leaves every
/// value's bits as they were.
template <typename V>
[[gnu::always_inline]] inline void add_tail(V& acc, const float* a, const float* b,
                                            std::size_t ldb, std::size_t k_vec, std::size_t k) {
  for (std::size_t kk = k_vec; kk < k; ++kk) {
    if constexpr (lanes_of<V> == kLanes) {
      acc += V{a[kk] * b[kk], -0.0f, -0.0f, -0.0f};
    } else {
      acc += V{a[kk] * b[kk], -0.0f, -0.0f, -0.0f, a[kk] * b[ldb + kk], -0.0f, -0.0f, -0.0f};
    }
  }
}

/// The even lanes of x then those of y, and the odd ones.
template <typename V>
[[gnu::always_inline]] inline V evens(const V& x, const V& y) {
  if constexpr (lanes_of<V> == kLanes) {
    return __builtin_shufflevector(x, y, 0, 2, 4, 6);
  } else {
    return __builtin_shufflevector(x, y, 0, 2, 4, 6, 8, 10, 12, 14);
  }
}

template <typename V>
[[gnu::always_inline]] inline V odds(const V& x, const V& y) {
  if constexpr (lanes_of<V> == kLanes) {
    return __builtin_shufflevector(x, y, 1, 3, 5, 7);
  } else {
    return __builtin_shufflevector(x, y, 1, 3, 5, 7, 9, 11, 13, 15);
  }
}

/// The totals of the outputs x0..x3 hold, in order: each group folds as
/// (l0 + l1) + (l2 + l3), fold's order, a whole register at a time.
template <typename V>
[[gnu::always_inline]] inline V fold_four(const V& x0, const V& x1, const V& x2, const V& x3) {
  const V halves01 = evens(x0, x1) + odds(x0, x1);  // l0 + l1, l2 + l3 per group
  const V halves23 = evens(x2, x3) + odds(x2, x3);
  return evens(halves01, halves23) + odds(halves01, halves23);
}

/// Folds the outputs `acc` holds one at a time into C(i, j), C(i, j + 1),
/// ... at `c`; group g dotted A's row `a` with B's row `b + g * ldb`.
template <typename V>
[[gnu::always_inline]] inline void put_groups(float* c, const V& acc, const float* a,
                                              const float* b, std::size_t ldb, std::size_t k_vec,
                                              std::size_t k, bool accumulate) {
  if constexpr (lanes_of<V> == kLanes) {
    put(c, fold(acc, a, b, k_vec, k), accumulate);
  } else {
    put(c, fold(__builtin_shufflevector(acc, acc, 0, 1, 2, 3), a, b, k_vec, k), accumulate);
    put(c + 1, fold(__builtin_shufflevector(acc, acc, 4, 5, 6, 7), a, b + ldb, k_vec, k),
        accumulate);
  }
}

/// One row's 4 * groups outputs of a tile: tails added, folded, written.
template <typename V>
[[gnu::always_inline]] inline void put_row(float* c, V x0, V x1, V x2, V x3, const float* a,
                                           const float* b, std::size_t ldb, std::size_t k_vec,
                                           std::size_t k, bool accumulate) {
  constexpr std::size_t kGroups = lanes_of<V> / kLanes;
  add_tail(x0, a, b, ldb, k_vec, k);
  add_tail(x1, a, b + kGroups * ldb, ldb, k_vec, k);
  add_tail(x2, a, b + 2 * kGroups * ldb, ldb, k_vec, k);
  add_tail(x3, a, b + 3 * kGroups * ldb, ldb, k_vec, k);
  const V totals = fold_four(x0, x1, x2, x3);
  store(c, accumulate ? load<V>(c) + totals : totals);
}

/// C rows [lo, hi) = A * B^T [+ C]: each output is a dot product kept in
/// its own four-lane accumulator (see fold). Row pairs compute
/// 2 x (4 * groups) outputs per pass, where a register holds `groups`
/// outputs: each load of an A row serves four registers, and each load of a
/// B row two. Then 2 x groups passes and single dot products take the
/// leftover columns, and an odd last row takes one dot product per output.
template <typename V>
[[gnu::always_inline]] inline void nt_rows(const Operands& o, std::size_t lo, std::size_t hi) {
  constexpr std::size_t kGroups = lanes_of<V> / kLanes;
  const std::size_t n = o.n, k = o.k, lda = o.lda, ldb = o.ldb, ldc = o.ldc;
  const float* a = o.a;
  const float* b = o.b;
  float* c = o.c;
  const bool accumulate = o.accumulate;
  const std::size_t k_vec = k - k % kLanes;
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    const float* a0 = a + i * lda;
    const float* a1 = a0 + lda;
    float* c0 = c + i * ldc;
    float* c1 = c0 + ldc;
    std::size_t j = 0;
    for (; j + 4 * kGroups <= n; j += 4 * kGroups) {
      const float* b0 = b + j * ldb;
      const float* b1 = b0 + kGroups * ldb;
      const float* b2 = b1 + kGroups * ldb;
      const float* b3 = b2 + kGroups * ldb;
      V acc00 = {}, acc01 = {}, acc02 = {}, acc03 = {};
      V acc10 = {}, acc11 = {}, acc12 = {}, acc13 = {};
      for (std::size_t kk = 0; kk < k_vec; kk += kLanes) {
        const V x0 = repeat<V>(a0 + kk), x1 = repeat<V>(a1 + kk);
        const V y0 = side_by_side<V>(b0 + kk, ldb), y1 = side_by_side<V>(b1 + kk, ldb),
                y2 = side_by_side<V>(b2 + kk, ldb), y3 = side_by_side<V>(b3 + kk, ldb);
        acc00 += x0 * y0;
        acc01 += x0 * y1;
        acc02 += x0 * y2;
        acc03 += x0 * y3;
        acc10 += x1 * y0;
        acc11 += x1 * y1;
        acc12 += x1 * y2;
        acc13 += x1 * y3;
      }
      put_row(c0 + j, acc00, acc01, acc02, acc03, a0, b0, ldb, k_vec, k, accumulate);
      put_row(c1 + j, acc10, acc11, acc12, acc13, a1, b0, ldb, k_vec, k, accumulate);
    }
    for (; j + kGroups <= n; j += kGroups) {
      const float* b_rows = b + j * ldb;
      V acc0 = {}, acc1 = {};
      for (std::size_t kk = 0; kk < k_vec; kk += kLanes) {
        const V y = side_by_side<V>(b_rows + kk, ldb);
        acc0 += repeat<V>(a0 + kk) * y;
        acc1 += repeat<V>(a1 + kk) * y;
      }
      put_groups(c0 + j, acc0, a0, b_rows, ldb, k_vec, k, accumulate);
      put_groups(c1 + j, acc1, a1, b_rows, ldb, k_vec, k, accumulate);
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
}

/// Rows [lo, hi) of one call, on vector type V: the one kernel body.
template <typename V>
[[gnu::always_inline]] inline void gemm_rows(const Operands& o, std::size_t lo,
                                             std::size_t hi) {
  switch (o.op) {
    case Op::kNn:
      prepare_rows(o.c, o.ldc, lo, hi, o.n, o.accumulate);
      axpy_rows<V>(lo, hi, o.n, o.k, o.a, o.lda, 1, o.b, o.ldb, o.c, o.ldc);
      return;
    case Op::kTn:
      prepare_rows(o.c, o.ldc, lo, hi, o.n, o.accumulate);
      axpy_rows<V>(lo, hi, o.n, o.k, o.a, 1, o.lda, o.b, o.ldb, o.c, o.ldc);
      return;
    case Op::kNt:
      nt_rows<V>(o, lo, hi);
      return;
  }
}

using RowsFn = void (*)(const Operands& o, std::size_t lo, std::size_t hi);

void rows_4_lanes(const Operands& o, std::size_t lo, std::size_t hi) {
  gemm_rows<v4f>(o, lo, hi);
}

#ifdef TFL_GEMM_AVX2_CANDIDATE
// "avx2" alone: with "fma" (or any avx512 feature, which implies it) GCC's
// default -ffp-contract=fast fuses acc += x * y into one rounding.
__attribute__((target("avx2"))) void rows_8_lanes(const Operands& o, std::size_t lo,
                                                  std::size_t hi) {
  gemm_rows<v8f>(o, lo, hi);
}
#endif

/// A full kernel call: the rows of C split into chunks over `pool`, each
/// chunk through `Rows`.
template <RowsFn Rows, Op kOp>
void run(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
         const float* b, std::size_t ldb, bool accumulate, float* c, std::size_t ldc,
         ThreadPool* pool) {
  if (m == 0 || n == 0) return;
  const Operands ops{kOp, n, k, a, lda, b, ldb, accumulate, c, ldc};
  parallel_for(pool, 0, m, row_grain(m, pool),
               [&ops](std::size_t lo, std::size_t hi, std::size_t) { Rows(ops, lo, hi); });
}

template <typename V, RowsFn Rows>
constexpr gemm::detail::KernelSet kernel_set() {
  return {lanes_of<V>, &run<Rows, Op::kNn>, &run<Rows, Op::kNt>, &run<Rows, Op::kTn>};
}

constexpr gemm::detail::KernelSet kFourLanes = kernel_set<v4f, &rows_4_lanes>();
#ifdef TFL_GEMM_AVX2_CANDIDATE
constexpr gemm::detail::KernelSet kEightLanes = kernel_set<v8f, &rows_8_lanes>();
#endif

}  // namespace

void set_kernel_backend(KernelBackend backend) {
  g_backend.store(backend, std::memory_order_relaxed);
}

KernelBackend kernel_backend() { return g_backend.load(std::memory_order_relaxed); }

namespace gemm {
namespace detail {

const KernelSet& four_lanes() { return kFourLanes; }

const KernelSet* eight_lanes() {
#ifdef TFL_GEMM_AVX2_CANDIDATE
  // Probed once; the answer only picks between two bit-identical kernel sets.
  static const bool has_avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has_avx2 ? &kEightLanes : nullptr;
#else
  return nullptr;
#endif
}

const KernelSet& selected() {
  static const KernelSet& kernels = eight_lanes() != nullptr ? *eight_lanes() : four_lanes();
  return kernels;
}

}  // namespace detail

void sgemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, bool accumulate, float* c, std::size_t ldc,
              ThreadPool* pool) {
  detail::selected().nn(m, n, k, a, lda, b, ldb, accumulate, c, ldc, pool);
}

void sgemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, bool accumulate, float* c, std::size_t ldc,
              ThreadPool* pool) {
  detail::selected().nt(m, n, k, a, lda, b, ldb, accumulate, c, ldc, pool);
}

void sgemm_tn(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, bool accumulate, float* c, std::size_t ldc,
              ThreadPool* pool) {
  detail::selected().tn(m, n, k, a, lda, b, ldb, accumulate, c, ldc, pool);
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

// Four or eight floats in one vector register (GCC/Clang vector extension),
// the types the fl kernels and element-wise loops are written on. They are
// written on them directly because GCC's -O2 cost model refuses to vectorize
// their scalar loops (ReLU's branch included), and no level vectorizes a
// float reduction. Every lane op is the same IEEE operation the scalar loop
// did on the same operands, so results stay bit-identical to the scalar
// loops.
#pragma once

#include <cstddef>
#include <cstring>

namespace tradefl::fl {

/// One SSE/NEON register: what every x86-64 and AArch64 host can run.
using v4f = float __attribute__((vector_size(16)));
constexpr std::size_t kLanes = 4;

/// One AVX register. Only the GEMM kernels use it, and only inside their
/// target("avx2") entry points (fl/gemm.cpp); outside such a function GCC
/// would split every operation into two four-lane halves.
using v8f = float __attribute__((vector_size(32)));

template <typename V>
constexpr std::size_t lanes_of = sizeof(V) / sizeof(float);

// The helpers are always_inline, so a v8f never crosses a call, even at -O0:
// a v8f return from a function built without AVX would use a different ABI
// than its target("avx2") caller expects, which is what -Wpsabi warns of
// when these templates are instantiated for v8f.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

// memcpy loads/stores assume no alignment and involve no type punning; they
// compile to single unaligned vector moves.
template <typename V = v4f>
[[gnu::always_inline]] inline V load(const float* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename V>
[[gnu::always_inline]] inline void store(float* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

#pragma GCC diagnostic pop

inline v4f splat(float x) { return v4f{x, x, x, x}; }

}  // namespace tradefl::fl

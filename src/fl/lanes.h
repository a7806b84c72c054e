// Four floats in one SSE/NEON register (GCC/Clang vector extension), the
// type the fl kernels and element-wise loops are written on. They are written
// on it directly because GCC's -O2 cost model refuses to vectorize their
// scalar loops (ReLU's branch included), and no level vectorizes a float
// reduction. Every lane op is the same IEEE operation the scalar loop did on
// the same operands, so results stay bit-identical to the scalar loops.
#pragma once

#include <cstddef>
#include <cstring>

namespace tradefl::fl {

using v4f = float __attribute__((vector_size(16)));
constexpr std::size_t kLanes = 4;

// memcpy loads/stores assume no alignment and involve no type punning; they
// compile to single unaligned vector moves.
inline v4f load(const float* p) {
  v4f v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store(float* p, v4f v) { std::memcpy(p, &v, sizeof v); }

inline v4f splat(float x) { return v4f{x, x, x, x}; }

}  // namespace tradefl::fl

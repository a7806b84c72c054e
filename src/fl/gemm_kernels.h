// The GEMM kernels at each vector width, private to the fl library, its tests
// and bench_kernels. fl/gemm.h's sgemm_* run selected(); the oracle tests and
// the kernel bench reach each width here, never through a runtime switch.
#pragma once

#include <cstddef>

#include "common/parallel.h"

namespace tradefl::fl::gemm::detail {

/// sgemm_nn/nt/tn's signature (fl/gemm.h).
using GemmFn = void (*)(std::size_t m, std::size_t n, std::size_t k, const float* a,
                        std::size_t lda, const float* b, std::size_t ldb, bool accumulate,
                        float* c, std::size_t ldc, ThreadPool* pool);

/// The three kernels built on one vector width. Every width runs the same
/// float operations on the same operands in the same order, so their outputs
/// are bit-identical.
struct KernelSet {
  std::size_t lanes;  // floats per vector register
  GemmFn nn;
  GemmFn nt;
  GemmFn tn;
};

/// Four lanes (SSE2 on x86-64, NEON on AArch64): every host runs them.
[[nodiscard]] const KernelSet& four_lanes();

/// Eight lanes, built for AVX2 (without FMA); nullptr on a host without AVX2
/// and in builds for other architectures.
[[nodiscard]] const KernelSet* eight_lanes();

/// What sgemm_* run: eight_lanes() where the host has AVX2, else
/// four_lanes(). Picked once per process.
[[nodiscard]] const KernelSet& selected();

}  // namespace tradefl::fl::gemm::detail

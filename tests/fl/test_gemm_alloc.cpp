// A serial GEMM call must not touch the heap: an MLP step makes five of them
// and a Conv2D pass one per sample and group. This suite is an executable of
// its own because it replaces the global operator new with a counting one.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "fl/gemm.h"
#include "fl/gemm_kernels.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tradefl::fl {
namespace {

using gemm::detail::GemmFn;

/// Heap allocations made by one serial call of `kernel` at an MLP shape
/// (m = n = 32, k = 144; every operand fits the largest stride).
std::size_t allocations_of(GemmFn kernel) {
  constexpr std::size_t kSide = 32, kDepth = 144;
  std::vector<float> a(kDepth * kDepth, 0.5f), b(kDepth * kDepth, -0.25f),
      c(kDepth * kDepth, 1.0f);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  kernel(kSide, kSide, kDepth, a.data(), kDepth, b.data(), kDepth, /*accumulate=*/true, c.data(),
         kDepth, /*pool=*/nullptr);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// Without this, a replacement that never took effect would pass the test below.
TEST(GemmAllocation, CountingOperatorNewSeesAllocations) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  void* volatile block = ::operator new(64);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 1u);
  ::operator delete(block);
}

TEST(GemmAllocation, SerialKernelsAllocateNothing) {
  EXPECT_EQ(allocations_of(&gemm::sgemm_nn), 0u);
  EXPECT_EQ(allocations_of(&gemm::sgemm_nt), 0u);
  EXPECT_EQ(allocations_of(&gemm::sgemm_tn), 0u);
}

TEST(GemmAllocation, SerialKernelsAllocateNothingAtEitherWidth) {
  std::vector<const gemm::detail::KernelSet*> sets{&gemm::detail::four_lanes()};
  if (gemm::detail::eight_lanes() != nullptr) sets.push_back(gemm::detail::eight_lanes());
  for (const gemm::detail::KernelSet* set : sets) {
    EXPECT_EQ(allocations_of(set->nn), 0u) << set->lanes << " lanes";
    EXPECT_EQ(allocations_of(set->nt), 0u) << set->lanes << " lanes";
    EXPECT_EQ(allocations_of(set->tn), 0u) << set->lanes << " lanes";
  }
}

}  // namespace
}  // namespace tradefl::fl

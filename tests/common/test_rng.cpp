#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace tradefl {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double draw = rng.uniform01();
    EXPECT_GE(draw, 0.0);
    EXPECT_LT(draw, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(11);
  double total = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) total += rng.uniform01();
  EXPECT_NEAR(total / n, 0.5, 0.01);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double draw = rng.uniform(-2.5, 7.5);
    EXPECT_GE(draw, -2.5);
    EXPECT_LT(draw, 7.5);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t draw = rng.uniform_int(-3, 3);
    EXPECT_GE(draw, -3);
    EXPECT_LE(draw, 3);
    seen.insert(draw);
  }
  EXPECT_EQ(seen.size(), 7u);  // all seven values hit
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double draw = rng.normal();
    sum += draw;
    sum_sq += draw * draw;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaleAndShift) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, TruncatedNormalStaysInBounds) {
  Rng rng(19);
  for (int i = 0; i < 5000; ++i) {
    const double draw = rng.truncated_normal(0.05, 0.01, 0.0, 1.0);
    EXPECT_GE(draw, 0.0);
    EXPECT_LE(draw, 1.0);
  }
}

TEST(Rng, TruncatedNormalTightBoundsClamped) {
  Rng rng(23);
  // Mean far outside [0, 0.001]: rejection fails, must clamp into range.
  const double draw = rng.truncated_normal(100.0, 0.1, 0.0, 0.001);
  EXPECT_GE(draw, 0.0);
  EXPECT_LE(draw, 0.001);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(31);
  const auto perm = rng.permutation(100);
  std::set<std::size_t> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), 100u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 99u);
}

TEST(Rng, PermutationEmpty) {
  Rng rng(31);
  EXPECT_TRUE(rng.permutation(0).empty());
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(37);
  Rng child = parent.split();
  // Child stream should not mirror the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ShuffleMatchesPermutationGather) {
  // shuffle(items) must reorder exactly as gathering through permutation(n)
  // from the same generator state: it is the allocation-free equivalent.
  std::vector<std::size_t> items{10, 11, 12, 13, 14, 15, 16, 17, 18};
  Rng a(91), b(91);
  std::vector<std::size_t> shuffled = items;
  a.shuffle(shuffled);
  const std::vector<std::size_t> perm = b.permutation(items.size());
  std::vector<std::size_t> gathered(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) gathered[i] = items[perm[i]];
  EXPECT_EQ(shuffled, gathered);
}

TEST(Rng, DeriveStreamSeedIsStateless) {
  const std::uint64_t base = 12345;
  const std::uint64_t seed3 = Rng::derive_stream_seed(base, 3);
  // Same inputs, same seed — no hidden generator state involved.
  EXPECT_EQ(seed3, Rng::derive_stream_seed(base, 3));
  // Distinct streams and distinct bases diverge.
  EXPECT_NE(seed3, Rng::derive_stream_seed(base, 4));
  EXPECT_NE(seed3, Rng::derive_stream_seed(base + 1, 3));
  // Consecutive stream ids yield uncorrelated generators.
  Rng s0(Rng::derive_stream_seed(base, 0));
  Rng s1(Rng::derive_stream_seed(base, 1));
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (s0.next_u64() == s1.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, StateRestoreRoundTripsAllFourWords) {
  Rng rng(2024);
  for (int i = 0; i < 37; ++i) (void)rng.next_u64();  // advance off the seed
  const Rng::State state = rng.state();

  Rng restored(1);  // deliberately different seed — restore must overwrite it
  restored.restore(state);
  EXPECT_EQ(restored.state(), state);
  EXPECT_EQ(restored.state(), rng.state());
}

TEST(Rng, RestoredGeneratorContinuesIdentically) {
  // The checkpoint contract: capture state mid-stream, keep drawing from the
  // original, then restore into a fresh generator — both must produce the
  // exact same continuation across every draw type.
  Rng original(777);
  for (int i = 0; i < 11; ++i) (void)original.uniform01();
  const Rng::State state = original.state();

  Rng resumed(0);
  resumed.restore(state);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(original.next_u64(), resumed.next_u64()) << "draw " << i;
  }
  EXPECT_EQ(original.uniform01(), resumed.uniform01());

  std::vector<std::size_t> a{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<std::size_t> b = a;
  original.shuffle(a);
  resumed.shuffle(b);
  EXPECT_EQ(a, b);
}

TEST(Rng, RestoreClearsBoxMullerCache) {
  // normal() caches the second Box–Muller draw. restore() must drop that
  // cache: the four state words alone define the continuation. If the cache
  // survived, the first normal() after restore would return the stale value
  // without advancing the state, desynchronizing the streams immediately.
  Rng rng(99);
  (void)rng.normal();  // leaves a cached second normal behind
  const Rng::State state = rng.state();
  rng.restore(state);  // self-restore must clear the cache

  Rng resumed(0);
  resumed.restore(state);  // fresh generator, trivially cache-free
  for (int i = 0; i < 8; ++i) EXPECT_EQ(rng.normal(), resumed.normal()) << "draw " << i;
}

TEST(Rng, SkipNormalsAdvancesLikeNormalCalls) {
  // Dataset generation skips an unstored image with skip_normals, so it must
  // leave the generator exactly where `count` normal() calls would: the same
  // state words and the same Box–Muller cache. State {1, 0, 0, 0} makes the
  // first raw draw 0, so u1 = 0 and the rejection path runs too.
  Rng zero_first(0);
  zero_first.restore({1, 0, 0, 0});
  for (const Rng& start : {Rng(4242), zero_first}) {
    for (bool cached : {false, true}) {
      for (std::size_t count = 0; count <= 7; ++count) {
        Rng drawn = start;
        Rng skipped = start;
        if (cached) {
          static_cast<void>(drawn.normal());
          static_cast<void>(skipped.normal());
        }
        for (std::size_t i = 0; i < count; ++i) static_cast<void>(drawn.normal());
        skipped.skip_normals(count);
        EXPECT_EQ(drawn.state(), skipped.state()) << "count " << count << " cached " << cached;
        EXPECT_EQ(drawn.normal(), skipped.normal()) << "count " << count << " cached " << cached;
        EXPECT_EQ(drawn.state(), skipped.state()) << "count " << count << " cached " << cached;
      }
    }
  }
}

}  // namespace
}  // namespace tradefl

#include "common/rng.h"

#include <cmath>

namespace tradefl {
namespace {

// SplitMix64: used only to expand the seed into the xoshiro state.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // A fully zero state would be a fixed point; splitmix64 cannot emit four
  // zeros for any seed, but guard anyway.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform01() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = (~0ULL) - (~0ULL) % span;
  std::uint64_t draw = next_u64();
  while (draw >= limit) draw = next_u64();
  return lo + static_cast<std::int64_t>(draw % span);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller.
  double u1 = uniform01();
  while (u1 <= 0.0) u1 = uniform01();
  const double u2 = uniform01();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(theta);
  has_cached_normal_ = true;
  return radius * std::cos(theta);
}

void Rng::skip_normals(std::size_t count) {
  if (count == 0) return;
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    --count;
  }
  // Each full pair is normal()'s two uniform draws: u1 redrawn while it is
  // zero (the top 53 bits of the raw draw), then u2.
  for (std::size_t pair = 0; pair < count / 2; ++pair) {
    while ((next_u64() >> 11) == 0) {
    }
    static_cast<void>(next_u64());
  }
  if (count % 2 == 1) static_cast<void>(normal());
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::truncated_normal(double mean, double stddev, double lo, double hi) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const double draw = normal(mean, stddev);
    if (draw >= lo && draw <= hi) return draw;
  }
  const double clamped = normal(mean, stddev);
  return clamped < lo ? lo : (clamped > hi ? hi : clamped);
}

bool Rng::bernoulli(double p) { return uniform01() < p; }

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) indices[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j =
        static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(indices[i - 1], indices[j]);
  }
  return indices;
}

void Rng::shuffle(std::vector<std::size_t>& items) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const std::size_t j =
        static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(items[i - 1], items[j]);
  }
}

Rng Rng::split() {
  return Rng(next_u64() ^ 0xD2B74407B1CE6E93ULL);
}

void Rng::restore(const State& state) {
  state_ = state;
  has_cached_normal_ = false;
  cached_normal_ = 0.0;
}

std::uint64_t Rng::derive_stream_seed(std::uint64_t base_seed, std::uint64_t stream_id) {
  // Two splitmix64 steps keyed by (base, stream): the first decorrelates the
  // base seed, the second folds in the stream id, so neighbouring stream ids
  // (client 0, 1, 2, ...) land far apart in seed space.
  std::uint64_t x = base_seed;
  std::uint64_t mixed = splitmix64(x);
  x = mixed ^ (stream_id * 0x9E3779B97F4A7C15ULL + 0xD2B74407B1CE6E93ULL);
  return splitmix64(x);
}

}  // namespace tradefl

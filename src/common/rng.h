// Deterministic pseudo-random number generation for reproducible experiments.
// Implements xoshiro256** (public-domain algorithm by Blackman & Vigna) plus
// the distribution helpers the experiment configs need. All simulations in
// this repo are seeded, so every figure regenerates bit-identically.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace tradefl {

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator so it can be
/// plugged into <random> distributions as well, though we mostly use the
/// built-in helpers for exact cross-platform determinism.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit value.
  std::uint64_t next_u64();
  result_type operator()() { return next_u64(); }

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box–Muller (deterministic, no <random> state).
  double normal();

  /// Normal with the given mean / standard deviation.
  double normal(double mean, double stddev);

  /// Advances the generator exactly as `count` calls to normal() would,
  /// Box–Muller cache included, but evaluates the transform (log, sqrt,
  /// sin/cos) only for a final odd draw, whose cached half the next normal()
  /// returns. A skipped pair costs two raw draws.
  void skip_normals(std::size_t count);

  /// Normal truncated to [lo, hi] by rejection (falls back to clamping after
  /// 64 rejected draws to stay total).
  double truncated_normal(double mean, double stddev, double lo, double hi);

  /// Bernoulli draw with success probability p.
  bool bernoulli(double p);

  /// Fisher–Yates shuffle of indices [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// In-place Fisher–Yates shuffle of an existing index vector (the
  /// allocation-free counterpart of permutation()).
  void shuffle(std::vector<std::size_t>& items);

  /// Splits off an independently seeded child stream; used to give each
  /// organization / client its own stream without coupling draw order.
  Rng split();

  /// The 4×u64 xoshiro256** state words, for checkpointing. restore() makes
  /// the generator continue exactly where state() was captured — including
  /// clearing the Box–Muller cache, so the first post-restore draw matches a
  /// generator that never cached (normal() callers that need mid-pair
  /// fidelity should capture state *between* pairs; every checkpoint in this
  /// repo does).
  using State = std::array<std::uint64_t, 4>;
  [[nodiscard]] State state() const { return state_; }
  void restore(const State& state);

  /// Derives a child seed for stream `stream_id` of `base_seed`, statelessly:
  /// unlike split(), the result does not depend on how many draws the parent
  /// has made. This is how parallel FedAvg gives client c its own shuffle
  /// stream (derive_stream_seed(shuffle_seed, c)) so the schedule of every
  /// client is independent of thread interleaving and client count.
  static std::uint64_t derive_stream_seed(std::uint64_t base_seed, std::uint64_t stream_id);

 private:
  std::array<std::uint64_t, 4> state_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace tradefl

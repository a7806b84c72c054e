// Deterministic fixed-point arithmetic for on-chain math. Smart contracts
// cannot use floating point (consensus requires bit-identical evaluation on
// every node), so the TradeFL contract computes the redistribution r_{i,j}
// (Eq. 9) in Fixed values: int64 raw units at 1e-9 resolution ("gwei-like").
// All operations are overflow-checked and throw std::overflow_error.
#pragma once

#include <cstdint>
#include <string>

namespace tradefl::chain {

class Fixed {
 public:
  static constexpr std::int64_t kScale = 1'000'000'000;  // 1e9 raw units per 1.0

  constexpr Fixed() = default;

  /// From raw units (no scaling).
  [[nodiscard]] static Fixed from_raw(std::int64_t raw);

  /// From a double, rounded to the nearest raw unit. Throws on overflow/NaN.
  [[nodiscard]] static Fixed from_double(double value);

  /// From an integer number of whole units.
  [[nodiscard]] static Fixed from_int(std::int64_t whole);

  [[nodiscard]] std::int64_t raw() const { return raw_; }
  [[nodiscard]] double to_double() const;
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] Fixed operator+(Fixed other) const;
  [[nodiscard]] Fixed operator-(Fixed other) const;
  [[nodiscard]] Fixed operator-() const;

  /// Full-width multiply: (a * b) / scale via 128-bit intermediate.
  [[nodiscard]] Fixed operator*(Fixed other) const;

  /// (a * scale) / b via 128-bit intermediate; throws on divide-by-zero.
  [[nodiscard]] Fixed operator/(Fixed other) const;

  auto operator<=>(const Fixed&) const = default;

  /// Persisted as its raw units (common/snapshot.h).
  template <class Ar>
  friend void fields(Ar& ar, Fixed& value) {
    ar(value.raw_);
  }

 private:
  explicit constexpr Fixed(std::int64_t raw) : raw_(raw) {}
  std::int64_t raw_ = 0;
};

}  // namespace tradefl::chain

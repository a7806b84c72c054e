#include "chain/fixed_point.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace tradefl::chain {
namespace {

std::int64_t checked_add(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) throw std::overflow_error("fixed: add overflow");
  return out;
}

std::int64_t narrow(__int128 value, const char* what) {
  if (value > std::numeric_limits<std::int64_t>::max() ||
      value < std::numeric_limits<std::int64_t>::min()) {
    throw std::overflow_error(what);
  }
  return static_cast<std::int64_t>(value);
}

}  // namespace

Fixed Fixed::from_raw(std::int64_t raw) { return Fixed(raw); }

Fixed Fixed::from_double(double value) {
  if (!std::isfinite(value)) throw std::overflow_error("fixed: non-finite double");
  const double scaled = value * static_cast<double>(kScale);
  if (scaled >= 9.2e18 || scaled <= -9.2e18) throw std::overflow_error("fixed: double overflow");
  return Fixed(static_cast<std::int64_t>(std::llround(scaled)));
}

Fixed Fixed::from_int(std::int64_t whole) {
  __int128 raw = static_cast<__int128>(whole) * kScale;
  return Fixed(narrow(raw, "fixed: int overflow"));
}

double Fixed::to_double() const {
  return static_cast<double>(raw_) / static_cast<double>(kScale);
}

std::string Fixed::to_string() const {
  const bool negative = raw_ < 0;
  // Avoid overflow on INT64_MIN by widening before negation.
  __int128 magnitude = raw_;
  if (negative) magnitude = -magnitude;
  const std::int64_t whole = static_cast<std::int64_t>(magnitude / kScale);
  const std::int64_t frac = static_cast<std::int64_t>(magnitude % kScale);
  std::string frac_digits = std::to_string(frac);
  frac_digits.insert(frac_digits.begin(), 9 - frac_digits.size(), '0');
  while (frac_digits.size() > 1 && frac_digits.back() == '0') frac_digits.pop_back();
  // Appended piece by piece: GCC 12 at -O3 inlines the operator+ chain and
  // reports a false -Wrestrict overlap inside libstdc++.
  std::string text = negative ? "-" : "";
  text.append(std::to_string(whole)).append(".").append(frac_digits);
  return text;
}

Fixed Fixed::operator+(Fixed other) const { return Fixed(checked_add(raw_, other.raw_)); }

Fixed Fixed::operator-(Fixed other) const {
  std::int64_t out = 0;
  if (__builtin_sub_overflow(raw_, other.raw_, &out)) {
    throw std::overflow_error("fixed: sub overflow");
  }
  return Fixed(out);
}

Fixed Fixed::operator-() const {
  if (raw_ == std::numeric_limits<std::int64_t>::min()) {
    throw std::overflow_error("fixed: negate overflow");
  }
  return Fixed(-raw_);
}

Fixed Fixed::operator*(Fixed other) const {
  const __int128 wide = static_cast<__int128>(raw_) * other.raw_;
  return Fixed(narrow(wide / kScale, "fixed: mul overflow"));
}

Fixed Fixed::operator/(Fixed other) const {
  if (other.raw_ == 0) throw std::domain_error("fixed: divide by zero");
  const __int128 wide = static_cast<__int128>(raw_) * kScale;
  return Fixed(narrow(wide / other.raw_, "fixed: div overflow"));
}

}  // namespace tradefl::chain

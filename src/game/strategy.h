// Strategy types of the coopetition game (Sec. IV-A): each organization
// picks π_i = {d_i, f_i} — a continuous data fraction and a discrete CPU
// frequency level.
#pragma once

#include <vector>

#include "common/types.h"

namespace tradefl::game {

struct Strategy {
  /// d_i ∈ [D_min, 1] — fraction of the local dataset contributed.
  double data_fraction = 0.0;

  /// Index into Organization::freq_levels selecting f_i.
  std::size_t freq_index = 0;

  friend bool operator==(const Strategy&, const Strategy&) = default;
};

/// Persisted field list (common/snapshot.h).
template <class Ar>
void fields(Ar& ar, Strategy& strategy) {
  ar(strategy.data_fraction, strategy.freq_index);
}

/// One strategy per organization (π in the paper).
using StrategyProfile = std::vector<Strategy>;

/// Largest |d_i - d_i'| + (freq changed ? 1 : 0)-style distance used by the
/// best-response loop to detect convergence.
inline double strategy_distance(const StrategyProfile& a, const StrategyProfile& b) {
  double worst = a.size() == b.size() ? 0.0 : 1e300;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const double d_gap = a[i].data_fraction > b[i].data_fraction
                             ? a[i].data_fraction - b[i].data_fraction
                             : b[i].data_fraction - a[i].data_fraction;
    const double f_gap = a[i].freq_index == b[i].freq_index ? 0.0 : 1.0;
    const double gap = d_gap + f_gap;
    if (gap > worst) worst = gap;
  }
  return worst;
}

}  // namespace tradefl::game

// Shared result/trace types for the equilibrium-seeking algorithms (CGBD,
// DBR, and the Sec. VI baselines). Traces back the figures: Fig. 4 plots the
// potential per iteration, Fig. 5 the per-organization payoffs per iteration.
#pragma once

#include <string>
#include <vector>

#include "game/strategy.h"

namespace tradefl::core {

/// Snapshot taken after each algorithm iteration.
struct IterationRecord {
  int iteration = 0;
  double potential = 0.0;        // exact weighted potential U(π)
  double paper_potential = 0.0;  // Eq. (15) literal form
  double welfare = 0.0;          // Σ_i C_i
  std::vector<double> payoffs;   // C_i per organization
  game::StrategyProfile profile;
};

/// Persisted field lists (common/snapshot.h); the CGBD and session
/// checkpoints embed them.
template <class Ar>
void fields(Ar& ar, IterationRecord& record) {
  ar(record.iteration, record.potential, record.paper_potential, record.welfare, record.payoffs,
     record.profile);
}

/// Final solution of a scheme run.
struct Solution {
  game::StrategyProfile profile;
  std::vector<IterationRecord> trace;
  bool converged = false;
  int iterations = 0;
  double solve_seconds = 0.0;

  /// Extra per-algorithm diagnostics (e.g. CGBD bound gap), keyed by name.
  std::vector<std::pair<std::string, double>> diagnostics;

  [[nodiscard]] double diagnostic(const std::string& key, double fallback = 0.0) const {
    for (const auto& [name, value] : diagnostics) {
      if (name == key) return value;
    }
    return fallback;
  }
};

template <class Ar>
void fields(Ar& ar, Solution& solution) {
  ar(solution.profile, solution.trace, solution.converged, solution.iterations,
     solution.solve_seconds, solution.diagnostics);
}

}  // namespace tradefl::core

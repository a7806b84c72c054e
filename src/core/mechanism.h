// TradeFL mechanism facade (Sec. III-E, Theorem 2). Runs a scheme on a
// coopetition game, extracts the equilibrium contribution profile
// {d*, f*} and the pairwise redistribution plan r*_{i,j} that the smart
// contract will settle, and verifies the mechanism properties:
// individual rationality, budget balance, and computational efficiency.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/snapshot.h"
#include "core/baselines.h"
#include "core/cgbd.h"
#include "core/dbr.h"
#include "core/solution.h"
#include "game/game.h"

namespace tradefl::core {

enum class Scheme { kCgbd, kDbr, kWpr, kGca, kFip, kTos };

/// Human-readable scheme name ("CGBD", "DBR", ...).
const char* scheme_name(Scheme scheme);

/// All schemes in the order the paper's figures list them.
std::vector<Scheme> all_schemes();

struct SchemeOptions {
  CgbdOptions cgbd{};
  DbrOptions dbr{};
  GcaOptions gca{};
  FipOptions fip{};
};

/// Equilibrium outcome plus the economic summary the figures report.
struct MechanismResult {
  Scheme scheme = Scheme::kDbr;
  Solution solution;

  double welfare = 0.0;            // Σ_i C_i at the final profile
  double potential = 0.0;          // exact weighted potential
  double paper_potential = 0.0;    // Eq. (15) literal
  double total_damage = 0.0;       // Σ_i D_i (Fig. 9)
  double total_data_fraction = 0.0;  // Σ_i d_i (Fig. 12)
  double performance = 0.0;        // P(Ω) of the global model
  std::vector<double> payoffs;     // C_i per organization

  /// r*_{i,j} — the redistribution settlement matrix handed to the smart
  /// contract (row i = what i receives from j; antisymmetric for symmetric ρ).
  std::vector<std::vector<double>> redistribution;
};

/// Persisted field lists (common/snapshot.h); the session checkpoint embeds
/// them.
template <class Ar>
void fields(Ar& ar, MechanismResult& result) {
  ar(as_enum<std::uint64_t>(result.scheme, Scheme::kTos), result.solution, result.welfare,
     result.potential, result.paper_potential, result.total_damage, result.total_data_fraction,
     result.performance, result.payoffs, result.redistribution);
}

/// Runs one scheme end to end.
MechanismResult run_scheme(const game::CoopetitionGame& game, Scheme scheme,
                           const SchemeOptions& options = {});

/// Theorem 2's properties, checked numerically at a mechanism result.
struct PropertyReport {
  bool individual_rationality = false;  // min_i C_i >= -tol
  double min_payoff = 0.0;
  bool budget_balance = false;          // |Σ_i R_i| <= tol * scale
  double redistribution_sum = 0.0;
  bool nash_equilibrium = false;        // max unilateral gain <= tol
  double max_unilateral_gain = 0.0;
  bool computationally_efficient = false;  // converged within iteration caps
  int iterations = 0;

  [[nodiscard]] std::string summary() const;
};

template <class Ar>
void fields(Ar& ar, PropertyReport& report) {
  ar(report.individual_rationality, report.min_payoff, report.budget_balance,
     report.redistribution_sum, report.nash_equilibrium, report.max_unilateral_gain,
     report.computationally_efficient, report.iterations);
}

struct PropertyTolerances {
  double payoff_tol = 1e-6;
  double budget_tol = 1e-9;   // relative to Σ_i |R_i|
  double nash_tol = 1e-4;     // absolute payoff-gain tolerance
};

/// Verifies IR/BB/NE/CE for the result. The NE check is skipped (reported
/// false) for TOS, which is not an equilibrium by construction — pass
/// `check_nash = false` to skip the (grid-search) NE probe entirely.
PropertyReport verify_properties(const game::CoopetitionGame& game,
                                 const MechanismResult& result,
                                 bool check_nash = true,
                                 const PropertyTolerances& tolerances = {});

}  // namespace tradefl::core

#include "core/deviation_audit.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace tradefl::core {

namespace {

/// Repriced Eq. (11) ledger for one silo: accuracy-linked terms (revenue,
/// damage) scale with the measured/analytic accuracy ratio; a free-rider's
/// energy cost is refunded (it never trained); redistribution is settled on
/// declared contributions and survives untouched.
double empirical_total(const game::PayoffBreakdown& breakdown, double ratio,
                       bool free_rider) {
  const double energy = free_rider ? 0.0 : breakdown.energy_cost;
  return breakdown.revenue * ratio - energy - breakdown.damage * ratio +
         breakdown.redistribution;
}

std::string format_value(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

}  // namespace

std::string DeviationAudit::summary() const {
  if (!attacked) {
    return "deviation audit: no adversarial updates fired";
  }
  std::string text = "deviation audit: " + std::to_string(silos.size()) +
                     " deviating silo(s), accuracy " +
                     format_value(measured_accuracy) + " vs analytic " +
                     format_value(analytic_accuracy) + " (ratio " +
                     format_value(accuracy_ratio) + "), attacker influence " +
                     format_value(attacker_influence) + ", rejected " +
                     std::to_string(rejected_updates) + ", clipped " +
                     std::to_string(clipped_updates) + "; IR(honest)=" +
                     (ir_empirical ? "pass" : "FAIL") +
                     " BB=" + (bb_empirical ? "pass" : "FAIL") +
                     " CE=" + (ce_empirical ? "pass" : "FAIL");
  for (const SiloDeviation& silo : silos) {
    text += "; silo " + std::to_string(silo.silo) + " [" + silo.attack +
            "] gain " + format_value(silo.payoff_gain);
  }
  return text;
}

DeviationAudit audit_deviation(const game::CoopetitionGame& game,
                               const MechanismResult& mechanism,
                               const PropertyReport& properties,
                               const TrainingObservation& training,
                               const FaultInjector& faults) {
  const std::size_t n = game.size();
  if (mechanism.solution.profile.size() != n) {
    throw std::invalid_argument("audit_deviation: profile/game size mismatch");
  }

  DeviationAudit audit;
  audit.analytic_accuracy = mechanism.performance;
  audit.measured_accuracy = training.measured_accuracy;
  audit.accuracy_ratio = audit.analytic_accuracy > 0.0
                             ? audit.measured_accuracy / audit.analytic_accuracy
                             : 1.0;
  audit.attacked_updates = training.attacked_updates;
  audit.rejected_updates = training.rejected_updates;
  audit.clipped_updates = training.clipped_updates;
  audit.attacked = training.attacked_updates > 0;
  audit.ce_empirical = properties.computationally_efficient;
  audit.attacker_influence = training.attacker_influence;
  const std::size_t aggregated_rounds = training.aggregated_rounds;

  // Classify each silo by replaying the plan's attack schedule over the
  // rounds the run executed — membership is deterministic, so this recovers
  // exactly the deviations the training loop injected.
  std::vector<FaultKind> attack_kind(n, FaultKind::kSignFlip);  // only read when deviated
  std::vector<bool> deviated(n, false);
  const std::uint64_t rounds = std::max<std::uint64_t>(training.executed_rounds, 1);
  for (std::size_t silo = 0; silo < n; ++silo) {
    for (std::uint64_t round = 0; round < rounds; ++round) {
      const AttackSpec spec = faults.attack_update(round, silo);
      if (spec.attack) {
        attack_kind[silo] = spec.kind;
        deviated[silo] = true;
        break;
      }
    }
  }

  const game::StrategyProfile& profile = mechanism.solution.profile;
  double redistribution_abs = 0.0;
  bool honest_seen = false;
  for (std::size_t silo = 0; silo < n; ++silo) {
    const game::PayoffBreakdown breakdown = game.payoff_breakdown(silo, profile);
    audit.redistribution_sum += breakdown.redistribution;
    redistribution_abs += std::abs(breakdown.redistribution);
    const bool free_rider = attack_kind[silo] == FaultKind::kFreeRide;
    const double empirical =
        empirical_total(breakdown, audit.accuracy_ratio, free_rider);
    if (deviated[silo]) {
      SiloDeviation entry;
      entry.silo = silo;
      entry.attack = fault_kind_name(attack_kind[silo]);
      entry.truthful_payoff = breakdown.total();
      entry.empirical_payoff = empirical;
      entry.payoff_gain = empirical - entry.truthful_payoff;
      if (silo < training.client_influence.size()) {
        entry.influence = training.client_influence[silo];
      }
      if (silo < training.client_rejected.size() && aggregated_rounds > 0) {
        entry.rejected_share = static_cast<double>(training.client_rejected[silo]) /
                               static_cast<double>(aggregated_rounds);
      }
      audit.silos.push_back(entry);
    } else {
      if (!honest_seen || empirical < audit.min_honest_payoff) {
        audit.min_honest_payoff = empirical;
      }
      honest_seen = true;
    }
  }

  // IR must hold for the silos that played truthfully: the attack may not
  // push an honest participant below its outside option. Vacuously true when
  // everyone deviated. The floor scales like verify_properties' payoff_tol.
  audit.ir_empirical = !honest_seen || audit.min_honest_payoff >= -1e-6;
  // BB is checked on the settled ledger — same relative tolerance as the
  // analytic check (budget_tol vs Σ|R_i|).
  audit.bb_empirical =
      std::abs(audit.redistribution_sum) <= 1e-9 * std::max(1.0, redistribution_abs);

  return audit;
}

}  // namespace tradefl::core

#include "game/potential.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace tradefl::game {
namespace {

/// χ_i = d_i s_i + λ f_i — the "contributed resources" scalar of Eq. (9).
double resource_contribution(const CoopetitionGame& game, const StrategyProfile& profile,
                             OrgId i) {
  return profile[i].data_fraction * game.org(i).data_size_bits +
         game.params().lambda * game.frequency(i, profile[i]);
}

double weighted_energy_sum(const CoopetitionGame& game, const StrategyProfile& profile) {
  const GameParams& params = game.params();
  double total = 0.0;
  for (std::size_t i = 0; i < game.size(); ++i) {
    const Organization& org = game.org(i);
    const double f = game.frequency(i, profile[i]);
    const double comp_energy = params.kappa * f * f * org.cycles_per_bit *
                               profile[i].data_fraction * org.data_size_bits;
    total += params.omega_e * comp_energy / game.weight_z(i);
  }
  return total;
}

using Checker = double (*)(const CoopetitionGame&, const StrategyProfile&);

PotentialIdentityCheck run_identity_check(const CoopetitionGame& game,
                                          const StrategyProfile& profile,
                                          std::size_t samples, std::uint64_t seed,
                                          Checker potential_fn) {
  Rng rng(seed);
  PotentialIdentityCheck check;
  const double base_potential = potential_fn(game, profile);

  for (std::size_t sample = 0; sample < samples; ++sample) {
    const OrgId i = static_cast<OrgId>(
        rng.uniform_int(0, static_cast<std::int64_t>(game.size()) - 1));
    const auto levels = game.feasible_freq_levels(i);
    if (levels.empty()) continue;
    const std::size_t level = levels[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(levels.size()) - 1))];
    const double upper = game.data_upper_bound(i, level);
    StrategyProfile deviated = profile;
    deviated[i].freq_index = level;
    deviated[i].data_fraction = rng.uniform(game.params().d_min, upper);

    const double payoff_change = game.payoff(i, deviated) - game.payoff(i, profile);
    const double potential_change =
        game.weight_z(i) * (potential_fn(game, deviated) - base_potential);
    const double abs_error = std::abs(payoff_change - potential_change);
    const double scale = std::max({std::abs(payoff_change), std::abs(potential_change), 1e-12});
    check.max_abs_error = std::max(check.max_abs_error, abs_error);
    check.max_rel_error = std::max(check.max_rel_error, abs_error / scale);
    ++check.deviations_tested;
  }
  return check;
}

}  // namespace

double potential(const CoopetitionGame& game, const StrategyProfile& profile) {
  const GameParams& params = game.params();
  double value = game.accuracy().performance(game.omega(profile));
  value -= weighted_energy_sum(game, profile);
  for (std::size_t i = 0; i < game.size(); ++i) {
    value += params.gamma * game.rho().row_sum(i) * resource_contribution(game, profile, i) /
             game.weight_z(i);
  }
  return value;
}

double paper_potential(const CoopetitionGame& game, const StrategyProfile& profile) {
  double value = game.accuracy().performance(game.omega(profile));
  value -= weighted_energy_sum(game, profile);
  for (std::size_t i = 0; i < game.size(); ++i) {
    value += game.redistribution(i, profile) / game.weight_z(i);
  }
  return value;
}

double potential_gradient_d(const CoopetitionGame& game, const StrategyProfile& profile,
                            OrgId i) {
  const GameParams& params = game.params();
  const Organization& org = game.org(i);
  const double w_i = game.contribution_weight(i);
  const double f = game.frequency(i, profile[i]);

  double gradient = game.accuracy().performance_derivative(game.omega(profile)) * w_i;
  gradient -= params.omega_e * params.kappa * f * f * org.cycles_per_bit * org.data_size_bits /
              game.weight_z(i);
  gradient += params.gamma * org.data_size_bits * game.rho().row_sum(i) / game.weight_z(i);
  return gradient;
}

PotentialIdentityCheck check_weighted_potential_identity(const CoopetitionGame& game,
                                                         const StrategyProfile& profile,
                                                         std::size_t samples,
                                                         std::uint64_t seed) {
  return run_identity_check(game, profile, samples, seed, &potential);
}

PotentialIdentityCheck check_paper_potential_identity(const CoopetitionGame& game,
                                                      const StrategyProfile& profile,
                                                      std::size_t samples,
                                                      std::uint64_t seed) {
  return run_identity_check(game, profile, samples, seed, &paper_potential);
}

}  // namespace tradefl::game

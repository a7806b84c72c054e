// Algorithm 1 (CGBD) and the GBD machinery: the exact primal (19) and its
// KKT certificate, feasibility-check closed form (problem 21), cut validity,
// finite convergence (Lemma 2), and ε-optimality (Lemma 3 with δ = 0)
// against exhaustive enumeration on small instances.
#include "core/gbd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/rng.h"
#include "core/cgbd.h"
#include "game/game_factory.h"
#include "game/potential.h"

namespace tradefl::core {
namespace {

using game::ExperimentSpec;
using game::make_experiment_game;
using game::make_toy_game;
using game::OrgId;

game::CoopetitionGame small_game(std::uint64_t seed, std::size_t n = 4) {
  ExperimentSpec spec;
  spec.org_count = n;
  return make_experiment_game(spec, seed);
}

TEST(Gbd, PrimalSolvesConcaveProblem) {
  const auto game = small_game(42);
  GbdSolver solver(game);
  std::vector<std::size_t> freq(game.size());
  for (OrgId i = 0; i < game.size(); ++i) freq[i] = game.org(i).freq_levels.size() - 1;
  const PrimalSolve primal = solver.solve_primal(freq);
  ASSERT_TRUE(primal.feasible);
  // The returned d must lie in the box and satisfy deadlines.
  for (OrgId i = 0; i < game.size(); ++i) {
    EXPECT_GE(primal.d[i], game.params().d_min - 1e-9);
    EXPECT_LE(primal.d[i], 1.0 + 1e-9);
    EXPECT_LE(solver.deadline_slack(i, primal.d[i], game.org(i).freq_levels[freq[i]]), 1e-6);
  }
  // Value must match the potential at the solution point.
  game::StrategyProfile profile(game.size());
  for (OrgId i = 0; i < game.size(); ++i) profile[i] = {primal.d[i], freq[i]};
  EXPECT_NEAR(primal.value, game::potential(game, profile), 1e-9);
}

TEST(Gbd, PrimalBeatsGridSearchOverD) {
  const auto game = small_game(7);
  GbdSolver solver(game);
  std::vector<std::size_t> freq(game.size(), 0);
  for (OrgId i = 0; i < game.size(); ++i) {
    freq[i] = game.feasible_freq_levels(i).back();
  }
  const PrimalSolve primal = solver.solve_primal(freq);
  ASSERT_TRUE(primal.feasible);
  // Random grid probes over d must not beat the IP solution.
  tradefl::Rng rng(3);
  game::StrategyProfile probe(game.size());
  for (int trial = 0; trial < 300; ++trial) {
    for (OrgId i = 0; i < game.size(); ++i) {
      const double upper = std::min(1.0, game.data_upper_bound(i, freq[i]));
      probe[i] = {rng.uniform(game.params().d_min, upper), freq[i]};
    }
    EXPECT_LE(game::potential(game, probe), primal.value + 1e-6);
  }
}

/// Which KKT case each organization's d_i fell into, summed over solves.
struct KktCases {
  std::size_t lower = 0;     // d_i = D_min
  std::size_t interior = 0;  // D_min < d_i < ub_i
  std::size_t deadline = 0;  // d_i = ub_i < 1, held by the deadline row
  std::size_t cap = 0;       // d_i = ub_i = 1
};

/// Checks one primal solve against the KKT conditions of (19), built only
/// from ∂U/∂d (game/potential.h), the deadline rows and the returned
/// multipliers u. (19) is concave with linear constraints, so passing
/// certifies a global optimum at fixed f. The coupling multiplier is
/// λ = P'(Ω(d)), the one ∂U/∂d_i = λ w_i + c_i embeds.
void expect_kkt_certificate(const game::CoopetitionGame& game,
                            const std::vector<std::size_t>& freq, const PrimalSolve& primal,
                            KktCases& cases) {
  ASSERT_TRUE(primal.feasible);
  const std::size_t n = game.size();
  ASSERT_EQ(primal.d.size(), n);
  ASSERT_EQ(primal.multipliers.size(), n);
  const double d_min = game.params().d_min;
  game::StrategyProfile profile(n);
  for (OrgId i = 0; i < n; ++i) profile[i] = {primal.d[i], freq[i]};
  EXPECT_NEAR(primal.value, game::potential(game, profile),
              1e-12 * std::max(1.0, std::abs(primal.value)));
  const double lambda = game.accuracy().performance_derivative(game.omega(profile));
  std::size_t interior = 0;
  for (OrgId i = 0; i < n; ++i) {
    const auto& org = game.org(i);
    const double f = org.freq_levels[freq[i]];
    const double deadline_bound = org.max_data_fraction_for_deadline(f, game.params().tau);
    const double upper = std::max(d_min, std::min(1.0, deadline_bound));
    const double d = primal.d[i];
    const double u = primal.multipliers[i];
    const double gradient = game::potential_gradient_d(game, profile, i);
    const double coupling = lambda * game.contribution_weight(i);
    const double tol = 1e-9 * (std::abs(coupling) + std::abs(gradient - coupling));
    // What the box bounds must absorb once the deadline row is priced in.
    const double residual = gradient - u * org.cycles_per_bit * org.data_size_bits / f;
    const bool at_lower = d <= d_min + 1e-12;
    const bool at_upper = d >= upper - 1e-12;
    EXPECT_GE(d, d_min) << "org " << i;
    EXPECT_LE(d, upper) << "org " << i;
    EXPECT_GE(u, 0.0) << "org " << i;
    if (u > 0.0) {
      EXPECT_TRUE(at_upper && deadline_bound < 1.0) << "org " << i << " prices a slack deadline";
    }
    if (at_upper && deadline_bound < 1.0) {
      EXPECT_NEAR(residual, 0.0, tol) << "org " << i << " at its deadline";
      ++cases.deadline;
    } else if (at_upper) {
      EXPECT_GE(residual, -tol) << "org " << i << " at the cap";
      ++cases.cap;
    } else if (at_lower) {
      EXPECT_LE(residual, tol) << "org " << i << " at D_min";
      ++cases.lower;
    } else {
      EXPECT_NEAR(residual, 0.0, tol) << "org " << i << " interior";
      ++interior;
      ++cases.interior;
    }
  }
  // The breakpoint scan leaves at most one organization strictly inside.
  EXPECT_LE(interior, 1u);
}

TEST(Gbd, PrimalSatisfiesKktCertificate) {
  KktCases cases;
  std::size_t solves = 0;
  // Under the Table-II deadline τ = 45 s an org at its upper end is held by
  // the deadline; a slack τ lets the cap at 1 bind instead.
  for (double tau : {45.0, 120.0}) {
    for (std::size_t n : {6, 10, 16}) {
      for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        ExperimentSpec spec;
        spec.org_count = n;
        spec.params.tau = tau;
        const auto game = make_experiment_game(spec, seed);
        const GbdSolver solver(game);
        tradefl::Rng rng(seed);
        for (int trial = 0; trial < 10; ++trial) {
          std::vector<std::size_t> freq(n);
          for (OrgId i = 0; i < n; ++i) {
            const auto levels = game.feasible_freq_levels(i);
            ASSERT_FALSE(levels.empty());
            freq[i] = levels[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(levels.size()) - 1))];
          }
          expect_kkt_certificate(game, freq, solver.solve_primal(freq), cases);
          ++solves;
        }
      }
    }
  }
  EXPECT_EQ(solves, 600u);
  // Every case of the certificate occurs.
  EXPECT_GT(cases.lower, 0u);
  EXPECT_GT(cases.interior, 0u);
  EXPECT_GT(cases.deadline, 0u);
  EXPECT_GT(cases.cap, 0u);
}

TEST(Gbd, PrimalBreaksBreakpointTiesInIndexOrder) {
  // Two identical organizations have bitwise-equal breakpoints β_i.
  // Sweeping the energy weight ϖ_e moves their β through P'(Ω); wherever the
  // optimum splits the pair, the lower index leaves its upper end first.
  game::Organization twin;
  game::Organization other;
  other.data_size_bits = 15e9;
  other.profitability = 900.0;
  other.cycles_per_bit = 12.0;
  game::CompetitionMatrix rho(3);
  for (OrgId i = 0; i < 3; ++i) {
    for (OrgId j = 0; j < 3; ++j) {
      if (i != j) rho.set(i, j, 0.05);
    }
  }
  const std::vector<std::size_t> freq(3, 2);
  KktCases cases;
  std::size_t split = 0;
  for (int step = 0; step <= 60; ++step) {
    game::GameParams params;
    params.omega_e = 1e-3 * std::pow(10.0, step / 15.0);
    auto accuracy = std::make_shared<const game::SqrtAccuracyModel>(params.epochs_g, params.a0);
    const game::CoopetitionGame game({twin, twin, other}, rho, accuracy, params);
    const PrimalSolve primal = GbdSolver(game).solve_primal(freq);
    expect_kkt_certificate(game, freq, primal, cases);
    EXPECT_LE(primal.d[0], primal.d[1]) << "omega_e " << params.omega_e;
    if (primal.d[0] < primal.d[1]) ++split;
  }
  EXPECT_GT(split, 0u);
}

TEST(Gbd, InfeasibleFrequencyDetected) {
  // Force an infeasible primal: tight deadline at the lowest level.
  ExperimentSpec spec;
  spec.org_count = 3;
  spec.params.tau = 18.0;  // lowest level cannot meet it for most orgs
  const auto game = make_experiment_game(spec, 11);
  GbdSolver solver(game);
  // Pick the slowest level for every org; expect infeasibility if the bound
  // dips below d_min for someone.
  std::vector<std::size_t> freq(game.size(), 0);
  bool expect_infeasible = false;
  for (OrgId i = 0; i < game.size(); ++i) {
    if (game.data_upper_bound(i, 0) < game.params().d_min) expect_infeasible = true;
  }
  const PrimalSolve primal = solver.solve_primal(freq);
  EXPECT_EQ(primal.feasible, !expect_infeasible);
  if (!primal.feasible) {
    EXPECT_GT(primal.zeta, 0.0);
    // zeta is the worst deadline slack at d = D_min (problem 21 closed form).
    const OrgId worst = primal.violating_org;
    EXPECT_NEAR(primal.zeta,
                solver.deadline_slack(worst, game.params().d_min,
                                      game.org(worst).freq_levels[0]),
                1e-9);
  }
}

TEST(Cgbd, ConvergesAndIsFeasible) {
  const auto game = small_game(42);
  const Solution solution = run_cgbd(game);
  EXPECT_TRUE(solution.converged);
  EXPECT_TRUE(game.is_feasible(solution.profile));
  EXPECT_GT(solution.iterations, 0);
}

TEST(Cgbd, MatchesExhaustiveEnumeration) {
  // Lemma 3 with an exact primal: CGBD's incumbent is the potential maximizer
  // that brute force over all frequency tuples finds with the same primal.
  for (std::size_t n = 4; n <= 6; ++n) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      const auto game = small_game(seed, n);
      const Solution cgbd = run_cgbd(game);
      const Solution brute = solve_by_enumeration(game);
      EXPECT_NEAR(game::potential(game, cgbd.profile), brute.diagnostic("best_potential"), 1e-9)
          << n << " orgs, seed " << seed;
    }
  }
}

TEST(Cgbd, OptimalityCutIsTightAtItsOwnTuple) {
  // With one frequency level per org the master has a single tuple, so after
  // the first iteration UB is the optimality cut at its own tuple and LB is
  // v(f) there. An exact primal makes the two equal.
  for (std::size_t n : {6, 10, 16}) {
    ExperimentSpec spec;
    spec.org_count = n;
    spec.freq_levels = 1;
    for (std::uint64_t k = 0; k < 100; ++k) {
      const auto game = make_experiment_game(spec, Rng::derive_stream_seed(7, k + 1));
      const Solution solution = run_cgbd(game);
      EXPECT_EQ(solution.iterations, 1) << n << " orgs, game " << k;
      EXPECT_NEAR(solution.diagnostic("gap"), 0.0, 1e-9) << n << " orgs, game " << k;
    }
  }
}

/// `converged` must mean UB - LB <= ε. CGBD also stops when the master
/// re-proposes a visited tuple, which is sound only because each optimality
/// cut is tight at its own tuple, i.e. only with an exact primal.
void expect_converged_within_epsilon(std::size_t orgs, std::uint64_t games) {
  ExperimentSpec spec;
  spec.org_count = orgs;
  const GbdOptions options;
  std::uint64_t converged = 0;
  std::uint64_t loose = 0;
  double worst_gap = 0.0;
  for (std::uint64_t k = 0; k < games; ++k) {
    const auto game = make_experiment_game(spec, Rng::derive_stream_seed(42, k + 1));
    const Solution solution = run_cgbd(game, options);
    if (!solution.converged) continue;
    ++converged;
    const double gap = solution.diagnostic("gap");
    if (gap > options.epsilon) ++loose;
    worst_gap = std::max(worst_gap, gap);
  }
  EXPECT_EQ(loose, 0u) << loose << " of " << converged << " converged " << orgs
                       << "-org solves end with UB - LB above epsilon; worst " << worst_gap;
  EXPECT_GE(converged, games - games / 10) << orgs << " orgs";
}

TEST(CgbdSweep, ConvergedMeansGapWithinEpsilonAt6Orgs) {
  expect_converged_within_epsilon(6, 1000);
}

TEST(CgbdSweep, ConvergedMeansGapWithinEpsilonAt8Orgs) {
  expect_converged_within_epsilon(8, 200);
}

TEST(CgbdSweep, ConvergedMeansGapWithinEpsilonAt10Orgs) {
  expect_converged_within_epsilon(10, 50);
}

TEST(Cgbd, UpperBoundDominatesLowerBound) {
  const auto game = small_game(42);
  const Solution solution = run_cgbd(game);
  EXPECT_GE(solution.diagnostic("upper_bound") + 1e-9, solution.diagnostic("lower_bound"));
  EXPECT_GE(solution.diagnostic("gap"), -1e-9);
}

TEST(Cgbd, MasterTraversalCountsTuples) {
  const auto game = small_game(42, 3);
  const Solution solution = run_cgbd(game);
  // m^|N| = 3^3 tuples enumerated by the traversal (Lemma 4).
  EXPECT_DOUBLE_EQ(solution.diagnostic("master_tuples"), 27.0);
}

TEST(Cgbd, SolutionIsNashEquilibrium) {
  const auto game = small_game(42);
  const Solution solution = run_cgbd(game);
  EXPECT_LE(game.max_unilateral_gain(solution.profile), 5e-3);
}

TEST(Cgbd, AgreesWithDbrOnPotential) {
  // Both reach (approximately) the potential maximizer on the default game.
  const auto game = game::make_default_game(42);
  const Solution cgbd = run_cgbd(game);
  const double cgbd_potential = game::potential(game, cgbd.profile);
  EXPECT_GT(cgbd_potential, 0.0);
}

TEST(Cgbd, FiniteConvergenceUnderIterationCap) {
  const auto game = small_game(42);
  GbdOptions options;
  options.max_iterations = 3;
  const Solution solution = run_cgbd(game, options);
  EXPECT_LE(solution.iterations, 3);
  EXPECT_TRUE(game.is_feasible(solution.profile));
}

TEST(Cgbd, RejectsBadOptions) {
  const auto game = small_game(42);
  GbdOptions bad;
  bad.epsilon = -1.0;
  EXPECT_THROW(GbdSolver(game, bad), std::invalid_argument);
  bad = GbdOptions{};
  bad.max_iterations = 0;
  EXPECT_THROW(GbdSolver(game, bad), std::invalid_argument);
}

TEST(Cgbd, ThrowsWhenNoTupleFeasible) {
  ExperimentSpec spec;
  spec.org_count = 3;
  spec.params.tau = 3.0;  // below comm times: nothing works
  const auto game = make_experiment_game(spec, 5);
  EXPECT_THROW(run_cgbd(game), std::runtime_error);
}

TEST(GbdFaults, EmptyPlanInjectorIsNoOp) {
  const auto game = small_game(42);
  const FaultInjector inert{};
  GbdOptions options;
  options.faults = &inert;  // disabled: all-zero plan
  const Solution faulted = run_cgbd(game, options);
  const Solution plain = run_cgbd(game);
  ASSERT_EQ(faulted.profile.size(), plain.profile.size());
  for (OrgId i = 0; i < game.size(); ++i) {
    EXPECT_EQ(faulted.profile[i].data_fraction, plain.profile[i].data_fraction);  // bitwise
    EXPECT_EQ(faulted.profile[i].freq_index, plain.profile[i].freq_index);
  }
}

TEST(Enumeration, VisitsAllTuples) {
  const auto game = small_game(9, 3);
  const Solution brute = solve_by_enumeration(game);
  EXPECT_DOUBLE_EQ(brute.diagnostic("tuples"), 27.0);
  EXPECT_TRUE(game.is_feasible(brute.profile));
}

}  // namespace
}  // namespace tradefl::core

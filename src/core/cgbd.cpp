#include "core/cgbd.h"

#include <limits>
#include <stdexcept>

#include "common/stopwatch.h"
#include "math/grid.h"
#include "obs/obs.h"

namespace tradefl::core {

Solution run_cgbd(const game::CoopetitionGame& game, const CgbdOptions& options) {
  return GbdSolver(game, options).solve();
}

Solution solve_by_enumeration(const game::CoopetitionGame& game, const GbdOptions& options) {
  TFL_SPAN("cgbd.enumeration");
  Stopwatch watch;
  GbdSolver solver(game, options);
  const std::size_t n = game.size();
  std::vector<std::size_t> radices(n);
  for (game::OrgId i = 0; i < n; ++i) radices[i] = game.org(i).freq_levels.size();

  Solution solution;
  double best_value = -std::numeric_limits<double>::infinity();
  std::uint64_t visited = math::enumerate_cartesian(
      radices, [&](const std::vector<std::size_t>& freq) {
        const PrimalSolve primal = solver.solve_primal(freq);
        if (primal.feasible && primal.value > best_value) {
          best_value = primal.value;
          game::StrategyProfile profile(n);
          for (std::size_t i = 0; i < n; ++i) {
            profile[i].data_fraction = primal.d[i];
            profile[i].freq_index = freq[i];
          }
          solution.profile = std::move(profile);
        }
        return true;
      });
  if (solution.profile.empty()) {
    throw std::runtime_error("enumeration: no feasible frequency assignment");
  }
  solution.converged = true;
  solution.iterations = static_cast<int>(visited);
  TFL_COUNTER_ADD("cgbd.enumeration.tuples", visited);
  solution.solve_seconds = watch.elapsed_seconds();
  solution.diagnostics.emplace_back("best_potential", best_value);
  solution.diagnostics.emplace_back("tuples", static_cast<double>(visited));
  return solution;
}

}  // namespace tradefl::core

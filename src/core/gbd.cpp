#include "core/gbd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>

#include "common/check.h"
#include "common/parallel.h"
#include "common/snapshot.h"
#include "common/stopwatch.h"
#include "core/iteration_trace.h"
#include "game/potential.h"
#include "math/grid.h"
#include "math/scalar_opt.h"
#include "obs/obs.h"

namespace tradefl::core {

using game::CoopetitionGame;
using game::OrgId;
using game::StrategyProfile;

namespace {

StrategyProfile to_profile(const std::vector<double>& d, const std::vector<std::size_t>& freq) {
  StrategyProfile profile(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    profile[i].data_fraction = d[i];
    profile[i].freq_index = freq[i];
  }
  return profile;
}

}  // namespace

GbdSolver::GbdSolver(const CoopetitionGame& game, GbdOptions options)
    : game_(game), options_(options) {
  if (options_.epsilon < 0.0) throw std::invalid_argument("gbd: epsilon must be >= 0");
  if (options_.max_iterations < 1) throw std::invalid_argument("gbd: need >= 1 iteration");
}

double GbdSolver::deadline_slack(OrgId i, double d, double f) const {
  const auto& org = game_.org(i);
  return org.download_time + org.cycles_per_bit * d * org.data_size_bits / f +
         org.upload_time - game_.params().tau;
}

double GbdSolver::linear_coefficient(OrgId i, double f) const {
  const auto& params = game_.params();
  const auto& org = game_.org(i);
  const double z = game_.weight_z(i);
  return params.gamma * game_.rho().row_sum(i) * org.data_size_bits / z -
         params.omega_e * params.kappa * f * f * org.cycles_per_bit * org.data_size_bits / z;
}

PrimalSolve GbdSolver::solve_primal(const std::vector<std::size_t>& freq_indices) const {
  TFL_SPAN("cgbd.primal_solve");
  TFL_SCOPED_TIMER("cgbd.subproblem.seconds");
  const std::size_t n = game_.size();
  const double d_min = game_.params().d_min;
  PrimalSolve result;

  // Feasibility screen: each org must satisfy the deadline at d = D_min.
  double worst_slack = -std::numeric_limits<double>::infinity();
  std::size_t worst_org = 0;
  for (OrgId i = 0; i < n; ++i) {
    const double f = game_.org(i).freq_levels.at(freq_indices[i]);
    const double slack = deadline_slack(i, d_min, f);
    if (slack > worst_slack) {
      worst_slack = slack;
      worst_org = i;
    }
  }
  if (worst_slack >= 0.0) {
    // Problem (21): ζ* = max_i [g_i(D_min, f_i)]+ at d = D_min (g increases
    // in d, so D_min minimizes every row simultaneously).
    result.feasible = false;
    result.zeta = worst_slack;
    result.violating_org = worst_org;
    result.d.assign(n, d_min);
    return result;
  }

  // At fixed f the primal is max P(Ω) + Σ_i c_i d_i over d_i ∈ [D_min, ub_i]
  // with Ω = Σ_i w_i d_i. With λ = P'(Ω*), KKT puts d_i at ub_i when
  // λ w_i + c_i > 0 and at D_min when it is < 0, i.e. org i sits at D_min
  // exactly when its breakpoint β_i = -c_i / w_i is above λ. Start with every
  // d_i at ub_i (the smallest P') and lower orgs in order of descending β_i:
  // each lowering raises P', so the scan stops at the first org whose β_i is
  // reached, and at most that org ends strictly inside its interval.
  const game::AccuracyModel& accuracy = game_.accuracy();
  StrategyProfile profile(n);
  std::vector<double> weight(n), coefficient(n), upper(n), breakpoint(n);
  for (OrgId i = 0; i < n; ++i) {
    weight[i] = game_.contribution_weight(i);
    coefficient[i] = linear_coefficient(i, game_.org(i).freq_levels[freq_indices[i]]);
    upper[i] = std::max(d_min, game_.data_upper_bound(i, freq_indices[i]));
    breakpoint[i] = -coefficient[i] / weight[i];
    profile[i] = {upper[i], freq_indices[i]};
  }
  std::vector<OrgId> order(n);
  std::iota(order.begin(), order.end(), OrgId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](OrgId a, OrgId b) { return breakpoint[a] > breakpoint[b]; });
  std::size_t lowered = 0;  // order[0, lowered) have left their upper end
  for (; lowered < n; ++lowered) {
    const OrgId i = order[lowered];
    const double rest = game_.omega(profile) - weight[i] * upper[i];
    const auto excess = [&](double d) {
      return accuracy.performance_derivative(rest + weight[i] * d) - breakpoint[i];
    };
    if (excess(upper[i]) >= 0.0) break;  // λ >= β_i >= every later breakpoint
    if (excess(d_min) <= 0.0) {
      profile[i].data_fraction = d_min;
      continue;
    }
    profile[i].data_fraction = math::bisect_root(excess, d_min, upper[i]);
    ++lowered;
    break;
  }

  // u_i = (λ w_i + c_i) / a_i with a_i = η_i s_i / f_i for an org held at its
  // upper end by the deadline; the cap at 1 and D_min carry no u.
  const double lambda = accuracy.performance_derivative(game_.omega(profile));
  result.multipliers.assign(n, 0.0);
  for (std::size_t k = lowered; k < n; ++k) {
    const OrgId i = order[k];
    const auto& org = game_.org(i);
    const double f = org.freq_levels[freq_indices[i]];
    const double marginal = lambda * weight[i] + coefficient[i];
    if (org.max_data_fraction_for_deadline(f, game_.params().tau) < 1.0 && marginal > 0.0) {
      result.multipliers[i] = marginal / (org.cycles_per_bit * org.data_size_bits / f);
    }
  }

  result.feasible = true;
  result.d.resize(n);
  for (OrgId i = 0; i < n; ++i) result.d[i] = profile[i].data_fraction;
  result.value = game::potential(game_, profile);
  // Always-on exit contract: a non-finite model input (e.g. an overflowing
  // γ) must stop the solve here instead of flowing into cuts and payoffs.
  const bool finite = std::isfinite(result.value) &&
                      std::all_of(result.d.begin(), result.d.end(),
                                  [](double d) { return std::isfinite(d); });
  TFL_CHECK(finite, "gbd primal produced a non-finite point (value ", result.value, ")");
  return result;
}

GbdSolver::OptimalityCut GbdSolver::make_optimality_cut(const PrimalSolve& primal) const {
  // A valid Benders optimality cut for the max problem must over-estimate
  // v(f) = max_{d feasible} U(d, f). We take the Lagrangian
  //   L(d, f, u) = U(d, f) - Σ_i u_i g_i(d, f)   (>= U on the feasible set)
  // and over-estimate its max over d in closed form by linearizing the only
  // coupled term, P(Ω(d)), at the primal point Ω_v (P is concave, so its
  // tangent majorizes it). Everything is then separable per organization:
  //   cut(f) = P(Ω_v) - P'(Ω_v) Ω_v
  //            + Σ_i max_{d_i ∈ [D_min, ub_i(f_i)]} [slope_i(f_i) d_i]
  //            + Σ_i const_i(f_i),
  // with the max attained at an interval endpoint. Tabulated per org/level.
  OptimalityCut cut;
  StrategyProfile probe = to_profile(primal.d, std::vector<std::size_t>(game_.size(), 0));
  const double omega_v = game_.omega(probe);
  const double p_slope = game_.accuracy().performance_derivative(omega_v);
  cut.base = game_.accuracy().performance(omega_v) - p_slope * omega_v;

  const auto& params = game_.params();
  cut.per_level.resize(game_.size());
  for (OrgId i = 0; i < game_.size(); ++i) {
    const auto& org = game_.org(i);
    const double z = game_.weight_z(i);
    const double w_i = game_.contribution_weight(i);
    const double u = primal.multipliers[i];
    cut.per_level[i].reserve(org.freq_levels.size());
    for (std::size_t level = 0; level < org.freq_levels.size(); ++level) {
      const double f = org.freq_levels[level];
      // Coefficient of d_i inside L at this frequency.
      const double slope = p_slope * w_i + linear_coefficient(i, f) -
                           u * org.cycles_per_bit * org.data_size_bits / f;
      // d_i-independent contribution at this frequency.
      double constant = params.gamma * game_.rho().row_sum(i) * params.lambda * f / z;
      constant -= u * (org.download_time + org.upload_time - params.tau);
      // Maximize slope * d over the deadline-feasible interval.
      const double upper =
          std::max(params.d_min, std::min(1.0, game_.data_upper_bound(i, level)));
      const double best_linear = std::max(slope * params.d_min, slope * upper);
      cut.per_level[i].push_back(best_linear + constant);
    }
  }
  return cut;
}

GbdSolver::FeasibilityCut GbdSolver::make_feasibility_cut(
    const PrimalSolve& primal, const std::vector<std::size_t>& freq) const {
  (void)freq;
  FeasibilityCut cut;
  cut.org = primal.violating_org;
  const auto& org = game_.org(cut.org);
  cut.slack_by_level.reserve(org.freq_levels.size());
  for (double f : org.freq_levels) {
    cut.slack_by_level.push_back(deadline_slack(cut.org, primal.d[cut.org], f));
  }
  return cut;
}

bool GbdSolver::solve_master(const std::vector<OptimalityCut>& optimality_cuts,
                             const std::vector<FeasibilityCut>& feasibility_cuts,
                             std::vector<std::size_t>& best_tuple, double& best_bound,
                             std::uint64_t& tuples_visited) const {
  TFL_SPAN("cgbd.master_step");
  TFL_SCOPED_TIMER("cgbd.master.seconds");
  const std::size_t n = game_.size();
  std::vector<std::size_t> radices(n);
  for (OrgId i = 0; i < n; ++i) radices[i] = game_.org(i).freq_levels.size();
  best_bound = -std::numeric_limits<double>::infinity();
  tuples_visited = 0;
  if (math::cartesian_size(radices) == 0) return false;  // an org with no levels

  ThreadPool* pool = global_pool();
  const std::size_t workers = pool == nullptr ? 1 : pool->size();
  TFL_GAUGE_SET("parallel.pool.size", workers);

  // Split the mixed-radix grid by fixing suffix digits [split, n): each chunk
  // enumerates the leading digits [0, split) with the suffix held constant.
  // enumerate_cartesian increments digit 0 fastest, so increasing chunk index
  // walks suffixes in exactly the serial visiting order — folding chunks in
  // index order with a strict `>` reproduces the serial first-max tuple bit
  // for bit. The chunk grid depends only on the problem and worker count
  // target, never on scheduling.
  std::size_t split = n;
  std::size_t chunks = 1;
  if (pool != nullptr) {
    const std::size_t target = 4 * workers;
    while (split > 0 && chunks < target) {
      --split;
      chunks *= radices[split];
    }
  }
  TFL_GAUGE_SET("parallel.queue.depth", pool == nullptr ? 0 : chunks);

  const std::vector<std::size_t> lead_radices(radices.begin(),
                                              radices.begin() + static_cast<std::ptrdiff_t>(split));

  struct ChunkBest {
    bool found = false;
    double bound = -std::numeric_limits<double>::infinity();
    std::vector<std::size_t> tuple;
    std::uint64_t visited = 0;
  };

  const auto scan_chunk = [&](std::size_t chunk, std::size_t) {
    ChunkBest local;
    std::vector<std::size_t> f(n, 0);
    // Decode the fixed suffix digits of this chunk (digit `split` varies
    // fastest across chunks, mirroring the serial mixed-radix order).
    std::size_t remainder = chunk;
    for (std::size_t j = split; j < n; ++j) {
      f[j] = remainder % radices[j];
      remainder /= radices[j];
    }
    local.visited = math::enumerate_cartesian(lead_radices, [&](const std::vector<std::size_t>& lead) {
      for (std::size_t i = 0; i < split; ++i) f[i] = lead[i];
      for (const FeasibilityCut& cut : feasibility_cuts) {
        if (cut.slack_by_level[f[cut.org]] > 0.0) return true;  // pruned, keep going
      }
      double envelope = std::numeric_limits<double>::infinity();
      for (const OptimalityCut& cut : optimality_cuts) {
        double value = cut.base;
        for (std::size_t i = 0; i < n; ++i) value += cut.per_level[i][f[i]];
        envelope = std::min(envelope, value);
        if (envelope <= local.bound) break;  // cannot beat the incumbent tuple
      }
      if (envelope > local.bound) {
        local.bound = envelope;
        local.tuple = f;
        local.found = true;
      }
      return true;
    });
    return local;
  };

  const ChunkBest best = ordered_reduce<ChunkBest>(
      pool, chunks, ChunkBest{}, scan_chunk, [](ChunkBest& acc, ChunkBest&& value) {
        acc.visited += value.visited;
        if (value.found && value.bound > acc.bound) {
          acc.bound = value.bound;
          acc.tuple = std::move(value.tuple);
          acc.found = true;
        }
      });

  tuples_visited = best.visited;
  best_bound = best.bound;
  if (best.found) best_tuple = best.tuple;
  return best.found;
}

Solution GbdSolver::solve() {
  TFL_SPAN("cgbd.solve");
  Stopwatch watch;
  const std::size_t n = game_.size();
  Solution solution;

  std::vector<OptimalityCut> optimality_cuts;
  std::vector<FeasibilityCut> feasibility_cuts;
  std::set<std::vector<std::size_t>> visited;

  // f^(0): fastest level per organization (most likely feasible under C^(3)).
  std::vector<std::size_t> freq(n);
  for (OrgId i = 0; i < n; ++i) freq[i] = game_.org(i).freq_levels.size() - 1;

  double lower_bound = -std::numeric_limits<double>::infinity();
  double upper_bound = std::numeric_limits<double>::infinity();
  StrategyProfile incumbent;
  std::uint64_t total_tuples = 0;
  int first_iteration = 1;

  // ----- checkpoint -----
  // Version 2: cuts from the exact primal. A version-1 file holds cuts of the
  // former approximate primal and must not seed this solve.
  constexpr std::uint32_t kGbdSnapshotVersion = 2;
  constexpr const char* kGbdSnapshotKind = "core.gbd";
  // Fingerprint the economic parameters, not just the problem shape: two
  // games with identical org/level counts but different draws must not be
  // able to exchange checkpoints.
  std::uint64_t level_fingerprint = 0;
  {
    SnapshotWriter fingerprint;
    for (OrgId i = 0; i < n; ++i) {
      const game::Organization& org = game_.org(i);
      fingerprint(org.data_size_bits, org.sample_count, org.profitability, org.cycles_per_bit,
                  org.freq_levels, org.download_time, org.upload_time);
    }
    level_fingerprint = crc32(fingerprint.payload());
  }

  // The checkpoint is (n, fingerprint, completed iteration), then this state
  // list, which both directions visit.
  const auto state_fields = [&](auto& archive) {
    archive(freq, lower_bound, upper_bound, incumbent, total_tuples, solution.trace,
            optimality_cuts, feasibility_cuts, visited);
  };

  const auto write_checkpoint = [&](int iteration_completed) {
    SnapshotWriter writer;
    writer(n, level_fingerprint, iteration_completed);
    state_fields(writer);
    const auto written =
        write_snapshot_file(options_.checkpoint_path, kGbdSnapshotKind, kGbdSnapshotVersion,
                            writer);
    if (!written.ok()) {
      throw std::runtime_error("gbd checkpoint write failed [" + written.error().code +
                               "]: " + written.error().message);
    }
    TFL_COUNTER_INC("snapshot.writes");
    TFL_COUNTER_ADD("snapshot.bytes", written.value());
  };

  if (options_.resume && !options_.checkpoint_path.empty() &&
      snapshot_exists(options_.checkpoint_path)) {
    auto payload = read_snapshot_file(options_.checkpoint_path, kGbdSnapshotKind,
                                      kGbdSnapshotVersion, kGbdSnapshotVersion);
    if (!payload.ok()) {
      throw std::runtime_error("gbd resume failed closed [" + payload.error().code +
                               "]: " + payload.error().message);
    }
    auto decoded = decode_snapshot<bool>(payload.value(), [&](SnapshotReader& reader) {
      std::size_t stored_n = 0;
      std::uint64_t stored_fingerprint = 0;
      reader(stored_n, stored_fingerprint);
      if (stored_n != n || stored_fingerprint != level_fingerprint) {
        throw SnapshotError("checkpoint was written for a different game instance");
      }
      int completed = 0;
      reader(completed);
      if (completed < 0 || completed == std::numeric_limits<int>::max()) {
        throw SnapshotError("checkpoint iteration " + std::to_string(completed) + " out of range");
      }
      first_iteration = completed + 1;
      state_fields(reader);
      return true;
    });
    if (!decoded.ok()) {
      throw std::runtime_error("gbd resume failed closed [" + decoded.error().code +
                               "]: " + decoded.error().message);
    }
    solution.iterations = first_iteration - 1;
    TFL_COUNTER_INC("snapshot.resumes");
  }

  for (int k = first_iteration; k <= options_.max_iterations; ++k) {
    check_cancelled(options_.cancel);
    crash_if_scheduled(options_.faults, static_cast<std::uint64_t>(k));
    visited.insert(freq);
    const PrimalSolve primal = solve_primal(freq);
    if (primal.feasible) {
      optimality_cuts.push_back(make_optimality_cut(primal));
      if (primal.value > lower_bound) {
        lower_bound = primal.value;
        incumbent = to_profile(primal.d, freq);
      }
    } else {
      feasibility_cuts.push_back(make_feasibility_cut(primal, freq));
    }

    if (!incumbent.empty()) {
      append_iteration(game_, incumbent, k, solution.trace);
    }
    solution.iterations = k;
    TFL_COUNTER_INC("cgbd.iterations");

    std::vector<std::size_t> next;
    double master_bound = 0.0;
    std::uint64_t tuples = 0;
    if (!solve_master(optimality_cuts, feasibility_cuts, next, master_bound, tuples)) {
      // Every tuple excluded by feasibility cuts: the instance is infeasible.
      throw std::runtime_error("gbd: no frequency assignment satisfies the deadline");
    }
    total_tuples = tuples;
    upper_bound = master_bound;
    TFL_SERIES_APPEND("cgbd.bound_gap.trajectory", upper_bound - lower_bound);

    if (upper_bound - lower_bound <= options_.epsilon) {
      solution.converged = true;
      break;
    }
    if (visited.count(next) > 0) {
      // The master re-proposed a visited tuple: its cut already binds, so the
      // bounds cannot improve further (finite convergence, Lemma 2).
      solution.converged = true;
      break;
    }
    freq = std::move(next);
    // Iteration k is complete (cuts recorded, bounds updated, `freq` holds
    // the next tuple): this is the durable point a resumed solve restarts
    // from. A converged solve breaks above without checkpointing — replaying
    // its final iteration from the previous checkpoint reconverges
    // identically.
    if (!options_.checkpoint_path.empty() &&
        (k % static_cast<int>(std::max<std::size_t>(options_.checkpoint_every, 1)) == 0)) {
      write_checkpoint(k);
    }
  }

  if (incumbent.empty()) {
    throw std::runtime_error("gbd: no feasible primal encountered");
  }
  solution.profile = incumbent;
  solution.solve_seconds = watch.elapsed_seconds();
  TFL_COUNTER_ADD("cgbd.cuts.optimality", optimality_cuts.size());
  TFL_COUNTER_ADD("cgbd.cuts.feasibility", feasibility_cuts.size());
  solution.diagnostics.emplace_back("upper_bound", upper_bound);
  solution.diagnostics.emplace_back("lower_bound", lower_bound);
  solution.diagnostics.emplace_back("gap", upper_bound - lower_bound);
  solution.diagnostics.emplace_back("master_tuples", static_cast<double>(total_tuples));
  solution.diagnostics.emplace_back("optimality_cuts", static_cast<double>(optimality_cuts.size()));
  solution.diagnostics.emplace_back("feasibility_cuts",
                                    static_cast<double>(feasibility_cuts.size()));
  return solution;
}

}  // namespace tradefl::core

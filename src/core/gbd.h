// Generalized Benders Decomposition engine (Sec. V-A/B). Solves
//   max_{d, f}  U(d, f)   s.t.  d_i ∈ [D_min, 1],  f_i ∈ grid,  C^(3)
// by alternating:
//   * primal (19): fix f, maximize the concave U over d with the deadline
//     constraints. At fixed f, U = P(Σ w_i d_i) + Σ c_i d_i + const over one
//     interval per organization, so the optimum and the deadline multipliers
//     follow from the KKT conditions in closed form (a breakpoint scan plus
//     at most one 1-D root solve; see solve_primal);
//   * feasibility check (21) when the primal is infeasible — for our
//     monotone deadline constraints it has the closed form
//     ζ* = max_i [g_i(D_min, f_i)]+ with λ an indicator of the argmax row;
//   * master (23): traversal over the discrete f grid (the paper
//     "exhaustively enumerates the feasible values of f"), maximizing the
//     upper envelope of the accumulated optimality cuts subject to the
//     feasibility cuts.
// Optimality cuts use the Lagrangian of Eq. (20):
//   cut_k(f) = U(d^(k), f) - Σ_i u_i^(k) g_i(d^(k), f),
// which is separable per organization at fixed d^(k), so each cut is
// pre-tabulated per (organization, frequency level). An exact primal makes
// each cut tight at its own tuple, so the primal's δ of Lemma 3 is zero.
#pragma once

#include <cstdint>
#include <string>

#include "common/faults.h"
#include "core/solution.h"
#include "game/game.h"

namespace tradefl::core {

struct GbdOptions {
  /// ε — UB-LB convergence tolerance (Lemmas 2-3).
  double epsilon = 1e-6;

  /// K — iteration cap of Algorithm 1.
  int max_iterations = 64;

  /// Fault injection (nullptr = fault-free; must outlive the solve). A
  /// `crash:N` event kills the process at the start of Benders iteration N.
  const FaultInjector* faults = nullptr;

  /// Crash-consistent checkpointing (empty = none): every `checkpoint_every`
  /// iterations the accumulated Benders state — optimality/feasibility cuts,
  /// visited tuples, bounds, incumbent, trace — is snapshotted atomically.
  /// `resume` reloads it so a killed solve continues without re-deriving a
  /// single cut, bit-identically to an uninterrupted run.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 1;
  bool resume = false;

  /// Cooperative cancellation (nullptr = never cancelled; must outlive the
  /// solve). Checked once per Benders iteration; when the token fires the
  /// solve throws OperationCancelled. The serve daemon's watchdog sets it to
  /// evict a session whose solve exceeds its deadline without touching the
  /// process hosting every other session.
  const std::atomic<bool>* cancel = nullptr;
};

/// Result of one primal solve (used by tests and the scaling ablation).
struct PrimalSolve {
  bool feasible = false;
  std::vector<double> d;
  std::vector<double> multipliers;  // u^(k) of the deadline rows, one per org
  double value = 0.0;               // U(d^(k), f^(k-1)) when feasible
  double zeta = 0.0;                // ζ* of (21) when infeasible
  std::size_t violating_org = 0;    // argmax row of (21) when infeasible
};

class GbdSolver {
 public:
  GbdSolver(const game::CoopetitionGame& game, GbdOptions options = {});

  /// Runs Algorithm 1. The trace records the incumbent per iteration; the
  /// diagnostics include "upper_bound", "lower_bound", "gap", and
  /// "master_tuples" (the m^|N| traversal size, Lemma 4).
  [[nodiscard]] Solution solve();

  /// Solves the primal problem (19) at fixed frequency levels exactly: d
  /// satisfies the KKT conditions with λ = P'(Ω(d)), and `multipliers` holds
  /// the deadline multipliers u_i (> 0 only where the deadline binds). Public
  /// for tests.
  [[nodiscard]] PrimalSolve solve_primal(const std::vector<std::size_t>& freq_indices) const;

  /// g_i(d, f) = T^(1) + η_i s_i d / f + T^(3) - τ (the C^(3) slack).
  [[nodiscard]] double deadline_slack(game::OrgId i, double d, double f) const;

 private:
  /// c_i(f) = ∂U/∂d_i - P'(Ω) w_i: the energy and redistribution terms of the
  /// potential, linear in d_i at frequency f.
  [[nodiscard]] double linear_coefficient(game::OrgId i, double f) const;

  struct OptimalityCut {
    double base = 0.0;                            // P(Ω(d_v))
    std::vector<std::vector<double>> per_level;   // [org][level] terms

    template <class Ar>
    friend void fields(Ar& ar, OptimalityCut& cut) {
      ar(cut.base, cut.per_level);
    }
  };
  struct FeasibilityCut {
    std::size_t org = 0;              // λ is the indicator of this row
    std::vector<double> slack_by_level;  // g_org(d_v, level)

    template <class Ar>
    friend void fields(Ar& ar, FeasibilityCut& cut) {
      ar(cut.org, cut.slack_by_level);
    }
  };

  [[nodiscard]] OptimalityCut make_optimality_cut(const PrimalSolve& primal) const;
  [[nodiscard]] FeasibilityCut make_feasibility_cut(const PrimalSolve& primal,
                                                    const std::vector<std::size_t>& freq) const;

  /// Solves the master problem by traversal; returns the argmax tuple and
  /// its bound via out-params; false when no tuple passes the feasibility
  /// cuts.
  [[nodiscard]] bool solve_master(const std::vector<OptimalityCut>& optimality_cuts,
                                  const std::vector<FeasibilityCut>& feasibility_cuts,
                                  std::vector<std::size_t>& best_tuple,
                                  double& best_bound,
                                  std::uint64_t& tuples_visited) const;

  const game::CoopetitionGame& game_;
  GbdOptions options_;
};

}  // namespace tradefl::core

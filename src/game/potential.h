// The weighted potential function of Theorem 1 and a numerical verifier of
// the weighted-potential identity (Eq. 14). CGBD maximizes the potential;
// its maximizer is a pure-strategy NE of the coopetition game ([33, Thm 2.4]).
//
// Two variants are provided:
//  * `paper_potential` — Eq. (15) literally:
//      U = P(Ω) - Σ_i [ϖ_e κ f_i² η_i d_i s_i / z_i - Σ_j r_{i,j} / z_i].
//    The paper's proof treats the reverse transfers r_{j,i} as constants when
//    π_i moves, so this form satisfies Eq. (14) only approximately (and for
//    symmetric ρ with uniform z its redistribution part vanishes entirely).
//  * `potential` — the exact weighted potential. Writing
//    χ_i = d_i s_i + λ f_i, the redistribution term of C_i contributes
//    ∂C_i/∂χ_i = γ Σ_j ρ_{i,j} (the -χ_j parts are pure externalities), so
//      U = P(Ω) - Σ_i ϖ_e κ f_i² η_i d_i s_i / z_i
//            + γ Σ_i (Σ_j ρ_{i,j}) χ_i / z_i
//    satisfies z_i ΔU = ΔC_i *exactly* for any unilateral deviation. This is
//    the function CGBD maximizes. See DESIGN.md §7.
#pragma once

#include "game/game.h"

namespace tradefl::game {

/// Exact weighted potential (satisfies Eq. 14 identically).
double potential(const CoopetitionGame& game, const StrategyProfile& profile);

/// Eq. (15) exactly as printed in the paper (for Fig. 4 comparisons).
double paper_potential(const CoopetitionGame& game, const StrategyProfile& profile);

/// Analytic ∂U/∂d_i of the exact potential at fixed frequencies (used by the
/// GBD primal solver):
///   ∂U/∂d_i = P'(Ω) w_i - ϖ_e κ f_i² η_i s_i / z_i + γ s_i Σ_j ρ_{i,j} / z_i.
double potential_gradient_d(const CoopetitionGame& game, const StrategyProfile& profile,
                            OrgId i);

/// Result of numerically probing the weighted-potential identity (Eq. 14):
/// z_i [U(π_i', π_-i) - U(π)] vs C_i(π_i', π_-i) - C_i(π).
struct PotentialIdentityCheck {
  double max_abs_error = 0.0;
  double max_rel_error = 0.0;
  std::size_t deviations_tested = 0;
};

/// Probes Eq. (14) at `samples` random unilateral deviations from `profile`
/// using the exact potential. Errors should be at floating-point level.
PotentialIdentityCheck check_weighted_potential_identity(const CoopetitionGame& game,
                                                         const StrategyProfile& profile,
                                                         std::size_t samples,
                                                         std::uint64_t seed);

/// Same probe against the paper-literal Eq. (15) potential; quantifies how
/// far the printed form is from an exact weighted potential (nonzero when
/// γ > 0 and ρ has any nonzero entries).
PotentialIdentityCheck check_paper_potential_identity(const CoopetitionGame& game,
                                                      const StrategyProfile& profile,
                                                      std::size_t samples,
                                                      std::uint64_t seed);

}  // namespace tradefl::game

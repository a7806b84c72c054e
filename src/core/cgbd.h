// CGBD — Algorithm 1: the centralized GBD-based algorithm that finds the
// global solution of the potential-function problem (18); its solution is an
// ε-optimal NE of the coopetition game (Lemma 3 with δ = 0, since the primal
// is solved exactly). Thin facade over GbdSolver with the paper's defaults.
#pragma once

#include "core/gbd.h"
#include "core/solution.h"
#include "game/game.h"

namespace tradefl::core {

using CgbdOptions = GbdOptions;

/// Runs Algorithm 1 on the game; see GbdSolver for the mechanics.
Solution run_cgbd(const game::CoopetitionGame& game, const CgbdOptions& options = {});

/// Exhaustive reference solver for small instances (tests/ablations): brute
/// force over all frequency tuples, solving the concave primal per tuple.
/// Exponential in |N| — use only for |N| <= ~6.
Solution solve_by_enumeration(const game::CoopetitionGame& game,
                              const GbdOptions& options = {});

}  // namespace tradefl::core

// Strategic-deviation audit (the robustness counterpart to Sec. V's property
// proofs). The mechanism layer verifies IR / BB / CE analytically on the
// solved game; this module re-checks them *empirically* after a training run
// in which some silos deviated from truthful play — submitting sign-flipped,
// amplified, free-riding, or colluding updates instead of honest gradients.
//
// The bridge between the two worlds is model accuracy: the game prices the
// model at the analytic performance P(Ω) (Eq. 1), while the attacked run
// produced `measured_accuracy`. Every accuracy-linked payoff term (revenue
// p_i·P and competition damage D_i) is re-scaled by the measured/analytic
// ratio; free-riders additionally keep their energy cost (they billed for
// training they never did, so their *truthful* ledger charges ϖ_e·E_i while
// their empirical ledger refunds it). Redistribution is left untouched — the
// contract settles on declared contributions, which the attacks do not forge.
//
// The audit answers, per attack kind and aggregator:
//   * did honest silos stay individually rational (IR) despite the attack,
//   * did the redistribution ledger stay budget-balanced (BB),
//   * did the solve remain computationally efficient (CE), and
//   * what payoff did each deviating silo gain (or lose) vs truthful play,
//     alongside the aggregator's containment signals (influence share,
//     rejection rate).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/faults.h"
#include "core/mechanism.h"
#include "game/game.h"

namespace tradefl::core {

/// Layer-neutral view of a finished training run. core/ and fl/ are sibling
/// layers (core must not include fl), so the audit consumes this projection;
/// the session layer maps fl::FedAvgResult into it.
struct TrainingObservation {
  double measured_accuracy = 0.0;
  std::uint64_t attacked_updates = 0;  // adversarially transformed updates
  std::uint64_t rejected_updates = 0;  // zero-influence updates (robust agg)
  std::uint64_t clipped_updates = 0;   // norm-clipped deltas
  /// Rounds that actually aggregated (quorum met) / rounds the loop executed.
  std::size_t aggregated_rounds = 0;
  std::uint64_t executed_rounds = 0;
  /// Mean per-aggregated-round influence share retained by attacking silos.
  double attacker_influence = 0.0;
  std::vector<double> client_influence;        // mean Eq. (3) share per silo
  std::vector<std::uint64_t> client_rejected;  // rejected update count per silo
};

/// One deviating silo's ledger: analytic payoff under truthful play vs the
/// empirical payoff it realized by attacking, plus the aggregator's
/// containment signals for that silo.
struct SiloDeviation {
  std::size_t silo = 0;
  std::string attack;            // fault_kind_name of the injected deviation
  double truthful_payoff = 0.0;  // C_i at the solved profile, analytic P(Ω)
  double empirical_payoff = 0.0; // C_i re-priced at the measured accuracy
  double payoff_gain = 0.0;      // empirical - truthful (>0: attack paid off)
  double influence = 0.0;        // mean Eq. (3) share the aggregator granted
  double rejected_share = 0.0;   // fraction of aggregated rounds rejected
};

/// Session-level audit report: empirical IR / BB / CE verdicts plus the
/// per-deviator payoff accounting.
struct DeviationAudit {
  bool attacked = false;          // any adversarial update actually fired
  double analytic_accuracy = 0.0; // P(Ω) the mechanism priced the model at
  double measured_accuracy = 0.0; // what the attacked run actually reached
  double accuracy_ratio = 1.0;    // measured / analytic (1 when analytic = 0)
  std::uint64_t attacked_updates = 0;
  std::uint64_t rejected_updates = 0;
  std::uint64_t clipped_updates = 0;
  /// Mean per-round influence share retained by attacking silos, over the
  /// rounds that aggregated (0 = fully contained).
  double attacker_influence = 0.0;

  /// Empirical IR: every *honest* silo's re-priced payoff stays above the
  /// rationality floor. `min_honest_payoff` is the binding value.
  bool ir_empirical = false;
  double min_honest_payoff = 0.0;
  /// Empirical BB: the redistribution ledger still sums to ~0 (attacks forge
  /// gradients, not declared contributions, so this must survive any attack).
  bool bb_empirical = false;
  double redistribution_sum = 0.0;
  /// Empirical CE: the solve under the same fault plan converged.
  bool ce_empirical = false;

  std::vector<SiloDeviation> silos;  // deviating silos only, ascending index

  /// One-line human summary for reports and logs.
  [[nodiscard]] std::string summary() const;
};

/// Persisted field lists (common/snapshot.h); the session checkpoint embeds
/// the audit.
template <class Ar>
void fields(Ar& ar, SiloDeviation& silo) {
  ar(silo.silo, silo.attack, silo.truthful_payoff, silo.empirical_payoff, silo.payoff_gain,
     silo.influence, silo.rejected_share);
}

template <class Ar>
void fields(Ar& ar, DeviationAudit& audit) {
  ar(audit.attacked, audit.analytic_accuracy, audit.measured_accuracy, audit.accuracy_ratio,
     audit.attacked_updates, audit.rejected_updates, audit.clipped_updates,
     audit.attacker_influence, audit.ir_empirical, audit.min_honest_payoff, audit.bb_empirical,
     audit.redistribution_sum, audit.ce_empirical, audit.silos);
}

/// Runs the audit over a finished training run. `properties` is the analytic
/// property report from the same session (its CE verdict is inherited);
/// `faults` decides which silos deviated — membership is a pure function of
/// the plan, replayed over the rounds the run actually executed.
[[nodiscard]] DeviationAudit audit_deviation(const game::CoopetitionGame& game,
                                             const MechanismResult& mechanism,
                                             const PropertyReport& properties,
                                             const TrainingObservation& training,
                                             const FaultInjector& faults);

}  // namespace tradefl::core

// Strategic-deviation audit: empirical payoff repricing, IR/BB/CE verdicts,
// attack classification from the fault plan, and the snapshot codec. Uses a
// synthetic FedAvgResult so every number is hand-checkable.
#include "core/deviation_audit.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/snapshot.h"
#include "game/game_factory.h"

namespace tradefl::core {
namespace {

struct Fixture {
  game::CoopetitionGame game = game::make_toy_game();
  MechanismResult mechanism = run_scheme(game, Scheme::kDbr);
  PropertyReport properties = verify_properties(game, mechanism);

  TrainingObservation training(double accuracy, std::size_t attacked) const {
    TrainingObservation observed;
    observed.measured_accuracy = accuracy;
    observed.attacked_updates = attacked;
    observed.client_influence.assign(game.size(), 1.0 / static_cast<double>(game.size()));
    observed.client_rejected.assign(game.size(), 0);
    observed.aggregated_rounds = 2;
    observed.executed_rounds = 2;
    observed.attacker_influence = attacked > 0 ? 0.25 : 0.0;
    return observed;
  }
};

TEST(DeviationAudit, FreeRiderPocketsExactlyItsEnergyBillAtFullAccuracy) {
  Fixture fixture;
  FaultPlan plan;
  plan.freeride_silos = 1;
  const FaultInjector faults(plan);

  // measured == analytic: the repriced ledger differs from the truthful one
  // only by the free-rider's refunded energy.
  const auto training = fixture.training(fixture.mechanism.performance, 2);
  const DeviationAudit audit =
      audit_deviation(fixture.game, fixture.mechanism, fixture.properties, training, faults);

  EXPECT_TRUE(audit.attacked);
  EXPECT_NEAR(audit.accuracy_ratio, 1.0, 1e-12);
  ASSERT_EQ(audit.silos.size(), 1u);
  EXPECT_EQ(audit.silos[0].silo, 0u);
  EXPECT_EQ(audit.silos[0].attack, "freeride");
  const auto breakdown =
      fixture.game.payoff_breakdown(0, fixture.mechanism.solution.profile);
  EXPECT_NEAR(audit.silos[0].payoff_gain, breakdown.energy_cost, 1e-9);
  EXPECT_NEAR(audit.silos[0].truthful_payoff, breakdown.total(), 1e-12);
  EXPECT_NEAR(audit.silos[0].influence, 1.0 / 3.0, 1e-12);
  EXPECT_EQ(audit.silos[0].rejected_share, 0.0);
  EXPECT_NEAR(audit.attacker_influence, 0.25, 1e-12);

  // Honest silos are untouched at ratio 1, so empirical IR matches analytic.
  EXPECT_EQ(audit.ir_empirical, fixture.properties.individual_rationality);
  EXPECT_TRUE(audit.bb_empirical);
  EXPECT_EQ(audit.ce_empirical, fixture.properties.computationally_efficient);
}

TEST(DeviationAudit, AccuracyDropRepricesRevenueAndDamage) {
  Fixture fixture;
  FaultPlan plan;
  plan.signflip_silos = 1;
  const FaultInjector faults(plan);

  const double analytic = fixture.mechanism.performance;
  const auto training = fixture.training(analytic * 0.5, 4);
  const DeviationAudit audit =
      audit_deviation(fixture.game, fixture.mechanism, fixture.properties, training, faults);

  EXPECT_NEAR(audit.accuracy_ratio, 0.5, 1e-12);
  ASSERT_EQ(audit.silos.size(), 1u);
  EXPECT_EQ(audit.silos[0].attack, "signflip");
  const auto breakdown =
      fixture.game.payoff_breakdown(0, fixture.mechanism.solution.profile);
  // Sign-flipping is not free-riding: the attacker still paid for training,
  // so its empirical ledger is revenue/damage at half price, energy in full.
  const double expected = breakdown.revenue * 0.5 - breakdown.energy_cost -
                          breakdown.damage * 0.5 + breakdown.redistribution;
  EXPECT_NEAR(audit.silos[0].empirical_payoff, expected, 1e-9);

  // min_honest_payoff is the binding honest silo at the repriced accuracy.
  double expected_min = 0.0;
  bool first = true;
  for (std::size_t i = 1; i < fixture.game.size(); ++i) {
    const auto honest =
        fixture.game.payoff_breakdown(i, fixture.mechanism.solution.profile);
    const double value = honest.revenue * 0.5 - honest.energy_cost - honest.damage * 0.5 +
                         honest.redistribution;
    if (first || value < expected_min) expected_min = value;
    first = false;
  }
  EXPECT_NEAR(audit.min_honest_payoff, expected_min, 1e-9);
}

TEST(DeviationAudit, ColludersAreAllClassified) {
  Fixture fixture;
  FaultPlan plan;
  plan.collude_silos = 2;
  const FaultInjector faults(plan);
  const auto training = fixture.training(fixture.mechanism.performance, 4);
  const DeviationAudit audit =
      audit_deviation(fixture.game, fixture.mechanism, fixture.properties, training, faults);
  ASSERT_EQ(audit.silos.size(), 2u);
  EXPECT_EQ(audit.silos[0].silo, 0u);
  EXPECT_EQ(audit.silos[1].silo, 1u);
  EXPECT_EQ(audit.silos[0].attack, "collude");
  EXPECT_EQ(audit.silos[1].attack, "collude");
}

TEST(DeviationAudit, NoFiredAttackMeansNotAttacked) {
  Fixture fixture;
  FaultPlan plan;
  plan.freeride_silos = 1;
  const FaultInjector faults(plan);
  const auto training = fixture.training(fixture.mechanism.performance, 0);
  const DeviationAudit audit =
      audit_deviation(fixture.game, fixture.mechanism, fixture.properties, training, faults);
  EXPECT_FALSE(audit.attacked);
  EXPECT_NE(audit.summary().find("no adversarial updates"), std::string::npos);
}

TEST(DeviationAudit, SnapshotCodecRoundTrips) {
  Fixture fixture;
  FaultPlan plan;
  plan.freeride_silos = 1;
  plan.signflip_silos = 1;
  const FaultInjector faults(plan);
  const auto training = fixture.training(fixture.mechanism.performance * 0.8, 3);
  const DeviationAudit audit =
      audit_deviation(fixture.game, fixture.mechanism, fixture.properties, training, faults);

  SnapshotWriter writer;
  writer(audit);
  SnapshotReader reader(writer.payload());
  DeviationAudit decoded;
  reader(decoded);
  reader.require_exhausted();

  EXPECT_EQ(decoded.attacked, audit.attacked);
  EXPECT_EQ(decoded.analytic_accuracy, audit.analytic_accuracy);
  EXPECT_EQ(decoded.measured_accuracy, audit.measured_accuracy);
  EXPECT_EQ(decoded.accuracy_ratio, audit.accuracy_ratio);
  EXPECT_EQ(decoded.attacked_updates, audit.attacked_updates);
  EXPECT_EQ(decoded.rejected_updates, audit.rejected_updates);
  EXPECT_EQ(decoded.clipped_updates, audit.clipped_updates);
  EXPECT_EQ(decoded.attacker_influence, audit.attacker_influence);
  EXPECT_EQ(decoded.ir_empirical, audit.ir_empirical);
  EXPECT_EQ(decoded.min_honest_payoff, audit.min_honest_payoff);
  EXPECT_EQ(decoded.bb_empirical, audit.bb_empirical);
  EXPECT_EQ(decoded.redistribution_sum, audit.redistribution_sum);
  EXPECT_EQ(decoded.ce_empirical, audit.ce_empirical);
  ASSERT_EQ(decoded.silos.size(), audit.silos.size());
  for (std::size_t i = 0; i < audit.silos.size(); ++i) {
    EXPECT_EQ(decoded.silos[i].silo, audit.silos[i].silo);
    EXPECT_EQ(decoded.silos[i].attack, audit.silos[i].attack);
    EXPECT_EQ(decoded.silos[i].truthful_payoff, audit.silos[i].truthful_payoff);
    EXPECT_EQ(decoded.silos[i].empirical_payoff, audit.silos[i].empirical_payoff);
    EXPECT_EQ(decoded.silos[i].payoff_gain, audit.silos[i].payoff_gain);
    EXPECT_EQ(decoded.silos[i].influence, audit.silos[i].influence);
    EXPECT_EQ(decoded.silos[i].rejected_share, audit.silos[i].rejected_share);
  }
  EXPECT_EQ(decoded.summary(), audit.summary());
}

TEST(DeviationAudit, HostileSiloCountFailsClosed) {
  // Every field of an empty audit, then a silo count no payload could hold:
  // the decoder must fail typed, not reserve 2^40 or 2^62 records.
  for (const std::uint64_t count : {std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
    SnapshotWriter writer;
    writer(false, 0.0, 0.0, 1.0, std::uint64_t{0}, std::uint64_t{0}, std::uint64_t{0}, 0.0,
           false, 0.0, false, 0.0, false, count);
    const Result<DeviationAudit> decoded =
        decode_snapshot<DeviationAudit>(writer.payload(), [](SnapshotReader& reader) {
          DeviationAudit audit;
          reader(audit);
          return audit;
        });
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, "snapshot.decode");
  }
}

TEST(DeviationAudit, MismatchedProfileFailsClosed) {
  Fixture fixture;
  FaultPlan plan;
  plan.freeride_silos = 1;
  const FaultInjector faults(plan);
  MechanismResult truncated = fixture.mechanism;
  truncated.solution.profile.pop_back();
  const auto training = fixture.training(0.5, 1);
  EXPECT_THROW((void)audit_deviation(fixture.game, truncated, fixture.properties, training,
                                     faults),
               std::invalid_argument);
}

}  // namespace
}  // namespace tradefl::core

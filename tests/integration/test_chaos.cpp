// Chaos suite: the full TradingSession under a mixed fault plan. The session
// must never abort — every injected fault is either retried, degraded around,
// or reported — and the whole schedule must replay bit-identically across
// thread counts.
#include <gtest/gtest.h>

#include <cmath>

#include "common/parallel.h"
#include "game/game_factory.h"
#include "tradefl/report.h"
#include "tradefl/session.h"

namespace tradefl {
namespace {

/// Restores the serial global pool even when an assertion fails mid-test.
struct ThreadsRestorer {
  ~ThreadsRestorer() { set_global_threads(1); }
};

FaultPlan mixed_plan() {
  FaultPlan plan;
  plan.seed = 3;
  plan.dropout_rate = 0.2;
  plan.corrupt_rate = 0.1;
  plan.straggler_rate = 0.1;
  plan.submit_failure_rate = 0.05;
  return plan;
}

SessionOptions chaos_options() {
  SessionOptions options;
  options.scheme = core::Scheme::kCgbd;
  options.run_training = true;
  options.sample_scale = 0.12;
  options.fedavg.rounds = 2;
  options.faults = mixed_plan();
  return options;
}

bool has_phase(const SessionResult& result, const std::string& phase) {
  for (const Degradation& d : result.degradations) {
    if (d.phase == phase) return true;
  }
  return false;
}

TEST(Chaos, MixedPlanNeverAborts) {
  const auto game = game::make_toy_game();
  TradingSession session(game);
  SessionResult result;
  ASSERT_NO_THROW(result = session.run(chaos_options()));
  // Invariants that hold whether or not settlement landed: the chain is
  // internally consistent and the integer budget stays balanced.
  EXPECT_TRUE(result.chain_valid);
  EXPECT_EQ(result.settlement_sum, 0);
  EXPECT_TRUE(result.mechanism.solution.converged);
  if (result.settled) {
    EXPECT_LT(result.max_settlement_gap, 1e-6);
  } else {
    EXPECT_TRUE(has_phase(result, "chain"));
    for (chain::Wei w : result.settlements_wei) EXPECT_EQ(w, 0);
  }
  // Training either produced metrics or was contained as a degradation.
  EXPECT_TRUE(result.training.has_value() || has_phase(result, "training"));
}

TEST(Chaos, ReplayIsThreadCountInvariant) {
  ThreadsRestorer restore;
  const auto game = game::make_toy_game();

  set_global_threads(1);
  TradingSession serial_session(game);
  const SessionResult serial = serial_session.run(chaos_options());

  set_global_threads(4);
  TradingSession parallel_session(game);
  const SessionResult parallel = parallel_session.run(chaos_options());

  EXPECT_EQ(serial.settled, parallel.settled);
  EXPECT_EQ(serial.settlements_wei, parallel.settlements_wei);
  EXPECT_EQ(serial.settlement_sum, parallel.settlement_sum);
  EXPECT_EQ(serial.retry_attempts, parallel.retry_attempts);
  ASSERT_EQ(serial.degradations.size(), parallel.degradations.size());
  for (std::size_t i = 0; i < serial.degradations.size(); ++i) {
    EXPECT_EQ(serial.degradations[i].phase, parallel.degradations[i].phase);
    EXPECT_EQ(serial.degradations[i].detail, parallel.degradations[i].detail);
  }
  ASSERT_EQ(serial.training.has_value(), parallel.training.has_value());
  if (serial.training) {
    EXPECT_EQ(serial.training->final_weights, parallel.training->final_weights);  // bitwise
    EXPECT_EQ(serial.training->total_dropped, parallel.training->total_dropped);
    EXPECT_EQ(serial.training->total_quarantined, parallel.training->total_quarantined);
  }
}

TEST(Chaos, ZeroPlanMatchesPlainRunBitwise) {
  // Fault plumbing engaged (retry policy set, injector threaded through) but
  // an all-zero plan: results must be indistinguishable from a plain run.
  const auto game = game::make_toy_game();
  SessionOptions plain;
  plain.run_training = true;
  plain.sample_scale = 0.12;
  plain.fedavg.rounds = 2;

  SessionOptions plumbed = plain;
  plumbed.faults = FaultPlan{};  // explicit zero plan
  plumbed.retry.jitter_seed = 99;
  plumbed.retry.max_attempts = 7;  // policy differs, but never engages

  TradingSession a(game);
  const SessionResult base = a.run(plain);
  TradingSession b(game);
  const SessionResult wired = b.run(plumbed);

  EXPECT_EQ(base.settlements_wei, wired.settlements_wei);
  EXPECT_EQ(base.total_gas, wired.total_gas);
  EXPECT_EQ(base.blocks, wired.blocks);
  EXPECT_EQ(wired.retry_attempts, 0u);
  EXPECT_TRUE(wired.degradations.empty());
  EXPECT_TRUE(wired.settled);
  ASSERT_TRUE(base.training && wired.training);
  EXPECT_EQ(base.training->final_weights, wired.training->final_weights);  // bitwise
}

TEST(Chaos, SettlementAbortIsGraceful) {
  const auto game = game::make_toy_game();
  TradingSession session(game);
  SessionOptions options;
  options.faults.submit_failure_rate = 1.0;  // every submission is lost
  SessionResult result;
  ASSERT_NO_THROW(result = session.run(options));
  EXPECT_FALSE(result.settled);
  EXPECT_TRUE(result.chain_valid);  // the chain itself is untouched by faults
  EXPECT_EQ(result.settlement_sum, 0);
  for (chain::Wei w : result.settlements_wei) EXPECT_EQ(w, 0);
  EXPECT_TRUE(has_phase(result, "chain"));
  EXPECT_GT(result.retry_attempts, 0u);
  // The report spells out the abort instead of pretending a settlement.
  const std::string text = describe_session(game, result);
  EXPECT_NE(text.find("ABORTED"), std::string::npos);
}

TEST(Chaos, QuorumShortfallIsReportedAsDegradation) {
  const auto game = game::make_toy_game();
  TradingSession session(game);
  SessionOptions options;
  options.run_training = true;
  options.sample_scale = 0.12;
  options.fedavg.rounds = 2;
  options.fedavg.quorum = game.size();  // need every client...
  options.faults.events.push_back(
      FaultEvent{FaultKind::kClientDropout, 1, kAnyFaultTarget, 0.0});  // ...drop all in r1
  const SessionResult result = session.run(options);
  ASSERT_TRUE(result.training.has_value());
  EXPECT_EQ(result.training->rounds_skipped, 1u);
  EXPECT_TRUE(has_phase(result, "training"));
  // Training degradation is advisory: settlement still completes.
  EXPECT_TRUE(result.settled);
  EXPECT_EQ(result.settlement_sum, 0);
}

}  // namespace
}  // namespace tradefl

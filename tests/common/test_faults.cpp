// FaultPlan parsing and the FaultInjector determinism contract: every query
// must be a pure function of (plan, kind, round, target), independent of
// query order and of which other faults fired.
#include "common/faults.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace tradefl {
namespace {

TEST(FaultPlan, DefaultIsEmpty) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(FaultInjector(plan).enabled());
  EXPECT_FALSE(FaultInjector().enabled());
}

TEST(FaultPlan, ParsesSpec) {
  const auto plan =
      parse_fault_plan("drop:0.2,straggle:0.1,scale:4,corrupt:0.05,noise:0.5,"
                       "revert:0.01,gas:0.02,submit:0.03,seed:7");
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan.value().dropout_rate, 0.2);
  EXPECT_DOUBLE_EQ(plan.value().straggler_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan.value().straggler_scale, 4.0);
  EXPECT_DOUBLE_EQ(plan.value().corrupt_rate, 0.05);
  EXPECT_DOUBLE_EQ(plan.value().corrupt_noise, 0.5);
  EXPECT_DOUBLE_EQ(plan.value().revert_rate, 0.01);
  EXPECT_DOUBLE_EQ(plan.value().gas_exhaustion_rate, 0.02);
  EXPECT_DOUBLE_EQ(plan.value().submit_failure_rate, 0.03);
  EXPECT_EQ(plan.value().seed, 7u);
  EXPECT_FALSE(plan.value().empty());
}

TEST(FaultPlan, ParseRejectsGarbage) {
  EXPECT_FALSE(parse_fault_plan("drop").ok());           // no colon
  EXPECT_FALSE(parse_fault_plan("bogus:1").ok());        // unknown key
  EXPECT_FALSE(parse_fault_plan("drop:1.5").ok());       // rate out of range
  EXPECT_FALSE(parse_fault_plan("drop:-0.1").ok());      // negative rate
  EXPECT_FALSE(parse_fault_plan("drop:abc").ok());       // not a number
  EXPECT_FALSE(parse_fault_plan("scale:0.5").ok());      // scale must be >= 1
  EXPECT_FALSE(parse_fault_plan("noise:-1").ok());       // noise must be >= 0
}

TEST(FaultPlan, EmptySpecIsEmptyPlan) {
  const auto plan = parse_fault_plan("");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan.value().empty());
}

TEST(FaultPlan, SummaryMentionsActiveRates) {
  FaultPlan plan;
  plan.dropout_rate = 0.25;
  plan.seed = 11;
  const std::string summary = plan.summary();
  EXPECT_NE(summary.find("drop"), std::string::npos);
  EXPECT_NE(summary.find("seed"), std::string::npos);
}

TEST(FaultInjector, QueriesArePureFunctions) {
  FaultPlan plan;
  plan.seed = 5;
  plan.dropout_rate = 0.3;
  plan.revert_rate = 0.2;
  plan.gas_exhaustion_rate = 0.1;
  const FaultInjector injector(plan);
  // Repeating a query — and interleaving it with others — never changes it.
  for (std::uint64_t round = 1; round <= 20; ++round) {
    for (std::uint64_t client = 0; client < 8; ++client) {
      const bool first = injector.drop_client(round, client);
      (void)injector.revert_call(round * 8 + client);
      (void)injector.exhaust_gas(round);
      EXPECT_EQ(injector.drop_client(round, client), first);
    }
  }
}

TEST(FaultInjector, TwoInjectorsSamePlanAgree) {
  FaultPlan plan;
  plan.seed = 9;
  plan.dropout_rate = 0.5;
  plan.submit_failure_rate = 0.4;
  const FaultInjector a(plan);
  const FaultInjector b(plan);
  for (std::uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(a.drop_client(k / 10, k % 10), b.drop_client(k / 10, k % 10));
    EXPECT_EQ(a.fail_submission(k), b.fail_submission(k));
  }
}

TEST(FaultInjector, SeedChangesSchedule) {
  FaultPlan lhs;
  lhs.dropout_rate = 0.5;
  lhs.seed = 1;
  FaultPlan rhs = lhs;
  rhs.seed = 2;
  const FaultInjector a(lhs);
  const FaultInjector b(rhs);
  int differences = 0;
  for (std::uint64_t k = 0; k < 200; ++k) {
    if (a.drop_client(k / 10, k % 10) != b.drop_client(k / 10, k % 10)) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(FaultInjector, RatesHitApproximatelyAtRate) {
  FaultPlan plan;
  plan.dropout_rate = 0.3;
  plan.seed = 13;
  const FaultInjector injector(plan);
  int hits = 0;
  const int trials = 2000;
  for (int k = 0; k < trials; ++k) {
    if (injector.drop_client(static_cast<std::uint64_t>(k / 40),
                             static_cast<std::uint64_t>(k % 40))) {
      ++hits;
    }
  }
  const double observed = static_cast<double>(hits) / trials;
  EXPECT_NEAR(observed, 0.3, 0.05);
}

TEST(FaultInjector, ExplicitEventFiresExactlyWhereScheduled) {
  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultKind::kClientDropout, 3, 1, 0.0});
  const FaultInjector injector(plan);
  EXPECT_TRUE(injector.enabled());
  EXPECT_TRUE(injector.drop_client(3, 1));
  EXPECT_FALSE(injector.drop_client(3, 0));
  EXPECT_FALSE(injector.drop_client(2, 1));
  EXPECT_FALSE(injector.drop_client(4, 1));
}

TEST(FaultInjector, AnyTargetEventHitsEveryClient) {
  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultKind::kClientDropout, 2, kAnyFaultTarget, 0.0});
  const FaultInjector injector(plan);
  for (std::uint64_t client = 0; client < 5; ++client) {
    EXPECT_TRUE(injector.drop_client(2, client));
    EXPECT_FALSE(injector.drop_client(1, client));
  }
}

TEST(FaultInjector, StragglerScaleUsesMagnitude) {
  FaultPlan plan;
  plan.straggler_scale = 5.0;
  plan.events.push_back(FaultEvent{FaultKind::kStragglerDelay, 1, 0, 2.5});
  plan.events.push_back(FaultEvent{FaultKind::kStragglerDelay, 1, 1, 0.0});
  const FaultInjector injector(plan);
  EXPECT_DOUBLE_EQ(injector.straggler_scale(1, 0), 2.5);   // event magnitude
  EXPECT_DOUBLE_EQ(injector.straggler_scale(1, 1), 5.0);   // plan default
  EXPECT_DOUBLE_EQ(injector.straggler_scale(2, 0), 1.0);   // no fault
}

TEST(FaultInjector, CorruptionSpecSelectsNanOrNoise) {
  FaultPlan nan_plan;
  nan_plan.events.push_back(FaultEvent{FaultKind::kUpdateCorruption, 1, 0, 0.0});
  const CorruptionSpec nan_spec = FaultInjector(nan_plan).corrupt_update(1, 0);
  EXPECT_TRUE(nan_spec.corrupt);
  EXPECT_TRUE(nan_spec.use_nan);

  FaultPlan noise_plan = nan_plan;
  noise_plan.corrupt_noise = 0.7;
  const CorruptionSpec noise_spec = FaultInjector(noise_plan).corrupt_update(1, 0);
  EXPECT_TRUE(noise_spec.corrupt);
  EXPECT_FALSE(noise_spec.use_nan);
  EXPECT_DOUBLE_EQ(noise_spec.noise_stddev, 0.7);

  EXPECT_FALSE(FaultInjector(nan_plan).corrupt_update(2, 0).corrupt);
}

TEST(FaultInjector, CorruptionRngIsStatelessPerCell) {
  FaultPlan plan;
  plan.corrupt_rate = 1.0;
  plan.corrupt_noise = 1.0;
  const FaultInjector injector(plan);
  Rng first = injector.corruption_rng(4, 2);
  Rng second = injector.corruption_rng(4, 2);
  for (int k = 0; k < 8; ++k) {
    EXPECT_EQ(first.uniform01(), second.uniform01());
  }
  // Distinct cells get distinct streams.
  Rng other = injector.corruption_rng(4, 3);
  Rng base = injector.corruption_rng(4, 2);
  bool any_different = false;
  for (int k = 0; k < 8; ++k) {
    if (base.uniform01() != other.uniform01()) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(FaultKindName, StableNames) {
  EXPECT_STREQ(fault_kind_name(FaultKind::kClientDropout), "dropout");
  EXPECT_STREQ(fault_kind_name(FaultKind::kTxRevert), "revert");
  EXPECT_STREQ(fault_kind_name(FaultKind::kSignFlip), "signflip");
  EXPECT_STREQ(fault_kind_name(FaultKind::kScaleAttack), "scale_attack");
  EXPECT_STREQ(fault_kind_name(FaultKind::kFreeRide), "freeride");
  EXPECT_STREQ(fault_kind_name(FaultKind::kCollude), "collude");
}

TEST(FaultPlan, ParseErrorsEchoTokenAndGrammar) {
  // Satellite contract: every typed parse error names the offending token
  // verbatim and repeats the accepted grammar, so a mistyped CLI spec is
  // self-diagnosing.
  struct Case {
    const char* spec;
    const char* token;
  };
  const Case cases[] = {
      {"drop:0.2,bogus:1", "bogus:1"},       // unknown key
      {"drop", "drop"},                      // missing colon
      {"drop:1.5", "drop:1.5"},              // rate out of range
      {"crash:1.5", "crash:1.5"},            // point must be an integer
      {"signflip:2.5", "signflip:2.5"},      // silo count must be an integer
      {"collude:-1", "collude:-1"},          // negative count
      {"amplifyx:0", "amplifyx:0"},          // factor must be positive
      {"colludex:abc", "colludex:abc"},      // not a number
      {"solver:0.1", "solver:0.1"},          // retired key
  };
  for (const Case& test : cases) {
    const auto parsed = parse_fault_plan(test.spec);
    ASSERT_FALSE(parsed.ok()) << test.spec;
    EXPECT_EQ(parsed.error().code, "faults") << test.spec;
    EXPECT_NE(parsed.error().message.find(std::string("'") + test.token + "'"),
              std::string::npos)
        << parsed.error().message;
    EXPECT_NE(parsed.error().message.find(kFaultGrammar), std::string::npos) << test.spec;
  }
}

TEST(FaultPlan, ParsesAttackKeysAndRoundTrips) {
  const auto parsed = parse_fault_plan(
      "seed:9,collude:2,colludex:1.5,signflip:1,amplify:3,amplifyx:4,freeride:2");
  ASSERT_TRUE(parsed.ok());
  const FaultPlan& plan = parsed.value();
  EXPECT_EQ(plan.collude_silos, 2u);
  EXPECT_DOUBLE_EQ(plan.collude_shift, 1.5);
  EXPECT_EQ(plan.signflip_silos, 1u);
  EXPECT_EQ(plan.scale_silos, 3u);
  EXPECT_DOUBLE_EQ(plan.scale_factor, 4.0);
  EXPECT_EQ(plan.freeride_silos, 2u);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(plan.has_attacks());

  const auto reparsed = parse_fault_plan(plan.spec_string());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().spec_string(), plan.spec_string());
}

TEST(FaultInjector, AttackBlocksAssignLowestIndexedSilosCollersFirst) {
  FaultPlan plan;
  plan.collude_silos = 2;
  plan.signflip_silos = 1;
  plan.freeride_silos = 1;
  const FaultInjector injector(plan);
  // Blocks in declaration order: silos 0-1 collude, 2 sign-flips, 3 free-
  // rides, 4+ honest — identical at every round.
  for (std::uint64_t round = 0; round < 3; ++round) {
    EXPECT_EQ(injector.attack_update(round, 0).kind, FaultKind::kCollude);
    EXPECT_EQ(injector.attack_update(round, 1).kind, FaultKind::kCollude);
    EXPECT_EQ(injector.attack_update(round, 2).kind, FaultKind::kSignFlip);
    EXPECT_EQ(injector.attack_update(round, 3).kind, FaultKind::kFreeRide);
    EXPECT_FALSE(injector.attack_update(round, 4).attack);
    EXPECT_TRUE(injector.attack_update(round, 0).attack);
  }
}

TEST(FaultInjector, CollusionRngIsSharedPerRoundAndVariesAcrossRounds) {
  FaultPlan plan;
  plan.seed = 21;
  plan.collude_silos = 3;
  const FaultInjector injector(plan);
  Rng a = injector.collusion_rng(5);
  Rng b = injector.collusion_rng(5);
  EXPECT_EQ(a.next_u64(), b.next_u64());  // every colluder draws the same stream
  Rng c = injector.collusion_rng(6);
  EXPECT_NE(injector.collusion_rng(5).next_u64(), c.next_u64());
}

}  // namespace
}  // namespace tradefl

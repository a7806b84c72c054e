// The TradeFL smart contract: the Fig. 3 lifecycle, Table I functions,
// exact on-chain budget balance, solvency checks, and arbitration records.
#include "chain/tradefl_contract.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "chain/blockchain.h"
#include "chain/web3.h"

namespace tradefl::chain {
namespace {

struct ContractFixture {
  Blockchain chain;
  Web3Client web3{chain};
  std::vector<Address> orgs;
  Address contract;
  Wei min_deposit = 100'000'000'000;  // 100 payoff units (covers worst-case r)
  TradeFlContractConfig config;

  explicit ContractFixture(std::size_t n = 3, double gamma_scaled = 5.12,
                           double rho = 0.05) {
    config.org_count = n;
    config.gamma_scaled = Fixed::from_double(gamma_scaled);
    config.lambda = Fixed::from_double(2.0);
    config.rho.assign(n * n, Fixed{});
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) config.rho[i * n + j] = Fixed::from_double(rho);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      config.data_size_gb.push_back(Fixed::from_double(20.0));
    }
    config.min_deposit = min_deposit;
    contract = chain.deploy(std::make_unique<TradeFlContract>(config));
    for (std::size_t i = 0; i < n; ++i) {
      orgs.push_back(Address::from_name("org-" + std::to_string(i)));
      chain.credit(orgs[i], 10 * min_deposit);
    }
  }

  void register_all() {
    for (std::size_t i = 0; i < orgs.size(); ++i) {
      web3.call_or_throw(orgs[i], contract, "register",
                         {orgs[i], static_cast<std::uint64_t>(i)});
    }
  }
  void deposit_all() {
    for (const Address& org : orgs) {
      web3.call_or_throw(org, contract, "depositSubmit", {}, min_deposit);
    }
  }
  void contribute_all(std::vector<double> ds) {
    for (std::size_t i = 0; i < orgs.size(); ++i) {
      web3.call_or_throw(orgs[i], contract, "contributionSubmit",
                         {Fixed::from_double(ds[i]), Fixed::from_double(3.0)});
    }
  }
  std::uint64_t phase() {
    return std::get<std::uint64_t>(
        web3.call_or_throw(orgs[0], contract, "phase").returned.at(0));
  }
};

TEST(TradeFlContract, LifecyclePhases) {
  ContractFixture fx;
  EXPECT_EQ(fx.phase(), 0u);  // registration
  fx.register_all();
  fx.deposit_all();
  EXPECT_EQ(fx.phase(), 1u);  // contribution opens when everyone escrowed
  fx.contribute_all({0.9, 0.5, 0.1});
  fx.web3.call_or_throw(fx.orgs[0], fx.contract, "payoffCalculate");
  fx.web3.call_or_throw(fx.orgs[0], fx.contract, "payoffTransfer");
  EXPECT_EQ(fx.phase(), 2u);  // settled
}

TEST(TradeFlContract, BudgetBalanceExactInWei) {
  ContractFixture fx;
  fx.register_all();
  fx.deposit_all();
  fx.contribute_all({1.0, 0.4, 0.01});
  fx.web3.call_or_throw(fx.orgs[0], fx.contract, "payoffCalculate");
  Wei total = 0;
  for (std::size_t i = 0; i < fx.orgs.size(); ++i) {
    total += std::get<std::int64_t>(
        fx.web3.call_or_throw(fx.orgs[i], fx.contract, "payoffOf",
                              {static_cast<std::uint64_t>(i)})
            .returned.at(0));
  }
  EXPECT_EQ(total, 0);  // Definition 5, exactly, in integer wei
}

TEST(TradeFlContract, BiggestContributorGainsSmallestPays) {
  ContractFixture fx;
  fx.register_all();
  fx.deposit_all();
  fx.contribute_all({1.0, 0.5, 0.01});
  fx.web3.call_or_throw(fx.orgs[0], fx.contract, "payoffCalculate");
  auto payoff = [&](std::size_t i) {
    return std::get<std::int64_t>(
        fx.web3.call_or_throw(fx.orgs[i], fx.contract, "payoffOf",
                              {static_cast<std::uint64_t>(i)})
            .returned.at(0));
  };
  EXPECT_GT(payoff(0), 0);
  EXPECT_LT(payoff(2), 0);
}

TEST(TradeFlContract, SettlementMovesRealFunds) {
  ContractFixture fx;
  fx.register_all();
  const std::vector<Wei> before{fx.chain.balance(fx.orgs[0]), fx.chain.balance(fx.orgs[1]),
                                fx.chain.balance(fx.orgs[2])};
  fx.deposit_all();
  fx.contribute_all({1.0, 0.5, 0.01});
  fx.web3.call_or_throw(fx.orgs[0], fx.contract, "payoffCalculate");
  fx.web3.call_or_throw(fx.orgs[0], fx.contract, "payoffTransfer");
  // Contract fully drained (all deposits redistributed + refunded).
  EXPECT_EQ(fx.chain.balance(fx.contract), 0);
  // Conservation: total org wealth unchanged.
  Wei total_before = 0, total_after = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    total_before += before[i];
    total_after += fx.chain.balance(fx.orgs[i]);
  }
  EXPECT_EQ(total_after, total_before);
  // Org 0 (largest contributor) strictly gained.
  EXPECT_GT(fx.chain.balance(fx.orgs[0]), before[0]);
  EXPECT_LT(fx.chain.balance(fx.orgs[2]), before[2]);
}

TEST(TradeFlContract, EqualContributionsSettleToZero) {
  ContractFixture fx;
  fx.register_all();
  fx.deposit_all();
  fx.contribute_all({0.5, 0.5, 0.5});
  fx.web3.call_or_throw(fx.orgs[0], fx.contract, "payoffCalculate");
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(std::get<std::int64_t>(
                  fx.web3.call_or_throw(fx.orgs[i], fx.contract, "payoffOf",
                                        {static_cast<std::uint64_t>(i)})
                      .returned.at(0)),
              0);
  }
}

TEST(TradeFlContract, ProfileRecordReturnsContribution) {
  ContractFixture fx;
  fx.register_all();
  fx.deposit_all();
  fx.contribute_all({0.9, 0.5, 0.1});
  const auto outcome = fx.web3.call_or_throw(fx.orgs[1], fx.contract, "profileRecord",
                                             {std::uint64_t{0}});
  EXPECT_EQ(std::get<Fixed>(outcome.returned.at(0)), Fixed::from_double(0.9));
  EXPECT_EQ(std::get<Fixed>(outcome.returned.at(1)), Fixed::from_double(3.0));
  // Event emitted for arbitration traceability.
  bool found = false;
  for (const Event& event : fx.chain.events()) {
    if (event.name == "ProfileRecorded") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(TradeFlContract, GuardsAgainstProtocolViolations) {
  ContractFixture fx;
  // Unregistered deposit.
  auto outcome = fx.web3.call(fx.orgs[0], fx.contract, "depositSubmit", {}, 100);
  EXPECT_FALSE(outcome.receipt.success);
  fx.register_all();
  // Double registration of the same index.
  outcome = fx.web3.call(fx.orgs[0], fx.contract, "register", {fx.orgs[0], std::uint64_t{0}});
  EXPECT_FALSE(outcome.receipt.success);
  // Contribution before deposits complete.
  outcome = fx.web3.call(fx.orgs[0], fx.contract, "contributionSubmit",
                         {Fixed::from_double(0.5), Fixed::from_double(3.0)});
  EXPECT_FALSE(outcome.receipt.success);
  fx.deposit_all();
  // d outside [0, 1].
  outcome = fx.web3.call(fx.orgs[0], fx.contract, "contributionSubmit",
                         {Fixed::from_double(1.5), Fixed::from_double(3.0)});
  EXPECT_FALSE(outcome.receipt.success);
  // Settlement before every org contributed.
  outcome = fx.web3.call(fx.orgs[0], fx.contract, "payoffCalculate");
  EXPECT_FALSE(outcome.receipt.success);
  fx.contribute_all({0.9, 0.5, 0.1});
  // Transfer before calculate.
  outcome = fx.web3.call(fx.orgs[0], fx.contract, "payoffTransfer");
  EXPECT_FALSE(outcome.receipt.success);
  fx.web3.call_or_throw(fx.orgs[0], fx.contract, "payoffCalculate");
  fx.web3.call_or_throw(fx.orgs[0], fx.contract, "payoffTransfer");
  // Double settlement.
  outcome = fx.web3.call(fx.orgs[0], fx.contract, "payoffTransfer");
  EXPECT_FALSE(outcome.receipt.success);
  // Unknown method.
  outcome = fx.web3.call(fx.orgs[0], fx.contract, "selfDestruct");
  EXPECT_FALSE(outcome.receipt.success);
}

TEST(TradeFlContract, InsufficientDepositBlocksSettlement) {
  // Huge gamma so the redistribution exceeds the escrow.
  ContractFixture fx(3, /*gamma_scaled=*/1e6, /*rho=*/0.5);
  fx.register_all();
  fx.deposit_all();
  fx.contribute_all({1.0, 0.5, 0.01});
  fx.web3.call_or_throw(fx.orgs[0], fx.contract, "payoffCalculate");
  const auto outcome = fx.web3.call(fx.orgs[0], fx.contract, "payoffTransfer");
  EXPECT_FALSE(outcome.receipt.success);
  EXPECT_NE(outcome.receipt.revert_reason.find("cannot cover"), std::string::npos);
  // Failed settlement leaves deposits escrowed, not lost.
  EXPECT_GT(fx.chain.balance(fx.contract), 0);
}

TEST(TradeFlContract, StateRoundTrip) {
  ContractFixture fx;
  fx.register_all();
  fx.deposit_all();
  fx.contribute_all({0.9, 0.5, 0.1});
  auto& contract = const_cast<Contract&>(fx.chain.contract_at(fx.contract));
  const Bytes snapshot = contract.save_state();
  // Mutate through another call, then restore and verify the old state.
  fx.web3.call_or_throw(fx.orgs[0], fx.contract, "payoffCalculate");
  contract.load_state(snapshot);
  // After restore, payoffOf must revert again (payoffs not calculated).
  const auto outcome =
      fx.web3.call(fx.orgs[0], fx.contract, "payoffOf", {std::uint64_t{0}});
  EXPECT_FALSE(outcome.receipt.success);
}

TEST(TradeFlContract, RestoreRejectsAnOutOfRangePhase) {
  ContractFixture fx;
  fx.register_all();
  const ContractFactory factory = [&fx](const std::string&) -> ContractPtr {
    return std::make_unique<TradeFlContract>(fx.config);
  };
  Bytes saved = fx.chain.save_chain_state();
  ASSERT_TRUE(Blockchain().restore_chain_state(saved, factory).ok());

  // The ledger stores the contract as its name ("TradeFL", u32-prefixed)
  // then its u32-prefixed state, whose first byte is the phase.
  const Bytes name = {7, 0, 0, 0, 'T', 'r', 'a', 'd', 'e', 'F', 'L'};
  const auto at = std::search(saved.begin(), saved.end(), name.begin(), name.end());
  ASSERT_NE(at, saved.end());
  const auto phase = static_cast<std::size_t>(at - saved.begin()) + name.size() + 4;
  ASSERT_EQ(saved.at(phase), static_cast<std::uint8_t>(ContractPhase::kRegistration));
  saved[phase] = 7;

  Blockchain restored;
  const Status status = restored.restore_chain_state(saved, factory);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "chain.snapshot");
  EXPECT_EQ(restored.block_count(), 1u);  // fail closed: still only genesis
}

TEST(TradeFlContract, ConstructorValidation) {
  TradeFlContractConfig config;
  config.org_count = 1;
  EXPECT_THROW(TradeFlContract{config}, std::invalid_argument);
  config.org_count = 2;
  config.rho.assign(3, Fixed{});
  EXPECT_THROW(TradeFlContract{config}, std::invalid_argument);
  config.rho.assign(4, Fixed{});
  config.rho[0] = Fixed::from_double(0.5);  // nonzero diagonal
  config.data_size_gb.assign(2, Fixed::from_int(20));
  EXPECT_THROW(TradeFlContract{config}, std::invalid_argument);
}

TEST(TradeFlContract, MatchesEq9OffChain) {
  // Cross-check the on-chain fixed-point r_{i,j} against a double-precision
  // evaluation of Eq. (9).
  const double gamma_scaled = 5.12, lambda = 2.0, rho = 0.05, s_gb = 20.0, f_ghz = 3.0;
  ContractFixture fx(3, gamma_scaled, rho);
  fx.register_all();
  fx.deposit_all();
  const std::vector<double> ds{1.0, 0.4, 0.01};
  fx.contribute_all(ds);
  fx.web3.call_or_throw(fx.orgs[0], fx.contract, "payoffCalculate");
  auto chi = [&](std::size_t i) { return ds[i] * s_gb + lambda * f_ghz; };
  for (std::size_t i = 0; i < 3; ++i) {
    double expected = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) expected += gamma_scaled * rho * (chi(i) - chi(j));
    }
    const Wei on_chain = std::get<std::int64_t>(
        fx.web3.call_or_throw(fx.orgs[i], fx.contract, "payoffOf",
                              {static_cast<std::uint64_t>(i)})
            .returned.at(0));
    EXPECT_NEAR(static_cast<double>(on_chain) / Fixed::kScale, expected, 1e-6)
        << "org " << i;
  }
}

TEST(TradeFlContract, MultiRoundTrading) {
  ContractFixture fx;
  fx.register_all();
  fx.deposit_all();
  fx.contribute_all({0.9, 0.5, 0.1});
  fx.web3.call_or_throw(fx.orgs[0], fx.contract, "payoffCalculate");
  fx.web3.call_or_throw(fx.orgs[0], fx.contract, "payoffTransfer");

  // Round 1 settled; round counter is 1 until reopened.
  auto round = fx.web3.call_or_throw(fx.orgs[0], fx.contract, "roundOf");
  EXPECT_EQ(std::get<std::uint64_t>(round.returned.at(0)), 1u);

  // Reopening requires membership and a settled round.
  const Address stranger = Address::from_name("stranger");
  fx.chain.credit(stranger, 1000);
  EXPECT_FALSE(fx.web3.call(stranger, fx.contract, "newRound").receipt.success);
  fx.web3.call_or_throw(fx.orgs[1], fx.contract, "newRound");
  round = fx.web3.call_or_throw(fx.orgs[0], fx.contract, "roundOf");
  EXPECT_EQ(std::get<std::uint64_t>(round.returned.at(0)), 2u);
  EXPECT_EQ(fx.phase(), 0u);  // back to awaiting deposits

  // A premature reopen of an unsettled round is rejected.
  EXPECT_FALSE(fx.web3.call(fx.orgs[0], fx.contract, "newRound").receipt.success);

  // Round 2 runs end to end with fresh contributions.
  fx.deposit_all();
  fx.contribute_all({0.2, 0.6, 0.9});
  fx.web3.call_or_throw(fx.orgs[0], fx.contract, "payoffCalculate");
  // Org 2 is now the largest contributor.
  const Wei payoff2 = std::get<std::int64_t>(
      fx.web3.call_or_throw(fx.orgs[2], fx.contract, "payoffOf", {std::uint64_t{2}})
          .returned.at(0));
  EXPECT_GT(payoff2, 0);
  fx.web3.call_or_throw(fx.orgs[0], fx.contract, "payoffTransfer");
  EXPECT_EQ(fx.chain.balance(fx.contract), 0);
  EXPECT_TRUE(fx.chain.validate().valid);
}

}  // namespace
}  // namespace tradefl::chain

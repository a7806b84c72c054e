// The TradeFL smart contract (Sec. III-F, Table I, Fig. 3). Implements the
// paper's five ABI functions:
//   depositSubmit()      — issue bonds (escrow) to the contract
//   contributionSubmit() — report the optimal profile {d_i*, f_i*}
//   payoffCalculate()    — compute the redistribution r*_{i,j} (Eq. 9)
//   payoffTransfer()     — execute the redistribution and refund margins
//   profileRecord()      — read back the recorded profile for arbitration
// plus `register()`, which the Fig. 3 procedure performs in step 1.
//
// All arithmetic is deterministic Fixed (1e-9) math. Units: data sizes are
// supplied in GB (s_i / 1e9) and frequencies in GHz, with γ pre-scaled by
// 1e9 accordingly, so χ_i = d_i s_i + λ f_i stays comfortably inside the
// fixed-point range while r_{i,j} keeps its Eq. (9) value.
// Settlement moves integer wei at 1e9 wei per payoff unit; the pairwise
// amounts are computed once per unordered pair and applied antisymmetrically,
// so budget balance holds EXACTLY in integer wei (Definition 5 / Theorem 2).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "chain/vm.h"

namespace tradefl::chain {

struct TradeFlContractConfig {
  /// γ · 1e9 — incentive intensity re-scaled for GB/GHz units (see above).
  Fixed gamma_scaled;

  /// λ — resource-magnitude parameter of Eq. (9).
  Fixed lambda;

  /// ρ — competition matrix, row-major n*n, zero diagonal.
  std::vector<Fixed> rho;
  std::size_t org_count = 0;

  /// s_i in GB, one per organization (fixed facts agreed off-chain).
  std::vector<Fixed> data_size_gb;

  /// Minimum deposit (wei) an organization must escrow before contributing.
  Wei min_deposit = 0;
};

/// Lifecycle phase of a trading round.
enum class ContractPhase : std::uint8_t { kRegistration = 0, kContribution = 1, kSettled = 2 };

class TradeFlContract final : public Contract {
 public:
  explicit TradeFlContract(TradeFlContractConfig config);

  [[nodiscard]] std::string contract_name() const override { return "TradeFL"; }

  /// Methods (ABI):
  ///   register(address org, u64 index)
  ///   depositSubmit()                       [payable]
  ///   contributionSubmit(fixed d, fixed f_ghz)
  ///   payoffCalculate()
  ///   payoffTransfer()
  ///   profileRecord(u64 index) -> [fixed d, fixed f_ghz, i64 payoff_wei, u64 phase]
  ///   newRound()                            [after settlement: next trading round]
  ///   roundOf() -> [u64]
  ///   phase() -> [u64]
  ///   depositOf(u64 index) -> [i64]
  ///   payoffOf(u64 index) -> [i64]    (net redistribution in wei, after calculate)
  std::vector<AbiValue> call(CallContext& context, const std::string& method,
                             const std::vector<AbiValue>& args) override;

  [[nodiscard]] Bytes save_state() const override;
  void load_state(const Bytes& state) override;

 private:
  struct OrgState {
    Address account{};
    bool registered = false;
    Wei deposit = 0;
    bool contributed = false;
    Fixed d{};
    Fixed f_ghz{};
    Wei net_payoff = 0;  // Σ_j r_{i,j} in wei, set by payoffCalculate

    template <class Ar>
    friend void fields(Ar& ar, OrgState& org) {
      ar(org.account, org.registered, org.deposit, org.contributed, org.d, org.f_ghz,
         org.net_payoff);
    }
  };

  /// The save_state bytes. The org count travels as a u32 and must equal the
  /// configured one on load; the org records are read in place.
  template <class Ar>
  friend void fields(Ar& ar, TradeFlContract& contract) {
    auto count = static_cast<std::uint32_t>(contract.orgs_.size());
    ar(as_enum<std::uint8_t>(contract.phase_, ContractPhase::kSettled),
       contract.payoffs_calculated_, contract.round_, count);
    if (count != contract.orgs_.size()) {
      throw std::invalid_argument("contract: state org count mismatch");
    }
    for (OrgState& org : contract.orgs_) ar(org);
  }

  [[nodiscard]] std::size_t org_index_of(const Address& account) const;
  [[nodiscard]] Fixed chi(std::size_t index) const;  // d_i s_i + λ f_i (GB units)

  std::vector<AbiValue> do_register(CallContext& context, const std::vector<AbiValue>& args);
  std::vector<AbiValue> do_deposit(CallContext& context);
  std::vector<AbiValue> do_contribution(CallContext& context, const std::vector<AbiValue>& args);
  std::vector<AbiValue> do_calculate(CallContext& context);
  std::vector<AbiValue> do_transfer(CallContext& context);
  std::vector<AbiValue> do_profile(CallContext& context, const std::vector<AbiValue>& args) const;
  std::vector<AbiValue> do_new_round(CallContext& context);

  TradeFlContractConfig config_;
  std::vector<OrgState> orgs_;
  ContractPhase phase_ = ContractPhase::kRegistration;
  bool payoffs_calculated_ = false;
  std::uint64_t round_ = 1;
};

}  // namespace tradefl::chain

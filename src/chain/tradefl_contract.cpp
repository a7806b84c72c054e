#include "chain/tradefl_contract.h"

#include <stdexcept>

#include "obs/obs.h"

namespace tradefl::chain {
namespace {

/// 1 payoff unit settles as Fixed::kScale wei: the Fixed raw value IS the
/// wei amount.
Wei fixed_to_wei(Fixed value) {
  // Fixed raw is value * 1e9, which is exactly the wei amount.
  return value.raw();
}

}  // namespace

TradeFlContract::TradeFlContract(TradeFlContractConfig config) : config_(std::move(config)) {
  const std::size_t n = config_.org_count;
  if (n < 2) throw std::invalid_argument("TradeFL contract: need >= 2 organizations");
  if (config_.rho.size() != n * n) {
    throw std::invalid_argument("TradeFL contract: rho must be n*n");
  }
  if (config_.data_size_gb.size() != n) {
    throw std::invalid_argument("TradeFL contract: data_size_gb must have n entries");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (config_.rho[i * n + i].raw() != 0) {
      throw std::invalid_argument("TradeFL contract: rho diagonal must be zero");
    }
  }
  if (config_.min_deposit < 0) {
    throw std::invalid_argument("TradeFL contract: negative min_deposit");
  }
  orgs_.resize(n);
}

std::size_t TradeFlContract::org_index_of(const Address& account) const {
  for (std::size_t i = 0; i < orgs_.size(); ++i) {
    if (orgs_[i].registered && orgs_[i].account == account) return i;
  }
  throw Revert("caller is not a registered organization");
}

Fixed TradeFlContract::chi(std::size_t index) const {
  const OrgState& org = orgs_[index];
  return org.d * config_.data_size_gb[index] + config_.lambda * org.f_ghz;
}

std::vector<AbiValue> TradeFlContract::call(CallContext& context, const std::string& method,
                                            const std::vector<AbiValue>& args) {
  TFL_COUNTER_INC("contract.calls.count");
  TFL_SPAN("contract." + method);
  if (method == "register") return do_register(context, args);
  if (method == "depositSubmit") return do_deposit(context);
  if (method == "contributionSubmit") return do_contribution(context, args);
  if (method == "payoffCalculate") return do_calculate(context);
  if (method == "payoffTransfer") return do_transfer(context);
  if (method == "profileRecord") return do_profile(context, args);
  if (method == "newRound") return do_new_round(context);
  if (method == "roundOf") {
    context.gas->charge_storage_read();
    return {round_};
  }
  if (method == "phase") {
    context.gas->charge_storage_read();
    return {static_cast<std::uint64_t>(phase_)};
  }
  if (method == "depositOf") {
    context.gas->charge_storage_read();
    const std::size_t index = static_cast<std::size_t>(abi_u64(args, 0));
    if (index >= orgs_.size()) throw Revert("org index out of range");
    return {static_cast<std::int64_t>(orgs_[index].deposit)};
  }
  if (method == "payoffOf") {
    context.gas->charge_storage_read();
    const std::size_t index = static_cast<std::size_t>(abi_u64(args, 0));
    if (index >= orgs_.size()) throw Revert("org index out of range");
    if (!payoffs_calculated_) throw Revert("payoffs not calculated yet");
    return {static_cast<std::int64_t>(orgs_[index].net_payoff)};
  }
  throw Revert("unknown method: " + method);
}

std::vector<AbiValue> TradeFlContract::do_register(CallContext& context,
                                                   const std::vector<AbiValue>& args) {
  if (phase_ != ContractPhase::kRegistration) throw Revert("registration closed");
  const Address org_address = abi_address(args, 0);
  const std::size_t index = static_cast<std::size_t>(abi_u64(args, 1));
  if (index >= orgs_.size()) throw Revert("org index out of range");
  if (orgs_[index].registered) throw Revert("index already registered");
  for (const OrgState& other : orgs_) {
    if (other.registered && other.account == org_address) {
      throw Revert("address already registered");
    }
  }
  context.gas->charge_storage_write();
  orgs_[index].registered = true;
  orgs_[index].account = org_address;
  context.host->emit_event("Registered",
                           {org_address, static_cast<std::uint64_t>(index)});
  return {};
}

std::vector<AbiValue> TradeFlContract::do_deposit(CallContext& context) {
  const std::size_t index = org_index_of(context.caller);
  if (phase_ == ContractPhase::kSettled) throw Revert("round already settled");
  if (context.value <= 0) throw Revert("deposit must send positive value");
  context.gas->charge_storage_write();
  orgs_[index].deposit += context.value;
  context.host->emit_event("DepositSubmitted",
                           {context.caller, static_cast<std::int64_t>(context.value)});
  // Once every organization escrowed at least min_deposit, contributions open.
  bool everyone_funded = true;
  for (const OrgState& org : orgs_) {
    if (!org.registered || org.deposit < config_.min_deposit) everyone_funded = false;
  }
  if (everyone_funded && phase_ == ContractPhase::kRegistration) {
    phase_ = ContractPhase::kContribution;
  }
  return {static_cast<std::int64_t>(orgs_[index].deposit)};
}

std::vector<AbiValue> TradeFlContract::do_contribution(CallContext& context,
                                                       const std::vector<AbiValue>& args) {
  const std::size_t index = org_index_of(context.caller);
  if (phase_ != ContractPhase::kContribution) throw Revert("contributions not open");
  if (orgs_[index].deposit < config_.min_deposit) throw Revert("deposit below minimum");
  const Fixed d = abi_fixed(args, 0);
  const Fixed f_ghz = abi_fixed(args, 1);
  if (d < Fixed::from_int(0) || d > Fixed::from_int(1)) throw Revert("d outside [0, 1]");
  if (f_ghz < Fixed::from_int(0)) throw Revert("negative frequency");
  context.gas->charge_storage_write(2);
  orgs_[index].d = d;
  orgs_[index].f_ghz = f_ghz;
  orgs_[index].contributed = true;
  context.host->emit_event("ContributionSubmitted", {context.caller, d, f_ghz});
  return {};
}

std::vector<AbiValue> TradeFlContract::do_calculate(CallContext& context) {
  if (phase_ != ContractPhase::kContribution) throw Revert("contributions not open");
  for (const OrgState& org : orgs_) {
    if (!org.contributed) throw Revert("not all organizations contributed");
  }
  const std::size_t n = orgs_.size();
  // r_{i,j} = γ ρ_{i,j} (χ_i - χ_j) (Eq. 9), computed once per unordered
  // pair with the SYMMETRIZED coefficient so the settlement matrix is
  // exactly antisymmetric in integer wei (budget balance, Definition 5).
  std::vector<Wei> net(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Fixed chi_i = chi(i);
    for (std::size_t j = i + 1; j < n; ++j) {
      context.gas->charge_compute(4);
      const Fixed chi_j = chi(j);
      const Fixed rho_ij = config_.rho[i * n + j];
      const Fixed amount = config_.gamma_scaled * rho_ij * (chi_i - chi_j);
      const Wei wei = fixed_to_wei(amount);
      net[i] += wei;
      net[j] -= wei;
    }
  }
  context.gas->charge_storage_write(n);
  for (std::size_t i = 0; i < n; ++i) orgs_[i].net_payoff = net[i];
  payoffs_calculated_ = true;
  context.host->emit_event("PayoffCalculated", {static_cast<std::uint64_t>(n)});
  return {};
}

std::vector<AbiValue> TradeFlContract::do_transfer(CallContext& context) {
  if (!payoffs_calculated_) throw Revert("payoffCalculate must run first");
  if (phase_ == ContractPhase::kSettled) throw Revert("already settled");

  // Check solvency first: every negative net payoff must be covered by that
  // organization's escrowed deposit, otherwise the whole settlement reverts.
  for (const OrgState& org : orgs_) {
    if (org.net_payoff < 0 && org.deposit < -org.net_payoff) {
      throw Revert("deposit of " + org.account.to_hex() + " cannot cover its redistribution");
    }
  }

  // Apply the redistribution against deposits, then refund the remaining
  // margin to each organization's account ("refunds the margin", Fig. 3).
  for (OrgState& org : orgs_) {
    context.gas->charge_storage_write();
    org.deposit += org.net_payoff;
  }
  for (OrgState& org : orgs_) {
    if (org.deposit > 0) {
      context.host->contract_transfer(org.account, org.deposit);
      context.host->emit_event(
          "PayoffTransferred",
          {org.account, static_cast<std::int64_t>(org.net_payoff),
           static_cast<std::int64_t>(org.deposit)});
      org.deposit = 0;
    }
  }
  phase_ = ContractPhase::kSettled;
  return {};
}

std::vector<AbiValue> TradeFlContract::do_profile(CallContext& context,
                                                  const std::vector<AbiValue>& args) const {
  context.gas->charge_storage_read(3);
  const std::size_t index = static_cast<std::size_t>(abi_u64(args, 0));
  if (index >= orgs_.size()) throw Revert("org index out of range");
  const OrgState& org = orgs_[index];
  if (!org.contributed) throw Revert("no contribution recorded for this organization");
  context.host->emit_event("ProfileRecorded",
                           {org.account, org.d, org.f_ghz,
                            static_cast<std::int64_t>(org.net_payoff)});
  return {org.d, org.f_ghz, static_cast<std::int64_t>(org.net_payoff),
          static_cast<std::uint64_t>(phase_)};
}

std::vector<AbiValue> TradeFlContract::do_new_round(CallContext& context) {
  // Successive trading rounds (the repeated interaction of real consortia):
  // after settlement, any registered organization can open the next round.
  // Registrations persist; deposits, contributions, and payoffs reset.
  (void)org_index_of(context.caller);  // membership gate; throws for strangers
  if (phase_ != ContractPhase::kSettled) throw Revert("current round not settled");
  for (OrgState& org : orgs_) {
    org.deposit = 0;
    org.contributed = false;
    org.d = Fixed{};
    org.f_ghz = Fixed{};
    org.net_payoff = 0;
  }
  payoffs_calculated_ = false;
  phase_ = ContractPhase::kRegistration;
  ++round_;
  context.gas->charge_storage_write(orgs_.size());
  context.host->emit_event("RoundOpened", {round_});
  // Registration is already complete, so deposits immediately gate the phase;
  // re-run the funded check (everyone is at zero, so we stay in Registration
  // until deposits arrive).
  return {round_};
}

Bytes TradeFlContract::save_state() const {
  ByteWriter writer;
  writer(*this);
  return writer.release();
}

void TradeFlContract::load_state(const Bytes& state) {
  ByteReader reader(state);
  reader(*this);
}

}  // namespace tradefl::chain

// TradingSession — the end-to-end Fig. 3 procedure, tying every substrate
// together:
//   1. spin up a private chain, fund organization accounts, deploy the
//      TradeFL contract parameterized with (γ, λ, ρ, s);
//   2. each organization registers and escrows its deposit (depositSubmit);
//   3. the equilibrium contribution profile {d*, f*} is computed off-chain by
//      the chosen scheme (CGBD / DBR / baselines, Sec. V);
//   4. optionally, FedAvg training runs with the equilibrium data fractions
//      (the global model of Sec. III-B);
//   5. organizations report their profiles (contributionSubmit), the contract
//      computes r*_{i,j} (payoffCalculate) and settles (payoffTransfer);
//   6. the session verifies the mechanism properties off-chain AND the
//      settlement on-chain (budget balance in integer wei, chain validity,
//      consistency between Eq. (9) computed in doubles and in fixed point).
#pragma once

#include <atomic>
#include <optional>
#include <string>

#include "chain/tradefl_contract.h"
#include "chain/web3.h"
#include "common/faults.h"
#include "core/deviation_audit.h"
#include "core/mechanism.h"
#include "fl/fedavg.h"
#include "game/game.h"

namespace tradefl {

struct SessionOptions {
  core::Scheme scheme = core::Scheme::kDbr;
  core::SchemeOptions scheme_options{};

  /// Run FedAvg with the equilibrium fractions and record the model metrics.
  bool run_training = false;
  fl::ModelKind model = fl::ModelKind::kMlp;
  fl::DatasetKind dataset = fl::DatasetKind::kFmnistLike;
  fl::FedAvgOptions fedavg{};
  /// Scales |S_i| when materializing datasets (1.0 = the game's sample
  /// counts; smaller for fast runs).
  double sample_scale = 1.0;
  std::size_t test_samples = 400;

  /// Funding per organization account (wei). 0 = auto-size from the
  /// worst-case redistribution bound.
  chain::Wei funding = 0;

  /// Chain batch sealing: seal a block every N submitted transactions
  /// (0 = manual). 1 — the default — keeps the dev-chain block-per-call
  /// behaviour and therefore byte-identical session reports; larger batches
  /// trade block granularity for settlement throughput. Any transactions
  /// still pending after settlement are sealed before the final validation.
  std::size_t seal_every = 1;

  std::uint64_t seed = 2024;

  /// Fault plan for the whole session (empty = fault-free). The session owns
  /// the injector and threads it through solver, training, and chain phases.
  FaultPlan faults{};

  /// Retry policy for on-chain calls (only exercised when faults inject
  /// transient submission failures / gas exhaustion).
  chain::RetryPolicy retry{};

  /// Crash-consistent checkpointing (empty = none). The session snapshots at
  /// every phase boundary into `checkpoint_dir`/session.snap, the chain keeps
  /// a write-ahead block log in chain.wal, and the solver / training
  /// sub-pipelines checkpoint into cgbd.snap / fedavg.snap in the same
  /// directory. With `resume`, the session continues at the last completed
  /// phase — escrow intact, fault cursors restored — and re-produces the
  /// uninterrupted run's result bit-identically. A missing checkpoint under
  /// `resume` starts fresh (kill-anywhere semantics: the crash may predate
  /// the first durable snapshot); a corrupt one fails closed.
  std::string checkpoint_dir;
  /// Forwarded to the sub-pipelines (FedAvg rounds / CGBD iterations per
  /// snapshot); session-level snapshots always land on phase boundaries.
  std::size_t checkpoint_every = 1;
  bool resume = false;

  /// Cooperative cancellation token (nullptr = never cancelled; must outlive
  /// run()). Checked at every phase boundary and threaded into the CGBD
  /// iteration loop and FedAvg round loop; a fired token makes run() throw
  /// OperationCancelled after the last completed phase's checkpoint is
  /// already durable, so a cancelled session resumes bit-identically. The
  /// serve daemon's watchdog and drain paths own the token.
  const std::atomic<bool>* cancel = nullptr;
};

/// One contained failure: the session survived it, degraded, and reports it
/// here instead of aborting.
struct Degradation {
  std::string phase;   // "solve", "training", "chain"
  std::string detail;
};

/// Persisted field list (common/snapshot.h); the session checkpoint carries
/// the degradations absorbed so far.
template <class Ar>
void fields(Ar& ar, Degradation& degradation) {
  ar(degradation.phase, degradation.detail);
}

struct SessionResult {
  core::MechanismResult mechanism;
  core::PropertyReport properties;
  std::optional<fl::FedAvgResult> training;
  /// Strategic-deviation audit — present when the fault plan schedules
  /// adversarial updates and the training phase completed.
  std::optional<core::DeviationAudit> deviation;

  chain::Address contract_address{};
  std::vector<chain::Wei> settlements_wei;  // on-chain net payoff per org
  chain::Wei settlement_sum = 0;            // must be exactly 0 (budget balance)
  double max_settlement_gap = 0.0;          // |on-chain - off-chain| in payoff units
  bool chain_valid = false;
  std::uint64_t total_gas = 0;
  std::size_t blocks = 0;
  std::size_t events = 0;

  /// True once payoffTransfer landed; false when the chain phase aborted
  /// after exhausted retries (settlements_wei stays zeroed).
  bool settled = false;
  /// Every contained fault, in the order the session absorbed it. Empty in a
  /// healthy run.
  std::vector<Degradation> degradations;
  std::uint64_t retry_attempts = 0;  // on-chain retries consumed this run
};

class TradingSession {
 public:
  explicit TradingSession(const game::CoopetitionGame& game);

  /// Runs the full procedure. The session owns a fresh chain per run.
  SessionResult run(const SessionOptions& options = {});

  /// The chain of the most recent run (for inspection / arbitration demos).
  [[nodiscard]] chain::Blockchain& blockchain();

  /// Organization account address used on-chain.
  [[nodiscard]] chain::Address org_address(game::OrgId i) const;

 private:
  const game::CoopetitionGame* game_;
  std::unique_ptr<chain::Blockchain> chain_;
};

}  // namespace tradefl

#include "tradefl/session.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "common/logging.h"
#include "common/snapshot.h"
#include "obs/obs.h"

namespace tradefl {

using chain::Address;
using chain::Fixed;
using chain::Wei;

TradingSession::TradingSession(const game::CoopetitionGame& game) : game_(&game) {}

chain::Blockchain& TradingSession::blockchain() {
  if (!chain_) throw std::runtime_error("session: no run yet");
  return *chain_;
}

Address TradingSession::org_address(game::OrgId i) const {
  return Address::from_name(game_->org(i).name);
}

namespace {

// ----- session checkpoint (phase-boundary snapshots) -----

// v2: the aggregation rule joined the resume fingerprint and the result
// carries the optional strategic-deviation audit.
constexpr std::uint32_t kSessionSnapshotVersion = 2;
constexpr const char* kSessionSnapshotKind = "tradefl.session";

/// Everything a resumed session needs to continue at the last completed
/// phase: the result fields filled so far, plus — once the chain exists —
/// the full chain state (escrow included) and the Web3 fault cursor, so
/// re-executed calls draw the same injected faults the killed run would
/// have seen.
struct SessionCheckpoint {
  // Fingerprint: resuming under a different experiment fails closed.
  std::uint64_t org_count = 0;
  std::uint64_t seed = 0;
  std::uint64_t scheme = 0;
  bool run_training = false;
  fl::AggregatorSpec aggregator{};

  /// 1 = solve, 2 = training, 3 = escrow, 4 = contributions, 5 = settled.
  std::uint64_t completed_phase = 0;
  SessionResult result;

  bool has_chain = false;  // phases >= 3 carry the chain alongside
  chain::Bytes chain_state;
  std::uint64_t call_index = 0;
  std::uint64_t retry_sequence = 0;
  std::uint64_t retry_attempts = 0;  // lifetime web3 attempts at snapshot time
  bool chain_ok = true;
};

template <class Ar>
void fields(Ar& ar, SessionCheckpoint& state) {
  SessionResult& result = state.result;
  ar(state.org_count, state.seed, state.scheme, state.run_training, state.aggregator,
     state.completed_phase, result.mechanism, result.properties, result.training,
     result.deviation, result.degradations, state.has_chain);
  if (state.has_chain) {
    ar(result.contract_address, state.chain_state, state.call_index, state.retry_sequence,
       state.retry_attempts, state.chain_ok);
  }
  // Cross-check fields (meaningful once completed_phase == 5; written
  // unconditionally so the layout never forks on phase).
  ar(result.settlements_wei, result.settlement_sum, result.max_settlement_gap, result.chain_valid,
     result.total_gas, result.blocks, result.events, result.settled, result.retry_attempts);
}

Result<std::size_t> write_session_checkpoint(const std::string& path,
                                             const SessionCheckpoint& state) {
  SnapshotWriter writer;
  writer(state);
  return write_snapshot_file(path, kSessionSnapshotKind, kSessionSnapshotVersion, writer);
}

Result<SessionCheckpoint> read_session_checkpoint(const std::string& path) {
  auto payload = read_snapshot_file(path, kSessionSnapshotKind, kSessionSnapshotVersion);
  if (!payload.ok()) return payload.error();
  return decode_snapshot<SessionCheckpoint>(payload.value(), [](SnapshotReader& reader) {
    SessionCheckpoint state;
    reader(state);
    return state;
  });
}

[[noreturn]] void fail_session(const char* action, const Error& error) {
  throw std::runtime_error(std::string("session ") + action + " failed closed [" + error.code +
                           "]: " + error.message);
}

/// Projects the FedAvg result into the layer-neutral view the deviation
/// audit consumes (core/ cannot depend on fl/ directly).
core::TrainingObservation observe_training(const fl::FedAvgResult& training) {
  core::TrainingObservation observed;
  observed.measured_accuracy = training.final_accuracy;
  observed.attacked_updates = training.total_attacked;
  observed.rejected_updates = training.total_rejected;
  observed.clipped_updates = training.total_clipped;
  observed.executed_rounds = training.history.size();
  double influence_sum = 0.0;
  for (const fl::RoundMetrics& round : training.history) {
    if (round.skipped) continue;
    ++observed.aggregated_rounds;
    influence_sum += round.attacker_influence;
  }
  observed.attacker_influence =
      observed.aggregated_rounds > 0
          ? influence_sum / static_cast<double>(observed.aggregated_rounds)
          : 0.0;
  observed.client_influence = training.client_influence;
  observed.client_rejected = training.client_rejected;
  return observed;
}

}  // namespace

SessionResult TradingSession::run(const SessionOptions& options) {
  TFL_SPAN("session.run");
  TFL_LATENCY_TIMER("session.latency.seconds");
  TFL_LEDGER_PHASE("session.run");
  const game::CoopetitionGame& game = *game_;
  const std::size_t n = game.size();
  SessionResult result;

  // One injector drives every phase; a default-constructed plan disables it.
  const FaultInjector injector(options.faults);
  const FaultInjector* faults = injector.enabled() ? &injector : nullptr;
  const auto degraded = [&](const char* phase, const std::string& detail) {
    result.degradations.push_back(Degradation{phase, detail});
    TFL_COUNTER_INC("session.degradations");
    TFL_WARN << "session degraded [" << phase << "]: " << detail;
  };

  // ---- Checkpoint plumbing (see SessionOptions::checkpoint_dir). ----
  const bool checkpointing = !options.checkpoint_dir.empty();
  const std::string session_snap =
      checkpointing ? options.checkpoint_dir + "/session.snap" : std::string();
  const std::string wal_path =
      checkpointing ? options.checkpoint_dir + "/chain.wal" : std::string();
  if (checkpointing) {
    std::error_code ec;
    std::filesystem::create_directories(options.checkpoint_dir, ec);
    // Best-effort: an unusable directory surfaces as a typed write error below.
  }

  std::uint64_t completed_phase = 0;
  std::uint64_t retry_baseline = 0;
  std::uint64_t resumed_call_index = 0;
  std::uint64_t resumed_retry_sequence = 0;
  chain::Bytes resumed_chain_state;
  bool resumed_has_chain = false;
  bool chain_ok = true;

  if (checkpointing && options.resume && snapshot_exists(session_snap)) {
    Result<SessionCheckpoint> loaded = read_session_checkpoint(session_snap);
    if (!loaded.ok()) fail_session("resume", loaded.error());
    SessionCheckpoint& state = loaded.value();
    if (state.org_count != n || state.seed != options.seed ||
        state.scheme != static_cast<std::uint64_t>(options.scheme) ||
        state.run_training != options.run_training ||
        state.aggregator != options.fedavg.aggregator) {
      fail_session("resume", Error{"snapshot.decode",
                                   "checkpoint belongs to a different session configuration"});
    }
    completed_phase = state.completed_phase;
    result = std::move(state.result);
    resumed_has_chain = state.has_chain;
    resumed_chain_state = std::move(state.chain_state);
    resumed_call_index = state.call_index;
    resumed_retry_sequence = state.retry_sequence;
    retry_baseline = state.retry_attempts;
    chain_ok = state.chain_ok;
    TFL_COUNTER_INC("snapshot.resumes");
    TFL_INFO << "session resumed at completed phase " << completed_phase;
  }

  chain::Web3Client* web3_ptr = nullptr;
  const auto save_phase = [&](std::uint64_t phase) {
    if (!checkpointing) return;
    SessionCheckpoint state;
    state.org_count = n;
    state.seed = options.seed;
    state.scheme = static_cast<std::uint64_t>(options.scheme);
    state.run_training = options.run_training;
    state.aggregator = options.fedavg.aggregator;
    state.completed_phase = phase;
    state.result = result;
    if (phase >= 3 && chain_ && web3_ptr != nullptr) {
      state.has_chain = true;
      state.chain_state = chain_->save_chain_state();
      state.call_index = web3_ptr->call_index();
      state.retry_sequence = web3_ptr->retry_sequence();
      state.retry_attempts = retry_baseline + web3_ptr->retry_attempts();
      state.chain_ok = chain_ok;
    }
    const Result<std::size_t> written = write_session_checkpoint(session_snap, state);
    if (!written.ok()) fail_session("checkpoint", written.error());
    TFL_COUNTER_INC("snapshot.writes");
    TFL_COUNTER_ADD("snapshot.bytes", written.value());
    // A scheduled crash fires only after the phase is durable, so the killed
    // run is always resumable from exactly this boundary.
    crash_if_scheduled(faults, phase);
  };

  // Phase entry guard: cooperative cancellation plus the deterministic
  // `hang:<phase>` fault (blocks until the cancel token fires — the watchdog
  // test's stand-in for a wedged solve). Both fire before any phase work, so
  // the durable state is exactly the previous phase boundary.
  const auto enter_phase = [&](std::uint64_t phase) {
    check_cancelled(options.cancel);
    hang_if_scheduled(faults, phase, options.cancel);
  };

  // ---- 1. Equilibrium computation (off-chain, Sec. V). ----
  if (completed_phase < 1) {
    enter_phase(1);
    TFL_SPAN("session.solve");
    TFL_LEDGER_PHASE("session.solve");
    core::SchemeOptions scheme_options = options.scheme_options;
    scheme_options.cgbd.faults = faults;
    scheme_options.cgbd.cancel = options.cancel;
    if (checkpointing) {
      scheme_options.cgbd.checkpoint_path = options.checkpoint_dir + "/cgbd.snap";
      scheme_options.cgbd.checkpoint_every = options.checkpoint_every;
      scheme_options.cgbd.resume =
          options.resume && snapshot_exists(scheme_options.cgbd.checkpoint_path);
    }
    // A solve failure is not containable — without {d*, f*} there is nothing
    // to trade — so it propagates to the caller instead of degrading.
    result.mechanism = core::run_scheme(game, options.scheme, scheme_options);
    result.properties = core::verify_properties(game, result.mechanism,
                                                options.scheme != core::Scheme::kTos);
    save_phase(1);
  }
  const game::StrategyProfile& profile = result.mechanism.solution.profile;

  // ---- 2. Optional FedAvg training with the equilibrium fractions. ----
  if (completed_phase < 2) {
    enter_phase(2);
    if (options.run_training) {
      TFL_SPAN("session.train");
      TFL_LEDGER_PHASE("session.train");
      try {
        const fl::DatasetSpec concept_spec =
            fl::DatasetSpec::builtin(options.dataset, options.seed);
        std::vector<fl::Dataset> locals;
        locals.reserve(n);  // clients point into it
        std::vector<fl::FedClient> clients;
        const fl::Dataset test_set = [&] {
          TFL_SPAN("session.materialize");
          TFL_LEDGER_PHASE("session.materialize");
          // Each shard stores only the images FedAvg will read: the subset
          // train_fedavg derives from the same (size, d_i, seed).
          for (game::OrgId i = 0; i < n; ++i) {
            const std::size_t samples = std::max<std::size_t>(
                8, static_cast<std::size_t>(std::lround(
                       options.sample_scale * static_cast<double>(game.org(i).sample_count))));
            const double fraction = profile[i].data_fraction;
            const std::uint64_t seed = options.seed * 131 + i;
            locals.emplace_back(concept_spec.with_sample_seed(options.seed + i + 1), samples,
                                fraction > 0.0 ? fl::contributed_indices(samples, fraction, seed)
                                               : std::vector<std::size_t>{});
            clients.push_back(fl::FedClient{&locals.back(), fraction, seed});
          }
          return fl::Dataset(concept_spec.with_sample_seed(options.seed + 7777),
                             options.test_samples);
        }();
        fl::ModelSpec model_spec;
        model_spec.kind = options.model;
        model_spec.channels = concept_spec.channels;
        model_spec.height = concept_spec.height;
        model_spec.width = concept_spec.width;
        model_spec.classes = concept_spec.classes;
        model_spec.seed = options.seed;
        fl::FedAvgOptions fedavg_options = options.fedavg;
        fedavg_options.faults = faults;
        fedavg_options.cancel = options.cancel;
        if (checkpointing) {
          fedavg_options.checkpoint_path = options.checkpoint_dir + "/fedavg.snap";
          fedavg_options.checkpoint_every = options.checkpoint_every;
          fedavg_options.resume =
              options.resume && snapshot_exists(fedavg_options.checkpoint_path);
        }
        result.training = fl::train_fedavg(model_spec, clients, test_set, fedavg_options);
        if (result.training->rounds_skipped > 0) {
          degraded("training", std::to_string(result.training->rounds_skipped) +
                                   " round(s) skipped below quorum " +
                                   std::to_string(fedavg_options.quorum));
        }
        if (result.training->total_quarantined > 0) {
          degraded("training", std::to_string(result.training->total_quarantined) +
                                   " corrupted update(s) quarantined");
        }
        // Strategic-deviation audit: when the plan schedules adversarial
        // updates, re-check IR/BB/CE empirically against the accuracy the
        // attacked run actually reached and price each deviator's gain.
        if (faults != nullptr && options.faults.has_attacks()) {
          result.deviation = core::audit_deviation(game, result.mechanism, result.properties,
                                                   observe_training(*result.training), *faults);
          TFL_INFO << result.deviation->summary();
          if (!result.deviation->ir_empirical || !result.deviation->bb_empirical) {
            degraded("training", "deviation audit: empirical mechanism property violated");
          }
        }
      } catch (const OperationCancelled&) {
        throw;  // the supervisor owns the token; cancellation is not a failure
      } catch (const InjectedCrash&) {
        throw;  // a contained crash must reach the server's containment scope
      } catch (const std::exception& failure) {
        // Training is advisory for the trade itself (the settlement depends on
        // the equilibrium profile, not the model), so its failure degrades the
        // session rather than aborting it.
        result.training.reset();
        degraded("training", failure.what());
      }
    }
    save_phase(2);
  }

  // ---- 3. Deploy chain + contract (or restore both from the checkpoint). ----
  chain_ = std::make_unique<chain::Blockchain>();

  chain::TradeFlContractConfig config;
  config.org_count = n;
  config.gamma_scaled = Fixed::from_double(game.params().gamma * 1e9);
  config.lambda = Fixed::from_double(game.params().lambda);
  config.rho.resize(n * n, Fixed{});
  for (game::OrgId i = 0; i < n; ++i) {
    for (game::OrgId j = 0; j < n; ++j) {
      if (i != j) config.rho[i * n + j] = Fixed::from_double(game.rho().at(i, j));
    }
  }
  config.data_size_gb.reserve(n);
  double worst_outflow = 0.0;
  for (game::OrgId i = 0; i < n; ++i) {
    const double s_gb = game.org(i).data_size_bits / 1e9;
    config.data_size_gb.push_back(Fixed::from_double(s_gb));
    // Worst-case redistribution outflow bound for deposit sizing: every
    // coopetitor maxes χ while org i sits at the minimum.
    const double f_max_ghz = game.org(i).freq_levels.back() / 1e9;
    const double chi_max = s_gb + game.params().lambda * f_max_ghz;
    worst_outflow = std::max(
        worst_outflow,
        game.params().gamma * 1e9 * game.rho().row_sum(i) * chi_max);
  }
  const Wei min_deposit =
      static_cast<Wei>(std::ceil(worst_outflow * 1.25 * Fixed::kScale)) + 1;
  config.min_deposit = min_deposit;

  if (completed_phase >= 3) {
    if (!resumed_has_chain) {
      fail_session("resume",
                   Error{"snapshot.decode", "phase >= 3 checkpoint lacks chain state"});
    }
    // The contract config is rebuilt deterministically from the game above,
    // so the factory recreates the exact contract the killed run deployed;
    // load_state then restores escrow, profiles, and round phase.
    const chain::ContractFactory factory =
        [&config](const std::string& name) -> chain::ContractPtr {
      if (name != "TradeFL") return nullptr;
      return std::make_unique<chain::TradeFlContract>(config);
    };
    const Status restored = chain_->restore_chain_state(resumed_chain_state, factory);
    if (!restored.ok()) fail_session("resume", restored.error());
  }
  if (checkpointing) {
    // Mirror-rewrite: the WAL is re-synced to the restored chain, discarding
    // any blocks the killed run sealed after its last durable snapshot (they
    // will be re-sealed identically by the re-executed phase).
    const Status attached = chain_->attach_wal(wal_path);
    if (!attached.ok()) fail_session("checkpoint", attached.error());
  }

  chain::Web3Client web3(*chain_, options.seal_every);
  web3.set_fault_injector(faults);
  web3.set_retry_policy(options.retry);
  if (completed_phase >= 3) {
    web3.restore_fault_cursor(resumed_call_index, resumed_retry_sequence);
  }
  web3_ptr = &web3;

  const Wei funding = options.funding > 0 ? options.funding : min_deposit * 2;
  if (funding < min_deposit) throw std::invalid_argument("session: funding below min deposit");

  // On-chain phases run through call_with_retry: transient injected failures
  // (submission loss, gas exhaustion) are absorbed by the RetryPolicy; a
  // giveup or revert aborts the REMAINING chain steps gracefully — the
  // contract simply never settles (escrow untouched on the simulated chain),
  // settlements stay zero, and the failure lands in `degradations`.
  const auto chain_call = [&](const Address& from, const std::string& method,
                              std::vector<chain::AbiValue> args = {},
                              Wei value = 0) -> Result<chain::CallOutcome> {
    Result<chain::CallOutcome> outcome =
        web3.call_with_retry(from, result.contract_address, method, args, value);
    if (!outcome) {
      chain_ok = false;
      degraded("chain", outcome.error().to_string());
    }
    return outcome;
  };

  // ---- 4. Register + deposit (Fig. 3 step 1). ----
  if (completed_phase < 3) {
    enter_phase(3);
    result.contract_address = chain_->deploy(
        std::make_unique<chain::TradeFlContract>(config));
    for (game::OrgId i = 0; i < n && chain_ok; ++i) {
      chain_->credit(org_address(i), funding);
      chain_call(org_address(i), "register", {org_address(i), static_cast<std::uint64_t>(i)});
      if (!chain_ok) break;
      chain_call(org_address(i), "depositSubmit", {}, min_deposit);
    }
    save_phase(3);
  }

  // ---- 5. Report contributions (Fig. 3 step 2). ----
  if (completed_phase < 4) {
    enter_phase(4);
    for (game::OrgId i = 0; i < n && chain_ok; ++i) {
      const double f_ghz = game.frequency(i, profile[i]) / 1e9;
      chain_call(org_address(i), "contributionSubmit",
                 {Fixed::from_double(profile[i].data_fraction), Fixed::from_double(f_ghz)});
    }
    save_phase(4);
  }

  // ---- 6. Settle (Fig. 3 step 3) + cross-checks. ----
  if (completed_phase < 5) {
    enter_phase(5);
    result.settlements_wei.assign(n, 0);
    if (chain_ok) {
      TFL_SPAN("session.settle");
      TFL_LATENCY_TIMER("chain.settle.seconds");
      TFL_LEDGER_PHASE("session.settle");
      chain_call(org_address(0), "payoffCalculate");
      for (game::OrgId i = 0; i < n && chain_ok; ++i) {
        // Exemplar Result chain: retried call -> decoded payoff without an
        // intermediate throw; a failed step short-circuits as the Error.
        const Result<Wei> payoff =
            chain_call(org_address(i), "payoffOf", {static_cast<std::uint64_t>(i)})
                .and_then([](const chain::CallOutcome& outcome) -> Result<Wei> {
                  if (outcome.returned.empty() ||
                      !std::holds_alternative<std::int64_t>(outcome.returned.front())) {
                    return Error{"decode", "payoffOf returned no int64 payoff"};
                  }
                  return std::get<std::int64_t>(outcome.returned.front());
                });
        if (payoff) result.settlements_wei[i] = payoff.value();
      }
      if (chain_ok) {
        chain_call(org_address(0), "payoffTransfer");
        result.settled = chain_ok;
      }
    }

    // ---- 7. Cross-checks. ----
    result.settlement_sum = 0;
    for (Wei wei : result.settlements_wei) result.settlement_sum += wei;
    if (result.settled) {
      for (game::OrgId i = 0; i < n; ++i) {
        const double off_chain = game.redistribution(i, profile);
        const double on_chain =
            static_cast<double>(result.settlements_wei[i]) / static_cast<double>(Fixed::kScale);
        result.max_settlement_gap =
            std::max(result.max_settlement_gap, std::abs(off_chain - on_chain));
      }
    }
    result.retry_attempts = retry_baseline + web3.retry_attempts();
    // Under batch sealing (seal_every > 1) the tail of the settlement flow
    // can still sit in the mempool; seal it so validation and the report
    // cover every transaction.
    if (chain_->has_pending()) chain_->seal_block();
    const chain::ChainValidation validation = chain_->validate();
    result.chain_valid = validation.valid;
    if (!validation.valid) TFL_ERROR << "session: chain invalid: " << validation.problem;
    for (const chain::Receipt& receipt : chain_->receipts()) result.total_gas += receipt.gas_used;
    result.blocks = chain_->block_count();
    result.events = chain_->events().size();
    save_phase(5);
  }
  return result;
}

}  // namespace tradefl

#include "fl/fedavg.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "common/check.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/snapshot.h"
#include "fl/gemm_kernels.h"
#include "fl/loss.h"
#include "obs/obs.h"

namespace tradefl::fl {

EvalResult evaluate(Net& net, const Dataset& data, std::size_t batch_size) {
  if (batch_size == 0) throw std::invalid_argument("evaluate: batch_size must be >= 1");
  EvalResult result;
  // Batches are independent eval forwards (the layers write no state when
  // training == false), so they fan out over the pool; per-batch results land
  // in indexed slots and are folded serially in batch order, keeping the
  // float summation identical at any thread count.
  const std::size_t batches = chunk_count(data.size(), batch_size);
  std::vector<double> batch_loss(batches, 0.0);
  std::vector<std::size_t> batch_correct(batches, 0);
  ThreadPool* pool = global_pool();
  TFL_GAUGE_SET("parallel.queue.depth", pool == nullptr ? 0 : batches);
  run_chunks(pool, batches, [&](std::size_t b, std::size_t) {
    const std::size_t start = b * batch_size;
    const std::size_t count = std::min(data.size() - start, batch_size);
    const Tensor logits = net.forward(data.batch_range(start, count), /*training=*/false);
    const LossResult loss = softmax_cross_entropy(logits, data.labels().data() + start, count);
    batch_loss[b] = loss.mean_loss * static_cast<double>(count);
    batch_correct[b] = loss.correct;
  });
  double loss_sum = 0.0;
  std::size_t correct = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    loss_sum += batch_loss[b];
    correct += batch_correct[b];
  }
  result.loss = loss_sum / static_cast<double>(data.size());
  result.accuracy = static_cast<double>(correct) / static_cast<double>(data.size());
  return result;
}

double train_local(Net& net, const Dataset& data, const std::vector<std::size_t>& contributed,
                   std::size_t epochs, std::size_t batch_size, std::size_t max_batches,
                   const SgdOptions& sgd, Rng& shuffle_rng) {
  Sgd optimizer(sgd);
  double loss_sum = 0.0;
  std::size_t batches = 0;
  // Epoch order and label buffers are reused across epochs/batches: the seed
  // rebuilt three vectors per epoch plus one per batch, which dominated the
  // allocator profile of small-model rounds.
  std::vector<std::size_t> shuffled = contributed;
  std::vector<std::size_t> labels;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    shuffle_rng.shuffle(shuffled);

    std::size_t epoch_batches = 0;
    for (std::size_t start = 0; start < shuffled.size(); start += batch_size) {
      if (max_batches > 0 && epoch_batches >= max_batches) break;
      const std::size_t end = std::min(shuffled.size(), start + batch_size);
      const std::size_t count = end - start;
      net.zero_grad();
      const Tensor logits =
          net.forward(data.batch_span(shuffled.data() + start, count), /*training=*/true);
      data.batch_labels_into(shuffled.data() + start, count, labels);
      const LossResult loss = softmax_cross_entropy(logits, labels.data(), count);
      net.backward(loss.grad);
      optimizer.step(net.parameters());
      loss_sum += loss.mean_loss;
      ++batches;
      ++epoch_batches;
    }
  }
  return batches == 0 ? 0.0 : loss_sum / static_cast<double>(batches);
}

namespace {

// ----- checkpointing -----

// v2: aggregator spec joined the fingerprint; round metrics and result carry
// the robust-aggregation fields (attacked/rejected/clipped/influence).
constexpr std::uint32_t kFedAvgSnapshotVersion = 2;
constexpr const char* kFedAvgSnapshotKind = "fl.fedavg";

/// The bits a resumed run must see exactly as the interrupted run left them.
struct FedAvgCheckpoint {
  // Fingerprint: a snapshot resumed under a different configuration would
  // silently train a different experiment, so mismatches fail closed.
  std::uint64_t client_count = 0;
  std::uint64_t weight_count = 0;
  std::uint64_t shuffle_seed = 0;
  std::uint64_t contributed_samples = 0;
  AggregatorSpec aggregator{};

  std::uint64_t round_completed = 0;
  std::vector<float> global_weights;
  std::vector<Rng::State> rng_states;
  std::vector<RoundMetrics> history;
  std::uint64_t rounds_skipped = 0;
  std::uint64_t total_dropped = 0;
  std::uint64_t total_quarantined = 0;
  std::uint64_t total_attacked = 0;
  std::uint64_t total_rejected = 0;
  std::uint64_t total_clipped = 0;
  // Raw per-client influence sums (normalized to means only in the final
  // result), so a resumed run keeps accumulating bit-identically.
  std::vector<double> influence_sums;
  std::vector<std::uint64_t> client_rejected;
};

template <class Ar>
void fields(Ar& ar, FedAvgCheckpoint& state) {
  ar(state.client_count, state.weight_count, state.shuffle_seed, state.contributed_samples,
     state.aggregator, state.round_completed, state.global_weights, state.rng_states,
     state.history, state.rounds_skipped, state.total_dropped, state.total_quarantined,
     state.total_attacked, state.total_rejected, state.total_clipped, state.influence_sums,
     state.client_rejected);
}

Result<std::size_t> write_fedavg_checkpoint(const std::string& path,
                                            const FedAvgCheckpoint& state) {
  SnapshotWriter writer;
  writer(state);
  return write_snapshot_file(path, kFedAvgSnapshotKind, kFedAvgSnapshotVersion, writer);
}

Result<FedAvgCheckpoint> read_fedavg_checkpoint(const std::string& path) {
  auto payload = read_snapshot_file(path, kFedAvgSnapshotKind, kFedAvgSnapshotVersion);
  if (!payload.ok()) return payload.error();
  return decode_snapshot<FedAvgCheckpoint>(payload.value(), [](SnapshotReader& reader) {
    FedAvgCheckpoint state;
    reader(state);
    return state;
  });
}

[[noreturn]] void fail_resume(const char* pipeline, const Error& error) {
  throw std::runtime_error(std::string(pipeline) + " resume failed closed [" + error.code +
                           "]: " + error.message);
}

}  // namespace

FedAvgResult train_fedavg(const ModelSpec& model_spec, const std::vector<FedClient>& clients,
                          const Dataset& test_set, const FedAvgOptions& options) {
  TFL_SPAN("fedavg.train");
  if (clients.empty()) throw std::invalid_argument("fedavg: need >= 1 client");
  if (options.rounds == 0) throw std::invalid_argument("fedavg: need >= 1 round");
  if (options.batch_size == 0) throw std::invalid_argument("fedavg: batch_size must be >= 1");

  // Pre-select each client's contributed subset (fixed across rounds: the
  // organization commits d_i |S_i| samples for the whole training run).
  std::vector<std::vector<std::size_t>> subsets(clients.size());
  FedAvgResult result;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    if (clients[c].data == nullptr) throw std::invalid_argument("fedavg: null client dataset");
    if (clients[c].fraction > 0.0) {
      subsets[c] = contributed_indices(clients[c].data->size(), clients[c].fraction,
                                       clients[c].seed);
    }
    result.total_contributed_samples += subsets[c].size();
  }
  if (result.total_contributed_samples == 0) {
    throw std::invalid_argument("fedavg: no client contributes any data");
  }

  Net global = build_model(model_spec);
  std::vector<float> global_weights = global.weights();

  ThreadPool* pool = global_pool();
  const std::size_t workers = pool == nullptr ? 1 : pool->size();
  TFL_GAUGE_SET("parallel.pool.size", workers);
  TFL_GAUGE_SET("fl.gemm.lanes", gemm::detail::selected().lanes);

  // One scratch net per pool worker: run_chunks assigns client c to worker
  // c % workers, so each net is only ever touched by one thread at a time.
  std::vector<Net> worker_nets;
  worker_nets.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) worker_nets.push_back(build_model(model_spec));

  // Per-client shuffle streams derived statelessly from the shared seed:
  // client c's epoch orders depend only on (shuffle_seed, c), never on which
  // thread ran it or which clients ran before it. Streams persist across
  // rounds, matching the serial semantics of one long-lived RNG per client.
  std::vector<Rng> client_rngs;
  client_rngs.reserve(clients.size());
  for (std::size_t c = 0; c < clients.size(); ++c) {
    client_rngs.emplace_back(Rng::derive_stream_seed(options.shuffle_seed, c));
  }

  const FaultInjector* faults =
      (options.faults != nullptr && options.faults->enabled()) ? options.faults : nullptr;
  const std::size_t quorum = std::max<std::size_t>(options.quorum, 1);

  // Per-client influence bookkeeping for the deviation audit: raw sums here,
  // normalized to per-round means only once training finishes.
  std::vector<double> influence_sums(clients.size(), 0.0);
  std::vector<std::uint64_t> client_rejected(clients.size(), 0);

  // Resume: restore the completed-round state exactly. The contributed
  // subsets are re-derived above (pure functions of the client seeds), so the
  // snapshot only needs weights + RNG words + metric history.
  std::size_t first_round = 1;
  if (options.resume && !options.checkpoint_path.empty() &&
      snapshot_exists(options.checkpoint_path)) {
    auto loaded = read_fedavg_checkpoint(options.checkpoint_path);
    if (!loaded.ok()) fail_resume("fedavg", loaded.error());
    FedAvgCheckpoint& state = loaded.value();
    if (state.client_count != clients.size() || state.weight_count != global_weights.size() ||
        state.shuffle_seed != options.shuffle_seed ||
        state.contributed_samples != result.total_contributed_samples) {
      fail_resume("fedavg", Error{"snapshot.mismatch",
                                  options.checkpoint_path +
                                      " was written by a differently-configured run"});
    }
    if (state.aggregator != options.aggregator) {
      fail_resume("fedavg",
                  Error{"snapshot.mismatch",
                        options.checkpoint_path + " was written under aggregator '" +
                            state.aggregator.spec_string() + "', this run requests '" +
                            options.aggregator.spec_string() + "'"});
    }
    if (state.rng_states.size() != clients.size() ||
        state.influence_sums.size() != clients.size() ||
        state.client_rejected.size() != clients.size()) {
      fail_resume("fedavg",
                  Error{"snapshot.mismatch", "per-client state count does not match"});
    }
    global_weights = std::move(state.global_weights);
    global.set_weights(global_weights);
    for (std::size_t c = 0; c < clients.size(); ++c) client_rngs[c].restore(state.rng_states[c]);
    result.history = std::move(state.history);
    result.rounds_skipped = static_cast<std::size_t>(state.rounds_skipped);
    result.total_dropped = static_cast<std::size_t>(state.total_dropped);
    result.total_quarantined = static_cast<std::size_t>(state.total_quarantined);
    result.total_attacked = static_cast<std::size_t>(state.total_attacked);
    result.total_rejected = static_cast<std::size_t>(state.total_rejected);
    result.total_clipped = static_cast<std::size_t>(state.total_clipped);
    influence_sums = std::move(state.influence_sums);
    client_rejected = std::move(state.client_rejected);
    first_round = static_cast<std::size_t>(state.round_completed) + 1;
    TFL_COUNTER_INC("snapshot.resumes");
    TFL_INFO << "fedavg resumed at round " << first_round << " from "
             << options.checkpoint_path;
  }

  const auto checkpoint_now = [&](std::size_t round_completed) {
    if (options.checkpoint_path.empty()) return;
    const std::size_t every = std::max<std::size_t>(options.checkpoint_every, 1);
    if (round_completed % every != 0 && round_completed != options.rounds) return;
    FedAvgCheckpoint state;
    state.client_count = clients.size();
    state.weight_count = global_weights.size();
    state.shuffle_seed = options.shuffle_seed;
    state.contributed_samples = result.total_contributed_samples;
    state.aggregator = options.aggregator;
    state.round_completed = round_completed;
    state.global_weights = global_weights;
    for (const Rng& rng : client_rngs) state.rng_states.push_back(rng.state());
    state.history = result.history;
    state.rounds_skipped = result.rounds_skipped;
    state.total_dropped = result.total_dropped;
    state.total_quarantined = result.total_quarantined;
    state.total_attacked = result.total_attacked;
    state.total_rejected = result.total_rejected;
    state.total_clipped = result.total_clipped;
    state.influence_sums = influence_sums;
    state.client_rejected = client_rejected;
    const auto written = write_fedavg_checkpoint(options.checkpoint_path, state);
    if (!written.ok()) {
      throw std::runtime_error("fedavg checkpoint write failed [" + written.error().code +
                               "]: " + written.error().message);
    }
    TFL_COUNTER_INC("snapshot.writes");
    TFL_COUNTER_ADD("snapshot.bytes", written.value());
  };

  for (std::size_t round = first_round; round <= options.rounds; ++round) {
    TFL_SPAN("fedavg.round");
    check_cancelled(options.cancel);
    // Injected crashes fire at the top of a round: everything up to and
    // including the previous checkpoint is durable, everything since is the
    // loss the resume path must reconstruct.
    crash_if_scheduled(faults, round);
    std::vector<double> local_losses(clients.size(), 0.0);
    std::vector<std::vector<float>> local_weights(clients.size());

    // The round's fault schedule is decided serially up front: every drop /
    // straggle / corruption is a pure function of (plan, round, client), so
    // the same plan replays identically at any thread count.
    std::vector<std::uint8_t> excluded(clients.size(), 0);
    std::vector<CorruptionSpec> corruption(clients.size());
    std::vector<AttackSpec> attacks(clients.size());
    std::size_t dropped = 0;
    std::size_t attacked = 0;
    if (faults != nullptr) {
      for (std::size_t c = 0; c < clients.size(); ++c) {
        if (subsets[c].empty()) continue;
        if (faults->drop_client(round, c)) {
          excluded[c] = 1;
          ++dropped;
          TFL_COUNTER_INC("fault.injected.dropout");
          continue;
        }
        const double scale = faults->straggler_scale(round, c);
        if (scale > 1.0) {
          TFL_COUNTER_INC("fault.injected.straggler");
          if (options.straggler_cutoff > 0.0 && scale >= options.straggler_cutoff) {
            // Missed the round deadline τ: synchronous FedAvg aggregates
            // without this client (same Eq. (3) renormalization as dropout).
            excluded[c] = 1;
            ++dropped;
            continue;
          }
        }
        corruption[c] = faults->corrupt_update(round, c);
        if (corruption[c].corrupt) TFL_COUNTER_INC("fault.injected.corruption");
        // Adversarial behaviour is decided at this serial point like every
        // other fault; the parallel loop below only applies the stored spec.
        attacks[c] = faults->attack_update(round, c);
        if (attacks[c].attack) {
          ++attacked;
          switch (attacks[c].kind) {
            case FaultKind::kSignFlip: TFL_COUNTER_INC("fault.injected.signflip"); break;
            case FaultKind::kScaleAttack: TFL_COUNTER_INC("fault.injected.scale_attack"); break;
            case FaultKind::kFreeRide: TFL_COUNTER_INC("fault.injected.freeride"); break;
            case FaultKind::kCollude: TFL_COUNTER_INC("fault.injected.collude"); break;
            default: break;
          }
        }
      }
    }

    {
      TFL_SCOPED_TIMER("fl.local_train.seconds");
      TFL_GAUGE_SET("parallel.queue.depth", pool == nullptr ? 0 : clients.size());
      run_chunks(pool, clients.size(), [&](std::size_t c, std::size_t w) {
        if (subsets[c].empty() || excluded[c] != 0) return;
        Net& net = worker_nets[w];
        net.set_weights(global_weights);
        local_losses[c] = train_local(net, *clients[c].data, subsets[c], options.local_epochs,
                                      options.batch_size, options.max_batches_per_epoch,
                                      options.sgd, client_rngs[c]);
        local_weights[c] = net.weights();
        // Attacks transform the honest update before any corruption stacks on
        // top: a Byzantine silo still trains (its RNG streams advance
        // identically to truthful play) but submits a crafted vector.
        if (attacks[c].attack) {
          apply_update_attack(local_weights[c], global_weights, attacks[c], *faults, round);
        }
        if (corruption[c].corrupt) {
          if (corruption[c].use_nan) {
            // Poison the update the way a diverged local step would: the
            // aggregation quarantine below must catch and discard it.
            local_weights[c].front() = std::numeric_limits<float>::quiet_NaN();
          } else {
            // Additive noise from the client's private stateless stream.
            Rng noise = faults->corruption_rng(round, c);
            for (float& weight : local_weights[c]) {
              weight += static_cast<float>(noise.normal(0.0, corruption[c].noise_stddev));
            }
          }
        }
      });
    }

    double train_loss_sum = 0.0;
    std::size_t participants = 0;
    std::size_t quarantined = 0;
    std::size_t rejected = 0;
    std::size_t clipped = 0;
    double attacker_influence = 0.0;
    bool skipped = false;
    {
      TFL_SCOPED_TIMER("fl.aggregate.seconds");
      // Survivors collect in fixed client order; the aggregator (default:
      // Eq. (3) weighted mean, bit-identical to the historical fold) then
      // combines them with thread-count-invariant arithmetic. Survivors
      // renormalize the weight sum, so dropouts shift influence, never scale.
      std::vector<ClientUpdate> updates;
      for (std::size_t c = 0; c < clients.size(); ++c) {
        if (local_weights[c].empty()) continue;
        // Quarantine: a non-finite update would poison every aggregated
        // weight through the shared sums, so it is discarded before Eq. (3).
        double finite_probe = 0.0;
        for (const float weight : local_weights[c]) {
          finite_probe += static_cast<double>(weight);
        }
        if (!std::isfinite(finite_probe)) {
          ++quarantined;
          TFL_COUNTER_INC("fl.updates.quarantined");
          continue;
        }
        updates.push_back({&local_weights[c], static_cast<double>(subsets[c].size()), c});
        train_loss_sum += local_losses[c];
        ++participants;
      }
      if (participants < quorum) {
        // Quorum failure: the round is skipped outright — the global model
        // stays put and the (possibly empty) survivor set is discarded, so
        // aggregation never sees a degenerate population.
        skipped = true;
        TFL_COUNTER_INC("fl.rounds.skipped");
        TFL_WARN << "fedavg round " << round << " skipped: " << participants
                 << " survivors below quorum " << quorum;
      } else {
        AggregateOutcome outcome =
            aggregate_updates(options.aggregator, updates, global_weights, pool);
        for (std::size_t k = 0; k < updates.size(); ++k) {
          const std::size_t c = updates[k].client;
          influence_sums[c] += outcome.influence[k];
          if (outcome.influence[k] == 0.0) ++client_rejected[c];
          if (attacks[c].attack) attacker_influence += outcome.influence[k];
        }
        rejected = outcome.rejected;
        clipped = outcome.clipped;
        global_weights = std::move(outcome.weights);
        global.set_weights(global_weights);
      }
    }
    TFL_COUNTER_ADD("fl.agg.rejected", rejected);
    TFL_COUNTER_ADD("fl.agg.clipped", clipped);
    TFL_SERIES_APPEND("fl.agg.influence", attacker_influence);
    TFL_COUNTER_INC("fl.rounds.count");
    TFL_COUNTER_ADD("fl.clients.participating", participants);
    TFL_GAUGE_SET("round.participation", participants);
    TFL_SERIES_APPEND("round.participation", participants);
    // Emitted from this serial point (never inside the parallel client loop)
    // so the run ledger keeps its cross-thread-count byte identity.
    TFL_LEDGER_EVENT("fedavg.round", {"round", static_cast<double>(round)},
                     {"participants", static_cast<double>(participants)});

    EvalResult eval;
    {
      TFL_SCOPED_TIMER("fl.eval.seconds");
      eval = evaluate(global, test_set);
    }
    TFL_SERIES_APPEND("fl.accuracy.trajectory", eval.accuracy);
    RoundMetrics metrics;
    metrics.round = round;
    metrics.train_loss = participants == 0 ? 0.0
                                           : train_loss_sum / static_cast<double>(participants);
    metrics.test_loss = eval.loss;
    metrics.test_accuracy = eval.accuracy;
    metrics.participants = participants;
    metrics.dropped = dropped;
    metrics.quarantined = quarantined;
    metrics.skipped = skipped;
    metrics.attacked = attacked;
    metrics.rejected = rejected;
    metrics.clipped = clipped;
    metrics.attacker_influence = attacker_influence;
    result.history.push_back(metrics);
    result.rounds_skipped += skipped ? 1 : 0;
    result.total_dropped += dropped;
    result.total_quarantined += quarantined;
    result.total_attacked += attacked;
    result.total_rejected += rejected;
    result.total_clipped += clipped;
    checkpoint_now(round);
    TFL_DEBUG << "fedavg round " << round << ": test acc " << eval.accuracy << ", loss "
              << eval.loss;
  }

  if (result.history.empty()) {
    // A fully-resumed run (checkpoint already covers every round) re-executes
    // nothing; the restored history would still be empty only if the snapshot
    // itself recorded zero rounds, which the round loop above makes
    // impossible for a fresh run.
    throw std::runtime_error("fedavg: resume checkpoint holds no completed rounds");
  }
  result.final_accuracy = result.history.back().test_accuracy;
  result.final_loss = result.history.back().test_loss;
  result.final_weights = std::move(global_weights);
  // Normalize influence sums to per-round means over the rounds that actually
  // aggregated (sums of zero stay zero when every round skipped).
  std::size_t aggregated_rounds = 0;
  for (const RoundMetrics& metrics : result.history) {
    if (!metrics.skipped) ++aggregated_rounds;
  }
  result.client_influence.assign(clients.size(), 0.0);
  if (aggregated_rounds > 0) {
    for (std::size_t c = 0; c < clients.size(); ++c) {
      result.client_influence[c] = influence_sums[c] / static_cast<double>(aggregated_rounds);
    }
  }
  result.client_rejected = std::move(client_rejected);
  return result;
}

}  // namespace tradefl::fl

#include "fl/fedasync.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

#include "common/snapshot.h"
#include "obs/obs.h"

namespace tradefl::fl {
namespace {

struct PendingUpdate {
  double ready_at = 0.0;
  double pulled_at = 0.0;
  std::size_t client = 0;

  // Strict total order (each client has exactly one pending update, so the
  // client index breaks ready_at ties uniquely): pop order depends only on
  // the queue's CONTENTS, never on push order, which is what lets a resumed
  // run rebuild the heap from a drained snapshot and still replay
  // bit-identically.
  bool operator>(const PendingUpdate& other) const {
    if (ready_at != other.ready_at) return ready_at > other.ready_at;
    return client > other.client;
  }
};

// ----- checkpointing -----

// v2: aggregator spec joined the fingerprint; the partial result carries the
// attacked/clipped totals.
constexpr std::uint32_t kFedAsyncSnapshotVersion = 2;
constexpr const char* kFedAsyncSnapshotKind = "fl.fedasync";

struct FedAsyncCheckpoint {
  std::uint64_t client_count = 0;
  std::uint64_t weight_count = 0;
  std::uint64_t shuffle_seed = 0;
  AggregatorSpec aggregator{};

  std::uint64_t events_processed = 0;
  std::vector<float> global_weights;
  std::vector<std::vector<float>> pulled;
  std::vector<std::uint64_t> update_counts;
  Rng::State shuffle_rng{};
  std::vector<PendingUpdate> queue;
  FedAsyncResult partial;
};

template <class Ar>
void fields(Ar& ar, PendingUpdate& update) {
  ar(update.ready_at, update.pulled_at, update.client);
}

template <class Ar>
void fields(Ar& ar, FedAsyncCheckpoint& state) {
  FedAsyncResult& partial = state.partial;
  ar(state.client_count, state.weight_count, state.shuffle_seed, state.aggregator,
     state.events_processed, state.global_weights, state.pulled, state.update_counts,
     state.shuffle_rng, state.queue, partial.merges, partial.total_updates, partial.total_dropped,
     partial.total_quarantined, partial.total_delayed, partial.total_attacked,
     partial.total_clipped);
}

Result<std::size_t> write_fedasync_checkpoint(const std::string& path,
                                              const FedAsyncCheckpoint& state) {
  SnapshotWriter writer;
  writer(state);
  return write_snapshot_file(path, kFedAsyncSnapshotKind, kFedAsyncSnapshotVersion, writer);
}

Result<FedAsyncCheckpoint> read_fedasync_checkpoint(const std::string& path) {
  auto payload = read_snapshot_file(path, kFedAsyncSnapshotKind, kFedAsyncSnapshotVersion);
  if (!payload.ok()) return payload.error();
  return decode_snapshot<FedAsyncCheckpoint>(payload.value(), [](SnapshotReader& reader) {
    FedAsyncCheckpoint state;
    reader(state);
    return state;
  });
}

}  // namespace

FedAsyncResult train_fedasync(const ModelSpec& model_spec,
                              const std::vector<AsyncClient>& clients,
                              const Dataset& test_set, const FedAsyncOptions& options) {
  TFL_SPAN("fedasync.train");
  if (clients.empty()) throw std::invalid_argument("fedasync: need >= 1 client");
  if (options.horizon <= 0.0) throw std::invalid_argument("fedasync: horizon must be > 0");
  if (!(options.alpha > 0.0 && options.alpha <= 1.0)) {
    throw std::invalid_argument("fedasync: alpha must be in (0, 1]");
  }
  if (options.aggregator.kind != AggregatorKind::kWeightedMean &&
      options.aggregator.kind != AggregatorKind::kNormClip) {
    throw std::invalid_argument(
        "fedasync: aggregator '" + options.aggregator.spec_string() +
        "' needs a survivor population; only mean and normclip apply to one-at-a-time merges");
  }

  // Contributed subsets and the base model.
  std::vector<std::vector<std::size_t>> subsets(clients.size());
  std::size_t contributors = 0;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    const FedClient& client = clients[c].client;
    if (client.data == nullptr) throw std::invalid_argument("fedasync: null client data");
    if (clients[c].round_latency <= 0.0) {
      throw std::invalid_argument("fedasync: round_latency must be > 0");
    }
    if (client.fraction > 0.0) {
      subsets[c] = contributed_indices(client.data->size(), client.fraction, client.seed);
    }
    if (!subsets[c].empty()) ++contributors;
  }
  if (contributors == 0) throw std::invalid_argument("fedasync: nobody contributes data");

  Net global = build_model(model_spec);
  std::vector<float> global_weights = global.weights();
  Net worker = build_model(model_spec);
  Rng shuffle_rng(options.shuffle_seed);

  const FaultInjector* faults =
      (options.faults != nullptr && options.faults->enabled()) ? options.faults : nullptr;
  // Each client's completed-update count stands in for FedAvg's round number
  // when keying fault decisions: decision k for client c is the same whether
  // the run is replayed, extended, or interleaved differently.
  std::vector<std::size_t> update_counts(clients.size(), 0);

  // Per-client snapshot of the weights they pulled last.
  std::vector<std::vector<float>> pulled(clients.size(), global_weights);

  FedAsyncResult result;

  // Delivery latency for the update a client is about to start, with any
  // injected straggler stretch applied at scheduling time. The stretch shows
  // up as extra staleness at merge, so the FedAsync discount handles it.
  auto next_latency = [&](std::size_t c) {
    double latency = clients[c].round_latency;
    if (faults != nullptr) {
      const double scale = faults->straggler_scale(update_counts[c] + 1, c);
      if (scale > 1.0) {
        latency *= scale;
        ++result.total_delayed;
        TFL_COUNTER_INC("fault.injected.straggler");
      }
    }
    return latency;
  };

  std::priority_queue<PendingUpdate, std::vector<PendingUpdate>, std::greater<>> queue;
  std::uint64_t events_processed = 0;

  if (options.resume && !options.checkpoint_path.empty() &&
      snapshot_exists(options.checkpoint_path)) {
    auto loaded = read_fedasync_checkpoint(options.checkpoint_path);
    if (!loaded.ok()) {
      throw std::runtime_error("fedasync resume failed closed [" + loaded.error().code +
                               "]: " + loaded.error().message);
    }
    FedAsyncCheckpoint& state = loaded.value();
    if (state.client_count != clients.size() || state.weight_count != global_weights.size() ||
        state.shuffle_seed != options.shuffle_seed ||
        state.pulled.size() != clients.size() || state.update_counts.size() != clients.size()) {
      throw std::runtime_error("fedasync resume failed closed [snapshot.mismatch]: " +
                               options.checkpoint_path +
                               " was written by a differently-configured run");
    }
    if (state.aggregator != options.aggregator) {
      throw std::runtime_error("fedasync resume failed closed [snapshot.mismatch]: " +
                               options.checkpoint_path + " was written under aggregator '" +
                               state.aggregator.spec_string() + "', this run requests '" +
                               options.aggregator.spec_string() + "'");
    }
    events_processed = state.events_processed;
    global_weights = std::move(state.global_weights);
    pulled = std::move(state.pulled);
    for (std::size_t c = 0; c < clients.size(); ++c) {
      update_counts[c] = static_cast<std::size_t>(state.update_counts[c]);
    }
    shuffle_rng.restore(state.shuffle_rng);
    for (const PendingUpdate& update : state.queue) queue.push(update);
    result = std::move(state.partial);
    TFL_COUNTER_INC("snapshot.resumes");
  } else {
    for (std::size_t c = 0; c < clients.size(); ++c) {
      if (!subsets[c].empty()) queue.push({next_latency(c), 0.0, c});
    }
  }

  const auto maybe_checkpoint = [&]() {
    if (options.checkpoint_path.empty()) return;
    const std::uint64_t every = std::max<std::uint64_t>(options.checkpoint_every, 1);
    if (events_processed % every != 0) return;
    FedAsyncCheckpoint state;
    state.client_count = clients.size();
    state.weight_count = global_weights.size();
    state.shuffle_seed = options.shuffle_seed;
    state.aggregator = options.aggregator;
    state.events_processed = events_processed;
    state.global_weights = global_weights;
    state.pulled = pulled;
    for (std::size_t c = 0; c < clients.size(); ++c) state.update_counts.push_back(update_counts[c]);
    state.shuffle_rng = shuffle_rng.state();
    std::priority_queue<PendingUpdate, std::vector<PendingUpdate>, std::greater<>> drain = queue;
    while (!drain.empty()) {
      state.queue.push_back(drain.top());
      drain.pop();
    }
    state.partial = result;
    const auto written = write_fedasync_checkpoint(options.checkpoint_path, state);
    if (!written.ok()) {
      throw std::runtime_error("fedasync checkpoint write failed [" + written.error().code +
                               "]: " + written.error().message);
    }
    TFL_COUNTER_INC("snapshot.writes");
    TFL_COUNTER_ADD("snapshot.bytes", written.value());
  };

  while (!queue.empty() && queue.top().ready_at <= options.horizon) {
    // Crash at event N fires before the event runs: the durable state is
    // whatever the last maybe_checkpoint() persisted.
    crash_if_scheduled(faults, events_processed + 1);
    ++events_processed;
    const PendingUpdate update = queue.top();
    queue.pop();
    const std::size_t c = update.client;
    const std::size_t client_round = ++update_counts[c];

    if (faults != nullptr && faults->drop_client(client_round, c)) {
      // The client crashed mid-round: its update never arrives. It rejoins by
      // pulling the current global weights and starting over.
      ++result.total_dropped;
      TFL_COUNTER_INC("fault.injected.dropout");
      pulled[c] = global_weights;
      queue.push({update.ready_at + next_latency(c), update.ready_at, c});
      maybe_checkpoint();
      continue;
    }

    // The client trained from its pulled snapshot; replay that local pass.
    worker.set_weights(pulled[c]);
    {
      TFL_SCOPED_TIMER("fl.local_train.seconds");
      train_local(worker, *clients[c].client.data, subsets[c], options.local_epochs,
                  options.batch_size, options.max_batches_per_epoch, options.sgd, shuffle_rng);
    }
    std::vector<float> local = worker.weights();

    if (faults != nullptr) {
      // Adversarial transforms first (relative to the stale model the silo
      // trained from), then any corruption stacks on top — same composition
      // order as the synchronous path.
      const AttackSpec attack = faults->attack_update(client_round, c);
      if (attack.attack) {
        apply_update_attack(local, pulled[c], attack, *faults, client_round);
        ++result.total_attacked;
        switch (attack.kind) {
          case FaultKind::kSignFlip: TFL_COUNTER_INC("fault.injected.signflip"); break;
          case FaultKind::kScaleAttack: TFL_COUNTER_INC("fault.injected.scale_attack"); break;
          case FaultKind::kFreeRide: TFL_COUNTER_INC("fault.injected.freeride"); break;
          case FaultKind::kCollude: TFL_COUNTER_INC("fault.injected.collude"); break;
          default: break;
        }
      }
      const CorruptionSpec spec = faults->corrupt_update(client_round, c);
      if (spec.corrupt) {
        TFL_COUNTER_INC("fault.injected.corruption");
        if (spec.use_nan) {
          local.front() = std::numeric_limits<float>::quiet_NaN();
        } else {
          Rng noise = faults->corruption_rng(client_round, c);
          for (float& weight : local) {
            weight += static_cast<float>(noise.normal(0.0, spec.noise_stddev));
          }
        }
      }
      // Quarantine before the merge touches the global model: one NaN in a
      // merged update poisons every weight through the mixing rule.
      double finite_probe = 0.0;
      for (const float weight : local) finite_probe += static_cast<double>(weight);
      if (!std::isfinite(finite_probe)) {
        ++result.total_quarantined;
        TFL_COUNTER_INC("fl.updates.quarantined");
        pulled[c] = global_weights;
        queue.push({update.ready_at + next_latency(c), update.ready_at, c});
        maybe_checkpoint();
        continue;
      }
    }

    // Staleness-discounted merge into the CURRENT global model.
    const double staleness = update.ready_at - update.pulled_at - clients[c].round_latency;
    const double discount =
        std::pow(1.0 + std::max(0.0, staleness), -options.staleness_exponent);
    const double alpha_eff =
        static_cast<double>(static_cast<float>(options.alpha * discount));
    if (options.aggregator.kind == AggregatorKind::kNormClip) {
      // Clip the incoming delta (relative to the CURRENT global) before it is
      // mixed in — the one-update analogue of the synchronous NormClip rule.
      // The norm folds over coordinates in index order: deterministic.
      double norm_sq = 0.0;
      for (std::size_t i = 0; i < global_weights.size(); ++i) {
        const double diff =
            static_cast<double>(local[i]) - static_cast<double>(global_weights[i]);
        norm_sq += diff * diff;
      }
      const double norm = std::sqrt(norm_sq);
      if (norm > options.aggregator.clip_norm && norm > 0.0) {
        const double scale = options.aggregator.clip_norm / norm;
        for (std::size_t i = 0; i < global_weights.size(); ++i) {
          const double diff =
              static_cast<double>(local[i]) - static_cast<double>(global_weights[i]);
          local[i] =
              static_cast<float>(static_cast<double>(global_weights[i]) + scale * diff);
        }
        ++result.total_clipped;
        TFL_COUNTER_INC("fl.agg.clipped");
      }
    }
    // The merge is the shared ordered weighted-sum helper: both training
    // paths now fold in double precision with an identical coordinate-order
    // contract (the float-arithmetic merge this replaced drifted from
    // FedAvg's Eq. (3) fold).
    ordered_weighted_mean({&global_weights, &local}, {1.0 - alpha_eff, alpha_eff},
                          global_pool(), global_weights);
    ++result.total_updates;
    TFL_COUNTER_INC("fl.async.updates.count");
    TFL_OBSERVE_BUCKETS("fl.async.staleness", std::max(0.0, staleness), 0.01, 0.1, 0.5, 1.0,
                        2.0, 5.0, 10.0, 50.0);

    AsyncMerge merge;
    merge.time = update.ready_at;
    merge.client_index = c;
    merge.staleness = std::max(0.0, staleness);
    if (options.eval_every > 0 && result.total_updates % options.eval_every == 0) {
      global.set_weights(global_weights);
      merge.test_accuracy = evaluate(global, test_set).accuracy;
    }
    result.merges.push_back(merge);

    // The client pulls the fresh global weights and starts the next round.
    pulled[c] = global_weights;
    queue.push({update.ready_at + next_latency(c), update.ready_at, c});
    maybe_checkpoint();
  }

  global.set_weights(global_weights);
  const EvalResult eval = evaluate(global, test_set);
  result.final_accuracy = eval.accuracy;
  result.final_loss = eval.loss;
  result.final_weights = std::move(global_weights);
  return result;
}

}  // namespace tradefl::fl

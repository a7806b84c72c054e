// Asynchronous federated training — the paper's footnote 2 states TradeFL
// "is applicable to both synchronous and asynchronous scenarios" because the
// mechanism only concerns resource contribution. This module provides the
// asynchronous substrate so that claim can be exercised: clients deliver
// updates with heterogeneous delays derived from their analytic round time
// (T^(1) + T^(2)(d, f) + T^(3)); the server merges each update when it
// arrives with a staleness-discounted weight (FedAsync-style):
//     w_global <- (1 - alpha_eff) w_global + alpha_eff w_client,
//     alpha_eff = alpha * s(staleness),  s(t) = 1 / (1 + t)^a.
#pragma once

#include "fl/fedavg.h"

namespace tradefl::fl {

/// One asynchronous participant: the FedClient plus its delivery latency per
/// local update (seconds of simulated time).
struct AsyncClient {
  FedClient client;
  double round_latency = 1.0;  // T^(1) + T^(2)(d_i, f_i) + T^(3)
};

struct FedAsyncOptions {
  double horizon = 100.0;        // simulated seconds of training
  double alpha = 0.6;            // base mixing rate
  double staleness_exponent = 0.5;  // a in s(t) = (1 + t)^-a
  std::size_t local_epochs = 1;
  std::size_t batch_size = 32;
  std::size_t max_batches_per_epoch = 8;
  SgdOptions sgd{};
  std::uint64_t shuffle_seed = 23;
  /// Evaluate the global model every `eval_every` merges (0 = only at end).
  std::size_t eval_every = 5;
  /// Fault injection (nullptr = fault-free run; must outlive the call). The
  /// per-client update count plays the role of FedAvg's round number when
  /// keying fault decisions, so schedules replay identically.
  const FaultInjector* faults = nullptr;

  /// Aggregation rule for the merge path. FedAsync merges one update at a
  /// time, so only the mean-family rules apply: kWeightedMean (the plain
  /// staleness-discounted merge) and kNormClip (clip the incoming delta to
  /// `clip_norm` before merging). Any other kind throws std::invalid_argument
  /// — the population rules (median/trimmed/krum) need a survivor set that an
  /// asynchronous server never has. Part of the checkpoint fingerprint.
  AggregatorSpec aggregator{};

  /// Crash-consistent checkpointing (empty = none), keyed by processed queue
  /// events: every `checkpoint_every` events the simulation state — global
  /// weights, per-client pulled snapshots and update counts, the pending
  /// event queue, the shared shuffle RNG, merge history — is snapshotted
  /// atomically. `resume` reloads it and continues bit-identically.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 1;
  bool resume = false;
};

struct AsyncMerge {
  double time = 0.0;            // simulated arrival time
  std::size_t client_index = 0;
  double staleness = 0.0;       // seconds between pull and merge
  double test_accuracy = -1.0;  // -1 when not evaluated at this merge
};

/// Persisted field list (common/snapshot.h); the FedAsync checkpoint carries
/// the merge history.
template <class Ar>
void fields(Ar& ar, AsyncMerge& merge) {
  ar(merge.time, merge.client_index, merge.staleness, merge.test_accuracy);
}

struct FedAsyncResult {
  std::vector<AsyncMerge> merges;
  double final_accuracy = 0.0;
  double final_loss = 0.0;
  std::size_t total_updates = 0;
  std::vector<float> final_weights;
  std::size_t total_dropped = 0;      // updates discarded by injected dropout
  std::size_t total_quarantined = 0;  // non-finite updates discarded pre-merge
  std::size_t total_delayed = 0;      // merges whose delivery was straggler-scaled
  std::size_t total_attacked = 0;     // adversarially transformed updates merged
  std::size_t total_clipped = 0;      // incoming deltas norm-clipped pre-merge
};

/// Event-driven simulation: every client trains continuously; when a local
/// update completes (after round_latency simulated seconds) it is merged with
/// the staleness-discounted rule above and the client pulls fresh weights.
FedAsyncResult train_fedasync(const ModelSpec& model_spec,
                              const std::vector<AsyncClient>& clients,
                              const Dataset& test_set, const FedAsyncOptions& options = {});

}  // namespace tradefl::fl

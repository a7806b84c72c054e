// FedAvg training loop (Sec. III-B): organizations hold local datasets,
// contribute a d_i fraction of their samples, train locally for a few
// epochs, and the server aggregates weight vectors with contribution-
// proportional weights (Eq. 3). Synchronous rounds; the round deadline τ is
// modeled analytically by the game layer (Organization::round_time), not by
// wall-clock here.
#pragma once

#include <cstdint>
#include <vector>

#include "common/faults.h"
#include "fl/dataset.h"
#include "fl/model_zoo.h"
#include "fl/optimizer.h"
#include "fl/robust_agg.h"

namespace tradefl::fl {

struct FedAvgOptions {
  std::size_t rounds = 10;       // G — global aggregation rounds
  std::size_t local_epochs = 1;  // local passes per round
  std::size_t batch_size = 32;
  std::size_t max_batches_per_epoch = 0;  // 0 = no cap
  SgdOptions sgd{};
  std::uint64_t shuffle_seed = 7;

  /// Fault injection (nullptr = fault-free run; must outlive the call).
  const FaultInjector* faults = nullptr;
  /// Aggregation rule for the per-round update combine (default: the paper's
  /// Eq. (3) weighted mean). The spec is part of the checkpoint fingerprint —
  /// resuming under a different rule fails closed.
  AggregatorSpec aggregator{};
  /// Minimum surviving clients a round needs; below it the round is skipped
  /// (global weights untouched, RoundMetrics::skipped set) rather than
  /// renormalizing Eq. (3) over a degenerate survivor set.
  std::size_t quorum = 1;
  /// A straggler whose injected delay scale reaches this cutoff misses the
  /// round deadline τ and sits the round out. 0 = stragglers are recorded but
  /// never excluded (synchronous FedAvg waits for them).
  double straggler_cutoff = 0.0;

  /// Crash-consistent checkpointing (empty = none). Every `checkpoint_every`
  /// completed rounds the full training state — global weights, per-client
  /// RNG words, metric history, fault totals — is snapshotted atomically to
  /// `checkpoint_path`. With `resume`, an existing snapshot is loaded and
  /// training continues at the next round, bit-identically to a run that was
  /// never interrupted (the Sgd optimizer holds no cross-round state: it is
  /// rebuilt per client per round, so weights + RNG streams are the complete
  /// state). A corrupt or mismatched snapshot aborts with the snapshot
  /// layer's typed error — resume never silently restarts from scratch.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 1;
  bool resume = false;

  /// Cooperative cancellation (nullptr = never cancelled; must outlive the
  /// call). Checked at the top of every round; a fired token throws
  /// OperationCancelled after the previous round's checkpoint is already
  /// durable, so a cancelled-then-resumed training run stays bit-identical.
  const std::atomic<bool>* cancel = nullptr;
};

/// One organization's training view: a pointer to its local dataset and the
/// contributed fraction d_i of it. Training reads only the images of
/// contributed_indices(data->size(), fraction, seed), so the dataset may
/// store just those (see Dataset).
struct FedClient {
  const Dataset* data = nullptr;
  double fraction = 1.0;       // d_i
  std::uint64_t seed = 1;      // selects WHICH samples are contributed
};

struct RoundMetrics {
  std::size_t round = 0;
  double train_loss = 0.0;     // mean local loss over participating batches
  double test_loss = 0.0;
  double test_accuracy = 0.0;
  std::size_t participants = 0;  // clients aggregated into Eq. (3) this round
  std::size_t dropped = 0;       // dropout + straggler exclusions this round
  std::size_t quarantined = 0;   // non-finite updates discarded this round
  bool skipped = false;          // quorum failure: no aggregation happened
  std::size_t attacked = 0;      // adversarial updates submitted this round
  std::size_t rejected = 0;      // updates the aggregator gave zero influence
  std::size_t clipped = 0;       // updates norm-clipped by the aggregator
  /// Aggregate influence share the attacked silos' updates retained in [0, 1]
  /// — the per-round attacker-containment metric (0 when no attack fired).
  double attacker_influence = 0.0;
};

struct FedAvgResult {
  std::vector<RoundMetrics> history;
  double final_accuracy = 0.0;
  double final_loss = 0.0;
  std::size_t total_contributed_samples = 0;
  std::vector<float> final_weights;
  std::size_t rounds_skipped = 0;
  std::size_t total_dropped = 0;
  std::size_t total_quarantined = 0;
  std::size_t total_attacked = 0;
  std::size_t total_rejected = 0;
  std::size_t total_clipped = 0;
  /// Per-client mean aggregation influence over the non-skipped rounds (the
  /// deviation audit's per-silo containment signal); empty when no round
  /// aggregated.
  std::vector<double> client_influence;
  /// Per-client count of rounds in which the aggregator rejected the
  /// client's update outright.
  std::vector<std::uint64_t> client_rejected;
};

/// Persisted field lists (common/snapshot.h), shared by the FedAvg
/// checkpoint and the trading-session checkpoint (tradefl/session.cpp).
template <class Ar>
void fields(Ar& ar, RoundMetrics& metrics) {
  ar(metrics.round, metrics.train_loss, metrics.test_loss, metrics.test_accuracy,
     metrics.participants, metrics.dropped, metrics.quarantined, metrics.skipped,
     metrics.attacked, metrics.rejected, metrics.clipped, metrics.attacker_influence);
}

template <class Ar>
void fields(Ar& ar, FedAvgResult& result) {
  ar(result.history, result.final_accuracy, result.final_loss, result.total_contributed_samples,
     result.final_weights, result.rounds_skipped, result.total_dropped, result.total_quarantined,
     result.total_attacked, result.total_rejected, result.total_clipped, result.client_influence,
     result.client_rejected);
}

/// Evaluates mean loss / accuracy of `net` on a dataset.
struct EvalResult {
  double loss = 0.0;
  double accuracy = 0.0;
};
EvalResult evaluate(Net& net, const Dataset& data, std::size_t batch_size = 64);

/// One client's local training: `epochs` passes over the `contributed`
/// samples of `data`, each in a fresh in-place shuffle drawn from
/// `shuffle_rng` and capped at `max_batches` SGD steps (0 = no cap). `net`
/// already holds the weights the client pulled. Returns the mean batch loss.
/// FedAvg passes each client's private stream, so schedules do not depend on
/// how clients interleave across threads; FedAsync passes its shared one.
double train_local(Net& net, const Dataset& data, const std::vector<std::size_t>& contributed,
                   std::size_t epochs, std::size_t batch_size, std::size_t max_batches,
                   const SgdOptions& sgd, Rng& shuffle_rng);

/// Runs FedAvg for the given model over the clients, testing on `test_set`
/// each round. Clients contributing zero samples are skipped (they cannot
/// join training, matching the participation rule of Sec. III-A).
FedAvgResult train_fedavg(const ModelSpec& model_spec, const std::vector<FedClient>& clients,
                          const Dataset& test_set, const FedAvgOptions& options = {});

}  // namespace tradefl::fl

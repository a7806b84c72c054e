#include "fl/robust_agg.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace tradefl::fl {
namespace {

/// Coordinate-chunk grain for the parallel folds. Chunk decomposition depends
/// only on the model size, never on the pool, so every fold is thread-count
/// bit-identical (common/parallel.h contract).
constexpr std::size_t kCoordGrain = 4096;

std::string format_double(double value) {
  // %.17g survives a stod round-trip, so spec_string() re-parses exactly.
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return std::string(buffer);
}

const char kAggGrammar[] =
    "agg=mean | median | trimmed[:f] | krum[:f] | multikrum[:f] | normclip[:c] "
    "(f = tolerated adversaries as a non-negative integer, default 1; "
    "c = positive L2 clip norm, default 1)";

Error agg_error(const std::string& what, const std::string& token) {
  return Error{"agg", what + " in token '" + token + "'; accepted grammar: " + kAggGrammar};
}

/// Sum of the weights folded in index order (the historical Eq. (3)
/// weight_total accumulation order).
double ordered_total(const std::vector<double>& weights) {
  double total = 0.0;
  for (const double weight : weights) total += weight;
  return total;
}

}  // namespace

const char* aggregator_kind_name(AggregatorKind kind) {
  switch (kind) {
    case AggregatorKind::kWeightedMean: return "mean";
    case AggregatorKind::kCoordinateMedian: return "median";
    case AggregatorKind::kTrimmedMean: return "trimmed";
    case AggregatorKind::kKrum: return "krum";
    case AggregatorKind::kMultiKrum: return "multikrum";
    case AggregatorKind::kNormClip: return "normclip";
  }
  return "unknown";
}

std::string AggregatorSpec::spec_string() const {
  switch (kind) {
    case AggregatorKind::kWeightedMean:
    case AggregatorKind::kCoordinateMedian:
      return aggregator_kind_name(kind);
    case AggregatorKind::kTrimmedMean:
    case AggregatorKind::kKrum:
    case AggregatorKind::kMultiKrum:
      return std::string(aggregator_kind_name(kind)) + ":" + std::to_string(trim);
    case AggregatorKind::kNormClip:
      return std::string(aggregator_kind_name(kind)) + ":" + format_double(clip_norm);
  }
  return "unknown";
}

Result<AggregatorSpec> parse_aggregator(const std::string& text) {
  AggregatorSpec spec;
  const std::size_t colon = text.find(':');
  const std::string head = text.substr(0, colon);
  const bool has_arg = colon != std::string::npos;
  const std::string arg = has_arg ? text.substr(colon + 1) : std::string();

  if (head == "mean" || head == "median") {
    if (has_arg) return agg_error("'" + head + "' takes no parameter", text);
    spec.kind = head == "mean" ? AggregatorKind::kWeightedMean
                               : AggregatorKind::kCoordinateMedian;
    return spec;
  }

  double parsed = 0.0;
  if (has_arg) {
    try {
      std::size_t used = 0;
      parsed = std::stod(arg, &used);
      if (used != arg.size()) throw std::invalid_argument(arg);
    } catch (const std::exception&) {
      return agg_error("cannot parse parameter '" + arg + "'", text);
    }
  }

  if (head == "trimmed" || head == "krum" || head == "multikrum") {
    if (has_arg &&
        (parsed < 0.0 || parsed != static_cast<double>(static_cast<std::uint64_t>(parsed)))) {
      return agg_error("'" + head + "' needs a non-negative integer f, got '" + arg + "'", text);
    }
    spec.kind = head == "trimmed" ? AggregatorKind::kTrimmedMean
                : head == "krum" ? AggregatorKind::kKrum
                                 : AggregatorKind::kMultiKrum;
    if (has_arg) spec.trim = static_cast<std::size_t>(parsed);
    return spec;
  }
  if (head == "normclip") {
    if (has_arg && parsed <= 0.0) {
      return agg_error("'normclip' needs a clip norm > 0, got '" + arg + "'", text);
    }
    spec.kind = AggregatorKind::kNormClip;
    if (has_arg) spec.clip_norm = parsed;
    return spec;
  }
  return agg_error("unknown aggregator '" + head + "'", text);
}

void ordered_weighted_mean(const std::vector<const std::vector<float>*>& values,
                           const std::vector<double>& weights, ThreadPool* pool,
                           std::vector<float>& out) {
  if (values.empty() || values.size() != weights.size()) {
    throw std::invalid_argument("ordered_weighted_mean: need matching non-empty inputs");
  }
  const std::size_t dim = values.front()->size();
  for (const std::vector<float>* value : values) {
    if (value == nullptr || value->size() != dim) {
      throw std::invalid_argument("ordered_weighted_mean: dimension mismatch");
    }
  }
  const double total = ordered_total(weights);
  if (!(total > 0.0)) {
    throw std::invalid_argument("ordered_weighted_mean: total weight must be positive");
  }
  std::vector<float> result(dim);
  parallel_for(pool, 0, dim, kCoordGrain,
               [&](std::size_t lo, std::size_t hi, std::size_t /*worker*/) {
                 for (std::size_t i = lo; i < hi; ++i) {
                   double acc = 0.0;
                   for (std::size_t k = 0; k < values.size(); ++k) {
                     acc += weights[k] * static_cast<double>((*values[k])[i]);
                   }
                   result[i] = static_cast<float>(acc / total);
                 }
               });
  // Written through a scratch buffer so `out` may alias an input (FedAsync
  // merges in place over the global model).
  out = std::move(result);
}

namespace {

/// Shared Eq. (3) path for mean-family rules. `updates` must already be the
/// set to average; influence lands at `slots` (original update indices).
void weighted_mean_into(const std::vector<const std::vector<float>*>& values,
                        const std::vector<double>& weights, const std::vector<std::size_t>& slots,
                        ThreadPool* pool, AggregateOutcome& outcome) {
  ordered_weighted_mean(values, weights, pool, outcome.weights);
  const double total = ordered_total(weights);
  for (std::size_t k = 0; k < slots.size(); ++k) {
    outcome.influence[slots[k]] = weights[k] / total;
  }
}

/// Coordinate-wise order statistics (median / trimmed mean). Each chunk of
/// coordinates sorts (value, update-index) pairs — the index tie-break keeps
/// equal values deterministic — writes its output coordinates, and returns
/// the per-update credit mass it assigned; credits fold in chunk order.
/// `trim` = values dropped per side (0 = plain median).
void order_statistic_into(const std::vector<const std::vector<float>*>& values,
                          std::size_t trim, bool median, ThreadPool* pool,
                          AggregateOutcome& outcome) {
  const std::size_t n = values.size();
  const std::size_t dim = values.front()->size();
  outcome.weights.resize(dim);
  const std::size_t chunks = chunk_count(dim, kCoordGrain);
  std::vector<double> credit = ordered_reduce<std::vector<double>>(
      pool, chunks,
      std::vector<double>(n, 0.0),
      [&](std::size_t chunk, std::size_t /*worker*/) {
        std::vector<double> local_credit(n, 0.0);
        std::vector<std::pair<float, std::size_t>> order(n);
        const std::size_t lo = chunk * kCoordGrain;
        const std::size_t hi = std::min(dim, lo + kCoordGrain);
        for (std::size_t i = lo; i < hi; ++i) {
          for (std::size_t k = 0; k < n; ++k) order[k] = {(*values[k])[i], k};
          std::sort(order.begin(), order.end());
          if (median) {
            const std::size_t mid = n / 2;
            if (n % 2 == 1) {
              outcome.weights[i] = order[mid].first;
              local_credit[order[mid].second] += 1.0;
            } else {
              outcome.weights[i] = static_cast<float>(
                  (static_cast<double>(order[mid - 1].first) +
                   static_cast<double>(order[mid].first)) /
                  2.0);
              local_credit[order[mid - 1].second] += 0.5;
              local_credit[order[mid].second] += 0.5;
            }
          } else {
            double acc = 0.0;
            const double share = 1.0 / static_cast<double>(n - 2 * trim);
            for (std::size_t k = trim; k < n - trim; ++k) {
              acc += static_cast<double>(order[k].first);
              local_credit[order[k].second] += share;
            }
            outcome.weights[i] = static_cast<float>(acc / static_cast<double>(n - 2 * trim));
          }
        }
        return local_credit;
      },
      [](std::vector<double>& acc, std::vector<double>&& part) {
        for (std::size_t k = 0; k < acc.size(); ++k) acc[k] += part[k];
      });
  for (std::size_t k = 0; k < n; ++k) {
    outcome.influence[k] = credit[k] / static_cast<double>(dim);
  }
}

/// Krum scores: for each update, the sum of its n-f-2 smallest pairwise
/// squared L2 distances. Distances accumulate per coordinate chunk and fold
/// in chunk order; the nearest-neighbour sum folds in sorted-distance order
/// with index tie-breaks — fully deterministic.
std::vector<double> krum_scores(const std::vector<const std::vector<float>*>& values,
                                std::size_t trim, ThreadPool* pool) {
  const std::size_t n = values.size();
  const std::size_t dim = values.front()->size();
  const std::size_t chunks = chunk_count(dim, kCoordGrain);
  std::vector<double> distances = ordered_reduce<std::vector<double>>(
      pool, chunks,
      std::vector<double>(n * n, 0.0),
      [&](std::size_t chunk, std::size_t /*worker*/) {
        std::vector<double> part(n * n, 0.0);
        const std::size_t lo = chunk * kCoordGrain;
        const std::size_t hi = std::min(dim, lo + kCoordGrain);
        for (std::size_t a = 0; a < n; ++a) {
          for (std::size_t b = a + 1; b < n; ++b) {
            double acc = 0.0;
            for (std::size_t i = lo; i < hi; ++i) {
              const double diff = static_cast<double>((*values[a])[i]) -
                                  static_cast<double>((*values[b])[i]);
              acc += diff * diff;
            }
            part[a * n + b] = acc;
          }
        }
        return part;
      },
      [](std::vector<double>& acc, std::vector<double>&& part) {
        for (std::size_t k = 0; k < acc.size(); ++k) acc[k] += part[k];
      });
  const std::size_t neighbours = n - trim - 2;
  std::vector<double> scores(n, 0.0);
  std::vector<std::pair<double, std::size_t>> order;
  for (std::size_t a = 0; a < n; ++a) {
    order.clear();
    for (std::size_t b = 0; b < n; ++b) {
      if (b == a) continue;
      order.emplace_back(distances[std::min(a, b) * n + std::max(a, b)], b);
    }
    std::sort(order.begin(), order.end());
    double acc = 0.0;
    for (std::size_t k = 0; k < neighbours; ++k) acc += order[k].first;
    scores[a] = acc;
  }
  return scores;
}

}  // namespace

AggregateOutcome aggregate_updates(const AggregatorSpec& spec,
                                   const std::vector<ClientUpdate>& updates,
                                   const std::vector<float>& previous_global, ThreadPool* pool) {
  if (updates.empty()) throw std::invalid_argument("aggregate_updates: need >= 1 update");
  const std::size_t n = updates.size();
  std::vector<const std::vector<float>*> values(n);
  std::vector<double> weights(n);
  for (std::size_t k = 0; k < n; ++k) {
    if (updates[k].weights == nullptr || updates[k].weights->size() != previous_global.size()) {
      throw std::invalid_argument("aggregate_updates: update dimension mismatch");
    }
    if (!(updates[k].weight > 0.0)) {
      throw std::invalid_argument("aggregate_updates: update weight must be positive");
    }
    values[k] = updates[k].weights;
    weights[k] = updates[k].weight;
  }

  AggregateOutcome outcome;
  outcome.influence.assign(n, 0.0);
  std::vector<std::size_t> all_slots(n);
  for (std::size_t k = 0; k < n; ++k) all_slots[k] = k;

  AggregatorKind kind = spec.kind;
  // Degenerate survivor sets: the robust rules need enough updates to trim or
  // score. Rather than aborting the round (the quorum gate already handles
  // "too few survivors"), fall back to the coordinate median — the strongest
  // rule with no population requirement — and flag it.
  if (kind == AggregatorKind::kTrimmedMean && n <= 2 * spec.trim) {
    kind = AggregatorKind::kCoordinateMedian;
    outcome.fallback = true;
  }
  if ((kind == AggregatorKind::kKrum || kind == AggregatorKind::kMultiKrum) &&
      n < spec.trim + 3) {
    kind = AggregatorKind::kCoordinateMedian;
    outcome.fallback = true;
  }

  switch (kind) {
    case AggregatorKind::kWeightedMean:
      weighted_mean_into(values, weights, all_slots, pool, outcome);
      break;
    case AggregatorKind::kCoordinateMedian:
      order_statistic_into(values, 0, /*median=*/true, pool, outcome);
      break;
    case AggregatorKind::kTrimmedMean:
      order_statistic_into(values, spec.trim, /*median=*/false, pool, outcome);
      break;
    case AggregatorKind::kKrum:
    case AggregatorKind::kMultiKrum: {
      const std::vector<double> scores = krum_scores(values, spec.trim, pool);
      std::vector<std::pair<double, std::size_t>> ranked(n);
      for (std::size_t k = 0; k < n; ++k) ranked[k] = {scores[k], k};
      std::sort(ranked.begin(), ranked.end());
      const std::size_t selected =
          kind == AggregatorKind::kKrum ? 1 : std::max<std::size_t>(n - spec.trim - 2, 1);
      std::vector<std::size_t> slots;
      for (std::size_t k = 0; k < selected; ++k) slots.push_back(ranked[k].second);
      // Selected updates fold in original update (client) order so Multi-Krum
      // over the full set degrades to the exact Eq. (3) byte stream.
      std::sort(slots.begin(), slots.end());
      std::vector<const std::vector<float>*> chosen_values;
      std::vector<double> chosen_weights;
      for (const std::size_t slot : slots) {
        chosen_values.push_back(values[slot]);
        chosen_weights.push_back(weights[slot]);
      }
      weighted_mean_into(chosen_values, chosen_weights, slots, pool, outcome);
      break;
    }
    case AggregatorKind::kNormClip: {
      // Per-update delta norms, each folded over coordinates in chunk order.
      const std::size_t dim = previous_global.size();
      const std::size_t chunks = chunk_count(dim, kCoordGrain);
      std::vector<double> norms = ordered_reduce<std::vector<double>>(
          pool, chunks,
          std::vector<double>(n, 0.0),
          [&](std::size_t chunk, std::size_t /*worker*/) {
            std::vector<double> part(n, 0.0);
            const std::size_t lo = chunk * kCoordGrain;
            const std::size_t hi = std::min(dim, lo + kCoordGrain);
            for (std::size_t k = 0; k < n; ++k) {
              double acc = 0.0;
              for (std::size_t i = lo; i < hi; ++i) {
                const double diff = static_cast<double>((*values[k])[i]) -
                                    static_cast<double>(previous_global[i]);
                acc += diff * diff;
              }
              part[k] = acc;
            }
            return part;
          },
          [](std::vector<double>& acc, std::vector<double>&& part) {
            for (std::size_t k = 0; k < acc.size(); ++k) acc[k] += part[k];
          });
      std::vector<std::vector<float>> clipped_storage;
      clipped_storage.reserve(n);
      std::vector<const std::vector<float>*> clipped(n);
      for (std::size_t k = 0; k < n; ++k) {
        const double norm = std::sqrt(norms[k]);
        if (norm <= spec.clip_norm || norm == 0.0) {
          clipped[k] = values[k];
          continue;
        }
        const double scale = spec.clip_norm / norm;
        std::vector<float> shrunk(dim);
        parallel_for(pool, 0, dim, kCoordGrain,
                     [&](std::size_t lo, std::size_t hi, std::size_t /*worker*/) {
                       for (std::size_t i = lo; i < hi; ++i) {
                         const double delta = static_cast<double>((*values[k])[i]) -
                                              static_cast<double>(previous_global[i]);
                         shrunk[i] = static_cast<float>(
                             static_cast<double>(previous_global[i]) + scale * delta);
                       }
                     });
        clipped_storage.push_back(std::move(shrunk));
        clipped[k] = &clipped_storage.back();
        ++outcome.clipped;
      }
      weighted_mean_into(clipped, weights, all_slots, pool, outcome);
      break;
    }
  }

  for (const double share : outcome.influence) {
    if (share == 0.0) ++outcome.rejected;
  }
  return outcome;
}

void apply_update_attack(std::vector<float>& local, const std::vector<float>& global,
                         const AttackSpec& spec, const FaultInjector& faults,
                         std::uint64_t round) {
  if (!spec.attack) return;
  switch (spec.kind) {
    case FaultKind::kSignFlip: {
      const double strength = spec.magnitude > 0.0 ? spec.magnitude : 1.0;
      for (std::size_t i = 0; i < local.size(); ++i) {
        const double delta = static_cast<double>(local[i]) - static_cast<double>(global[i]);
        local[i] = static_cast<float>(static_cast<double>(global[i]) - strength * delta);
      }
      break;
    }
    case FaultKind::kScaleAttack: {
      const double factor = spec.magnitude > 0.0 ? spec.magnitude : 8.0;
      for (std::size_t i = 0; i < local.size(); ++i) {
        const double delta = static_cast<double>(local[i]) - static_cast<double>(global[i]);
        local[i] = static_cast<float>(static_cast<double>(global[i]) + factor * delta);
      }
      break;
    }
    case FaultKind::kFreeRide:
      // The free-rider spends no energy and submits the model it was handed.
      local = global;
      break;
    case FaultKind::kCollude: {
      const double shift = spec.magnitude > 0.0 ? spec.magnitude : 4.0;
      Rng rng = faults.collusion_rng(round);
      for (std::size_t i = 0; i < local.size(); ++i) {
        local[i] = static_cast<float>(static_cast<double>(global[i]) + shift * rng.normal());
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace tradefl::fl

#include "fl/personalize.h"

#include <algorithm>
#include <stdexcept>

#include "fl/loss.h"

namespace tradefl::fl {
namespace {

/// Accuracy of `net` on an index subset of a dataset.
double subset_accuracy(Net& net, const Dataset& data, const std::vector<std::size_t>& subset,
                       std::size_t batch_size) {
  if (subset.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t start = 0; start < subset.size(); start += batch_size) {
    const std::size_t end = std::min(subset.size(), start + batch_size);
    const std::vector<std::size_t> indices(subset.begin() + static_cast<std::ptrdiff_t>(start),
                                           subset.begin() + static_cast<std::ptrdiff_t>(end));
    const Tensor logits = net.forward(data.batch(indices), /*training=*/false);
    correct += softmax_cross_entropy(logits, data.batch_labels(indices)).correct;
  }
  return static_cast<double>(correct) / static_cast<double>(subset.size());
}

}  // namespace

PersonalizeResult personalize(const ModelSpec& model_spec, const FedAvgResult& federated,
                              const std::vector<FedClient>& clients,
                              const Dataset& test_set, const PersonalizeOptions& options) {
  if (federated.final_weights.empty()) {
    throw std::invalid_argument("personalize: federated result carries no weights");
  }
  if (options.epochs == 0) throw std::invalid_argument("personalize: epochs must be >= 1");
  if (options.batch_size == 0) throw std::invalid_argument("personalize: batch_size >= 1");

  PersonalizeResult result;
  Net worker = build_model(model_spec);
  worker.set_weights(federated.final_weights);
  result.global_model_accuracy = evaluate(worker, test_set).accuracy;

  Rng shuffle_rng(options.shuffle_seed);
  double local_sum = 0.0, global_sum = 0.0;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    const FedClient& client = clients[c];
    if (client.data == nullptr) throw std::invalid_argument("personalize: null client data");
    const std::vector<std::size_t> subset =
        client.fraction > 0.0
            ? contributed_indices(client.data->size(), client.fraction, client.seed)
            : std::vector<std::size_t>{};

    worker.set_weights(federated.final_weights);
    if (!subset.empty()) {
      Sgd optimizer(options.sgd);
      for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
        const std::vector<std::size_t> shuffle = shuffle_rng.permutation(subset.size());
        for (std::size_t start = 0; start < subset.size(); start += options.batch_size) {
          const std::size_t end = std::min(subset.size(), start + options.batch_size);
          std::vector<std::size_t> indices;
          indices.reserve(end - start);
          for (std::size_t k = start; k < end; ++k) indices.push_back(subset[shuffle[k]]);
          worker.zero_grad();
          const Tensor logits = worker.forward(client.data->batch(indices), /*training=*/true);
          const LossResult loss =
              softmax_cross_entropy(logits, client.data->batch_labels(indices));
          worker.backward(loss.grad);
          optimizer.step(worker.parameters());
        }
      }
    }

    PersonalizedModel personalized;
    personalized.client_index = c;
    personalized.weights = worker.weights();
    personalized.local_accuracy =
        subset.empty() ? 0.0 : subset_accuracy(worker, *client.data, subset, options.batch_size);
    personalized.global_accuracy = evaluate(worker, test_set).accuracy;
    local_sum += personalized.local_accuracy;
    global_sum += personalized.global_accuracy;
    result.models.push_back(std::move(personalized));
  }
  const double inv = clients.empty() ? 0.0 : 1.0 / static_cast<double>(clients.size());
  result.mean_local_accuracy = local_sum * inv;
  result.mean_global_accuracy = global_sum * inv;
  return result;
}

}  // namespace tradefl::fl

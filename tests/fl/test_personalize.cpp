// Personalization (the paper's Sec. VII future work): local fine-tuning of
// the trained global model per organization.
#include "fl/personalize.h"

#include <gtest/gtest.h>

#include "fl/loss.h"

namespace tradefl::fl {
namespace {

struct Fixture {
  DatasetSpec concept_spec = DatasetSpec::builtin(DatasetKind::kFmnistLike, 5);
  std::vector<Dataset> locals;
  Dataset test_set;
  ModelSpec model;

  Fixture() : test_set(concept_spec.with_sample_seed(999), 200) {
    for (std::size_t i = 0; i < 3; ++i) {
      locals.emplace_back(concept_spec.with_sample_seed(10 + i), 150);
    }
    model.kind = ModelKind::kMlp;
    model.channels = concept_spec.channels;
    model.height = concept_spec.height;
    model.width = concept_spec.width;
    model.classes = concept_spec.classes;
    model.seed = 3;
  }

  std::vector<FedClient> clients(std::vector<double> fractions) {
    std::vector<FedClient> out;
    for (std::size_t i = 0; i < fractions.size(); ++i) {
      out.push_back(FedClient{&locals[i], fractions[i], 100 + i});
    }
    return out;
  }

  FedAvgResult train(const std::vector<FedClient>& cs) {
    FedAvgOptions options;
    options.rounds = 6;
    options.local_epochs = 2;
    return train_fedavg(model, cs, test_set, options);
  }
};

TEST(Personalize, ProducesOneModelPerClient) {
  Fixture fixture;
  const auto clients = fixture.clients({1.0, 0.5, 0.3});
  const auto federated = fixture.train(clients);
  const auto result = personalize(fixture.model, federated, clients, fixture.test_set);
  ASSERT_EQ(result.models.size(), 3u);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(result.models[c].client_index, c);
    EXPECT_EQ(result.models[c].weights.size(), federated.final_weights.size());
  }
}

TEST(Personalize, ImprovesLocalFit) {
  // Fine-tuning on local data must raise accuracy on that local data above
  // the plain global model's local accuracy — the point of personalization.
  Fixture fixture;
  const auto clients = fixture.clients({1.0, 1.0, 1.0});
  const auto federated = fixture.train(clients);
  PersonalizeOptions options;
  options.epochs = 3;
  const auto result = personalize(fixture.model, federated, clients, fixture.test_set, options);
  // Global model's accuracy on client 0's local subset:
  Net global = build_model(fixture.model);
  global.set_weights(federated.final_weights);
  const auto subset = contributed_indices(fixture.locals[0].size(), 1.0, 100);
  std::size_t correct = 0;
  for (std::size_t start = 0; start < subset.size(); start += 64) {
    const std::size_t end = std::min(subset.size(), start + 64);
    std::vector<std::size_t> idx(subset.begin() + static_cast<std::ptrdiff_t>(start),
                                 subset.begin() + static_cast<std::ptrdiff_t>(end));
    const Tensor logits = global.forward(fixture.locals[0].batch(idx), false);
    correct += softmax_cross_entropy(logits, fixture.locals[0].batch_labels(idx)).correct;
  }
  const double global_local_acc =
      static_cast<double>(correct) / static_cast<double>(subset.size());
  EXPECT_GE(result.models[0].local_accuracy, global_local_acc - 1e-9);
}

TEST(Personalize, PersonalizedWeightsDiffer) {
  Fixture fixture;
  const auto clients = fixture.clients({1.0, 1.0, 1.0});
  const auto federated = fixture.train(clients);
  const auto result = personalize(fixture.model, federated, clients, fixture.test_set);
  EXPECT_NE(result.models[0].weights, federated.final_weights);
  EXPECT_NE(result.models[0].weights, result.models[1].weights);
}

TEST(Personalize, ZeroContributorKeepsGlobalModel) {
  Fixture fixture;
  const auto clients = fixture.clients({1.0, 1.0, 0.0});
  const auto federated = fixture.train(clients);
  const auto result = personalize(fixture.model, federated, clients, fixture.test_set);
  EXPECT_EQ(result.models[2].weights, federated.final_weights);
  EXPECT_DOUBLE_EQ(result.models[2].local_accuracy, 0.0);
}

TEST(Personalize, ReportsGlobalBaseline) {
  Fixture fixture;
  const auto clients = fixture.clients({1.0, 0.5, 0.5});
  const auto federated = fixture.train(clients);
  const auto result = personalize(fixture.model, federated, clients, fixture.test_set);
  EXPECT_NEAR(result.global_model_accuracy, federated.final_accuracy, 1e-9);
  EXPECT_GE(result.mean_local_accuracy, 0.0);
  EXPECT_GE(result.mean_global_accuracy, 0.0);
}

TEST(Personalize, ValidatesInputs) {
  Fixture fixture;
  const auto clients = fixture.clients({1.0, 1.0, 1.0});
  const auto federated = fixture.train(clients);
  FedAvgResult empty;
  EXPECT_THROW(personalize(fixture.model, empty, clients, fixture.test_set),
               std::invalid_argument);
  PersonalizeOptions bad;
  bad.epochs = 0;
  EXPECT_THROW(personalize(fixture.model, federated, clients, fixture.test_set, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace tradefl::fl

// A training session builds each organization's shard storing only the
// images FedAvg reads from it. These tests hold the trained model to the
// model FedAvg trains over shards that store every image — the way the
// session built them before — at one and four threads, and across a crash
// and resume inside the training phase.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "common/faults.h"
#include "common/parallel.h"
#include "game/game_factory.h"
#include "tradefl/session.h"

namespace tradefl {
namespace {

/// Restores the serial global pool even when an assertion fails mid-test.
struct ThreadsRestorer {
  ~ThreadsRestorer() { set_global_threads(1); }
};

game::CoopetitionGame shard_game() {
  game::ExperimentSpec spec;
  spec.org_count = 6;
  return game::make_experiment_game(spec, 11);
}

SessionOptions training_options() {
  SessionOptions options;
  options.run_training = true;
  options.sample_scale = 0.2;
  options.test_samples = 120;
  options.fedavg.rounds = 3;
  options.seed = 31;
  return options;
}

/// The session's training phase over shards that store every image.
fl::FedAvgResult full_shard_training(const game::CoopetitionGame& game,
                                     const SessionOptions& options,
                                     const game::StrategyProfile& profile) {
  const fl::DatasetSpec concept_spec = fl::DatasetSpec::builtin(options.dataset, options.seed);
  std::vector<fl::Dataset> locals;
  locals.reserve(game.size());
  std::vector<fl::FedClient> clients;
  for (game::OrgId i = 0; i < game.size(); ++i) {
    const std::size_t samples = std::max<std::size_t>(
        8, static_cast<std::size_t>(std::lround(
               options.sample_scale * static_cast<double>(game.org(i).sample_count))));
    locals.emplace_back(concept_spec.with_sample_seed(options.seed + i + 1), samples);
    clients.push_back(fl::FedClient{&locals.back(), profile[i].data_fraction,
                                    options.seed * 131 + i});
  }
  const fl::Dataset test_set(concept_spec.with_sample_seed(options.seed + 7777),
                             options.test_samples);
  fl::ModelSpec model_spec;
  model_spec.kind = options.model;
  model_spec.channels = concept_spec.channels;
  model_spec.height = concept_spec.height;
  model_spec.width = concept_spec.width;
  model_spec.classes = concept_spec.classes;
  model_spec.seed = options.seed;
  return fl::train_fedavg(model_spec, clients, test_set, options.fedavg);
}

TEST(SessionShards, TrainedWeightsMatchFullShardsAtOneAndFourThreads) {
  ThreadsRestorer restore;
  const game::CoopetitionGame game = shard_game();
  const SessionOptions options = training_options();

  set_global_threads(1);
  TradingSession serial_session(game);
  const SessionResult serial = serial_session.run(options);
  ASSERT_TRUE(serial.training.has_value());
  ASSERT_TRUE(serial.degradations.empty());
  const game::StrategyProfile& profile = serial.mechanism.solution.profile;
  // The comparison shows something only if some shard skips images.
  EXPECT_TRUE(std::any_of(profile.begin(), profile.end(), [](const game::Strategy& org) {
    return org.data_fraction < 1.0;
  }));

  const fl::FedAvgResult oracle = full_shard_training(game, options, profile);
  ASSERT_FALSE(oracle.final_weights.empty());
  EXPECT_EQ(serial.training->final_weights, oracle.final_weights);  // bitwise
  EXPECT_EQ(serial.training->final_accuracy, oracle.final_accuracy);

  set_global_threads(4);
  TradingSession threaded_session(game);
  const SessionResult threaded = threaded_session.run(options);
  ASSERT_TRUE(threaded.training.has_value());
  EXPECT_EQ(threaded.training->final_weights, oracle.final_weights);
}

TEST(SessionShards, TrainingResumedAfterCrashMatchesFullShards) {
  const game::CoopetitionGame game = shard_game();
  SessionOptions options = training_options();
  const std::string dir = std::string(::testing::TempDir()) + "/session_shards_resume";
  std::filesystem::remove_all(dir);
  options.checkpoint_dir = dir;

  // crash:2 fires at the top of FedAvg round 2, after round 1's checkpoint:
  // the resumed session builds its shards again and finishes training.
  Result<FaultPlan> crash_plan = parse_fault_plan("crash:2");
  ASSERT_TRUE(crash_plan.ok());
  SessionOptions crashing = options;
  crashing.faults = crash_plan.value();
  {
    CrashContainmentScope contain;
    TradingSession crashed(game);
    EXPECT_THROW(static_cast<void>(crashed.run(crashing)), InjectedCrash);
  }

  SessionOptions resuming = options;
  resuming.resume = true;
  TradingSession resumed_session(game);
  const SessionResult resumed = resumed_session.run(resuming);
  ASSERT_TRUE(resumed.training.has_value());
  const fl::FedAvgResult oracle =
      full_shard_training(game, options, resumed.mechanism.solution.profile);
  EXPECT_EQ(resumed.training->final_weights, oracle.final_weights);  // bitwise
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tradefl

// Byte goldens for every persisted format. (a) One fixed value of each type
// with a codec pins its encoding as hex, decodes, and re-encodes to the same
// bytes. (b) The file each checkpointing pipeline writes for a fixed run is
// pinned by SHA-256. (c) A session directory that a crashed run left at
// phase 4 (checked in under tests/data/) resumes to a pinned phase-5
// snapshot. A format change can only land here as an edited expectation.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chain/abi.h"
#include "chain/block.h"
#include "chain/bytes.h"
#include "chain/sha256.h"
#include "chain/tradefl_contract.h"
#include "common/config.h"
#include "common/snapshot.h"
#include "core/cgbd.h"
#include "core/deviation_audit.h"
#include "core/mechanism.h"
#include "fl/fedasync.h"
#include "fl/fedavg.h"
#include "fl/robust_agg.h"
#include "game/game_factory.h"
#include "tradefl/cli.h"
#include "tradefl/server.h"
#include "tradefl/session.h"

namespace tradefl {
namespace {

#ifndef TRADEFL_CLI_PATH
#error "TRADEFL_CLI_PATH must point at the tradefl executable"
#endif
#ifndef TRADEFL_SOURCE_DIR
#error "TRADEFL_SOURCE_DIR must point at the source tree"
#endif

using Bytes = std::vector<std::uint8_t>;

std::string temp_dir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/golden_" + name;
  std::filesystem::remove_all(dir);  // TempDir persists across runs: start clean
  std::filesystem::create_directories(dir);
  return dir;
}

std::string file_sha256(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << "missing " << path;
  const Bytes bytes{std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>()};
  return chain::hash_to_hex(chain::sha256(bytes));
}

// ----- (a) value goldens -----

/// Encodes `value`, pins the hex, decodes it, and checks the decoded value
/// re-encodes to the same bytes.
template <class T>
void expect_golden(const T& value, const std::string& hex) {
  SnapshotWriter writer;
  writer(value);
  EXPECT_EQ(chain::to_hex(writer.payload()), hex);
  T decoded{};
  SnapshotReader reader(writer.payload());
  reader(decoded);
  reader.require_exhausted();
  SnapshotWriter again;
  again(decoded);
  EXPECT_EQ(again.payload(), writer.payload());
}

/// The chain archive's counterpart for the hashed types.
template <class T>
void expect_chain_round_trip(const chain::Bytes& bytes) {
  T decoded{};
  chain::ByteReader reader(bytes);
  reader(decoded);
  EXPECT_TRUE(reader.exhausted());
  chain::ByteWriter again;
  again(decoded);
  EXPECT_EQ(again.data(), bytes);
}

game::StrategyProfile sample_profile() { return {{0.25, 1}, {0.75, 2}}; }

core::IterationRecord sample_record() {
  core::IterationRecord record;
  record.iteration = 3;
  record.potential = 1.5;
  record.paper_potential = -2.25;
  record.welfare = 0.125;
  record.payoffs = {1.0, -1.0};
  record.profile = sample_profile();
  return record;
}

core::Solution sample_solution() {
  core::Solution solution;
  solution.profile = sample_profile();
  solution.trace = {sample_record()};
  solution.converged = true;
  solution.iterations = 7;
  solution.solve_seconds = 0.5;
  solution.diagnostics = {{"gap", 0.0625}};
  return solution;
}

core::MechanismResult sample_mechanism() {
  core::MechanismResult result;
  result.scheme = core::Scheme::kGca;
  result.solution = sample_solution();
  result.welfare = 2.5;
  result.potential = 3.5;
  result.paper_potential = 4.5;
  result.total_damage = 0.75;
  result.total_data_fraction = 1.0;
  result.performance = 0.875;
  result.payoffs = {1.25, 1.5};
  result.redistribution = {{0.0, 0.5}, {-0.5, 0.0}};
  return result;
}

core::PropertyReport sample_properties() {
  core::PropertyReport report;
  report.individual_rationality = true;
  report.min_payoff = -0.5;
  report.budget_balance = false;
  report.redistribution_sum = 0.25;
  report.nash_equilibrium = true;
  report.max_unilateral_gain = 0.0625;
  report.computationally_efficient = false;
  report.iterations = 11;
  return report;
}

core::SiloDeviation sample_silo() {
  core::SiloDeviation silo;
  silo.silo = 1;
  silo.attack = "signflip";
  silo.truthful_payoff = 1.0;
  silo.empirical_payoff = 0.5;
  silo.payoff_gain = -0.5;
  silo.influence = 0.25;
  silo.rejected_share = 0.75;
  return silo;
}

core::DeviationAudit sample_audit() {
  core::DeviationAudit audit;
  audit.attacked = true;
  audit.analytic_accuracy = 0.875;
  audit.measured_accuracy = 0.4375;
  audit.accuracy_ratio = 0.5;
  audit.attacked_updates = 4;
  audit.rejected_updates = 2;
  audit.clipped_updates = 1;
  audit.attacker_influence = 0.125;
  audit.ir_empirical = true;
  audit.min_honest_payoff = 0.25;
  audit.bb_empirical = true;
  audit.redistribution_sum = -0.125;
  audit.ce_empirical = false;
  audit.silos = {sample_silo()};
  return audit;
}

fl::RoundMetrics sample_round() {
  fl::RoundMetrics metrics;
  metrics.round = 2;
  metrics.train_loss = 1.5;
  metrics.test_loss = 1.75;
  metrics.test_accuracy = 0.5;
  metrics.participants = 3;
  metrics.dropped = 1;
  metrics.quarantined = 2;
  metrics.skipped = true;
  metrics.attacked = 4;
  metrics.rejected = 5;
  metrics.clipped = 6;
  metrics.attacker_influence = 0.375;
  return metrics;
}

fl::FedAvgResult sample_training() {
  fl::FedAvgResult result;
  result.history = {sample_round()};
  result.final_accuracy = 0.625;
  result.final_loss = 1.125;
  result.total_contributed_samples = 300;
  result.final_weights = {0.5f, -1.5f};
  result.rounds_skipped = 1;
  result.total_dropped = 2;
  result.total_quarantined = 3;
  result.total_attacked = 4;
  result.total_rejected = 5;
  result.total_clipped = 6;
  result.client_influence = {0.25, 0.75};
  result.client_rejected = {1, 0};
  return result;
}

fl::AggregatorSpec sample_aggregator() {
  fl::AggregatorSpec spec;
  spec.kind = fl::AggregatorKind::kKrum;
  spec.trim = 2;
  spec.clip_norm = 0.5;
  return spec;
}

TEST(SnapshotGolden, SolverTypes) {
  expect_golden(sample_profile(),
      "0200000000000000000000000000d03f0100000000000000000000000000e83f0200000000000000");
  expect_golden(sample_record(),
      "0300000000000000000000000000f83f00000000000002c0000000000000c03f0200000000000000"
      "000000000000f03f000000000000f0bf0200000000000000000000000000d03f0100000000000000"
      "000000000000e83f0200000000000000");
  expect_golden(sample_solution(),
      "0200000000000000000000000000d03f0100000000000000000000000000e83f0200000000000000"
      "01000000000000000300000000000000000000000000f83f00000000000002c0000000000000c03f"
      "0200000000000000000000000000f03f000000000000f0bf0200000000000000000000000000d03f"
      "0100000000000000000000000000e83f0200000000000000010700000000000000000000000000e0"
      "3f01000000000000000300000000000000676170000000000000b03f");
  expect_golden(sample_mechanism(),
      "03000000000000000200000000000000000000000000d03f0100000000000000000000000000e83f"
      "020000000000000001000000000000000300000000000000000000000000f83f00000000000002c0"
      "000000000000c03f0200000000000000000000000000f03f000000000000f0bf0200000000000000"
      "000000000000d03f0100000000000000000000000000e83f02000000000000000107000000000000"
      "00000000000000e03f01000000000000000300000000000000676170000000000000b03f00000000"
      "000004400000000000000c400000000000001240000000000000e83f000000000000f03f00000000"
      "0000ec3f0200000000000000000000000000f43f000000000000f83f020000000000000002000000"
      "000000000000000000000000000000000000e03f0200000000000000000000000000e0bf00000000"
      "00000000");
  expect_golden(sample_properties(),
      "01000000000000e0bf00000000000000d03f01000000000000b03f000b00000000000000");
  expect_golden(sample_silo(),
      "010000000000000008000000000000007369676e666c6970000000000000f03f000000000000e03f"
      "000000000000e0bf000000000000d03f000000000000e83f");
  expect_golden(sample_audit(),
      "01000000000000ec3f000000000000dc3f000000000000e03f040000000000000002000000000000"
      "000100000000000000000000000000c03f01000000000000d03f01000000000000c0bf0001000000"
      "00000000010000000000000008000000000000007369676e666c6970000000000000f03f00000000"
      "0000e03f000000000000e0bf000000000000d03f000000000000e83f");
}

TEST(SnapshotGolden, TrainingTypes) {
  expect_golden(sample_round(),
      "0200000000000000000000000000f83f000000000000fc3f000000000000e03f0300000000000000"
      "01000000000000000200000000000000010400000000000000050000000000000006000000000000"
      "00000000000000d83f");
  expect_golden(sample_training(),
      "01000000000000000200000000000000000000000000f83f000000000000fc3f000000000000e03f"
      "03000000000000000100000000000000020000000000000001040000000000000005000000000000"
      "000600000000000000000000000000d83f000000000000e43f000000000000f23f2c010000000000"
      "0002000000000000000000003f0000c0bf0100000000000000020000000000000003000000000000"
      "000400000000000000050000000000000006000000000000000200000000000000000000000000d0"
      "3f000000000000e83f020000000000000001000000000000000000000000000000");
  expect_golden(sample_aggregator(),
      "030000000200000000000000000000000000e03f");
}

TEST(SnapshotGolden, ChainTypes) {
  chain::Transaction tx;
  tx.from = chain::Address::from_name("alice");
  tx.to = chain::Address::from_name("contract");
  tx.value = 1000;
  tx.nonce = 3;
  tx.data = {1, 2, 3};
  tx.gas_limit = 5'000'000;
  tx.fee = 7;
  EXPECT_EQ(chain::to_hex(tx.serialize()),
      "14000000d2a1db510e3d394fb78fc1764bea9ba9e98887551400000068adcdc5eb12190431f92cd4"
      "2e04cc4127a155a8e803000000000000030000000000000003000000010203404b4c000000000007"
      "00000000000000");
  expect_chain_round_trip<chain::Transaction>(tx.serialize());

  chain::BlockHeader header;
  header.index = 4;
  header.timestamp = 9;
  header.prev_hash = chain::sha256(std::string("prev"));
  header.tx_root = chain::sha256(std::string("root"));
  EXPECT_EQ(chain::to_hex(header.serialize()),
      "040000000000000009000000000000002000000084fd9bac333ad79154348296204fa7f8c537a96e"
      "08983e5f73b3f5aca8e8edf7200000004813494d137e1631bba301d5acab6e7bb7aa74ce1185d456"
      "565ef51d737677b2");
  expect_chain_round_trip<chain::BlockHeader>(header.serialize());

  chain::TradeFlContractConfig config;
  config.gamma_scaled = chain::Fixed::from_double(1.5);
  config.lambda = chain::Fixed::from_double(0.25);
  config.org_count = 2;
  config.rho = {chain::Fixed{}, chain::Fixed::from_double(0.5), chain::Fixed::from_double(0.5),
                chain::Fixed{}};
  config.data_size_gb = {chain::Fixed::from_double(1.0), chain::Fixed::from_double(2.0)};
  config.min_deposit = 10;
  chain::TradeFlContract contract(config);
  const chain::Bytes state = contract.save_state();
  EXPECT_EQ(chain::to_hex(state),
      "00000100000000000000020000001400000000000000000000000000000000000000000000000000"
      "00000000000000000000000000000000000000000000000000000000000000001400000000000000"
      "00000000000000000000000000000000000000000000000000000000000000000000000000000000"
      "00000000000000000000");
  chain::TradeFlContract restored(config);
  restored.load_state(state);
  EXPECT_EQ(restored.save_state(), state);

  const std::vector<chain::AbiValue> values = {
      std::uint64_t{5}, std::int64_t{-6}, std::string("seven"), chain::Address::from_name("bob"),
      chain::Bytes{8, 9}, chain::Fixed::from_raw(10)};
  const chain::Bytes encoded = chain::encode_values(values);
  EXPECT_EQ(chain::to_hex(encoded),
      "0600000001050000000000000002faffffffffffffff0305000000736576656e04140000003dc06d"
      "9286e4fffe28956be0068a2d408da4087305020000000809060a00000000000000");
  EXPECT_EQ(chain::encode_values(chain::decode_values(encoded)), encoded);
}

// ----- (b) file goldens -----

TEST(SnapshotGolden, CgbdCheckpointFile) {
  game::ExperimentSpec spec;
  spec.org_count = 4;
  const game::CoopetitionGame game = game::make_experiment_game(spec, 42);
  core::CgbdOptions options;
  options.max_iterations = 3;
  options.checkpoint_path = temp_dir("cgbd") + "/cgbd.snap";
  (void)core::run_cgbd(game, options);
  EXPECT_EQ(file_sha256(options.checkpoint_path),
      "99e9a66b7163ff325d45bfc67cf87c91ee8a5d599a05ae77107b7b72437639d8");
}

struct TrainingFixture {
  fl::DatasetSpec concept_spec = fl::DatasetSpec::builtin(fl::DatasetKind::kFmnistLike, 5);
  std::vector<fl::Dataset> locals;
  fl::Dataset test_set;
  fl::ModelSpec model;

  TrainingFixture() : test_set(concept_spec.with_sample_seed(999), 40) {
    for (std::size_t i = 0; i < 2; ++i) locals.emplace_back(concept_spec.with_sample_seed(10 + i), 48);
    model.channels = concept_spec.channels;
    model.height = concept_spec.height;
    model.width = concept_spec.width;
    model.classes = concept_spec.classes;
    model.seed = 3;
  }
};

TEST(SnapshotGolden, FedAvgCheckpointFile) {
  TrainingFixture fixture;
  const std::vector<fl::FedClient> clients = {{&fixture.locals[0], 0.5, 100},
                                              {&fixture.locals[1], 1.0, 101}};
  fl::FedAvgOptions options;
  options.rounds = 2;
  options.batch_size = 16;
  options.checkpoint_path = temp_dir("fedavg") + "/fedavg.snap";
  (void)fl::train_fedavg(fixture.model, clients, fixture.test_set, options);
  EXPECT_EQ(file_sha256(options.checkpoint_path),
      "4d2d149251673916f39906d3046ac97f62f5fc9ac892b47bad11a4be3df12a23");
}

TEST(SnapshotGolden, FedAsyncCheckpointFile) {
  TrainingFixture fixture;
  const std::vector<fl::AsyncClient> clients = {{{&fixture.locals[0], 0.5, 100}, 1.0},
                                                {{&fixture.locals[1], 1.0, 101}, 1.5}};
  fl::FedAsyncOptions options;
  options.horizon = 4.0;
  options.batch_size = 16;
  options.max_batches_per_epoch = 2;
  options.eval_every = 2;
  options.checkpoint_path = temp_dir("fedasync") + "/fedasync.snap";
  (void)fl::train_fedasync(fixture.model, clients, fixture.test_set, options);
  EXPECT_EQ(file_sha256(options.checkpoint_path),
      "080bf709f72915d01ba1ead5f19e99f6c610b14a67a57726561b0a2292d1e335");
}

TEST(SnapshotGolden, ChainWalAndStateFiles) {
  Config config;
  config.set("orgs", "3");
  config.set("seed", "51");
  const game::CoopetitionGame game = cli::game_from_options(config);
  auto built = cli::session_options_from_config(config);
  ASSERT_TRUE(built.ok());
  SessionOptions options = std::move(built).take();
  const std::string dir = temp_dir("chain");
  options.checkpoint_dir = dir;
  TradingSession session(game);
  const SessionResult result = session.run(options);
  ASSERT_TRUE(result.settled);
  ASSERT_TRUE(session.blockchain().save_snapshot(dir + "/chain.state").ok());
  EXPECT_EQ(file_sha256(dir + "/chain.wal"),
      "76bb72e77623498956c7909775d1db15ac422089fae15207e45acdf67dc15ec5");
  EXPECT_EQ(file_sha256(dir + "/chain.state"),
      "5a10c611f0a14bd1ce2ad75b40c086e04a27d62c50ba3e9a4ab2919673f06934");
}

TEST(SnapshotGolden, ServeRegistryFile) {
  server::ServeOptions options;
  options.root = temp_dir("serve");
  std::istringstream in(
      "{\"op\": \"session\", \"orgs\": \"3\", \"seed\": \"51\"}\n");
  std::ostringstream out;
  server::StreamLineSource source(in);
  server::Server daemon(options);
  const server::ServeSummary summary = daemon.run(source, out);
  ASSERT_EQ(summary.exit_code, 0) << out.str();
  EXPECT_EQ(file_sha256(options.root + "/registry.snap"),
      "6bfa8aa926aba0d280c31b0cd0499fe709a237cc07f786f52b055468a877b7d3");
}

// ----- (c) session resume golden -----

TEST(SnapshotGolden, SessionResumesFromCheckedInPhaseFour) {
  // Left by `tradefl session orgs=6 scheme=dbr seed=42 faults=crash:4
  // checkpoint=DIR` (exit 86 after the phase-4 checkpoint). The phase-4
  // session.snap carries that run's wall-clock solve time, so the resumed
  // phase-5 snapshot is deterministic.
  const std::string dir = temp_dir("session");
  std::filesystem::copy(std::string(TRADEFL_SOURCE_DIR) + "/tests/data/session_phase4", dir,
                        std::filesystem::copy_options::recursive);
  const std::string command = std::string(TRADEFL_CLI_PATH) +
                              " session orgs=6 scheme=dbr seed=42 faults=crash:4 checkpoint=" +
                              dir + " resume=1 > " + dir + "/resume.log 2>&1";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << command;
  EXPECT_EQ(file_sha256(dir + "/session.snap"),
      "828c1764382ceb681bbb96755e19083633bf7ef38944190a8fb275a0d638d5ed");
  EXPECT_EQ(file_sha256(dir + "/chain.wal"),
      "56a0cece56bdd9da99d3051fe8b63534e6c3cef049126cc6929c062c5ef03113");
}

}  // namespace
}  // namespace tradefl

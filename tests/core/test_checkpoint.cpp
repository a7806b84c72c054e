// CGBD crash-consistent checkpointing: a solve that snapshots mid-run and
// resumes in a fresh solver must reproduce the uninterrupted solve exactly —
// cuts, bounds, incumbent, trace — and refuse snapshots from another game.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "common/snapshot.h"
#include "core/cgbd.h"
#include "core/mechanism.h"
#include "game/game_factory.h"

namespace tradefl::core {
namespace {

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

game::CoopetitionGame small_game(std::uint64_t seed, std::size_t n = 4) {
  game::ExperimentSpec spec;
  spec.org_count = n;
  return make_experiment_game(spec, seed);
}

void expect_same_solution(const Solution& a, const Solution& b) {
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.profile.size(), b.profile.size());
  for (std::size_t i = 0; i < a.profile.size(); ++i) {
    EXPECT_EQ(a.profile[i].data_fraction, b.profile[i].data_fraction) << "org " << i;
    EXPECT_EQ(a.profile[i].freq_index, b.profile[i].freq_index) << "org " << i;
  }
  EXPECT_EQ(a.diagnostic("upper_bound"), b.diagnostic("upper_bound"));
  EXPECT_EQ(a.diagnostic("lower_bound"), b.diagnostic("lower_bound"));
  EXPECT_EQ(a.diagnostic("optimality_cuts"), b.diagnostic("optimality_cuts"));
  EXPECT_EQ(a.diagnostic("feasibility_cuts"), b.diagnostic("feasibility_cuts"));
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].iteration, b.trace[i].iteration);
    EXPECT_EQ(a.trace[i].potential, b.trace[i].potential);  // exact bit-identity
    EXPECT_EQ(a.trace[i].welfare, b.trace[i].welfare);
    EXPECT_EQ(a.trace[i].payoffs, b.trace[i].payoffs);
  }
}

TEST(CgbdCheckpoint, ResumedSolveIsBitIdenticalToUninterrupted) {
  const auto game = small_game(42);
  const Solution baseline = run_cgbd(game);
  ASSERT_GE(baseline.iterations, 3) << "need a multi-iteration instance to split";

  // Interrupt after two iterations (the cap stands in for a crash), then let
  // a fresh solver resume from the snapshot and run to convergence.
  const std::string path = temp_path("cgbd_split.snap");
  CgbdOptions first;
  first.max_iterations = 2;
  first.checkpoint_path = path;
  (void)run_cgbd(game, first);
  ASSERT_TRUE(snapshot_exists(path));

  CgbdOptions second;
  second.checkpoint_path = path;
  second.resume = true;
  const Solution resumed = run_cgbd(game, second);
  expect_same_solution(baseline, resumed);
}

TEST(CgbdCheckpoint, SnapshotFromAnotherGameFailsClosed) {
  const std::string path = temp_path("cgbd_foreign.snap");
  CgbdOptions first;
  first.max_iterations = 2;
  first.checkpoint_path = path;
  (void)run_cgbd(small_game(42), first);
  ASSERT_TRUE(snapshot_exists(path));

  CgbdOptions second;
  second.checkpoint_path = path;
  second.resume = true;
  try {
    (void)run_cgbd(small_game(43), second);
    FAIL() << "foreign snapshot must not resume";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("failed closed"), std::string::npos)
        << error.what();
  }
}

TEST(CgbdCheckpoint, VersionOneSnapshotFailsClosed) {
  // A version-1 file holds cuts of the former approximate primal. Same
  // payload, older version: resuming from it must fail, not mix cuts.
  const auto game = small_game(42);
  const std::string path = temp_path("cgbd_v1.snap");
  CgbdOptions first;
  first.max_iterations = 2;
  first.checkpoint_path = path;
  (void)run_cgbd(game, first);
  const auto payload = read_snapshot_file(path, "core.gbd", 2);
  ASSERT_TRUE(payload.ok()) << payload.error().to_string();
  SnapshotWriter writer;
  for (const std::uint8_t byte : payload.value()) writer(byte);
  ASSERT_TRUE(write_snapshot_file(path, "core.gbd", 1, writer).ok());

  CgbdOptions second;
  second.checkpoint_path = path;
  second.resume = true;
  try {
    (void)run_cgbd(game, second);
    FAIL() << "version-1 snapshot must not resume";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("snapshot.version"), std::string::npos)
        << error.what();
  }
}

TEST(CgbdCheckpoint, MissingSnapshotWithResumeIsColdStart) {
  const auto game = small_game(42);
  CgbdOptions options;
  options.checkpoint_path = temp_path("cgbd_cold.snap");
  std::filesystem::remove(options.checkpoint_path);  // TempDir persists across runs
  options.resume = true;
  expect_same_solution(run_cgbd(game), run_cgbd(game, options));
}

// ----- decoders fail closed on hostile payloads -----

template <class T>
Result<T> decode_as(const std::vector<std::uint8_t>& payload) {
  return decode_snapshot<T>(payload, [](SnapshotReader& reader) {
    T value{};
    reader(value);
    return value;
  });
}

TEST(SnapshotDecode, HostileProfileCountFailsClosed) {
  // A CRC-valid checkpoint can still claim 2^40 or 2^62 strategies; the
  // decode must fail typed instead of reserving them.
  for (const std::uint64_t count : {std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
    SnapshotWriter writer;
    writer(count, 0.5, std::uint64_t{1});
    const auto decoded = decode_as<game::StrategyProfile>(writer.payload());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, "snapshot.decode");
  }
}

TEST(SnapshotDecode, OutOfRangeSchemeFailsClosed) {
  MechanismResult result;
  result.scheme = Scheme::kTos;
  SnapshotWriter writer;
  writer(result);
  ASSERT_TRUE(decode_as<MechanismResult>(writer.payload()).ok());
  std::vector<std::uint8_t> payload = writer.payload();
  payload[0] = 99;  // the scheme is the leading u64: no such Scheme
  const auto decoded = decode_as<MechanismResult>(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "snapshot.decode");
}

}  // namespace
}  // namespace tradefl::core

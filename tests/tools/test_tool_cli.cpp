// End-to-end exit-code contract for the checker binaries: 0 clean,
// 1 findings (or self-test failure / perf regression), 2 usage/configuration
// error. CI scripts branch on these codes, so they are API. Binary paths are
// baked in by CMake (TFL_LINT_BIN / TFL_ANALYZE_BIN / TFL_BENCH_DIFF_BIN).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

namespace fs = std::filesystem;

int run(const std::string& command) {
  const int status = std::system((command + " > /dev/null 2>&1").c_str());
  return WEXITSTATUS(status);
}

class ToolCli : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each discovered test as its own process, possibly in
    // parallel — the scratch dir must be unique per process AND per test.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("tfl_cli_" + std::to_string(::getpid()) + "_" + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path write(const std::string& name, const std::string& content) {
    const fs::path path = dir_ / name;
    std::ofstream out(path);
    out << content;
    return path;
  }

  /// A file tfl-analyze flags once (parallel-capture: a by-reference
  /// accumulator written inside a parallel_for lambda).
  void write_capture_race() {
    write("race.cpp",
          "void f(tradefl::ThreadPool* pool, std::vector<double>& weights) {\n"
          "  double total = 0.0;\n"
          "  parallel_for(pool, 0, weights.size(), 64,\n"
          "               [&](std::size_t lo, std::size_t hi, std::size_t) {\n"
          "    for (std::size_t i = lo; i < hi; ++i) total += weights[i];\n"
          "  });\n"
          "}\n");
  }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// tfl-lint
// ---------------------------------------------------------------------------

TEST_F(ToolCli, LintSelfTestPasses) { EXPECT_EQ(run(std::string(TFL_LINT_BIN) + " --self-test"), 0); }

TEST_F(ToolCli, LintCleanTreeExitsZero) {
  write("clean.cpp", "int add(int a, int b) { return a + b; }\n");
  EXPECT_EQ(run(std::string(TFL_LINT_BIN) + " " + dir_.string()), 0);
}

TEST_F(ToolCli, LintFindingExitsOne) {
  write("timer.cpp", "auto t0 = std::chrono::steady_clock::now();\n");
  EXPECT_EQ(run(std::string(TFL_LINT_BIN) + " " + dir_.string()), 1);
}

TEST_F(ToolCli, LintAllowlistSuppressesToZero) {
  write("timer.cpp", "auto t0 = std::chrono::steady_clock::now();\n");
  const fs::path allow = write("allow.txt", "raw-steady-clock timer.cpp\n");
  EXPECT_EQ(run(std::string(TFL_LINT_BIN) + " --allow " + allow.string() + " " + dir_.string()),
            0);
}

TEST_F(ToolCli, LintUsageErrorsExitTwo) {
  EXPECT_EQ(run(std::string(TFL_LINT_BIN) + " --no-such-flag"), 2);
  EXPECT_EQ(run(std::string(TFL_LINT_BIN)), 2);                      // no paths
  EXPECT_EQ(run(std::string(TFL_LINT_BIN) + " --allow"), 2);        // missing operand
  EXPECT_EQ(run(std::string(TFL_LINT_BIN) + " /nonexistent/tree"), 2);
}

// ---------------------------------------------------------------------------
// tfl-analyze
// ---------------------------------------------------------------------------

TEST_F(ToolCli, AnalyzeSelfTestPasses) {
  EXPECT_EQ(run(std::string(TFL_ANALYZE_BIN) + " --self-test"), 0);
}

TEST_F(ToolCli, AnalyzeCleanTreeExitsZero) {
  write("clean.cpp", "int add(int a, int b) { return a + b; }\n");
  EXPECT_EQ(run(std::string(TFL_ANALYZE_BIN) + " " + dir_.string()), 0);
}

TEST_F(ToolCli, AnalyzeFindingExitsOneInEveryFormat) {
  write_capture_race();
  for (const char* format : {"text", "json", "sarif"}) {
    EXPECT_EQ(run(std::string(TFL_ANALYZE_BIN) + " --format " + format + " " + dir_.string()), 1)
        << format;
  }
}

TEST_F(ToolCli, AnalyzeBaselineSuppressesToZero) {
  write_capture_race();
  const fs::path baseline =
      write("baseline.txt", "parallel-capture race.cpp  # reviewed: single-threaded pool\n");
  EXPECT_EQ(run(std::string(TFL_ANALYZE_BIN) + " --baseline " + baseline.string() + " " +
                dir_.string()),
            0);
}

TEST_F(ToolCli, AnalyzeBaselineWithoutJustificationExitsTwo) {
  write_capture_race();
  const fs::path baseline = write("baseline.txt", "parallel-capture race.cpp\n");
  EXPECT_EQ(run(std::string(TFL_ANALYZE_BIN) + " --baseline " + baseline.string() + " " +
                dir_.string()),
            2);
}

TEST_F(ToolCli, AnalyzeUsageErrorsExitTwo) {
  EXPECT_EQ(run(std::string(TFL_ANALYZE_BIN) + " --no-such-flag"), 2);
  EXPECT_EQ(run(std::string(TFL_ANALYZE_BIN)), 2);  // no paths
  EXPECT_EQ(run(std::string(TFL_ANALYZE_BIN) + " --format yaml ."), 2);
  EXPECT_EQ(run(std::string(TFL_ANALYZE_BIN) + " /nonexistent/tree"), 2);
  EXPECT_EQ(run(std::string(TFL_ANALYZE_BIN) + " --baseline /nonexistent/base.txt ."), 2);
}

// ---------------------------------------------------------------------------
// tfl-bench-diff
// ---------------------------------------------------------------------------

TEST_F(ToolCli, BenchDiffIdenticalManifestsExitZero) {
  const fs::path old_manifest = write(
      "old.json", "{\"bench\": \"bench_load\", \"metrics\": {\"tx_per_sec\": 1000}}\n");
  const fs::path new_manifest = write(
      "new.json", "{\"bench\": \"bench_load\", \"metrics\": {\"tx_per_sec\": 1000}}\n");
  EXPECT_EQ(run(std::string(TFL_BENCH_DIFF_BIN) + " " + old_manifest.string() + " " +
                new_manifest.string()),
            0);
}

TEST_F(ToolCli, BenchDiffRegressionExitsOneInEveryFormat) {
  const fs::path old_manifest = write(
      "old.json", "{\"bench\": \"bench_load\", \"metrics\": {\"operations\": 64}}\n");
  const fs::path new_manifest = write(
      "new.json", "{\"bench\": \"bench_load\", \"metrics\": {\"operations\": 63}}\n");
  for (const char* format : {"text", "json"}) {
    EXPECT_EQ(run(std::string(TFL_BENCH_DIFF_BIN) + " --format " + format + " " +
                  old_manifest.string() + " " + new_manifest.string()),
              1)
        << format;
  }
}

TEST_F(ToolCli, BenchDiffThresholdFlagWidensTheGate) {
  const fs::path old_manifest = write(
      "old.json", "{\"bench\": \"bench_load\", \"metrics\": {\"tx_per_sec\": 1000}}\n");
  const fs::path new_manifest = write(
      "new.json", "{\"bench\": \"bench_load\", \"metrics\": {\"tx_per_sec\": 700}}\n");
  const std::string pair = " " + old_manifest.string() + " " + new_manifest.string();
  EXPECT_EQ(run(std::string(TFL_BENCH_DIFF_BIN) + pair), 1);  // -30% vs default 25%
  EXPECT_EQ(run(std::string(TFL_BENCH_DIFF_BIN) + " --threshold 0.4" + pair), 0);
}

TEST_F(ToolCli, BenchDiffMalformedInputsExitTwo) {
  const fs::path good = write(
      "good.json", "{\"bench\": \"bench_load\", \"metrics\": {\"tx_per_sec\": 1000}}\n");
  const fs::path truncated = write("bad.json", "{\"oops\"\n");
  const fs::path no_metrics = write("flat.json", "{\"bench\": \"bench_load\"}\n");
  const std::string bin(TFL_BENCH_DIFF_BIN);
  EXPECT_EQ(run(bin + " " + good.string() + " " + truncated.string()), 2);
  EXPECT_EQ(run(bin + " " + good.string() + " " + no_metrics.string()), 2);
  EXPECT_EQ(run(bin + " " + good.string() + " /nonexistent/manifest.json"), 2);
  EXPECT_EQ(run(bin + " " + good.string()), 2);  // missing operand
  EXPECT_EQ(run(bin + " --no-such-flag a b"), 2);
  EXPECT_EQ(run(bin + " --format yaml " + good.string() + " " + good.string()), 2);
}

}  // namespace

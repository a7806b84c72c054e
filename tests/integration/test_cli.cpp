// The tradefl CLI layer: parsing, dispatch, and end-to-end subcommand runs.
#include "tradefl/cli.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/obs.h"

namespace tradefl::cli {
namespace {

TEST(CliParse, AcceptsKnownCommands) {
  for (const char* command :
       {"solve", "compare", "sweep", "metrics", "session", "chain", "help"}) {
    const auto invocation = parse({command});
    ASSERT_TRUE(invocation.ok()) << command;
    EXPECT_EQ(invocation.value().command, command);
  }
}

TEST(CliParse, CaseInsensitiveCommand) {
  const auto invocation = parse({"SOLVE", "seed=7"});
  ASSERT_TRUE(invocation.ok());
  EXPECT_EQ(invocation.value().command, "solve");
  EXPECT_EQ(invocation.value().options.get_int("seed", 0), 7);
}

TEST(CliParse, RejectsUnknownCommandAndBadOptions) {
  EXPECT_FALSE(parse({}).ok());
  EXPECT_FALSE(parse({"frobnicate"}).ok());
  EXPECT_FALSE(parse({"solve", "not-a-kv"}).ok());
}

TEST(CliParse, SchemeNames) {
  EXPECT_TRUE(parse_scheme("DBR").ok());
  EXPECT_EQ(parse_scheme("cgbd").value(), core::Scheme::kCgbd);
  EXPECT_EQ(parse_scheme("tos").value(), core::Scheme::kTos);
  EXPECT_FALSE(parse_scheme("equilibrium9000").ok());
}

TEST(CliSpec, OptionsOverrideDefaults) {
  Config options;
  options.set("orgs", "4");
  options.set("gamma", "1e-8");
  options.set("mu", "0.02");
  const auto spec = spec_from_options(options);
  EXPECT_EQ(spec.org_count, 4u);
  EXPECT_DOUBLE_EQ(spec.params.gamma, 1e-8);
  EXPECT_DOUBLE_EQ(spec.rho_mean, 0.02);
}

TEST(CliRun, HelpPrintsUsage) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"help"}).value(), out), 0);
  EXPECT_NE(out.str().find("usage"), std::string::npos);
  EXPECT_NE(out.str().find("solve"), std::string::npos);
}

TEST(CliRun, SolveReportsEquilibrium) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"solve", "orgs=5", "seed=3"}).value(), out), 0);
  EXPECT_NE(out.str().find("welfare"), std::string::npos);
  EXPECT_NE(out.str().find("IR="), std::string::npos);
}

TEST(CliRun, SolveRejectsBadScheme) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"solve", "scheme=bogus"}).value(), out), 2);
}

TEST(CliRun, CompareListsEverySchemeRow) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"compare", "orgs=5", "seed=3"}).value(), out), 0);
  for (core::Scheme scheme : core::all_schemes()) {
    EXPECT_NE(out.str().find(core::scheme_name(scheme)), std::string::npos);
  }
}

TEST(CliRun, SweepEmitsRequestedPoints) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"sweep", "orgs=5", "points=4", "seed=3"}).value(), out), 0);
  // Header + separators + 4 rows: count '\n' in the table body conservatively.
  std::size_t rows = 0;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("| 1") == 0 || line.find("| 1e-") != std::string::npos) ++rows;
  }
  EXPECT_GE(rows, 2u);
}

TEST(CliRun, SessionSettlesOnChain) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"session", "orgs=4", "seed=3"}).value(), out), 0);
  EXPECT_NE(out.str().find("budget balance"), std::string::npos);
  EXPECT_NE(out.str().find("VALID"), std::string::npos);
}

TEST(CliRun, SessionRejectsMalformedFaultSpec) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"session", "orgs=4", "seed=3", "faults=drop:1.5"}).value(), out), 2);
  EXPECT_NE(out.str().find("faults"), std::string::npos);
}

TEST(CliRun, FaultSpecErrorEchoesTokenAndGrammar) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"session", "orgs=4", "seed=3", "faults=signflip:2.5"}).value(), out), 2);
  // A typo must be diagnosable from the CLI output alone: the offending token
  // verbatim plus the full accepted grammar.
  EXPECT_NE(out.str().find("'signflip:2.5'"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("accepted grammar"), std::string::npos);
  EXPECT_NE(out.str().find("collude:<silos>"), std::string::npos);
}

TEST(CliRun, AggSpecErrorEchoesTokenAndGrammar) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"session", "orgs=4", "seed=3", "agg=inverse"}).value(), out), 2);
  EXPECT_NE(out.str().find("'inverse'"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("agg=mean | median | trimmed[:f]"), std::string::npos);
}

TEST(CliRun, SessionEchoesFaultPlanAndSurvivesChaos) {
  std::ostringstream out;
  // Transient submission loss at 20%: retries absorb it, settlement lands,
  // exit code stays 0.
  EXPECT_EQ(run(parse({"session", "orgs=4", "seed=3",
                       "faults=seed:5,submit:0.2"}).value(),
                out),
            0);
  EXPECT_NE(out.str().find("fault plan:"), std::string::npos);
  EXPECT_NE(out.str().find("submit:0.2"), std::string::npos);
  EXPECT_NE(out.str().find("budget balance"), std::string::npos);
}

TEST(CliRun, SessionReportsAbortWhenRetriesExhausted) {
  std::ostringstream out;
  // Every submission lost: the chain phase gives up gracefully. The escrow
  // is retained, settlements stay zero, the chain stays valid — exit 0.
  EXPECT_EQ(run(parse({"session", "orgs=4", "seed=3", "faults=submit:1.0"}).value(), out),
            0);
  EXPECT_NE(out.str().find("ABORTED"), std::string::npos);
  EXPECT_NE(out.str().find("degradations"), std::string::npos);
}

TEST(CliRun, ChainShowsBlocksAndEvents) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"chain", "orgs=3", "seed=3"}).value(), out), 0);
  EXPECT_NE(out.str().find("Registered"), std::string::npos);
  EXPECT_NE(out.str().find("PayoffTransferred"), std::string::npos);
  EXPECT_NE(out.str().find("validation: VALID"), std::string::npos);
}

TEST(CliRun, SolveFromGameFile) {
  const std::string path = testing::TempDir() + "/tradefl_cli_game.cfg";
  {
    std::ofstream file(path);
    file << "orgs = 2\n"
            "gamma = 1e-8\n"
            "org.0.name = ayla\n"
            "org.0.p = 2200\n"
            "org.1.name = brint\n"
            "org.1.p = 800\n"
            "rho.0.1 = 0.05\n"
            "rho.1.0 = 0.05\n";
  }
  std::ostringstream out;
  EXPECT_EQ(run(parse({"solve", "file=" + path}).value(), out), 0);
  EXPECT_NE(out.str().find("ayla"), std::string::npos);
  EXPECT_NE(out.str().find("brint"), std::string::npos);
}

TEST(CliRun, MissingGameFileFails) {
  std::ostringstream out;
  EXPECT_THROW(run(parse({"solve", "file=/nonexistent/game.cfg"}).value(), out),
               std::runtime_error);
}

#if TRADEFL_ENABLE_TRACING
TEST(CliRun, MetricsCommandPrintsSolverTelemetry) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"metrics", "orgs=4", "seed=3", "scheme=cgbd"}).value(), out), 0);
  // Every CGBD primal solve records its time.
  EXPECT_NE(out.str().find("cgbd.subproblem.seconds"), std::string::npos);
  EXPECT_NE(out.str().find("cgbd.iterations"), std::string::npos);
  EXPECT_NE(out.str().find("solver.potential.trajectory"), std::string::npos);
  EXPECT_FALSE(obs::enabled());  // the CLI turns observation back off after the run
}

TEST(CliRun, MetricsFlagAugmentsAnyCommand) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"solve", "orgs=4", "seed=3", "scheme=dbr", "metrics=1"}).value(), out),
            0);
  EXPECT_NE(out.str().find("dbr.rounds.count"), std::string::npos);
}

TEST(CliRun, MetricsJsonAndTraceFilesAreWritten) {
  const std::string json_path = testing::TempDir() + "/tradefl_cli_metrics.json";
  const std::string trace_path = testing::TempDir() + "/tradefl_cli_trace.json";
  std::ostringstream out;
  EXPECT_EQ(run(parse({"metrics", "orgs=4", "seed=3", "scheme=cgbd",
                       "metrics_json=" + json_path, "trace=" + trace_path})
                    .value(),
                out),
            0);
  std::ifstream json_file(json_path);
  ASSERT_TRUE(json_file.good());
  std::stringstream json;
  json << json_file.rdbuf();
  EXPECT_NE(json.str().find("\"counters\""), std::string::npos);
  EXPECT_NE(json.str().find("cgbd.subproblem.seconds"), std::string::npos);
  std::ifstream trace_file(trace_path);
  ASSERT_TRUE(trace_file.good());
  std::stringstream trace;
  trace << trace_file.rdbuf();
  EXPECT_EQ(trace.str().rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(trace.str().find("\"cgbd.solve\""), std::string::npos);
  EXPECT_NE(trace.str().find("\"ph\": \"X\""), std::string::npos);
}

TEST(CliRun, UnwritableMetricsJsonFails) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"metrics", "orgs=4", "seed=3",
                       "metrics_json=/nonexistent/dir/metrics.json"})
                    .value(),
                out),
            1);
}

namespace {

/// Replaces the numeric payload of every `dt_us` / `dur_us` field — the
/// documented way to compare two ledgers of the same workload.
std::string strip_ledger_timestamps(const std::string& path) {
  std::ifstream file(path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  std::string text = buffer.str();
  for (const std::string& field : {std::string("\"dt_us\": "), std::string("\"dur_us\": ")}) {
    std::size_t pos = 0;
    while ((pos = text.find(field, pos)) != std::string::npos) {
      std::size_t digit = pos + field.size();
      std::size_t end = digit;
      while (end < text.size() && std::isdigit(static_cast<unsigned char>(text[end])) != 0) {
        ++end;
      }
      text.replace(digit, end - digit, "X");
      pos = digit;
    }
  }
  return text;
}

}  // namespace

TEST(CliRun, LedgerOptionWritesWellFormedRunLedger) {
  const std::string path = testing::TempDir() + "/tradefl_cli_ledger.jsonl";
  std::ostringstream out;
  EXPECT_EQ(run(parse({"session", "orgs=4", "seed=3", "ledger=" + path}).value(), out), 0);
  EXPECT_NE(out.str().find("run ledger"), std::string::npos);
  const std::string text = strip_ledger_timestamps(path);
  EXPECT_EQ(text.rfind("{\"dt_us\": X, \"type\": \"ledger\", \"name\": \"open\"", 0), 0u);
  EXPECT_NE(text.find("\"type\": \"phase_begin\", \"name\": \"session.run\""),
            std::string::npos);
  EXPECT_NE(text.find("\"type\": \"phase_end\", \"name\": \"session.settle\""),
            std::string::npos);
  EXPECT_NE(text.find("\"type\": \"metrics\""), std::string::npos);  // final snapshot
  EXPECT_NE(text.find("\"name\": \"close\""), std::string::npos);
  EXPECT_FALSE(obs::event_log().active());  // the CLI closes its own ledger
}

TEST(CliRun, LedgerIsByteIdenticalAcrossThreadCounts) {
  // The determinism contract from obs/event_log.h: events come from serial
  // points and metrics lines carry no timing-derived values, so only the
  // *_us fields may differ between a serial and a parallel run.
  const std::string serial = testing::TempDir() + "/tradefl_cli_ledger_t1.jsonl";
  const std::string parallel = testing::TempDir() + "/tradefl_cli_ledger_t4.jsonl";
  std::ostringstream out;
  EXPECT_EQ(run(parse({"session", "orgs=4", "seed=3", "train=1", "rounds=2", "threads=1",
                       "ledger=" + serial})
                    .value(),
                out),
            0);
  EXPECT_EQ(run(parse({"session", "orgs=4", "seed=3", "train=1", "rounds=2", "threads=4",
                       "ledger=" + parallel})
                    .value(),
                out),
            0);
  const std::string serial_text = strip_ledger_timestamps(serial);
  EXPECT_NE(serial_text.find("\"name\": \"fedavg.round\""), std::string::npos);
  EXPECT_EQ(serial_text, strip_ledger_timestamps(parallel));
}

TEST(CliRun, UnwritableLedgerFails) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"session", "orgs=4", "seed=3",
                       "ledger=/nonexistent/dir/run.jsonl"})
                    .value(),
                out),
            1);
}
#else
TEST(CliRun, MetricsCommandStillRunsWithTracingCompiledOut) {
  // With the compile gate off the solver runs normally; only the runtime
  // series recorded by append_iteration remain available.
  std::ostringstream out;
  EXPECT_EQ(run(parse({"metrics", "orgs=4", "seed=3", "scheme=cgbd"}).value(), out), 0);
  EXPECT_NE(out.str().find("solver.potential.trajectory"), std::string::npos);
}
#endif

}  // namespace
}  // namespace tradefl::cli

// In-process tests of the serve daemon (src/tradefl/server.{h,cpp}) and its
// wire protocol: admission + completion byte-identical to a solo run, bounded
// load shedding, watchdog eviction, drain parking, restart re-attach, crash
// containment, and fail-closed registry handling. Every test drives a real
// Server through a LineSource and parses the reply lines back through the
// wire codec — exactly what a remote client sees.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/faults.h"
#include "common/snapshot.h"
#include "tradefl/cli.h"
#include "tradefl/report.h"
#include "tradefl/server.h"
#include "tradefl/session.h"
#include "tradefl/wire.h"

namespace tradefl {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);  // TempDir persists across runs: start clean
  std::filesystem::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << "missing " << path;
  return {std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>()};
}

/// The small session used throughout: 3 orgs, no training, distinct seeds.
Config session_config(std::uint64_t seed, const std::string& faults = "") {
  Config config;
  config.set("orgs", "3");
  config.set("seed", std::to_string(seed));
  if (!faults.empty()) config.set("faults", faults);
  return config;
}

std::string session_request_line(const Config& config) {
  wire::Message request;
  request.set_string("op", "session");
  for (const auto& [key, value] : config.entries()) {
    request.set_string(key, value);
  }
  return request.serialize();
}

/// Canonical report of an uninterrupted solo run of the same option
/// vocabulary. Crash/hang events are stripped — a solo run has no containment
/// scope or supervisor, and the server strips them on requeue/re-attach too,
/// so the stripped plan is exactly what the served session finished under.
std::string solo_report(const Config& config) {
  const game::CoopetitionGame game = cli::game_from_options(config);
  auto built = cli::session_options_from_config(config);
  EXPECT_TRUE(built.ok());
  SessionOptions options = std::move(built).take();
  auto& events = options.faults.events;
  events.erase(std::remove_if(events.begin(), events.end(),
                              [](const FaultEvent& event) {
                                return event.kind == FaultKind::kProcessCrash ||
                                       event.kind == FaultKind::kPhaseHang;
                              }),
               events.end());
  TradingSession session(game);
  const SessionResult result = session.run(options);
  return canonical_session_report(game, result);
}

struct ServeRun {
  server::ServeSummary summary;
  std::vector<wire::Message> replies;
  std::string raw;
};

/// Runs one server lifecycle over an in-memory input and parses every reply
/// line back through the strict wire parser (a reply that does not round-trip
/// is itself a protocol bug).
ServeRun run_serve(const server::ServeOptions& options,
                   const std::vector<std::string>& lines) {
  std::string joined;
  for (const std::string& line : lines) joined += line + "\n";
  std::istringstream in(joined);
  std::ostringstream out;
  server::StreamLineSource source(in);
  server::Server daemon(options);
  ServeRun run;
  run.summary = daemon.run(source, out);
  run.raw = out.str();
  std::istringstream replies(run.raw);
  std::string line;
  while (std::getline(replies, line)) {
    auto parsed = wire::Message::parse(line);
    EXPECT_TRUE(parsed.ok()) << "unparseable reply: " << line;
    if (parsed.ok()) run.replies.push_back(std::move(parsed).take());
  }
  return run;
}

std::vector<const wire::Message*> replies_with_op(const ServeRun& run,
                                                  const std::string& op) {
  std::vector<const wire::Message*> matches;
  for (const wire::Message& reply : run.replies) {
    if (reply.get_string("op") == std::optional<std::string>(op)) {
      matches.push_back(&reply);
    }
  }
  return matches;
}

/// Reply for session `id` with the given op, or nullptr.
const wire::Message* reply_for(const ServeRun& run, const std::string& op,
                               std::uint64_t id) {
  for (const wire::Message* reply : replies_with_op(run, op)) {
    if (reply->get_number("id") == std::optional<double>(static_cast<double>(id))) {
      return reply;
    }
  }
  return nullptr;
}

/// A LineSource that waits a per-line delay before delivering, so tests can
/// order protocol input against worker progress without flaky sleeps spread
/// through the test body.
class PacedLineSource : public server::LineSource {
 public:
  explicit PacedLineSource(std::vector<std::pair<int, std::string>> lines)
      : lines_(std::move(lines)) {}

  server::ReadStatus next(std::string& line) override {
    if (index_ >= lines_.size()) return server::ReadStatus::kEof;
    const auto& [delay_ms, text] = lines_[index_++];
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    line = text;
    return server::ReadStatus::kLine;
  }

 private:
  std::vector<std::pair<int, std::string>> lines_;
  std::size_t index_ = 0;
};

// ---------------------------------------------------------------------------
// Wire protocol.

TEST(ServeWire, SerializeParseRoundTripPreservesOrderAndEscapes) {
  wire::Message message;
  message.set_string("op", "session");
  message.set_string("note", "tabs\tand \"quotes\" and\nnewlines");
  message.set_number("orgs", 4);
  message.set_number("scale", 0.15);
  message.set_bool("train", true);
  message.set("gap", wire::Value::null());

  const std::string line = message.serialize();
  auto parsed = wire::Message::parse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().serialize(), line) << "round trip must be bit-identical";
  EXPECT_EQ(parsed.value().fields()[0].first, "op") << "field order must survive";
  EXPECT_EQ(parsed.value().get_string("note"),
            std::optional<std::string>("tabs\tand \"quotes\" and\nnewlines"));
  EXPECT_EQ(parsed.value().get_number("orgs"), std::optional<double>(4.0));
  EXPECT_EQ(parsed.value().get_bool("train"), std::optional<bool>(true));
}

TEST(ServeWire, StrictParseRejectsMalformedInput) {
  const std::vector<std::string> bad = {
      "",                                  // not an object
      "{\"op\": \"x\"",                   // unterminated object
      "{\"op\": {\"nested\": 1}}",        // nested object (flat by design)
      "{\"op\": [1, 2]}",                 // array
      "{\"op\": \"a\", \"op\": \"b\"}",   // duplicate key
      "{\"op\": \"a\"} trailing",          // trailing garbage
      "{\"op\": \"\\x\"}",                // bad escape
      "{op: \"a\"}",                      // unquoted key
  };
  for (const std::string& line : bad) {
    auto parsed = wire::Message::parse(line);
    EXPECT_FALSE(parsed.ok()) << "should reject: " << line;
    if (!parsed.ok()) EXPECT_EQ(parsed.error().code, "wire.parse") << line;
  }
}

TEST(ServeWire, ToConfigFlattensOntoCliVocabulary) {
  auto parsed = wire::Message::parse(
      "{\"op\": \"session\", \"orgs\": 4, \"train\": true, \"scale\": 0.5, "
      "\"skip\": null, \"scheme\": \"dbr\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const Config config = wire::to_config(parsed.value());
  EXPECT_FALSE(config.get("op").has_value()) << "protocol keys must not leak";
  EXPECT_EQ(config.get_int("orgs", 0), 4) << "integral numbers render integrally";
  EXPECT_EQ(config.get_string("train", ""), "1");
  EXPECT_EQ(config.get_string("scheme", ""), "dbr");
  EXPECT_FALSE(config.get("skip").has_value()) << "nulls are skipped";
}

// ---------------------------------------------------------------------------
// Admission, completion, byte-identity.

TEST(Serve, CompletesSessionsByteIdenticalToSoloRuns) {
  const std::string root = temp_dir("serve_basic");
  server::ServeOptions options;
  options.root = root;
  options.workers = 2;

  const Config first = session_config(11);
  const Config second = session_config(12);
  const ServeRun run = run_serve(
      options, {"{\"op\": \"ping\"}", session_request_line(first),
                session_request_line(second), "{\"op\": \"status\"}"});

  EXPECT_EQ(run.summary.exit_code, 0) << run.raw;
  EXPECT_EQ(run.summary.admitted, 2u);
  EXPECT_EQ(run.summary.completed, 2u);
  EXPECT_EQ(run.summary.failed, 0u);
  EXPECT_FALSE(run.summary.drained);

  ASSERT_FALSE(run.replies.empty());
  EXPECT_EQ(run.replies.front().get_string("op"), std::optional<std::string>("hello"));
  EXPECT_EQ(run.replies.back().get_string("op"), std::optional<std::string>("bye"));
  EXPECT_EQ(replies_with_op(run, "pong").size(), 1u);
  EXPECT_EQ(replies_with_op(run, "accepted").size(), 2u);
  EXPECT_EQ(replies_with_op(run, "done").size(), 2u);

  // Sessions are admitted in request order, so id 1 is `first`, id 2 `second`.
  const wire::Message* done_first = reply_for(run, "done", 1);
  const wire::Message* done_second = reply_for(run, "done", 2);
  ASSERT_NE(done_first, nullptr) << run.raw;
  ASSERT_NE(done_second, nullptr) << run.raw;
  EXPECT_EQ(slurp(*done_first->get_string("report")), solo_report(first))
      << "served session must be byte-identical to a solo run";
  EXPECT_EQ(slurp(*done_second->get_string("report")), solo_report(second));
}

TEST(Serve, RejectsMalformedLinesAndUnknownOpsWithoutDying) {
  const std::string root = temp_dir("serve_bad_input");
  server::ServeOptions options;
  options.root = root;
  options.workers = 1;

  const ServeRun run = run_serve(
      options, {"{broken", "{\"op\": \"frobnicate\"}",
                "{\"op\": \"session\", \"scheme\": \"not-a-scheme\"}",
                "{\"op\": \"ping\"}"});

  EXPECT_EQ(run.summary.exit_code, 0) << "bad input is the client's problem";
  EXPECT_EQ(run.summary.admitted, 0u);

  std::vector<std::string> error_codes;
  for (const wire::Message& reply : run.replies) {
    if (const auto code = reply.get_string("error")) error_codes.push_back(*code);
  }
  EXPECT_NE(std::find(error_codes.begin(), error_codes.end(), "wire.parse"),
            error_codes.end())
      << run.raw;
  EXPECT_NE(std::find(error_codes.begin(), error_codes.end(), "serve.op"),
            error_codes.end())
      << run.raw;
  EXPECT_EQ(replies_with_op(run, "pong").size(), 1u)
      << "the daemon must keep serving after bad requests";
}

TEST(Serve, OptionBuilderBoundsChecksCounts) {
  Config bad_workers;
  bad_workers.set("workers", "0");
  EXPECT_FALSE(server::serve_options_from_config(bad_workers).ok());

  Config bad_queue;
  bad_queue.set("queue_limit", "0");
  EXPECT_FALSE(server::serve_options_from_config(bad_queue).ok());

  Config bad_watchdog;
  bad_watchdog.set("watchdog_seconds", "-0.5");
  EXPECT_FALSE(server::serve_options_from_config(bad_watchdog).ok());

  Config good;
  good.set("root", "x");
  good.set("workers", "3");
  good.set("queue_limit", "5");
  good.set("watchdog_seconds", "1.5");
  good.set("resume", "0");
  auto built = server::serve_options_from_config(good);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built.value().workers, 3u);
  EXPECT_EQ(built.value().queue_limit, 5u);
  EXPECT_DOUBLE_EQ(built.value().watchdog_seconds, 1.5);
  EXPECT_FALSE(built.value().resume);
}

// ---------------------------------------------------------------------------
// Load shedding + drain parking + re-attach.

TEST(Serve, ShedsLoadWhenQueueIsFullThenDrainsAndReattaches) {
  const std::string root = temp_dir("serve_shed");
  server::ServeOptions options;
  options.root = root;
  options.workers = 1;
  options.queue_limit = 1;

  // The first session hangs at phase 1, wedging the single worker; by the
  // time the second request lands (300 ms later) it is off the queue, so the
  // second occupies the one queue slot and the next two are shed.
  const Config hung = session_config(21, "seed:1,hang:1");
  const Config queued = session_config(22);

  std::ostringstream out;
  PacedLineSource source({{0, session_request_line(hung)},
                          {300, session_request_line(queued)},
                          {30, session_request_line(session_config(23))},
                          {0, session_request_line(session_config(24))},
                          {0, "{\"op\": \"drain\"}"}});
  server::Server daemon(options);
  const server::ServeSummary summary = daemon.run(source, out);

  EXPECT_EQ(summary.exit_code, 0) << out.str();
  EXPECT_TRUE(summary.drained);
  EXPECT_EQ(summary.admitted, 2u) << out.str();
  EXPECT_EQ(summary.rejected, 2u) << out.str();
  EXPECT_EQ(summary.parked, 2u)
      << "drain must park both the cancelled hang and the queued session\n"
      << out.str();
  EXPECT_EQ(summary.completed, 0u);
  EXPECT_NE(out.str().find("\"error\": \"overloaded\""), std::string::npos) << out.str();

  // Both parked sessions stayed pending in the registry; a restarted server
  // re-attaches (stripping the hang) and finishes them bit-identically.
  server::ServeOptions restart = options;
  const ServeRun resumed = run_serve(restart, {});
  EXPECT_EQ(resumed.summary.exit_code, 0) << resumed.raw;
  EXPECT_EQ(resumed.summary.reattached, 2u) << resumed.raw;
  EXPECT_EQ(resumed.summary.completed, 2u) << resumed.raw;

  const wire::Message* done_hung = reply_for(resumed, "done", 1);
  const wire::Message* done_queued = reply_for(resumed, "done", 2);
  ASSERT_NE(done_hung, nullptr) << resumed.raw;
  ASSERT_NE(done_queued, nullptr) << resumed.raw;
  EXPECT_EQ(done_hung->get_bool("reattached"), std::optional<bool>(true));
  EXPECT_EQ(slurp(*done_hung->get_string("report")), solo_report(hung));
  EXPECT_EQ(slurp(*done_queued->get_string("report")), solo_report(queued));
}

// ---------------------------------------------------------------------------
// Watchdog eviction.

TEST(Serve, WatchdogEvictsHungSessionAndRestartCompletesIt) {
  const std::string root = temp_dir("serve_watchdog");
  server::ServeOptions options;
  options.root = root;
  options.workers = 2;
  options.watchdog_seconds = 0.3;

  const Config hung = session_config(31, "seed:1,hang:2");
  const Config healthy = session_config(32);
  const ServeRun run =
      run_serve(options, {session_request_line(hung), session_request_line(healthy)});

  EXPECT_EQ(run.summary.exit_code, 0) << run.raw;
  EXPECT_EQ(run.summary.evicted, 1u) << run.raw;
  EXPECT_EQ(run.summary.completed, 1u) << run.raw;
  EXPECT_FALSE(run.summary.drained) << "eviction is per-session, not a shutdown";

  const wire::Message* evicted = reply_for(run, "evicted", 1);
  ASSERT_NE(evicted, nullptr) << run.raw;
  EXPECT_EQ(evicted->get_string("error"), std::optional<std::string>("deadline"));

  // The healthy neighbour was untouched by the eviction.
  const wire::Message* done_healthy = reply_for(run, "done", 2);
  ASSERT_NE(done_healthy, nullptr) << run.raw;
  EXPECT_EQ(slurp(*done_healthy->get_string("report")), solo_report(healthy));

  // The evicted session stayed pending; a restart strips the hang and runs it
  // to a byte-identical report.
  const ServeRun resumed = run_serve(options, {});
  EXPECT_EQ(resumed.summary.reattached, 1u) << resumed.raw;
  EXPECT_EQ(resumed.summary.completed, 1u) << resumed.raw;
  const wire::Message* done_hung = reply_for(resumed, "done", 1);
  ASSERT_NE(done_hung, nullptr) << resumed.raw;
  EXPECT_EQ(slurp(*done_hung->get_string("report")), solo_report(hung));
}

// ---------------------------------------------------------------------------
// Crash containment.

TEST(Serve, ContainsInjectedCrashAndRequeuesToCompletion) {
  const std::string root = temp_dir("serve_crash");
  server::ServeOptions options;
  options.root = root;
  options.workers = 1;

  const Config crashing = session_config(41, "seed:1,crash:2");
  const ServeRun run = run_serve(options, {session_request_line(crashing)});

  EXPECT_EQ(run.summary.exit_code, 0) << "a contained crash must not kill the daemon";
  EXPECT_EQ(run.summary.crashed, 1u) << run.raw;
  EXPECT_EQ(run.summary.completed, 1u) << "the requeued attempt finishes the session";
  EXPECT_EQ(run.summary.failed, 0u);

  const wire::Message* crashed = reply_for(run, "crashed", 1);
  ASSERT_NE(crashed, nullptr) << run.raw;
  EXPECT_EQ(crashed->get_bool("resumable"), std::optional<bool>(true));
  EXPECT_NE(crashed->get_string("detail").value_or("").find("point 2"),
            std::string::npos);

  const wire::Message* done = reply_for(run, "done", 1);
  ASSERT_NE(done, nullptr) << run.raw;
  EXPECT_EQ(slurp(*done->get_string("report")), solo_report(crashing))
      << "crash + resume must converge to the uninterrupted report";
}

// ---------------------------------------------------------------------------
// Registry durability.

TEST(Serve, CorruptRegistryFailsClosedInsteadOfForgettingSessions) {
  const std::string root = temp_dir("serve_corrupt_registry");
  {
    std::ofstream registry(root + "/registry.snap", std::ios::binary);
    registry << "TFLSgarbage that is definitely not a valid snapshot payload";
  }
  server::ServeOptions options;
  options.root = root;
  const ServeRun run = run_serve(options, {session_request_line(session_config(51))});
  EXPECT_EQ(run.summary.exit_code, 1)
      << "refusing to serve beats silently forgetting admitted sessions";
  EXPECT_EQ(run.summary.admitted, 0u);
  EXPECT_NE(run.raw.find("\"ok\": false"), std::string::npos) << run.raw;
}

TEST(Serve, HostileRegistryEntryCountFailsClosed) {
  // A CRC-valid registry whose entry count no payload could hold: the load
  // must fail typed (snapshot.decode) instead of reserving 2^40 or 2^62
  // entries, and the daemon must refuse to serve.
  for (const std::uint64_t count : {std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
    const std::string root = temp_dir("serve_hostile_registry");
    SnapshotWriter writer;
    writer(std::uint64_t{1}, count);  // next_session_id, then the entry count
    ASSERT_TRUE(
        write_snapshot_file(root + "/registry.snap", "tradefl.server.registry", 1, writer).ok());
    server::ServeOptions options;
    options.root = root;
    const ServeRun run = run_serve(options, {});
    EXPECT_EQ(run.summary.exit_code, 1) << run.raw;
    bool decode_error = false;
    for (const wire::Message& reply : run.replies) {
      decode_error |= reply.get_string("error") == std::optional<std::string>("snapshot.decode");
    }
    EXPECT_TRUE(decode_error) << run.raw;
  }
}

TEST(Serve, ResumeOffIgnoresExistingRegistry) {
  const std::string root = temp_dir("serve_resume_off");
  server::ServeOptions options;
  options.root = root;

  // Park one session via drain so the registry has a pending entry.
  {
    std::ostringstream out;
    PacedLineSource source({{0, session_request_line(session_config(61, "seed:1,hang:1"))},
                            {250, "{\"op\": \"drain\"}"}});
    server::Server daemon(options);
    const server::ServeSummary summary = daemon.run(source, out);
    EXPECT_TRUE(summary.drained) << out.str();
    EXPECT_EQ(summary.parked, 1u) << out.str();
  }

  server::ServeOptions fresh = options;
  fresh.resume = false;
  const ServeRun run = run_serve(fresh, {});
  EXPECT_EQ(run.summary.reattached, 0u) << run.raw;
  EXPECT_EQ(run.summary.exit_code, 0);
}

}  // namespace
}  // namespace tradefl

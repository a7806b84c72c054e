#include "tradefl/cli.h"

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>

#include "common/parallel.h"
#include "common/snapshot.h"
#include "common/string_util.h"
#include "common/table.h"
#include "math/grid.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tradefl/report.h"
#include "tradefl/server.h"
#include "tradefl/session.h"

namespace tradefl::cli {
namespace {

const char* const kCommands[] = {"solve",   "compare", "sweep", "metrics",
                                 "session", "chain",   "serve", "help"};

/// Applies checkpoint=DIR checkpoint_every=N resume=1 to a CGBD solve.
/// resume with no snapshot yet is a cold start (the kill may predate the
/// first durable checkpoint); a present-but-corrupt snapshot fails closed.
void wire_solver_checkpoint(const Config& options, core::CgbdOptions& cgbd) {
  const auto dir = options.get("checkpoint");
  if (!dir) return;
  std::error_code ec;
  std::filesystem::create_directories(*dir, ec);
  cgbd.checkpoint_path = *dir + "/cgbd.snap";
  cgbd.checkpoint_every =
      static_cast<std::size_t>(options.get_int("checkpoint_every", 1));
  cgbd.resume = options.get_bool("resume", false) && snapshot_exists(cgbd.checkpoint_path);
}

int run_solve(const Config& options, std::ostream& out) {
  const auto scheme = parse_scheme(options.get_string("scheme", "dbr"));
  if (!scheme.ok()) {
    out << scheme.error().to_string() << "\n";
    return 2;
  }
  const auto game = game_from_options(options);
  core::SchemeOptions scheme_options;
  wire_solver_checkpoint(options, scheme_options.cgbd);
  FaultInjector injector;
  if (const auto spec = options.get("faults")) {
    const auto plan = parse_fault_plan(*spec);
    if (!plan.ok()) {
      out << plan.error().to_string() << "\n";
      return 2;
    }
    injector = FaultInjector(plan.value());
    if (injector.enabled()) scheme_options.cgbd.faults = &injector;
    out << "fault plan: " << plan.value().summary() << "\n";
  }
  const auto result = core::run_scheme(game, scheme.value(), scheme_options);
  out << describe_mechanism(game, result);
  out << "properties: " << core::verify_properties(game, result).summary() << "\n";
  return 0;
}

int run_compare(const Config& options, std::ostream& out) {
  const auto game = game_from_options(options);
  AsciiTable table({"scheme", "welfare", "potential", "damage", "Sum d_i", "P(Omega)",
                    "iterations"});
  for (core::Scheme scheme : core::all_schemes()) {
    const auto result = core::run_scheme(game, scheme);
    table.add_labeled_row(core::scheme_name(scheme),
                          {result.welfare, result.potential, result.total_damage,
                           result.total_data_fraction, result.performance,
                           static_cast<double>(result.solution.iterations)},
                          6);
  }
  out << table.render();
  return 0;
}

int run_sweep(const Config& options, std::ostream& out) {
  const auto scheme = parse_scheme(options.get_string("scheme", "dbr"));
  if (!scheme.ok()) {
    out << scheme.error().to_string() << "\n";
    return 2;
  }
  const double lo = options.get_double("gamma_lo", 1e-10);
  const double hi = options.get_double("gamma_hi", 1e-7);
  const std::size_t points = static_cast<std::size_t>(options.get_int("points", 9));
  AsciiTable table({"gamma", "welfare", "damage", "Sum d_i"});
  for (double gamma : math::logspace(lo, hi, points)) {
    Config point = options;
    point.set("gamma", format_double(gamma, 12));
    const auto game = game_from_options(point);
    const auto result = core::run_scheme(game, scheme.value());
    table.add_row_doubles({gamma, result.welfare, result.total_damage,
                           result.total_data_fraction},
                          6);
  }
  out << table.render();
  return 0;
}

int run_session(const Config& options, std::ostream& out) {
  const auto game = game_from_options(options);
  TradingSession session(game);
  auto built = session_options_from_config(options);
  if (!built.ok()) {
    out << built.error().to_string() << "\n";
    return 2;
  }
  SessionOptions session_options = std::move(built).take();
  if (!session_options.faults.empty()) {
    out << "fault plan: " << session_options.faults.summary() << "\n";
  }
  if (const auto dir = options.get("checkpoint")) {
    session_options.checkpoint_dir = *dir;
    session_options.checkpoint_every =
        static_cast<std::size_t>(options.get_int("checkpoint_every", 1));
    session_options.resume = options.get_bool("resume", false);
  }
  const SessionResult result = session.run(session_options);
  out << describe_session(game, result);
  if (const auto report_path = options.get("report")) {
    const Status written = write_session_report(*report_path, game, result);
    if (!written.ok()) {
      out << written.error().to_string() << "\n";
      return 1;
    }
    out << "report written to " << *report_path << "\n";
  }
  return result.chain_valid && result.settlement_sum == 0 ? 0 : 1;
}

int run_metrics(const Config& options, std::ostream& out) {
  // Runs one solve purely for its telemetry; the caller (run) prints the
  // registry snapshot afterwards.
  const auto scheme = parse_scheme(options.get_string("scheme", "cgbd"));
  if (!scheme.ok()) {
    out << scheme.error().to_string() << "\n";
    return 2;
  }
  const auto game = game_from_options(options);
  const auto result = core::run_scheme(game, scheme.value());
  out << "scheme " << core::scheme_name(scheme.value()) << ": welfare "
      << format_double(result.welfare, 6) << ", iterations " << result.solution.iterations
      << ", " << format_double(result.solution.solve_seconds, 4) << "s\n";
  return 0;
}

int run_chain(const Config& options, std::ostream& out) {
  const auto game = game_from_options(options);
  TradingSession session(game);
  const SessionResult result = session.run();
  chain::Blockchain& chain = session.blockchain();
  out << "contract " << result.contract_address.to_hex() << "\n";
  AsciiTable blocks({"block", "txs", "hash (prefix)"});
  for (std::size_t b = 0; b < chain.block_count(); ++b) {
    blocks.add_row({std::to_string(b), std::to_string(chain.block(b).transactions.size()),
                    chain::hash_to_hex(chain.block(b).header.hash()).substr(0, 16)});
  }
  out << blocks.render();
  AsciiTable events({"#", "event", "block"});
  for (std::size_t e = 0; e < chain.events().size(); ++e) {
    events.add_row({std::to_string(e), chain.events()[e].name,
                    std::to_string(chain.events()[e].block_index)});
  }
  out << events.render();
  const auto validation = chain.validate();
  out << "validation: " << (validation.valid ? "VALID" : validation.problem) << "\n";
  return validation.valid ? 0 : 1;
}

int run_serve(const Config& options, std::ostream& out) {
  auto serve_options = server::serve_options_from_config(options);
  if (!serve_options.ok()) {
    out << serve_options.error().to_string() << "\n";
    return 2;
  }
  server::Server daemon(std::move(serve_options).take());
  // SIGTERM flips the async-signal-safe drain flag; the EINTR-aware stdin
  // reader notices and the server drains (checkpoint in-flight work, flush
  // ledgers, exit 0).
  server::install_signal_handler(SIGTERM, server::request_drain);
  server::FdLineSource input(0);
  const server::ServeSummary summary = daemon.run(input, out);
  return summary.exit_code;
}

}  // namespace

Result<Invocation> parse(const std::vector<std::string>& args) {
  if (args.empty()) return Error{"cli", "missing command; try 'help'"};
  Invocation invocation;
  invocation.command = to_lower(args.front());
  bool known = false;
  for (const char* candidate : kCommands) {
    if (invocation.command == candidate) known = true;
  }
  if (!known) return Error{"cli", "unknown command '" + args.front() + "'; try 'help'"};
  auto options = Config::from_args({args.begin() + 1, args.end()});
  if (!options.ok()) return options.error();
  invocation.options = options.value();
  return invocation;
}

Result<core::Scheme> parse_scheme(const std::string& name) {
  const std::string lowered = to_lower(name);
  if (lowered == "cgbd") return core::Scheme::kCgbd;
  if (lowered == "dbr") return core::Scheme::kDbr;
  if (lowered == "wpr") return core::Scheme::kWpr;
  if (lowered == "gca") return core::Scheme::kGca;
  if (lowered == "fip") return core::Scheme::kFip;
  if (lowered == "tos") return core::Scheme::kTos;
  return Error{"cli", "unknown scheme '" + name + "' (cgbd|dbr|wpr|gca|fip|tos)"};
}

game::ExperimentSpec spec_from_options(const Config& options) {
  game::ExperimentSpec spec;
  spec.org_count = static_cast<std::size_t>(options.get_int("orgs", 10));
  spec.params.gamma = options.get_double("gamma", spec.params.gamma);
  spec.rho_mean = options.get_double("mu", spec.rho_mean);
  spec.params.omega_e = options.get_double("omega_e", spec.params.omega_e);
  spec.params.tau = options.get_double("tau", spec.params.tau);
  spec.params.lambda = options.get_double("lambda", spec.params.lambda);
  spec.params.d_min = options.get_double("d_min", spec.params.d_min);
  return spec;
}

game::CoopetitionGame game_from_options(const Config& options) {
  // file=path loads a fully explicit game definition (see
  // game::game_from_config); otherwise a seeded Table-II draw is used.
  if (const auto path = options.get("file")) {
    std::ifstream input(*path);
    if (!input) throw std::runtime_error("cannot open game file " + *path);
    std::ostringstream buffer;
    buffer << input.rdbuf();
    auto file_config = Config::from_text(buffer.str());
    if (!file_config.ok()) throw std::runtime_error(file_config.error().to_string());
    // CLI options override file entries (e.g. tweak gamma on the fly).
    Config merged = file_config.value();
    for (const auto& [key, value] : options.entries()) merged.set(key, value);
    auto loaded = game::game_from_config(merged);
    if (!loaded.ok()) throw std::runtime_error(loaded.error().to_string());
    return std::move(loaded).take();
  }
  return game::make_experiment_game(spec_from_options(options),
                                    static_cast<std::uint64_t>(options.get_int("seed", 42)));
}

Result<SessionOptions> session_options_from_config(const Config& options) {
  const auto scheme = parse_scheme(options.get_string("scheme", "dbr"));
  if (!scheme.ok()) return scheme.error();
  SessionOptions session_options;
  session_options.scheme = scheme.value();
  session_options.run_training = options.get_bool("train", false);
  session_options.sample_scale = options.get_double("sample_scale", 0.15);
  session_options.fedavg.rounds =
      static_cast<std::size_t>(options.get_int("rounds", 5));
  session_options.fedavg.quorum =
      static_cast<std::size_t>(options.get_int("quorum", 1));
  {
    auto aggregator = fl::parse_aggregator(options.get_string("agg", "mean"));
    if (!aggregator.ok()) return aggregator.error();
    session_options.fedavg.aggregator = aggregator.value();
  }
  session_options.seal_every =
      static_cast<std::size_t>(options.get_int("seal_every", 1));
  if (const auto spec = options.get("faults")) {
    auto plan = parse_fault_plan(*spec);
    if (!plan.ok()) return plan.error();
    session_options.faults = std::move(plan).take();
  }
  return session_options;
}

std::string usage() {
  return "tradefl — the TradeFL cross-silo FL trading mechanism (ICDCS'23 reproduction)\n"
         "usage: tradefl <command> [key=value ...]\n"
         "commands:\n"
         "  solve    compute the equilibrium (scheme=dbr|cgbd|wpr|gca|fip|tos)\n"
         "  compare  run every scheme and tabulate welfare/damage/data\n"
         "  sweep    gamma sweep (gamma_lo=, gamma_hi=, points=, scheme=)\n"
         "  metrics  run one solve and print its metrics snapshot (scheme=cgbd)\n"
         "  session  full pipeline incl. on-chain settlement (train=1 to run FedAvg)\n"
         "  chain    settlement walkthrough with blocks/events\n"
         "  serve    long-lived session daemon over a JSON-lines stdin/stdout\n"
         "           protocol (root=DIR workers=N queue_limit=N watchdog_seconds=S\n"
         "           resume=1; SIGTERM drains cleanly; see docs/ARCHITECTURE.md)\n"
         "  help     this text\n"
         "common options: seed=42 orgs=10 gamma=5.12e-9 mu=0.05 omega_e= tau= lambda=\n"
         "               file=game.cfg (explicit game definition; see game_from_config)\n"
         "               threads=1 (worker threads for training/eval/master "
         "enumeration;\n"
         "               results are bit-identical for any value)\n"
         "               seal_every=1 (session only; chain batch sealing — seal a\n"
         "               block every N txs; 1 = dev-chain block per call, 0 = manual)\n"
         "robustness:    faults=seed:1,drop:0.2,submit:0.1 (solve+session; seeded\n"
         "               deterministic fault injection. keys: seed drop straggle scale\n"
         "               corrupt noise revert gas submit; Byzantine silo\n"
         "               attacks: signflip:N amplify:N amplifyx:F freeride:N\n"
         "               collude:N colludex:S (N lowest-indexed silos deviate);\n"
         "               rates in [0,1];\n"
         "               crash:N kills the process at deterministic point N, right\n"
         "               after a checkpoint became durable — exit code 86)\n"
         "               agg=mean|median|trimmed[:f]|krum[:f]|multikrum[:f]|\n"
         "               normclip[:c] (FedAvg aggregation rule; robust rules blunt\n"
         "               the Byzantine attacks — see docs/ROBUSTNESS.md)\n"
         "               quorum=1 (min surviving clients per FedAvg round; a round\n"
         "               below quorum is skipped, never aborted)\n"
         "durability:    checkpoint=DIR (solve+session; crash-consistent snapshots +\n"
         "               chain WAL in DIR) checkpoint_every=N resume=1 (continue at\n"
         "               the last durable checkpoint, bit-identically to an\n"
         "               uninterrupted run) report=FILE (session only; canonical\n"
         "               deterministic report for byte-comparison)\n"
         "observability: metrics=1 (print snapshot table after any command)\n"
         "               metrics_json=FILE (write snapshot JSON)\n"
         "               trace=FILE (write Chrome trace-event JSON; open in\n"
         "               chrome://tracing or ui.perfetto.dev)\n"
         "               ledger=FILE (write a JSON-lines run ledger: phase\n"
         "               events + periodic metrics snapshots; identical across\n"
         "               threads= values after stripping *_us timestamps)\n"
         "               ledger_metrics_every=32 (auto metrics-line cadence;\n"
         "               0 = final snapshot only)\n";
}

namespace {

int dispatch(const Invocation& invocation, std::ostream& out) {
  if (invocation.command == "solve") return run_solve(invocation.options, out);
  if (invocation.command == "compare") return run_compare(invocation.options, out);
  if (invocation.command == "sweep") return run_sweep(invocation.options, out);
  if (invocation.command == "metrics") return run_metrics(invocation.options, out);
  if (invocation.command == "session") return run_session(invocation.options, out);
  if (invocation.command == "chain") return run_chain(invocation.options, out);
  if (invocation.command == "serve") return run_serve(invocation.options, out);
  out << usage();
  return 2;
}

}  // namespace

int run(const Invocation& invocation, std::ostream& out) {
  if (invocation.command == "help") {
    out << usage();
    return 0;
  }
  const Config& options = invocation.options;
  const std::int64_t threads = options.get_int("threads", 1);
  if (threads < 1) {
    out << "threads must be >= 1\n";
    return 2;
  }
  set_global_threads(static_cast<std::size_t>(threads));
  const bool want_table =
      invocation.command == "metrics" || options.get_bool("metrics", false);
  const auto trace_path = options.get("trace");
  const auto json_path = options.get("metrics_json");
  const auto ledger_path = options.get("ledger");
  const bool observing = want_table || trace_path.has_value() || json_path.has_value() ||
                         ledger_path.has_value();
  if (observing) {
    // Fresh telemetry for exactly this invocation.
    obs::metrics().reset();
    obs::trace().reset();
    obs::set_enabled(true);
  }
  if (ledger_path) {
    const Status opened = obs::event_log().open(*ledger_path);
    if (!opened.ok()) {
      std::cerr << "tradefl: [" << opened.error().code << "] " << opened.error().message << "\n";
      obs::set_enabled(false);
      return 1;
    }
    const std::int64_t every = options.get_int("ledger_metrics_every", 32);
    obs::event_log().set_metrics_every(every < 0 ? 0 : static_cast<std::size_t>(every));
  }

  int code = dispatch(invocation, out);

  if (ledger_path && obs::event_log().active()) {
    // Final deterministic-shape snapshot, then the close line.
    obs::event_log().metrics_event(obs::metrics().snapshot());
    obs::event_log().close();
    out << "run ledger written to " << *ledger_path << "\n";
  }
  if (observing) {
    obs::set_enabled(false);
    const obs::MetricsSnapshot snapshot = obs::metrics().snapshot();
    if (want_table) out << snapshot.to_table();
    if (json_path) {
      std::ofstream file(*json_path);
      if (!file) {
        out << "cannot write metrics JSON to " << *json_path << "\n";
        code = code == 0 ? 1 : code;
      } else {
        file << snapshot.to_json();
        out << "metrics JSON written to " << *json_path << "\n";
      }
    }
    if (trace_path) {
      std::ofstream file(*trace_path);
      if (!file) {
        out << "cannot write trace to " << *trace_path << "\n";
        code = code == 0 ? 1 : code;
      } else {
        obs::trace().write_chrome_trace(file);
        out << "trace written to " << *trace_path << " ("
            << obs::trace().size() << " spans)\n";
      }
    }
  }
  return code;
}

}  // namespace tradefl::cli

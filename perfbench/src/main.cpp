// perfbench: the closed-loop trading-session benchmark. One process runs one
// workload at threads=1 with obs off: it sets up (generates a consortium and
// runs one untimed warm-up session), then drives TradingSession::run over
// freshly generated consortia for --seconds of wall time, and until ten
// sessions lie beyond the session_s.tail percentile, checking every
// session's output. It prints human-readable lines and, last, one JSON
// result line.
//
// The shared host's single-core speed drifts by a third within minutes, so
// after each timed session (outside its timed window) the untraced run calls
// a fixed reference kernel, and reports every session and set-up time scaled
// to the speed at which that kernel takes kReferenceKernelSeconds, using the
// kernel's times around that session. The wall times are printed beside them.
//
// --trace 1 runs every session twice on the same inputs, untraced and traced
// in alternating order. After the traced pass it times the calls into each
// module's public functions on that session's own inputs (datasets, FedAvg,
// the scheme's solve, the property check, chain validation) and attributes
// their time against the session's. Spans stay in memory until exit.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --root DIR
//   perfbench --workload NAME --seed N --root DIR --setup-only
//   perfbench --self-test --root DIR

#include <sched.h>
#include <sys/mount.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "fl/dataset.h"
#include "fl/fedavg.h"
#include "fl/loss.h"
#include "game/game_factory.h"
#include "harness.h"
#include "obs/metrics.h"
#include "tradefl/report.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Clock;
using perfbench::seconds_between;
using perfbench::SpanLog;
using perfbench::Workload;
namespace core = tradefl::core;
namespace fl = tradefl::fl;
namespace game = tradefl::game;
namespace fs = std::filesystem;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string root;
  bool setup_only = false;
  bool self_test = false;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --root DIR"
               " [--setup-only]\n       perfbench --self-test --root DIR\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--root") {
        args.root = value;
      } else {
        usage_error("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + flag + ": " + value);
    }
  }
  if (args.root.empty()) usage_error("--root is required");
  if (!args.self_test && args.workload.empty()) usage_error("--workload is required");
  if (!(args.seconds >= 0.0)) usage_error("--seconds must be >= 0");
  return args;
}

// ----- inputs -----

/// Consortium seed of the run's group `group`.
std::uint64_t consortium_seed(std::uint64_t seed, std::uint64_t group) {
  return tradefl::Rng::derive_stream_seed(seed, group + 1);
}

/// The warm-up consortium is the same for every --seed, so setup_s measures
/// the same work whatever inputs the timed loop gets.
constexpr std::uint64_t kWarmupSeed = 0x5EEDULL;

game::CoopetitionGame make_consortium(const Workload& workload, std::uint64_t seed) {
  game::ExperimentSpec spec;
  spec.org_count = workload.orgs;
  return game::make_experiment_game(spec, seed);
}

// ----- one session -----

struct SessionRun {
  std::unique_ptr<tradefl::TradingSession> session;
  tradefl::SessionResult result;
  Clock::time_point start;
  Clock::time_point run_end;  // run() returned
  Clock::time_point end;      // report written (durable), else == run_end
  bool threw = false;
  std::string error;
  bool report_written = true;

  [[nodiscard]] double seconds() const { return seconds_between(start, end); }
};

/// The timed unit: TradingSession::run, plus write_session_report on the
/// durable workload.
SessionRun run_session(const Workload& workload, const game::CoopetitionGame& consortium,
                       const tradefl::SessionOptions& options) {
  SessionRun run;
  run.session = std::make_unique<tradefl::TradingSession>(consortium);
  run.start = Clock::now();
  try {
    run.result = run.session->run(options);
    run.run_end = Clock::now();
    if (workload.durable) {
      run.report_written = tradefl::write_session_report(options.checkpoint_dir + "/report.txt",
                                                         consortium, run.result)
                               .ok();
    }
  } catch (const std::exception& failure) {
    run.run_end = Clock::now();
    run.threw = true;
    run.error = failure.what();
  }
  run.end = Clock::now();
  return run;
}

std::size_t dataset_classes() {
  return fl::DatasetSpec::builtin(fl::DatasetKind::kFmnistLike, 1).classes;
}

std::vector<std::string> session_problems(const Workload& workload, core::Scheme scheme,
                                          const SessionRun& run) {
  if (run.threw) return {"threw: " + run.error};
  perfbench::CheckInput input;
  input.result = &run.result;
  input.scheme = scheme;
  input.expect_training = workload.train;
  input.classes = dataset_classes();
  input.report_written = run.report_written;
  return perfbench::check_session(input);
}

std::string session_report(const game::CoopetitionGame& consortium, const SessionRun& run) {
  return run.threw ? "threw: " + run.error + "\n"
                   : tradefl::canonical_session_report(consortium, run.result);
}

// ----- replayed layer calls (traced pass) -----

/// Time the traced pass attributes to each layer for one session.
struct LayerSample {
  double session_s = 0.0;
  double materialize_s = 0.0;
  double train_s = 0.0;
  double eval_s = 0.0;
  double solve_s = 0.0;
  double verify_s = 0.0;
  double validate_s = 0.0;
  double report_s = 0.0;
  double generated = 0.0;    // samples materialized
  double contributed = 0.0;  // samples the clients contribute
  double trained = 0.0;      // samples passed through local training
  double iterations = 0.0;
  double master_tuples = 0.0;
  double blocks = 0.0;
  double gas = 0.0;
  double snapshot_bytes = 0.0;
};

struct TraceState {
  SpanLog log;
  std::vector<LayerSample> layers;
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  std::vector<double> fwd_s;
  std::vector<double> bwd_s;
  std::size_t replay_mismatches = 0;
};

/// Runs `call`, records it as span `name` and returns its seconds.
template <typename Call>
double timed(TraceState& trace, const char* name, std::size_t parent, std::uint64_t id,
             Call&& call) {
  const Clock::time_point start = Clock::now();
  call();
  const Clock::time_point end = Clock::now();
  trace.log.add(name, start, end, parent, id);
  return seconds_between(start, end);
}

/// The span of a layer the session makes no call into: its time reads as
/// the span's own cost rather than a fabricated zero.
double empty_span(TraceState& trace, const char* name, std::size_t parent, std::uint64_t id) {
  return timed(trace, name, parent, id, [] {});
}

/// Times the calls into fl (dataset materialization, train_fedavg, evaluate,
/// one forward/backward batch) on the session's own inputs, mirroring the
/// training phase of TradingSession::run.
void replay_training(const tradefl::SessionOptions& options,
                     const game::CoopetitionGame& consortium, const SessionRun& run, bool probe,
                     std::size_t parent, std::uint64_t id, LayerSample& sample,
                     TraceState& trace) {
  const std::size_t n = consortium.size();
  const Clock::time_point materialize_start = Clock::now();
  const fl::DatasetSpec concept_spec = fl::DatasetSpec::builtin(options.dataset, options.seed);
  std::vector<fl::Dataset> locals;
  locals.reserve(n);
  for (game::OrgId i = 0; i < n; ++i) {
    const std::size_t samples = std::max<std::size_t>(
        8, static_cast<std::size_t>(std::lround(
               options.sample_scale * static_cast<double>(consortium.org(i).sample_count))));
    locals.emplace_back(concept_spec.with_sample_seed(options.seed + i + 1), samples);
  }
  const fl::Dataset test_set(concept_spec.with_sample_seed(options.seed + 7777),
                             options.test_samples);
  const Clock::time_point materialize_end = Clock::now();
  trace.log.add("fl.materialize", materialize_start, materialize_end, parent, id);
  sample.materialize_s = seconds_between(materialize_start, materialize_end);
  for (const fl::Dataset& local : locals) sample.generated += static_cast<double>(local.size());
  sample.generated += static_cast<double>(test_set.size());

  const game::StrategyProfile& profile = run.result.mechanism.solution.profile;
  std::vector<fl::FedClient> clients;
  for (game::OrgId i = 0; i < n; ++i) {
    clients.push_back(fl::FedClient{&locals[i], profile[i].data_fraction, options.seed * 131 + i});
  }
  fl::ModelSpec model_spec;
  model_spec.kind = options.model;
  model_spec.channels = concept_spec.channels;
  model_spec.height = concept_spec.height;
  model_spec.width = concept_spec.width;
  model_spec.classes = concept_spec.classes;
  model_spec.seed = options.seed;

  fl::FedAvgResult trained;
  sample.train_s = timed(trace, "fl.train", parent, id, [&] {
    trained = fl::train_fedavg(model_spec, clients, test_set, options.fedavg);
  });
  sample.contributed = static_cast<double>(trained.total_contributed_samples);
  sample.trained = sample.contributed * static_cast<double>(options.fedavg.rounds) *
                   static_cast<double>(options.fedavg.local_epochs);
  if (!run.result.training.has_value() ||
      trained.final_weights != run.result.training->final_weights) {
    ++trace.replay_mismatches;
  }

  // train_fedavg evaluates the global model on the test set once per round.
  fl::Net net = fl::build_model(model_spec);
  net.set_weights(trained.final_weights);
  sample.eval_s = timed(trace, "fl.eval", parent, id, [&] {
    for (std::size_t round = 0; round < options.fedavg.rounds; ++round) {
      static_cast<void>(fl::evaluate(net, test_set));
    }
  });

  if (!probe) return;
  // One training batch of the workload's model, forward and backward.
  constexpr std::size_t kBatch = 32;
  constexpr int kProbes = 3;
  const fl::Tensor batch = test_set.batch_range(0, kBatch);
  for (int rep = 0; rep < kProbes; ++rep) {
    net.zero_grad();
    fl::Tensor logits;
    trace.fwd_s.push_back(timed(trace, "fl.fwd", parent, id,
                                [&] { logits = net.forward(batch, /*training=*/true); }));
    const fl::LossResult loss =
        fl::softmax_cross_entropy(logits, test_set.labels().data(), kBatch);
    trace.bwd_s.push_back(timed(trace, "fl.bwd", parent, id, [&] { net.backward(loss.grad); }));
  }
}

double snapshot_bytes(const std::string& dir) {
  double bytes = 0.0;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".snap") {
      bytes += static_cast<double>(entry.file_size(ec));
    }
  }
  return bytes;
}

/// Records the traced pass's spans and replays the layer calls after it.
LayerSample trace_session(const Workload& workload, const tradefl::SessionOptions& options,
                          const game::CoopetitionGame& consortium, const SessionRun& run,
                          bool probe, std::uint64_t id, TraceState& trace) {
  LayerSample sample;
  sample.session_s = run.seconds();
  const std::size_t root = trace.log.add("tradefl.session", run.start, run.end,
                                         SpanLog::kNoParent, id);
  trace.log.add("tradefl.run", run.start, run.run_end, root, id);
  if (workload.durable) {
    trace.log.add("tradefl.report", run.run_end, run.end, root, id);
    sample.report_s = seconds_between(run.run_end, run.end);
    sample.snapshot_bytes = snapshot_bytes(options.checkpoint_dir);
  } else {
    sample.report_s = empty_span(trace, "tradefl.report", root, id);
  }

  if (workload.train) {
    replay_training(options, consortium, run, probe, root, id, sample, trace);
  } else {
    sample.materialize_s = empty_span(trace, "fl.materialize", root, id);
    sample.train_s = empty_span(trace, "fl.train", root, id);
    sample.eval_s = empty_span(trace, "fl.eval", root, id);
    if (probe) {
      trace.fwd_s.push_back(empty_span(trace, "fl.fwd", root, id));
      trace.bwd_s.push_back(empty_span(trace, "fl.bwd", root, id));
    }
  }

  // The scheme's solve, without the session's checkpoint writes (those stay
  // in the session's own time).
  core::MechanismResult solved;
  sample.solve_s = timed(trace, "core.solve", root, id, [&] {
    solved = core::run_scheme(consortium, options.scheme, options.scheme_options);
  });
  if (solved.solution.profile != run.result.mechanism.solution.profile) {
    ++trace.replay_mismatches;
  }
  sample.verify_s = timed(trace, "core.verify", root, id, [&] {
    static_cast<void>(core::verify_properties(consortium, run.result.mechanism,
                                              options.scheme != core::Scheme::kTos));
  });
  sample.validate_s = timed(trace, "chain.validate", root, id, [&] {
    static_cast<void>(run.session->blockchain().validate());
  });

  if (options.scheme == core::Scheme::kCgbd) {
    sample.iterations = static_cast<double>(run.result.mechanism.solution.iterations);
    sample.master_tuples = run.result.mechanism.solution.diagnostic("master_tuples");
  }
  sample.blocks = static_cast<double>(run.result.blocks);
  sample.gas = static_cast<double>(run.result.total_gas);
  return sample;
}

// ----- statistics and output -----

/// Nearest-rank percentile of sorted values, p in (0, 100].
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile(values, 50.0);
}

/// Percentile reported as session_s.tail, taken per block of kTailBlock
/// sessions. A measuring run lasts until at least kTailMinSessions are timed,
/// so that ten lie beyond the percentile.
constexpr double kTailPercentile = 90.0;
constexpr std::size_t kTailBlock = 1000;
constexpr std::size_t kTailMinSessions = 100;

/// [begin, end) of each block of consecutive timed sessions: as many whole
/// kTailBlock-session blocks as the run holds, one below two.
std::vector<std::pair<std::size_t, std::size_t>> session_blocks(std::size_t sessions) {
  const std::size_t blocks = std::max<std::size_t>(1, sessions / kTailBlock);
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::size_t b = 0; b < blocks; ++b) {
    ranges.emplace_back(b * sessions / blocks, (b + 1) * sessions / blocks);
  }
  return ranges;
}

/// session_s.tail: percentile p of each block of consecutive sessions (in
/// run order), median over the blocks. A stretch of host interference then
/// moves only the blocks it falls in.
double block_tail(const std::vector<double>& in_order, double p) {
  std::vector<double> block_tails;
  for (const auto& [begin, end] : session_blocks(in_order.size())) {
    std::vector<double> block(in_order.begin() + begin, in_order.begin() + end);
    std::sort(block.begin(), block.end());
    block_tails.push_back(percentile(block, p));
  }
  return median(block_tails);
}

/// Sessions on either side whose reference-kernel times join a session's own
/// in setting its scale.
constexpr std::size_t kScaleNeighbours = 4;

/// Per timed session, the factor that scales its wall time to the reference
/// host speed: kReferenceKernelSeconds over the median reference-kernel time
/// of the session and its kScaleNeighbours neighbours on either side. The
/// window spans ~35 ms of settle_durable and ~2 s of train_mlp; the host's
/// speed phases last seconds to minutes.
std::vector<double> host_scales(const std::vector<double>& reference_seconds) {
  const std::size_t n = reference_seconds.size();
  std::vector<double> scales(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t begin = i > kScaleNeighbours ? i - kScaleNeighbours : 0;
    const std::size_t end = std::min(n, i + kScaleNeighbours + 1);
    scales[i] = perfbench::kReferenceKernelSeconds /
                median(std::vector<double>(reference_seconds.begin() + begin,
                                           reference_seconds.begin() + end));
  }
  return scales;
}

/// The same factor for a time measured just before this call.
double host_scale_now() {
  std::vector<double> samples;
  for (int i = 0; i < 15; ++i) samples.push_back(perfbench::reference_kernel());
  return perfbench::kReferenceKernelSeconds / median(samples);
}

std::string filesystem_type(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  static const std::map<unsigned long, const char*> kNames = {
      {0xEF53UL, "ext4"},        {0x01021994UL, "tmpfs"}, {0x794C7630UL, "overlayfs"},
      {0x58465342UL, "xfs"},     {0x9123683EUL, "btrfs"}, {0x6969UL, "nfs"},
      {0x65735546UL, "fuse"},    {0x858458F6UL, "ramfs"}, {0x01021997UL, "v9fs"},
      {0x2FC12FC1UL, "zfs"}};
  const auto found = kNames.find(static_cast<unsigned long>(info.f_type));
  if (found != kNames.end()) return found->second;
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%lx", static_cast<unsigned long>(info.f_type));
  return buffer;
}

/// Mounts a tmpfs on `dir` inside a mount namespace of this process alone,
/// so checkpoint writes stay in memory and vanish with the process. Must run
/// while the process is single-threaded. False when the host forbids it; the
/// run then writes to the directory's own filesystem, which it reports.
bool mount_private_tmpfs(const std::string& dir) {
  if (unshare(CLONE_NEWNS) != 0) return false;
  if (mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) return false;
  return mount("perfbench", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV, "size=256m,mode=0700") ==
         0;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// would also count the launching process, whose high-water mark survives
/// exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  return 0.0;
}

/// JSON has no infinity; a percentile that lands on a failed session prints
/// as the largest double.
std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g",
                std::isfinite(value) ? value : std::numeric_limits<double>::max());
  return buffer;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::cout << metric.name << " = " << number(metric.value) << " " << metric.unit << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << number(metrics[i].value) << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

// ----- the run -----

struct RunState {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t printed_problems = 0;
  std::vector<double> session_seconds;    // timed sessions, in run order
  std::vector<bool> session_passed;       // the same sessions: passed every check
  std::vector<double> reference_seconds;  // untraced: reference_kernel() after each
  double welfare_sum = 0.0;
  double accuracy_sum = 0.0;
  std::size_t accuracy_count = 0;
  std::uint32_t digest = 0;
  std::size_t digest_sessions = 0;

  void fail(const std::string& what) {
    ++failed;
    if (printed_problems++ < 10) std::cout << "FAILED " << what << "\n";
  }
};

/// Set-up: generate the warm-up consortium and run one untimed session on
/// it, in a fresh process. Returns its seconds.
double set_up(const Workload& workload, const std::string& checkpoints, RunState& state) {
  const Clock::time_point start = Clock::now();
  const std::uint64_t seed = kWarmupSeed;
  const game::CoopetitionGame consortium = make_consortium(workload, seed);
  const std::string dir = workload.durable ? checkpoints + "/warmup" : std::string();
  const tradefl::SessionOptions options =
      session_options(workload, workload.schemes.front(), seed, dir);
  const SessionRun run = run_session(workload, consortium, options);
  ++state.attempted;
  const std::vector<std::string> problems =
      session_problems(workload, workload.schemes.front(), run);
  if (!problems.empty()) state.fail("warm-up session: " + problems.front());
  if (workload.durable) fs::remove_all(dir);
  return seconds_between(start, Clock::now());
}

void account(const Workload& workload, core::Scheme scheme, const SessionRun& run,
             const game::CoopetitionGame& consortium, bool in_digest, RunState& state) {
  ++state.attempted;
  const std::vector<std::string> problems = session_problems(workload, scheme, run);
  state.session_seconds.push_back(run.seconds());
  state.session_passed.push_back(problems.empty());
  if (problems.empty()) {
    state.welfare_sum += run.result.mechanism.welfare;
    if (run.result.training.has_value()) {
      state.accuracy_sum += run.result.training->final_accuracy;
      ++state.accuracy_count;
    }
  } else {
    state.fail(std::string(core::scheme_name(scheme)) + " session " +
               std::to_string(state.attempted) + ": " + problems.front());
  }
  if (in_digest) {
    const std::string report = session_report(consortium, run);
    state.digest = tradefl::crc32(reinterpret_cast<const std::uint8_t*>(report.data()),
                                  report.size(), state.digest);
    ++state.digest_sessions;
  }
}

struct Timing {
  double p50 = 0.0;
  double tail = 0.0;
  double per_s = 0.0;
};

/// The untraced run's timing metrics over the session times multiplied by
/// `scale`. Failed sessions rank above every passing one in the tail.
Timing timing(const RunState& state, const std::vector<double>& scale) {
  std::vector<double> passed;
  std::vector<double> ranked;
  double total = 0.0;
  for (std::size_t i = 0; i < state.session_seconds.size(); ++i) {
    const double seconds = state.session_seconds[i] * scale[i];
    total += seconds;
    if (state.session_passed[i]) passed.push_back(seconds);
    ranked.push_back(state.session_passed[i] ? seconds : std::numeric_limits<double>::infinity());
  }
  return {median(passed), block_tail(ranked, kTailPercentile),
          static_cast<double>(passed.size()) / total};
}

int run_workload(const Workload& workload, const Args& args) {
  const std::string checkpoints = args.root + "/checkpoints";
  fs::remove_all(checkpoints);
  fs::create_directories(checkpoints);
  const bool memory_backed = workload.durable && mount_private_tmpfs(checkpoints);
  tradefl::set_global_threads(1);
  tradefl::obs::set_enabled(false);

  RunState state;
  const double setup_wall_s = set_up(workload, checkpoints, state);
  const double setup_s = setup_wall_s * host_scale_now();
  if (args.setup_only) {
    std::cout << "{\"setup_s\": " << number(setup_s) << ", \"setup_wall_s\": "
              << number(setup_wall_s) << "}" << std::endl;
    return 0;
  }

  TraceState trace;
  const Clock::time_point loop_start = Clock::now();
  // --seconds 0 runs the digest groups only, for the self-test.
  const std::size_t min_sessions = args.seconds > 0.0 ? kTailMinSessions : 0;
  const auto done = [&](std::size_t group) {
    if (group < workload.digest_groups) return false;
    return seconds_between(loop_start, Clock::now()) >= args.seconds &&
           (args.trace || state.attempted > min_sessions);
  };
  std::uint64_t session_id = 0;
  for (std::size_t group = 0; !done(group); ++group) {
    const std::uint64_t seed = consortium_seed(args.seed, group);
    const Clock::time_point generate_start = Clock::now();
    const game::CoopetitionGame consortium = make_consortium(workload, seed);
    if (args.trace) {
      trace.log.add("game.generate", generate_start, Clock::now(), SpanLog::kNoParent,
                    session_id);
    }
    const bool in_digest = group < workload.digest_groups;
    for (std::size_t s = 0; s < workload.schemes.size(); ++s, ++session_id) {
      const core::Scheme scheme = workload.schemes[s];
      const std::string dir =
          workload.durable ? checkpoints + "/s" + std::to_string(session_id) : std::string();
      const tradefl::SessionOptions options = session_options(workload, scheme, seed, dir);
      if (!args.trace) {
        const SessionRun run = run_session(workload, consortium, options);
        account(workload, scheme, run, consortium, in_digest, state);
        state.reference_seconds.push_back(perfbench::reference_kernel());
        if (workload.durable) fs::remove_all(dir);
        continue;
      }
      // Traced: the same session untraced and traced, in alternating order.
      SessionRun untraced;
      SessionRun traced;
      const bool traced_first = session_id % 2 == 1;
      if (traced_first) traced = run_session(workload, consortium, options);
      const tradefl::SessionOptions plain_options =
          session_options(workload, scheme, seed, workload.durable ? dir + "u" : std::string());
      untraced = run_session(workload, consortium, plain_options);
      if (!traced_first) traced = run_session(workload, consortium, options);
      account(workload, scheme, traced, consortium, in_digest, state);
      if (session_report(consortium, untraced) != session_report(consortium, traced)) {
        state.fail("untraced and traced passes of session " + std::to_string(session_id) +
                   " disagree");
      }
      trace.traced_s.push_back(traced.seconds());
      trace.untraced_s.push_back(untraced.seconds());
      if (!traced.threw) {
        trace.layers.push_back(
            trace_session(workload, options, consortium, traced, s == 0, session_id, trace));
      }
      if (workload.durable) {
        fs::remove_all(dir);
        fs::remove_all(dir + "u");
      }
    }
  }

  // Before the statistics below allocate copies of the per-session times.
  const double peak_rss = peak_rss_mb();
  const auto passed = static_cast<std::size_t>(
      std::count(state.session_passed.begin(), state.session_passed.end(), true));
  std::cout << "workload: " << workload.name << "  orgs: " << workload.orgs << "  schemes:";
  for (core::Scheme scheme : workload.schemes) std::cout << " " << core::scheme_name(scheme);
  std::cout << "  seed: " << args.seed << "  trace: " << (args.trace ? 1 : 0)
            << "  clients: 1 (closed loop)\n";
  std::cout << "host: nproc=" << online_cpus() << "  checkpoint root fs="
            << filesystem_type(checkpoints)
            << (workload.durable && !memory_backed ? " (private tmpfs not permitted)" : "")
            << "  build=" << PERFBENCH_BUILD_TYPE
            << "  threads=" << tradefl::global_threads()
            << "  obs=" << (tradefl::obs::enabled() ? "on" : "off") << "\n";
  std::cout << "sessions: " << state.attempted << " attempted (1 warm-up), " << passed
            << " passed, " << state.failed << " failed\n";
  const double failed_share =
      static_cast<double>(state.failed) / static_cast<double>(state.attempted);
  std::cout << "failed_share = " << number(failed_share) << " ratio\n";
  char digest[16];
  std::snprintf(digest, sizeof(digest), "%08x", state.digest);
  std::cout << "output_digest = " << digest << " (crc32 of " << state.digest_sessions
            << " canonical session reports)\n";

  std::vector<Metric> metrics;
  const bool correct = state.failed == 0 && passed > 0;
  if (!args.trace) {
    const std::size_t timed = state.session_seconds.size();
    const std::size_t blocks = session_blocks(timed).size();
    const double block_size = static_cast<double>(timed / blocks);
    const double beyond = block_size - std::ceil(kTailPercentile / 100.0 * block_size);
    std::cout << "session_s.tail is p" << kTailPercentile
              << " per block of consecutive sessions, median over blocks: " << blocks
              << " block(s), " << timed << " timed sessions, at least " << beyond
              << " beyond the percentile in each block\n";
    const std::vector<double> scales = host_scales(state.reference_seconds);
    const Timing scaled = timing(state, scales);
    const Timing wall = timing(state, std::vector<double>(timed, 1.0));
    std::cout << "host speed: reference kernel median " << number(median(state.reference_seconds))
              << " s after the sessions, " << perfbench::kReferenceKernelSeconds
              << " s at the reference speed; session and set-up times are wall times scaled"
                 " to the reference speed (session scales "
              << number(*std::min_element(scales.begin(), scales.end())) << ".."
              << number(*std::max_element(scales.begin(), scales.end())) << ")\n";
    std::cout << "wall times: session_s.p50 " << number(wall.p50) << " s, session_s.tail "
              << number(wall.tail) << " s, sessions_per_s " << number(wall.per_s)
              << " 1/s, this process's setup_s " << number(setup_wall_s) << " s\n";
    if (state.accuracy_count > 0) {
      std::cout << "final_accuracy = "
                << number(state.accuracy_sum / static_cast<double>(state.accuracy_count))
                << " ratio\n";
    }
    metrics.push_back({"session_s.p50", scaled.p50, "s"});
    metrics.push_back({"session_s.tail", scaled.tail, "s"});
    metrics.push_back({"sessions_per_s", scaled.per_s, "1/s"});
    metrics.push_back({"setup_s", setup_s, "s"});
    metrics.push_back({"peak_rss_mb", peak_rss, "MB"});
    metrics.push_back({"ok_share", 1.0 - failed_share, "ratio"});
    metrics.push_back(
        {"welfare", passed == 0 ? 0.0 : state.welfare_sum / static_cast<double>(passed),
         "payoff"});
  } else {
    const std::vector<LayerSample>& layers = trace.layers;
    const auto mean = [&layers](double LayerSample::*field) {
      double sum = 0.0;
      for (const LayerSample& sample : layers) sum += sample.*field;
      return layers.empty() ? 0.0 : sum / static_cast<double>(layers.size());
    };
    const double session_s = mean(&LayerSample::session_s);
    const double materialize_s = mean(&LayerSample::materialize_s);
    const double train_s = mean(&LayerSample::train_s);
    const double solve_s = mean(&LayerSample::solve_s);
    const double verify_s = mean(&LayerSample::verify_s);
    const double validate_s = mean(&LayerSample::validate_s);
    const double report_s = mean(&LayerSample::report_s);
    // Session time no replayed layer call accounts for.
    const double self_s =
        session_s - materialize_s - train_s - solve_s - verify_s - validate_s - report_s;
    const double generated = mean(&LayerSample::generated);
    const double trained = mean(&LayerSample::trained);

    metrics.push_back({"fl.materialize_s", materialize_s, "s"});
    metrics.push_back({"fl.materialize.samples", generated, "count"});
    metrics.push_back({"fl.materialize.used_ratio",
                       generated > 0.0 ? mean(&LayerSample::contributed) / generated : 0.0,
                       "ratio"});
    metrics.push_back({"fl.train_s", train_s, "s"});
    metrics.push_back({"fl.train.samples_per_s", trained > 0.0 ? trained / train_s : 0.0, "1/s"});
    metrics.push_back({"fl.eval_s", mean(&LayerSample::eval_s), "s"});
    metrics.push_back({"fl.fwd_s", median(trace.fwd_s), "s"});
    metrics.push_back({"fl.bwd_s", median(trace.bwd_s), "s"});
    metrics.push_back({"core.solve_s", solve_s, "s"});
    metrics.push_back({"core.cgbd.iterations", mean(&LayerSample::iterations), "count"});
    metrics.push_back({"core.cgbd.master_tuples", mean(&LayerSample::master_tuples), "count"});
    metrics.push_back({"core.verify_s", verify_s, "s"});
    metrics.push_back({"chain.validate_s", validate_s, "s"});
    metrics.push_back({"chain.blocks", mean(&LayerSample::blocks), "count"});
    metrics.push_back({"chain.gas", mean(&LayerSample::gas), "gas"});
    metrics.push_back({"common.snapshot.bytes", mean(&LayerSample::snapshot_bytes), "bytes"});
    metrics.push_back({"tradefl.report_s", report_s, "s"});
    metrics.push_back({"tradefl.session.self_s", self_s, "s"});
    metrics.push_back({"trace.overhead",
                       median(trace.traced_s) / median(trace.untraced_s) - 1.0, "ratio"});

    std::cout << "traced sessions: " << layers.size() << " (mean " << number(session_s)
              << " s); replay mismatches: " << trace.replay_mismatches << "\n";
    std::cout << "share of session time: fl.materialize_s=" << number(materialize_s / session_s)
              << "  fl.train_s=" << number(train_s / session_s)
              << "  core.solve_s=" << number(solve_s / session_s)
              << "  core.verify_s=" << number(verify_s / session_s)
              << "  chain.validate_s=" << number(validate_s / session_s)
              << "  tradefl.report_s=" << number(report_s / session_s)
              << "  tradefl.session.self_s=" << number(self_s / session_s) << "\n";
    const std::string trace_path = args.root + "/spans.jsonl";
    if (!trace.log.write_jsonl(trace_path)) {
      std::cerr << "perfbench: cannot write " << trace_path << "\n";
      return 1;
    }
    std::cout << "spans: " << trace_path << "\n";
  }
  print_result(correct, state.attempted, state.failed, metrics);
  return 0;
}

/// Check-function self-test on a real passing session plus fabricated bad
/// results.
int self_test(const Args& args) {
  tradefl::set_global_threads(1);
  const Workload& workload = *perfbench::find_workload("settle_durable");
  const std::string dir = args.root + "/self-test";
  fs::remove_all(dir);
  const game::CoopetitionGame consortium = make_consortium(workload, 7);
  const SessionRun run = run_session(
      workload, consortium, session_options(workload, workload.schemes.front(), 7, dir));
  fs::remove_all(dir);
  const std::vector<std::string> problems =
      session_problems(workload, workload.schemes.front(), run);
  if (!problems.empty()) {
    std::cout << "self-test: the reference session failed: " << problems.front() << "\n";
    return 1;
  }
  const int misses = perfbench::self_test_checks(run.result, workload.schemes.front());
  std::cout << "self-test checks: " << (misses == 0 ? "ok" : "FAILED") << "\n";
  return misses == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    if (args.self_test) return self_test(args);
    const Workload* workload = perfbench::find_workload(args.workload);
    if (workload == nullptr) usage_error("unknown workload " + args.workload);
    return run_workload(*workload, args);
  } catch (const std::exception& failure) {
    std::cerr << "perfbench: " << failure.what() << "\n";
    return 1;
  }
}

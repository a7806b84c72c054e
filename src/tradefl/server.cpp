#include "tradefl/server.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>
#include <vector>

#include "common/faults.h"
#include "common/parallel.h"
#include "common/snapshot.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "tradefl/cli.h"
#include "tradefl/report.h"
#include "tradefl/session.h"
#include "tradefl/wire.h"

namespace tradefl::server {
namespace {

// ---------------------------------------------------------------------------
// Drain flag. The only state a signal handler may touch.

volatile std::sig_atomic_t g_drain_requested = 0;

// ---------------------------------------------------------------------------
// Registry: the CRC-framed record of every admitted session. Saved on every
// state change so a SIGKILL at any instant leaves a consistent picture of
// which sessions still owe work.

constexpr char kRegistryKind[] = "tradefl.server.registry";
constexpr std::uint32_t kRegistryVersion = 1;

enum class SessionState : std::uint8_t {
  kPending = 0,  // admitted, not finished — resumable from its checkpoints
  kDone = 1,     // report written, invariants held
  kFailed = 2,   // errored; not resumable
};

struct RegistryEntry {
  std::uint64_t id = 0;
  SessionState state = SessionState::kPending;
  std::string config_text;  // Config entries as k=v lines (Config::from_text)
  std::uint64_t attempts = 0;
};

struct Registry {
  std::uint64_t next_session_id = 1;
  std::vector<RegistryEntry> entries;
};

template <class Ar>
void fields(Ar& ar, RegistryEntry& entry) {
  ar(entry.id, as_enum<std::uint8_t>(entry.state, SessionState::kFailed), entry.config_text,
     entry.attempts);
}

template <class Ar>
void fields(Ar& ar, Registry& registry) {
  ar(registry.next_session_id, registry.entries);
}

std::string serialize_config(const Config& config) {
  std::string text;
  for (const auto& [key, value] : config.entries()) {
    text += key;
    text += '=';
    text += value;
    text += '\n';
  }
  return text;
}

Status save_registry(const std::string& path, const Registry& registry) {
  SnapshotWriter writer;
  writer(registry);
  auto written = write_snapshot_file(path, kRegistryKind, kRegistryVersion, writer);
  if (!written.ok()) return written.error();
  return ok_status();
}

Result<Registry> load_registry(const std::string& path) {
  auto payload = read_snapshot_file(path, kRegistryKind, kRegistryVersion);
  if (!payload.ok()) return payload.error();
  return decode_snapshot<Registry>(payload.value(), [](SnapshotReader& reader) {
    Registry registry;
    reader(registry);
    return registry;
  });
}

/// Removes crash/hang events from the entry's fault spec. Crash events fire
/// right AFTER their phase's checkpoint became durable, so on resume the
/// completed phase is skipped and the event is inert — stripping it is
/// byte-neutral. Hang events fire at phase ENTRY, before any work, so an
/// unstripped hang would wedge every re-attach of the same session forever.
void strip_oneshot_fault_events(RegistryEntry& entry) {
  auto config = Config::from_text(entry.config_text);
  if (!config.ok()) return;  // surfaces later as a typed options error
  Config updated = std::move(config).take();
  const auto spec = updated.get("faults");
  if (!spec) return;
  auto plan = parse_fault_plan(*spec);
  if (!plan.ok()) return;
  FaultPlan stripped = std::move(plan).take();
  stripped.events.erase(
      std::remove_if(stripped.events.begin(), stripped.events.end(),
                     [](const FaultEvent& event) {
                       return event.kind == FaultKind::kProcessCrash ||
                              event.kind == FaultKind::kPhaseHang;
                     }),
      stripped.events.end());
  updated.set("faults", stripped.spec_string());
  entry.config_text = serialize_config(updated);
}

// ---------------------------------------------------------------------------
// Per-session bookkeeping.

/// Shared between the worker running a session, the watchdog, and the drain
/// path. `cancel` is the cooperative token threaded into the session.
struct Slot {
  std::atomic<bool> cancel{false};
  std::atomic<bool> evicted{false};
  Stopwatch watch;
};

struct Job {
  std::uint64_t id = 0;
  Config config;
  bool reattached = false;
};

/// How one session attempt ended, mapped 1:1 onto a reply line.
struct Outcome {
  enum class Kind : std::uint8_t { kDone, kFailed, kEvicted, kParked, kCrashed };
  Kind kind = Kind::kFailed;
  std::string detail;
  std::string report_path;
};

}  // namespace

void install_signal_handler(int signum, SignalHandler handler) {
  struct sigaction action {};
  action.sa_handler = handler;
  sigemptyset(&action.sa_mask);
  // Deliberately NOT SA_RESTART: a blocked read(2) on stdin must return
  // EINTR so the serve loop notices the drain flag promptly.
  action.sa_flags = 0;
  sigaction(signum, &action, nullptr);
}

void request_drain(int signum) {
  (void)signum;
  g_drain_requested = 1;
}

bool drain_requested() { return g_drain_requested != 0; }

void clear_drain_request() { g_drain_requested = 0; }

Result<ServeOptions> serve_options_from_config(const Config& options) {
  ServeOptions serve;
  serve.root = options.get_string("root", serve.root);
  const std::int64_t workers = options.get_int("workers", 2);
  const std::int64_t queue_limit = options.get_int("queue_limit", 8);
  const std::int64_t threads = options.get_int("threads", 0);
  if (workers < 1) return Error{"serve.options", "workers must be >= 1"};
  if (queue_limit < 1) return Error{"serve.options", "queue_limit must be >= 1"};
  if (threads < 0) return Error{"serve.options", "threads must be >= 0"};
  serve.workers = static_cast<std::size_t>(workers);
  serve.queue_limit = static_cast<std::size_t>(queue_limit);
  serve.threads = static_cast<std::size_t>(threads);
  serve.watchdog_seconds = options.get_double("watchdog_seconds", 0.0);
  if (serve.watchdog_seconds < 0.0) {
    return Error{"serve.options", "watchdog_seconds must be >= 0"};
  }
  serve.resume = options.get_bool("resume", true);
  return serve;
}

ReadStatus StreamLineSource::next(std::string& line) {
  if (!std::getline(*in_, line)) return ReadStatus::kEof;
  return ReadStatus::kLine;
}

ReadStatus FdLineSource::next(std::string& line) {
  while (true) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return ReadStatus::kLine;
    }
    if (eof_) {
      if (!buffer_.empty()) {
        line = std::move(buffer_);
        buffer_.clear();
        return ReadStatus::kLine;
      }
      return ReadStatus::kEof;
    }
    char chunk[4096];
    const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
    if (got < 0) {
      if (errno == EINTR) return ReadStatus::kInterrupted;
      eof_ = true;  // treat unrecoverable read errors as end of input
      continue;
    }
    if (got == 0) {
      eof_ = true;
      continue;
    }
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
}

struct Server::Impl {
  ServeOptions options;

  std::mutex state_mutex;
  std::condition_variable work_cv;
  std::deque<Job> queue;
  std::map<std::uint64_t, std::shared_ptr<Slot>> active;
  Registry registry;
  ServeSummary summary;
  bool stopping = false;   // workers exit once the queue is empty
  bool draining = false;   // reject admissions, park instead of requeue

  std::mutex out_mutex;
  std::ostream* out = nullptr;

  std::atomic<bool> watchdog_stop{false};

  [[nodiscard]] std::string registry_path() const {
    return options.root + "/registry.snap";
  }
  [[nodiscard]] std::string session_dir(std::uint64_t id) const {
    return options.root + "/sessions/" + std::to_string(id);
  }

  void emit(const wire::Message& message) {
    std::lock_guard<std::mutex> lock(out_mutex);
    (*out) << message.serialize() << "\n";
    out->flush();
  }

  void emit_error(const std::string& code, const std::string& detail) {
    wire::Message reply;
    reply.set_bool("ok", false);
    reply.set_string("error", code);
    if (!detail.empty()) reply.set_string("detail", detail);
    emit(reply);
  }

  RegistryEntry* find_entry(std::uint64_t id) {
    for (RegistryEntry& entry : registry.entries) {
      if (entry.id == id) return &entry;
    }
    return nullptr;
  }

  /// Persists the registry; a failed save is a daemon-level fault (reported
  /// once per run through the summary exit code, never silently dropped).
  void save_registry_locked() {
    const Status saved = save_registry(registry_path(), registry);
    if (!saved.ok() && summary.exit_code == 0) {
      summary.exit_code = 1;
      emit_error(saved.error().code, saved.error().message);
    }
  }

  void handle_session(const wire::Message& request);
  void handle_status(const wire::Message& request);
  void handle(const wire::Message& request);
  Outcome run_one(const Job& job, Slot& slot);
  void worker_body();
  void watchdog_body();
};

Server::Server(ServeOptions options) : impl_(std::make_unique<Impl>()) {
  impl_->options = std::move(options);
}

Server::~Server() = default;

void Server::Impl::handle_session(const wire::Message& request) {
  TFL_LATENCY_TIMER("server.admission.seconds");
  const Config config = wire::to_config(request);
  {
    std::lock_guard<std::mutex> lock(state_mutex);
    if (draining || drain_requested()) {
      ++summary.rejected;
      TFL_COUNTER_INC("server.rejections");
      wire::Message reply;
      reply.set_bool("ok", false);
      reply.set_string("op", "rejected");
      reply.set_string("error", "draining");
      emit(reply);
      return;
    }
    if (queue.size() >= options.queue_limit) {
      // Load shedding: a bounded queue plus a typed reply beats unbounded
      // buffering that hides the overload until memory runs out.
      ++summary.rejected;
      TFL_COUNTER_INC("server.rejections");
      wire::Message reply;
      reply.set_bool("ok", false);
      reply.set_string("op", "rejected");
      reply.set_string("error", "overloaded");
      emit(reply);
      return;
    }
  }
  // Validate before admitting so malformed requests fail at the protocol
  // boundary, not minutes later inside a worker.
  auto session_options = cli::session_options_from_config(config);
  if (!session_options.ok()) {
    emit_error(session_options.error().code, session_options.error().message);
    return;
  }
  try {
    (void)cli::game_from_options(config);
  } catch (const std::exception& failure) {
    emit_error("serve.game", failure.what());
    return;
  }
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(state_mutex);
    id = registry.next_session_id++;
    registry.entries.push_back(
        RegistryEntry{id, SessionState::kPending, serialize_config(config), 0});
    queue.push_back(Job{id, config, false});
    ++summary.admitted;
    TFL_COUNTER_INC("server.admissions");
    save_registry_locked();
  }
  work_cv.notify_one();
  wire::Message reply;
  reply.set_bool("ok", true);
  reply.set_string("op", "accepted");
  reply.set_number("id", static_cast<double>(id));
  emit(reply);
}

void Server::Impl::handle_status(const wire::Message& request) {
  (void)request;
  wire::Message reply;
  reply.set_bool("ok", true);
  reply.set_string("op", "status");
  {
    std::lock_guard<std::mutex> lock(state_mutex);
    reply.set_number("active", static_cast<double>(active.size()));
    reply.set_number("queued", static_cast<double>(queue.size()));
    reply.set_number("admitted", static_cast<double>(summary.admitted));
    reply.set_number("reattached", static_cast<double>(summary.reattached));
    reply.set_number("completed", static_cast<double>(summary.completed));
    reply.set_number("failed", static_cast<double>(summary.failed));
    reply.set_number("rejected", static_cast<double>(summary.rejected));
    reply.set_number("evicted", static_cast<double>(summary.evicted));
    reply.set_number("crashed", static_cast<double>(summary.crashed));
    reply.set_number("parked", static_cast<double>(summary.parked));
  }
  emit(reply);
}

void Server::Impl::handle(const wire::Message& request) {
  const std::string op = request.get_string("op").value_or("session");
  if (op == "session") {
    handle_session(request);
  } else if (op == "status") {
    handle_status(request);
  } else if (op == "ping") {
    wire::Message reply;
    reply.set_bool("ok", true);
    reply.set_string("op", "pong");
    emit(reply);
  } else if (op == "drain") {
    // Same flag the SIGTERM handler writes: one drain path, two triggers.
    request_drain(0);
    wire::Message reply;
    reply.set_bool("ok", true);
    reply.set_string("op", "draining");
    emit(reply);
  } else {
    emit_error("serve.op", "unknown op '" + op + "'");
  }
}

Outcome Server::Impl::run_one(const Job& job, Slot& slot) {
  const std::string dir = session_dir(job.id);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    Outcome outcome;
    outcome.kind = Outcome::Kind::kFailed;
    outcome.detail = "cannot create " + dir + ": " + ec.message();
    return outcome;
  }
  try {
    auto built = cli::session_options_from_config(job.config);
    if (!built.ok()) {
      Outcome outcome;
      outcome.kind = Outcome::Kind::kFailed;
      outcome.detail = built.error().to_string();
      return outcome;
    }
    const game::CoopetitionGame game = cli::game_from_options(job.config);
    SessionOptions session_options = std::move(built).take();
    session_options.checkpoint_dir = dir;
    session_options.checkpoint_every =
        static_cast<std::size_t>(job.config.get_int("checkpoint_every", 1));
    // Always resume: an entry re-attached after a restart (or a contained
    // crash) continues from its durable checkpoints; a fresh session finds
    // no snapshot and cold-starts. Both are bit-identical to a solo run.
    session_options.resume = true;
    session_options.cancel = &slot.cancel;

    Outcome outcome;
    {
      // Everything the session emits lands under "session=<id>/..." so one
      // noisy session cannot blur another's telemetry. Server-level counters
      // are recorded outside this scope, unprefixed.
      obs::MetricScope metric_scope("session=" + std::to_string(job.id));
      CrashContainmentScope containment;
      TradingSession session(game);
      const SessionResult result = session.run(session_options);
      const std::string report_path = dir + "/report.txt";
      const Status written = write_session_report(report_path, game, result);
      if (!written.ok()) {
        outcome.kind = Outcome::Kind::kFailed;
        outcome.detail = written.error().to_string();
        return outcome;
      }
      const bool healthy = result.chain_valid && result.settlement_sum == 0;
      outcome.kind = healthy ? Outcome::Kind::kDone : Outcome::Kind::kFailed;
      if (!healthy) outcome.detail = "settlement invariants violated";
      outcome.report_path = report_path;
    }
    return outcome;
  } catch (const OperationCancelled&) {
    Outcome outcome;
    outcome.kind = slot.evicted.load(std::memory_order_acquire)
                       ? Outcome::Kind::kEvicted
                       : Outcome::Kind::kParked;
    return outcome;
  } catch (const InjectedCrash& crash) {
    Outcome outcome;
    outcome.kind = Outcome::Kind::kCrashed;
    outcome.detail = "injected crash at point " + std::to_string(crash.point());
    return outcome;
  } catch (const std::exception& failure) {
    Outcome outcome;
    outcome.kind = Outcome::Kind::kFailed;
    outcome.detail = failure.what();
    return outcome;
  }
}

void Server::Impl::worker_body() {
  // Carve the thread budget: each worker gets an equal slice of threads=,
  // installed as this thread's pool override so every parallel_for inside
  // the session lands on the slice instead of the global pool. Budget 1 (or
  // threads < workers) pins the session serial — still bit-identical, PR 3.
  std::optional<ThreadPool> pool;
  std::optional<PoolBudgetScope> budget;
  if (options.threads > 0) {
    const std::size_t slice = std::max<std::size_t>(1, options.threads / options.workers);
    if (slice > 1) {
      pool.emplace(slice);
      budget.emplace(&*pool);
    } else {
      budget.emplace(nullptr);
    }
  }
  while (true) {
    Job job;
    std::shared_ptr<Slot> slot;
    {
      std::unique_lock<std::mutex> lock(state_mutex);
      work_cv.wait(lock, [this] { return stopping || !queue.empty(); });
      if (queue.empty()) return;  // stopping, nothing left to do
      job = std::move(queue.front());
      queue.pop_front();
      slot = std::make_shared<Slot>();
      active.emplace(job.id, slot);
      TFL_GAUGE_SET("server.sessions.active", static_cast<double>(active.size()));
    }

    const Outcome outcome = run_one(job, *slot);
    const double session_seconds = slot->watch.elapsed_seconds();

    bool requeued = false;
    {
      std::lock_guard<std::mutex> lock(state_mutex);
      active.erase(job.id);
      TFL_GAUGE_SET("server.sessions.active", static_cast<double>(active.size()));
      TFL_OBSERVE("server.session.seconds", session_seconds);
      RegistryEntry* entry = find_entry(job.id);
      switch (outcome.kind) {
        case Outcome::Kind::kDone:
          if (entry != nullptr) entry->state = SessionState::kDone;
          ++summary.completed;
          TFL_COUNTER_INC("server.completions");
          break;
        case Outcome::Kind::kFailed:
          if (entry != nullptr) entry->state = SessionState::kFailed;
          ++summary.failed;
          TFL_COUNTER_INC("server.failures");
          break;
        case Outcome::Kind::kEvicted:
          // Stays kPending: the phases it finished are durable, so a restart
          // (which strips the hang that likely wedged it) can complete it.
          // No automatic retry — a genuinely slow session would just trip
          // the same deadline again.
          ++summary.evicted;
          TFL_COUNTER_INC("server.evictions");
          break;
        case Outcome::Kind::kParked:
          // Drain-time cancellation; resumable by the next server run.
          ++summary.parked;
          TFL_COUNTER_INC("server.parked");
          break;
        case Outcome::Kind::kCrashed:
          // Contained injected crash: the checkpoint that preceded it is
          // durable, so requeue immediately (crash/hang events stripped —
          // the crash already happened) and let the session finish. Under
          // drain it stays pending for the next run instead.
          ++summary.crashed;
          TFL_COUNTER_INC("server.crashes.contained");
          if (entry != nullptr) {
            strip_oneshot_fault_events(*entry);
            ++entry->attempts;
            if (!draining) {
              auto config = Config::from_text(entry->config_text);
              if (config.ok()) {
                queue.push_back(Job{job.id, std::move(config).take(), false});
                requeued = true;
              }
            }
          }
          break;
      }
      save_registry_locked();
    }

    wire::Message reply;
    switch (outcome.kind) {
      case Outcome::Kind::kDone:
        reply.set_bool("ok", true);
        reply.set_string("op", "done");
        break;
      case Outcome::Kind::kFailed:
        reply.set_bool("ok", false);
        reply.set_string("op", "failed");
        break;
      case Outcome::Kind::kEvicted:
        reply.set_bool("ok", false);
        reply.set_string("op", "evicted");
        reply.set_string("error", "deadline");
        break;
      case Outcome::Kind::kParked:
        reply.set_bool("ok", false);
        reply.set_string("op", "parked");
        break;
      case Outcome::Kind::kCrashed:
        reply.set_bool("ok", false);
        reply.set_string("op", "crashed");
        reply.set_bool("resumable", true);
        break;
    }
    reply.set_number("id", static_cast<double>(job.id));
    if (!outcome.report_path.empty()) reply.set_string("report", outcome.report_path);
    if (!outcome.detail.empty()) reply.set_string("detail", outcome.detail);
    if (job.reattached) reply.set_bool("reattached", true);
    emit(reply);
    if (requeued) work_cv.notify_one();
  }
}

void Server::Impl::watchdog_body() {
  while (!watchdog_stop.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(state_mutex);
      for (auto& [id, slot] : active) {
        (void)id;
        if (!slot->cancel.load(std::memory_order_relaxed) &&
            slot->watch.elapsed_seconds() > options.watchdog_seconds) {
          // Order matters: mark the eviction before firing the token so the
          // worker that wakes on OperationCancelled classifies it correctly.
          slot->evicted.store(true, std::memory_order_release);
          slot->cancel.store(true, std::memory_order_release);
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

ServeSummary Server::run(LineSource& input, std::ostream& out) {
  Impl& impl = *impl_;
  impl.out = &out;
  impl.summary = ServeSummary{};
  impl.stopping = false;
  impl.draining = false;
  impl.watchdog_stop.store(false, std::memory_order_release);
  clear_drain_request();

  std::error_code ec;
  std::filesystem::create_directories(impl.options.root + "/sessions", ec);
  if (ec) {
    impl.emit_error("serve.root", "cannot create " + impl.options.root + ": " + ec.message());
    impl.summary.exit_code = 1;
    return impl.summary;
  }

  // Re-attach: resume every session the previous incarnation still owed.
  if (impl.options.resume && snapshot_exists(impl.registry_path())) {
    auto loaded = load_registry(impl.registry_path());
    if (!loaded.ok()) {
      // A corrupt registry fails closed — refusing to serve beats silently
      // forgetting admitted sessions.
      impl.emit_error(loaded.error().code, loaded.error().message);
      impl.summary.exit_code = 1;
      return impl.summary;
    }
    impl.registry = std::move(loaded).take();
    for (RegistryEntry& entry : impl.registry.entries) {
      if (entry.state != SessionState::kPending) continue;
      strip_oneshot_fault_events(entry);
      ++entry.attempts;
      auto config = Config::from_text(entry.config_text);
      if (!config.ok()) {
        entry.state = SessionState::kFailed;
        ++impl.summary.failed;
        continue;
      }
      impl.queue.push_back(Job{entry.id, std::move(config).take(), true});
      ++impl.summary.reattached;
      TFL_COUNTER_INC("server.reattached");
    }
  }
  {
    std::lock_guard<std::mutex> lock(impl.state_mutex);
    impl.save_registry_locked();
  }

  {
    wire::Message hello;
    hello.set_bool("ok", true);
    hello.set_string("op", "hello");
    hello.set_number("reattached", static_cast<double>(impl.summary.reattached));
    hello.set_number("workers", static_cast<double>(impl.options.workers));
    impl.emit(hello);
  }

  std::vector<WorkerThread> workers;
  workers.reserve(impl.options.workers);
  for (std::size_t w = 0; w < impl.options.workers; ++w) {
    workers.emplace_back(WorkerThread([&impl] { impl.worker_body(); }));
  }
  impl.work_cv.notify_all();
  WorkerThread watchdog;
  if (impl.options.watchdog_seconds > 0.0) {
    watchdog = WorkerThread([&impl] { impl.watchdog_body(); });
  }

  std::string line;
  while (true) {
    if (drain_requested()) break;
    const ReadStatus status = input.next(line);
    if (status == ReadStatus::kInterrupted) continue;  // re-check the flag
    if (status == ReadStatus::kEof) break;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    auto request = wire::Message::parse(line);
    if (!request.ok()) {
      impl.emit_error(request.error().code, request.error().message);
      continue;
    }
    impl.handle(request.value());
    if (drain_requested()) break;
  }

  if (drain_requested()) {
    // Drain: reject new work, park what never started, cancel what did (the
    // token lands at the next phase boundary, after the current phase's
    // checkpoint is durable), persist, exit 0.
    Stopwatch drain_watch;
    {
      std::lock_guard<std::mutex> lock(impl.state_mutex);
      impl.draining = true;
      for (const Job& job : impl.queue) {
        ++impl.summary.parked;
        TFL_COUNTER_INC("server.parked");
        wire::Message reply;
        reply.set_bool("ok", false);
        reply.set_string("op", "parked");
        reply.set_number("id", static_cast<double>(job.id));
        impl.emit(reply);
      }
      impl.queue.clear();
      for (auto& [id, slot] : impl.active) {
        (void)id;
        slot->cancel.store(true, std::memory_order_release);
      }
      impl.stopping = true;
    }
    impl.work_cv.notify_all();
    workers.clear();  // join: each worker finishes its cancelled session first
    impl.watchdog_stop.store(true, std::memory_order_release);
    if (watchdog.joinable()) watchdog.join();
    impl.summary.drained = true;
    TFL_GAUGE_SET("server.drain.seconds", drain_watch.elapsed_seconds());
  } else {
    // EOF: finish everything that was admitted (including crash requeues),
    // then exit 0. Workers drain the queue before honouring `stopping`.
    {
      std::lock_guard<std::mutex> lock(impl.state_mutex);
      impl.stopping = true;
    }
    impl.work_cv.notify_all();
    workers.clear();
    impl.watchdog_stop.store(true, std::memory_order_release);
    if (watchdog.joinable()) watchdog.join();
  }

  {
    wire::Message bye;
    bye.set_bool("ok", true);
    bye.set_string("op", "bye");
    bye.set_bool("drained", impl.summary.drained);
    bye.set_number("admitted", static_cast<double>(impl.summary.admitted));
    bye.set_number("reattached", static_cast<double>(impl.summary.reattached));
    bye.set_number("completed", static_cast<double>(impl.summary.completed));
    bye.set_number("failed", static_cast<double>(impl.summary.failed));
    bye.set_number("rejected", static_cast<double>(impl.summary.rejected));
    bye.set_number("evicted", static_cast<double>(impl.summary.evicted));
    bye.set_number("crashed", static_cast<double>(impl.summary.crashed));
    bye.set_number("parked", static_cast<double>(impl.summary.parked));
    impl.emit(bye);
  }
  return impl.summary;
}

}  // namespace tradefl::server

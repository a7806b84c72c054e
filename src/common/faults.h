// Seeded, fully deterministic fault injection. A FaultPlan describes which
// failures a run should experience — client dropout, straggler delay scaling,
// gradient/update corruption, chain transaction failures, process crashes —
// either as probabilistic rates or as explicit per-round events. The
// FaultInjector answers every "does fault X hit (round, target)?" query
// statelessly through Rng::derive_stream_seed, so a schedule replays
// bit-identically regardless of thread count, query order, or how many other
// faults fired before it. Consumers (fl/, chain/, core/, tradefl/) own the
// degradation behaviour and the obs counters; this layer only decides.
//
// Determinism contract: for a fixed FaultPlan, the value of every query is a
// pure function of (plan, kind, round, target). Nothing here mutates state,
// so the injector can be shared across threads without synchronization.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace tradefl {

enum class FaultKind : std::uint64_t {
  kClientDropout = 1,      // client misses a whole FL round
  kStragglerDelay = 2,     // client's round latency is scaled up
  kUpdateCorruption = 3,   // client's weight update turns NaN / noisy
  kTxRevert = 4,           // contract call reverts (not retryable)
  kTxGasExhaustion = 5,    // call runs out of gas (transient, retryable)
  kTxSubmitFailure = 6,    // tx never reaches the chain (transient, retryable)
  // 7 is retired (CGBD primal perturbation); kinds seed streams: never renumber.
  kProcessCrash = 8,       // whole process dies abruptly (std::_Exit, no cleanup)
  kPhaseHang = 9,          // pipeline point blocks until cancelled (watchdog tests)

  // Adversarial (Byzantine) silo behaviours. Unlike kUpdateCorruption these
  // produce finite, statistically-plausible updates that sail past the NaN
  // quarantine — only a robust aggregator (fl/robust_agg.h) blunts them.
  kSignFlip = 10,          // silo submits the negated model delta
  kScaleAttack = 11,       // silo amplifies its delta by a factor
  kFreeRide = 12,          // silo skips training and resubmits the global model
  kCollude = 13,           // k silos submit one shared crafted update
};

/// Short stable name ("dropout", "revert", ...) used in metrics and logs.
const char* fault_kind_name(FaultKind kind);

/// Sentinel target matching every client/org index.
inline constexpr std::uint64_t kAnyFaultTarget = ~0ULL;

/// One scheduled fault. `round` is the FL round for client faults, the call
/// index for chain faults, and the pipeline point for crash/hang faults.
/// `magnitude` overrides the plan-wide default (straggler scale / noise
/// stddev); 0 keeps the default.
struct FaultEvent {
  FaultKind kind = FaultKind::kClientDropout;
  std::uint64_t round = 0;
  std::uint64_t target = kAnyFaultTarget;
  double magnitude = 0.0;
};

/// The full fault schedule of a run. Rates are per-(round, target) Bernoulli
/// probabilities in [0, 1]; explicit events fire unconditionally on top.
/// A default-constructed plan is the all-zero plan: every query returns
/// "no fault" and pipelines behave bit-identically to a fault-free build.
struct FaultPlan {
  std::uint64_t seed = 1;

  double dropout_rate = 0.0;
  double straggler_rate = 0.0;
  double straggler_scale = 3.0;  // latency multiplier when a straggle fires
  double corrupt_rate = 0.0;
  double corrupt_noise = 0.0;    // stddev of additive noise; 0 = NaN poison
  double revert_rate = 0.0;
  double gas_exhaustion_rate = 0.0;
  double submit_failure_rate = 0.0;

  // Adversary blocks. Counts assign the lowest-indexed silos to each attack —
  // colluders first (they need shared identities), then sign-flippers,
  // amplifiers, free-riders — so membership is a pure function of the plan
  // and never depends on the population size. Per-(round, target) events of
  // the same kinds fire on top and override the block assignment.
  std::uint64_t collude_silos = 0;
  std::uint64_t signflip_silos = 0;
  std::uint64_t scale_silos = 0;
  std::uint64_t freeride_silos = 0;
  double scale_factor = 8.0;   // delta amplification when a scale attack fires
  double collude_shift = 4.0;  // stddev of the colluders' shared crafted delta

  std::vector<FaultEvent> events;

  /// True when no rate is positive, no adversary block is populated, and no
  /// event is scheduled.
  [[nodiscard]] bool empty() const;

  /// True when any adversarial block or event (signflip/scale/freeride/
  /// collude) is present — the trigger for the session deviation audit.
  [[nodiscard]] bool has_attacks() const;

  /// One-line human-readable summary ("drop:0.2 revert:0.1 seed:7").
  [[nodiscard]] std::string summary() const;

  /// Round-trippable `parse_fault_plan` spec of this plan (rates plus the
  /// spec-expressible crash:/hang: events; programmatic events of other kinds
  /// have no spec syntax and are omitted). The server registry stores this so
  /// a re-attached session replays the exact schedule it was admitted with.
  /// `include_crashes=false` additionally drops crash events — a resumed
  /// session must not re-fire the crash it already died from.
  [[nodiscard]] std::string spec_string(bool include_crashes = true) const;
};

/// The accepted `faults=` grammar, echoed verbatim in every parse error so a
/// mistyped spec is self-diagnosing (and tests can assert the message).
extern const char kFaultGrammar[];

/// Parses the CLI `faults=` spec: comma-separated `key:value` pairs with keys
///   seed, drop, straggle, scale, corrupt, noise, revert, gas, submit, crash,
///   hang, signflip, amplify, amplifyx, freeride, collude, colludex
/// e.g. "drop:0.2,straggle:0.1,scale:4,revert:0.05,seed:7". `crash:N`
/// schedules a process crash at pipeline point N (an FL round, CGBD
/// iteration, or session phase — whichever crash-eligible point the run
/// reaches first); repeat the key for multiple points. `hang:N` blocks the
/// session at phase point N until its cancel token fires (see
/// hang_if_scheduled) — the deterministic stand-in for a wedged solve that
/// watchdog tests need. `signflip:k` / `amplify:k` / `freeride:k` /
/// `collude:k` make the k lowest-indexed silos adversarial (the issue's
/// `scale:<x>` attack is spelled `amplify` because `scale` has meant the
/// straggler latency multiplier since PR 4); `amplifyx:x` / `colludex:x` set
/// the attack magnitudes. Unknown keys, malformed numbers, and out-of-range
/// values are errors that echo the offending token plus kFaultGrammar.
Result<FaultPlan> parse_fault_plan(const std::string& spec);

/// Exit code used by injected crashes so the kill-and-resume harness can tell
/// an injected death from an ordinary failure.
inline constexpr int kCrashExitCode = 86;

class FaultInjector;

/// Thrown instead of std::_Exit when a CrashContainmentScope is active (the
/// server contains injected crashes to the offending session). Derives from
/// std::exception only — a contained crash must never be swallowed by the
/// session's own std::runtime_error recovery paths.
class InjectedCrash : public std::exception {
 public:
  explicit InjectedCrash(std::uint64_t point) : point_(point) {}
  [[nodiscard]] const char* what() const noexcept override {
    return "injected process crash (contained)";
  }
  [[nodiscard]] std::uint64_t point() const { return point_; }

 private:
  std::uint64_t point_;
};

/// While alive on a thread, crash faults on that thread throw InjectedCrash
/// instead of killing the process. The server wraps each session worker in
/// one so `crash:N` plans exercise the same durable-checkpoint instants as the
/// CLI kill-and-resume suite without taking the daemon down. Scopes nest;
/// containment stays active until the outermost scope dies.
class CrashContainmentScope {
 public:
  CrashContainmentScope();
  ~CrashContainmentScope();
  CrashContainmentScope(const CrashContainmentScope&) = delete;
  CrashContainmentScope& operator=(const CrashContainmentScope&) = delete;

  /// True when any scope is alive on the calling thread.
  static bool active();
};

/// Thrown by check_cancelled / hang_if_scheduled when a cancel token fires.
/// Session phases let it propagate to the caller that owns the token (the
/// server watchdog or drain path); it is not a session failure mode.
class OperationCancelled : public std::exception {
 public:
  [[nodiscard]] const char* what() const noexcept override {
    return "operation cancelled";
  }
};

/// Throws OperationCancelled when the token is set. Null tokens never fire,
/// so standalone pipelines pay one branch.
void check_cancelled(const std::atomic<bool>* cancel);

/// Dies via std::_Exit(kCrashExitCode) — no destructors, no stream flushes,
/// exactly like a SIGKILL from the checkpoint subsystem's point of view —
/// when the injector schedules a crash at `point`. Null/inert injectors are
/// no-ops. Pipelines call this at the instants right after a checkpoint
/// becomes durable. Under a CrashContainmentScope the death becomes a thrown
/// InjectedCrash instead.
void crash_if_scheduled(const FaultInjector* injector, std::uint64_t point);

/// Blocks at `point` until `cancel` fires (then throws OperationCancelled)
/// when the injector schedules a hang there. A hang with a null cancel token
/// is a no-op rather than a genuine deadlock: only supervised runs (the
/// server, watchdog tests) can ever un-wedge one, so only they experience it.
/// Polls the token at millisecond granularity — timing never feeds back into
/// any deterministic output.
void hang_if_scheduled(const FaultInjector* injector, std::uint64_t point,
                       const std::atomic<bool>* cancel);

/// Outcome of a corruption query.
struct CorruptionSpec {
  bool corrupt = false;
  bool use_nan = true;          // false: additive Gaussian noise instead
  double noise_stddev = 0.0;    // meaningful when !use_nan
};

/// Outcome of an adversarial-update query. When `attack` is set, `kind` is
/// one of kSignFlip / kScaleAttack / kFreeRide / kCollude and `magnitude` is
/// the attack parameter (flip strength, amplification factor, or the crafted
/// delta's stddev; unused for freeride).
struct AttackSpec {
  bool attack = false;
  FaultKind kind = FaultKind::kSignFlip;
  double magnitude = 0.0;
};

/// Stateless oracle over a FaultPlan. All queries are const and pure; see the
/// determinism contract above.
class FaultInjector {
 public:
  /// Inert injector (all-zero plan): every query answers "no fault".
  FaultInjector() = default;
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  [[nodiscard]] bool enabled() const { return !plan_.empty(); }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  // ----- federated-learning faults (keyed by round, client) -----

  [[nodiscard]] bool drop_client(std::uint64_t round, std::uint64_t client) const;

  /// Latency multiplier for this client's round; 1.0 when no straggle fires.
  [[nodiscard]] double straggler_scale(std::uint64_t round, std::uint64_t client) const;

  [[nodiscard]] CorruptionSpec corrupt_update(std::uint64_t round, std::uint64_t client) const;

  /// The seeded noise stream for a corruption at (round, client); stateless,
  /// so the noise a client receives never depends on other clients.
  [[nodiscard]] Rng corruption_rng(std::uint64_t round, std::uint64_t client) const;

  /// Which adversarial behaviour (if any) this silo exhibits this round.
  /// Explicit events override the static adversary blocks; block membership
  /// itself is round-independent, modelling persistently-deviating silos.
  [[nodiscard]] AttackSpec attack_update(std::uint64_t round, std::uint64_t client) const;

  /// The colluders' shared crafted-delta stream for a round. Keyed by round
  /// only — every colluding silo draws the identical stream and therefore
  /// submits byte-identical updates, which is what makes collusion harder for
  /// distance-based defenses (Krum) than independent noise.
  [[nodiscard]] Rng collusion_rng(std::uint64_t round) const;

  // ----- chain faults (keyed by the client-side call index) -----

  [[nodiscard]] bool fail_submission(std::uint64_t call_index) const;
  [[nodiscard]] bool exhaust_gas(std::uint64_t call_index) const;
  [[nodiscard]] bool revert_call(std::uint64_t call_index) const;

  // ----- crash faults (keyed by a pipeline-specific checkpoint point) -----

  /// True when a `crash:N` event is scheduled for this point. Crashes are
  /// event-only (no Bernoulli rate): a random crash schedule could never be
  /// compared against an uninterrupted baseline.
  [[nodiscard]] bool crash_now(std::uint64_t point) const;

  /// True when a `hang:N` event is scheduled for this point. Hangs are
  /// event-only for the same reason crashes are.
  [[nodiscard]] bool hang_now(std::uint64_t point) const;

 private:
  [[nodiscard]] bool decide(FaultKind kind, std::uint64_t round, std::uint64_t target,
                            double rate) const;
  [[nodiscard]] const FaultEvent* find_event(FaultKind kind, std::uint64_t round,
                                             std::uint64_t target) const;

  FaultPlan plan_{};
};

}  // namespace tradefl

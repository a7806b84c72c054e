#include "common/faults.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/string_util.h"

namespace tradefl {
namespace {

/// Depth of nested CrashContainmentScopes on this thread (server workers).
thread_local int t_crash_containment_depth = 0;

/// Stream seed for one (kind, round, target) cell. Chained derivations keep
/// each coordinate independent: changing the round of a query can never
/// collide with changing its target.
std::uint64_t cell_seed(std::uint64_t base, FaultKind kind, std::uint64_t round,
                        std::uint64_t target) {
  std::uint64_t seed = Rng::derive_stream_seed(base, static_cast<std::uint64_t>(kind));
  seed = Rng::derive_stream_seed(seed, round);
  return Rng::derive_stream_seed(seed, target);
}

void append_rate(std::ostringstream& out, const char* key, double rate) {
  if (rate > 0.0) out << (out.tellp() > 0 ? "," : "") << key << ":" << rate;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kClientDropout: return "dropout";
    case FaultKind::kStragglerDelay: return "straggler";
    case FaultKind::kUpdateCorruption: return "corruption";
    case FaultKind::kTxRevert: return "revert";
    case FaultKind::kTxGasExhaustion: return "gas_exhaustion";
    case FaultKind::kTxSubmitFailure: return "submit_failure";
    case FaultKind::kProcessCrash: return "crash";
    case FaultKind::kPhaseHang: return "hang";
    case FaultKind::kSignFlip: return "signflip";
    case FaultKind::kScaleAttack: return "scale_attack";
    case FaultKind::kFreeRide: return "freeride";
    case FaultKind::kCollude: return "collude";
  }
  return "unknown";
}

bool FaultPlan::empty() const {
  return dropout_rate <= 0.0 && straggler_rate <= 0.0 && corrupt_rate <= 0.0 &&
         revert_rate <= 0.0 && gas_exhaustion_rate <= 0.0 && submit_failure_rate <= 0.0 &&
         collude_silos == 0 && signflip_silos == 0 && scale_silos == 0 && freeride_silos == 0 &&
         events.empty();
}

bool FaultPlan::has_attacks() const {
  if (collude_silos > 0 || signflip_silos > 0 || scale_silos > 0 || freeride_silos > 0) {
    return true;
  }
  for (const FaultEvent& event : events) {
    switch (event.kind) {
      case FaultKind::kSignFlip:
      case FaultKind::kScaleAttack:
      case FaultKind::kFreeRide:
      case FaultKind::kCollude:
        return true;
      default:
        break;
    }
  }
  return false;
}

std::string FaultPlan::spec_string(bool include_crashes) const {
  // %.17g survives a stod round-trip for every double, so a plan parsed from
  // this spec decides bit-identically to the original.
  const auto number = [](double value) {
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return std::string(buffer);
  };
  std::ostringstream out;
  const auto emit = [&out](const std::string& key, const std::string& value) {
    out << (out.tellp() > 0 ? "," : "") << key << ":" << value;
  };
  emit("seed", std::to_string(seed));
  if (dropout_rate > 0.0) emit("drop", number(dropout_rate));
  if (straggler_rate > 0.0) emit("straggle", number(straggler_rate));
  if (straggler_scale != 3.0) emit("scale", number(straggler_scale));
  if (corrupt_rate > 0.0) emit("corrupt", number(corrupt_rate));
  if (corrupt_noise > 0.0) emit("noise", number(corrupt_noise));
  if (revert_rate > 0.0) emit("revert", number(revert_rate));
  if (gas_exhaustion_rate > 0.0) emit("gas", number(gas_exhaustion_rate));
  if (submit_failure_rate > 0.0) emit("submit", number(submit_failure_rate));
  if (collude_silos > 0) emit("collude", std::to_string(collude_silos));
  if (collude_shift != 4.0) emit("colludex", number(collude_shift));
  if (signflip_silos > 0) emit("signflip", std::to_string(signflip_silos));
  if (scale_silos > 0) emit("amplify", std::to_string(scale_silos));
  if (scale_factor != 8.0) emit("amplifyx", number(scale_factor));
  if (freeride_silos > 0) emit("freeride", std::to_string(freeride_silos));
  for (const FaultEvent& event : events) {
    if (event.kind == FaultKind::kProcessCrash && include_crashes) {
      emit("crash", std::to_string(event.round));
    } else if (event.kind == FaultKind::kPhaseHang) {
      emit("hang", std::to_string(event.round));
    }
    // Other event kinds have no spec syntax (see header); they only arise in
    // programmatic plans that never pass through the registry.
  }
  return out.str();
}

std::string FaultPlan::summary() const {
  std::ostringstream out;
  append_rate(out, "drop", dropout_rate);
  append_rate(out, "straggle", straggler_rate);
  append_rate(out, "corrupt", corrupt_rate);
  append_rate(out, "revert", revert_rate);
  append_rate(out, "gas", gas_exhaustion_rate);
  append_rate(out, "submit", submit_failure_rate);
  const auto append_count = [&out](const char* key, std::uint64_t count) {
    if (count > 0) out << (out.tellp() > 0 ? "," : "") << key << ":" << count;
  };
  append_count("collude", collude_silos);
  append_count("signflip", signflip_silos);
  append_count("amplify", scale_silos);
  append_count("freeride", freeride_silos);
  if (!events.empty()) out << (out.tellp() > 0 ? "," : "") << "events:" << events.size();
  if (out.tellp() == 0) return "none";
  out << ",seed:" << seed;
  return out.str();
}

const char kFaultGrammar[] =
    "faults=<key>:<value>[,<key>:<value>...] where <key>:<value> is one of "
    "seed:<u64> | drop:<rate> | straggle:<rate> | scale:<mult>=1> | corrupt:<rate> | "
    "noise:<stddev> | revert:<rate> | gas:<rate> | submit:<rate> | crash:<point> | "
    "hang:<point> | signflip:<silos> | amplify:<silos> | amplifyx:<factor> | "
    "freeride:<silos> | collude:<silos> | colludex:<stddev> (rates in [0, 1]; points and "
    "silo counts are non-negative integers)";

namespace {

/// Every parse error carries the token that triggered it plus the full
/// grammar, so a CLI typo is diagnosable from the message alone.
Error fault_error(const std::string& what, const std::string& token) {
  return Error{"faults", what + " in token '" + token + "'; accepted grammar: " + kFaultGrammar};
}

}  // namespace

Result<FaultPlan> parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  if (trim(spec).empty()) return plan;
  for (const std::string& raw : split(spec, ',')) {
    const std::string pair = trim(raw);
    if (pair.empty()) continue;
    const std::size_t colon = pair.find(':');
    if (colon == std::string::npos) {
      return fault_error("expected key:value", pair);
    }
    const std::string key = trim(pair.substr(0, colon));
    const std::string value = trim(pair.substr(colon + 1));
    double parsed = 0.0;
    try {
      std::size_t used = 0;
      parsed = std::stod(value, &used);
      if (used != value.size()) throw std::invalid_argument(value);
    } catch (const std::exception&) {
      return fault_error("cannot parse value '" + value + "' for key '" + key + "'", pair);
    }
    const bool is_rate = key == "drop" || key == "straggle" || key == "corrupt" ||
                         key == "revert" || key == "gas" || key == "submit";
    if (is_rate && (parsed < 0.0 || parsed > 1.0)) {
      return fault_error("rate '" + key + "' must be in [0, 1], got " + value, pair);
    }
    const bool is_count = key == "crash" || key == "hang" || key == "signflip" ||
                          key == "amplify" || key == "freeride" || key == "collude";
    if (is_count &&
        (parsed < 0.0 || parsed != static_cast<double>(static_cast<std::uint64_t>(parsed)))) {
      return fault_error("'" + key + "' must be a non-negative integer, got " + value, pair);
    }
    if (key == "seed") {
      plan.seed = static_cast<std::uint64_t>(parsed);
    } else if (key == "drop") {
      plan.dropout_rate = parsed;
    } else if (key == "straggle") {
      plan.straggler_rate = parsed;
    } else if (key == "scale") {
      if (parsed < 1.0) return fault_error("scale must be >= 1, got " + value, pair);
      plan.straggler_scale = parsed;
    } else if (key == "corrupt") {
      plan.corrupt_rate = parsed;
    } else if (key == "noise") {
      if (parsed < 0.0) return fault_error("noise must be >= 0, got " + value, pair);
      plan.corrupt_noise = parsed;
    } else if (key == "revert") {
      plan.revert_rate = parsed;
    } else if (key == "gas") {
      plan.gas_exhaustion_rate = parsed;
    } else if (key == "submit") {
      plan.submit_failure_rate = parsed;
    } else if (key == "signflip") {
      plan.signflip_silos = static_cast<std::uint64_t>(parsed);
    } else if (key == "amplify") {
      plan.scale_silos = static_cast<std::uint64_t>(parsed);
    } else if (key == "amplifyx") {
      if (parsed <= 0.0) return fault_error("amplifyx must be > 0, got " + value, pair);
      plan.scale_factor = parsed;
    } else if (key == "freeride") {
      plan.freeride_silos = static_cast<std::uint64_t>(parsed);
    } else if (key == "collude") {
      plan.collude_silos = static_cast<std::uint64_t>(parsed);
    } else if (key == "colludex") {
      if (parsed <= 0.0) return fault_error("colludex must be > 0, got " + value, pair);
      plan.collude_shift = parsed;
    } else if (key == "crash" || key == "hang") {
      plan.events.push_back({key == "crash" ? FaultKind::kProcessCrash : FaultKind::kPhaseHang,
                             static_cast<std::uint64_t>(parsed), kAnyFaultTarget, 0.0});
    } else {
      return fault_error("unknown fault key '" + key + "'", pair);
    }
  }
  return plan;
}

const FaultEvent* FaultInjector::find_event(FaultKind kind, std::uint64_t round,
                                            std::uint64_t target) const {
  for (const FaultEvent& event : plan_.events) {
    if (event.kind != kind || event.round != round) continue;
    if (event.target == kAnyFaultTarget || event.target == target) return &event;
  }
  return nullptr;
}

bool FaultInjector::decide(FaultKind kind, std::uint64_t round, std::uint64_t target,
                           double rate) const {
  if (find_event(kind, round, target) != nullptr) return true;
  if (rate <= 0.0) return false;
  Rng rng(cell_seed(plan_.seed, kind, round, target));
  return rng.bernoulli(rate);
}

bool FaultInjector::drop_client(std::uint64_t round, std::uint64_t client) const {
  return decide(FaultKind::kClientDropout, round, client, plan_.dropout_rate);
}

double FaultInjector::straggler_scale(std::uint64_t round, std::uint64_t client) const {
  const FaultEvent* event = find_event(FaultKind::kStragglerDelay, round, client);
  if (event != nullptr) {
    return event->magnitude > 0.0 ? event->magnitude : plan_.straggler_scale;
  }
  if (plan_.straggler_rate <= 0.0) return 1.0;
  Rng rng(cell_seed(plan_.seed, FaultKind::kStragglerDelay, round, client));
  return rng.bernoulli(plan_.straggler_rate) ? plan_.straggler_scale : 1.0;
}

CorruptionSpec FaultInjector::corrupt_update(std::uint64_t round, std::uint64_t client) const {
  CorruptionSpec spec;
  const FaultEvent* event = find_event(FaultKind::kUpdateCorruption, round, client);
  double stddev = plan_.corrupt_noise;
  if (event != nullptr) {
    spec.corrupt = true;
    if (event->magnitude > 0.0) stddev = event->magnitude;
  } else if (plan_.corrupt_rate > 0.0) {
    Rng rng(cell_seed(plan_.seed, FaultKind::kUpdateCorruption, round, client));
    spec.corrupt = rng.bernoulli(plan_.corrupt_rate);
  }
  if (spec.corrupt && stddev > 0.0) {
    spec.use_nan = false;
    spec.noise_stddev = stddev;
  }
  return spec;
}

Rng FaultInjector::corruption_rng(std::uint64_t round, std::uint64_t client) const {
  // Offset the kind so the noise stream never reuses the decision stream.
  return Rng(cell_seed(plan_.seed ^ 0xC0FFEEULL, FaultKind::kUpdateCorruption, round, client));
}

AttackSpec FaultInjector::attack_update(std::uint64_t round, std::uint64_t client) const {
  AttackSpec spec;
  const struct {
    FaultKind kind;
    std::uint64_t silos;
    double magnitude;
  } attacks[] = {
      // Colluders take the lowest indices so `collude:k` always yields k silos
      // with a shared identity block; the other attacks stack after them.
      {FaultKind::kCollude, plan_.collude_silos, plan_.collude_shift},
      {FaultKind::kSignFlip, plan_.signflip_silos, 1.0},
      {FaultKind::kScaleAttack, plan_.scale_silos, plan_.scale_factor},
      {FaultKind::kFreeRide, plan_.freeride_silos, 0.0},
  };
  // Explicit events override block membership (and may carry a magnitude).
  for (const auto& attack : attacks) {
    const FaultEvent* event = find_event(attack.kind, round, client);
    if (event == nullptr) continue;
    spec.attack = true;
    spec.kind = attack.kind;
    spec.magnitude = event->magnitude > 0.0 ? event->magnitude : attack.magnitude;
    return spec;
  }
  std::uint64_t begin = 0;
  for (const auto& attack : attacks) {
    if (client >= begin && client < begin + attack.silos) {
      spec.attack = true;
      spec.kind = attack.kind;
      spec.magnitude = attack.magnitude;
      return spec;
    }
    begin += attack.silos;
  }
  return spec;
}

Rng FaultInjector::collusion_rng(std::uint64_t round) const {
  // Keyed by round only (target 0): every colluder draws the same stream and
  // submits the identical crafted update. XOR-offset so it can never collide
  // with the collusion decision stream.
  return Rng(cell_seed(plan_.seed ^ 0x5EEDBADULL, FaultKind::kCollude, round, 0));
}

bool FaultInjector::fail_submission(std::uint64_t call_index) const {
  return decide(FaultKind::kTxSubmitFailure, call_index, 0, plan_.submit_failure_rate);
}

bool FaultInjector::exhaust_gas(std::uint64_t call_index) const {
  return decide(FaultKind::kTxGasExhaustion, call_index, 0, plan_.gas_exhaustion_rate);
}

bool FaultInjector::revert_call(std::uint64_t call_index) const {
  return decide(FaultKind::kTxRevert, call_index, 0, plan_.revert_rate);
}

bool FaultInjector::crash_now(std::uint64_t point) const {
  return find_event(FaultKind::kProcessCrash, point, 0) != nullptr;
}

bool FaultInjector::hang_now(std::uint64_t point) const {
  return find_event(FaultKind::kPhaseHang, point, 0) != nullptr;
}

CrashContainmentScope::CrashContainmentScope() { ++t_crash_containment_depth; }

CrashContainmentScope::~CrashContainmentScope() { --t_crash_containment_depth; }

bool CrashContainmentScope::active() { return t_crash_containment_depth > 0; }

void check_cancelled(const std::atomic<bool>* cancel) {
  if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
    throw OperationCancelled{};
  }
}

void crash_if_scheduled(const FaultInjector* injector, std::uint64_t point) {
  if (injector == nullptr || !injector->enabled() || !injector->crash_now(point)) return;
  if (CrashContainmentScope::active()) {
    // The server contains the blast radius to the offending session: the
    // throw unwinds the session worker, the daemon stays up, and the
    // already-durable checkpoint is what a re-attach resumes from — the same
    // state a real _Exit would have left behind.
    throw InjectedCrash(point);
  }
  // _Exit skips destructors and atexit handlers: from the snapshot layer's
  // point of view this is indistinguishable from SIGKILL, which is the
  // contract the kill-and-resume suite verifies.
  std::fprintf(stderr, "[faults] injected crash at point %llu\n",
               static_cast<unsigned long long>(point));
  std::_Exit(kCrashExitCode);
}

void hang_if_scheduled(const FaultInjector* injector, std::uint64_t point,
                       const std::atomic<bool>* cancel) {
  if (injector == nullptr || !injector->enabled() || !injector->hang_now(point)) return;
  if (cancel == nullptr) return;  // unsupervised runs have nobody to un-wedge a hang
  while (!cancel->load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  throw OperationCancelled{};
}

}  // namespace tradefl

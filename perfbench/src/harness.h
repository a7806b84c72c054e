// Trading-session benchmark harness: workload definitions, the per-session
// output check, and the in-memory span log of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/mechanism.h"
#include "tradefl/session.h"

namespace perfbench {

/// One closed-loop workload: a single client drives TradingSession::run over
/// a stream of seeded Table-II consortia, one session per entry of `schemes`
/// for every consortium (a "group").
struct Workload {
  std::string name;
  std::size_t orgs = 10;
  std::vector<tradefl::core::Scheme> schemes;
  /// Run FedAvg (MLP on FMNIST-like data at full sample scale, 5 rounds).
  bool train = false;
  /// Checkpoint every session into a fresh directory, then write its report.
  bool durable = false;
  /// Groups covered by output_digest; every run completes at least these.
  std::size_t digest_groups = 1;
};

/// nullptr when no workload has that name.
const Workload* find_workload(const std::string& name);

/// Options of one session of `workload` on consortium seed `seed`.
tradefl::SessionOptions session_options(const Workload& workload, tradefl::core::Scheme scheme,
                                        std::uint64_t seed, const std::string& checkpoint_dir);

/// What the benchmark demands of one session's output.
struct CheckInput {
  const tradefl::SessionResult* result = nullptr;
  tradefl::core::Scheme scheme = tradefl::core::Scheme::kDbr;
  bool expect_training = false;
  std::size_t classes = 10;
  bool report_written = true;  // write_session_report returned ok (durable only)
};

/// One line per violated condition; empty means the session passed.
std::vector<std::string> check_session(const CheckInput& input);

/// Fabricates bad results from a passing one and confirms check_session
/// flags each; prints one line per case. Returns the number of misses.
int self_test_checks(const tradefl::SessionResult& passing, tradefl::core::Scheme scheme);

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// Fixed CPU work built with the harness, not the program: small dense
/// floating-point loops, ordered-map inserts and a memcpy, a rough mix of
/// what sessions do. Returns its seconds. On a shared host whose single-core
/// speed drifts by a third within minutes, its time follows the drift
/// (block medians correlate 0.93-0.98 with settle_durable's), so it is the
/// yardstick the end-to-end times are scaled by.
double reference_kernel();

/// The reference host speed the end-to-end times are reported at: one
/// reference_kernel() call takes this long there.
constexpr double kReferenceKernelSeconds = 4e-4;

/// Spans kept in memory and written as JSON lines when the run ends. Spans
/// are recorded after the fact from timestamps the caller already took, so
/// a traced call pays no clock reads beyond the untraced one.
class SpanLog {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  /// Returns the span's index, usable as a later span's parent.
  std::size_t add(const char* name, Clock::time_point start, Clock::time_point end,
                  std::size_t parent, std::uint64_t session);

  /// One JSON object per line: name, start_ns and end_ns (relative to the
  /// log's creation), parent index (-1 for roots) and session id.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::size_t parent;
    std::uint64_t session;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace perfbench

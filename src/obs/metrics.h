// Metrics registry: named counters, gauges, fixed-bucket histograms, and
// per-run series (trajectories), with thread-safe registration and lock-free
// updates on the hot path. Snapshots export to JSON and to a human-readable
// AsciiTable. This is the observability substrate behind the paper-shaped
// telemetry (convergence dynamics, contract gas/latency, per-phase training
// time); the instrumentation macros live in obs/obs.h.
//
// Naming scheme: `subsystem.verb.unit` (e.g. cgbd.master.seconds,
// chain.call.seconds, fl.accuracy.trajectory). See docs/OBSERVABILITY.md.
//
// Metric objects have stable addresses for the lifetime of the process:
// reset() zeroes values but never deregisters, so cached references held by
// call sites stay valid.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tradefl::obs {

/// Global runtime switch for every TFL_* instrumentation macro. Defaults to
/// off so library consumers pay only one relaxed atomic load per site; the
/// CLI/bench surfaces flip it on. Independent of the compile-time
/// TRADEFL_ENABLE_TRACING gate (see obs/obs.h).
bool enabled();
void set_enabled(bool on);

namespace detail {
/// Relaxed add for atomic doubles via CAS (portable, TSan-clean).
void atomic_add(std::atomic<double>& target, double delta);
void atomic_min(std::atomic<double>& target, double value);
void atomic_max(std::atomic<double>& target, double value);
}  // namespace detail

/// Monotonically increasing event count.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void add(std::uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with Prometheus-style `le` (<=) bucket semantics:
/// an observation lands in the first bucket whose upper bound is >= value;
/// values above the last bound land in the implicit +Inf overflow bucket.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing and non-empty.
  Histogram(std::string name, std::vector<double> upper_bounds);

  void observe(double value);

  struct Snapshot {
    std::vector<double> upper_bounds;    // finite bounds; overflow is implicit
    std::vector<std::uint64_t> counts;   // upper_bounds.size() + 1 entries
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  // 0 when count == 0
    double max = 0.0;

    /// Interpolated quantile (q in [0,1]) from the bucket counts: the bucket
    /// holding rank q*count is interpolated linearly between its bounds, with
    /// the first bucket floored at `min` and the +Inf overflow bucket capped
    /// at `max`, so the estimate never leaves the observed range and a
    /// single-sample histogram reports the sample exactly. Empty -> 0.
    [[nodiscard]] double quantile(double q) const;
    [[nodiscard]] double p50() const { return quantile(0.50); }
    [[nodiscard]] double p90() const { return quantile(0.90); }
    [[nodiscard]] double p99() const { return quantile(0.99); }
  };
  [[nodiscard]] Snapshot snapshot() const;
  void reset();
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::string name_;
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> bucket_counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Append-only bounded trajectory (e.g. potential per iteration). Appends
/// beyond the capacity are counted but dropped, so a runaway loop cannot grow
/// memory without bound.
class Series {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit Series(std::string name, std::size_t capacity = kDefaultCapacity)
      : name_(std::move(name)), capacity_(capacity) {}

  void append(double value);
  [[nodiscard]] std::vector<double> values() const;
  [[nodiscard]] std::uint64_t total_appends() const;
  void reset();
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<double> values_;
  std::uint64_t total_ = 0;
};

/// Point-in-time copy of every registered metric, safe to format or persist
/// after the run continues. Orderings are deterministic (sorted by name).
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    Histogram::Snapshot data;
  };
  struct SeriesValue {
    std::string name;
    std::vector<double> values;
    std::uint64_t total_appends = 0;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
  std::vector<SeriesValue> series;

  [[nodiscard]] bool empty() const;

  /// Lookup helpers (nullptr when absent) for tests and callers.
  [[nodiscard]] const CounterValue* find_counter(const std::string& name) const;
  [[nodiscard]] const GaugeValue* find_gauge(const std::string& name) const;
  [[nodiscard]] const HistogramValue* find_histogram(const std::string& name) const;
  [[nodiscard]] const SeriesValue* find_series(const std::string& name) const;

  /// Machine-readable export: {"counters": {...}, "gauges": {...},
  /// "histograms": {...}, "series": {...}}. Non-finite doubles become null.
  [[nodiscard]] std::string to_json() const;

  /// Human-readable AsciiTable render (one row per metric).
  [[nodiscard]] std::string to_table() const;
};

/// Thread-safe name -> metric registry. Registration takes a mutex; returned
/// references stay valid forever (reset() zeroes, never removes).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// First registration fixes the bucket bounds; later calls (with or without
  /// bounds) return the existing histogram. Empty bounds select
  /// default_latency_bounds().
  Histogram& histogram(const std::string& name, std::vector<double> upper_bounds = {});
  Series& series(const std::string& name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every metric, keeping registrations (and thus cached references).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Series>> series_;
};

/// Process-wide registry used by the TFL_* macros.
MetricsRegistry& metrics();

/// Thread-local observability scope: while one is alive, every TFL_* macro on
/// the thread records under `<scope>/<name>` (e.g. "session=3/cgbd.solve")
/// instead of the bare name, and ledger lines gain the same prefix. The serve
/// daemon installs one per session worker so concurrent sessions never
/// interleave into one histogram. Scopes nest (inner replaces outer); an
/// empty scope string is the unscoped default. The macro-site literal name is
/// what tfl-analyze audits, so scoping never perturbs the vocabulary closure.
class MetricScope {
 public:
  explicit MetricScope(std::string scope);
  ~MetricScope();
  MetricScope(const MetricScope&) = delete;
  MetricScope& operator=(const MetricScope&) = delete;

 private:
  std::string previous_;
};

/// The calling thread's active scope ("" when none).
[[nodiscard]] const std::string& metric_scope();

/// Resolves a cached macro-site metric against the calling thread's scope:
/// returns the argument unchanged when unscoped (the hot path keeps its
/// cached-reference cost), otherwise registers/fetches `<scope>/<name>`.
/// The scoped histogram inherits the unscoped one's bucket bounds.
[[nodiscard]] Counter& scoped(Counter& unscoped);
[[nodiscard]] Gauge& scoped(Gauge& unscoped);
[[nodiscard]] Histogram& scoped(Histogram& unscoped);
[[nodiscard]] Series& scoped(Series& unscoped);

/// Log-spaced latency bounds in seconds: 1us .. 10s.
std::vector<double> default_latency_bounds();

/// Strictly increasing log-spaced bounds: `per_decade` buckets per factor of
/// ten, from `lo` up to and including the first bound >= `hi`. Requires
/// 0 < lo < hi and per_decade >= 1.
std::vector<double> log_bucket_bounds(double lo, double hi, std::size_t per_decade);

/// Fine-grained log bucketing for seconds-scale latency metrics (100ns .. 10s,
/// 4 buckets per decade) — tight enough that interpolated p50/p99 are usable
/// SLO figures, unlike default_latency_bounds() whose decade-wide buckets
/// only localize the order of magnitude.
std::vector<double> latency_histogram_bounds();

/// Registers (or fetches) `name` in the process registry with
/// latency_histogram_bounds(). The TFL_LATENCY_TIMER macro routes here; use
/// it for any histogram whose quantiles feed SLO reporting.
Histogram& latency_histogram(const std::string& name);

}  // namespace tradefl::obs

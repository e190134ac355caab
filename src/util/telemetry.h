#ifndef AUTOAC_UTIL_TELEMETRY_H_
#define AUTOAC_UTIL_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

// Process-wide metrics registry and structured JSONL sink.
//
// Three primitives cover the repo's observability needs:
//   * Counter — monotonically increasing int64, safe to bump from
//     ParallelFor workers (relaxed atomic add).
//   * Gauge   — last-written double (e.g. the most recent modularity loss).
//   * MetricRecord — one JSONL line: a flat JSON object tagged with a
//     "type" field, appended to the sink by Telemetry::Emit().
//
// The sink is off by default. `autoac_run --metrics_out=m.jsonl` (or the
// AUTOAC_METRICS_OUT environment variable) turns it on; every recording
// call first does a relaxed atomic load of the enabled flag and returns
// immediately when the sink is off, so instrumented hot paths pay nothing
// measurable in normal runs. Metric names and the record schema are
// documented in DESIGN.md §8 "Observability".
//
// Usage:
//   Telemetry::Get().Enable("m.jsonl");
//   Telemetry::Get().GetCounter("search.alpha_flips").Increment(3);
//   Telemetry::Get().Emit(MetricRecord("search_epoch")
//                             .Add("epoch", epoch)
//                             .Add("val_loss", loss));

namespace autoac {

/// Monotonically increasing metric. Increment is wait-free and safe from
/// inside parallel regions; reads see the running total.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<int64_t> value_{0};
};

/// Last-written double. Set is atomic so sampling from another thread never
/// observes a torn value.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Builder for one JSONL line. Keys are emitted in Add() order after the
/// leading "type" field; string values are JSON-escaped and non-finite
/// doubles serialize as null (JSON has no NaN/Inf).
class MetricRecord {
 public:
  explicit MetricRecord(std::string_view type);

  MetricRecord& Add(std::string_view key, double value);
  MetricRecord& Add(std::string_view key, int64_t value);
  MetricRecord& Add(std::string_view key, int value) {
    return Add(key, static_cast<int64_t>(value));
  }
  MetricRecord& Add(std::string_view key, bool value);
  MetricRecord& Add(std::string_view key, std::string_view value);
  MetricRecord& Add(std::string_view key, const char* value) {
    return Add(key, std::string_view(value));
  }

  /// The complete JSON object, without a trailing newline.
  std::string json() const { return body_ + "}"; }

 private:
  void AddKey(std::string_view key);
  std::string body_;  // open object: {"type":"...",...
};

/// The process-wide registry + sink. All methods are thread-safe.
class Telemetry {
 public:
  /// The singleton. First call also honors AUTOAC_METRICS_OUT: when the
  /// variable names a writable path the sink is enabled immediately, so
  /// binaries that never parse flags still emit when asked via env.
  static Telemetry& Get();

  /// True when a JSONL sink is open. Relaxed load — the fast path of every
  /// instrumentation site.
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Opens (truncates) `path` as the JSONL sink. Returns false and leaves
  /// the sink closed if the file cannot be opened.
  bool Enable(const std::string& path);

  /// Flushes and closes the sink. Counters and gauges survive.
  void Disable();

  /// Appends one record line to the sink (no-op when disabled). Each line
  /// additionally carries "t": seconds since the sink was enabled. The
  /// line is flushed to the OS before returning, so records written before
  /// a crash are never lost in the stdio buffer.
  void Emit(const MetricRecord& record);

  void Flush();

  /// Name-keyed registries. Metrics are never unregistered, so the
  /// returned references are stable for the process lifetime and hot call
  /// sites cache them (AUTOAC_COUNTER_ADD).
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);

  /// (name, value) of every registered counter, sorted by name.
  std::vector<std::pair<std::string, int64_t>> CounterValues();

  /// Emits one "counter" / "gauge" record per registered metric —
  /// the end-of-run snapshot.
  void EmitRegistrySnapshot();

 private:
  Telemetry() = default;

  static std::atomic<bool> enabled_;

  std::mutex mutex_;  // guards sink_, registries, and enable time
  std::FILE* sink_ = nullptr;
  double enable_time_ = 0.0;  // steady-clock seconds at Enable()
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
};

/// Adds `delta` to the registry counter `name`. The Counter& is resolved
/// once per call site (function-local static, like AUTOAC_PROFILE_SCOPE),
/// so each bump is one relaxed atomic add with no registry lookup. Counts
/// whether or not the sink is on; the sink only decides whether the
/// shutdown snapshot is written.
#define AUTOAC_COUNTER_ADD(name, delta)                        \
  do {                                                         \
    static ::autoac::Counter& autoac_counter_ =                \
        ::autoac::Telemetry::Get().GetCounter(name);           \
    autoac_counter_.Increment(delta);                          \
  } while (0)

/// Shared binary setup: enables the JSONL sink from a --metrics_out flag
/// value (empty string = flag unset, fall back to AUTOAC_METRICS_OUT) and
/// turns the profiler on when a sink opened. Returns true when telemetry is
/// active. Logs a warning and returns false if the path cannot be opened.
bool InitTelemetryFromFlag(const std::string& metrics_out);

/// Shared binary teardown: emits the profiler scopes and the counter/gauge
/// snapshot to the sink, optionally prints the profile summary table to
/// stdout, then flushes and closes. Safe to call when telemetry is off.
void ShutdownTelemetry(bool print_profile_table = true);

}  // namespace autoac

#endif  // AUTOAC_UTIL_TELEMETRY_H_

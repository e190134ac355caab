#include "util/telemetry.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/profiler.h"

namespace autoac {
namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AppendEscaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void AppendDouble(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no NaN/Inf; null keeps the line parseable.
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

MetricRecord::MetricRecord(std::string_view type) {
  body_ = "{\"type\":";
  AppendEscaped(body_, type);
}

void MetricRecord::AddKey(std::string_view key) {
  body_ += ',';
  AppendEscaped(body_, key);
  body_ += ':';
}

MetricRecord& MetricRecord::Add(std::string_view key, double value) {
  AddKey(key);
  AppendDouble(body_, value);
  return *this;
}

MetricRecord& MetricRecord::Add(std::string_view key, int64_t value) {
  AddKey(key);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  body_ += buf;
  return *this;
}

MetricRecord& MetricRecord::Add(std::string_view key, bool value) {
  AddKey(key);
  body_ += value ? "true" : "false";
  return *this;
}

MetricRecord& MetricRecord::Add(std::string_view key,
                                std::string_view value) {
  AddKey(key);
  AppendEscaped(body_, value);
  return *this;
}

std::atomic<bool> Telemetry::enabled_{false};

Telemetry& Telemetry::Get() {
  static Telemetry* instance = [] {
    auto* t = new Telemetry();
    if (const char* env = std::getenv("AUTOAC_METRICS_OUT");
        env != nullptr && env[0] != '\0') {
      if (!t->Enable(env)) {
        AUTOAC_LOG(Warning)
            << "AUTOAC_METRICS_OUT: cannot open '" << env << "' for writing";
      }
    }
    return t;
  }();
  return *instance;
}

bool Telemetry::Enable(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  if (sink_ != nullptr) std::fclose(sink_);
  sink_ = f;
  enable_time_ = SteadySeconds();
  enabled_.store(true, std::memory_order_relaxed);
  return true;
}

void Telemetry::Disable() {
  std::lock_guard<std::mutex> lock(mutex_);
  enabled_.store(false, std::memory_order_relaxed);
  if (sink_ != nullptr) {
    std::fclose(sink_);
    sink_ = nullptr;
  }
}

void Telemetry::Emit(const MetricRecord& record) {
  if (!Enabled()) return;
  std::string line = record.json();
  std::lock_guard<std::mutex> lock(mutex_);
  if (sink_ == nullptr) return;
  // Splice the relative timestamp in before the closing brace.
  line.pop_back();
  line += ",\"t\":";
  AppendDouble(line, SteadySeconds() - enable_time_);
  line += "}\n";
  std::fwrite(line.data(), 1, line.size(), sink_);
  // Flush per record: metric lines are emitted at epoch granularity, so the
  // cost is negligible, and a crash (or SIGKILL) can never lose records to
  // the userspace stdio buffer — the sink always reflects every completed
  // epoch.
  std::fflush(sink_);
}

void Telemetry::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sink_ != nullptr) std::fflush(sink_);
}

Counter& Telemetry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<Counter>(std::string(name)))
             .first;
  }
  return *it->second;
}

Gauge& Telemetry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::make_unique<Gauge>(std::string(name)))
             .first;
  }
  return *it->second;
}

std::vector<std::pair<std::string, int64_t>> Telemetry::CounterValues() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, int64_t>> counters;
  for (const auto& [name, counter] : counters_) {
    counters.emplace_back(name, counter->value());
  }
  return counters;
}

void Telemetry::EmitRegistrySnapshot() {
  if (!Enabled()) return;
  // Snapshot under the lock, emit outside it (Emit re-locks).
  std::vector<std::pair<std::string, int64_t>> counters = CounterValues();
  std::vector<std::pair<std::string, double>> gauges;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, gauge] : gauges_) {
      gauges.emplace_back(name, gauge->value());
    }
  }
  for (const auto& [name, value] : counters) {
    Emit(MetricRecord("counter").Add("name", name).Add("value", value));
  }
  for (const auto& [name, value] : gauges) {
    Emit(MetricRecord("gauge").Add("name", name).Add("value", value));
  }
}

bool InitTelemetryFromFlag(const std::string& metrics_out) {
  Telemetry& telemetry = Telemetry::Get();  // may self-enable from env
  if (!metrics_out.empty() && !telemetry.Enable(metrics_out)) {
    AUTOAC_LOG(Warning) << "--metrics_out: cannot open '" << metrics_out
                        << "' for writing";
    return false;
  }
  if (Telemetry::Enabled()) Profiler::Get().Enable();
  return Telemetry::Enabled();
}

void ShutdownTelemetry(bool print_profile_table) {
  Profiler& profiler = Profiler::Get();
  if (profiler.enabled()) {
    if (print_profile_table) {
      std::string table = profiler.SummaryTable();
      if (!table.empty()) {
        std::printf("\nprofile summary (wall time per scope):\n%s",
                    table.c_str());
      }
    }
    profiler.EmitJsonl(Telemetry::Get());
  }
  Telemetry::Get().EmitRegistrySnapshot();
  Telemetry::Get().Disable();
}

}  // namespace autoac

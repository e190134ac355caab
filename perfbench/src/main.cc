// The repository benchmark: one run is the whole AutoAC lifecycle on one
// seeded synthetic DBLP graph.
//
//   search_train   MakeDataset + MakeNodeTask + BuildModelContext (set-up),
//                  then RunAutoAc + FreezeTrainedRun + SaveFrozenModel.
//   serve_predict  the exported artifact served by autoac_serve (defaults),
//                  idle, light and heavy open-loop Poisson phases.
//   serve_mutate   the same artifact with --enable_mutations: reads at the
//                  light rate alongside a stream of graph deltas.
//
// Every answer is checked: predictions against InferenceSession::Predict,
// the post-delta probe set against a RefreezeWithGraph reference, the
// artifact's fingerprint on reload and the run's state digest across runs of
// the same seed. The last stdout line is the JSON result; README.md lists
// the metrics and the layer each per-layer metric maps to.
//
//   perfbench --workload=dblp-0.15 --seed=1 --seconds=20 --trace=0
//             --serve_bin=PATH --out_dir=DIR
#include <sys/prctl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "autoac/search.h"
#include "autoac/task.h"
#include "child.h"
#include "data/hgb_datasets.h"
#include "graph/mutable_graph.h"
#include "loadgen.h"
#include "models/model.h"
#include "serving/frozen_model.h"
#include "serving/inference_session.h"
#include "serving/mutable_session.h"
#include "serving/server.h"
#include "stats.h"
#include "tensor/tensor.h"
#include "util/parallel.h"
#include "util/profiler.h"
#include "util/telemetry.h"

namespace perfbench {
namespace {

using autoac::FrozenModel;
using autoac::InferenceSession;
using autoac::Mutation;

// ---- fixed benchmark settings ----------------------------------------------

struct Workload {
  const char* name;
  double scale;  // DatasetOptions::scale of the synthetic DBLP graph
};
// Two graph sizes: the same lifecycle on a Table I-shaped graph and on one a
// third of its size, so work that should scale with a delta rather than
// with the graph, or with the working set, shows as a change in the ratio.
constexpr Workload kWorkloads[] = {{"dblp-0.15", 0.15}, {"dblp-0.05", 0.05}};

constexpr int kSearchThreads = 4;
// The search_train stage always runs on the same graph and training seed.
// Its work depends on what the search finds: across dataset seeds the
// searched assignment and the number of distinct finalists (each a probe
// retrain) move the pipeline time by +-20%, far more than the bound a
// regression gate can use. A fixed seed makes the work identical on every
// run, so the state digest must repeat on every run in a checkout.
constexpr uint64_t kPipelineSeed = 1;
constexpr int64_t kTrainEpochs = 30;
constexpr int64_t kSearchEpochs = 10;
constexpr int kSetupRepeats = 5;
constexpr int kPipelineRepeats = 3;
constexpr int kConnections = 2;
// Light: far below max_batch per batch timeout (16 per 5 ms = 3200 rps), so
// batches fire on the timer. Heavy: fills batches while the server stays
// well under one core.
constexpr double kLightRps = 800.0;
constexpr double kHeavyRps = 3600.0;
constexpr double kDeltaRps = 7.5;
// Share of --seconds spent in each serving phase.
constexpr double kIdleShare = 0.05, kLightShare = 0.2, kHeavyShare = 0.15,
                 kMutateShare = 0.6;
constexpr int64_t kGraceUs = 15'000'000;  // answer deadline past a phase
constexpr int kProbeNodes = 96;
constexpr int kWindows = 6;  // per predict phase

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
std::chrono::steady_clock::time_point Now() {
  return std::chrono::steady_clock::now();
}

// ---- spans -----------------------------------------------------------------

// Spans recorded around the benchmark's calls into the program, kept in
// memory and written out when the run ends. Off in untraced runs.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Now()) {}
  int64_t Begin(const std::string& name, int64_t parent) {
    if (!on_) return -1;
    spans_.push_back({name, parent, -1, NowUs(), -1});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_us = NowUs();
  }
  // A span whose times were measured elsewhere (one per served request).
  void Add(const std::string& name, int64_t parent, int64_t request,
           int64_t start_us, int64_t end_us) {
    if (on_) spans_.push_back({name, parent, request, start_us, end_us});
  }
  int64_t NowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Now() -
                                                                 origin_)
        .count();
  }
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"span\":%zu,\"name\":\"%s\",\"parent\":%lld,"
                   "\"request\":%lld,\"start_us\":%lld,\"end_us\":%lld}\n",
                   i, s.name.c_str(), static_cast<long long>(s.parent),
                   static_cast<long long>(s.request),
                   static_cast<long long>(s.start_us),
                   static_cast<long long>(s.end_us));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int64_t parent;
    int64_t request;
    int64_t start_us;
    int64_t end_us;
  };
  bool on_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(Tracer& t, const std::string& name, int64_t parent)
      : tracer_(t), id_(t.Begin(name, parent)) {}
  ~SpanScope() { tracer_.End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int64_t id_;
};

// ---- results ---------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct PhaseReport {
  std::string name;
  FailureCounts counts;
  std::string note;  // human-readable latency summary
};

struct Lifecycle {
  Metrics e2e;
  Metrics layer;
  std::vector<PhaseReport> phases;
  std::vector<std::string> problems;  // failed checks, in words
  FailureCounts Total() const {
    FailureCounts t;
    for (const PhaseReport& p : phases) {
      t.attempted += p.counts.attempted;
      t.error += p.counts.error;
      t.rejected += p.counts.rejected;
      t.wrong += p.counts.wrong;
      t.lost += p.counts.lost;
    }
    return t;
  }
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string serve_bin;
  std::string out_dir;
};

// Per-phase measurements the traced run turns into per-layer metrics.
struct PhaseTrace {
  std::vector<double> server_us;     // latency_us of each answered request
  std::vector<double> transport_us;  // client latency minus server latency
  std::vector<double> lag_us;        // sent minus scheduled
  double achieved_rps = 0.0;
  std::vector<double> batch_sizes;   // serve_batch sizes in the phase
  std::vector<double> occupancy;     // serve_batch size / capacity
  std::vector<double> queue_depths;  // serve_batch queue depths
};

// ---- helpers ---------------------------------------------------------------

// CPU time of this process (all threads), in seconds.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int64_t FileSize(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size) : 0;
}

// Lines of a telemetry JSONL file whose "type" is `type`.
std::vector<std::string> RecordsOfType(const std::string& text,
                                       const std::string& type) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  std::string tag = "\"type\":\"" + type + "\"";
  while (std::getline(in, line)) {
    if (line.find(tag) != std::string::npos) out.push_back(line);
  }
  return out;
}

std::string HostCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        for (char& c : m) {
          if (c == '"' || c == '\\') c = ' ';
        }
        return m;
      }
    }
  }
  return "unknown";
}

std::string RequestLine(size_t id, int64_t node) {
  return "{\"id\":\"" + std::to_string(id) + "\",\"node\":" +
         std::to_string(node) + "}\n";
}

// Open-loop predict schedule: Poisson arrivals, uniform target node ids,
// requests alternating over the connections.
std::vector<Request> PredictSchedule(uint64_t seed, double rps,
                                     int64_t duration_us, int64_t targets,
                                     std::vector<int64_t>* nodes) {
  std::vector<int64_t> due = PoissonArrivals(seed, rps, duration_us);
  SplitMix pick(StreamSeed(seed, 1));
  std::vector<Request> reqs(due.size());
  nodes->resize(due.size());
  for (size_t i = 0; i < due.size(); ++i) {
    (*nodes)[i] = pick.Below(targets);
    reqs[i] = {due[i], static_cast<int>(i % kConnections),
               RequestLine(i, (*nodes)[i])};
  }
  return reqs;
}

std::vector<int> ConnectAll(const std::string& socket_path) {
  std::vector<int> fds;
  for (int i = 0; i < kConnections; ++i) {
    int fd = ConnectUnix(socket_path);
    if (fd < 0) break;
    fds.push_back(fd);
  }
  return fds;
}

void CloseAll(std::vector<int>& fds) {
  for (int fd : fds) close(fd);
  fds.clear();
}

// Reads serve_batch records appended to the server's metrics file between
// two byte offsets.
void BatchRecords(const std::string& path, int64_t from, int64_t to,
                  PhaseTrace* trace) {
  std::string text = ReadFile(path);
  if (to > static_cast<int64_t>(text.size())) to = text.size();
  if (from >= to) return;
  for (const std::string& line :
       RecordsOfType(text.substr(from, to - from), "serve_batch")) {
    double size = 0, occupancy = 0, depth = 0;
    if (JsonNumber(line, "size", &size)) trace->batch_sizes.push_back(size);
    if (JsonNumber(line, "occupancy", &occupancy)) {
      trace->occupancy.push_back(occupancy);
    }
    if (JsonNumber(line, "queue_depth", &depth)) {
      trace->queue_depths.push_back(depth);
    }
  }
}

// Checks every label of one predict window against the in-process
// reference and collects its latencies.
FailureCounts EvaluatePredict(const std::vector<Request>& reqs,
                              const std::vector<int64_t>& nodes,
                              const DriveResult& drive,
                              const std::vector<int64_t>& expected,
                              std::vector<double>* client_us,
                              PhaseTrace* trace, Tracer& tracer,
                              int64_t parent_span, int64_t origin_us,
                              int64_t id_base) {
  FailureCounts counts;
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Reply& r = drive.replies[i];
    double label = -1, server = -1;
    bool ok = r.done_us >= 0 && JsonNumber(r.line, "label", &label) &&
              JsonNumber(r.line, "latency_us", &server) &&
              static_cast<int64_t>(label) == expected[nodes[i]];
    Outcome outcome = Classify(r, ok);
    counts.Add(outcome);
    if (r.sent_us >= 0) {
      trace->lag_us.push_back(static_cast<double>(r.sent_us - reqs[i].due_us));
    }
    if (outcome != Outcome::kOk) continue;
    double client = static_cast<double>(r.done_us - reqs[i].due_us);
    client_us->push_back(client);
    trace->server_us.push_back(server);
    trace->transport_us.push_back(client - server);
    tracer.Add("request", parent_span, id_base + static_cast<int64_t>(i),
               origin_us + reqs[i].due_us, origin_us + r.done_us);
  }
  return counts;
}

// Tracks the digests of earlier runs in this checkout, so a repeated seed
// must reproduce its state digest bitwise.
bool CheckDigest(const std::string& path, const std::string& workload,
                 uint64_t seed, uint64_t digest, bool* compared) {
  std::string key = workload + " " + std::to_string(seed) + " ";
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  std::ifstream in(path);
  std::string line;
  *compared = false;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      *compared = true;
      return line.substr(key.size()) == hex;
    }
  }
  std::ofstream out(path, std::ios::app);
  out << key << hex << "\n";
  return true;
}

// ---- the lifecycle ---------------------------------------------------------

class Runner {
 public:
  Runner(const Args& args, const Workload& w, bool traced)
      : args_(args), w_(w), traced_(traced), tracer_(traced) {
    const std::string tag = std::string(w.name) + "-seed" +
                            std::to_string(args.seed) +
                            (traced ? "-traced" : "");
    artifact_ = args.out_dir + "/model-" + tag + ".aacm";
    socket_ = args.out_dir + "/s" + std::to_string(getpid()) + ".sock";
    log_ = args.out_dir + "/serve-" + tag + ".log";
    bench_metrics_ = args.out_dir + "/telemetry-bench-" + tag + ".jsonl";
    serve_metrics_ = args.out_dir + "/telemetry-serve-" + tag + ".jsonl";
    spans_ = args.out_dir + "/spans-" + tag + ".jsonl";
  }

  Lifecycle Run() {
    int64_t root = tracer_.Begin("lifecycle", -1);
    if (traced_) {
      autoac::Telemetry::Get().Enable(bench_metrics_);
      autoac::Profiler::Get().Reset();
      autoac::Profiler::Get().Enable();
    }
    bool trained = SearchTrain(root);
    if (traced_) {
      autoac::Profiler::Get().Disable();
      autoac::Telemetry::Get().Disable();
    }
    if (trained) {
      ServePredict(root);
      ServeMutate(root);
      if (traced_) ReplayLayers(root);
    }
    tracer_.End(root);
    if (traced_ && !tracer_.Write(spans_)) {
      out_.problems.push_back("cannot write spans to " + spans_);
    }
    std::remove(artifact_.c_str());
    return std::move(out_);
  }

 private:
  // Names the workload and every setting that determines the trajectory.
  std::string DigestKey() const {
    return std::string(w_.name) + "/e" + std::to_string(kTrainEpochs) + "/s" +
           std::to_string(kSearchEpochs);
  }

  void E2e(const std::string& name, double v, const std::string& unit) {
    out_.e2e[name] = {v, unit};
  }
  void Layer(const std::string& name, double v, const std::string& unit) {
    out_.layer[name] = {v, unit};
  }
  void Check(bool ok, PhaseReport* phase, const std::string& what) {
    phase->counts.Add(ok ? Outcome::kOk : Outcome::kWrong);
    if (!ok) out_.problems.push_back(what);
  }

  bool SearchTrain(int64_t root) {
    SpanScope stage(tracer_, "search_train", root);
    autoac::SetNumThreads(kSearchThreads);
    PhaseReport phase{"search_train", {}, ""};
    autoac::DatasetOptions options;
    options.scale = w_.scale;
    options.seed = kPipelineSeed;
    std::vector<double> setup, data_s, context_s;
    for (int i = 0; i < kSetupRepeats; ++i) {
      auto t0 = Now();
      {
        SpanScope s(tracer_, "MakeDataset", stage.id());
        dataset_ = autoac::MakeDataset("dblp", options);
      }
      auto t1 = Now();
      {
        SpanScope s(tracer_, "MakeNodeTask", stage.id());
        task_ = autoac::MakeNodeTask(dataset_);
      }
      {
        SpanScope s(tracer_, "BuildModelContext", stage.id());
        ctx_ = autoac::BuildModelContext(task_.graph);
      }
      auto t2 = Now();
      data_s.push_back(Seconds(t0, t1));
      context_s.push_back(Seconds(t1, t2));
      setup.push_back(Seconds(t0, t2));
    }
    data_setup_s_ = Median(setup);
    Layer("data.make_dataset_s", Median(data_s), "s");
    Layer("autoac.context_s", Median(context_s), "s");

    autoac::ExperimentConfig config;
    config.train_epochs = kTrainEpochs;
    config.search_epochs = kSearchEpochs;
    config.seed = kPipelineSeed;
    config.capture_final_params = true;
    // An untraced run repeats the identical pipeline and reports the median
    // time; every repeat must reproduce the same digest and fingerprint. A
    // --trace 1 run times one pipeline in each of its two lifecycles, which
    // keeps it inside the run time limit; the traced one's digest is checked
    // against the untraced one's.
    const int repeats = args_.trace ? 1 : kPipelineRepeats;
    std::vector<double> pipeline_times, pipeline_cpu;
    autoac::RunResult run;
    uint64_t stored_fp = 0;
    int64_t buffers = 0;
    double export_ms = 0;
    for (int r = 0; r < repeats; ++r) {
      const int64_t buffers0 = autoac::TensorBuffersAllocated();
      const double cpu0 = ProcessCpuSeconds();
      auto t0 = Now();
      autoac::RunResult this_run;
      {
        SpanScope s(tracer_, "RunAutoAc", stage.id());
        this_run = autoac::RunAutoAc(task_, ctx_, config);
      }
      auto t1 = Now();
      buffers = autoac::TensorBuffersAllocated() - buffers0;
      if (this_run.interrupted || this_run.out_of_memory) {
        Check(false, &phase, "RunAutoAc did not complete");
        out_.phases.push_back(phase);
        return false;
      }
      uint64_t fp = 0;
      bool exported = false;
      {
        SpanScope s(tracer_, "FreezeTrainedRun+SaveFrozenModel", stage.id());
        auto frozen = autoac::FreezeTrainedRun(task_, ctx_, config, this_run);
        if (frozen.ok()) {
          autoac::FrozenSaveOptions save;
          save.stored_fingerprint = &fp;
          exported =
              autoac::SaveFrozenModel(frozen.value(), artifact_, save).ok();
        }
      }
      auto t2 = Now();
      Check(exported, &phase, "export failed");
      if (!exported) {
        out_.phases.push_back(phase);
        return false;
      }
      pipeline_times.push_back(Seconds(t0, t2));
      pipeline_cpu.push_back(ProcessCpuSeconds() - cpu0);
      export_ms = Seconds(t1, t2) * 1e3;
      if (r > 0) {
        Check(this_run.state_digest == run.state_digest && fp == stored_fp,
              &phase, "a repeated pipeline gave another digest or fingerprint");
      }
      run = std::move(this_run);
      stored_fp = fp;
    }
    const double kernel_ms = traced_ ? KernelLayers("kernel.", kKernelScopes) : 0;
    const double pipeline_s = Median(pipeline_times);
    E2e("pipeline_s", pipeline_s, "s");
    E2e("pipeline_cpu_s", Median(pipeline_cpu), "s");
    E2e("test_macro_f1", run.test.macro_f1 * 100.0, "%");
    bench_rss_mb_ = VmHwmMb("self");

    {
      SpanScope s(tracer_, "LoadFrozenModel", stage.id());
      auto loaded = autoac::LoadFrozenModel(artifact_);
      Check(loaded.ok() && loaded.value().fingerprint == stored_fp, &phase,
            "artifact does not reload with its printed fingerprint");
      if (!loaded.ok()) {
        out_.phases.push_back(phase);
        return false;
      }
      frozen_ = std::make_unique<FrozenModel>(loaded.TakeValue());
    }
    bool compared = false;
    bool same = CheckDigest(args_.out_dir + "/digests.txt", DigestKey(),
                            kPipelineSeed, run.state_digest, &compared);
    if (compared) Check(same, &phase, "state digest differs from an earlier run");
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(run.state_digest));
    std::string times;
    for (double t : pipeline_times) times += " " + Fmt("%.2f", t);
    phase.note = "pipeline median " + Fmt("%.3f", pipeline_s) + " s of" +
                 times + " s (last: search " +
                 Fmt("%.2f", run.times.search_seconds) + " s, train " +
                 Fmt("%.2f", run.times.train_seconds) + " s), macro-F1 " +
                 Fmt("%.2f", run.test.macro_f1 * 100) + ", digest " + digest +
                 (compared ? (same ? " (repeats)" : " (DIFFERS)") : " (new)");
    out_.phases.push_back(phase);

    if (traced_) {
      Layer("autoac.search_s", run.times.search_seconds, "s");
      Layer("autoac.train_s", run.times.train_seconds, "s");
      Layer("serving.export_ms", export_ms, "ms");
      Layer("tensor.buffers_allocated", static_cast<double>(buffers), "count");
      std::string text = ReadFile(bench_metrics_);
      double epochs_run = 0;
      for (const std::string& line : RecordsOfType(text, "train_run")) {
        double e = 0;
        if (JsonNumber(line, "epochs_run", &e)) epochs_run += e;
      }
      double search_epochs =
          static_cast<double>(RecordsOfType(text, "search_epoch").size());
      Layer("autoac.train_epochs_run", epochs_run, "count");
      Layer("autoac.search_epoch_ms",
            search_epochs > 0 ? run.times.search_seconds * 1e3 / search_epochs
                              : 0.0,
            "ms");
      Layer("autoac.train_epoch_ms",
            epochs_run > 0 ? run.times.train_seconds * 1e3 / epochs_run : 0.0,
            "ms");
      Layer("kernel.attributed_frac", kernel_ms / (pipeline_s * 1e3), "ratio");
    }
    return true;
  }

  // Reports the profiler's time and calls for each of `scopes` under
  // `prefix`; returns their total milliseconds.
  template <size_t N>
  double KernelLayers(const std::string& prefix,
                      const char* const (&scopes)[N]) {
    std::map<std::string, const autoac::ProfileEntry*> active;
    for (const autoac::ProfileEntry* e :
         autoac::Profiler::Get().ActiveEntries()) {
      active[e->name] = e;
    }
    double total_ms = 0;
    for (const char* scope : scopes) {
      auto it = active.find(scope);
      double ms = it == active.end() ? 0.0 : it->second->total_ns.load() / 1e6;
      double calls = it == active.end() ? 0.0 : it->second->calls.load();
      total_ms += ms;
      Layer(prefix + scope + ".ms", ms, "ms");
      Layer(prefix + scope + ".calls", calls, "count");
    }
    return total_ms;
  }

  // Spawns the server kSetupRepeats times (keeping the last one) and
  // returns the median spawn-to-accept time.
  bool StartServer(ServerChild& child, const std::vector<std::string>& extra,
                   int repeats, double* ready_median, int64_t parent) {
    std::vector<std::string> argv = {args_.serve_bin, "--model=" + artifact_,
                                     "--socket=" + socket_};
    argv.insert(argv.end(), extra.begin(), extra.end());
    if (traced_) argv.push_back("--metrics_out=" + serve_metrics_);
    std::vector<double> ready;
    for (int i = 0; i < repeats; ++i) {
      SpanScope s(tracer_, "spawn_to_accept", parent);
      double r = 0;
      if (!child.Start(argv, log_, socket_, 60.0, &r)) return false;
      ready.push_back(r);
      if (i + 1 < repeats && !child.Stop()) return false;
    }
    *ready_median = Median(ready);
    return true;
  }

  void ServePredict(int64_t root) {
    SpanScope stage(tracer_, "serve_predict", root);
    PhaseReport setup{"serve_predict.setup", {}, ""};
    std::vector<int64_t> expected;
    {
      SpanScope s(tracer_, "InferenceSession(reference)", stage.id());
      InferenceSession reference(*frozen_);
      for (int64_t n = 0; n < reference.num_targets(); ++n) {
        auto p = reference.Predict(n);
        expected.push_back(p.ok() ? p.value().label : -1);
      }
    }
    ServerChild child;
    double ready_s = 0;
    bool started = StartServer(child, {}, kSetupRepeats, &ready_s, stage.id());
    Check(started, &setup, "autoac_serve did not start (see " + log_ + ")");
    out_.phases.push_back(setup);
    if (!started) return;
    E2e("setup_s", data_setup_s_ + ready_s, "s");
    Layer("setup.serve_accept_s", ready_s, "s");

    // Idle: no connections; the server's own CPU use.
    const double idle_s = kIdleShare * args_.seconds;
    int64_t cpu0 = child.CpuNs();
    std::this_thread::sleep_for(std::chrono::duration<double>(idle_s));
    int64_t cpu1 = child.CpuNs();
    Layer("server.idle_cpu_ms_per_s", (cpu1 - cpu0) / 1e6 / idle_s, "ms/s");

    std::vector<int> fds = ConnectAll(socket_);
    const int64_t targets = static_cast<int64_t>(expected.size());
    struct Spec {
      const char* name;
      double rps;
      double share;
      uint64_t salt;
    };
    for (const Spec& spec : {Spec{"light", kLightRps, kLightShare, 0x11},
                             Spec{"heavy", kHeavyRps, kHeavyShare, 0x22}}) {
      SpanScope phase_span(tracer_, std::string("phase.") + spec.name,
                           stage.id());
      // The phase runs as kWindows back-to-back windows, each with its own
      // seeded schedule; the latency and CPU metrics are medians over the
      // windows, so one burst of host noise moves one window, not the result.
      const double seconds = spec.share * args_.seconds;
      const int64_t window_us =
          static_cast<int64_t>(seconds * 1e6 / kWindows);
      PhaseReport report{std::string("serve_predict.") + spec.name, {}, ""};
      PhaseTrace trace;
      std::vector<double> all_client, p50s, p99s, cpus;
      const int64_t from = FileSize(serve_metrics_);
      for (int w = 0; w < kWindows; ++w) {
        std::vector<int64_t> nodes;
        std::vector<Request> reqs = PredictSchedule(
            StreamSeed(args_.seed, spec.salt + 0x100 * w),
            spec.rps, window_us, targets, &nodes);
        if (spec.rps == kHeavyRps) {
          heavy_nodes_.insert(heavy_nodes_.end(), nodes.begin(), nodes.end());
        }
        const int64_t c0 = child.CpuNs();
        const int64_t origin_us = tracer_.NowUs();
        DriveResult drive;
        if (fds.size() == kConnections) {
          drive = Drive(fds, reqs, window_us + kGraceUs);
        } else {
          drive.replies.resize(reqs.size());
        }
        const int64_t c1 = child.CpuNs();
        std::vector<double> client;
        FailureCounts counts = EvaluatePredict(reqs, nodes, drive, expected,
                                               &client, &trace, tracer_,
                                               phase_span.id(), origin_us,
                                               report.counts.attempted);
        const int64_t answered = counts.attempted - counts.failed();
        report.counts.attempted += counts.attempted;
        report.counts.error += counts.error;
        report.counts.rejected += counts.rejected;
        report.counts.wrong += counts.wrong;
        report.counts.lost += counts.lost;
        p50s.push_back(Median(client));
        p99s.push_back(TailPercentile(client, 99.0).value);
        cpus.push_back(answered > 0 ? (c1 - c0) / 1e3 / answered : 0.0);
        all_client.insert(all_client.end(), client.begin(), client.end());
        if (drive.hit_deadline) report.note += "(deadline hit) ";
      }
      trace.achieved_rps =
          static_cast<double>(trace.lag_us.size()) / seconds;
      const std::string p = spec.name;
      E2e(p + "_p50_us", Median(p50s), "us");
      E2e(p + "_p99_us", Median(p99s), "us");
      E2e(p + "_cpu_us_per_req", Median(cpus), "us");
      Tail tail = TailPercentile(all_client, 99.0);
      report.note +=
          "window medians p50 " + Fmt("%.0f", Median(p50s)) + " us, p" +
          Fmt("%.4g", tail.percentile) + " " + Fmt("%.0f", Median(p99s)) +
          " us over " + std::to_string(tail.samples / kWindows) +
          " answers per window; lag p50 " + Fmt("%.0f", Median(trace.lag_us)) +
          " p99 " + Fmt("%.0f", TailPercentile(trace.lag_us, 99).value) +
          " us";
      // The generator's own lateness must stay small next to what it
      // measures; otherwise the phase measured the generator.
      if (TailPercentile(trace.lag_us, 99).value > 0.5 * Median(p50s)) {
        report.note += " [generator lag over half of p50: phase suspect]";
      }
      if (traced_) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        BatchRecords(serve_metrics_, from, FileSize(serve_metrics_), &trace);
        TraceLayers(p, trace);
        if (spec.rps == kHeavyRps) {
          heavy_mean_batch_ = trace.batch_sizes.empty()
                                  ? 1.0
                                  : std::max(1.0, Mean(trace.batch_sizes));
        }
      }
      out_.phases.push_back(report);
    }
    CloseAll(fds);
    predict_rss_mb_ = child.PeakRssMb();
    PhaseReport stop{"serve_predict.shutdown", {}, ""};
    Check(child.Stop(), &stop, "autoac_serve did not exit cleanly");
    out_.phases.push_back(stop);
  }

  static double Mean(const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  }

  void TraceLayers(const std::string& p, const PhaseTrace& t) {
    Layer("server.latency_p50_us." + p, Median(t.server_us), "us");
    Layer("server.latency_p99_us." + p, TailPercentile(t.server_us, 99).value,
          "us");
    Layer("server.transport_p50_us." + p, Median(t.transport_us), "us");
    Layer("server.transport_p99_us." + p,
          TailPercentile(t.transport_us, 99).value, "us");
    Layer("server.batch_occupancy." + p, Mean(t.occupancy), "ratio");
    Layer("server.queue_depth_p99." + p,
          TailPercentile(t.queue_depths, 99).value, "count");
    Layer("gen.lag_p99_us." + p, TailPercentile(t.lag_us, 99).value, "us");
    Layer("gen.achieved_rps." + p, t.achieved_rps, "1/s");
  }

  // The delta stream: add_node author, add_edge paper-author between
  // existing nodes, and remove_edge of edges the stream itself added.
  struct Delta {
    int64_t due_us;
    std::string line;         // without id; completed when scheduled
    Mutation mutation;        // parsed back through ParseServeRequestLine
    int64_t expect_node = -1;  // add_node: the local id it must get
  };

  std::vector<Delta> DeltaStream(int64_t duration_us, autoac::MutableGraph* g,
                                 std::vector<int64_t>* touched) {
    std::vector<int64_t> due = PoissonArrivals(
        StreamSeed(args_.seed, 0x33), kDeltaRps, duration_us);
    SplitMix rng(StreamSeed(args_.seed, 0x44));
    const int64_t author = g->NodeTypeIdOf("author").value();
    const int64_t paper = g->NodeTypeIdOf("paper").value();
    const int64_t pa = g->EdgeTypeIdOf("paper-author").value();
    std::vector<std::pair<int64_t, int64_t>> added;
    std::vector<Delta> out;
    for (int64_t d : due) {
      Delta delta{d, "", {}, -1};
      // A fixed cycle of kinds (3 add_node, 5 add_edge, 2 remove_edge per
      // ten deltas) keeps the mix identical across seeds.
      const int kind = static_cast<int>(out.size() % 10);
      std::string body;
      if (kind == 0 || kind == 4 || kind == 7) {
        body = "\"op\":\"add_node\",\"type\":\"author\"";
        delta.expect_node = g->node_count(author);
        touched->push_back(delta.expect_node);
      } else {
        bool remove = (kind == 5 || kind == 9) && !added.empty();
        int64_t src = 0, dst = 0;
        if (remove) {
          size_t k = static_cast<size_t>(rng.Below(added.size()));
          std::tie(src, dst) = added[k];
          added.erase(added.begin() + k);
        } else {
          src = rng.Below(g->node_count(paper));
          dst = rng.Below(g->node_count(author));
          added.emplace_back(src, dst);
        }
        touched->push_back(dst);
        body = std::string("\"op\":\"") + (remove ? "remove_edge" : "add_edge") +
               "\",\"edge\":\"paper-author\",\"src\":" + std::to_string(src) +
               ",\"dst\":" + std::to_string(dst);
      }
      delta.line = body;
      autoac::ServeRequest parsed;
      std::string error;
      if (!autoac::ParseServeRequestLine("{" + body + "}", &parsed, &error) ||
          !parsed.is_mutation) {
        out_.problems.push_back("delta does not parse: " + error);
        continue;
      }
      delta.mutation = parsed.mutation;
      autoac::Status applied;
      const Mutation& m = delta.mutation;
      if (m.kind == Mutation::Kind::kAddNode) {
        applied = g->AddNode(author, {}).status();
      } else if (m.kind == Mutation::Kind::kAddEdge) {
        applied = g->AddEdge(pa, m.src, m.dst);
      } else {
        applied = g->RemoveEdge(pa, m.src, m.dst);
      }
      if (!applied.ok()) {
        out_.problems.push_back("reference replica rejects a delta: " +
                                applied.message());
        continue;
      }
      out.push_back(std::move(delta));
    }
    return out;
  }

  void ServeMutate(int64_t root) {
    SpanScope stage(tracer_, "serve_mutate", root);
    PhaseReport setup{"serve_mutate.setup", {}, ""};
    const double seconds = kMutateShare * args_.seconds;
    const int64_t duration_us = static_cast<int64_t>(seconds * 1e6);
    autoac::MutableGraph replica(frozen_->graph);
    std::vector<int64_t> touched;
    deltas_ = DeltaStream(duration_us, &replica, &touched);
    const int64_t targets = frozen_->graph->node_type(
        frozen_->graph->target_node_type()).count;

    // Requests: reads on both connections, deltas in order on connection 0
    // so the server applies them in stream order.
    std::vector<int64_t> read_due = PoissonArrivals(
        StreamSeed(args_.seed, 0x55), kLightRps, duration_us);
    SplitMix pick(StreamSeed(args_.seed, 0x66));
    struct Item {
      int64_t due;
      int delta;  // index into deltas_, or -1 for a read
      int64_t node;
    };
    std::vector<Item> items;
    for (size_t i = 0; i < deltas_.size(); ++i) {
      items.push_back({deltas_[i].due_us, static_cast<int>(i), -1});
    }
    for (int64_t d : read_due) items.push_back({d, -1, pick.Below(targets)});
    std::stable_sort(items.begin(), items.end(),
                     [](const Item& a, const Item& b) { return a.due < b.due; });
    std::vector<Request> reqs(items.size());
    int reads = 0;
    for (size_t i = 0; i < items.size(); ++i) {
      const Item& it = items[i];
      if (it.delta >= 0) {
        reqs[i] = {it.due, 0,
                   "{\"id\":\"" + std::to_string(i) + "\"," +
                       deltas_[static_cast<size_t>(it.delta)].line + "}\n"};
      } else {
        reqs[i] = {it.due, reads++ % kConnections, RequestLine(i, it.node)};
      }
    }

    ServerChild child;
    double ready_s = 0;
    bool started =
        StartServer(child, {"--enable_mutations"}, 1, &ready_s, stage.id());
    Check(started, &setup, "autoac_serve --enable_mutations did not start");
    out_.phases.push_back(setup);
    if (!started) return;
    Layer("setup.mutate_accept_s", ready_s, "s");
    std::vector<int> fds = ConnectAll(socket_);
    DriveResult drive;
    int64_t mutate_cpu_ns = 0;
    {
      SpanScope s(tracer_, "phase.mutate", stage.id());
      const int64_t origin_us = tracer_.NowUs();
      if (fds.size() == kConnections) {
        const int64_t c0 = child.CpuNs();
        drive = Drive(fds, reqs, duration_us + kGraceUs);
        mutate_cpu_ns = child.CpuNs() - c0;
      } else {
        drive.replies.resize(reqs.size());
      }
      PhaseReport dreport{"serve_mutate.deltas", {}, ""};
      PhaseReport rreport{"serve_mutate.reads", {}, ""};
      std::vector<double> mutate_us, read_us, lag_us;
      int64_t sent = 0;
      for (size_t i = 0; i < items.size(); ++i) {
        const Reply& r = drive.replies[i];
        if (r.sent_us >= 0) {
          ++sent;
          lag_us.push_back(static_cast<double>(r.sent_us - reqs[i].due_us));
        }
        bool ok = false;
        if (items[i].delta >= 0) {
          const Delta& d = deltas_[static_cast<size_t>(items[i].delta)];
          std::string applied;
          double node = -1;
          ok = JsonString(r.line, "applied", &applied) &&
               JsonNumber(r.line, "node", &node) &&
               applied == MutationName(d.mutation.kind) &&
               static_cast<int64_t>(node) == d.expect_node;
          Outcome o = Classify(r, ok);
          dreport.counts.Add(o);
          if (o == Outcome::kOk) {
            mutate_us.push_back(static_cast<double>(r.done_us - reqs[i].due_us));
            tracer_.Add("delta", s.id(), static_cast<int64_t>(i),
                        origin_us + reqs[i].due_us, origin_us + r.done_us);
          }
        } else {
          double label = -1;
          ok = JsonNumber(r.line, "label", &label) && label >= 0 &&
               label < static_cast<double>(frozen_->num_classes);
          Outcome o = Classify(r, ok);
          rreport.counts.Add(o);
          if (o == Outcome::kOk) {
            read_us.push_back(static_cast<double>(r.done_us - reqs[i].due_us));
            tracer_.Add("request", s.id(), static_cast<int64_t>(i),
                        origin_us + reqs[i].due_us, origin_us + r.done_us);
          }
        }
      }
      Tail mtail = TailPercentile(mutate_us, 90.0);
      Tail rtail = TailPercentile(read_us, 99.0);
      E2e("mutate_p50_us", Median(mutate_us), "us");
      E2e("mutate_p90_us", mtail.value, "us");
      E2e("mutate_cpu_ms_per_delta",
          mutate_us.empty() ? 0.0 : mutate_cpu_ns / 1e6 / mutate_us.size(),
          "ms");
      E2e("read_p50_us", Median(read_us), "us");
      E2e("read_p99_us", rtail.value, "us");
      dreport.note = "p50 " + Fmt("%.0f", Median(mutate_us)) + " us, p" +
                     Fmt("%.4g", mtail.percentile) + " " +
                     Fmt("%.0f", mtail.value) + " us over " +
                     std::to_string(mtail.samples) + " acks";
      rreport.note = "p50 " + Fmt("%.0f", Median(read_us)) + " us, p" +
                     Fmt("%.4g", rtail.percentile) + " " +
                     Fmt("%.0f", rtail.value) + " us over " +
                     std::to_string(rtail.samples) + " answers";
      if (drive.hit_deadline) dreport.note += " (deadline hit)";
      out_.phases.push_back(dreport);
      out_.phases.push_back(rreport);
      if (traced_) {
        Layer("gen.lag_p99_us.mutate", TailPercentile(lag_us, 99).value, "us");
        Layer("gen.achieved_rps.mutate", sent / seconds, "1/s");
      }
    }

    // Quiesced: every delta is acknowledged. The served answers for a probe
    // set must equal a from-scratch re-export of the mutated graph.
    PhaseReport probe{"serve_mutate.probe", {}, ""};
    std::vector<int64_t> probe_nodes;
    SplitMix probe_pick(StreamSeed(args_.seed, 0x77));
    for (int i = 0; i < kProbeNodes; ++i) {
      probe_nodes.push_back(probe_pick.Below(targets));
    }
    for (size_t i = 0; i < touched.size() && i < kProbeNodes; ++i) {
      probe_nodes.push_back(touched[touched.size() - 1 - i]);
    }
    std::vector<std::string> expected(probe_nodes.size());
    {
      SpanScope s(tracer_, "RefreezeWithGraph(reference)", stage.id());
      autoac::HeteroGraphPtr mutated = replica.Compact();
      auto op_of = autoac::ExtendOpAssignment(*frozen_, *mutated);
      auto refrozen = autoac::RefreezeWithGraph(*frozen_, mutated, op_of);
      if (refrozen.ok()) {
        InferenceSession reference(refrozen.TakeValue());
        for (size_t i = 0; i < probe_nodes.size(); ++i) {
          auto p = reference.Predict(probe_nodes[i]);
          if (p.ok()) {
            expected[i] = autoac::FormatServeResponse("", p.value(), 0);
          }
        }
      } else {
        out_.problems.push_back("RefreezeWithGraph failed: " +
                                refrozen.status().message());
      }
    }
    std::vector<Request> preqs(probe_nodes.size());
    for (size_t i = 0; i < probe_nodes.size(); ++i) {
      preqs[i] = {0, static_cast<int>(i % kConnections),
                  RequestLine(i, probe_nodes[i])};
    }
    DriveResult pdrive;
    if (fds.size() == kConnections) {
      pdrive = Drive(fds, preqs, kGraceUs);
    } else {
      pdrive.replies.resize(preqs.size());
    }
    for (size_t i = 0; i < preqs.size(); ++i) {
      double got_label = -1, got_score = 0, want_label = -2, want_score = 1;
      bool ok = JsonNumber(pdrive.replies[i].line, "label", &got_label) &&
                JsonNumber(pdrive.replies[i].line, "score", &got_score) &&
                JsonNumber(expected[i], "label", &want_label) &&
                JsonNumber(expected[i], "score", &want_score) &&
                got_label == want_label && got_score == want_score;
      probe.counts.Add(Classify(pdrive.replies[i], ok));
    }
    if (probe.counts.failed() > 0) {
      out_.problems.push_back("served answers after the deltas differ from "
                              "the RefreezeWithGraph reference");
    }
    out_.phases.push_back(probe);
    CloseAll(fds);
    mutate_rss_mb_ = child.PeakRssMb();
    PhaseReport stop{"serve_mutate.shutdown", {}, ""};
    Check(child.Stop(), &stop, "autoac_serve did not exit cleanly");
    out_.phases.push_back(stop);
    E2e("peak_rss_mb",
        bench_rss_mb_ + std::max(predict_rss_mb_, mutate_rss_mb_), "MiB");
    Layer("rss.bench_mb", bench_rss_mb_, "MiB");
    Layer("rss.serve_predict_mb", predict_rss_mb_, "MiB");
    Layer("rss.serve_mutate_mb", mutate_rss_mb_, "MiB");
  }

  static const char* MutationName(Mutation::Kind k) {
    switch (k) {
      case Mutation::Kind::kAddNode:
        return "add_node";
      case Mutation::Kind::kAddEdge:
        return "add_edge";
      case Mutation::Kind::kRemoveEdge:
        return "remove_edge";
    }
    return "";
  }

  // Times single layers in-process on the run's own seeded inputs, after
  // the served phases so they do not disturb them.
  void ReplayLayers(int64_t root) {
    SpanScope stage(tracer_, "layer_replay", root);
    // The server runs its pool at the binary's default thread count.
    autoac::SetNumThreads(0);
    autoac::Profiler::Get().Reset();
    autoac::Profiler::Get().Enable();
    std::vector<double> load_ms, build_ms;
    std::unique_ptr<InferenceSession> session;
    for (int i = 0; i < kSetupRepeats; ++i) {
      auto t0 = Now();
      auto loaded = autoac::LoadFrozenModel(artifact_);
      auto t1 = Now();
      if (!loaded.ok()) {
        out_.problems.push_back("layer replay cannot reload the artifact");
        autoac::Profiler::Get().Disable();
        autoac::SetNumThreads(kSearchThreads);
        return;
      }
      session = std::make_unique<InferenceSession>(loaded.TakeValue());
      auto t2 = Now();
      load_ms.push_back(Seconds(t0, t1) * 1e3);
      build_ms.push_back(Seconds(t1, t2) * 1e3);
    }
    Layer("serving.load_ms", Median(load_ms), "ms");
    Layer("compiler.session_build_ms", Median(build_ms), "ms");
    Layer("serving.artifact_bytes", static_cast<double>(FileSize(artifact_)),
          "bytes");
    std::vector<double> recompute;
    for (int i = 0; i < 5; ++i) {
      SpanScope s(tracer_, "RecomputeLogits", stage.id());
      auto t0 = Now();
      session->RecomputeLogits();
      recompute.push_back(Seconds(t0, Now()) * 1e3);
    }
    Layer("compiler.recompute_logits_ms", Median(recompute), "ms");

    // Predict / PredictBatch / parse / format over the heavy phase's ids.
    std::vector<int64_t> ids = heavy_nodes_;
    if (ids.empty()) ids.push_back(0);
    {
      SpanScope s(tracer_, "InferenceSession::Predict", stage.id());
      auto t0 = Now();
      for (int64_t n : ids) session->Predict(n).value();
      Layer("session.predict_ns", Seconds(t0, Now()) * 1e9 / ids.size(), "ns");
    }
    {
      SpanScope s(tracer_, "InferenceSession::PredictBatch", stage.id());
      const size_t b = static_cast<size_t>(std::llround(heavy_mean_batch_));
      std::vector<int64_t> batch;
      auto t0 = Now();
      for (size_t i = 0; i < ids.size(); i += b) {
        batch.assign(ids.begin() + i, ids.begin() + std::min(ids.size(), i + b));
        session->PredictBatch(batch).value();
      }
      Layer("session.predict_batch_ns_per_row",
            Seconds(t0, Now()) * 1e9 / ids.size(), "ns");
    }
    {
      SpanScope s(tracer_, "ParseServeRequestLine", stage.id());
      std::vector<std::string> lines;
      for (size_t i = 0; i < ids.size(); ++i) {
        std::string l = RequestLine(i, ids[i]);
        l.pop_back();
        lines.push_back(std::move(l));
      }
      autoac::ServeRequest request;
      std::string error;
      auto t0 = Now();
      for (const std::string& l : lines) {
        autoac::ParseServeRequestLine(l, &request, &error);
      }
      Layer("server.parse_ns", Seconds(t0, Now()) * 1e9 / lines.size(), "ns");
    }
    {
      SpanScope s(tracer_, "FormatServeResponse", stage.id());
      std::vector<InferenceSession::Prediction> preds;
      for (int64_t n : ids) preds.push_back(session->Predict(n).value());
      auto t0 = Now();
      for (size_t i = 0; i < preds.size(); ++i) {
        autoac::FormatServeResponse(std::to_string(i), preds[i], 100);
      }
      Layer("server.format_ns", Seconds(t0, Now()) * 1e9 / preds.size(), "ns");
    }

    // The delta stream through an in-process MutableSession: Apply without
    // flushing (staleness well past the replay), then an explicit Flush.
    {
      SpanScope s(tracer_, "MutableSession", stage.id());
      auto base = std::make_shared<InferenceSession>(*frozen_);
      autoac::MutableSession::Options mopts;
      mopts.staleness_ms = 1'000'000;
      autoac::MutableSession mutable_session(base, mopts);
      std::map<std::string, std::vector<double>> apply_us;
      std::vector<double> flush_us;
      double dirty = 0;
      const int64_t allocs0 = autoac::TensorBuffersAllocated();
      for (const Delta& d : deltas_) {
        auto t0 = Now();
        auto r = mutable_session.Apply(d.mutation);
        auto t1 = Now();
        mutable_session.Flush();
        auto t2 = Now();
        if (!r.ok()) {
          out_.problems.push_back("in-process replay rejects a delta: " +
                                  r.status().message());
          continue;
        }
        dirty += static_cast<double>(r.value().dirty_rows);
        apply_us[MutationName(d.mutation.kind)].push_back(Seconds(t0, t1) * 1e6);
        flush_us.push_back(Seconds(t1, t2) * 1e6);
      }
      const double n = std::max<double>(1.0, static_cast<double>(deltas_.size()));
      for (const char* k : {"add_node", "add_edge", "remove_edge"}) {
        Layer(std::string("mutable.apply_us.") + k, Median(apply_us[k]), "us");
      }
      Layer("mutable.flush_p50_us", Median(flush_us), "us");
      Layer("mutable.flush_p90_us", TailPercentile(flush_us, 90).value, "us");
      Layer("mutable.dirty_rows_per_delta", dirty / n, "rows");
      const double recomputes = static_cast<double>(
          mutable_session.partial_recomputes() +
          mutable_session.full_recomputes());
      Layer("mutable.partial_frac",
            recomputes > 0 ? mutable_session.partial_recomputes() / recomputes
                           : 0.0,
            "ratio");
      Layer("mutable.allocs_per_delta",
            (autoac::TensorBuffersAllocated() - allocs0) / n, "count");
    }
    KernelLayers("kernel.serve.", kServeKernelScopes);
    autoac::Profiler::Get().Disable();
    autoac::SetNumThreads(kSearchThreads);
  }

 public:
  // Profiled scopes the training pipeline runs (pair_dot.scatter_backward
  // belongs to the link-prediction task, which the benchmark does not run).
  static constexpr const char* kKernelScopes[] = {
      "gemm.forward",           "gemm.backward",
      "spmm.forward",           "spmm.backward",
      "edge_softmax.forward",   "edge_softmax.backward",
      "gather_edge_src.forward", "gather_edge_src.backward",
      "gather_edge_dst.forward", "gather_edge_dst.backward",
      "gather1d.scatter_backward"};
  // Profiled scopes of the compiled inference forward, which the layer
  // replay runs (session builds, RecomputeLogits, mutation flushes).
  static constexpr const char* kServeKernelScopes[] = {
      "gemm.forward",         "fused_linear.forward",    "spmm.forward",
      "fused_spmm.forward",   "edge_softmax.forward",    "gather_edge_src.forward",
      "gather_edge_dst.forward"};

 private:
  const Args& args_;
  const Workload& w_;
  bool traced_;
  Tracer tracer_;
  Lifecycle out_;
  std::string artifact_, socket_, log_, bench_metrics_, serve_metrics_,
      spans_;
  autoac::Dataset dataset_;
  autoac::TaskData task_;
  autoac::ModelContext ctx_;
  std::unique_ptr<FrozenModel> frozen_;
  std::vector<int64_t> heavy_nodes_;
  std::vector<Delta> deltas_;
  double heavy_mean_batch_ = 1.0;
  double data_setup_s_ = 0;
  double bench_rss_mb_ = 0, predict_rss_mb_ = 0, mutate_rss_mb_ = 0;
};

// ---- command line and output -----------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    std::string key = a, value;
    size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0) {
      *error = "unexpected argument " + a;
      return false;
    }
    if (eq != std::string::npos) {
      key = a.substr(0, eq);
      value = a.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    }
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        *error = "bad --seed";
        return false;
      }
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds >= 1.0)) {
        *error = "--seconds must be a number >= 1";
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace must be 0 or 1";
        return false;
      }
      args->trace = value == "1";
    } else if (key == "--serve_bin") {
      args->serve_bin = value;
    } else if (key == "--out_dir") {
      args->out_dir = value;
    } else {
      *error = "unknown flag " + key;
      return false;
    }
  }
  if (args->serve_bin.empty() || args->out_dir.empty()) {
    *error = "--serve_bin and --out_dir are required";
    return false;
  }
  return true;
}

std::string MetricsJson(const Metrics& m) {
  std::string s = "{";
  for (const auto& [name, metric] : m) {
    if (s.size() > 1) s += ",";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", metric.value);
    s += "\"" + name + "\":{\"value\":" + buf + ",\"unit\":\"" + metric.unit +
         "\"}";
  }
  return s + "}";
}

void PrintPhases(const Lifecycle& l, const char* label) {
  for (const PhaseReport& p : l.phases) {
    std::printf("%s %-22s attempted %6lld failed %lld (error %lld, rejected "
                "%lld, wrong %lld, lost %lld)%s%s\n",
                label, p.name.c_str(),
                static_cast<long long>(p.counts.attempted),
                static_cast<long long>(p.counts.failed()),
                static_cast<long long>(p.counts.error),
                static_cast<long long>(p.counts.rejected),
                static_cast<long long>(p.counts.wrong),
                static_cast<long long>(p.counts.lost),
                p.note.empty() ? "" : "  ", p.note.c_str());
  }
  for (const std::string& problem : l.problems) {
    std::printf("%s CHECK FAILED: %s\n", label, problem.c_str());
  }
}

// The end-to-end metrics a per-layer metric should move (README.md).
const char* MapsTo(const std::string& name) {
  struct Rule {
    const char* prefix;
    const char* maps_to;
  };
  static const Rule kRules[] = {
      {"data.", "setup_s"},
      {"autoac.context_s", "setup_s"},
      {"autoac.", "pipeline_s"},
      {"kernel.serve.", "mutate_p90_us, setup_s"},
      {"kernel.", "pipeline_s"},
      {"tensor.", "pipeline_s"},
      {"compiler.session_build_ms", "setup_s"},
      {"compiler.recompute_logits_ms", "mutate_p90_us"},
      {"serving.export_ms", "pipeline_s"},
      {"serving.", "setup_s"},
      {"session.", "heavy_cpu_us_per_req, heavy_p50_us"},
      {"mutable.", "mutate_p50_us, mutate_p90_us, read_p99_us"},
      {"server.parse_ns", "heavy_cpu_us_per_req"},
      {"server.format_ns", "heavy_cpu_us_per_req"},
      {"server.latency_p50_us", "light_p50_us"},
      {"server.latency_p99_us", "heavy_p99_us"},
      {"server.transport_", "heavy_p50_us"},
      {"server.batch_occupancy", "light_p50_us, heavy_p99_us"},
      {"server.queue_depth", "light_p50_us, heavy_p99_us"},
      {"server.idle_cpu", "light_cpu_us_per_req"},
      {"setup.", "setup_s"},
      {"rss.", "peak_rss_mb"},
      {"gen.", "phase validity (lag must stay small next to latency)"},
      {"tracing.", "tracing overhead (traced minus untraced)"},
      {"e2e.", "itself: a wall-clock end-to-end metric kept out of the result"},
  };
  for (const Rule& r : kRules) {
    if (name.rfind(r.prefix, 0) == 0) return r.maps_to;
  }
  return "";
}

// Wall-clock metrics printed but kept out of the result: on a shared 4-vCPU
// host, CPU steal comes and goes over minutes and moves them by more than a
// usable bound. IQR/median over ten seeds of the same code, the worst of
// four such sets: pipeline_s 1.02, heavy_p50_us 0.18, mutate_p50_us 0.16,
// read_p50_us 0.20, mutate_p90_us 0.36, read_p99_us 0.39, light_p99_us 0.32,
// heavy_p99_us 0.39. The result keeps their CPU-time counterparts
// (pipeline_cpu_s, *_cpu_*), which exclude stolen time, and light_p50_us,
// which the batch timer dominates (worst 0.14). The traced run records the
// ungated ones as e2e.* per-layer metrics.
bool Gated(const std::string& name) {
  for (const char* ungated :
       {"pipeline_s", "heavy_p50_us", "mutate_p50_us", "read_p50_us",
        "light_p99_us", "heavy_p99_us", "mutate_p90_us", "read_p99_us"}) {
    if (name == ungated) return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 64;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown --workload %s\n",
                 args.workload.c_str());
    return 64;
  }
  if (access(args.serve_bin.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "perfbench: %s is not executable\n",
                 args.serve_bin.c_str());
    return 1;
  }
  // Tight timer slack so open-loop sends leave close to their schedule.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  const auto t0 = Now();
  Lifecycle timed = Runner(args, *workload, false).Run();
  Lifecycle traced;
  if (args.trace) traced = Runner(args, *workload, true).Run();
  const double wall_s = Seconds(t0, Now());

  // Context record: what the numbers were measured on.
  std::printf(
      "context {\"nproc\":%u,\"cpu_model\":\"%s\",\"build_type\":\"%s\","
      "\"workload\":\"%s\",\"scale\":%g,\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"search_threads\":%d,\"serve_threads\":%d,"
      "\"connections\":%d,\"light_rps\":%g,\"heavy_rps\":%g,"
      "\"mutate_read_rps\":%g,\"delta_rps\":%g,\"pipeline_seed\":%llu,"
      "\"train_epochs\":%lld,\"search_epochs\":%lld,\"wall_s\":%.1f}\n",
      std::thread::hardware_concurrency(), HostCpuModel().c_str(),
      PERFBENCH_BUILD_TYPE, workload->name, workload->scale,
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, kSearchThreads, autoac::HardwareConcurrency(),
      kConnections, kLightRps, kHeavyRps, kLightRps, kDeltaRps,
      static_cast<unsigned long long>(kPipelineSeed),
      static_cast<long long>(kTrainEpochs), static_cast<long long>(kSearchEpochs),
      wall_s);
  PrintPhases(timed, "untraced");
  Metrics reported;
  for (const auto& [name, m] : timed.e2e) {
    const bool gated = Gated(name);
    std::printf("untraced %-24s %14.4f %s%s\n", name.c_str(), m.value,
                m.unit.c_str(), gated ? "" : "  (printed, not gated)");
    if (gated) reported[name] = m;
  }
  FailureCounts total = timed.Total();
  bool correct = timed.problems.empty() && total.failed() == 0;
  if (args.trace) {
    PrintPhases(traced, "traced");
    traced.layer["tracing.overhead.pipeline_s"] = {
        traced.e2e["pipeline_s"].value - timed.e2e["pipeline_s"].value, "s"};
    traced.layer["tracing.overhead.pipeline_cpu_s"] = {
        traced.e2e["pipeline_cpu_s"].value - timed.e2e["pipeline_cpu_s"].value,
        "s"};
    traced.layer["tracing.overhead.heavy_p50_us"] = {
        traced.e2e["heavy_p50_us"].value - timed.e2e["heavy_p50_us"].value,
        "us"};
    for (const auto& [name, m] : timed.e2e) {
      if (!Gated(name)) traced.layer["e2e." + name] = m;
    }
    for (const auto& [name, m] : traced.layer) {
      std::printf("traced %-40s %14.4f %-6s -> %s\n", name.c_str(), m.value,
                  m.unit.c_str(), MapsTo(name));
    }
    reported = traced.layer;
    FailureCounts t = traced.Total();
    total.attempted += t.attempted;
    total.error += t.error;
    total.rejected += t.rejected;
    total.wrong += t.wrong;
    total.lost += t.lost;
    correct = correct && traced.problems.empty() && t.failed() == 0;
  }
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<long long>(total.attempted),
              static_cast<long long>(total.failed()),
              MetricsJson(reported).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

// autoac_serve: inference serving for frozen AutoAC models.
//
// Server (loads one or more artifacts, answers node-classification
// requests):
//   autoac_serve --model=dblp.aacm --socket=/tmp/autoac.sock
//   autoac_serve --models=dblp=dblp.aacm,acm=acm.aacm --port=7071
//   autoac_serve --model_dir=/models --socket=/tmp/autoac.sock
//
// Requests are newline-delimited JSON, one object per line:
//   {"id": "r1", "node": 42}
//   {"id": "r2", "node": 42, "model": "acm", "deadline_ms": 50}
// and each response echoes the id:
//   {"id":"r1","node":42,"label":3,"score":5.17,"latency_us":812}
// Omitting "model" routes to the default model (the --model artifact, the
// first --models entry, or the first *.aacm in --model_dir). Each
// connection's requests are answered in order on its own thread; a request
// whose deadline_ms has passed (counted from arrival) when its turn comes is
// answered with a {"error":"deadline exceeded"} line and never reaches the
// model.
//
// SIGHUP atomically re-reads the artifact set from the --models/--model_dir
// spec: in-flight requests finish against the sessions they resolved,
// new requests see the new artifacts, fingerprint-unchanged artifacts are
// not reloaded.
//
// Client (for smoke tests and quick probes; sends one request per node id
// and prints each response line):
//   autoac_serve --client --socket=/tmp/autoac.sock --nodes=0,1,2
//   autoac_serve --client --port=7071 --nodes=0,1 --model_name=acm
//
// SIGINT/SIGTERM shut the server down cooperatively: in-flight requests are
// answered, stats printed, exit status 0.

#include <sys/socket.h>
#include <sys/un.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/mutable_graph.h"
#include "serving/feed.h"
#include "serving/frozen_model.h"
#include "serving/inference_session.h"
#include "serving/model_registry.h"
#include "serving/mutable_session.h"
#include "serving/server.h"
#include "util/fault.h"
#include "util/flags.h"
#include "util/parallel.h"
#include "util/shutdown.h"
#include "util/telemetry.h"

namespace autoac {
namespace {

volatile std::sig_atomic_t g_sighup_pending = 0;

void OnSighup(int) { g_sighup_pending = 1; }

const std::vector<Flags::Spec>& FlagTable() {
  using Type = Flags::Spec::Type;
  static const std::vector<Flags::Spec> kSpecs = {
      {"help", Type::kBool},
      {"model", Type::kString},
      {"models", Type::kString},
      {"model_dir", Type::kString},
      {"socket", Type::kString},
      {"port", Type::kInt},
      {"max_line_bytes", Type::kInt},
      {"rate_limit_rps", Type::kDouble},
      {"rate_limit_burst", Type::kDouble},
      {"idle_timeout_ms", Type::kInt},
      {"max_conns", Type::kInt},
      {"num_threads", Type::kInt},
      {"metrics_out", Type::kString},
      {"enable_mutations", Type::kBool},
      {"staleness_ms", Type::kInt},
      {"mutation_feed", Type::kString},
      {"reference", Type::kBool},
      {"client", Type::kBool},
      {"nodes", Type::kString},
      {"feed", Type::kString},
      {"model_name", Type::kString},
      {"deadline_ms", Type::kInt},
      {"qos", Type::kString},
      {"client_name", Type::kString},
  };
  return kSpecs;
}

void PrintUsage() {
  std::printf(
      "usage: autoac_serve (--model=PATH | --models=NAME=PATH[,..] |\n"
      "                     --model_dir=DIR) [--socket=PATH | --port=N]\n"
      "  each connection's requests are answered in order on its own\n"
      "  thread; a client that stops reading stalls only itself\n"
      "  [--max_line_bytes=65536] request-line bound; longer drops the\n"
      "                          connection\n"
      "  [--rate_limit_rps=0]    per-client token-bucket admission control\n"
      "                          (0 disables); identity is the request's\n"
      "                          \"client\" key, else the connection\n"
      "  [--rate_limit_burst=0]  bucket capacity (0 = max(rps, 1))\n"
      "  [--idle_timeout_ms=0]   reap connections idle this long (0 = off)\n"
      "  [--max_conns=0]         accept gate: refuse further connections\n"
      "                          with a structured max_conns line (0 = off)\n"
      "  [--num_threads=N]       forward-pass threads (0 = default)\n"
      "  [--metrics_out=PATH]    JSONL telemetry (per-request latency)\n"
      "  [--enable_mutations]    accept streaming graph deltas (\"op\":\n"
      "                          add_node / add_edge / remove_edge) and\n"
      "                          serve incrementally recomputed answers\n"
      "  [--staleness_ms=0]      0: every delta recomputes before its ack;\n"
      "                          >0: dirty rows may serve stale this long\n"
      "  [--mutation_feed=PATH]  replay a newline-JSON delta file into the\n"
      "                          default model at startup (implies\n"
      "                          --enable_mutations)\n"
      "requests may carry \"model\" (routes by registry name),\n"
      "\"deadline_ms\" (counted from arrival; a request past it gets a\n"
      "distinct error), \"qos\" (interactive|batch: accepted for older\n"
      "clients, no effect) and \"client\" (a stable admission identity);\n"
      "mutations may carry \"expect_fingerprint\" (hex; mismatch = error).\n"
      "Rejections are structured:\n"
      "{\"error\":..,\"reason\":..,\"retry_after_ms\":..} with reasons\n"
      "rate_limited, max_conns, idle_timeout, fault_injected.\n"
      "SIGHUP re-reads the artifact set (fingerprint-unchanged artifacts\n"
      "keep their session *and* accumulated deltas; a changed fingerprint\n"
      "discards the deltas with the old session).\n"
      "client mode (for smoke tests):\n"
      "  autoac_serve --client [--socket=PATH | --port=N] --nodes=0,1,2\n"
      "    [--feed=PATH] [--model_name=NAME] [--deadline_ms=M]\n"
      "    [--qos=interactive|batch] [--client_name=ID]\n"
      "  --feed sends the file's request lines verbatim before --nodes;\n"
      "  structured rejections (reason / retry_after_ms) are summarized on\n"
      "  stderr.\n"
      "reference mode (the from-scratch answer the incremental path must\n"
      "match bitwise):\n"
      "  autoac_serve --reference --model=PATH --nodes=0,1,2\n"
      "    [--mutation_feed=PATH]\n"
      "SIGINT/SIGTERM stop the server cooperatively (exit status 0).\n");
}

/// Parses --nodes ("0,1,2"; empty entries are skipped). Every entry must be
/// a whole base-10 integer; on the first one that is not, prints it and
/// returns false.
bool ParseNodeList(const Flags& flags, std::vector<int64_t>* nodes) {
  const std::string csv = flags.GetString("nodes", "");
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > start) {
      const char* begin = csv.data() + start;
      const char* end = csv.data() + comma;
      int64_t node = 0;
      std::from_chars_result parsed = std::from_chars(begin, end, node);
      if (parsed.ec != std::errc() || parsed.ptr != end) {
        std::fprintf(stderr,
                     "error: --nodes entry \"%s\" is not an integer\n",
                     std::string(begin, end).c_str());
        return false;
      }
      nodes->push_back(node);
    }
    start = comma + 1;
  }
  return true;
}

int Connect(const std::string& unix_path, int port) {
  if (!unix_path.empty()) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Non-empty lines of a newline-JSON file. False on open failure.
bool ReadFeedLines(const std::string& path, std::vector<std::string>* lines) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines->push_back(line);
  }
  return true;
}

// Sends the --feed file's request lines verbatim, then one request per
// --nodes id; reads one response line per request and prints each to
// stdout. Returns 0 only when every response arrived.
int RunClient(const Flags& flags) {
  std::string unix_path = flags.GetString("socket", "");
  int port = static_cast<int>(flags.GetInt("port", 0));
  if (unix_path.empty() && port <= 0) {
    std::fprintf(stderr, "error: --client needs --socket or --port\n");
    return 64;
  }
  std::vector<int64_t> nodes;
  if (!ParseNodeList(flags, &nodes)) return 64;
  std::string feed_path = flags.GetString("feed", "");
  std::vector<std::string> feed;
  if (!feed_path.empty() && !ReadFeedLines(feed_path, &feed)) {
    std::fprintf(stderr, "error: cannot read --feed %s\n", feed_path.c_str());
    return 1;
  }
  if (nodes.empty() && feed.empty()) {
    std::fprintf(stderr, "error: --client needs --nodes=0,1,... or --feed\n");
    return 64;
  }
  std::string model_name = flags.GetString("model_name", "");
  int64_t deadline_ms = flags.GetInt("deadline_ms", -1);
  std::string qos = flags.GetString("qos", "");
  std::string client_name = flags.GetString("client_name", "");
  int fd = Connect(unix_path, port);
  if (fd < 0) {
    std::fprintf(stderr, "error: connect failed: %s\n", std::strerror(errno));
    return 1;
  }
  std::string out;
  for (const std::string& line : feed) out += line + "\n";
  for (size_t i = 0; i < nodes.size(); ++i) {
    out += "{\"id\": \"r" + std::to_string(i) + "\"";
    if (!model_name.empty()) out += ", \"model\": \"" + model_name + "\"";
    if (deadline_ms >= 0) {
      out += ", \"deadline_ms\": " + std::to_string(deadline_ms);
    }
    if (!qos.empty()) out += ", \"qos\": \"" + qos + "\"";
    if (!client_name.empty()) out += ", \"client\": \"" + client_name + "\"";
    out += ", \"node\": " + std::to_string(nodes[i]) + "}\n";
  }
  // Send from a helper thread while this one reads: the server answers each
  // line before reading the next, so a client that sent everything before
  // reading would deadlock once both directions' socket buffers filled.
  bool sent = false;
  std::thread sender([&] { sent = SendAll(fd, out.data(), out.size()); });
  const size_t expected = feed.size() + nodes.size();
  size_t lines = 0;
  size_t rejected = 0;
  int64_t max_retry_after_ms = -1;
  std::map<std::string, int64_t> reasons;
  std::string pending;
  char buf[4096];
  while (lines < expected) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    pending.append(buf, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl = pending.find('\n', start); nl != std::string::npos;
         nl = pending.find('\n', start)) {
      std::string line = pending.substr(start, nl - start);
      std::printf("%s\n", line.c_str());
      start = nl + 1;
      ++lines;
      // Surface structured rejections: the machine-readable "reason" and
      // retry hint are for programs; a human running --client gets a
      // summary on stderr.
      size_t reason_at = line.find("\"reason\":\"");
      if (reason_at != std::string::npos) {
        ++rejected;
        size_t value = reason_at + 10;
        size_t end = line.find('"', value);
        if (end != std::string::npos) {
          ++reasons[line.substr(value, end - value)];
        }
        size_t retry_at = line.find("\"retry_after_ms\":");
        if (retry_at != std::string::npos) {
          max_retry_after_ms =
              std::max(max_retry_after_ms,
                       static_cast<int64_t>(std::strtoll(
                           line.c_str() + retry_at + 17, nullptr, 10)));
        }
      }
    }
    pending.erase(0, start);
  }
  // Unblocks a sender still writing to a server that has hung up.
  ::shutdown(fd, SHUT_RDWR);
  sender.join();
  ::close(fd);
  if (!sent) {
    std::fprintf(stderr, "error: send failed\n");
    return 1;
  }
  if (rejected > 0) {
    std::string breakdown;
    for (const auto& [reason, count] : reasons) {
      if (!breakdown.empty()) breakdown += ", ";
      breakdown += reason + "=" + std::to_string(count);
    }
    std::fprintf(stderr, "%zu rejected (%s)", rejected, breakdown.c_str());
    if (max_retry_after_ms >= 0) {
      std::fprintf(stderr, ", max retry_after_ms %lld",
                   static_cast<long long>(max_retry_after_ms));
    }
    std::fprintf(stderr, "\n");
  }
  if (lines != expected) {
    std::fprintf(stderr, "error: got %zu of %zu responses\n", lines,
                 expected);
    return 1;
  }
  return 0;
}

/// Applies one parsed mutation to a from-scratch graph replica, resolving
/// type names exactly as MutableSession does.
Status ApplyToReplica(MutableGraph* graph, const Mutation& m,
                      uint64_t fingerprint) {
  if (m.expect_fingerprint != 0 && m.expect_fingerprint != fingerprint) {
    return Status::Error("fingerprint mismatch");
  }
  switch (m.kind) {
    case Mutation::Kind::kAddNode: {
      StatusOr<int64_t> type = graph->NodeTypeIdOf(m.node_type);
      if (!type.ok()) return type.status();
      StatusOr<int64_t> local = graph->AddNode(type.value(), m.attributes);
      return local.ok() ? Status::Ok() : local.status();
    }
    case Mutation::Kind::kAddEdge:
    case Mutation::Kind::kRemoveEdge: {
      StatusOr<int64_t> type = graph->EdgeTypeIdOf(m.edge_type);
      if (!type.ok()) return type.status();
      return m.kind == Mutation::Kind::kAddEdge
                 ? graph->AddEdge(type.value(), m.src, m.dst)
                 : graph->RemoveEdge(type.value(), m.src, m.dst);
    }
  }
  return Status::Error("unreachable");
}

// --reference: the from-scratch answer sheet. Loads the artifact, applies
// the --mutation_feed deltas to a plain graph replica, re-freezes the model
// on the mutated graph (RefreezeWithGraph — a full re-export, no
// incremental machinery), and prints one response line per --nodes id in
// the client's output format (latency 0). The mutation-smoke CI job diffs
// a live incremental server against this bitwise.
int RunReference(const Flags& flags) {
  const std::string model_path = flags.GetString("model", "");
  if (model_path.empty()) {
    std::fprintf(stderr, "error: --reference needs --model=PATH\n");
    return 64;
  }
  std::vector<int64_t> nodes;
  if (!ParseNodeList(flags, &nodes)) return 64;
  if (nodes.empty()) {
    std::fprintf(stderr, "error: --reference needs --nodes=0,1,...\n");
    return 64;
  }
  StatusOr<FrozenModel> loaded = LoadFrozenModel(model_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().message().c_str());
    return 1;
  }
  FrozenModel frozen = loaded.TakeValue();
  MutableGraph replica(frozen.graph);
  const std::string feed_path = flags.GetString("mutation_feed", "");
  if (!feed_path.empty()) {
    std::vector<std::string> feed;
    if (!ReadFeedLines(feed_path, &feed)) {
      std::fprintf(stderr, "error: cannot read --mutation_feed %s\n",
                   feed_path.c_str());
      return 1;
    }
    for (size_t i = 0; i < feed.size(); ++i) {
      ServeRequest request;
      std::string error;
      if (!ParseServeRequestLine(feed[i], &request, &error)) {
        std::fprintf(stderr, "error: mutation feed line %zu: %s\n", i + 1,
                     error.c_str());
        return 1;
      }
      if (!request.is_mutation) {
        std::fprintf(stderr,
                     "error: mutation feed line %zu is not a mutation\n",
                     i + 1);
        return 1;
      }
      Status applied =
          ApplyToReplica(&replica, request.mutation, frozen.fingerprint);
      if (!applied.ok()) {
        std::fprintf(stderr, "error: mutation feed line %zu: %s\n", i + 1,
                     applied.message().c_str());
        return 1;
      }
    }
  }
  HeteroGraphPtr mutated = replica.Compact();
  std::vector<CompletionOpType> op_of = ExtendOpAssignment(frozen, *mutated);
  StatusOr<FrozenModel> refrozen = RefreezeWithGraph(frozen, mutated, op_of);
  if (!refrozen.ok()) {
    std::fprintf(stderr, "error: %s\n", refrozen.status().message().c_str());
    return 1;
  }
  InferenceSession session(refrozen.TakeValue());
  for (size_t i = 0; i < nodes.size(); ++i) {
    StatusOr<InferenceSession::Prediction> p = session.Predict(nodes[i]);
    if (!p.ok()) {
      std::fprintf(stderr, "error: node %lld: %s\n",
                   static_cast<long long>(nodes[i]),
                   p.status().message().c_str());
      return 1;
    }
    std::fputs(
        FormatServeResponse("r" + std::to_string(i), p.value(), 0).c_str(),
        stdout);
  }
  return 0;
}

void PrintModelTable(const ModelRegistry& registry) {
  for (const ModelRegistry::ModelInfo& info : registry.Models()) {
    std::printf("loaded %s%s: %s (%s, fingerprint %016llx)\n",
                info.name.c_str(), info.is_default ? " [default]" : "",
                info.path.c_str(), info.arch.c_str(),
                static_cast<unsigned long long>(info.fingerprint));
  }
}

/// A failed reload leaves the serving set unchanged; Reload() counts it in
/// serve.reload_failures.
void HandleSighupReload(ModelRegistry* registry) {
  std::printf("SIGHUP: re-reading artifact set\n");
  StatusOr<ModelRegistry::ReloadReport> report = registry->Reload();
  if (!report.ok()) {
    // A failed reload leaves the current serving set untouched.
    std::fprintf(stderr, "reload failed (serving set unchanged): %s\n",
                 report.status().message().c_str());
    std::fflush(stderr);
    return;
  }
  auto join = [](const std::vector<std::string>& names) {
    std::string joined;
    for (const std::string& name : names) {
      if (!joined.empty()) joined += ",";
      joined += name;
    }
    return joined.empty() ? std::string("-") : joined;
  };
  const ModelRegistry::ReloadReport& r = report.value();
  std::printf(
      "reload: %zu loaded [%s], %zu reloaded [%s], %zu unchanged [%s], "
      "%zu removed [%s]\n",
      r.loaded.size(), join(r.loaded).c_str(), r.reloaded.size(),
      join(r.reloaded).c_str(), r.unchanged.size(),
      join(r.unchanged).c_str(), r.removed.size(), join(r.removed).c_str());
  PrintModelTable(*registry);
  std::fflush(stdout);
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  std::vector<std::string> problems = flags.Validate(FlagTable());
  const bool client = flags.GetBool("client", false);
  const bool help = flags.GetBool("help", false);
  const std::string model_path = flags.GetString("model", "");
  const std::string models_spec = flags.GetString("models", "");
  const std::string model_dir = flags.GetString("model_dir", "");
  int specs_given = (model_path.empty() ? 0 : 1) +
                    (models_spec.empty() ? 0 : 1) +
                    (model_dir.empty() ? 0 : 1);
  if (!client && !help && specs_given != 1) {
    problems.push_back(
        "exactly one of --model, --models, --model_dir is required");
  }
  if (!problems.empty()) {
    for (const std::string& p : problems) {
      std::fprintf(stderr, "error: %s\n", p.c_str());
    }
    std::fprintf(stderr, "run with --help for usage\n");
    return 64;  // EX_USAGE
  }
  if (help) {
    PrintUsage();
    return 0;
  }
  if (client) return RunClient(flags);
  if (flags.GetBool("reference", false)) return RunReference(flags);

  InstallShutdownHandler();
  std::signal(SIGHUP, OnSighup);
  SetNumThreads(static_cast<int>(flags.GetInt("num_threads", 0)));
  InitTelemetryFromFlag(flags.GetString("metrics_out", ""));

  ModelRegistry registry;
  const std::string mutation_feed = flags.GetString("mutation_feed", "");
  const bool enable_mutations =
      flags.GetBool("enable_mutations", false) || !mutation_feed.empty();
  const int64_t staleness_ms = flags.GetInt("staleness_ms", 0);
  registry.set_mutation_options(enable_mutations, staleness_ms);
  // Single-artifact mode is multi-model mode with one entry named
  // "default"; the wire protocol is unchanged (requests without "model"
  // route to it).
  Status loaded = registry.LoadFromSpec(
      model_path.empty() ? models_spec : "default=" + model_path, model_dir);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.message().c_str());
    return 1;
  }
  PrintModelTable(registry);
  {
    std::shared_ptr<InferenceSession> session = registry.Lookup("");
    std::printf("serving %lld models; default \"%s\": %lld target nodes, "
                "%lld classes\n",
                static_cast<long long>(registry.size()),
                registry.default_model().c_str(),
                static_cast<long long>(session->num_targets()),
                static_cast<long long>(session->num_classes()));
  }
  if (enable_mutations) {
    std::printf("mutations enabled (staleness %lld ms)\n",
                static_cast<long long>(staleness_ms));
  }
  int64_t feed_skipped = 0;
  if (!mutation_feed.empty()) {
    std::vector<std::string> feed;
    if (!ReadFeedLines(mutation_feed, &feed)) {
      std::fprintf(stderr, "error: cannot read --mutation_feed %s\n",
                   mutation_feed.c_str());
      return 1;
    }
    // Bad lines are skipped and counted, never fatal: the server must come
    // up on the well-formed remainder of its feed.
    FeedReplayReport report = ReplayMutationFeed(&registry, feed);
    feed_skipped = report.skipped;
    for (const std::string& why : report.errors) {
      std::fprintf(stderr, "warning: mutation feed %s (skipped)\n",
                   why.c_str());
    }
    if (report.skipped >
        static_cast<int64_t>(report.errors.size())) {
      std::fprintf(stderr, "warning: mutation feed: %lld further skips\n",
                   static_cast<long long>(
                       report.skipped -
                       static_cast<int64_t>(report.errors.size())));
    }
    std::printf(
        "mutation feed: %lld deltas applied, %lld skipped "
        "(%lld rows dirtied)\n",
        static_cast<long long>(report.applied),
        static_cast<long long>(report.skipped),
        static_cast<long long>(report.dirty_rows));
  }

  ServerOptions options;
  options.unix_path = flags.GetString("socket", "");
  options.tcp_port = static_cast<int>(flags.GetInt("port", 0));
  if (options.unix_path.empty() && !flags.Has("port")) {
    std::fprintf(stderr, "error: need --socket or --port\n");
    return 64;
  }
  options.max_line_bytes =
      flags.GetInt("max_line_bytes", options.max_line_bytes);
  options.rate_limit_rps = flags.GetDouble("rate_limit_rps", 0.0);
  options.rate_limit_burst = flags.GetDouble("rate_limit_burst", 0.0);
  options.idle_timeout_ms = flags.GetInt("idle_timeout_ms", 0);
  options.max_conns = flags.GetInt("max_conns", 0);
  options.poll_hook = [&registry] {
    if (!g_sighup_pending) return;
    g_sighup_pending = 0;
    HandleSighupReload(&registry);
  };
  options.chaos_reload_hook = [&registry] {
    // Forced mid-request reload (chaos site serve_mid_request_reload): same
    // all-or-nothing registry swap the SIGHUP path runs, without waiting
    // for a signal.
    (void)registry.Reload();
  };

  InferenceServer server(&registry, options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.message().c_str());
    return 1;
  }
  if (!options.unix_path.empty()) {
    std::printf("listening on %s\n", options.unix_path.c_str());
  } else {
    std::printf("listening on 127.0.0.1:%d\n", server.port());
  }
  std::fflush(stdout);
  server.Serve();

  // The process-wide registry counters (DESIGN.md §8); this process hosts
  // one server, so their totals are its totals.
  auto count = [](const char* name) {
    return static_cast<long long>(Telemetry::Get().GetCounter(name).value());
  };
  std::printf(
      "shutdown: %lld connections, %lld requests, %lld responses, "
      "%lld malformed, %lld unknown-model, %lld overlong, "
      "%lld deadline-expired, %lld write-errors, %lld mutations, "
      "%lld dirty-rows, %lld partial-rows, %lld rate-limited, "
      "%lld idle-closed, %lld conns-refused, %lld reload-failures, "
      "%lld feed-skipped, %lld faults-injected\n",
      count("serve.connections"), count("serve.requests"),
      count("serve.responses"), count("serve.malformed"),
      count("serve.unknown_model"), count("serve.overlong_lines"),
      count("serve.deadline_expired"), count("serve.write_errors"),
      count("serve.mutations_applied"), count("serve.dirty_rows"),
      count("mutable.partial_forward_rows"), count("serve.rate_limited"),
      count("serve.idle_closed"), count("serve.conns_refused"),
      count("serve.reload_failures"),
      static_cast<long long>(feed_skipped),
      static_cast<long long>(FaultTriggersObserved()));
  return 0;
}

}  // namespace
}  // namespace autoac

int main(int argc, char** argv) {
  int rc = autoac::Run(argc, argv);
  autoac::ShutdownTelemetry();
  return rc;
}

#ifndef AUTOAC_SERVING_SERVER_H_
#define AUTOAC_SERVING_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serving/admission.h"
#include "serving/inference_session.h"
#include "serving/model_registry.h"
#include "serving/mutable_session.h"
#include "util/status.h"

namespace autoac {

/// One newline-delimited JSON request. Predictions:
///   {"id": "...", "node": N, "model": "...", "deadline_ms": M,
///    "qos": "interactive"|"batch", "client": "..."}
/// `id` is an opaque client token echoed back in the response (optional,
/// may be a JSON string or number); `node` is the target-type-local node
/// id to classify; `model` routes to a hosted model by registry name
/// (optional, empty = default model); `deadline_ms` is an optional
/// client-side deadline relative to arrival — a request whose deadline has
/// passed when its turn comes is answered with a distinct "deadline
/// exceeded" error and never reaches Predict. `qos` is accepted for
/// compatibility with older clients (interactive|batch, validated, then
/// ignored: every request is answered in arrival order on its connection);
/// `client` is an optional stable identity used for per-client admission
/// control — absent, the connection itself is the identity.
///
/// Mutations (DESIGN.md §12) share the grammar, selected by "op" instead
/// of "node" (the two are mutually exclusive):
///   {"id": "...", "op": "add_node", "type": "author", "attrs": [0.1, ...]}
///   {"id": "...", "op": "add_edge", "edge": "writes", "src": 7, "dst": 12}
///   {"id": "...", "op": "remove_edge", "edge": "writes", "src": 7, "dst": 12}
/// plus optional "model", "deadline_ms", and "expect_fingerprint" (the
/// artifact content fingerprint as a hex string; a mismatch — e.g. a SIGHUP
/// swapped the model — is a distinct error and the delta is not applied).
struct ServeRequest {
  std::string id;
  int64_t node = -1;
  std::string model;
  int64_t deadline_ms = -1;  // -1 = no deadline
  std::string client;        // admission identity; empty = per-connection
  bool is_mutation = false;  // "op" present; `mutation` is the payload
  Mutation mutation;
};

/// Parses one request line. The accepted grammar is a flat JSON object with
/// the keys above (any order, whitespace-tolerant, unknown keys rejected so
/// typos fail loudly; integers that overflow int64 are malformed, not
/// saturated). Returns false with a human-readable `error` on malformed
/// input; the server turns that into an error response rather than
/// dropping the connection.
bool ParseServeRequestLine(const std::string& line, ServeRequest* request,
                           std::string* error);

/// Formats a success / error response line (newline-terminated JSON).
std::string FormatServeResponse(const std::string& id,
                                const InferenceSession::Prediction& p,
                                int64_t latency_us);
std::string FormatServeError(const std::string& id, const std::string& error);
/// Structured rejection: an error response carrying a machine-readable
/// "reason" token and (when `retry_after_ms` >= 0) a retry hint, so clients
/// can back off programmatically instead of string-matching error prose:
///   {"id":"r1","error":"rate limited","reason":"rate_limited",
///    "retry_after_ms":12}
/// Reasons in use: rate_limited, max_conns, idle_timeout, fault_injected,
/// artifact_v1_immutable.
std::string FormatServeReject(const std::string& id, const std::string& error,
                              const std::string& reason,
                              int64_t retry_after_ms);
/// Mutation ack:
///   {"id":"m1","applied":"add_edge","node":-1,"dirty_rows":5,"latency_us":..}
/// `node` is the assigned type-local id for add_node, -1 otherwise.
std::string FormatMutationResponse(const std::string& id,
                                   const Mutation& mutation,
                                   const MutationResult& result,
                                   int64_t latency_us);

/// Writes all `size` bytes to `fd`, retrying interrupted and would-block
/// sends (EINTR immediately; EAGAIN/EWOULDBLOCK after polling for
/// writability). Returns false only on a genuine write failure (e.g. the
/// peer is gone). Exposed for the retry regression tests; the server's
/// per-connection writes go through it. Chaos site `serve_partial_write`
/// truncates one send() to a single byte here — the retry loop must finish
/// the line regardless.
bool SendAll(int fd, const char* data, size_t size);

struct ServerOptions {
  /// Unix-domain socket path. Takes precedence over TCP when non-empty.
  std::string unix_path;
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (see
  /// InferenceServer::port()). Used only when unix_path is empty.
  int tcp_port = 0;
  /// A connection streaming more than this many bytes without a newline is
  /// answered with a malformed-request error and dropped (bounds the
  /// per-connection read buffer).
  int64_t max_line_bytes = 1 << 16;
  /// Per-client token-bucket admission control (DESIGN.md §13);
  /// rate_limit_rps <= 0 disables it. Identity is the request's "client"
  /// key when present, the connection otherwise.
  double rate_limit_rps = 0.0;
  double rate_limit_burst = 0.0;  // <= 0 defaults to max(rps, 1)
  /// A connection idle (no bytes received) for this long is answered with a
  /// structured idle_timeout rejection and dropped — slow-loris clients
  /// cannot pin fds forever. 0 disables reaping.
  int64_t idle_timeout_ms = 0;
  /// Accept gate: with this many live connections, further accepts are
  /// answered with an immediate structured max_conns refusal and closed.
  /// 0 = unlimited.
  int64_t max_conns = 0;
  /// Called from the accept loop every poll interval (<= ~100ms) when set.
  /// The CLI uses it to run SIGHUP artifact reloads on the serve thread.
  std::function<void()> poll_hook;
  /// Chaos hook: invoked on a reader thread between pinning a request's
  /// session and answering it when the `serve_mid_request_reload` fault
  /// site fires, simulating a hot reload racing in-flight work. The CLI
  /// points it at its SIGHUP reload path; tests point it at
  /// ModelRegistry::Reload directly, or park in it to hold a request.
  std::function<void()> chaos_reload_hook;
  /// Clock used for admission-control decisions, microseconds, monotonic.
  /// Defaults to the steady clock; tests inject literal time sequences to
  /// make token-bucket behavior deterministic.
  std::function<int64_t()> clock;
};

/// Request/response front-end over a ModelRegistry (DESIGN.md §10). One
/// reader thread per connection does the whole job for that connection's
/// lines, one after another: parse, admit, resolve the "model" key to a
/// session (pinning it: a hot reload swaps the registry entry, a request
/// already resolved finishes against the session it pinned), check the
/// deadline, answer from the session's logits cache (or apply the
/// mutation), and write the response. A connection therefore has at most
/// one request in flight, and backpressure is the socket buffer: a client
/// that stops reading stalls only its own reader. Mutations and reads of a
/// model with a mutation overlay serialize on that overlay's lock, so a
/// flush blocks readers of that model only.
///
/// Connection lifecycle: a reader that observes client disconnect (or idle
/// timeout) shuts the socket down, prunes the connection from the server's
/// list, and hands its thread to the accept loop for reaping. Long-running
/// servers hold fds and threads only for live connections.
///
/// Shutdown is cooperative: Serve() returns once ShutdownRequested()
/// (util/shutdown.h) or Stop() is observed. Readers stop reading and
/// finish the lines they already received; a reader still running after a
/// fixed grace period (e.g. blocked writing to a peer that never reads) has
/// its socket shut down in both directions so its write fails, and every
/// thread is joined before Serve() returns.
///
/// Events are counted in the process-wide telemetry registry as
/// `serve.<event>` counters (DESIGN.md §8), bumped where they happen; every
/// server in a process adds to the same counters.
class InferenceServer {
 public:
  InferenceServer(ModelRegistry* registry, ServerOptions options);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Binds and listens (unix or TCP per the options). IO failures (path in
  /// use, permission) are Status errors.
  Status Start();

  /// Accepts and serves connections until shutdown is requested. Call after
  /// Start(); blocks the calling thread.
  void Serve();

  /// Requests shutdown of this server only (Serve() also honors the
  /// process-wide shutdown flag). Safe from any thread; idempotent.
  void Stop();

  /// Actual TCP port after Start() (== options.tcp_port unless 0 requested
  /// an ephemeral port); -1 for unix-domain servers.
  int port() const { return port_; }

 private:
  struct Connection {
    ~Connection();
    int fd = -1;
    std::string identity;  // fallback admission identity ("conn:<id>")
  };

  void ReaderLoop(uint64_t reader_id, std::shared_ptr<Connection> conn);
  /// Answers the complete lines in `*pending`, in order (called by
  /// ReaderLoop as bytes arrive; `arrival_us` is when the bytes that
  /// completed them were received). Returns false when the connection must
  /// be dropped (overlong line, or a write failed).
  bool IngestLines(const Connection& conn, std::string* pending,
                   int64_t arrival_us);
  /// Parses, admits and answers one request line: the whole job, on the
  /// calling reader thread. Returns false when the response could not be
  /// written.
  bool Answer(const Connection& conn, const std::string& line,
              int64_t arrival_us);
  /// Writes one line through SendAll. Counts a genuine failure in
  /// write_errors.
  bool WriteLine(const Connection& conn, const std::string& line);
  /// Joins reader threads whose loops have exited (accept thread only).
  void ReapFinishedReaders();
  bool Stopping() const;
  int64_t ClockNow() const;

  ModelRegistry* registry_;
  ServerOptions options_;
  AdmissionController admission_;
  int listen_fd_ = -1;
  int port_ = -1;
  std::atomic<bool> stop_{false};

  std::mutex mu_;
  std::condition_variable reader_exited_;  // a reader left connections_
  std::vector<uint64_t> finished_readers_;  // ids awaiting join; under mu_
  std::vector<std::shared_ptr<Connection>> connections_;  // live; under mu_

  /// Reader threads by id; accessed only from the accept thread and the
  /// destructor (readers announce exit via finished_readers_).
  std::map<uint64_t, std::thread> readers_;
  uint64_t next_reader_id_ = 0;
};

}  // namespace autoac

#endif  // AUTOAC_SERVING_SERVER_H_

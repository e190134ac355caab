#include "serving/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>

#include "util/fault.h"
#include "util/shutdown.h"
#include "util/telemetry.h"

namespace autoac {
namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// How long a stopping server waits for its readers to answer the lines
/// they already received before it cuts their sockets.
constexpr std::chrono::seconds kDrainGrace{1};

/// Absolute expiry (NowMicros scale) of a request that arrived at
/// `arrival_us` with `deadline_ms`; -1 when it has none. A deadline past the
/// clock's range is the most generous one there is, so it saturates to none
/// instead of overflowing.
int64_t DeadlineUs(int64_t arrival_us, int64_t deadline_ms) {
  if (deadline_ms < 0 ||
      deadline_ms > (std::numeric_limits<int64_t>::max() - arrival_us) / 1000) {
    return -1;
  }
  return arrival_us + deadline_ms * 1000;
}

// --- minimal JSON helpers ---------------------------------------------------
// The request grammar is one flat object per line; a full JSON library is
// not worth a dependency for that. The scanner below is strict about what
// it accepts (unknown keys, malformed values, and out-of-range integers are
// errors, not silently ignored) and never reads past the line.

struct Scanner {
  const std::string& s;
  size_t i = 0;

  void SkipSpace() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
  }
  bool Eat(char c) {
    SkipSpace();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool ParseString(std::string* out) {
    SkipSpace();
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    out->clear();
    while (i < s.size() && s[i] != '"') {
      char c = s[i++];
      if (c == '\\') {
        if (i >= s.size()) return false;
        char esc = s[i++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          default: return false;  // \uXXXX etc. not needed for ids
        }
      } else {
        out->push_back(c);
      }
    }
    if (i >= s.size()) return false;
    ++i;  // closing quote
    return true;
  }
  bool ParseInt(int64_t* out) {
    SkipSpace();
    // The JSON integer token exactly, -?(0|[1-9][0-9]*): no '+' and no
    // leading zeros, so a numeric id echoes back as sent. std::from_chars
    // converts exactly that token; overflow is malformed, not INT64_MAX.
    size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    size_t digits = i;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i == digits || (s[digits] == '0' && i - digits > 1)) return false;
    int64_t value = 0;
    std::from_chars_result parsed =
        std::from_chars(s.data() + start, s.data() + i, value);
    if (parsed.ec != std::errc() || parsed.ptr != s.data() + i) return false;
    *out = value;
    return true;
  }
  bool ParseFloat(float* out) {
    SkipSpace();
    // Token scan enforcing the JSON number grammar exactly —
    // -?digits[.digits][(e|E)[sign]digits] with required digits in every
    // part — so "+1", "12.", ".5", "1.5abc", "nan"/"inf" and hex floats are
    // all rejected at the token level. The conversion then runs over
    // exactly that token via std::from_chars: locale-independent (strtof
    // under a comma-decimal locale stops at the '.' and silently rejects
    // valid requests) and unable to consume past the scanned token.
    size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    size_t int_digits = i;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
    if (i == int_digits) return false;
    if (i < s.size() && s[i] == '.') {
      ++i;
      size_t frac_digits = i;
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
        ++i;
      }
      if (i == frac_digits) return false;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
      ++i;
      if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
      size_t exp_digits = i;
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
        ++i;
      }
      if (i == exp_digits) return false;
    }
    float value = 0.0f;
    std::from_chars_result parsed =
        std::from_chars(s.data() + start, s.data() + i, value);
    // Out-of-range magnitudes are malformed, not saturated to inf/0 — the
    // old strtof path ignored ERANGE and fed inf into attribute rows.
    if (parsed.ec != std::errc() || parsed.ptr != s.data() + i) return false;
    *out = value;
    return true;
  }
  /// "[f, f, ...]" (possibly empty) into `out`.
  bool ParseFloatArray(std::vector<float>* out) {
    if (!Eat('[')) return false;
    out->clear();
    if (Eat(']')) return true;
    while (true) {
      float v = 0.0f;
      if (!ParseFloat(&v)) return false;
      out->push_back(v);
      if (Eat(',')) continue;
      return Eat(']');
    }
  }
};

const char* MutationOpName(Mutation::Kind kind) {
  switch (kind) {
    case Mutation::Kind::kAddNode: return "add_node";
    case Mutation::Kind::kAddEdge: return "add_edge";
    case Mutation::Kind::kRemoveEdge: return "remove_edge";
  }
  return "?";
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: {
        // Escape via the byte value: a negative signed char fed to %04x
        // would sign-extend into garbage like ￿ffc3. Bytes >= 0x20
        // (including UTF-8 continuation bytes) pass through verbatim.
        unsigned char byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(byte));
          out += buf;
        } else {
          out.push_back(c);
        }
      }
    }
  }
  return out;
}

}  // namespace

bool ParseServeRequestLine(const std::string& line, ServeRequest* request,
                           std::string* error) {
  *request = ServeRequest();
  Scanner sc{line};
  if (!sc.Eat('{')) {
    *error = "expected a JSON object";
    return false;
  }
  bool have_node = false;
  bool have_op = false;
  bool have_type = false, have_attrs = false;
  bool have_edge = false, have_src = false, have_dst = false;
  std::string mutation_key;  // first mutation-only key seen, for errors
  if (!sc.Eat('}')) {  // non-empty object
    while (true) {
      std::string key;
      if (!sc.ParseString(&key)) {
        *error = "expected a string key";
        return false;
      }
      if (!sc.Eat(':')) {
        *error = "expected ':' after key \"" + key + "\"";
        return false;
      }
      if (key == "id") {
        // Accept a string or a bare integer token; either way the id is
        // echoed back verbatim as a string.
        sc.SkipSpace();
        if (sc.i < line.size() && line[sc.i] == '"') {
          if (!sc.ParseString(&request->id)) {
            *error = "malformed \"id\" string";
            return false;
          }
        } else {
          size_t token = sc.i;
          int64_t v = 0;
          if (!sc.ParseInt(&v)) {
            *error = "malformed \"id\" value";
            return false;
          }
          request->id = line.substr(token, sc.i - token);
        }
      } else if (key == "node") {
        if (!sc.ParseInt(&request->node)) {
          *error = "malformed \"node\" value (integer expected)";
          return false;
        }
        have_node = true;
      } else if (key == "model") {
        if (!sc.ParseString(&request->model)) {
          *error = "malformed \"model\" value (string expected)";
          return false;
        }
      } else if (key == "deadline_ms") {
        int64_t v = 0;
        if (!sc.ParseInt(&v) || v < 0) {
          *error =
              "malformed \"deadline_ms\" value (non-negative integer "
              "expected)";
          return false;
        }
        request->deadline_ms = v;
      } else if (key == "qos") {
        // Validated so a typo still fails loudly, then dropped: every
        // request is answered in arrival order on its connection.
        std::string qos;
        if (!sc.ParseString(&qos)) {
          *error = "malformed \"qos\" value (string expected)";
          return false;
        }
        if (qos != "interactive" && qos != "batch") {
          *error = "unknown \"qos\" value \"" + qos +
                   "\" (want interactive or batch)";
          return false;
        }
      } else if (key == "client") {
        if (!sc.ParseString(&request->client)) {
          *error = "malformed \"client\" value (string expected)";
          return false;
        }
      } else if (key == "op") {
        std::string op;
        if (!sc.ParseString(&op)) {
          *error = "malformed \"op\" value (string expected)";
          return false;
        }
        if (op == "add_node") {
          request->mutation.kind = Mutation::Kind::kAddNode;
        } else if (op == "add_edge") {
          request->mutation.kind = Mutation::Kind::kAddEdge;
        } else if (op == "remove_edge") {
          request->mutation.kind = Mutation::Kind::kRemoveEdge;
        } else {
          *error = "unknown \"op\" value \"" + op +
                   "\" (want add_node, add_edge or remove_edge)";
          return false;
        }
        have_op = true;
      } else if (key == "type") {
        if (!sc.ParseString(&request->mutation.node_type)) {
          *error = "malformed \"type\" value (string expected)";
          return false;
        }
        have_type = true;
        if (mutation_key.empty()) mutation_key = key;
      } else if (key == "attrs") {
        if (!sc.ParseFloatArray(&request->mutation.attributes)) {
          *error = "malformed \"attrs\" value (array of numbers expected)";
          return false;
        }
        have_attrs = true;
        if (mutation_key.empty()) mutation_key = key;
      } else if (key == "edge") {
        if (!sc.ParseString(&request->mutation.edge_type)) {
          *error = "malformed \"edge\" value (string expected)";
          return false;
        }
        have_edge = true;
        if (mutation_key.empty()) mutation_key = key;
      } else if (key == "src" || key == "dst") {
        int64_t* slot =
            key == "src" ? &request->mutation.src : &request->mutation.dst;
        if (!sc.ParseInt(slot)) {
          *error = "malformed \"" + key + "\" value (integer expected)";
          return false;
        }
        (key == "src" ? have_src : have_dst) = true;
        if (mutation_key.empty()) mutation_key = key;
      } else if (key == "expect_fingerprint") {
        // Hex string, not a JSON number: fingerprints are full-range
        // uint64 and the integer grammar is (deliberately) int64-only.
        std::string hex;
        if (!sc.ParseString(&hex) || hex.empty() ||
            hex.size() > 16 ||
            hex.find_first_not_of("0123456789abcdefABCDEF") !=
                std::string::npos) {
          *error =
              "malformed \"expect_fingerprint\" value (hex string expected)";
          return false;
        }
        request->mutation.expect_fingerprint =
            std::strtoull(hex.c_str(), nullptr, 16);
        if (mutation_key.empty()) mutation_key = key;
      } else {
        *error = "unknown key \"" + key + "\"";
        return false;
      }
      if (sc.Eat(',')) continue;
      if (sc.Eat('}')) break;
      *error = "expected ',' or '}'";
      return false;
    }
  }
  sc.SkipSpace();
  if (sc.i != line.size()) {
    *error = "trailing characters after the object";
    return false;
  }
  if (!have_op) {
    if (!mutation_key.empty()) {
      *error = "key \"" + mutation_key + "\" is only valid with \"op\"";
      return false;
    }
    if (!have_node) {
      *error = "missing required key \"node\"";
      return false;
    }
    return true;
  }
  // Mutation: per-kind required/forbidden keys, so a typo'd delta fails
  // loudly instead of mutating something else.
  if (have_node) {
    *error = "\"node\" and \"op\" are mutually exclusive";
    return false;
  }
  request->is_mutation = true;
  if (request->mutation.kind == Mutation::Kind::kAddNode) {
    if (!have_type) {
      *error = "\"op\":\"add_node\" requires \"type\"";
      return false;
    }
    if (have_edge || have_src || have_dst) {
      *error = "\"op\":\"add_node\" takes \"type\"/\"attrs\", not edge keys";
      return false;
    }
  } else {
    if (!have_edge || !have_src || !have_dst) {
      *error = std::string("\"op\":\"") +
               MutationOpName(request->mutation.kind) +
               "\" requires \"edge\", \"src\" and \"dst\"";
      return false;
    }
    if (have_type || have_attrs) {
      *error = std::string("\"op\":\"") +
               MutationOpName(request->mutation.kind) +
               "\" takes edge keys, not \"type\"/\"attrs\"";
      return false;
    }
  }
  return true;
}

std::string FormatServeResponse(const std::string& id,
                                const InferenceSession::Prediction& p,
                                int64_t latency_us) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                ",\"node\":%lld,\"label\":%lld,\"score\":%.6g,"
                "\"latency_us\":%lld}\n",
                static_cast<long long>(p.node),
                static_cast<long long>(p.label), p.score,
                static_cast<long long>(latency_us));
  return "{\"id\":\"" + EscapeJson(id) + "\"" + buf;
}

std::string FormatServeError(const std::string& id, const std::string& error) {
  return "{\"id\":\"" + EscapeJson(id) + "\",\"error\":\"" +
         EscapeJson(error) + "\"}\n";
}

std::string FormatServeReject(const std::string& id, const std::string& error,
                              const std::string& reason,
                              int64_t retry_after_ms) {
  std::string out = "{\"id\":\"" + EscapeJson(id) + "\",\"error\":\"" +
                    EscapeJson(error) + "\",\"reason\":\"" +
                    EscapeJson(reason) + "\"";
  if (retry_after_ms >= 0) {
    out += ",\"retry_after_ms\":" + std::to_string(retry_after_ms);
  }
  out += "}\n";
  return out;
}

std::string FormatMutationResponse(const std::string& id,
                                   const Mutation& mutation,
                                   const MutationResult& result,
                                   int64_t latency_us) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                ",\"applied\":\"%s\",\"node\":%lld,\"dirty_rows\":%lld,"
                "\"latency_us\":%lld}\n",
                MutationOpName(mutation.kind),
                static_cast<long long>(result.node),
                static_cast<long long>(result.dirty_rows),
                static_cast<long long>(latency_us));
  return "{\"id\":\"" + EscapeJson(id) + "\"" + buf;
}

bool SendAll(int fd, const char* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    size_t want = size - off;
    // Chaos: truncate one send to a single byte; the loop below must carry
    // the rest of the line across the "short write" unharmed.
    if (want > 1 && FaultTriggered("serve_partial_write")) want = 1;
    ssize_t n = ::send(fd, data + off, want, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Send buffer full (or SO_SNDTIMEO fired): wait until writable, then
      // retry. A dead peer turns this into POLLERR/POLLHUP and the next
      // send fails for real instead of looping.
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, /*timeout_ms=*/100);
      continue;
    }
    return false;  // genuine failure (EPIPE, ECONNRESET, EBADF, ...)
  }
  return true;
}

InferenceServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

InferenceServer::InferenceServer(ModelRegistry* registry,
                                 ServerOptions options)
    : registry_(registry),
      options_(std::move(options)),
      admission_(AdmissionController::Options{options_.rate_limit_rps,
                                              options_.rate_limit_burst,
                                              /*max_clients=*/4096}) {
  AUTOAC_CHECK(registry_ != nullptr);
  AUTOAC_CHECK(options_.max_line_bytes > 0)
      << "max_line_bytes must be positive";
}

int64_t InferenceServer::ClockNow() const {
  return options_.clock ? options_.clock() : NowMicros();
}

InferenceServer::~InferenceServer() {
  Stop();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& conn : connections_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (auto& [id, thread] : readers_) {
    (void)id;
    if (thread.joinable()) thread.join();
  }
  // Connection fds close in ~Connection when the last reference drops.
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

Status InferenceServer::Start() {
  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::Error("unix socket path too long: " +
                           options_.unix_path);
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::Error("socket() failed");
    ::unlink(options_.unix_path.c_str());  // the server owns this path
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return Status::Error("bind failed on " + options_.unix_path + ": " +
                           std::strerror(errno));
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::Error("socket() failed");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return Status::Error("bind failed on 127.0.0.1:" +
                           std::to_string(options_.tcp_port) + ": " +
                           std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      port_ = ntohs(bound.sin_port);
    }
  }
  if (::listen(listen_fd_, 64) != 0) {
    return Status::Error(std::string("listen failed: ") +
                         std::strerror(errno));
  }
  return Status::Ok();
}

bool InferenceServer::Stopping() const {
  return stop_.load(std::memory_order_relaxed) || ShutdownRequested();
}

void InferenceServer::Stop() { stop_.store(true, std::memory_order_relaxed); }

void InferenceServer::ReapFinishedReaders() {
  std::vector<uint64_t> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished.swap(finished_readers_);
  }
  for (uint64_t id : finished) {
    auto it = readers_.find(id);
    if (it == readers_.end()) continue;
    if (it->second.joinable()) it->second.join();
    readers_.erase(it);
  }
}

void InferenceServer::Serve() {
  AUTOAC_CHECK(listen_fd_ >= 0) << "call Start() before Serve()";
  while (!Stopping()) {
    ReapFinishedReaders();
    if (options_.poll_hook) options_.poll_hook();
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    // Chaos: stall before handling the client — a slow accept loop must
    // delay, never drop, the pending connection.
    if (FaultTriggered("serve_delayed_accept")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (options_.max_conns > 0) {
      bool refuse;
      {
        std::lock_guard<std::mutex> lock(mu_);
        refuse = static_cast<int64_t>(connections_.size()) >=
                 options_.max_conns;
      }
      if (refuse) {
        AUTOAC_COUNTER_ADD("serve.conns_refused", 1);
        // Immediate structured refusal: the client learns why and when to
        // retry instead of seeing a silent RST or hanging in the backlog.
        std::string line = FormatServeReject(
            "", "server at connection capacity", "max_conns",
            /*retry_after_ms=*/1000);
        SendAll(fd, line.data(), line.size());
        ::close(fd);
        continue;
      }
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    uint64_t id = next_reader_id_++;
    conn->identity = "conn:" + std::to_string(id);
    AUTOAC_COUNTER_ADD("serve.connections", 1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      connections_.push_back(conn);
    }
    readers_.emplace(id, std::thread(&InferenceServer::ReaderLoop, this, id,
                                     std::move(conn)));
  }
  // Cooperative wind-down: stop accepting and reading; each reader answers
  // the lines it already received, then exits. A reader still running
  // after the grace period is stuck (typically writing to a peer that never
  // reads), so its socket is shut down in both directions: the write fails
  // and the reader exits. Then every thread is joined, so callers observe a
  // fully quiesced server when Serve() returns.
  Stop();
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (const auto& conn : connections_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RD);
    }
    if (!reader_exited_.wait_for(lock, kDrainGrace,
                                 [&] { return connections_.empty(); })) {
      for (const auto& conn : connections_) {
        if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }
  for (auto& [id, thread] : readers_) {
    (void)id;
    if (thread.joinable()) thread.join();
  }
  readers_.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished_readers_.clear();
  }
}

bool InferenceServer::WriteLine(const Connection& conn,
                                const std::string& line) {
  bool sent = SendAll(conn.fd, line.data(), line.size());
  if (!sent) AUTOAC_COUNTER_ADD("serve.write_errors", 1);
  return sent;
}

bool InferenceServer::IngestLines(const Connection& conn, std::string* pending,
                                  int64_t arrival_us) {
  size_t start = 0;
  for (size_t nl = pending->find('\n', start); nl != std::string::npos;
       nl = pending->find('\n', start)) {
    std::string line = pending->substr(start, nl - start);
    start = nl + 1;
    if (line.empty()) continue;
    if (!Answer(conn, line, arrival_us)) return false;  // peer gone
  }
  pending->erase(0, start);
  if (static_cast<int64_t>(pending->size()) > options_.max_line_bytes) {
    AUTOAC_COUNTER_ADD("serve.overlong_lines", 1);
    WriteLine(conn,
              FormatServeError(
                  "", "request line exceeds " +
                          std::to_string(options_.max_line_bytes) +
                          " bytes"));
    return false;  // unbounded buffer growth: drop the connection
  }
  return true;
}

bool InferenceServer::Answer(const Connection& conn, const std::string& line,
                             int64_t arrival_us) {
  ServeRequest request;
  std::string error;
  if (!ParseServeRequestLine(line, &request, &error)) {
    AUTOAC_COUNTER_ADD("serve.malformed", 1);
    return WriteLine(conn, FormatServeError(request.id, error));
  }
  // Admission control runs before any heavier work (model resolution, the
  // overlay lock): a rejected request costs one bucket lookup. Identity is
  // the request's "client" key when present — one quota spanning that
  // client's connections — and the connection itself otherwise.
  if (admission_.enabled()) {
    const std::string& identity =
        request.client.empty() ? conn.identity : request.client;
    int64_t retry_after_ms = 0;
    if (!admission_.Admit(identity, ClockNow(), &retry_after_ms)) {
      AUTOAC_COUNTER_ADD("serve.rate_limited", 1);
      return WriteLine(conn, FormatServeReject(request.id, "rate limited",
                                               "rate_limited", retry_after_ms));
    }
  }
  // Resolve the model and pin what it resolves to: a hot reload from here
  // on swaps the registry entry, never this request's session.
  std::shared_ptr<MutableSession> overlay;
  std::shared_ptr<InferenceSession> session =
      registry_->Lookup(request.model, &overlay);
  if (session == nullptr) {
    AUTOAC_COUNTER_ADD("serve.unknown_model", 1);
    return WriteLine(conn, FormatServeError(request.id, "unknown model \"" +
                                                            request.model +
                                                            "\""));
  }
  if (request.is_mutation && overlay == nullptr) {
    return WriteLine(conn,
                     FormatServeError(request.id,
                                      "mutations disabled (start the server "
                                      "with --enable_mutations)"));
  }
  AUTOAC_COUNTER_ADD("serve.requests", 1);
  // Chaos: run a hot reload between pinning and answering. The request must
  // still be answered from its pinned session.
  if (options_.chaos_reload_hook &&
      FaultTriggered("serve_mid_request_reload")) {
    options_.chaos_reload_hook();
  }

  const int64_t deadline_us = DeadlineUs(arrival_us, request.deadline_ms);
  std::string response;
  bool answered = false;  // a prediction or an applied mutation
  InferenceSession::Prediction prediction;
  MutationResult mutation_result;
  int64_t latency_us = 0;
  {
    // A model with a mutation overlay answers all its predictions from the
    // overlay, under the overlay's lock: a clean row is the same
    // O(classes) lookup, a dirty row follows the staleness policy, and a
    // flush blocks readers of this model only. The lock is released before
    // the write, so a peer that stops reading stalls only its own reader.
    std::unique_lock<std::mutex> overlay_lock;
    if (overlay != nullptr) overlay_lock = overlay->Lock();
    // Checked after any wait for the lock, just before the work it guards.
    if (deadline_us >= 0 && NowMicros() > deadline_us) {
      AUTOAC_COUNTER_ADD("serve.deadline_expired", 1);
      response = FormatServeError(request.id, "deadline exceeded");
    } else if (request.is_mutation) {
      // Chaos: a validated mutation fails to apply — the client gets a
      // structured error, counters stay consistent (nothing applied, no
      // dirty rows), and the server keeps serving.
      if (FaultTriggered("serve_mutation_apply")) {
        response = FormatServeReject(request.id,
                                     "injected mutation-apply fault",
                                     "fault_injected", /*retry_after_ms=*/1);
      } else {
        StatusOr<MutationResult> applied =
            overlay->Apply(request.mutation, overlay_lock);
        latency_us = NowMicros() - arrival_us;
        if (applied.ok()) {
          answered = true;
          mutation_result = applied.value();
          AUTOAC_COUNTER_ADD("serve.mutations_applied", 1);
          AUTOAC_COUNTER_ADD("serve.dirty_rows", mutation_result.dirty_rows);
          response = FormatMutationResponse(request.id, request.mutation,
                                            mutation_result, latency_us);
        } else if (applied.status().message().find("(v1 artifact)") !=
                   std::string::npos) {
          // v1 artifacts (no completion section) refuse every mutation;
          // give clients a machine-readable reason so feeders can stop
          // retrying and surface the re-export hint, instead of
          // string-matching error prose.
          response = FormatServeReject(request.id, applied.status().message(),
                                       "artifact_v1_immutable",
                                       /*retry_after_ms=*/-1);
        } else {
          response = FormatServeError(request.id, applied.status().message());
        }
      }
    } else {
      StatusOr<InferenceSession::Prediction> predicted =
          overlay != nullptr ? overlay->Predict(request.node, overlay_lock)
                             : session->Predict(request.node);
      latency_us = NowMicros() - arrival_us;
      if (predicted.ok()) {
        answered = true;
        prediction = predicted.value();
        response = FormatServeResponse(request.id, prediction, latency_us);
      } else {
        response = FormatServeError(request.id, predicted.status().message());
      }
    }
  }
  if (!WriteLine(conn, response)) return false;
  if (!answered) return true;
  AUTOAC_COUNTER_ADD("serve.responses", 1);
  if (Telemetry::Enabled()) {
    if (request.is_mutation) {
      Telemetry::Get().Emit(
          MetricRecord("serve_mutation")
              .Add("op", MutationOpName(request.mutation.kind))
              .Add("dirty_rows", mutation_result.dirty_rows)
              .Add("latency_us", latency_us));
    } else {
      Telemetry::Get().Emit(MetricRecord("serve_request")
                                .Add("node", prediction.node)
                                .Add("label", prediction.label)
                                .Add("latency_us", latency_us));
    }
  }
  return true;
}

void InferenceServer::ReaderLoop(uint64_t reader_id,
                                 std::shared_ptr<Connection> conn) {
  std::string pending;
  char buf[4096];
  int64_t last_activity_us = NowMicros();
  bool idle_kill = false;
  while (!Stopping()) {
    // Poll with a bounded interval so idle connections are reaped and a
    // stopping server does not wait on a silent client.
    pollfd pfd{conn->fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      if (options_.idle_timeout_ms > 0 &&
          NowMicros() - last_activity_us >=
              options_.idle_timeout_ms * 1000) {
        idle_kill = true;  // slow-loris reap: notify, then drop
        break;
      }
      continue;
    }
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    // Every line these bytes complete arrived now: its latency and its
    // deadline count from here, including any time spent behind the lines
    // before it on this connection.
    const int64_t arrival_us = NowMicros();
    last_activity_us = arrival_us;
    size_t take = static_cast<size_t>(n);
    size_t first = take;
    // Chaos: withhold the tail of one recv, delivering it on a second
    // ingest pass — the line parser must treat a torn read exactly like
    // two short network reads.
    if (take > 1 && FaultTriggered("serve_torn_read")) first = take / 2;
    pending.append(buf, first);
    bool ok = IngestLines(*conn, &pending, arrival_us);
    if (ok && first < take) {
      pending.append(buf + first, take - first);
      ok = IngestLines(*conn, &pending, arrival_us);
    }
    if (!ok) break;
  }
  if (idle_kill) {
    AUTOAC_COUNTER_ADD("serve.idle_closed", 1);
    WriteLine(*conn, FormatServeReject("", "idle timeout", "idle_timeout",
                                       /*retry_after_ms=*/-1));
  }
  // Client gone (or this server is being dropped): stop both directions,
  // prune the connection from the live list, and hand the thread to the
  // accept loop for joining. The fd itself closes in ~Connection once the
  // live list and this reader have both released it.
  ::shutdown(conn->fd, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections_.erase(
        std::remove(connections_.begin(), connections_.end(), conn),
        connections_.end());
    finished_readers_.push_back(reader_id);
  }
  reader_exited_.notify_all();
}

}  // namespace autoac

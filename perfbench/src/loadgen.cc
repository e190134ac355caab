#include "loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <ctime>
#include <deque>
#include <utility>

namespace perfbench {
namespace {

int64_t NowUs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// A response longer than this is garbage; the connection is dropped.
constexpr size_t kMaxResponseBytes = 1 << 20;

struct Conn {
  int fd = -1;
  bool open = true;
  std::string out;  // unsent bytes start at out_head
  size_t out_head = 0;
  // (request index, offset in `out` one past its last byte), in send order.
  std::deque<std::pair<size_t, size_t>> unsent;
  std::string in;
};

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Sends as much of the outbox as the socket takes without blocking.
void Flush(Conn& c, std::vector<Reply>& replies, int64_t now) {
  while (c.open && c.out_head < c.out.size()) {
    ssize_t n = send(c.fd, c.out.data() + c.out_head, c.out.size() - c.out_head,
                     MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      c.out_head += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    c.open = false;  // peer gone
  }
  while (!c.unsent.empty() && c.unsent.front().second <= c.out_head) {
    replies[c.unsent.front().first].sent_us = now;
    c.unsent.pop_front();
  }
  if (c.out_head == c.out.size()) {
    c.out.clear();
    c.out_head = 0;
  } else if (c.out_head > (1 << 16) && c.out_head * 2 > c.out.size()) {
    c.out.erase(0, c.out_head);
    for (auto& u : c.unsent) u.second -= c.out_head;
    c.out_head = 0;
  }
}

// Reads every available byte and resolves complete response lines.
void Receive(Conn& c, std::vector<Reply>& replies, int64_t now,
             std::vector<size_t>* answered) {
  char buf[65536];
  while (c.open) {
    ssize_t n = recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      c.in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    c.open = false;  // EOF or error
  }
  size_t start = 0;
  while (true) {
    size_t nl = c.in.find('\n', start);
    if (nl == std::string::npos) break;
    std::string_view line(c.in.data() + start, nl - start);
    start = nl + 1;
    std::string id;
    size_t index = 0;
    if (!JsonString(line, "id", &id)) continue;
    auto [ptr, ec] = std::from_chars(id.data(), id.data() + id.size(), index);
    if (ec != std::errc() || ptr != id.data() + id.size() ||
        index >= replies.size() || replies[index].done_us >= 0) {
      continue;
    }
    replies[index].done_us = now;
    replies[index].line.assign(line);
    answered->push_back(index);
  }
  c.in.erase(0, start);
  if (c.in.size() > kMaxResponseBytes) c.open = false;
}

}  // namespace

DriveResult Drive(const std::vector<int>& fds,
                  const std::vector<Request>& requests, int64_t deadline_us) {
  const auto start = std::chrono::steady_clock::now();
  DriveResult result;
  result.replies.resize(requests.size());
  std::vector<Conn> conns(fds.size());
  for (size_t i = 0; i < fds.size(); ++i) {
    conns[i].fd = fds[i];
    SetNonBlocking(fds[i]);
  }
  std::vector<int64_t> pending_on(conns.size(), 0);  // released, unanswered
  std::vector<size_t> conn_of(requests.size());
  std::vector<size_t> just_answered;
  size_t next = 0;
  int64_t answered = 0;
  std::vector<pollfd> pfds(conns.size());
  while (answered < static_cast<int64_t>(requests.size())) {
    int64_t now = NowUs(start);
    if (now >= deadline_us) {
      result.hit_deadline = true;
      break;
    }
    while (next < requests.size() && requests[next].due_us <= now) {
      size_t c = static_cast<size_t>(requests[next].conn) % conns.size();
      conn_of[next] = c;
      conns[c].out += requests[next].line;
      conns[c].unsent.emplace_back(next, conns[c].out.size());
      ++pending_on[c];
      ++next;
    }
    for (Conn& c : conns) Flush(c, result.replies, NowUs(start));
    // Stop early once nothing can still be answered: every request was
    // released and the connections owning unanswered ones are closed.
    if (next == requests.size()) {
      bool any_open_pending = false;
      for (size_t c = 0; c < conns.size(); ++c) {
        if (conns[c].open && pending_on[c] > 0) any_open_pending = true;
      }
      if (!any_open_pending) break;
    }
    int64_t wake = deadline_us;
    if (next < requests.size()) wake = std::min(wake, requests[next].due_us);
    int64_t wait_us = std::max<int64_t>(0, wake - NowUs(start));
    for (size_t i = 0; i < conns.size(); ++i) {
      pfds[i].fd = conns[i].open ? conns[i].fd : -1;
      pfds[i].events = POLLIN;
      if (conns[i].out_head < conns[i].out.size()) pfds[i].events |= POLLOUT;
      pfds[i].revents = 0;
    }
    timespec ts{static_cast<time_t>(wait_us / 1000000),
                static_cast<long>((wait_us % 1000000) * 1000)};
    int ready = ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) break;
    now = NowUs(start);
    for (size_t i = 0; i < conns.size(); ++i) {
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        just_answered.clear();
        Receive(conns[i], result.replies, now, &just_answered);
        for (size_t index : just_answered) {
          --pending_on[conn_of[index]];
          ++answered;
        }
      }
      if (pfds[i].revents & POLLOUT) Flush(conns[i], result.replies, now);
    }
  }
  result.elapsed_us = NowUs(start);
  for (const Reply& r : result.replies) {
    if (r.done_us < 0) ++result.lost;
  }
  return result;
}

int ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.data(), path.size());
  int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  SetNonBlocking(fd);
  return fd;
}

namespace {

// Position just after `"key":` (and any spaces), or npos.
size_t ValueStart(std::string_view line, std::string_view key) {
  std::string pattern = "\"" + std::string(key) + "\":";
  size_t pos = line.find(pattern);
  if (pos == std::string_view::npos) return pos;
  pos += pattern.size();
  while (pos < line.size() && line[pos] == ' ') ++pos;
  return pos;
}

}  // namespace

bool JsonString(std::string_view line, std::string_view key,
                std::string* out) {
  size_t pos = ValueStart(line, key);
  if (pos == std::string_view::npos || pos >= line.size() ||
      line[pos] != '"') {
    return false;
  }
  size_t end = line.find('"', pos + 1);
  if (end == std::string_view::npos) return false;
  out->assign(line.substr(pos + 1, end - pos - 1));
  return true;
}

bool JsonNumber(std::string_view line, std::string_view key, double* out) {
  size_t pos = ValueStart(line, key);
  if (pos == std::string_view::npos) return false;
  auto [ptr, ec] =
      std::from_chars(line.data() + pos, line.data() + line.size(), *out);
  return ec == std::errc() && ptr != line.data() + pos;
}

bool JsonHas(std::string_view line, std::string_view key) {
  return ValueStart(line, key) != std::string_view::npos;
}

Outcome Classify(const Reply& reply, bool answer_ok) {
  if (reply.done_us < 0) return Outcome::kLost;
  if (JsonHas(reply.line, "reason")) return Outcome::kRejected;
  if (JsonHas(reply.line, "error")) return Outcome::kError;
  return answer_ok ? Outcome::kOk : Outcome::kWrong;
}

void FailureCounts::Add(Outcome outcome) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk:
      break;
    case Outcome::kError:
      ++error;
      break;
    case Outcome::kRejected:
      ++rejected;
      break;
    case Outcome::kWrong:
      ++wrong;
      break;
    case Outcome::kLost:
      ++lost;
      break;
  }
}

}  // namespace perfbench

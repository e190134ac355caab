// Unit tests of the benchmark's own machinery: percentile selection, seeded
// schedules, lag and failure accounting, and a server that stops reading.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "loadgen.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailPercentile, KeepsRequestedPercentileWhenTenSamplesLieBeyond) {
  Tail t = TailPercentile(Ramp(1000), 99.0);
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_DOUBLE_EQ(t.value, 990.0);  // 10 samples (991..1000) beyond
  EXPECT_EQ(t.samples, 1000);
}

TEST(TailPercentile, FallsBackToHighestPercentileWithTenBeyond) {
  Tail t = TailPercentile(Ramp(200), 99.0);
  EXPECT_DOUBLE_EQ(t.percentile, 95.0);
  EXPECT_DOUBLE_EQ(t.value, 190.0);  // exactly 10 beyond
  EXPECT_EQ(t.samples, 200);
  Tail p90 = TailPercentile(Ramp(100), 95.0);
  EXPECT_DOUBLE_EQ(p90.percentile, 90.0);
  EXPECT_DOUBLE_EQ(p90.value, 90.0);
  Tail uneven = TailPercentile(Ramp(120), 95.0);
  EXPECT_NEAR(uneven.percentile, 100.0 * 110 / 120, 1e-9);
  EXPECT_DOUBLE_EQ(uneven.value, 110.0);
}

TEST(TailPercentile, NeverReportsBelowTheMedian) {
  Tail t = TailPercentile(Ramp(12), 99.0);
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_DOUBLE_EQ(t.value, 6.0);
  EXPECT_DOUBLE_EQ(TailPercentile({}, 99.0).value, 0.0);
}

TEST(Schedule, SameSeedSameArrivalsOtherSeedOther) {
  std::vector<int64_t> a = PoissonArrivals(7, 1000.0, 2'000'000);
  std::vector<int64_t> b = PoissonArrivals(7, 1000.0, 2'000'000);
  std::vector<int64_t> c = PoissonArrivals(8, 1000.0, 2'000'000);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_GT(a.size(), 1800u);
  EXPECT_LT(a.size(), 2200u);
  for (size_t i = 1; i < a.size(); ++i) EXPECT_LE(a[i - 1], a[i]);
  EXPECT_LT(a.back(), 2'000'000);
}

TEST(Schedule, ConsecutiveSeedsGiveUnrelatedStreams) {
  std::vector<int64_t> a = PoissonArrivals(StreamSeed(7, 1), 1000.0, 2'000'000);
  std::vector<int64_t> b = PoissonArrivals(StreamSeed(8, 1), 1000.0, 2'000'000);
  std::vector<int64_t> c = PoissonArrivals(StreamSeed(7, 2), 1000.0, 2'000'000);
  EXPECT_EQ(a, PoissonArrivals(StreamSeed(7, 1), 1000.0, 2'000'000));
  // A plain splitmix seeded with n and n+1 yields one stream shifted by a
  // draw; count gaps that line up that way.
  auto shifted_matches = [](const std::vector<int64_t>& x,
                            const std::vector<int64_t>& y) {
    int matches = 0;
    for (size_t i = 2; i < x.size() && i < y.size(); ++i) {
      matches += (x[i] - x[i - 1]) == (y[i - 1] - y[i - 2]);
    }
    return matches;
  };
  EXPECT_LT(shifted_matches(a, b), 20);
  EXPECT_LT(shifted_matches(b, a), 20);
  EXPECT_LT(shifted_matches(a, c), 20);
}

// A unix-socket server on its own thread. `respond` maps a request line to
// the response line (empty: no response) until `stop_reading_after` lines;
// after that it stops reading altogether.
class FakeServer {
 public:
  using Responder = std::string (*)(const std::string& line, int index);
  FakeServer(const std::string& path, Responder respond, int stop_after)
      : path_(path), respond_(respond), stop_after_(stop_after) {
    unlink(path.c_str());
    listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    EXPECT_EQ(bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(listen(listen_fd_, 4), 0);
    thread_ = std::thread([this] { Serve(); });
  }
  ~FakeServer() {
    done_ = true;
    shutdown(listen_fd_, SHUT_RDWR);
    if (conn_fd_ >= 0) shutdown(conn_fd_, SHUT_RDWR);
    thread_.join();
    close(listen_fd_);
    if (conn_fd_ >= 0) close(conn_fd_);
    unlink(path_.c_str());
  }

 private:
  void Serve() {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    conn_fd_ = fd;
    std::string buf;
    int index = 0;
    char chunk[4096];
    while (!done_ && index < stop_after_) {
      ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return;
      buf.append(chunk, static_cast<size_t>(n));
      size_t nl;
      while ((nl = buf.find('\n')) != std::string::npos && index < stop_after_) {
        std::string reply = respond_(buf.substr(0, nl), index++);
        buf.erase(0, nl + 1);
        if (!reply.empty()) {
          reply += "\n";
          send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
        }
      }
    }
    while (!done_) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  std::string path_;
  Responder respond_;
  int stop_after_;
  int listen_fd_ = -1;
  std::atomic<int> conn_fd_{-1};
  std::atomic<bool> done_{false};
  std::thread thread_;
};

std::string SocketPath(const char* tag) {
  return "perfbench_test_" + std::string(tag) + "_" +
         std::to_string(getpid()) + ".sock";
}

std::vector<Request> Requests(int n, int64_t gap_us) {
  std::vector<Request> reqs;
  for (int i = 0; i < n; ++i) {
    reqs.push_back({i * gap_us, 0,
                    "{\"id\":\"" + std::to_string(i) + "\",\"node\":" +
                        std::to_string(i) + "}\n"});
  }
  return reqs;
}

std::string EchoId(const std::string& line) {
  std::string id;
  JsonString(line, "id", &id);
  return id;
}

TEST(Drive, LagIsSendTimeMinusScheduleAndLatencyCountsFromSchedule) {
  const std::string path = SocketPath("lag");
  FakeServer server(
      path,
      [](const std::string& line, int) {
        return "{\"id\":\"" + EchoId(line) + "\",\"label\":1}";
      },
      1 << 30);
  int fd = ConnectUnix(path);
  ASSERT_GE(fd, 0);
  std::vector<Request> reqs = Requests(50, 2000);
  DriveResult r = Drive({fd}, reqs, 5'000'000);
  close(fd);
  EXPECT_EQ(r.lost, 0);
  EXPECT_FALSE(r.hit_deadline);
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Reply& reply = r.replies[i];
    ASSERT_GE(reply.sent_us, reqs[i].due_us) << "sent before its schedule";
    EXPECT_LT(reply.sent_us - reqs[i].due_us, 100'000) << "lag " << i;
    EXPECT_GE(reply.done_us, reply.sent_us);
    EXPECT_EQ(EchoId(reply.line), std::to_string(i));
  }
  // The whole schedule spans ~98 ms: an open loop does not finish early.
  EXPECT_GE(r.elapsed_us, reqs.back().due_us);
}

TEST(Drive, CountsRefusedErroredWrongAndLostAnswers) {
  const std::string path = SocketPath("fail");
  FakeServer server(
      path,
      [](const std::string& line, int index) -> std::string {
        std::string id = EchoId(line);
        switch (index % 5) {
          case 0:
            return "{\"id\":\"" + id + "\",\"label\":1}";
          case 1:
            return "{\"id\":\"" + id +
                   "\",\"error\":\"overloaded\",\"reason\":\"overloaded\","
                   "\"retry_after_ms\":5}";
          case 2:
            return "{\"id\":\"" + id + "\",\"error\":\"unknown node\"}";
          case 3:
            return "{\"id\":\"" + id + "\",\"label\":2}";  // wrong label
          default:
            return "";  // never answered
        }
      },
      1 << 30);
  int fd = ConnectUnix(path);
  ASSERT_GE(fd, 0);
  std::vector<Request> reqs = Requests(20, 100);
  DriveResult r = Drive({fd}, reqs, 300'000);
  close(fd);
  EXPECT_TRUE(r.hit_deadline);
  EXPECT_EQ(r.lost, 4);
  FailureCounts counts;
  for (const Reply& reply : r.replies) {
    double label = -1;
    counts.Add(Classify(reply, JsonNumber(reply.line, "label", &label) &&
                                   label == 1));
  }
  EXPECT_EQ(counts.attempted, 20);
  EXPECT_EQ(counts.rejected, 4);
  EXPECT_EQ(counts.error, 4);
  EXPECT_EQ(counts.wrong, 4);
  EXPECT_EQ(counts.lost, 4);
  EXPECT_EQ(counts.failed(), 16);
}

TEST(Drive, ServerThatStopsReadingEndsAtTheDeadlineWithFailuresCounted) {
  const std::string path = SocketPath("stall");
  FakeServer server(
      path,
      [](const std::string& line, int) {
        return "{\"id\":\"" + EchoId(line) + "\",\"label\":1}";
      },
      10);  // answers 10 requests, then never reads again
  int fd = ConnectUnix(path);
  ASSERT_GE(fd, 0);
  // ~9 MB of requests due at once: far more than the socket buffers hold,
  // so a blocking send would wedge here forever.
  std::vector<Request> reqs;
  const std::string pad(120, 'x');
  for (int i = 0; i < 60000; ++i) {
    reqs.push_back({0, 0,
                    "{\"id\":\"" + std::to_string(i) + "\",\"node\":1,\"pad\":\"" +
                        pad + "\"}\n"});
  }
  const auto start = std::chrono::steady_clock::now();
  DriveResult r = Drive({fd}, reqs, 500'000);
  const double took = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  close(fd);
  EXPECT_TRUE(r.hit_deadline);
  EXPECT_LT(took, 2.0);
  EXPECT_EQ(r.lost, 60000 - 10);
  int64_t unsent = 0;
  for (const Reply& reply : r.replies) unsent += reply.sent_us < 0;
  EXPECT_GT(unsent, 0) << "the outbox should still hold requests";
}

TEST(Json, ExtractsStringsAndNumbers) {
  const std::string line =
      "{\"id\":\"r7\",\"node\":42,\"label\":3,\"score\":5.17,\"latency_us\":812}";
  std::string id;
  double score = 0, missing = 0;
  EXPECT_TRUE(JsonString(line, "id", &id));
  EXPECT_EQ(id, "r7");
  EXPECT_TRUE(JsonNumber(line, "score", &score));
  EXPECT_DOUBLE_EQ(score, 5.17);
  EXPECT_FALSE(JsonNumber(line, "error", &missing));
  EXPECT_FALSE(JsonHas(line, "reason"));
}

}  // namespace
}  // namespace perfbench

// Open-loop request generator for a newline-JSON socket server.
//
// One thread drives every connection. Sockets are non-blocking; each
// connection has an outbox, and one poll() waits for input, for output room
// and for the next scheduled arrival together, so a send never waits on a
// receive: a server that stops reading only grows the outbox. The run ends
// when every request is answered, when every unanswered request sits on a
// closed connection, or at the deadline; whatever is unanswered then counts
// as lost.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Request {
  int64_t due_us = 0;  // scheduled arrival, microseconds from the run start
  int conn = 0;        // index into the connection list
  /// One request line including its trailing newline. It must carry
  /// "id":"<index of this request>" so the response can be matched.
  std::string line;
};

struct Reply {
  int64_t sent_us = -1;  // when send() took the last byte (-1: never sent)
  int64_t done_us = -1;  // when the response line arrived (-1: lost)
  std::string line;      // response without its newline
};

struct DriveResult {
  std::vector<Reply> replies;  // one per request, same order
  int64_t lost = 0;            // requests without a response at the end
  bool hit_deadline = false;
  int64_t elapsed_us = 0;
};

/// Sends `requests` (sorted by due_us) over `fds` and collects responses.
/// The fds are switched to non-blocking mode; the caller keeps ownership.
DriveResult Drive(const std::vector<int>& fds,
                  const std::vector<Request>& requests, int64_t deadline_us);

/// Connects a non-blocking client socket to a unix-domain path; -1 on error.
int ConnectUnix(const std::string& path);

/// Field extraction from one flat JSON response line. Returns false when the
/// key is absent.
bool JsonString(std::string_view line, std::string_view key, std::string* out);
bool JsonNumber(std::string_view line, std::string_view key, double* out);
bool JsonHas(std::string_view line, std::string_view key);

/// How a response resolved its request.
enum class Outcome { kOk, kError, kRejected, kWrong, kLost };

/// Classifies a reply: lost without a response, rejected when it carries a
/// machine-readable "reason", error on any other "error" key, and wrong
/// when `answer_ok` is false for a well-formed answer.
Outcome Classify(const Reply& reply, bool answer_ok);

struct FailureCounts {
  int64_t attempted = 0;
  int64_t error = 0;
  int64_t rejected = 0;
  int64_t wrong = 0;
  int64_t lost = 0;
  int64_t failed() const { return error + rejected + wrong + lost; }
  void Add(Outcome outcome);
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_

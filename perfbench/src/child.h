// The served program as a child process: spawn, wait until its socket
// accepts, read its CPU time and peak RSS from /proc, stop it.
#ifndef PERFBENCH_CHILD_H_
#define PERFBENCH_CHILD_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class ServerChild {
 public:
  ServerChild() = default;
  ~ServerChild() { Stop(); }
  ServerChild(const ServerChild&) = delete;
  ServerChild& operator=(const ServerChild&) = delete;

  /// Spawns `argv` (argv[0] is the binary path) with stdout and stderr
  /// appended to `log_path`, then polls `socket_path` until a connection is
  /// accepted. Returns false (child stopped) if the child exits or the
  /// socket does not accept within `timeout_s`. `ready_s` receives the time
  /// from spawn to the first accepted connection.
  bool Start(const std::vector<std::string>& argv, const std::string& log_path,
             const std::string& socket_path, double timeout_s, double* ready_s);

  /// CPU time of all the child's threads so far (sum of the first field of
  /// /proc/<pid>/task/*/schedstat), in nanoseconds.
  int64_t CpuNs() const;

  /// Peak resident set (VmHWM) in MiB; 0 when unavailable.
  double PeakRssMb() const;

  /// SIGTERM, then SIGKILL after 5 s; waits for the child to end. Returns
  /// true when it exited with status 0 on SIGTERM.
  bool Stop();

 private:
  pid_t pid_ = -1;
};

/// Peak resident set (VmHWM) of /proc/<pid>/status in MiB; "self" for this
/// process. 0 when unavailable.
double VmHwmMb(const std::string& pid);

}  // namespace perfbench

#endif  // PERFBENCH_CHILD_H_

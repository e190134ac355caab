#include "child.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "loadgen.h"

namespace perfbench {

bool ServerChild::Start(const std::vector<std::string>& argv,
                        const std::string& log_path,
                        const std::string& socket_path, double timeout_s,
                        double* ready_s) {
  Stop();
  unlink(socket_path.c_str());
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const auto start = std::chrono::steady_clock::now();
  pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec. The child dies
    // with the benchmark, so a killed run leaves no server behind.
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    int fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    execv(args[0], args.data());
    _exit(127);
  }
  pid_ = pid;
  while (true) {
    int fd = ConnectUnix(socket_path);
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    if (fd >= 0) {
      close(fd);
      *ready_s = elapsed;
      return true;
    }
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    if (elapsed > timeout_s) {
      Stop();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

int64_t ServerChild::CpuNs() const {
  if (pid_ <= 0) return 0;
  std::string dir = "/proc/" + std::to_string(pid_) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  int64_t total = 0;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    long long ns = 0;
    if (in >> ns) total += ns;
  }
  closedir(d);
  return total;
}

double ServerChild::PeakRssMb() const {
  return pid_ > 0 ? VmHwmMb(std::to_string(pid_)) : 0.0;
}

bool ServerChild::Stop() {
  if (pid_ <= 0) return false;
  kill(pid_, SIGTERM);
  int status = 0;
  bool clean = false;
  const auto start = std::chrono::steady_clock::now();
  while (true) {
    pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      break;
    }
    if (r < 0) break;
    if (std::chrono::steady_clock::now() - start > std::chrono::seconds(5)) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return clean;
}

double VmHwmMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench

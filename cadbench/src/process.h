#ifndef CADBENCH_PROCESS_H_
#define CADBENCH_PROCESS_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace cadbench {

/// How a child process ended, read from outside with wait4().
struct ExitInfo {
  /// Exit code, or 128 + signal number when a signal ended it.
  int code = -1;
  /// Spawn to reap.
  double wall_s = 0.0;
  /// Peak resident set size of the child (ru_maxrss).
  double peak_rss_mb = 0.0;
};

/// \brief A child process started with posix_spawn. Its stdout and stderr
/// go to files. The destructor kills (SIGKILL) and reaps a child that was
/// never waited for, so no process outlives the benchmark.
class ChildProcess {
 public:
  static cad::Result<std::unique_ptr<ChildProcess>> Spawn(
      const std::vector<std::string>& argv, const std::string& stdout_path,
      const std::string& stderr_path);

  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// Blocks until the child exits.
  [[nodiscard]] cad::Result<ExitInfo> Wait();

  /// Non-blocking Wait: true (and `*info` filled) once the child has exited.
  [[nodiscard]] cad::Result<bool> TryWait(ExitInfo* info);

  pid_t pid() const { return pid_; }

 private:
  ChildProcess(pid_t pid, uint64_t start_ns) : pid_(pid), start_ns_(start_ns) {}
  [[nodiscard]] cad::Result<bool> Reap(bool block, ExitInfo* info);

  pid_t pid_;
  uint64_t start_ns_;
  bool reaped_ = false;
};

/// Spawns and waits.
[[nodiscard]] cad::Result<ExitInfo> RunChild(
    const std::vector<std::string>& argv, const std::string& stdout_path,
    const std::string& stderr_path);

/// Peak resident set size of this process so far, in MB.
double SelfPeakRssMb();

}  // namespace cadbench

#endif  // CADBENCH_PROCESS_H_

#include "process.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <cerrno>

#include "spans.h"

extern char** environ;

namespace cadbench {

cad::Result<std::unique_ptr<ChildProcess>> ChildProcess::Spawn(
    const std::vector<std::string>& argv, const std::string& stdout_path,
    const std::string& stderr_path) {
  if (argv.empty()) return cad::Status::InvalidArgument("empty argv");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  pid_t pid = 0;
  const uint64_t start_ns = NowNs();
  const int spawned =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) {
    return cad::Status::IoError("cannot start " + argv[0] + " (error " +
                                std::to_string(spawned) + ")");
  }
  return std::unique_ptr<ChildProcess>(new ChildProcess(pid, start_ns));
}

ChildProcess::~ChildProcess() {
  if (reaped_) return;
  ::kill(pid_, SIGKILL);
  ExitInfo ignored;
  (void)Reap(/*block=*/true, &ignored);
}

cad::Result<bool> ChildProcess::Reap(bool block, ExitInfo* info) {
  if (reaped_) return cad::Status::FailedPrecondition("child already reaped");
  int status = 0;
  struct rusage usage {};
  pid_t done = 0;
  do {
    done = ::wait4(pid_, &status, block ? 0 : WNOHANG, &usage);
  } while (done < 0 && errno == EINTR);
  if (done < 0) {
    return cad::Status::IoError("wait4 failed (errno " + std::to_string(errno) +
                                ")");
  }
  if (done == 0) return false;
  reaped_ = true;
  info->wall_s = static_cast<double>(NowNs() - start_ns_) / 1e9;
  info->peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  info->code = WIFEXITED(status)     ? WEXITSTATUS(status)
               : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                     : -1;
  return true;
}

cad::Result<ExitInfo> ChildProcess::Wait() {
  ExitInfo info;
  cad::Result<bool> reaped = Reap(/*block=*/true, &info);
  if (!reaped.ok()) return reaped.status();
  return info;
}

cad::Result<bool> ChildProcess::TryWait(ExitInfo* info) {
  return Reap(/*block=*/false, info);
}

cad::Result<ExitInfo> RunChild(const std::vector<std::string>& argv,
                               const std::string& stdout_path,
                               const std::string& stderr_path) {
  cad::Result<std::unique_ptr<ChildProcess>> child =
      ChildProcess::Spawn(argv, stdout_path, stderr_path);
  if (!child.ok()) return child.status();
  return (*child)->Wait();
}

double SelfPeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace cadbench

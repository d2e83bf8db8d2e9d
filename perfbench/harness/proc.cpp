#include "proc.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util.hpp"

extern char** environ;

namespace perfbench {
namespace {

ExitInfo exit_info(int status, const rusage& usage) {
  ExitInfo info;
  info.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  info.signal = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
  info.cpu_s = static_cast<double>(usage.ru_utime.tv_sec) +
               static_cast<double>(usage.ru_utime.tv_usec) * 1e-6 +
               static_cast<double>(usage.ru_stime.tv_sec) +
               static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  info.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  return info;
}

}  // namespace

std::string ExitInfo::failure() const {
  std::string out = signal != 0 ? "killed by signal " + std::to_string(signal)
                                : "exited with " + std::to_string(code);
  if (!log_tail.empty()) out += ", its log ends:\n" + log_tail;
  return out;
}

ChildProcess::ChildProcess(const std::vector<std::string>& argv,
                           const std::string& log_path)
    : log_path_(log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  std::vector<std::string> env_storage;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "ESM_THREADS=", 12) != 0) env_storage.emplace_back(*e);
  }
  std::vector<char*> env;
  for (std::string& e : env_storage) env.push_back(e.data());
  env.push_back(nullptr);
  const pid_t parent = getpid();

  pid_ = fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // Only async-signal-safe calls between fork and exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(126);
    const int fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    execve(args[0], args.data(), env.data());
    _exit(127);
  }
}

ChildProcess::~ChildProcess() {
  if (reaped_ || pid_ <= 0) return;
  kill(pid_, SIGKILL);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

ExitInfo ChildProcess::reaped(int status, const rusage& usage) {
  reaped_ = true;
  ExitInfo info = exit_info(status, usage);
  if (info.code != 0) {
    // The run directory is deleted after the run, so a failing child's
    // last words go to the harness's stderr with the failure.
    constexpr std::size_t kTail = 2048;
    const std::string log = read_file(log_path_);
    info.log_tail = log.size() > kTail ? log.substr(log.size() - kTail) : log;
  }
  return info;
}

ExitInfo ChildProcess::wait() {
  int status = 0;
  rusage usage{};
  while (wait4(pid_, &status, 0, &usage) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  return reaped(status, usage);
}

ExitInfo ChildProcess::wait_or_kill(double timeout_s) {
  const double deadline = now_s() + timeout_s;
  int status = 0;
  rusage usage{};
  for (;;) {
    const pid_t got = wait4(pid_, &status, WNOHANG, &usage);
    if (got == pid_) return reaped(status, usage);
    if (got < 0 && errno != EINTR) throw std::runtime_error("wait4 failed");
    if (now_s() > deadline) {
      kill(pid_, SIGKILL);
      return wait();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

int wait_for_port_file(const std::string& path, ChildProcess& child,
                       double timeout_s) {
  const double deadline = now_s() + timeout_s;
  for (;;) {
    const std::string text = read_file(path);
    if (!text.empty() && text.back() == '\n') return std::stoi(text);
    siginfo_t info{};
    // WNOWAIT leaves the exited child for ChildProcess to reap.
    if (waitid(P_PID, static_cast<id_t>(child.pid()), &info,
               WEXITED | WNOHANG | WNOWAIT) == 0 &&
        info.si_pid == child.pid()) {
      throw std::runtime_error("server exited before writing " + path +
                               ", its log:\n" + read_file(child.log_path()));
    }
    if (now_s() > deadline) {
      throw std::runtime_error("timed out waiting for " + path);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

double proc_cpu_s(pid_t pid) {
  // Per-thread run time in nanoseconds (first field of each task's
  // schedstat); the 10 ms ticks of /proc/<pid>/stat are too coarse for
  // quarter-second windows.
  const std::string base = "/proc/" + std::to_string(pid) + "/task";
  double ns = 0.0;
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator(base, ec)) {
    std::istringstream in(read_file(task.path().string() + "/schedstat"));
    double run_ns = 0.0;
    if (in >> run_ns) ns += run_ns;
  }
  return ns * 1e-9;
}

HostCpu read_host_cpu() {
  std::istringstream in(read_file("/proc/stat"));
  std::string label;
  in >> label;
  HostCpu cpu;
  double value = 0.0;
  for (int i = 0; i < 8 && in >> value; ++i) {
    cpu.total += value;
    if (i == 7) cpu.steal = value;
  }
  return cpu;
}

double steal_share(const HostCpu& before, const HostCpu& after) {
  const double total = after.total - before.total;
  return total > 0 ? (after.steal - before.steal) / total : 0.0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace perfbench

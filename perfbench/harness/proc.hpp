// Child processes and /proc readings for the harness: the shipped
// binaries run as children that die with the harness, are always reaped,
// and report their CPU and peak memory through wait4.
#pragma once

#include <sys/resource.h>
#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

struct ExitInfo {
  int code = -1;         ///< exit code; -1 when killed by a signal
  int signal = 0;        ///< the killing signal, 0 when the child exited
  double cpu_s = 0.0;    ///< user + system CPU seconds
  double max_rss_mb = 0.0;
  std::string log_tail;  ///< end of the child's log when code != 0

  /// "exited with 2" or "killed by signal 9", then the log tail if any.
  std::string failure() const;
};

/// A started program. The destructor kills and reaps it if it still runs.
class ChildProcess {
 public:
  /// Starts argv[0] with `argv`, stdout and stderr appended to `log_path`,
  /// and the environment minus ESM_THREADS so every program runs at its
  /// shipped default thread count. The child is killed if the harness
  /// dies first.
  ChildProcess(const std::vector<std::string>& argv,
               const std::string& log_path);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  pid_t pid() const { return pid_; }
  const std::string& log_path() const { return log_path_; }

  /// Blocks until the child exits.
  ExitInfo wait();

  /// Waits up to `timeout_s`; kills the child when it is still running.
  ExitInfo wait_or_kill(double timeout_s);

 private:
  ExitInfo reaped(int status, const rusage& usage);

  pid_t pid_ = -1;
  bool reaped_ = false;
  std::string log_path_;
};

/// Polls until `path` holds a port number; throws on timeout or when
/// `child` exits first.
int wait_for_port_file(const std::string& path, ChildProcess& child,
                       double timeout_s);

/// CPU seconds the live threads of a running process have used.
double proc_cpu_s(pid_t pid);

/// Aggregate jiffies from the first line of /proc/stat.
struct HostCpu {
  double total = 0.0;
  double steal = 0.0;
};
HostCpu read_host_cpu();

/// Share of the host's CPU time the hypervisor stole between two readings.
double steal_share(const HostCpu& before, const HostCpu& after);

/// Reads a whole file; empty when it cannot be read.
std::string read_file(const std::string& path);

}  // namespace perfbench

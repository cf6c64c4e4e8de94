#pragma once
// Process, socket and /proc plumbing for the harness: daemons run in
// their own process group so one kill reaches the router and every shard
// child, and every socket read has a deadline so a hung request is
// counted as failed instead of stalling the run.

#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// A spawned daemon: the leader of its own process group.
class Daemon {
 public:
  Daemon() = default;
  /// fork + exec `argv` with stdout/stderr appended to `log_path`.
  Daemon(const std::vector<std::string>& argv, const std::string& log_path);
  ~Daemon() { kill_all(); }
  Daemon(Daemon&& o) noexcept : pid_(o.pid_) { o.pid_ = -1; }
  Daemon& operator=(Daemon&& o) noexcept;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  bool running() const { return pid_ > 0; }
  /// Waits up to `seconds` for the leader to exit on its own (after a
  /// `shutdown` request); true when it did.
  bool wait_exit(double seconds);
  /// SIGTERM the group, then SIGKILL after a grace period; reaps the
  /// leader.  Idempotent.
  void kill_all();

 private:
  pid_t pid_ = -1;
};

/// fork + exec `argv` (output appended to `log_path`) and wait for it;
/// returns the exit status, or -1 when it did not exit within `timeout_s`
/// (it is killed then).
int run_cmd(const std::vector<std::string>& argv, const std::string& log_path,
            double timeout_s);

/// This process and its daemon processes: pid plus every descendant.
std::vector<pid_t> process_tree(pid_t root);
/// utime + stime of `pid` in milliseconds, its exited threads included
/// (0 if it is gone).
double cpu_ms(pid_t pid);
/// VmHWM of `pid` in MiB (0 if it is gone).
double peak_rss_mb(pid_t pid);

/// A blocking line connection to a Unix-domain socket with per-read
/// deadlines.
class LineConn {
 public:
  LineConn() = default;
  /// Connects, retrying for up to `retry_seconds` while the daemon binds.
  static std::optional<LineConn> connect(const std::string& path,
                                         double retry_seconds);
  LineConn(LineConn&& o) noexcept;
  LineConn& operator=(LineConn&& o) noexcept;
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;
  ~LineConn();

  /// Sends `line` plus '\n'; false on transport failure.
  bool send(const std::string& line);
  /// Next response line (no '\n'), or nullopt on timeout / close / error.
  std::optional<std::string> recv(double timeout_seconds);
  /// send + recv.
  std::optional<std::string> call(const std::string& line,
                                  double timeout_seconds);

 private:
  void close();
  int fd_ = -1;
  std::string buf_;
};

/// Seconds on the monotonic clock.
double now_s();

}  // namespace perfbench

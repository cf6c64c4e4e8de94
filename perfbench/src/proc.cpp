#include "proc.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Daemon ------------------------------------------------------------------

namespace {

// fork + exec in a new process group; the child dies with the harness.
pid_t spawn(const std::vector<std::string>& argv, const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    ::setpgid(0, 0);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::setpgid(pid, pid);  // also from the parent: no race with a group kill
  return pid;
}

}  // namespace

Daemon::Daemon(const std::vector<std::string>& argv,
               const std::string& log_path)
    : pid_(spawn(argv, log_path)) {}

Daemon& Daemon::operator=(Daemon&& o) noexcept {
  if (this != &o) {
    kill_all();
    pid_ = o.pid_;
    o.pid_ = -1;
  }
  return *this;
}

bool Daemon::wait_exit(double seconds) {
  if (pid_ <= 0) return true;
  const double deadline = now_s() + seconds;
  while (now_s() < deadline) {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno == ECHILD)) {
      // The leader is gone; stragglers in its group (shard workers) too.
      ::kill(-pid_, SIGKILL);
      pid_ = -1;
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

void Daemon::kill_all() {
  const pid_t pid = pid_;
  if (pid <= 0) return;
  ::kill(-pid, SIGTERM);
  if (!wait_exit(2.0)) {
    ::kill(-pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  ::kill(-pid, SIGKILL);  // stragglers of the group
  pid_ = -1;
}

int run_cmd(const std::vector<std::string>& argv, const std::string& log_path,
            double timeout_s) {
  const pid_t pid = spawn(argv, log_path);
  if (pid <= 0) return -1;
  const double deadline = now_s() + timeout_s;
  int status = 0;
  while (now_s() < deadline) {
    if (::waitpid(pid, &status, WNOHANG) == pid)
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(-pid, SIGKILL);
  ::waitpid(pid, &status, 0);
  return -1;
}

// --- /proc ---------------------------------------------------------------------

namespace {

// Fields of /proc/<pid>/stat after the parenthesised comm.
std::vector<std::string> stat_fields(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto close = text.rfind(')');
  if (close == std::string::npos) return {};
  std::istringstream rest(text.substr(close + 1));
  std::vector<std::string> f;
  for (std::string s; rest >> s;) f.push_back(s);
  return f;  // f[0] = state, f[1] = ppid, f[11] = utime, f[12] = stime
}

}  // namespace

std::vector<pid_t> process_tree(pid_t root) {
  std::vector<std::pair<pid_t, pid_t>> parent_of;  // (pid, ppid)
  if (DIR* d = ::opendir("/proc")) {
    while (dirent* e = ::readdir(d)) {
      char* end = nullptr;
      const long pid = std::strtol(e->d_name, &end, 10);
      if (end == e->d_name || *end != '\0') continue;
      const auto f = stat_fields(static_cast<pid_t>(pid));
      if (f.size() > 1)
        parent_of.emplace_back(static_cast<pid_t>(pid),
                               static_cast<pid_t>(std::stol(f[1])));
    }
    ::closedir(d);
  }
  std::vector<pid_t> tree = {root};
  for (std::size_t i = 0; i < tree.size(); ++i)
    for (const auto& [pid, ppid] : parent_of)
      if (ppid == tree[i]) tree.push_back(pid);
  return tree;
}

double cpu_ms(pid_t pid) {
  const auto f = stat_fields(pid);
  if (f.size() < 13) return 0.0;
  const double ticks = std::stod(f[11]) + std::stod(f[12]);
  return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

// --- LineConn ------------------------------------------------------------------

std::optional<LineConn> LineConn::connect(const std::string& path,
                                          double retry_seconds) {
  const double deadline = now_s() + retry_seconds;
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return std::nullopt;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
      LineConn c;
      c.fd_ = fd;
      return c;
    }
    ::close(fd);
    if (now_s() >= deadline) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

LineConn::LineConn(LineConn&& o) noexcept : fd_(o.fd_), buf_(std::move(o.buf_)) {
  o.fd_ = -1;
}

LineConn& LineConn::operator=(LineConn&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    buf_ = std::move(o.buf_);
    o.fd_ = -1;
  }
  return *this;
}

LineConn::~LineConn() { close(); }

void LineConn::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool LineConn::send(const std::string& line) {
  if (fd_ < 0) return false;
  const std::string data = line + '\n';
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t k = ::send(fd_, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      close();
      return false;
    }
    off += static_cast<std::size_t>(k);
  }
  return true;
}

std::optional<std::string> LineConn::recv(double timeout_seconds) {
  const double deadline = now_s() + timeout_seconds;
  for (;;) {
    if (const auto nl = buf_.find('\n'); nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return line;
    }
    if (fd_ < 0) return std::nullopt;
    const double left = deadline - now_s();
    if (left <= 0) return std::nullopt;
    pollfd p{fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(left * 1000) + 1);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) continue;  // re-check the deadline
    char chunk[65536];
    const ssize_t k = ::recv(fd_, chunk, sizeof chunk, 0);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) {
      close();
      continue;  // a buffered line may still be complete
    }
    buf_.append(chunk, static_cast<std::size_t>(k));
  }
}

std::optional<std::string> LineConn::call(const std::string& line,
                                          double timeout_seconds) {
  if (!send(line)) return std::nullopt;
  return recv(timeout_seconds);
}

}  // namespace perfbench

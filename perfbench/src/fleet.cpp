#include "fleet.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Child::Child(const std::string& path, const std::vector<std::string>& args) {
  // argv is built before fork: the child may only make async-signal-safe
  // calls between fork and exec.
  std::vector<std::string> storage;
  storage.push_back(path);
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2 failed");
  }
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    const int devnull = ::open("/dev/null", O_RDWR);
    if (devnull >= 0) {
      ::dup2(devnull, STDIN_FILENO);
      ::dup2(devnull, STDERR_FILENO);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  stdout_fd_ = pipe_fds[0];
}

Child::~Child() {
  kill_now();
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

void Child::kill_now() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

int Child::read_port(double timeout_s) {
  const double deadline = now_seconds() + timeout_s;
  for (;;) {
    const auto newline = pending_.find('\n');
    if (newline != std::string::npos) {
      const std::string line = pending_.substr(0, newline);
      pending_.erase(0, newline + 1);
      const auto at = line.find("\"port\":");
      if (line.find("\"listening\"") != std::string::npos &&
          at != std::string::npos) {
        return std::stoi(line.substr(at + 7));
      }
      continue;
    }
    const double left = deadline - now_seconds();
    if (left <= 0) throw std::runtime_error("no listening line in time");
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
    char buffer[512];
    const ssize_t n = ::read(stdout_fd_, buffer, sizeof buffer);
    if (n <= 0) throw std::runtime_error("server exited before listening");
    pending_.append(buffer, static_cast<std::size_t>(n));
  }
}

bool Child::wait_exit(double timeout_s) {
  if (pid_ <= 0) return false;
  const double deadline = now_seconds() + timeout_s;
  for (;;) {
    int status = 0;
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    if (now_seconds() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

Proc_usage read_proc_usage(pid_t pid) {
  Proc_usage usage;
  {
    std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(stat)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name: state is field 3,
    // utime 14 and stime 15 (in clock ticks, all threads).
    const auto close = text.rfind(')');
    if (close != std::string::npos) {
      std::istringstream fields(text.substr(close + 2));
      std::string field;
      double utime = 0.0;
      double stime = 0.0;
      for (int index = 3; fields >> field; ++index) {
        if (index == 14) utime = std::stod(field);
        if (index == 15) {
          stime = std::stod(field);
          break;
        }
      }
      usage.cpu_seconds =
          (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
    }
  }
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      usage.peak_rss_mib = std::stod(line.substr(6)) / 1024.0;
      break;
    }
  }
  return usage;
}

Host_times read_host_times() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;  // the aggregate "cpu" line comes first
  Host_times times;
  double value = 0.0;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && stat >> value; ++field) {
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

Fleet::Fleet(const Binaries& binaries, bool routed,
             std::size_t serve_workers) {
  const std::size_t backends = routed ? 3 : 1;
  const std::vector<std::string> serve_args = {
      "--tcp-port", "0", "--workers", std::to_string(serve_workers)};
  for (std::size_t i = 0; i < backends; ++i) {
    processes_.push_back(std::make_unique<Child>(binaries.serve, serve_args));
  }
  for (auto& process : processes_) {
    backend_ports_.push_back(process->read_port(30.0));
  }
  if (!routed) {
    port_ = backend_ports_.front();
    return;
  }
  std::string list;
  for (const int port : backend_ports_) {
    if (!list.empty()) list += ',';
    list += "127.0.0.1:" + std::to_string(port);
  }
  processes_.push_back(std::make_unique<Child>(
      binaries.router, std::vector<std::string>{"--tcp-port", "0",
                                                "--backends", list,
                                                "--replicas", "2"}));
  port_ = processes_.back()->read_port(30.0);
}

Fleet::~Fleet() {
  for (auto& process : processes_) process->kill_now();
}

Proc_usage Fleet::usage() const {
  Proc_usage total;
  for (const auto& process : processes_) {
    if (!process->running()) continue;
    const Proc_usage one = read_proc_usage(process->pid());
    total.cpu_seconds += one.cpu_seconds;
    if (one.peak_rss_mib > total.peak_rss_mib) {
      total.peak_rss_mib = one.peak_rss_mib;
    }
  }
  return total;
}

bool Fleet::shutdown() {
  try {
    Line_socket socket(port_);
    socket.send_line("{\"op\":\"shutdown\"}");
  } catch (const std::exception&) {
    // Unreachable entry point: the exit checks below report it.
  }
  bool clean = true;
  // The router last in processes_ forwards the op to every backend.
  for (auto it = processes_.rbegin(); it != processes_.rend(); ++it) {
    if (!(*it)->wait_exit(15.0)) {
      clean = false;
      (*it)->kill_now();
    }
  }
  return clean;
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof address) !=
      0) {
    ::close(fd);
    throw std::runtime_error("connect to port " + std::to_string(port) +
                             " failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

Line_socket::Line_socket(int port) : fd_(connect_loopback(port)) {}

Line_socket::~Line_socket() {
  if (fd_ >= 0) ::close(fd_);
}

void Line_socket::send_line(const std::string& line) {
  std::string framed = line + "\n";
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send failed");
    sent += static_cast<std::size_t>(n);
  }
}

std::string Line_socket::read_line(double timeout_s) {
  const double deadline = now_seconds() + timeout_s;
  for (;;) {
    const auto newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return line;
    }
    const double left = deadline - now_seconds();
    if (left <= 0) throw std::runtime_error("timed out waiting for a reply");
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("connection closed by server");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace perfbench

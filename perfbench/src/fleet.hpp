// perfbench/src/fleet.hpp
//
// The server side of a run: quest_serve processes (and a quest_router in
// front of them for routed workloads) spawned on ephemeral loopback
// ports, sampled through /proc for CPU time and peak RSS, and shut down
// with the protocol's shutdown op. Every process is killed and reaped by
// its owner's destructor, so no exit path leaves one behind.

#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Binaries {
  std::string serve;
  std::string router;
};

/// One spawned child process. Its stdout is a pipe (read for the
/// "listening" announcement); stderr goes to /dev/null. The child gets
/// SIGKILL if the benchmark dies first.
class Child {
 public:
  Child(const std::string& path, const std::vector<std::string>& args);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }
  /// Reads the {"event":"listening","port":N} line; throws on timeout.
  int read_port(double timeout_s);
  /// Waits up to `timeout_s` for exit; true when it exited with code 0.
  bool wait_exit(double timeout_s);
  bool running() const { return pid_ > 0; }
  void kill_now();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string pending_;
};

/// CPU time (user + system, all threads) and peak RSS of one process.
struct Proc_usage {
  double cpu_seconds = 0.0;
  double peak_rss_mib = 0.0;
};
Proc_usage read_proc_usage(pid_t pid);

/// Host-wide CPU time from /proc/stat, in clock ticks: all of it, and
/// the part a hypervisor gave to other guests while this one wanted to
/// run ("steal").
struct Host_times {
  double total = 0.0;
  double steal = 0.0;
};
Host_times read_host_times();

/// A running fleet: one quest_serve, or three quest_serve backends
/// (--workers 1) behind quest_router --replicas 2.
class Fleet {
 public:
  Fleet(const Binaries& binaries, bool routed, std::size_t serve_workers);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// The port clients connect to (the router's when routed).
  int port() const { return port_; }
  /// Backend ports (equal to {port()} when not routed).
  const std::vector<int>& backend_ports() const { return backend_ports_; }

  /// Summed CPU seconds and the largest peak RSS over every process.
  Proc_usage usage() const;

  /// Sends the shutdown op and waits for every process to exit; kills
  /// stragglers. Returns true when every process exited with code 0.
  bool shutdown();

 private:
  std::vector<std::unique_ptr<Child>> processes_;
  std::vector<int> backend_ports_;
  int port_ = -1;
};

/// A blocking loopback connection for set-up and probe traffic.
class Line_socket {
 public:
  explicit Line_socket(int port);
  ~Line_socket();
  Line_socket(const Line_socket&) = delete;
  Line_socket& operator=(const Line_socket&) = delete;

  void send_line(const std::string& line);
  /// Next event line; throws after `timeout_s` without one.
  std::string read_line(double timeout_s = 30.0);
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Connects a non-blocking-capable TCP socket to 127.0.0.1:port with
/// TCP_NODELAY set.
int connect_loopback(int port);

/// Seconds on the monotonic clock.
double now_seconds();

}  // namespace perfbench

// perfbench/src/client.hpp
//
// The load generator: one thread, one epoll loop, at most four loopback
// connections, in a closed loop: each connection keeps a fixed window of
// requests outstanding, like query planners that each wait for their
// plan. Every event line is matched to its request and kept in a compact
// record for the correctness gate, which runs after the timed window.
//
// Echo_endpoint is the generator's self-check: a trivial line-echo
// server that answers every request at once, so driving it with the
// same client measures the client's own ceiling.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "fleet.hpp"
#include "workload.hpp"

namespace perfbench {

enum class Status : std::uint8_t { pending, ok, error, shed };

/// One op's life. Times are seconds from the start of the load.
struct Record {
  Op op;
  double sent = -1.0;
  double done = -1.0;
  double cost = 0.0;
  Status status = Status::pending;
  bool complete = false;
  bool proven_optimal = false;
  bool cached = false;
  std::uint8_t plan_size = 0;
  std::array<std::uint8_t, 16> plan{};
};

struct Load_config {
  std::size_t connections = 4;
  std::size_t window = 1;
  double warmup_s = 1.0;
  double measure_s = 10.0;
  /// Longest wait for outstanding replies after the window closes.
  double drain_s = 30.0;
  /// The timed window is cut into this many equal slices; CPU usage is
  /// sampled at every slice edge.
  std::size_t slices = 10;
};

struct Load_result {
  std::vector<Record> records;
  /// Slice edges (seconds from start) and the fleet usage sampled there.
  std::vector<double> edges;
  std::vector<Proc_usage> usage;
  std::vector<Host_times> host;
  /// Error events that carried no request id.
  std::size_t unmatched_errors = 0;
};

/// Drives `port`, pulling ops from `stream` until the window closes.
/// `sample` is called at every slice edge.
Load_result run_load(int port, const Workload& workload, Op_stream* stream,
                     const Load_config& config,
                     const std::function<Proc_usage()>& sample);

/// In-process line echo server on an ephemeral loopback port: answers
/// every request line with a canned result event for the same id.
class Echo_endpoint {
 public:
  Echo_endpoint();
  ~Echo_endpoint();
  Echo_endpoint(const Echo_endpoint&) = delete;
  Echo_endpoint& operator=(const Echo_endpoint&) = delete;
  int port() const { return port_; }

 private:
  void loop();
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  int port_ = -1;
  std::thread thread_;
};

}  // namespace perfbench

#include "client.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>

namespace perfbench {

namespace {

void set_nonblocking(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
}

/// The value text after `"key":` in a flat event line ("" when absent).
std::string_view field(std::string_view line, std::string_view key) {
  std::string pattern = "\"";
  pattern += key;
  pattern += "\":";
  const auto at = line.find(pattern);
  if (at == std::string_view::npos) return {};
  return line.substr(at + pattern.size());
}

/// Request index of an id "r<index>"; -1 when the id is not ours.
std::int64_t request_index(std::string_view line) {
  const std::string_view value = field(line, "id");
  if (value.size() < 3 || value[0] != '"' || value[1] != 'r') return -1;
  std::int64_t index = -1;
  const auto [end, ec] =
      std::from_chars(value.data() + 2, value.data() + value.size(), index);
  if (ec != std::errc() || end == value.data() + value.size() || *end != '"') {
    return -1;
  }
  return index;
}

bool flag(std::string_view line, std::string_view key) {
  return field(line, key).substr(0, 4) == "true";
}

/// Fills a record from a "result" event line.
void parse_result(std::string_view line, Record& record) {
  record.complete = flag(line, "complete");
  record.proven_optimal = flag(line, "proven_optimal");
  record.cached = flag(line, "cached");
  const std::string_view cost = field(line, "cost");
  if (!cost.empty() && cost[0] != 'n') {
    // from_chars round-trips the server's %.17g rendering exactly.
    std::from_chars(cost.data(), cost.data() + cost.size(), record.cost);
  }
  std::string_view plan = field(line, "plan");
  record.plan_size = 0;
  if (plan.empty() || plan[0] != '[') return;
  plan.remove_prefix(1);
  while (!plan.empty() && plan[0] != ']') {
    unsigned value = 0;
    const auto [end, ec] =
        std::from_chars(plan.data(), plan.data() + plan.size(), value);
    if (ec != std::errc() || record.plan_size == record.plan.size()) {
      record.plan_size = 0xff;  // malformed: the gate rejects it
      return;
    }
    record.plan[record.plan_size++] = static_cast<std::uint8_t>(value);
    plan.remove_prefix(static_cast<std::size_t>(end - plan.data()));
    if (!plan.empty() && plan[0] == ',') plan.remove_prefix(1);
  }
}

struct Connection {
  int fd = -1;
  std::string in;
  std::string out;
  /// Request indices whose lines sit in `out`, with the offset just past
  /// each line: a request counts as sent once its last byte is written.
  std::deque<std::pair<std::size_t, std::uint64_t>> unsent;
  std::size_t written = 0;
  std::size_t outstanding = 0;
  /// Register ops awaiting their "registered" ack, in send order.
  std::deque<std::uint64_t> registers;
  bool want_write = false;
};

}  // namespace

Load_result run_load(int port, const Workload& workload, Op_stream* stream,
                     const Load_config& config,
                     const std::function<Proc_usage()>& sample) {
  // Sub-millisecond wake-ups: the slice edges are sampled on time.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  Load_result result;
  std::vector<Connection> connections(config.connections);
  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) throw std::runtime_error("epoll_create1 failed");
  for (std::size_t c = 0; c < connections.size(); ++c) {
    connections[c].fd = connect_loopback(port);
    set_nonblocking(connections[c].fd);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = c;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, connections[c].fd, &event);
  }

  const double end = config.warmup_s + config.measure_s;
  for (std::size_t k = 0; k <= config.slices; ++k) {
    result.edges.push_back(config.warmup_s + config.measure_s *
                                                 static_cast<double>(k) /
                                                 static_cast<double>(
                                                     config.slices));
  }
  std::size_t next_edge = 0;
  std::size_t outstanding = 0;
  bool failed_connection = false;
  const double origin = now_seconds();
  auto clock = [origin] { return now_seconds() - origin; };
  result.records.reserve(1 << 16);

  // A re-registration is a barrier on its slot: it goes out only when no
  // optimize of the slot is in flight, and the slot's later ops wait for
  // its ack. The server then resolves every optimize to the document
  // version the op was generated against, whichever connection carries
  // it. Ops held back keep their order in `deferred`.
  const std::size_t slot_count = workload.slots.size();
  std::vector<std::uint32_t> in_flight(slot_count, 0);
  std::vector<std::uint32_t> held(slot_count, 0);
  std::vector<char> registering(slot_count, 0);
  std::deque<Op> deferred;
  auto ready = [&](const Op& op) {
    return registering[op.slot] == 0 &&
           (op.kind == Op::Kind::optimize || in_flight[op.slot] == 0);
  };

  auto issue = [&](std::size_t c, const Op& op) {
    const std::uint64_t index = result.records.size();
    Record record;
    record.op = op;
    result.records.push_back(record);
    Connection& connection = connections[c];
    connection.out += workload.line(op, index);
    connection.out += '\n';
    connection.unsent.emplace_back(connection.out.size(), index);
    ++connection.outstanding;
    ++outstanding;
    if (op.kind == Op::Kind::reregister) {
      connection.registers.push_back(index);
      registering[op.slot] = 1;
    } else {
      ++in_flight[op.slot];
    }
  };

  auto flush = [&](std::size_t c) {
    Connection& connection = connections[c];
    while (connection.written < connection.out.size()) {
      const ssize_t n = ::send(connection.fd,
                               connection.out.data() + connection.written,
                               connection.out.size() - connection.written,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && errno == EAGAIN) break;
      if (n <= 0) {
        failed_connection = true;
        return;
      }
      connection.written += static_cast<std::size_t>(n);
    }
    const double now = clock();
    while (!connection.unsent.empty() &&
           connection.unsent.front().first <= connection.written) {
      result.records[connection.unsent.front().second].sent = now;
      connection.unsent.pop_front();
    }
    if (connection.written == connection.out.size()) {
      connection.out.clear();
      connection.written = 0;
    } else if (connection.written > (1u << 16)) {
      connection.out.erase(0, connection.written);
      for (auto& pending : connection.unsent) {
        pending.first -= connection.written;
      }
      connection.written = 0;
    }
    const bool want = !connection.out.empty();
    if (want != connection.want_write) {
      connection.want_write = want;
      epoll_event event{};
      event.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      event.data.u64 = c;
      ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, connection.fd, &event);
    }
  };

  auto finish = [&](std::size_t c, std::uint64_t index, Status status) {
    Record& record = result.records[index];
    if (record.status != Status::pending) return false;
    record.status = status;
    record.done = clock();
    --connections[c].outstanding;
    --outstanding;
    if (record.op.kind == Op::Kind::reregister) {
      registering[record.op.slot] = 0;
    } else {
      --in_flight[record.op.slot];
    }
    return true;
  };

  auto refill = [&](std::size_t c) {
    if (clock() >= end) return;
    while (connections[c].outstanding < config.window) {
      if (!deferred.empty() && ready(deferred.front())) {
        --held[deferred.front().slot];
        issue(c, deferred.front());
        deferred.pop_front();
        continue;
      }
      const Op op = stream->next();
      if (held[op.slot] == 0 && ready(op)) {
        issue(c, op);
      } else {
        ++held[op.slot];
        deferred.push_back(op);
      }
    }
  };

  auto on_line = [&](std::size_t c, std::string_view line) {
    const std::string_view event = field(line, "event");
    if (event.substr(0, 10) == "\"admitted\"") return;
    if (event.substr(0, 8) == "\"result\"") {
      const std::int64_t index = request_index(line);
      if (index < 0 ||
          static_cast<std::size_t>(index) >= result.records.size()) {
        ++result.unmatched_errors;
        return;
      }
      if (finish(c, static_cast<std::uint64_t>(index), Status::ok)) {
        parse_result(line, result.records[static_cast<std::size_t>(index)]);
      }
      return;
    }
    if (event.substr(0, 12) == "\"registered\"") {
      if (!connections[c].registers.empty()) {
        finish(c, connections[c].registers.front(), Status::ok);
        connections[c].registers.pop_front();
      }
      return;
    }
    if (event.substr(0, 7) == "\"error\"") {
      const std::int64_t index = request_index(line);
      const bool shed = field(line, "code").substr(0, 12) == "\"overloaded\"";
      if (index < 0 ||
          static_cast<std::size_t>(index) >= result.records.size() ||
          !finish(c, static_cast<std::uint64_t>(index),
                  shed ? Status::shed : Status::error)) {
        ++result.unmatched_errors;
      }
      return;
    }
    ++result.unmatched_errors;  // an event this client never asked for
  };

  for (std::size_t c = 0; c < connections.size(); ++c) {
    refill(c);
    flush(c);
  }

  epoll_event events[16];
  char chunk[1 << 16];
  for (;;) {
    double now = clock();
    while (next_edge < result.edges.size() && now >= result.edges[next_edge]) {
      result.usage.push_back(sample());
      result.host.push_back(read_host_times());
      result.edges[next_edge] = clock();
      ++next_edge;
    }
    if (failed_connection) break;
    if (now >= end && next_edge == result.edges.size() &&
        (outstanding == 0 || now > end + config.drain_s)) {
      break;
    }
    double wake = end + config.drain_s;
    if (next_edge < result.edges.size()) {
      wake = std::min(wake, result.edges[next_edge]);
    }
    const double wait = std::max(0.0, wake - now);
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait);
    timeout.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
    const int ready =
        ::epoll_pwait2(epoll_fd, events, 16, &timeout, nullptr);
    if (ready < 0 && errno != EINTR) break;
    for (int e = 0; e < ready; ++e) {
      const std::size_t c = events[e].data.u64;
      Connection& connection = connections[c];
      if (events[e].events & EPOLLOUT) flush(c);
      if (!(events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP))) continue;
      for (;;) {
        const ssize_t n = ::recv(connection.fd, chunk, sizeof chunk, 0);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && errno == EAGAIN) break;
        if (n <= 0) {
          failed_connection = true;
          break;
        }
        connection.in.append(chunk, static_cast<std::size_t>(n));
      }
      std::size_t start = 0;
      for (;;) {
        const auto newline = connection.in.find('\n', start);
        if (newline == std::string::npos) break;
        on_line(c, std::string_view(connection.in).substr(
                       start, newline - start));
        start = newline + 1;
      }
      connection.in.erase(0, start);
      refill(c);
      flush(c);
    }
  }
  while (result.usage.size() < result.edges.size()) {
    result.usage.push_back(sample());
    result.host.push_back(read_host_times());
  }
  for (Connection& connection : connections) ::close(connection.fd);
  ::close(epoll_fd);
  return result;
}

Echo_endpoint::Echo_endpoint() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = 0;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t length = sizeof address;
  if (listen_fd_ < 0 ||
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address), length) != 0 ||
      ::listen(listen_fd_, 16) != 0 ||
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                    &length) != 0) {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    throw std::runtime_error("echo endpoint: cannot listen");
  }
  port_ = ntohs(address.sin_port);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC);
  thread_ = std::thread([this] { loop(); });
}

Echo_endpoint::~Echo_endpoint() {
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof one);
  thread_.join();
  ::close(wake_fd_);
  ::close(listen_fd_);
}

void Echo_endpoint::loop() {
  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd_, &event);
  event.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd_, &event);
  std::unordered_map<int, std::string> inbound;
  epoll_event events[16];
  char chunk[1 << 16];
  bool running = true;
  while (running) {
    const int ready = ::epoll_wait(epoll_fd, events, 16, -1);
    for (int e = 0; e < ready; ++e) {
      const int fd = events[e].data.fd;
      if (fd == wake_fd_) {
        running = false;
        break;
      }
      if (fd == listen_fd_) {
        const int client = ::accept4(listen_fd_, nullptr, nullptr,
                                     SOCK_CLOEXEC);
        if (client < 0) continue;
        epoll_event added{};
        added.events = EPOLLIN;
        added.data.fd = client;
        ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, client, &added);
        inbound[client];
        continue;
      }
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) {
        ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
        ::close(fd);
        inbound.erase(fd);
        continue;
      }
      std::string& in = inbound[fd];
      in.append(chunk, static_cast<std::size_t>(n));
      std::string reply;
      std::size_t start = 0;
      for (;;) {
        const auto newline = in.find('\n', start);
        if (newline == std::string::npos) break;
        const std::string_view line(in.data() + start, newline - start);
        const auto at = line.find("\"id\":\"");
        const auto close = line.find('"', at + 6);
        reply += "{\"event\":\"result\",\"id\":\"";
        if (at != std::string_view::npos && close != std::string_view::npos) {
          reply += line.substr(at + 6, close - at - 6);
        }
        reply +=
            "\",\"termination\":\"optimal\",\"cost\":1,\"plan\":[0],"
            "\"proven_optimal\":true,\"complete\":true,\"cached\":false}\n";
        start = newline + 1;
      }
      in.erase(0, start);
      std::size_t sent = 0;
      while (sent < reply.size()) {
        const ssize_t w = ::send(fd, reply.data() + sent, reply.size() - sent,
                                 MSG_NOSIGNAL);
        if (w <= 0 && errno == EINTR) continue;
        if (w <= 0) break;
        sent += static_cast<std::size_t>(w);
      }
    }
  }
  for (const auto& [fd, unused] : inbound) ::close(fd);
  ::close(epoll_fd);
}

}  // namespace perfbench

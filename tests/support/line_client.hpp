// tests/support/line_client.hpp
//
// A blocking, line-oriented test client over one loopback TCP socket,
// for the tests that drive a Tcp_transport stack (a server or a router)
// the way a real client would.

#pragma once

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>

#include "quest/common/timer.hpp"
#include "quest/io/json.hpp"

namespace quest::test {

/// Blocking line-oriented test client over one loopback socket.
class Line_client {
 public:
  explicit Line_client(std::uint16_t port, int receive_buffer_bytes = 0) {
    connect_to(port, receive_buffer_bytes);
  }

  ~Line_client() {
    if (fd_ >= 0) ::close(fd_);
  }

  Line_client(const Line_client&) = delete;
  Line_client& operator=(const Line_client&) = delete;

  int fd() const { return fd_; }

  void send_line(const std::string& line) { send_raw(line + "\n"); }

  void send_raw(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t count =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(count, 0) << std::strerror(errno);
      sent += static_cast<std::size_t>(count);
    }
  }

  /// Reads one newline-terminated line; empty string on EOF/timeout
  /// (with a test failure on timeout).
  std::string read_line(double timeout_seconds = 30.0) {
    Timer timer;
    for (;;) {
      const auto newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        const std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      const double remaining = timeout_seconds - timer.seconds();
      if (remaining <= 0.0) {
        ADD_FAILURE() << "timed out reading a line";
        return {};
      }
      pollfd waiter{fd_, POLLIN, 0};
      const int ready =
          ::poll(&waiter, 1, static_cast<int>(remaining * 1000) + 1);
      if (ready <= 0) continue;
      char chunk[4096];
      const ssize_t count = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (count == 0) return {};  // EOF
      if (count < 0) {
        if (errno == EINTR) continue;
        ADD_FAILURE() << "recv: " << std::strerror(errno);
        return {};
      }
      buffer_.append(chunk, static_cast<std::size_t>(count));
    }
  }

  /// Reads events until one matches `event` kind (optionally a specific
  /// request id); fails and returns null on timeout/EOF.
  io::Json wait_event(const std::string& event, const std::string& id = {},
                      double timeout_seconds = 30.0) {
    Timer timer;
    while (timer.seconds() < timeout_seconds) {
      const std::string line =
          read_line(timeout_seconds - timer.seconds());
      if (line.empty()) break;
      const io::Json parsed = io::Json::parse(line);
      if (parsed.at("event").as_string() != event) continue;
      if (!id.empty()) {
        const io::Json* event_id = parsed.find("id");
        if (event_id == nullptr || event_id->as_string() != id) continue;
      }
      return parsed;
    }
    ADD_FAILURE() << "no '" << event << "' event arrived";
    return io::Json();
  }

  bool at_eof(double timeout_seconds = 10.0) {
    Timer timer;
    while (timer.seconds() < timeout_seconds) {
      pollfd waiter{fd_, POLLIN, 0};
      if (::poll(&waiter, 1, 100) <= 0) continue;
      char chunk[4096];
      const ssize_t count = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (count == 0) return true;
      if (count < 0 && errno != EINTR) return true;
      if (count > 0) buffer_.append(chunk, static_cast<std::size_t>(count));
    }
    return false;
  }

 private:
  // ASSERT macros return values and so cannot live in the constructor.
  void connect_to(std::uint16_t port, int receive_buffer_bytes) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0) << std::strerror(errno);
    if (receive_buffer_bytes > 0) {
      // Before connect, so the advertised window is actually small —
      // the backpressure test needs the kernel pipes to fill up.
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &receive_buffer_bytes,
                   sizeof(receive_buffer_bytes));
    }
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    ASSERT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                        sizeof(address)),
              0)
        << std::strerror(errno);
  }

  int fd_ = -1;
  std::string buffer_;
};

}  // namespace quest::test

#include "quest/serve/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/epoll.h>
#else
#include <poll.h>
#endif

#include "quest/common/error.hpp"

namespace quest::serve {

namespace {

/// What a new connection beyond max_connections is told before the
/// socket closes — refusal is part of the protocol, not a silent RST.
constexpr std::string_view k_refusal_line =
    "{\"event\":\"error\",\"code\":\"overloaded\","
    "\"message\":\"connection limit reached\"}\n";

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

/// Readiness multiplexer: epoll on Linux, poll(2) elsewhere. One loop
/// thread owns it; the API is the common denominator of the two.
class Poller {
 public:
  struct Ready {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;
  };

#if defined(__linux__)
  Poller() : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {
    if (epoll_fd_ < 0) throw_errno("epoll_create1");
  }
  ~Poller() { ::close(epoll_fd_); }

  void add(int fd, bool read, bool write) { ctl(EPOLL_CTL_ADD, fd, read, write); }
  void update(int fd, bool read, bool write) {
    ctl(EPOLL_CTL_MOD, fd, read, write);
  }
  void remove(int fd) { ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr); }

  void wait(std::vector<Ready>& out, int timeout_ms) {
    epoll_event events[128];
    const int count = ::epoll_wait(epoll_fd_, events, 128, timeout_ms);
    for (int i = 0; i < count; ++i) {
      Ready ready;
      ready.fd = events[i].data.fd;
      // HUP counts as readable so the read() path observes the EOF.
      ready.readable = (events[i].events & (EPOLLIN | EPOLLHUP)) != 0;
      ready.writable = (events[i].events & EPOLLOUT) != 0;
      ready.error = (events[i].events & EPOLLERR) != 0;
      out.push_back(ready);
    }
  }

 private:
  void ctl(int op, int fd, bool read, bool write) {
    epoll_event event{};
    event.data.fd = fd;
    if (read) event.events |= EPOLLIN;
    if (write) event.events |= EPOLLOUT;
    ::epoll_ctl(epoll_fd_, op, fd, &event);
  }

  int epoll_fd_;
#else
  void add(int fd, bool read, bool write) { update(fd, read, write); }
  void update(int fd, bool read, bool write) {
    short events = 0;
    if (read) events |= POLLIN;
    if (write) events |= POLLOUT;
    interest_[fd] = events;
  }
  void remove(int fd) { interest_.erase(fd); }

  void wait(std::vector<Ready>& out, int timeout_ms) {
    std::vector<pollfd> fds;
    fds.reserve(interest_.size());
    for (const auto& [fd, events] : interest_) fds.push_back({fd, events, 0});
    const int count = ::poll(fds.data(), fds.size(), timeout_ms);
    if (count <= 0) return;
    for (const pollfd& entry : fds) {
      if (entry.revents == 0) continue;
      Ready ready;
      ready.fd = entry.fd;
      ready.readable = (entry.revents & (POLLIN | POLLHUP)) != 0;
      ready.writable = (entry.revents & POLLOUT) != 0;
      ready.error = (entry.revents & (POLLERR | POLLNVAL)) != 0;
      out.push_back(ready);
    }
  }

 private:
  std::unordered_map<int, short> interest_;
#endif
};

}  // namespace

struct Tcp_transport::Impl {
  /// One connection. The loop thread owns fd/interest state; `outbound`
  /// and the close/dirty flags are shared with sender threads under
  /// `mutex`.
  struct Conn {
    Connection_id id = 0;
    int fd = -1;
    /// Adopted links only: the connection their backlog pauses.
    Connection_id owner = 0;
    bool adopted = false;
    /// Pending outbound bytes; `out_offset` marks the flushed prefix
    /// (compacted periodically instead of erasing per write).
    std::string outbound;
    std::size_t out_offset = 0;
    bool want_write = false;  // loop-side: EPOLLOUT armed
    bool over_cap = false;    // loop-side: backlog above the cap
    int holds = 0;            // loop-side: backlogs pausing our reads
    bool closing = false;     // flush remaining bytes, then close

    std::size_t pending_bytes() const { return outbound.size() - out_offset; }
  };

  explicit Impl(Tcp_options opts) : options(std::move(opts)) {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) throw_errno("socket");
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(options.port);
    if (::inet_pton(AF_INET, options.bind_address.c_str(),
                    &address.sin_addr) != 1) {
      ::close(listen_fd);
      throw Error("tcp transport: bad bind address '" + options.bind_address +
                  "'");
    }
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&address),
               sizeof(address)) != 0) {
      const int saved = errno;
      ::close(listen_fd);
      errno = saved;
      throw_errno("bind " + options.bind_address + ":" +
                  std::to_string(options.port));
    }
    if (::listen(listen_fd, 512) != 0) {
      const int saved = errno;
      ::close(listen_fd);
      errno = saved;
      throw_errno("listen");
    }
    set_nonblocking(listen_fd);
    sockaddr_in bound{};
    socklen_t length = sizeof(bound);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &length);
    bound_port = ntohs(bound.sin_port);

    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      const int saved = errno;
      ::close(listen_fd);
      errno = saved;
      throw_errno("pipe");
    }
    wake_read = pipe_fds[0];
    wake_write = pipe_fds[1];
    set_nonblocking(wake_read);
    set_nonblocking(wake_write);
  }

  ~Impl() {
    for (auto& [fd, conn] : by_fd) ::close(fd);
    for (const auto& conn : to_adopt) ::close(conn->fd);
    if (listen_fd >= 0) ::close(listen_fd);
    ::close(wake_read);
    ::close(wake_write);
  }

  void wake() {
    const char byte = 'w';
    // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
    [[maybe_unused]] const auto ignored = ::write(wake_write, &byte, 1);
  }

  /// Makes the loop see a connection just marked dirty. On the loop
  /// thread nothing is needed: process_dirty() runs after every batch.
  /// Elsewhere one pipe byte per loop wakeup suffices; `wake_pending`
  /// stays set until the loop has drained the pipe, so later senders
  /// know their dirty entry will be collected by that same wakeup.
  void notify_loop() {
    if (loop_owner == this) return;
    if (!wake_pending.exchange(true)) wake();
  }

  // ---- sender-thread entry points -------------------------------------

  bool send(Connection_id id, std::string_view line) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      const auto entry = by_id.find(id);
      if (entry == by_id.end() || entry->second->closing) return false;
      Conn& conn = *entry->second;
      conn.outbound.append(line);
      conn.outbound.push_back('\n');
      dirty.push_back(id);
    }
    notify_loop();
    return true;
  }

  Connection_id adopt(int fd, Connection_id owner) {
    set_nonblocking(fd);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->owner = owner;
    conn->adopted = true;
    Connection_id id = 0;
    {
      std::lock_guard<std::mutex> lock(mutex);
      id = conn->id = next_id++;
      by_id.emplace(id, conn.get());
      to_adopt.push_back(std::move(conn));
    }
    notify_loop();
    return id;
  }

  void request_close(Connection_id id) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      const auto entry = by_id.find(id);
      if (entry == by_id.end()) return;
      entry->second->closing = true;
      dirty.push_back(id);
    }
    notify_loop();
  }

  void request_stop() {
    stop_requested.store(true, std::memory_order_release);
    wake();
  }

  // ---- loop thread ----------------------------------------------------

  void run(const Handlers& handlers) {
    loop_owner = this;
    struct Owner_reset {
      ~Owner_reset() { loop_owner = nullptr; }
    } owner_reset;
    Poller poller;
    poller.add(listen_fd, /*read=*/true, /*write=*/false);
    poller.add(wake_read, /*read=*/true, /*write=*/false);

    std::vector<Poller::Ready> ready;
    std::vector<char> scratch(options.read_chunk);
    bool stopping = false;
    bool dirty_left = false;
    std::chrono::steady_clock::time_point flush_deadline{};

    for (;;) {
      ready.clear();
      poller.wait(ready, dirty_left ? 0 : stopping ? 50 : -1);

      for (const Poller::Ready& event : ready) {
        if (event.fd == wake_read) {
          char buffer[256];
          while (::read(wake_read, buffer, sizeof(buffer)) > 0) {
          }
          // Only after the drain: a sender that still sees the flag set
          // skips its pipe write, and its dirty entry is collected by the
          // process_dirty() below. Clearing first would let a byte
          // written in between be drained while the flag stays set, so
          // no later sender would ever wake the loop again.
          wake_pending.store(false);
          continue;
        }
        if (event.fd == listen_fd) {
          if (!stopping) accept_all(poller, handlers);
          continue;
        }
        const auto entry = by_fd.find(event.fd);
        if (entry == by_fd.end()) continue;  // closed earlier this batch
        Conn* conn = entry->second.get();
        if (event.error) {
          close_conn(poller, conn, handlers);
          continue;
        }
        if (event.writable) {
          if (!flush_conn(poller, conn, handlers)) continue;  // conn gone
        }
        if (event.readable && !stopping) {
          if (!read_conn(poller, conn, scratch, handlers)) continue;
        }
      }

      dirty_left = process_dirty(poller, handlers);

      if (stop_requested.load(std::memory_order_acquire) && !stopping) {
        // Graceful wind-down: no more accepts or reads, but give the
        // outbound buffers a bounded chance to drain so final events
        // ("shutdown-complete", cancelled results) reach their clients.
        stopping = true;
        winding_down = true;
        poller.remove(listen_fd);
        for (auto& [fd, conn] : by_fd) {
          std::size_t pending = 0;
          {
            std::lock_guard<std::mutex> lock(mutex);
            pending = conn->pending_bytes();
          }
          conn->want_write = pending > 0;
          poller.update(fd, /*read=*/false, /*write=*/conn->want_write);
        }
        flush_deadline = std::chrono::steady_clock::now() +
                         std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(
                                 options.flush_timeout_seconds));
      }
      if (stopping) {
        bool pending = false;
        {
          std::lock_guard<std::mutex> lock(mutex);
          for (const auto& [fd, conn] : by_fd) {
            if (!conn->adopted && conn->pending_bytes() > 0) pending = true;
          }
        }
        if (!pending || std::chrono::steady_clock::now() >= flush_deadline) {
          break;
        }
      }
    }

    // Teardown on the loop thread: every surviving connection gets its
    // on_close so the session layer can release per-connection state.
    // Accepted connections go first, so an owner hears of its own end
    // before its adopted links'.
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (auto& conn : to_adopt) by_fd.emplace(conn->fd, std::move(conn));
      to_adopt.clear();
    }
    for (const bool adopted : {false, true}) {
      std::vector<Conn*> doomed;
      for (const auto& [fd, conn] : by_fd) {
        if (conn->adopted == adopted) doomed.push_back(conn.get());
      }
      for (Conn* conn : doomed) close_conn(Poller_ref{}, conn, handlers);
    }
  }

  void accept_all(Poller& poller, const Handlers& handlers) {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN or transient error: try next wait
      std::size_t open_now = 0;
      {
        std::lock_guard<std::mutex> lock(mutex);
        open_now = counters.connections;
      }
      if (open_now >= options.max_connections) {
        // Explicit refusal: one typed error line, then close. The
        // counter bumps before close(): a client observing the EOF must
        // already see the refusal in stats().
        [[maybe_unused]] const auto ignored =
            ::send(fd, k_refusal_line.data(), k_refusal_line.size(),
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        {
          std::lock_guard<std::mutex> lock(mutex);
          ++counters.refused;
        }
        ::close(fd);
        continue;
      }
      set_nonblocking(fd);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (options.send_buffer_bytes > 0) {
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options.send_buffer_bytes,
                     sizeof(options.send_buffer_bytes));
      }
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      Conn* raw = conn.get();
      {
        std::lock_guard<std::mutex> lock(mutex);
        raw->id = next_id++;
        by_id.emplace(raw->id, raw);
        ++counters.accepted;
        ++counters.connections;
        counters.max_connections_seen =
            std::max(counters.max_connections_seen, counters.connections);
      }
      by_fd.emplace(fd, std::move(conn));
      poller.add(fd, /*read=*/true, /*write=*/false);
      if (handlers.on_open) handlers.on_open(raw->id);
    }
  }

  bool read_conn(Poller& poller, Conn* conn, std::vector<char>& scratch,
                 const Handlers& handlers) {
    if (conn->holds > 0 || conn->closing) return true;
    const ssize_t count = ::read(conn->fd, scratch.data(), scratch.size());
    if (count == 0) {
      close_conn(poller, conn, handlers);
      return false;
    }
    if (count < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return true;
      }
      close_conn(poller, conn, handlers);
      return false;
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      counters.bytes_in += static_cast<std::uint64_t>(count);
    }
    if (handlers.on_data) {
      handlers.on_data(conn->id,
                       std::string_view(scratch.data(),
                                        static_cast<std::size_t>(count)));
    }
    // on_data may have queued replies (synchronous events) or closed the
    // connection; process_dirty() after the batch applies both.
    return by_fd.count(conn->fd) != 0;
  }

  /// Writes as much pending output as the socket accepts. Returns false
  /// when the connection was closed (error, or a drained `closing`).
  template <typename PollerT>
  bool flush_conn(PollerT&& poller, Conn* conn, const Handlers& handlers) {
    bool fatal = false;
    bool drained_close = false;
    {
      std::lock_guard<std::mutex> lock(mutex);
      while (conn->pending_bytes() > 0) {
        const ssize_t count =
            ::send(conn->fd, conn->outbound.data() + conn->out_offset,
                   conn->pending_bytes(), MSG_NOSIGNAL);
        if (count < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
          fatal = true;
          break;
        }
        conn->out_offset += static_cast<std::size_t>(count);
        counters.bytes_out += static_cast<std::uint64_t>(count);
      }
      if (conn->out_offset == conn->outbound.size()) {
        conn->outbound.clear();
        conn->out_offset = 0;
      } else if (conn->out_offset > (1u << 16)) {
        conn->outbound.erase(0, conn->out_offset);
        conn->out_offset = 0;
      }
      drained_close = conn->closing && conn->pending_bytes() == 0;
    }
    if (fatal || drained_close) {
      close_conn(poller, conn, handlers);
      return false;
    }
    update_interest(poller, conn);
    return true;
  }

  /// Applies backpressure state and poller interest from the current
  /// buffer fill: above the cap a connection holds reads paused until it
  /// drains below half of it, and EPOLLOUT is armed while anything is
  /// pending. An adopted link holds its owner's reads, never its own.
  template <typename PollerT>
  void update_interest(PollerT&& poller, Conn* conn) {
    std::size_t pending = 0;
    {
      std::lock_guard<std::mutex> lock(mutex);
      pending = conn->pending_bytes();
    }
    bool over = conn->over_cap;
    if (!over && pending > options.write_buffer_cap) {
      over = true;
    } else if (over && pending < options.write_buffer_cap / 2) {
      over = false;
    }
    bool changed = (pending > 0) != conn->want_write;
    conn->want_write = pending > 0;
    if (over != conn->over_cap) {
      conn->over_cap = over;
      Conn* held = conn->adopted ? find_conn(conn->owner) : conn;
      if (held != nullptr) {
        hold(held, over);
        if (held == conn) {
          changed = true;
        } else {
          set_interest(poller, held);
        }
      }
    }
    if (changed) set_interest(poller, conn);
  }

  void hold(Conn* conn, bool on) {
    conn->holds += on ? 1 : -1;
    if (!on) return;
    std::lock_guard<std::mutex> lock(mutex);
    ++counters.reads_paused;
  }

  template <typename PollerT>
  void set_interest(PollerT&& poller, const Conn* conn) {
    poller.update(conn->fd,
                  /*read=*/conn->holds == 0 && !conn->closing && !winding_down,
                  conn->want_write);
  }

  Conn* find_conn(Connection_id id) {
    std::lock_guard<std::mutex> lock(mutex);
    const auto entry = by_id.find(id);
    return entry == by_id.end() ? nullptr : entry->second;
  }

  /// Flushes every connection marked dirty. Returns whether entries
  /// were marked meanwhile: a loop-thread send() never wakes the loop, so
  /// the next wait must not block on them.
  bool process_dirty(Poller& poller, const Handlers& handlers) {
    std::vector<Connection_id> ids;
    std::vector<std::unique_ptr<Conn>> adopted;
    {
      std::lock_guard<std::mutex> lock(mutex);
      ids.swap(dirty);
      if (!to_adopt.empty()) adopted.swap(to_adopt);
    }
    // Adopted links join the poller before their queued sends flush.
    for (auto& conn : adopted) {
      poller.add(conn->fd, /*read=*/!winding_down, /*write=*/false);
      by_fd.emplace(conn->fd, std::move(conn));
    }
    for (const Connection_id id : ids) {
      Conn* conn = find_conn(id);
      if (conn != nullptr) flush_conn(poller, conn, handlers);
    }
    std::lock_guard<std::mutex> lock(mutex);
    return !dirty.empty() || !to_adopt.empty();
  }

  /// Poller stand-in for teardown, where the real poller is gone and
  /// only the fd bookkeeping matters.
  struct Poller_ref {
    void update(int, bool, bool) {}
    void remove(int) {}
  };

  template <typename PollerT>
  void close_conn(PollerT&& poller, Conn* conn, const Handlers& handlers) {
    const Connection_id id = conn->id;
    const int fd = conn->fd;
    poller.remove(fd);
    ::close(fd);
    if (conn->adopted && conn->over_cap) {
      if (Conn* owner = find_conn(conn->owner)) {
        hold(owner, false);
        set_interest(poller, owner);
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      by_id.erase(id);
      if (!conn->adopted) {
        ++counters.closed;
        --counters.connections;
      }
    }
    by_fd.erase(fd);  // destroys conn
    if (handlers.on_close) handlers.on_close(id);
  }

  Tcp_options options;
  int listen_fd = -1;
  int wake_read = -1;
  int wake_write = -1;
  std::uint16_t bound_port = 0;

  /// Loop-thread-only: fd -> connection ownership.
  std::unordered_map<int, std::unique_ptr<Conn>> by_fd;

  /// Shared with sender threads.
  std::mutex mutex;
  std::unordered_map<Connection_id, Conn*> by_id;
  std::vector<Connection_id> dirty;
  /// Adopted links the loop has not yet put in its poller.
  std::vector<std::unique_ptr<Conn>> to_adopt;
  Connection_id next_id = 1;
  Tcp_stats counters;

  /// Loop-thread-only: set once stop() was observed; reads stay off.
  bool winding_down = false;

  std::atomic<bool> stop_requested{false};
  /// Set by the sender whose pipe byte is not yet drained by the loop.
  std::atomic<bool> wake_pending{false};

  /// The transport whose loop runs on this thread, if any.
  static inline thread_local const Impl* loop_owner = nullptr;
};

Tcp_transport::Tcp_transport(Tcp_options options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Tcp_transport::~Tcp_transport() = default;

std::uint16_t Tcp_transport::port() const noexcept {
  return impl_->bound_port;
}

void Tcp_transport::run(const Handlers& handlers) { impl_->run(handlers); }

void Tcp_transport::stop() { impl_->request_stop(); }

Connection_id Tcp_transport::adopt(int fd, Connection_id owner) {
  return impl_->adopt(fd, owner);
}

bool Tcp_transport::send(Connection_id connection, std::string_view line) {
  return impl_->send(connection, line);
}

void Tcp_transport::close(Connection_id connection) {
  impl_->request_close(connection);
}

Tcp_stats Tcp_transport::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->counters;
}

}  // namespace quest::serve

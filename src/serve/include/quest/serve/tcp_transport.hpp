// quest/serve/tcp_transport.hpp
//
// The connection-scale transport: a single event-loop thread multiplexes
// up to `max_connections` non-blocking TCP sockets with epoll (poll(2)
// on non-Linux builds). Design points:
//
//  * One loop thread owns all sockets and connection state; worker
//    threads never touch a file descriptor. send() appends to the
//    connection's outbound buffer under a mutex and marks it dirty; the
//    loop flushes dirty connections after every batch of readiness
//    events, so results stream out without a thread per connection.
//    A send() on the loop thread itself needs no wakeup. Other threads
//    wake the loop through a self-pipe, coalesced: a byte is written
//    only when no wakeup is pending, and the loop clears the pending
//    flag after draining the pipe, so one wakeup collects a burst.
//  * Write-side backpressure: a connection whose outbound buffer
//    exceeds `write_buffer_cap` stops being *read* until the buffer
//    drains below half the cap. A slow or stalled reader therefore
//    cannot pump new requests into the server while its results pile
//    up — memory per connection stays bounded by what is already in
//    flight, and the admission queue sheds the rest.
//  * adopt() serves a socket someone else connected (the cluster
//    router's backend links) on the same loop: its bytes reach on_data
//    and its end on_close, with no on_open and no place in the
//    connection counters or `max_connections`. A link is never
//    read-paused — pausing the reads of a link whose writes are stuck
//    would deadlock it with its peer. Instead, while it holds more than
//    `write_buffer_cap` unsent bytes, its *owner* connection's reads are
//    paused, so a stalled peer throttles only the client feeding it.
//  * Accepting past `max_connections` writes a single typed
//    "overloaded" error line and closes — refusal is explicit, not a
//    silent RST.
//  * stop() finishes with a bounded flush pass so events emitted just
//    before shutdown ("shutdown-complete") still reach their clients;
//    it waits for accepted connections only, not adopted links. At
//    teardown accepted connections get their on_close before adopted
//    links do.
//
// Thread contract: identical to Transport (run()/handlers on the loop
// thread, send()/close()/stop()/stats()/adopt() from anywhere).

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "quest/serve/transport.hpp"

namespace quest::serve {

struct Tcp_options {
  /// Bind address; loopback by default (the service speaks plain TCP
  /// with no auth — exposing it wider is an explicit decision).
  std::string bind_address = "127.0.0.1";
  /// Listen port; 0 binds an ephemeral port, readable via port().
  std::uint16_t port = 0;
  /// Accept cap: connection attempts beyond this are refused with a
  /// typed "overloaded" error line.
  std::size_t max_connections = 1024;
  /// Backpressure threshold: stop reading a connection whose outbound
  /// buffer exceeds this many bytes; resume below half of it.
  std::size_t write_buffer_cap = 1 << 20;
  /// Bytes per read() call.
  std::size_t read_chunk = 64 * 1024;
  /// When > 0, pins SO_SNDBUF on accepted sockets. The default (0)
  /// leaves kernel autotuning on; tests pin it so the write-side
  /// backpressure path engages deterministically.
  int send_buffer_bytes = 0;
  /// How long stop() keeps flushing pending outbound bytes before
  /// closing connections that will not drain.
  double flush_timeout_seconds = 5.0;
};

/// Loop-lifetime counters, for tests and the load harness. Monotonic
/// except `connections` (currently open). Adopted links count only in
/// the byte totals and `reads_paused`.
struct Tcp_stats {
  std::uint64_t accepted = 0;
  std::uint64_t refused = 0;
  std::uint64_t closed = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  /// Times a connection's reads were paused by a write buffer over the
  /// cap, its own or an adopted link's — nonzero proves backpressure
  /// actually engaged.
  std::uint64_t reads_paused = 0;
  std::size_t connections = 0;
  std::size_t max_connections_seen = 0;
};

class Tcp_transport final : public Transport {
 public:
  /// Binds and listens immediately; throws quest::Error when the
  /// socket/bind/listen fails (address in use, bad address, ...).
  explicit Tcp_transport(Tcp_options options);
  ~Tcp_transport() override;

  Tcp_transport(const Tcp_transport&) = delete;
  Tcp_transport& operator=(const Tcp_transport&) = delete;

  /// The actually bound port (resolves an ephemeral request).
  std::uint16_t port() const noexcept;

  void run(const Handlers& handlers) override;
  void stop() override;
  bool send(Connection_id connection, std::string_view line) override;
  void close(Connection_id connection) override;

  /// Serves the connected socket `fd` on the loop and takes ownership of
  /// it; returns its connection id for send()/close(). `owner` is the
  /// connection whose reads pause while this link's backlog is over the
  /// cap (0: none). See the file comment.
  Connection_id adopt(int fd, Connection_id owner);

  Tcp_stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace quest::serve

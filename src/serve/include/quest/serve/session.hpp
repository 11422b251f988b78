// quest/serve/session.hpp
//
// The session layer of the serving stack (see transport.hpp for the
// layering diagram): between a Transport's raw byte chunks and the
// Server's line-oriented op API. For each transport connection it
//
//  * opens a Server session, so events for that client's requests flow
//    back to exactly that connection and request ids are scoped per
//    client (two connections may both be running "r1");
//  * reassembles newline-delimited request lines through a Line_framer
//    (quest/serve/line_framer.hpp), answering an oversized line with a
//    typed "line-overflow" error and continuing after it;
//  * closes the Server session when the connection goes away, so a
//    vanished client's queued and running jobs are cancelled and their
//    workers freed (configurable: the stdio pipe instead keeps its
//    session so EOF-then-drain still delivers results, matching the
//    original quest_serve behavior).
//
// A shutdown op ends the whole serve: the Server has already joined its
// workers by the time handle_line returns false, so the manager stops
// the transport, whose bounded flush delivers the final events.

#pragma once

#include <cstddef>
#include <unordered_map>

#include "quest/serve/line_framer.hpp"
#include "quest/serve/server.hpp"
#include "quest/serve/transport.hpp"

namespace quest::serve {

/// Per-connection framing policy.
struct Session_options {
  /// Longest accepted request line, in bytes (excluding the newline).
  /// Longer lines are load-shed with a "line-overflow" error event.
  std::size_t max_line_bytes = 1 << 20;
  /// Whether a disconnect closes the Server session (cancelling the
  /// client's in-flight jobs, dropping its events). True for sockets;
  /// false for the stdio pipe, where EOF is followed by an explicit
  /// drain and the events must still reach stdout.
  bool close_session_on_disconnect = true;
};

/// Binds one Transport to one Server for the transport's lifetime. All
/// callbacks run on the transport's loop thread; the Server's worker
/// threads reach the transport only through Transport::send (which is
/// thread-safe by contract).
class Session_manager {
 public:
  Session_manager(Server& server, Transport& transport,
                  Session_options options = {});

  /// Runs the transport loop until it stops (shutdown op, stop() from
  /// another thread, or — for stdio — EOF). Returns true when a
  /// shutdown op ended the serve, false when the transport simply ran
  /// out (the caller then owns draining the server).
  bool serve();

 private:
  struct Connection_state {
    Server::Session_ptr session;
    Line_framer framer;
  };

  void on_open(Connection_id connection);
  void on_data(Connection_id connection, std::string_view chunk);
  void on_close(Connection_id connection);

  Server& server_;
  Transport& transport_;
  Session_options options_;
  std::unordered_map<Connection_id, Connection_state> connections_;
  bool shutdown_requested_ = false;
};

}  // namespace quest::serve

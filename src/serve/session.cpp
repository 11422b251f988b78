#include "quest/serve/session.hpp"

#include <string>
#include <utility>

#include "quest/common/error.hpp"
#include "quest/serve/protocol.hpp"

namespace quest::serve {

Session_manager::Session_manager(Server& server, Transport& transport,
                                 Session_options options)
    : server_(server), transport_(transport), options_(options) {
  QUEST_EXPECTS(options_.max_line_bytes >= 2,
                "max_line_bytes must hold at least a tiny op");
}

bool Session_manager::serve() {
  Transport::Handlers handlers;
  handlers.on_open = [this](Connection_id id) { on_open(id); };
  handlers.on_data = [this](Connection_id id, std::string_view chunk) {
    on_data(id, chunk);
  };
  handlers.on_close = [this](Connection_id id) { on_close(id); };
  transport_.run(handlers);
  return shutdown_requested_;
}

void Session_manager::on_open(Connection_id connection) {
  // The sink runs on Server worker threads as well as this loop thread;
  // Transport::send is thread-safe by contract, and a false return
  // (connection already gone) correctly drops the event.
  Connection_state state{
      server_.open_session([this, connection](const io::Json& event) {
        transport_.send(connection, event.dump());
      }),
      Line_framer(options_.max_line_bytes)};
  connections_.emplace(connection, std::move(state));
}

void Session_manager::on_data(Connection_id connection,
                              std::string_view chunk) {
  const auto found = connections_.find(connection);
  if (found == connections_.end()) return;
  Connection_state& state = found->second;
  state.framer.feed(
      chunk,
      [&](std::string_view line) {
        if (server_.handle_line(state.session, line)) return true;
        // Shutdown op: the server has joined its workers; stopping the
        // transport flushes the final events and ends serve(). `state`
        // may dangle once stop() tears connections down via on_close —
        // the framer drops the remaining buffered bytes.
        shutdown_requested_ = true;
        transport_.stop();
        return false;
      },
      [&] {
        transport_.send(connection,
                        line_overflow_event(options_.max_line_bytes).dump());
      });
}

void Session_manager::on_close(Connection_id connection) {
  const auto found = connections_.find(connection);
  if (found == connections_.end()) return;
  if (options_.close_session_on_disconnect) {
    server_.close_session(found->second.session);
  }
  connections_.erase(found);
}

}  // namespace quest::serve

// The TCP transport end to end, over real loopback sockets: the full
// stack (Tcp_transport event loop -> Session_manager -> Server) serves
// connect/optimize/result, streaming + cancellation, concurrent clients
// with colliding request ids, write-side backpressure (reads pause when
// a client stops draining), load shedding at the admission queue and at
// the connection limit (both as typed "overloaded" errors), oversized
// and malformed lines, optimize_batch, a clean network shutdown, and
// sends from many threads at once (no wakeup of the loop may be lost).

#include "quest/serve/tcp_transport.hpp"

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "quest/common/timer.hpp"
#include "quest/io/instance_io.hpp"
#include "quest/io/json.hpp"
#include "quest/serve/server.hpp"
#include "quest/serve/session.hpp"
#include "support/helpers.hpp"
#include "support/line_client.hpp"

namespace quest {
namespace {

using namespace quest::serve;
using Client = test::Line_client;

/// One full serving stack on an ephemeral loopback port, the transport
/// loop on its own thread — what quest_serve --tcp-port 0 builds.
class Stack {
 public:
  explicit Stack(Server_options server_options = {},
                 Tcp_options tcp_options = {},
                 Session_options session_options = {})
      : transport_(std::move(tcp_options)),
        server_(server_options),
        sessions_(server_, transport_, session_options),
        loop_([this] { shutdown_served_ = sessions_.serve(); }) {}

  ~Stack() { stop(); }

  std::uint16_t port() const { return transport_.port(); }
  Tcp_transport& transport() { return transport_; }
  Server& server() { return server_; }

  void stop() {
    if (!loop_.joinable()) return;
    transport_.stop();
    loop_.join();
    server_.shutdown();
  }

  /// Joins the loop without forcing a stop — for tests where a client's
  /// shutdown op ends the serve.
  bool wait_shutdown_served() {
    if (loop_.joinable()) loop_.join();
    return shutdown_served_;
  }

 private:
  Tcp_transport transport_;
  Server server_;
  Session_manager sessions_;
  bool shutdown_served_ = false;
  std::thread loop_;
};

std::string register_line(const std::string& name, std::size_t n,
                          std::uint64_t seed) {
  return std::string(R"({"op":"register","name":")") + name +
         R"(","instance":)" +
         io::to_json(test::selective_instance(n, seed)).dump() + "}";
}

constexpr const char* k_long_job =
    R"("optimizer":"annealing:iterations=2000000000",)"
    R"("budget":{"deadline_ms":60000},"cache":false)";

TEST(Tcp_transport_test, ConnectOptimizeResultOverARealSocket) {
  Stack stack;
  Client client(stack.port());
  client.send_line(register_line("prod", 10, 3));
  const io::Json registered = client.wait_event("registered");
  ASSERT_TRUE(registered.is_object());
  EXPECT_EQ(registered.at("services").as_number(), 10.0);

  client.send_line(
      R"({"op":"optimize","id":"r1","instance":"prod","optimizer":"bnb"})");
  const io::Json admitted = client.wait_event("admitted", "r1");
  ASSERT_TRUE(admitted.is_object());
  const io::Json result = client.wait_event("result", "r1");
  ASSERT_TRUE(result.is_object());
  EXPECT_EQ(result.at("termination").as_string(), "optimal");
  EXPECT_EQ(result.at("plan").as_array().size(), 10u);
}

TEST(Tcp_transport_test, StreamedIncumbentsAndCancellation) {
  Stack stack;
  Client client(stack.port());
  client.send_line(register_line("prod", 12, 7));
  client.wait_event("registered");

  client.send_line(std::string(R"({"op":"optimize","id":"slow",)") +
                   R"("instance":"prod","stream":true,)" + k_long_job + "}");
  ASSERT_TRUE(client.wait_event("incumbent", "slow").is_object());

  client.send_line(R"({"op":"cancel","id":"slow"})");
  const io::Json result = client.wait_event("result", "slow");
  ASSERT_TRUE(result.is_object());
  EXPECT_EQ(result.at("termination").as_string(), "cancelled");
  EXPECT_TRUE(result.at("complete").as_bool());  // best incumbent
}

TEST(Tcp_transport_test, ConcurrentClientsWithCollidingIdsGetTheirOwnResults) {
  Server_options options;
  options.workers = 4;
  Stack stack(options);

  // Eight clients, every one calling its request "r1" on its own
  // instance size — per-session id scoping plus correct event fan-out
  // means each client reads exactly its own plan back.
  constexpr int k_clients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int index = 0; index < k_clients; ++index) {
    threads.emplace_back([&, index] {
      const std::size_t n = 6 + static_cast<std::size_t>(index);
      Client client(stack.port());
      const std::string name = test::numbered("i", index);
      client.send_line(register_line(name, n, 100 + index));
      client.wait_event("registered");
      client.send_line(std::string(R"({"op":"optimize","id":"r1",)") +
                       R"("instance":")" + name +
                       R"(","optimizer":"bnb","cache":false})");
      const io::Json result = client.wait_event("result", "r1");
      if (!result.is_object() ||
          result.at("plan").as_array().size() != n ||
          result.at("termination").as_string() != "optimal") {
        ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(stack.server().stats().completed,
            static_cast<std::uint64_t>(k_clients));
}

TEST(Tcp_transport_test, BackpressurePausesReadsUntilTheClientDrains) {
  Tcp_options tcp;
  tcp.write_buffer_cap = 2048;   // a few stats replies fill it
  tcp.send_buffer_bytes = 4096;  // pin the kernel pipe small
  Stack stack(Server_options{}, tcp);
  Client client(stack.port(), /*receive_buffer_bytes=*/4096);

  // Burst stats ops without reading a single reply: the replies
  // overflow the pinned kernel buffers into the transport's outbound
  // buffer, blow past the cap, and the transport stops reading us.
  constexpr int k_ops = 300;
  std::string burst;
  for (int index = 0; index < k_ops; ++index) {
    burst += "{\"op\":\"stats\"}\n";
  }
  client.send_raw(burst);

  Timer timer;
  while (stack.transport().stats().reads_paused == 0 &&
         timer.seconds() < 20.0) {
    std::this_thread::yield();
  }
  EXPECT_GT(stack.transport().stats().reads_paused, 0u);

  // Drain: every single reply must still arrive, in order.
  for (int index = 0; index < k_ops; ++index) {
    const std::string line = client.read_line();
    ASSERT_FALSE(line.empty()) << "reply " << index;
    EXPECT_EQ(io::Json::parse(line).at("event").as_string(), "stats");
  }
}

TEST(Tcp_transport_test, AdmissionQueueOverloadIsShedWithATypedError) {
  Server_options options;
  options.workers = 1;
  options.queue_cap = 1;
  Stack stack(options);
  Client client(stack.port());
  client.send_line(register_line("prod", 12, 9));
  client.wait_event("registered");

  // One running + one queued fills the stack; the third must shed.
  // Sequenced via events so the outcome is deterministic: the streamed
  // incumbent proves "a" occupies the worker (not the queue) before "b"
  // is queued, and "b"'s admitted ack precedes "c".
  client.send_line(std::string(R"({"op":"optimize","id":"a",)") +
                   R"("instance":"prod","stream":true,)" + k_long_job + "}");
  ASSERT_TRUE(client.wait_event("incumbent", "a").is_object());
  client.send_line(std::string(R"({"op":"optimize","id":"b",)") +
                   R"("instance":"prod",)" + k_long_job + "}");
  ASSERT_TRUE(client.wait_event("admitted", "b").is_object());
  client.send_line(std::string(R"({"op":"optimize","id":"c",)") +
                   R"("instance":"prod",)" + k_long_job + "}");
  const io::Json shed = client.wait_event("error", "c");
  ASSERT_TRUE(shed.is_object());
  EXPECT_EQ(shed.at("code").as_string(), "overloaded");
  EXPECT_EQ(shed.at("queue_cap").as_number(), 1.0);

  // The bounded-queue counters appear on the stats event.
  client.send_line(R"({"op":"stats"})");
  const io::Json stats = client.wait_event("stats");
  ASSERT_TRUE(stats.is_object());
  EXPECT_EQ(stats.at("shed").as_number(), 1.0);
  EXPECT_EQ(stats.at("queue_cap").as_number(), 1.0);
  EXPECT_EQ(stats.at("sessions").as_number(), 1.0);

  for (const char* id : {"a", "b"}) {
    client.send_line(std::string(R"({"op":"cancel","id":")") + id + "\"}");
    client.wait_event("result", id);
  }
}

TEST(Tcp_transport_test, ConnectionLimitRefusesWithATypedErrorLine) {
  Tcp_options tcp;
  tcp.max_connections = 2;
  Stack stack(Server_options{}, tcp);

  Client first(stack.port());
  Client second(stack.port());
  // Both are live; prove it before the refusal case.
  first.send_line(R"({"op":"stats"})");
  ASSERT_TRUE(first.wait_event("stats").is_object());

  Client refused(stack.port());
  const std::string line = refused.read_line();
  ASSERT_FALSE(line.empty());
  const io::Json error = io::Json::parse(line);
  EXPECT_EQ(error.at("event").as_string(), "error");
  EXPECT_EQ(error.at("code").as_string(), "overloaded");
  EXPECT_TRUE(refused.at_eof());
  EXPECT_EQ(stack.transport().stats().refused, 1u);

  // The refusal freed nothing: the two real connections still serve.
  second.send_line(R"({"op":"stats"})");
  EXPECT_TRUE(second.wait_event("stats").is_object());
}

TEST(Tcp_transport_test, MalformedAndOversizedLinesGetTypedErrors) {
  Session_options session;
  session.max_line_bytes = 256;
  Stack stack(Server_options{}, Tcp_options{}, session);
  Client client(stack.port());

  client.send_line("this is not json");
  const io::Json parse_error = client.wait_event("error");
  ASSERT_TRUE(parse_error.is_object());
  EXPECT_EQ(parse_error.at("code").as_string(), "parse");

  client.send_line(std::string(1000, 'x'));
  const io::Json overflow = client.wait_event("error");
  ASSERT_TRUE(overflow.is_object());
  EXPECT_EQ(overflow.at("code").as_string(), "line-overflow");

  // Truncated JSON (a valid op cut mid-way) is a parse error, and the
  // session keeps serving afterwards.
  client.send_line(R"({"op":"optimize","id":"t1","inst)");
  EXPECT_EQ(client.wait_event("error").at("code").as_string(), "parse");
  client.send_line(R"({"op":"stats"})");
  EXPECT_TRUE(client.wait_event("stats").is_object());
}

TEST(Tcp_transport_test, OptimizeBatchFansOutPerElementResults) {
  Stack stack;
  Client client(stack.port());
  client.send_line(register_line("prod", 9, 21));
  client.wait_event("registered");

  client.send_line(
      R"({"op":"optimize_batch","id":"b1","requests":[)"
      R"({"instance":"prod","optimizer":"bnb","cache":false},)"
      R"({"instance":"prod","optimizer":"dp","cache":false},)"
      R"({"id":"named","instance":"prod","optimizer":"greedy","cache":false}]})");
  const io::Json batch = client.wait_event("batch-admitted", "b1");
  ASSERT_TRUE(batch.is_object());
  EXPECT_EQ(batch.at("count").as_number(), 3.0);
  // The elements run on parallel workers, so results arrive in any
  // order; collect all three and compare the id set.
  std::set<std::string> ids;
  for (int i = 0; i < 3; ++i) {
    const io::Json result = client.wait_event("result");
    ASSERT_TRUE(result.is_object());
    ids.insert(result.at("id").as_string());
  }
  EXPECT_EQ(ids, (std::set<std::string>{"b1/0", "b1/1", "named"}));
}

TEST(Tcp_transport_test, DisconnectCancelsThatClientsInFlightWork) {
  Server_options options;
  options.workers = 1;
  Stack stack(options);
  {
    Client doomed(stack.port());
    doomed.send_line(register_line("prod", 12, 31));
    doomed.wait_event("registered");
    doomed.send_line(std::string(R"({"op":"optimize","id":"gone",)") +
                     R"("instance":"prod",)" + k_long_job + "}");
    doomed.wait_event("admitted", "gone");
  }  // socket closes here

  // The disconnect cancels the job and frees the only worker — a new
  // client's request completes promptly.
  Client next(stack.port());
  Timer timer;
  while (stack.server().stats().completed < 1 && timer.seconds() < 20.0) {
    std::this_thread::yield();
  }
  EXPECT_EQ(stack.server().stats().cancelled, 1u);
  next.send_line(register_line("other", 8, 33));
  next.wait_event("registered");
  next.send_line(
      R"({"op":"optimize","id":"fresh","instance":"other","optimizer":"bnb"})");
  EXPECT_TRUE(next.wait_event("result", "fresh").is_object());
}

TEST(Tcp_transport_test, ShutdownOpDrainsFinalEventsToTheClient) {
  Stack stack;
  Client client(stack.port());
  client.send_line(R"({"op":"shutdown"})");
  // The bounded flush on stop() must deliver both shutdown events
  // before the connection closes.
  ASSERT_TRUE(client.wait_event("shutting-down").is_object());
  ASSERT_TRUE(client.wait_event("shutdown-complete").is_object());
  EXPECT_TRUE(client.at_eof());
  EXPECT_TRUE(stack.wait_shutdown_served());
}

/// A connected loopback TCP pair: `local` to hand to adopt(), `peer`
/// standing in for the remote end (a backend, for the router).
struct Socket_pair {
  int local = -1;
  int peer = -1;
};

Socket_pair loopback_pair(int buffer_bytes = 0) {
  Socket_pair pair;
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  socklen_t length = sizeof(address);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&address), length) != 0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&address),
                    &length) != 0) {
    ADD_FAILURE() << "loopback listener: " << std::strerror(errno);
    ::close(listener);
    return pair;
  }
  pair.local = ::socket(AF_INET, SOCK_STREAM, 0);
  if (buffer_bytes > 0) {
    // Small kernel buffers on both sides, so a peer that stops reading
    // backs bytes up into the transport quickly.
    ::setsockopt(pair.local, SOL_SOCKET, SO_SNDBUF, &buffer_bytes,
                 sizeof(buffer_bytes));
    ::setsockopt(listener, SOL_SOCKET, SO_RCVBUF, &buffer_bytes,
                 sizeof(buffer_bytes));
  }
  if (::connect(pair.local, reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) != 0) {
    ADD_FAILURE() << "loopback connect: " << std::strerror(errno);
  }
  pair.peer = ::accept(listener, nullptr, nullptr);
  ::close(listener);
  return pair;
}

/// Transport handlers that record what they see, for tests of the bare
/// transport. Callbacks run on the loop thread; tests poll from theirs.
class Recorder {
 public:
  Transport::Handlers handlers() {
    Transport::Handlers handlers;
    handlers.on_open = [this](Connection_id id) {
      std::lock_guard<std::mutex> lock(mutex_);
      opened_.push_back(id);
    };
    handlers.on_data = [this](Connection_id id, std::string_view chunk) {
      std::lock_guard<std::mutex> lock(mutex_);
      data_[id].append(chunk);
    };
    handlers.on_close = [this](Connection_id id) {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_.insert(id);
    };
    return handlers;
  }

  std::vector<Connection_id> opened() {
    std::lock_guard<std::mutex> lock(mutex_);
    return opened_;
  }
  std::string data(Connection_id id) {
    std::lock_guard<std::mutex> lock(mutex_);
    return data_[id];
  }
  bool closed(Connection_id id) {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_.count(id) != 0;
  }

  /// Polls `condition` until it holds or `seconds` pass.
  template <typename Condition>
  static bool eventually(Condition&& condition, double seconds = 10.0) {
    Timer timer;
    while (timer.seconds() < seconds) {
      if (condition()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return condition();
  }

 private:
  std::mutex mutex_;
  std::vector<Connection_id> opened_;
  std::map<Connection_id, std::string> data_;
  std::set<Connection_id> closed_;
};

/// A bare transport with its loop on its own thread.
class Loop {
 public:
  explicit Loop(Tcp_options options = {})
      : transport(std::move(options)),
        thread_([this] { transport.run(recorder.handlers()); }) {}
  ~Loop() {
    transport.stop();
    thread_.join();
  }

  Recorder recorder;
  Tcp_transport transport;

 private:
  std::thread thread_;
};

std::string read_available(int fd, double seconds) {
  std::string bytes;
  Timer timer;
  while (timer.seconds() < seconds && bytes.find('\n') == std::string::npos) {
    pollfd waiter{fd, POLLIN, 0};
    if (::poll(&waiter, 1, 10) <= 0) continue;
    char chunk[4096];
    const ssize_t count = ::recv(fd, chunk, sizeof(chunk), 0);
    if (count <= 0) break;
    bytes.append(chunk, static_cast<std::size_t>(count));
  }
  return bytes;
}

TEST(Tcp_transport_test, AdoptedSocketIsServedWithoutOnOpen) {
  Loop loop;
  const Socket_pair pair = loopback_pair();
  // adopt() from this thread, not the loop's.
  const Connection_id link = loop.transport.adopt(pair.local, /*owner=*/0);
  EXPECT_NE(link, 0u);

  ASSERT_EQ(::send(pair.peer, "hello\n", 6, MSG_NOSIGNAL), 6);
  EXPECT_TRUE(Recorder::eventually(
      [&] { return loop.recorder.data(link) == "hello\n"; }));

  EXPECT_TRUE(loop.transport.send(link, "world"));
  EXPECT_EQ(read_available(pair.peer, 10.0), "world\n");

  ::close(pair.peer);
  EXPECT_TRUE(Recorder::eventually([&] { return loop.recorder.closed(link); }));
  EXPECT_TRUE(loop.recorder.opened().empty());
  const Tcp_stats stats = loop.transport.stats();
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.closed, 0u);
  EXPECT_EQ(stats.connections, 0u);
  EXPECT_FALSE(loop.transport.send(link, "gone"));
}

TEST(Tcp_transport_test, AdoptedSocketsDoNotCountTowardTheConnectionLimit) {
  Tcp_options tcp;
  tcp.max_connections = 1;
  Loop loop(tcp);
  const Socket_pair first = loopback_pair();
  const Socket_pair second = loopback_pair();
  loop.transport.adopt(first.local, 0);
  loop.transport.adopt(second.local, 0);

  Client client(loop.transport.port());
  client.send_line("ping");
  ASSERT_TRUE(Recorder::eventually(
      [&] { return loop.recorder.opened().size() == 1; }));
  const Connection_id id = loop.recorder.opened().front();
  EXPECT_TRUE(Recorder::eventually(
      [&] { return loop.recorder.data(id) == "ping\n"; }));
  const Tcp_stats stats = loop.transport.stats();
  EXPECT_EQ(stats.refused, 0u);
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.connections, 1u);
  ::close(first.peer);
  ::close(second.peer);
}

TEST(Tcp_transport_test, StalledAdoptedPeerPausesItsOwnerNotItself) {
  Tcp_options tcp;
  tcp.write_buffer_cap = 4096;
  Loop loop(tcp);
  Client owner(loop.transport.port());
  ASSERT_TRUE(Recorder::eventually(
      [&] { return loop.recorder.opened().size() == 1; }));
  const Connection_id owner_id = loop.recorder.opened().front();
  const Socket_pair pair = loopback_pair(/*buffer_bytes=*/4096);
  const Connection_id link = loop.transport.adopt(pair.local, owner_id);

  // The peer never reads: the link's backlog passes the cap.
  const std::string filler(1024, 'x');
  for (int i = 0; i < 4096 && loop.transport.stats().reads_paused == 0;
       ++i) {
    ASSERT_TRUE(loop.transport.send(link, filler));
    if (i % 64 == 63) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(Recorder::eventually(
      [&] { return loop.transport.stats().reads_paused > 0; }));

  // The owner is no longer read; the link still is.
  owner.send_line("held");
  ASSERT_EQ(::send(pair.peer, "still read\n", 11, MSG_NOSIGNAL), 11);
  EXPECT_TRUE(Recorder::eventually(
      [&] { return loop.recorder.data(link) == "still read\n"; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(loop.recorder.data(owner_id), "");

  // The peer drains; the owner's reads resume.
  std::thread drain([&] {
    char chunk[65536];
    while (::recv(pair.peer, chunk, sizeof(chunk), 0) > 0) {
    }
  });
  EXPECT_TRUE(Recorder::eventually(
      [&] { return loop.recorder.data(owner_id) == "held\n"; }));
  ::shutdown(pair.peer, SHUT_RDWR);
  drain.join();
  ::close(pair.peer);
}

TEST(Tcp_transport_test, ConcurrentSendersNeverLoseALoopWakeup) {
  // The bare transport, no server: K threads send M lines each across C
  // connections while the loop runs. Senders skip the pipe write while a
  // wakeup is pending, so a wrongly cleared pending flag strands lines in
  // the outbound buffers with the loop asleep; every line must arrive,
  // in per-sender order, within the time bound.
  constexpr std::size_t k_senders = 4;
  constexpr std::size_t k_lines = 16000;
  constexpr std::size_t k_connections = 4;

  Tcp_transport transport(Tcp_options{});
  std::mutex opened_mutex;
  std::vector<Connection_id> opened;
  Transport::Handlers handlers;
  handlers.on_open = [&](Connection_id id) {
    std::lock_guard<std::mutex> lock(opened_mutex);
    opened.push_back(id);
  };
  std::thread loop([&] { transport.run(handlers); });

  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t c = 0; c < k_connections; ++c) {
    clients.push_back(std::make_unique<Client>(transport.port()));
  }
  Timer timer;
  std::vector<Connection_id> ids;
  while (ids.size() < k_connections && timer.seconds() < 20.0) {
    std::this_thread::yield();
    std::lock_guard<std::mutex> lock(opened_mutex);
    ids = opened;
  }
  if (ids.size() != k_connections) {
    transport.stop();
    loop.join();
    FAIL() << "only " << ids.size() << " connections opened";
  }

  // Sender k sends "k m" to connection (k + m) % C.
  std::vector<std::thread> senders;
  for (std::size_t k = 0; k < k_senders; ++k) {
    senders.emplace_back([&, k] {
      for (std::size_t m = 0; m < k_lines; ++m) {
        transport.send(ids[(k + m) % k_connections],
                       std::to_string(k) + " " + std::to_string(m));
        // Paced, so the loop sleeps and wakes thousands of times.
        if (m % 2 == 1) {
          std::this_thread::sleep_for(std::chrono::microseconds(10));
        }
      }
    });
  }

  // Connection order is unknown to the clients, so each client matches
  // the expected stream of whichever connection id it turns out to be:
  // per sender, the line numbers it gets must be exactly the ones sent to
  // its connection, ascending.
  std::vector<std::map<std::size_t, std::vector<std::size_t>>> received(
      k_connections);
  const std::size_t per_connection = k_senders * k_lines / k_connections;
  for (std::size_t c = 0; c < k_connections; ++c) {
    for (std::size_t i = 0; i < per_connection; ++i) {
      const std::string line = clients[c]->read_line(30.0 - timer.seconds());
      if (line.empty()) break;
      std::istringstream fields(line);
      std::size_t k = 0;
      std::size_t m = 0;
      fields >> k >> m;
      received[c][k].push_back(m);
    }
  }
  for (auto& sender : senders) sender.join();
  transport.stop();
  loop.join();

  std::set<std::size_t> matched;
  for (std::size_t c = 0; c < k_connections; ++c) {
    bool found = false;
    for (std::size_t target = 0; target < k_connections && !found;
         ++target) {
      std::map<std::size_t, std::vector<std::size_t>> expected;
      for (std::size_t k = 0; k < k_senders; ++k) {
        for (std::size_t m = 0; m < k_lines; ++m) {
          if ((k + m) % k_connections == target) expected[k].push_back(m);
        }
      }
      found = received[c] == expected && matched.insert(target).second;
    }
    std::size_t total = 0;
    for (const auto& [k, lines] : received[c]) total += lines.size();
    EXPECT_TRUE(found) << "client " << c << " got " << total << " of "
                       << per_connection << " lines, or out of order";
  }
}

}  // namespace
}  // namespace quest

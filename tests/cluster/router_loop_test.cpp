// The router's backend links on its event loop, in process: real
// quest_serve stacks (Server + Session_manager + Tcp_transport) behind a
// Replica_router on its own Tcp_transport. Pins what the loop design
// promises: the router's thread count does not grow with its clients, a
// backend that stops reading does not delay clients of healthy shards,
// and a failover shows the client one "admitted" per request.

#include "quest/cluster/replica_router.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "quest/common/timer.hpp"
#include "quest/io/fingerprint.hpp"
#include "quest/io/instance_io.hpp"
#include "quest/io/json.hpp"
#include "quest/serve/server.hpp"
#include "quest/serve/session.hpp"
#include "quest/serve/tcp_transport.hpp"
#include "quest/store/shard_map.hpp"
#include "support/helpers.hpp"
#include "support/line_client.hpp"

namespace quest {
namespace {

using test::Line_client;

constexpr std::size_t k_services = 6;

/// One in-process quest_serve backend on an ephemeral port.
class Backend {
 public:
  Backend()
      : transport_(serve::Tcp_options{}),
        server_(one_worker()),
        sessions_(server_, transport_),
        loop_([this] { sessions_.serve(); }) {}

  ~Backend() {
    transport_.stop();
    loop_.join();
    server_.shutdown();
  }

  std::string address() const {
    return "127.0.0.1:" + std::to_string(transport_.port());
  }

 private:
  static serve::Server_options one_worker() {
    serve::Server_options options;
    options.workers = 1;
    return options;
  }

  serve::Tcp_transport transport_;
  serve::Server server_;
  serve::Session_manager sessions_;
  std::thread loop_;
};

/// A listening socket that never accepts: connects complete in the
/// kernel backlog, and nothing ever reads what they send.
class Stalled_backend {
 public:
  Stalled_backend() : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    const int small = 4096;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    socklen_t length = sizeof(address);
    ::bind(fd_, reinterpret_cast<sockaddr*>(&address), length);
    ::listen(fd_, 16);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&address), &length);
    port_ = ntohs(address.sin_port);
  }

  ~Stalled_backend() { close(); }

  /// Closing the listener resets every connection still in its backlog.
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  std::string address() const {
    return "127.0.0.1:" + std::to_string(port_);
  }

 private:
  int fd_;
  std::uint16_t port_ = 0;
};

/// A Replica_router on an ephemeral port, its loop on its own thread.
class Router {
 public:
  Router(std::vector<std::string> backends, std::size_t replicas,
         std::size_t max_line_bytes = 1 << 20)
      : transport_(serve::Tcp_options{}),
        router_(options(std::move(backends), replicas, max_line_bytes),
                transport_),
        loop_([this] { router_.serve(); }) {}

  ~Router() {
    transport_.stop();
    loop_.join();
  }

  std::uint16_t port() const { return transport_.port(); }
  serve::Tcp_transport& transport() { return transport_; }

 private:
  static cluster::Replica_options options(std::vector<std::string> backends,
                                          std::size_t replicas,
                                          std::size_t max_line_bytes) {
    cluster::Replica_options options;
    options.backends = std::move(backends);
    options.replicas = replicas;
    options.max_line_bytes = max_line_bytes;
    // One probe at start, then quiet for the test's lifetime.
    options.probe_interval = std::chrono::minutes(1);
    options.max_backoff = std::chrono::minutes(1);
    return options;
  }

  serve::Tcp_transport transport_;
  cluster::Replica_router router_;
  std::thread loop_;
};

std::size_t thread_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

/// The first seed from 1 whose instance the router places on `shard`.
std::uint64_t seed_on_shard(std::size_t shard, std::size_t shards) {
  const store::Shard_map map(shards);
  for (std::uint64_t seed = 1;; ++seed) {
    const auto print =
        io::fingerprint(test::selective_instance(k_services, seed), nullptr);
    if (map.shard_of(print) == shard) return seed;
  }
}

std::string register_line(const std::string& name, std::uint64_t seed,
                          const std::string& extra = {}) {
  return std::string(R"({"op":"register","name":")") + name +
         R"(","instance":)" +
         io::to_json(test::selective_instance(k_services, seed)).dump() +
         extra + "}";
}

std::string optimize_line(const std::string& id, const std::string& name) {
  return std::string(R"({"op":"optimize","id":")") + id +
         R"(","instance":")" + name + R"(","optimizer":"bnb","cache":false})";
}

TEST(Router_loop_test, ThreadCountDoesNotGrowWithClients) {
  Backend a;
  Backend b;
  Backend c;
  Router router({a.address(), b.address(), c.address()}, /*replicas=*/1);

  // A stats op fans out to every shard, so each client then holds a
  // link to all three backends.
  std::vector<std::unique_ptr<Line_client>> clients;
  const auto add_client = [&] {
    clients.push_back(std::make_unique<Line_client>(router.port()));
    clients.back()->send_line(R"({"op":"stats"})");
    const io::Json stats = clients.back()->wait_event("stats");
    ASSERT_TRUE(stats.is_object());
    EXPECT_EQ(stats.at("shards_live").as_number(), 3.0);
  };

  const auto idle = static_cast<long>(thread_count());
  add_client();
  const auto one = static_cast<long>(thread_count());
  while (clients.size() < 64) add_client();
  const auto many = static_cast<long>(thread_count());
  EXPECT_LE(many - idle, one - idle)
      << "idle " << idle << ", 1 client " << one << ", 64 clients " << many;
  EXPECT_EQ(many, idle);
}

TEST(Router_loop_test, AStalledBackendDoesNotDelayHealthyShards) {
  Stalled_backend stalled;
  Backend healthy;
  Backend other;
  constexpr std::size_t k_pad = 1 << 20;
  Router router({stalled.address(), healthy.address(), other.address()},
                /*replicas=*/1, /*max_line_bytes=*/2 * k_pad);

  Line_client client(router.port());
  client.send_line(register_line("fine", seed_on_shard(1, 3)));
  ASSERT_TRUE(client.wait_event("registered").is_object());

  // A second client floods the stalled shard with registers far past
  // every kernel buffer on the way, from its own thread: its writes
  // block once the router stops reading it.
  const std::string flood_line =
      register_line("stuck", seed_on_shard(0, 3),
                    ",\"pad\":\"" + std::string(k_pad, 'x') + "\"") +
      "\n";
  Line_client flooder(router.port());
  std::thread flood([&] {
    for (int i = 0; i < 16; ++i) {
      std::size_t sent = 0;
      while (sent < flood_line.size()) {
        const ssize_t count =
            ::send(flooder.fd(), flood_line.data() + sent,
                   flood_line.size() - sent, MSG_NOSIGNAL);
        if (count <= 0) return;
        sent += static_cast<std::size_t>(count);
      }
    }
  });

  Timer paused;
  while (router.transport().stats().reads_paused == 0 &&
         paused.seconds() < 20.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(router.transport().stats().reads_paused, 0u);

  Timer timer;
  client.send_line(optimize_line("r1", "fine"));
  const io::Json result = client.wait_event("result", "r1", 10.0);
  EXPECT_TRUE(result.is_object());
  EXPECT_LT(timer.seconds(), 5.0);

  stalled.close();
  ::shutdown(flooder.fd(), SHUT_RDWR);
  flood.join();
}

/// A backend that admits the first optimize it reads, then drops the
/// connection: a kill -9 right after admission.
class Admit_then_die {
 public:
  Admit_then_die() : listener_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in address{};
    address.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    socklen_t length = sizeof(address);
    ::bind(listener_, reinterpret_cast<sockaddr*>(&address), length);
    ::listen(listener_, 16);
    ::getsockname(listener_, reinterpret_cast<sockaddr*>(&address), &length);
    port_ = ntohs(address.sin_port);
    thread_ = std::thread([this] { serve(); });
  }

  ~Admit_then_die() {
    ::shutdown(listener_, SHUT_RDWR);  // wakes the blocked accept
    thread_.join();
    ::close(listener_);
  }

  std::string address() const {
    return "127.0.0.1:" + std::to_string(port_);
  }

 private:
  void serve() {
    for (;;) {
      const int fd = ::accept(listener_, nullptr, nullptr);
      if (fd < 0) return;
      std::string seen;
      char chunk[4096];
      ssize_t count = 0;
      while (seen.find(R"("op":"optimize")") == std::string::npos &&
             (count = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
        seen.append(chunk, static_cast<std::size_t>(count));
      }
      if (count > 0) {
        const std::string admitted =
            "{\"event\":\"admitted\",\"id\":\"r1\",\"queue_depth\":0}\n";
        ::send(fd, admitted.data(), admitted.size(), MSG_NOSIGNAL);
      }
      ::close(fd);
    }
  }

  int listener_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(Router_loop_test, FailoverShowsTheClientOneAdmitted) {
  Admit_then_die dying;
  Backend replica;
  Router router({dying.address(), replica.address()}, /*replicas=*/2);

  // Shard 0 (the dying backend) is the primary; the register reaches
  // the replica over the router's replication feed.
  Line_client client(router.port());
  client.send_line(register_line("prod", seed_on_shard(0, 2)));
  client.send_line(optimize_line("r1", "prod"));

  std::size_t admitted = 0;
  for (;;) {
    const std::string line = client.read_line(30.0);
    ASSERT_FALSE(line.empty()) << "no result for r1";
    const io::Json event = io::Json::parse(line);
    const io::Json* id = event.find("id");
    if (id == nullptr || id->as_string() != "r1") continue;
    const std::string kind = event.at("event").as_string();
    if (kind == "admitted") ++admitted;
    if (kind == "result") break;
    ASSERT_EQ(kind, "admitted") << line;
  }
  EXPECT_EQ(admitted, 1u);
}

}  // namespace
}  // namespace quest

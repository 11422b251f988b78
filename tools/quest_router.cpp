// quest_router — the fingerprint-sharding front of a quest_serve fleet.
// Speaks the ordinary quest_serve wire protocol on its TCP port and
// forwards each op to the backend that owns the instance it concerns,
// where ownership is consistent hashing of the instance's content
// fingerprint (quest/store/shard_map.hpp). Backends key their plan
// caches — and their --snapshot-path persistence — by the same
// fingerprint, so routing by it keeps every instance's warm and durable
// state on one backend.
//
//   quest_serve  --tcp-port 7401 --snapshot-path shard0.qsnap &
//   quest_serve  --tcp-port 7402 --snapshot-path shard1.qsnap &
//   quest_router --tcp-port 7400 --backends 127.0.0.1:7401,127.0.0.1:7402
//
// Clients connect to the router exactly as they would to a single
// quest_serve: register / observe / refit / optimize / optimize_batch /
// cancel flow to the owning shard, stats fans out and comes back as one
// merged event, shutdown takes the whole fleet down.
//
// --replicas R (default 1) binds every key to R distinct shards
// (quest/cluster/replica_router.hpp): registers fan out, optimizes fail
// over to the next live owner on backend death or shed, a health prober
// tracks the fleet, and a registration journal (--journal; in memory
// when unset) heals rejoining backends by replay. At R=1 each key has
// one owner, and a dead backend sheds its ops with the protocol's typed
// "overloaded" error until the prober sees it back. The merged stats
// event carries "shards" / "shards_live" / "replicas" /
// "shards_degraded" / "replica_failovers" / "repairs" / "replica_lag".
//
// The first stdout line is {"event":"listening","port":N} (N is the
// bound port — useful with --tcp-port 0).

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "quest/cluster/replica_router.hpp"
#include "quest/common/cli.hpp"
#include "quest/io/json.hpp"
#include "quest/serve/tcp_transport.hpp"

int main(int argc, char** argv) {
  using namespace quest;
  try {
    Cli cli("quest_router",
            "consistent-hash shard router in front of quest_serve backends");
    auto& backends = cli.add_string(
        "backends", "",
        "comma-separated backend host:port list, one per shard (required)");
    auto& tcp_port = cli.add_int(
        "tcp-port", 0,
        "listen port (0 = ephemeral; the bound port is announced as a "
        "\"listening\" event)");
    auto& bind_address =
        cli.add_string("bind", "127.0.0.1", "TCP listen address");
    auto& replicas = cli.add_int(
        "replicas", 1,
        "replication factor: each key lives on this many distinct shards; "
        "1 = one owner per key, >1 adds write fan-out and read failover");
    auto& ring_points = cli.add_int(
        "ring-points", 64,
        "consistent-hash ring points per shard; more points = smoother "
        "load split, identical values on every router = identical routing");
    auto& journal_path = cli.add_string(
        "journal", "",
        "registration journal file for replica repair (empty = in-memory "
        "only)");
    auto& probe_interval_ms = cli.add_int(
        "probe-interval-ms", 500,
        "backend health probe cadence in milliseconds (dead shards back "
        "off exponentially from here)");
    auto& max_connections = cli.add_int(
        "max-connections", 1024,
        "client connection limit; excess connects are refused with a "
        "typed \"overloaded\" error");
    auto& max_line_bytes = cli.add_int(
        "max-line-bytes", 1 << 20,
        "longest accepted request line; longer lines get a typed "
        "\"line-overflow\" error");
    auto& write_buffer_bytes = cli.add_int(
        "write-buffer-bytes", 1 << 20,
        "per-client outbound buffer cap; a connection above it stops "
        "being read until the client drains (backpressure)");
    cli.parse(argc, argv);

    std::vector<std::string> backend_list;
    std::string rest = backends.value;
    while (!rest.empty()) {
      const auto comma = rest.find(',');
      const std::string entry = rest.substr(0, comma);
      if (!entry.empty()) backend_list.push_back(entry);
      if (comma == std::string::npos) break;
      rest.erase(0, comma + 1);
    }
    if (backend_list.empty()) {
      throw Parse_error("--backends needs at least one host:port");
    }
    for (const std::string& entry : backend_list) {
      const auto colon = entry.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 == entry.size()) {
        throw Parse_error("--backends entry \"" + entry +
                          "\" is not host:port");
      }
    }
    if (tcp_port.value < 0 || tcp_port.value > 65535) {
      throw Parse_error("--tcp-port must be in [0, 65535]");
    }
    if (replicas.value < 1 ||
        static_cast<std::size_t>(replicas.value) > backend_list.size()) {
      throw Parse_error("--replicas must be in [1, number of backends]");
    }
    if (ring_points.value < 1) {
      throw Parse_error("--ring-points must be >= 1");
    }
    if (probe_interval_ms.value < 1) {
      throw Parse_error("--probe-interval-ms must be >= 1");
    }
    if (max_connections.value < 1) {
      throw Parse_error("--max-connections must be >= 1");
    }
    if (max_line_bytes.value < 2) {
      throw Parse_error("--max-line-bytes must be >= 2");
    }
    if (write_buffer_bytes.value < 1024) {
      throw Parse_error("--write-buffer-bytes must be >= 1024");
    }

    serve::Tcp_options tcp_options;
    tcp_options.bind_address = bind_address.value;
    tcp_options.port = static_cast<std::uint16_t>(tcp_port.value);
    tcp_options.max_connections =
        static_cast<std::size_t>(max_connections.value);
    tcp_options.write_buffer_cap =
        static_cast<std::size_t>(write_buffer_bytes.value);
    serve::Tcp_transport transport(tcp_options);
    io::Json listening;
    listening.set("event", io::Json("listening"));
    listening.set("port", io::Json(transport.port()));
    std::cout << listening.dump() << std::endl;

    cluster::Replica_options options;
    options.backends = std::move(backend_list);
    options.replicas = static_cast<std::size_t>(replicas.value);
    options.ring_points = static_cast<std::size_t>(ring_points.value);
    options.max_line_bytes = static_cast<std::size_t>(max_line_bytes.value);
    options.journal.path = journal_path.value;
    options.probe_interval =
        std::chrono::milliseconds(probe_interval_ms.value);
    options.max_backoff = std::chrono::milliseconds(
        std::max(probe_interval_ms.value * 16, probe_interval_ms.value));
    cluster::Replica_router router(std::move(options), transport);
    router.serve();
    return 0;
  } catch (const quest::Parse_error& error) {
    std::cerr << "quest_router: " << error.what() << '\n';
    return 2;
  } catch (const quest::Error& error) {
    std::cerr << "quest_router: " << error.what() << '\n';
    return 1;
  }
}

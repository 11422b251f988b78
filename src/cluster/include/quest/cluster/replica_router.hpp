// quest/cluster/replica_router.hpp
//
// The front of a quest_serve fleet. The router speaks the ordinary wire
// protocol to its clients over a serve::Tcp_transport and forwards raw
// lines to backends by the consistent hash of the instance's content
// fingerprint (quest/store/shard_map.hpp). Backends key their plan
// caches and snapshots by the same fingerprint, so routing by it keeps
// every repeat request on a backend holding that instance's warm (and
// persisted) cache. Each key is bound to the first R distinct shards on
// the ring (Shard_map::replicas); element 0 is always shard_of, so R=1
// is plain single-owner sharding and R>1 keeps serving through the loss
// of any R-1 owners:
//
//  * register / observe / refit — *fan out*: the first live owner is the
//    client-visible forward (its events stream back verbatim); the other
//    owners get the same line best-effort over router-owned replication
//    links whose events are swallowed. A secondary that cannot be
//    reached bumps the "replica_lag" counter instead of failing the op.
//    Registers are additionally recorded in the Registration_journal —
//    the repair source of truth.
//  * optimize / cancel — go to the first live owner; on a dead
//    connection (at admission or mid-flight) or a backend "overloaded"
//    shed, the router re-sends the saved raw line to the next live
//    owner and counts a "replica_failovers". Request ids are never
//    rewritten, and the router forwards only the first "admitted" per
//    routed id, so clients cannot tell a failover happened: one
//    "admitted", then one result or typed error. (The work itself may
//    run on two backends — a backend that dies mid-flight has already
//    started it.) optimize_batch is split into single optimize
//    forwards, since elements may hash to different shards.
//    With no live owner left the op sheds with the typed "overloaded"
//    error, the same one a busy backend uses.
//  * repair — a backend answering a routed optimize with the typed
//    "unknown-instance" error is missing state it owns; the router
//    replays the journaled register on that same connection, swallows
//    the ack, re-sends the optimize, and counts a "repairs". A backend
//    rejoining after death (Health_monitor dead->live) is healed the
//    same way: every journaled registration it owns is replayed ahead
//    of traffic.
//  * stats — fanned out to every reachable backend and merged into one
//    event (merge_stats_events) carrying "shards" / "shards_live" plus
//    "replicas", "shards_degraded", "replica_failovers", "repairs",
//    "replica_lag".
//  * shutdown — forwarded to every reachable backend; the router folds
//    their shutdown pairs as they arrive (a backend that drops its link
//    instead counts as answered) and, once every one has answered,
//    sends one merged pair and stops its transport.
//
// Liveness comes from an active Health_monitor (probe thread with
// exponential backoff), not lazy reconnects: routing never dials a shard
// the prober says is dead, and a backend link that drops reports the
// death immediately via mark_dead.
//
// Threading: everything runs on the transport's loop thread. A backend
// link is a socket the router dials (dial_backend) and hands to
// Tcp_transport::adopt, so backend lines arrive through on_data, a link's
// end through on_close, and sends are buffered transport sends that
// never block. A backend that stops reading therefore stalls only the
// clients whose links to it are backed up: the transport pauses those
// clients' reads (see tcp_transport.hpp). There stays one link per
// (client × shard), so backends see per-client id scoping,
// cancel-on-disconnect, stats and shutdown as from direct clients. The one
// other thread is the health prober, whose dead->live heal replays the
// journal over the shard's replication feed; `feeds_mutex_` guards the
// feed slots, and no lock is held across a blocking call other than
// the dial.

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "quest/cluster/health.hpp"
#include "quest/cluster/registration_journal.hpp"
#include "quest/io/json.hpp"
#include "quest/serve/line_framer.hpp"
#include "quest/serve/tcp_transport.hpp"
#include "quest/store/shard_map.hpp"

namespace quest::cluster {

/// Configuration of a Replica_router.
struct Replica_options {
  /// Backend addresses, "host:port", one per shard; index = shard id.
  std::vector<std::string> backends;
  /// Replication factor R: every key lives on this many distinct shards.
  /// Must satisfy 1 <= replicas <= backends.size(); 1 = one owner per key.
  std::size_t replicas = 1;
  /// Consistent-hash ring points per shard (Shard_map).
  std::size_t ring_points = 64;
  /// Inbound line cap, mirroring the session layer's overflow handling.
  std::size_t max_line_bytes = 1 << 20;
  /// Registration journal backing file; empty = in-memory only.
  Journal_options journal;
  /// Health probe cadence / dead-shard backoff cap.
  std::chrono::milliseconds probe_interval{500};
  std::chrono::milliseconds max_backoff{8000};
};

/// The sharding proxy. Construct with a listening transport,
/// then serve(); returns true when a client shutdown op ended the run.
class Replica_router {
 public:
  Replica_router(Replica_options options, serve::Tcp_transport& transport);
  ~Replica_router();

  Replica_router(const Replica_router&) = delete;
  Replica_router& operator=(const Replica_router&) = delete;

  /// Runs the transport loop until stop()/shutdown. Call once.
  bool serve();

  /// Counters, exposed for tests.
  std::uint64_t replica_failovers() const {
    return replica_failovers_.load(std::memory_order_relaxed);
  }
  std::uint64_t repairs() const {
    return repairs_.load(std::memory_order_relaxed);
  }
  std::uint64_t replica_lag() const {
    return replica_lag_.load(std::memory_order_relaxed);
  }

 private:
  struct Client;

  /// One adopted connection from one client to one backend shard.
  struct Link {
    Link(std::size_t shard, Client& client) : shard(shard), client(&client) {}

    std::size_t shard;
    Client* client;
    /// Backend lines are trusted: no cap.
    serve::Line_framer framer{std::numeric_limits<std::size_t>::max()};
    /// Owes a stats event to the merge in flight.
    bool merge_member = false;
    /// Owes a shutdown pair to the client's shutdown fold.
    bool shutdown_member = false;
    /// Fingerprints whose journal register was replayed on this link and
    /// whose "registered" ack must be swallowed; the value holds raw op
    /// lines to re-send once it is.
    std::unordered_map<std::uint64_t, std::vector<std::string>> repairs;
  };

  /// Everything the router remembers about one routed request id.
  struct Route {
    std::uint64_t fingerprint = 0;
    /// The R owners of the fingerprint, preference order.
    std::vector<std::size_t> owners;
    /// Which owner currently holds the request.
    std::size_t owner_index = 0;
    /// Failovers taken so far; capped at owners.size() to stop a
    /// flapping fleet from bouncing one request forever.
    std::size_t hops = 0;
    /// The raw op line, for replay on failover.
    std::string line;
    /// An "admitted" was forwarded; a failover's second one is not.
    bool admitted = false;
  };

  /// One front-side client connection and everything routed for it.
  struct Client {
    Client(serve::Connection_id id, std::size_t max_line_bytes,
           std::size_t shards)
        : id(id), framer(max_line_bytes), links(shards, 0) {}

    serve::Connection_id id;
    serve::Line_framer framer;
    /// Link connection ids, indexed by shard; 0 until first use.
    std::vector<serve::Connection_id> links;
    /// Request id -> route.
    std::unordered_map<std::string, Route> routes;
    /// Stats merge in flight.
    std::size_t merge_pending = 0;
    std::vector<io::Json> merge_events;
    /// Shutdown forwarded: further client lines are ignored, and the
    /// backends' shutdown pairs fold into these until none is pending.
    bool closing = false;
    std::size_t shutdown_pending = 0;
    double shutdown_outstanding = 0;
    double shutdown_completed = 0;
  };

  void on_open(serve::Connection_id id);
  void on_data(serve::Connection_id id, std::string_view chunk);
  void on_close(serve::Connection_id id);

  bool handle_line(Client& client, std::string_view line);
  void handle_register(Client& client, const io::Json& doc,
                       std::string_view line);
  void route_optimize(Client& client, const io::Json& doc,
                      const std::string& id, std::string_view line);
  void handle_cancel(Client& client, const std::string& id,
                     std::string_view line);
  /// register/observe/refit share the fan-out shape; this does the
  /// primary-ack + best-effort-secondaries part.
  void fan_out(Client& client, const std::vector<std::size_t>& owners,
               std::string_view line, const std::string& id);
  void handle_stats(Client& client, std::string_view line);
  void handle_shutdown(Client& client, std::string_view line);

  /// Resolves the "instance" field (registered name or inline document)
  /// to a fingerprint; false when resolution failed (an error event has
  /// been sent).
  bool resolve_instance(Client& client, const io::Json& doc,
                        const std::string& id, std::uint64_t& print);

  /// The client's link to `shard`, dialed and adopted if needed (never
  /// for a shard the health monitor calls dead); 0 when unreachable.
  serve::Connection_id link_for(Client& client, std::size_t shard);
  /// Sends `line` to `shard` over the client's link; false when the
  /// shard is unreachable.
  bool send_to(Client& client, std::size_t shard, std::string_view line);
  /// Sends over the shard's replication feed; false bumps nothing —
  /// callers decide whether a miss is lag or a repair to retry. Caller
  /// holds feeds_mutex_.
  bool feed_send_locked(std::size_t shard, std::string_view line);

  /// Moves the route to its next live owner and re-sends its line; false
  /// when no owner is left (caller sheds). `avoiding` is the shard that
  /// just failed.
  bool failover(Client& client, Route& route, std::size_t avoiding);

  void shed(Client& client, const std::string& id, std::size_t shard);

  /// One line from a backend link. False when the line retired the link
  /// (its framer is gone, so framing must stop).
  bool handle_backend_line(serve::Connection_id id, Link& link,
                           std::string_view line);
  /// True when the line was an intercepted event (stats share, failover,
  /// repair, swallowed repair ack) that must not reach the client.
  bool intercept_event(serve::Connection_id id, Link& link,
                       std::string_view line);
  /// Folds one of the backend's shutdown pair; false when the
  /// "shutdown-complete" retired the link.
  bool fold_shutdown(serve::Connection_id id, Link& link,
                     std::string_view line);
  /// A link owing a shutdown pair answered or dropped; the last one
  /// sends the merged pair and stops the transport.
  void shutdown_answered(Client& client);
  void link_down(serve::Connection_id id);
  /// Drops a link the router is done with; its on_close is ignored.
  void retire(serve::Connection_id id);
  void finish_merge(Client& client);

  /// Health transition: a shard came back — replay its share of the
  /// journal over its replication feed. Runs on the probe thread.
  void heal_shard(std::size_t shard);

  Replica_options options_;
  serve::Tcp_transport& transport_;
  store::Shard_map map_;
  Registration_journal journal_;
  Health_monitor health_;

  /// Loop thread only, like everything below up to feeds_mutex_.
  std::unordered_map<serve::Connection_id, Client> clients_;
  /// Client links by connection id; a retired link is already gone.
  std::unordered_map<serve::Connection_id, Link> links_;
  /// Registered name -> fingerprint. Names registered before a router
  /// restart are unknown to the new router; clients re-register (or send
  /// inline documents) — backends dedupe by fingerprint, so
  /// re-registration is idempotent and cache-preserving.
  std::unordered_map<std::string, std::uint64_t> names_;
  bool shutdown_requested_ = false;

  /// Per-shard replication feeds (adopted links whose events are
  /// swallowed), 0 when not connected. Shared with the probe thread.
  std::mutex feeds_mutex_;
  std::vector<serve::Connection_id> feeds_;

  std::atomic<std::uint64_t> replica_failovers_{0};
  std::atomic<std::uint64_t> repairs_{0};
  std::atomic<std::uint64_t> replica_lag_{0};
};

/// Builds the merged fleet stats event: numeric counters summed
/// ("uptime_seconds" maxed), the nested "cache" object summed fieldwise,
/// plus "shards" (fleet size) and "shards_live" (events merged). Exposed
/// for tests.
io::Json merge_stats_events(const std::vector<io::Json>& events,
                            std::size_t shards);

}  // namespace quest::cluster

// quest/cluster/replica_router.hpp
//
// The front of a quest_serve fleet. The router speaks the ordinary wire
// protocol to its clients over any serve::Transport and forwards raw
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
//    rewritten, so clients cannot tell a failover happened (beyond a
//    possible duplicate "admitted" — delivery is at-least-once across a
//    failover, never at-most-once). optimize_batch is split into single
//    optimize forwards, since elements may hash to different shards.
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
//    their shutdown events into one merged pair and stops its transport.
//
// Liveness comes from an active Health_monitor (probe thread with
// exponential backoff), not lazy reconnects: routing never dials a shard
// the prober says is dead, and a send failure reports the death
// immediately via mark_dead.
//
// Threading: client bytes arrive on the transport loop thread; each
// backend connection has a reader thread; the health prober calls in on
// transitions. One router-wide mutex guards all shared state. Reader
// threads are never joined while it is held — dead links are parked on a
// zombie list and reaped from the loop thread.

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "quest/cluster/health.hpp"
#include "quest/cluster/registration_journal.hpp"
#include "quest/io/json.hpp"
#include "quest/serve/line_framer.hpp"
#include "quest/serve/transport.hpp"
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
  Replica_router(Replica_options options, serve::Transport& transport);
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

  /// One connection to one backend shard. Client links (client != null)
  /// forward backend events to their client; replication feeds
  /// (client == null) swallow everything they read.
  struct Link {
    std::size_t shard = 0;
    int fd = -1;
    std::shared_ptr<Client> client;
    std::thread reader;
    std::atomic<bool> down{false};
    /// Intentional teardown (shutdown/close): the reader's exit must not
    /// mark the shard dead — the backend did nothing wrong.
    std::atomic<bool> retired{false};
    /// Guarded by mutex_: owes a stats event to the merge in flight.
    bool merge_member = false;
    /// Guarded by mutex_: fingerprints whose journal register was
    /// replayed on this link and whose "registered" ack must be
    /// swallowed; the value holds raw op lines to re-send once it is.
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
  };

  /// One front-side client connection and everything routed for it.
  struct Client {
    Client(serve::Connection_id id, std::size_t max_line_bytes)
        : id(id), framer(max_line_bytes) {}

    serve::Connection_id id;
    /// Loop thread only.
    serve::Line_framer framer;
    /// Indexed by shard; null until first use. Guarded by mutex_.
    std::vector<std::shared_ptr<Link>> links;
    /// Request id -> route. Guarded by mutex_.
    std::unordered_map<std::string, Route> routes;
    /// Stats merge in flight. Guarded by mutex_.
    std::size_t merge_pending = 0;
    std::vector<io::Json> merge_events;
    /// Shutdown forwarded: readers fold per-backend shutdown events
    /// into these instead of forwarding. Guarded by mutex_.
    bool closing = false;
    double shutdown_outstanding = 0;
    double shutdown_completed = 0;
  };

  void on_open(serve::Connection_id id);
  void on_data(serve::Connection_id id, std::string_view chunk);
  void on_close(serve::Connection_id id);

  bool handle_line(const std::shared_ptr<Client>& client,
                   std::string_view line);
  void handle_register(const std::shared_ptr<Client>& client,
                       const io::Json& doc, std::string_view line);
  void route_optimize(const std::shared_ptr<Client>& client,
                      const io::Json& doc, const std::string& id,
                      std::string_view line);
  void handle_cancel(const std::shared_ptr<Client>& client,
                     const std::string& id, std::string_view line);
  /// register/observe/refit share the fan-out shape; this does the
  /// primary-ack + best-effort-secondaries part.
  void fan_out(const std::shared_ptr<Client>& client,
               const std::vector<std::size_t>& owners, std::string_view line,
               const std::string& id);
  void handle_stats(const std::shared_ptr<Client>& client,
                    std::string_view line);
  bool handle_shutdown(const std::shared_ptr<Client>& client,
                       std::string_view line);

  /// Resolves the "instance" field (registered name or inline document)
  /// to a fingerprint; false when resolution failed (an error event has
  /// been sent).
  bool resolve_instance(const std::shared_ptr<Client>& client,
                        const io::Json& doc, const std::string& id,
                        std::uint64_t& print);

  /// Live client link to `shard`; dials if needed (never for a shard the
  /// health monitor calls dead). Caller holds mutex_.
  std::shared_ptr<Link> link_locked(const std::shared_ptr<Client>& client,
                                    std::size_t shard);
  /// Sends `line` to `shard` over the client's link; marks the shard
  /// dead on failure. Caller holds mutex_.
  bool send_locked(const std::shared_ptr<Client>& client, std::size_t shard,
                   std::string_view line);
  /// Sends over the shard's replication feed; false bumps nothing —
  /// callers decide whether a miss is lag or a repair to retry. Caller
  /// holds mutex_.
  bool feed_send_locked(std::size_t shard, std::string_view line);

  /// Moves the route to its next live owner and re-sends its line; false
  /// when no owner is left (caller sheds). Caller holds mutex_;
  /// `avoiding` is the shard that just failed.
  bool failover_locked(const std::shared_ptr<Client>& client, Route& route,
                       std::size_t avoiding);

  void shed(const std::shared_ptr<Client>& client, const std::string& id,
            std::size_t shard);

  void reader_loop(std::shared_ptr<Link> link);
  void handle_backend_line(const std::shared_ptr<Link>& link,
                           std::string_view line);
  /// True when the line was an intercepted error (failover / repair /
  /// swallowed repair ack) that must not reach the client.
  bool intercept_event(const std::shared_ptr<Link>& link,
                       std::string_view line);
  void link_down(const std::shared_ptr<Link>& link);
  void finish_merge_locked(Client& client);

  /// Health transition: a shard came back — replay its share of the
  /// journal over its replication feed. Runs on the probe thread.
  void heal_shard(std::size_t shard);

  /// Parks a dead link for the loop thread to join. Caller holds mutex_.
  void park_locked(std::shared_ptr<Link> link);
  /// Joins and closes parked links. Loop thread (or destructor) only,
  /// mutex_ NOT held.
  void reap_zombies();
  void teardown_all();

  Replica_options options_;
  serve::Transport& transport_;
  store::Shard_map map_;
  Registration_journal journal_;
  Health_monitor health_;

  std::mutex mutex_;
  std::unordered_map<serve::Connection_id, std::shared_ptr<Client>> clients_;
  /// Registered name -> fingerprint. Names registered before a router
  /// restart are unknown to the new router; clients re-register (or send
  /// inline documents) — backends dedupe by fingerprint, so
  /// re-registration is idempotent and cache-preserving.
  std::unordered_map<std::string, std::uint64_t> names_;
  /// Per-shard replication feeds (event-swallowing links).
  std::vector<std::shared_ptr<Link>> feeds_;
  /// Dead links awaiting join.
  std::vector<std::shared_ptr<Link>> zombies_;
  bool shutdown_requested_ = false;

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

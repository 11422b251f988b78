// quest/cluster/health.hpp
//
// Active fleet health: a single probe thread that keeps a live/dead
// verdict per backend shard. Live shards are probed at a fixed cadence
// (a TCP dial that is immediately closed — the cheapest question the
// transport layer can answer); dead shards are re-probed with
// exponential backoff (interval * 2^failures, capped) so a long-dead
// backend costs a bounded trickle of SYNs, not a busy loop.
//
// The monitor is the *authority* on shard liveness but not the only
// informant: the replica router calls mark_dead() the instant a backend
// link drops, so routing decisions never wait a probe period to learn
// what a closed socket already proved. Transitions fire callbacks
// (on the probe thread for probe-driven ones, on the caller's thread for
// mark_dead) — the router uses dead->live to trigger journal-replay
// repair of the rejoining backend.

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace quest::cluster {

/// Configuration of a Health_monitor.
struct Health_options {
  /// Backend addresses, "host:port"; index = shard id.
  std::vector<std::string> backends;
  /// Cadence for probing live shards and base interval for dead ones.
  std::chrono::milliseconds probe_interval{500};
  /// Cap on the dead-shard backoff (interval * 2^failures, clamped here).
  std::chrono::milliseconds max_backoff{8000};
};

/// Probe-thread shard liveness with exponential backoff on the dead.
/// All public methods are thread-safe.
class Health_monitor {
 public:
  /// `shard_up` / `shard_down` fire on every transition (never while the
  /// monitor's lock is held, so they may call back into the monitor).
  /// Either may be empty. Shards start *live* — the fleet is assumed
  /// healthy until a probe or a dropped link proves otherwise.
  Health_monitor(Health_options options,
                 std::function<void(std::size_t)> shard_up,
                 std::function<void(std::size_t)> shard_down);
  ~Health_monitor();

  Health_monitor(const Health_monitor&) = delete;
  Health_monitor& operator=(const Health_monitor&) = delete;

  /// Starts the probe thread. Idempotent.
  void start();
  /// Stops and joins the probe thread. Idempotent; also run by ~.
  void stop();

  /// Reports a shard dead *now* (a backend link dropped). Fires
  /// shard_down on the calling thread if this is a transition, and
  /// schedules the first re-probe one base interval out.
  void mark_dead(std::size_t shard);

  bool alive(std::size_t shard) const;
  std::size_t live_count() const;
  /// Shards currently dead — the "shards_degraded" stats gauge.
  std::size_t degraded_count() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Shard_state {
    bool alive = true;
    std::size_t failures = 0;
    Clock::time_point next_probe{};
  };

  void probe_loop();
  std::chrono::milliseconds backoff(std::size_t failures) const;

  Health_options options_;
  std::function<void(std::size_t)> shard_up_;
  std::function<void(std::size_t)> shard_down_;

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<Shard_state> shards_;
  bool running_ = false;
  bool stopping_ = false;
  std::thread prober_;
};

/// Blocking TCP connect to "host:port" with TCP_NODELAY set; -1 when the
/// address is malformed or the backend unreachable. The one dial path
/// shared by the health prober and the replica router's links, so both
/// agree on what "can this shard be dialed" means.
int dial_backend(const std::string& address) noexcept;

}  // namespace quest::cluster

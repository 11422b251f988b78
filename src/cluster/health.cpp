#include "quest/cluster/health.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

namespace quest::cluster {

int dial_backend(const std::string& address) noexcept {
  const auto colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == address.size()) {
    return -1;
  }
  const std::string host = address.substr(0, colon);
  const std::string port = address.substr(colon + 1);

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &results) != 0) {
    return -1;
  }
  int fd = -1;
  for (addrinfo* entry = results; entry != nullptr; entry = entry->ai_next) {
    fd = ::socket(entry->ai_family, entry->ai_socktype, entry->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, entry->ai_addr, entry->ai_addrlen) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(results);
  return fd;
}

Health_monitor::Health_monitor(Health_options options,
                               std::function<void(std::size_t)> shard_up,
                               std::function<void(std::size_t)> shard_down)
    : options_(std::move(options)),
      shard_up_(std::move(shard_up)),
      shard_down_(std::move(shard_down)),
      shards_(options_.backends.size()) {
  const auto now = Clock::now();
  for (auto& shard : shards_) shard.next_probe = now;
}

Health_monitor::~Health_monitor() { stop(); }

void Health_monitor::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (running_) return;
  running_ = true;
  stopping_ = false;
  prober_ = std::thread([this] { probe_loop(); });
}

void Health_monitor::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stopping_ = true;
  }
  wake_.notify_all();
  if (prober_.joinable()) prober_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
}

void Health_monitor::mark_dead(std::size_t shard) {
  bool transition = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shard >= shards_.size()) return;
    Shard_state& state = shards_[shard];
    if (state.alive) {
      state.alive = false;
      state.failures = 1;
      transition = true;
    }
    state.next_probe = Clock::now() + backoff(state.failures);
  }
  wake_.notify_all();
  if (transition && shard_down_) shard_down_(shard);
}

bool Health_monitor::alive(std::size_t shard) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shard < shards_.size() && shards_[shard].alive;
}

std::size_t Health_monitor::live_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t live = 0;
  for (const auto& shard : shards_) live += shard.alive ? 1 : 0;
  return live;
}

std::size_t Health_monitor::degraded_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t dead = 0;
  for (const auto& shard : shards_) dead += shard.alive ? 0 : 1;
  return dead;
}

std::chrono::milliseconds Health_monitor::backoff(
    std::size_t failures) const {
  auto interval = options_.probe_interval;
  // interval * 2^(failures-1), saturating at max_backoff.
  for (std::size_t i = 1; i < failures; ++i) {
    interval *= 2;
    if (interval >= options_.max_backoff) return options_.max_backoff;
  }
  return std::min(interval, options_.max_backoff);
}

void Health_monitor::probe_loop() {
  for (;;) {
    std::vector<std::size_t> due;
    Clock::time_point next_due;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      const auto now = Clock::now();
      next_due = now + options_.max_backoff;
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (shards_[i].next_probe <= now) {
          due.push_back(i);
        } else {
          next_due = std::min(next_due, shards_[i].next_probe);
        }
      }
      if (due.empty()) {
        wake_.wait_until(lock, next_due, [this] { return stopping_; });
        if (stopping_) return;
        continue;
      }
      if (stopping_) return;
    }

    for (std::size_t shard : due) {
      // Dial outside the lock — a probe against a black-holed address can
      // block, and mark_dead/alive must not wait behind it.
      const int fd = dial_backend(options_.backends[shard]);
      const bool reachable = fd >= 0;
      if (reachable) ::close(fd);

      bool went_up = false;
      bool went_down = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) return;
        if (shard >= shards_.size()) continue;
        Shard_state& state = shards_[shard];
        if (reachable) {
          went_up = !state.alive;
          state.alive = true;
          state.failures = 0;
          state.next_probe = Clock::now() + options_.probe_interval;
        } else {
          went_down = state.alive;
          state.alive = false;
          ++state.failures;
          state.next_probe = Clock::now() + backoff(state.failures);
        }
      }
      if (went_up && shard_up_) shard_up_(shard);
      if (went_down && shard_down_) shard_down_(shard);
    }
  }
}

}  // namespace quest::cluster

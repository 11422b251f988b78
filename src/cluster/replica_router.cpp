#include "quest/cluster/replica_router.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <iterator>
#include <map>
#include <utility>

#include "quest/common/error.hpp"
#include "quest/io/fingerprint.hpp"
#include "quest/io/instance_io.hpp"
#include "quest/serve/protocol.hpp"
#include "quest/store/jsonl.hpp"

namespace quest::cluster {

namespace {

bool starts_with(std::string_view line, std::string_view prefix) {
  return line.substr(0, prefix.size()) == prefix;
}

/// Writes one newline-framed line to a backend socket; false on any
/// write error (callers treat the link as dead). MSG_NOSIGNAL keeps a
/// closed backend from raising SIGPIPE into the process.
bool send_backend_line(int fd, std::string_view line) noexcept {
  std::string framed(line);
  framed.push_back('\n');
  std::size_t offset = 0;
  while (offset < framed.size()) {
    const ssize_t n = ::send(fd, framed.data() + offset,
                             framed.size() - offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    offset += static_cast<std::size_t>(n);
  }
  return true;
}

/// Best-effort id extraction from a backend "result" line, so the route
/// entry can be retired. Result events always start
/// {"event":"result","id":"..." (the builder's field order is fixed);
/// anything else returns empty and the entry stays until cancel or
/// client disconnect — bounded either way.
std::string result_event_id(std::string_view line) {
  constexpr std::string_view prefix = "{\"event\":\"result\",\"id\":\"";
  if (!starts_with(line, prefix)) return {};
  const auto rest = line.substr(prefix.size());
  std::string id;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] == '\\') return {};  // escaped id: punt, keep the entry
    if (rest[i] == '"') return id;
    id.push_back(rest[i]);
  }
  return {};
}

}  // namespace

io::Json merge_stats_events(const std::vector<io::Json>& events,
                            std::size_t shards) {
  std::vector<std::string> order;
  std::map<std::string, double> sums;
  std::vector<std::string> cache_order;
  std::map<std::string, double> cache_sums;
  bool saw_cache = false;

  for (const io::Json& event : events) {
    if (!event.is_object()) continue;
    for (const auto& [key, value] : event.as_object()) {
      if (key == "event") continue;
      if (key == "cache" && value.is_object()) {
        saw_cache = true;
        for (const auto& [cache_key, cache_value] : value.as_object()) {
          if (!cache_value.is_number()) continue;
          if (cache_sums.find(cache_key) == cache_sums.end()) {
            cache_order.push_back(cache_key);
          }
          cache_sums[cache_key] += cache_value.as_number();
        }
        continue;
      }
      if (!value.is_number()) continue;
      if (sums.find(key) == sums.end()) order.push_back(key);
      if (key == "uptime_seconds") {
        sums[key] = std::max(sums[key], value.as_number());
      } else {
        sums[key] += value.as_number();
      }
    }
  }

  io::Json merged;
  merged.set("event", "stats");
  merged.set("shards", static_cast<double>(shards));
  merged.set("shards_live", static_cast<double>(events.size()));
  for (const std::string& key : order) merged.set(key, sums[key]);
  if (saw_cache) {
    io::Json cache;
    for (const std::string& key : cache_order) cache.set(key, cache_sums[key]);
    merged.set("cache", std::move(cache));
  }
  return merged;
}

Replica_router::Replica_router(Replica_options options,
                               serve::Transport& transport)
    : options_(std::move(options)),
      transport_(transport),
      map_(std::max<std::size_t>(options_.backends.size(), 1),
           options_.ring_points),
      journal_(options_.journal),
      health_(
          Health_options{options_.backends, options_.probe_interval,
                         options_.max_backoff},
          [this](std::size_t shard) { heal_shard(shard); },
          /*shard_down=*/nullptr),
      feeds_(options_.backends.size()) {
  QUEST_EXPECTS(!options_.backends.empty(),
                "replica router needs at least one backend");
  QUEST_EXPECTS(options_.replicas >= 1 &&
                    options_.replicas <= options_.backends.size(),
                "replication factor must satisfy 1 <= R <= backends");
  QUEST_EXPECTS(options_.max_line_bytes >= 2,
                "max_line_bytes must hold at least a tiny op");
  health_.start();
}

Replica_router::~Replica_router() {
  // Probe thread first, so no heal replay races the teardown; then every
  // link (client-facing and replication feeds) in the two-pass
  // shutdown-then-join order.
  health_.stop();
  teardown_all();
}

bool Replica_router::serve() {
  serve::Transport::Handlers handlers;
  handlers.on_open = [this](serve::Connection_id id) { on_open(id); };
  handlers.on_data = [this](serve::Connection_id id,
                            std::string_view chunk) { on_data(id, chunk); };
  handlers.on_close = [this](serve::Connection_id id) { on_close(id); };
  transport_.run(handlers);
  return shutdown_requested_;
}

void Replica_router::on_open(serve::Connection_id id) {
  auto client = std::make_shared<Client>(id, options_.max_line_bytes);
  client->links.resize(options_.backends.size());
  clients_.emplace(id, std::move(client));
}

void Replica_router::on_data(serve::Connection_id id,
                             std::string_view chunk) {
  reap_zombies();
  const auto found = clients_.find(id);
  if (found == clients_.end()) return;
  const std::shared_ptr<Client> client = found->second;
  client->framer.feed(
      chunk,
      [&](std::string_view line) { return handle_line(client, line); },
      [&] {
        transport_.send(
            id, serve::line_overflow_event(options_.max_line_bytes).dump());
      });
}

void Replica_router::on_close(serve::Connection_id id) {
  const auto found = clients_.find(id);
  if (found == clients_.end()) return;
  std::vector<std::shared_ptr<Link>> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& slot : found->second->links) {
      if (slot == nullptr) continue;
      slot->retired.store(true, std::memory_order_release);
      ::shutdown(slot->fd, SHUT_RDWR);
      doomed.push_back(std::move(slot));
    }
  }
  for (const auto& link : doomed) {
    if (link->reader.joinable()) link->reader.join();
    ::close(link->fd);
  }
  clients_.erase(found);
  reap_zombies();
}

bool Replica_router::handle_line(const std::shared_ptr<Client>& client,
                                 std::string_view line) {
  io::Json doc;
  std::string op;
  try {
    doc = io::Json::parse(line);
    op = doc.at("op").as_string();
  } catch (const std::exception& error) {
    transport_.send(client->id,
                    serve::error_event(error.what(), {}, "parse").dump());
    return true;
  }

  if (op == "register") {
    handle_register(client, doc, line);
    return true;
  }

  if (op == "optimize") {
    std::string id;
    if (const io::Json* field = doc.find("id");
        field != nullptr && field->is_string()) {
      id = field->as_string();
    }
    route_optimize(client, doc, id, line);
    return true;
  }

  if (op == "optimize_batch") {
    std::string id;
    if (const io::Json* field = doc.find("id");
        field != nullptr && field->is_string()) {
      id = field->as_string();
    }
    const io::Json* requests = doc.find("requests");
    if (requests == nullptr || !requests->is_array()) {
      transport_.send(
          client->id,
          serve::error_event("optimize_batch needs a \"requests\" array", id,
                             "parse")
              .dump());
      return true;
    }
    const auto& elements = requests->as_array();
    if (elements.size() > serve::k_max_batch_requests) {
      transport_.send(
          client->id,
          serve::error_event(
              "optimize_batch exceeds " +
                  std::to_string(serve::k_max_batch_requests) + " requests",
              id, "parse")
              .dump());
      return true;
    }
    transport_.send(client->id,
                    serve::batch_event(id, elements.size()).dump());
    for (std::size_t index = 0; index < elements.size(); ++index) {
      const io::Json& element = elements[index];
      if (!element.is_object()) {
        transport_.send(client->id,
                        serve::error_event("batch element " +
                                               std::to_string(index) +
                                               " is not an object",
                                           id, "parse")
                            .dump());
        continue;
      }
      std::string sub_id = id + "/" + std::to_string(index);
      if (const io::Json* field = element.find("id");
          field != nullptr && field->is_string()) {
        sub_id = field->as_string();
      }
      io::Json forward_op;
      forward_op.set("op", "optimize");
      forward_op.set("id", sub_id);
      for (const auto& [key, value] : element.as_object()) {
        if (key == "op" || key == "id") continue;
        forward_op.set(key, value);
      }
      route_optimize(client, forward_op, sub_id, forward_op.dump());
    }
    return true;
  }

  if (op == "cancel") {
    std::string id;
    try {
      id = doc.at("id").as_string();
    } catch (const std::exception& error) {
      transport_.send(client->id,
                      serve::error_event(error.what(), {}, "parse").dump());
      return true;
    }
    handle_cancel(client, id, line);
    return true;
  }

  if (op == "observe" || op == "refit") {
    std::uint64_t print = 0;
    if (!resolve_instance(client, doc, {}, print)) return true;
    fan_out(client, map_.replicas(print, options_.replicas), line, {});
    return true;
  }

  if (op == "stats") {
    handle_stats(client, line);
    return true;
  }

  if (op == "shutdown") {
    return handle_shutdown(client, line);
  }

  transport_.send(
      client->id,
      serve::error_event("unknown op \"" + op + "\"", {}, "parse").dump());
  return true;
}

void Replica_router::handle_register(const std::shared_ptr<Client>& client,
                                     const io::Json& doc,
                                     std::string_view line) {
  std::string name;
  std::uint64_t print = 0;
  try {
    name = doc.at("name").as_string();
    const io::Instance_document document =
        io::instance_from_json(doc.at("instance"));
    print = io::fingerprint(
        document.instance,
        document.precedence ? &*document.precedence : nullptr);
  } catch (const std::exception& error) {
    transport_.send(client->id,
                    serve::error_event(error.what(), {}, "parse").dump());
    return;
  }
  // Journal before forwarding: even a register that sheds (whole owner
  // set down) is replayable the moment an owner comes back.
  journal_.record(print, name, std::string(line));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    names_[name] = print;
  }
  fan_out(client, map_.replicas(print, options_.replicas), line, {});
}

bool Replica_router::resolve_instance(const std::shared_ptr<Client>& client,
                                      const io::Json& doc,
                                      const std::string& id,
                                      std::uint64_t& print) {
  const io::Json* instance = doc.find("instance");
  if (instance == nullptr) {
    transport_.send(
        client->id,
        serve::error_event("op needs an \"instance\"", id, "parse").dump());
    return false;
  }
  if (instance->is_string()) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto found = names_.find(instance->as_string());
    if (found == names_.end()) {
      transport_.send(
          client->id,
          serve::unknown_instance_event(instance->as_string(), id).dump());
      return false;
    }
    print = found->second;
    return true;
  }
  try {
    const io::Instance_document document = io::instance_from_json(*instance);
    print = io::fingerprint(
        document.instance,
        document.precedence ? &*document.precedence : nullptr);
  } catch (const std::exception& error) {
    transport_.send(client->id,
                    serve::error_event(error.what(), id, "parse").dump());
    return false;
  }
  return true;
}

void Replica_router::route_optimize(const std::shared_ptr<Client>& client,
                                    const io::Json& doc,
                                    const std::string& id,
                                    std::string_view line) {
  std::uint64_t print = 0;
  if (!resolve_instance(client, doc, id, print)) return;
  const std::vector<std::size_t> owners =
      map_.replicas(print, options_.replicas);

  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t index = 0; index < owners.size(); ++index) {
    if (!send_locked(client, owners[index], line)) continue;
    if (!id.empty()) {
      Route route;
      route.fingerprint = print;
      route.owners = owners;
      route.owner_index = index;
      route.hops = index > 0 ? 1 : 0;
      route.line = std::string(line);
      client->routes[id] = std::move(route);
    }
    if (index > 0) {
      replica_failovers_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  shed(client, id, owners.front());
}

void Replica_router::handle_cancel(const std::shared_ptr<Client>& client,
                                   const std::string& id,
                                   std::string_view line) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto route = client->routes.find(id);
  if (route == client->routes.end()) {
    transport_.send(client->id, serve::cancel_event(id, false).dump());
    return;
  }
  const std::size_t shard = route->second.owners[route->second.owner_index];
  client->routes.erase(route);
  if (!send_locked(client, shard, line)) shed(client, id, shard);
}

void Replica_router::fan_out(const std::shared_ptr<Client>& client,
                             const std::vector<std::size_t>& owners,
                             std::string_view line, const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  // The first reachable owner carries the client-visible ack; every
  // other owner gets the line best-effort over its replication feed.
  std::size_t acked = owners.size();
  for (std::size_t index = 0; index < owners.size(); ++index) {
    if (send_locked(client, owners[index], line)) {
      acked = index;
      break;
    }
  }
  for (std::size_t index = 0; index < owners.size(); ++index) {
    if (index == acked) continue;
    if (!feed_send_locked(owners[index], line)) {
      replica_lag_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (acked == owners.size()) shed(client, id, owners.front());
}

void Replica_router::handle_stats(const std::shared_ptr<Client>& client,
                                  std::string_view line) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<Link>> members;
  for (std::size_t shard = 0; shard < options_.backends.size(); ++shard) {
    if (auto link = link_locked(client, shard)) members.push_back(link);
  }
  if (members.empty()) {
    transport_.send(client->id,
                    serve::error_event("all backend shards are unreachable",
                                       {}, "overloaded")
                        .dump());
    return;
  }
  if (client->merge_pending > 0) {
    transport_.send(
        client->id,
        serve::error_event("a stats merge is already in flight; retry", {})
            .dump());
    return;
  }
  client->merge_pending = members.size();
  client->merge_events.clear();
  for (const auto& member : members) member->merge_member = true;
  for (const auto& member : members) {
    if (!send_backend_line(member->fd, line)) {
      // The reader's EOF path retires this link's share of the merge.
      ::shutdown(member->fd, SHUT_RDWR);
    }
  }
}

bool Replica_router::handle_shutdown(const std::shared_ptr<Client>& client,
                                     std::string_view line) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    client->closing = true;
    for (std::size_t shard = 0; shard < options_.backends.size(); ++shard) {
      const auto link = link_locked(client, shard);
      if (link == nullptr) continue;
      if (!send_backend_line(link->fd, line)) {
        ::shutdown(link->fd, SHUT_RDWR);
      }
    }
  }
  // Join this client's readers so the per-backend shutdown events are
  // folded before the merged pair goes out.
  std::vector<std::shared_ptr<Link>> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& slot : client->links) {
      if (slot == nullptr) continue;
      slot->retired.store(true, std::memory_order_release);
      ::shutdown(slot->fd, SHUT_RDWR);
      doomed.push_back(std::move(slot));
    }
  }
  for (const auto& link : doomed) {
    if (link->reader.joinable()) link->reader.join();
    ::close(link->fd);
  }

  double outstanding = 0;
  double completed = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    outstanding = client->shutdown_outstanding;
    completed = client->shutdown_completed;
  }
  io::Json down;
  down.set("event", "shutting-down");
  down.set("outstanding", outstanding);
  transport_.send(client->id, down.dump());
  io::Json done;
  done.set("event", "shutdown-complete");
  done.set("completed", completed);
  transport_.send(client->id, done.dump());

  shutdown_requested_ = true;
  transport_.stop();
  return false;
}

std::shared_ptr<Replica_router::Link> Replica_router::link_locked(
    const std::shared_ptr<Client>& client, std::size_t shard) {
  auto& slot = client->links[shard];
  if (slot != nullptr && !slot->down.load(std::memory_order_acquire)) {
    return slot;
  }
  if (slot != nullptr) park_locked(std::move(slot));
  if (!health_.alive(shard)) return nullptr;
  const int fd = dial_backend(options_.backends[shard]);
  if (fd < 0) {
    health_.mark_dead(shard);
    return nullptr;
  }
  auto link = std::make_shared<Link>();
  link->shard = shard;
  link->fd = fd;
  link->client = client;
  link->reader = std::thread([this, link] { reader_loop(link); });
  slot = link;
  return link;
}

bool Replica_router::send_locked(const std::shared_ptr<Client>& client,
                                 std::size_t shard, std::string_view line) {
  const auto link = link_locked(client, shard);
  if (link == nullptr) return false;
  if (!send_backend_line(link->fd, line)) {
    health_.mark_dead(shard);
    ::shutdown(link->fd, SHUT_RDWR);
    return false;
  }
  return true;
}

bool Replica_router::feed_send_locked(std::size_t shard,
                                      std::string_view line) {
  auto& slot = feeds_[shard];
  if (slot != nullptr && slot->down.load(std::memory_order_acquire)) {
    park_locked(std::move(slot));
  }
  if (slot == nullptr) {
    if (!health_.alive(shard)) return false;
    const int fd = dial_backend(options_.backends[shard]);
    if (fd < 0) {
      health_.mark_dead(shard);
      return false;
    }
    auto link = std::make_shared<Link>();
    link->shard = shard;
    link->fd = fd;
    link->reader = std::thread([this, link] { reader_loop(link); });
    slot = link;
  }
  if (!send_backend_line(slot->fd, line)) {
    health_.mark_dead(shard);
    ::shutdown(slot->fd, SHUT_RDWR);
    return false;
  }
  return true;
}

bool Replica_router::failover_locked(const std::shared_ptr<Client>& client,
                                     Route& route, std::size_t avoiding) {
  if (route.hops >= route.owners.size()) return false;
  const std::size_t count = route.owners.size();
  for (std::size_t step = 1; step <= count; ++step) {
    const std::size_t index = (route.owner_index + step) % count;
    const std::size_t shard = route.owners[index];
    if (shard == avoiding) continue;
    if (!health_.alive(shard)) continue;
    if (!send_locked(client, shard, route.line)) continue;
    route.owner_index = index;
    ++route.hops;
    replica_failovers_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void Replica_router::shed(const std::shared_ptr<Client>& client,
                          const std::string& id, std::size_t shard) {
  transport_.send(
      client->id,
      serve::error_event("backend shard " + std::to_string(shard) + " (" +
                             options_.backends[shard] +
                             ") and its replicas are unavailable; retry later",
                         id, "overloaded")
          .dump());
}

void Replica_router::reader_loop(std::shared_ptr<Link> link) {
  std::string buffer;
  char chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(link->fd, chunk, sizeof chunk);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    if (link->client == nullptr) continue;  // replication feed: swallow
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const auto newline = buffer.find('\n', start);
      if (newline == std::string::npos) break;
      std::string_view line(buffer.data() + start, newline - start);
      start = newline + 1;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      handle_backend_line(link, line);
    }
    buffer.erase(0, start);
  }
  link_down(link);
}

void Replica_router::handle_backend_line(const std::shared_ptr<Link>& link,
                                         std::string_view line) {
  if (intercept_event(link, line)) return;
  const std::string finished = result_event_id(line);
  if (!finished.empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    link->client->routes.erase(finished);
  }
  transport_.send(link->client->id, line);
}

bool Replica_router::intercept_event(const std::shared_ptr<Link>& link,
                                     std::string_view line) {
  const std::shared_ptr<Client>& client = link->client;
  const bool error_like = starts_with(line, "{\"event\":\"error\"");
  const bool registered_like = starts_with(line, "{\"event\":\"registered\"");

  std::lock_guard<std::mutex> lock(mutex_);
  if (!link->merge_member && !client->closing && !error_like &&
      !(registered_like && !link->repairs.empty())) {
    return false;
  }

  io::Json event;
  try {
    event = io::Json::parse(line);
  } catch (const std::exception&) {
    return false;  // unparseable backend line: forward verbatim
  }
  const io::Json* tag = event.find("event");
  const std::string kind =
      tag != nullptr && tag->is_string() ? tag->as_string() : "";

  if (link->merge_member && kind == "stats") {
    link->merge_member = false;
    client->merge_events.push_back(std::move(event));
    if (client->merge_events.size() >= client->merge_pending) {
      finish_merge_locked(*client);
    }
    return true;
  }

  if (client->closing &&
      (kind == "shutting-down" || kind == "shutdown-complete")) {
    const char* field =
        kind == "shutting-down" ? "outstanding" : "completed";
    double count = 0;
    if (const io::Json* value = event.find(field);
        value != nullptr && value->is_number()) {
      count = value->as_number();
    }
    (kind == "shutting-down" ? client->shutdown_outstanding
                             : client->shutdown_completed) += count;
    return true;
  }

  if (kind == "registered" && !link->repairs.empty()) {
    // Possibly the ack of a journal replay this router sent itself; the
    // client never asked, so it must not see it.
    const io::Json* print_field = event.find("fingerprint");
    std::uint64_t print = 0;
    if (print_field != nullptr && print_field->is_string() &&
        store::parse_hex64(print_field->as_string(), print)) {
      const auto repair = link->repairs.find(print);
      if (repair != link->repairs.end()) {
        repairs_.fetch_add(1, std::memory_order_relaxed);
        for (const std::string& queued : repair->second) {
          if (!send_backend_line(link->fd, queued)) {
            // Link died mid-repair; link_down will fail the queued ops
            // over via their routes.
            health_.mark_dead(link->shard);
            ::shutdown(link->fd, SHUT_RDWR);
            break;
          }
        }
        link->repairs.erase(repair);
        return true;
      }
    }
    return false;
  }

  if (kind == "error") {
    const io::Json* code_field = event.find("code");
    const io::Json* id_field = event.find("id");
    const std::string code = code_field != nullptr && code_field->is_string()
                                 ? code_field->as_string()
                                 : "";
    const std::string id = id_field != nullptr && id_field->is_string()
                               ? id_field->as_string()
                               : "";
    if (id.empty()) return false;
    const auto found = client->routes.find(id);
    if (found == client->routes.end() ||
        found->second.owners[found->second.owner_index] != link->shard) {
      return false;
    }
    Route& route = found->second;

    if (code == "overloaded") {
      // The owning backend shed the request; another replica may have
      // room (and the same warm cache) — move it there silently.
      if (failover_locked(client, route, link->shard)) return true;
      client->routes.erase(found);
      return false;  // no replica left: the client sees the shed
    }

    if (code == "unknown-instance") {
      // A failover target (or freshly rejoined backend) is missing state
      // it owns: replay the journaled register on this same connection,
      // then re-send the op once the ack comes back — same link, so the
      // backend observes register-then-optimize in order.
      const std::string register_line = journal_.line_for(route.fingerprint);
      if (register_line.empty()) {
        client->routes.erase(found);
        return false;  // nothing journaled: the client sees the error
      }
      link->repairs[route.fingerprint].push_back(route.line);
      if (!send_backend_line(link->fd, register_line)) {
        health_.mark_dead(link->shard);
        ::shutdown(link->fd, SHUT_RDWR);
      }
      return true;
    }
    return false;
  }
  return false;
}

void Replica_router::link_down(const std::shared_ptr<Link>& link) {
  if (link->down.exchange(true, std::memory_order_acq_rel)) return;
  const std::shared_ptr<Client>& client = link->client;
  const bool retired = link->retired.load(std::memory_order_acquire);
  if (!retired) health_.mark_dead(link->shard);
  if (client == nullptr) return;  // replication feed: nothing routed here

  std::vector<std::string> abandoned;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (client->links[link->shard] == link) {
      // Do not join from our own reader thread: park for the loop
      // thread's reaper.
      park_locked(std::move(client->links[link->shard]));
    }
    link->repairs.clear();
    if (!retired) {
      // Every id still routed at this shard fails over — this is the
      // mid-flight path that keeps a kill -9 invisible to clients.
      for (auto route = client->routes.begin();
           route != client->routes.end();) {
        if (route->second.owners[route->second.owner_index] != link->shard) {
          ++route;
          continue;
        }
        if (failover_locked(client, route->second, link->shard)) {
          ++route;
        } else {
          abandoned.push_back(route->first);
          route = client->routes.erase(route);
        }
      }
    }
    if (link->merge_member) {
      link->merge_member = false;
      if (client->merge_pending > 0) --client->merge_pending;
      if (client->merge_pending == 0) {
        client->merge_events.clear();
        transport_.send(client->id,
                        serve::error_event(
                            "all backend shards dropped during stats merge",
                            {}, "overloaded")
                            .dump());
      } else if (client->merge_events.size() >= client->merge_pending) {
        finish_merge_locked(*client);
      }
    }
  }
  for (const std::string& id : abandoned) {
    transport_.send(
        client->id,
        serve::error_event("backend shard " + std::to_string(link->shard) +
                               " (" + options_.backends[link->shard] +
                               ") dropped and no replica is live; retry later",
                           id, "overloaded")
            .dump());
  }
}

void Replica_router::finish_merge_locked(Client& client) {
  io::Json merged =
      merge_stats_events(client.merge_events, options_.backends.size());
  merged.set("replicas", static_cast<double>(options_.replicas));
  merged.set("shards_degraded",
             static_cast<double>(health_.degraded_count()));
  merged.set("replica_failovers",
             static_cast<double>(
                 replica_failovers_.load(std::memory_order_relaxed)));
  merged.set("repairs",
             static_cast<double>(repairs_.load(std::memory_order_relaxed)));
  merged.set("replica_lag",
             static_cast<double>(
                 replica_lag_.load(std::memory_order_relaxed)));
  client.merge_pending = 0;
  client.merge_events.clear();
  transport_.send(client.id, merged.dump());
}

void Replica_router::heal_shard(std::size_t shard) {
  // A dead shard came back: replay every journaled registration it owns
  // over its replication feed, ahead of any routed traffic. Runs on the
  // probe thread.
  const std::vector<Journal_entry> entries = journal_.entries();
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Journal_entry& entry : entries) {
    const std::vector<std::size_t> owners =
        map_.replicas(entry.fingerprint, options_.replicas);
    if (std::find(owners.begin(), owners.end(), shard) == owners.end()) {
      continue;
    }
    if (feed_send_locked(shard, entry.line)) {
      repairs_.fetch_add(1, std::memory_order_relaxed);
    } else {
      replica_lag_.fetch_add(1, std::memory_order_relaxed);
      break;  // the shard flapped again; the next dead->live retries
    }
  }
}

void Replica_router::park_locked(std::shared_ptr<Link> link) {
  zombies_.push_back(std::move(link));
}

void Replica_router::reap_zombies() {
  std::vector<std::shared_ptr<Link>> dead;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dead.swap(zombies_);
  }
  for (const auto& link : dead) {
    ::shutdown(link->fd, SHUT_RDWR);
    if (link->reader.joinable()) link->reader.join();
    ::close(link->fd);
  }
}

void Replica_router::teardown_all() {
  std::vector<std::shared_ptr<Link>> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, client] : clients_) {
      for (auto& slot : client->links) {
        if (slot == nullptr) continue;
        slot->retired.store(true, std::memory_order_release);
        ::shutdown(slot->fd, SHUT_RDWR);
        doomed.push_back(std::move(slot));
      }
    }
    for (auto& slot : feeds_) {
      if (slot == nullptr) continue;
      slot->retired.store(true, std::memory_order_release);
      ::shutdown(slot->fd, SHUT_RDWR);
      doomed.push_back(std::move(slot));
    }
    doomed.insert(doomed.end(),
                  std::make_move_iterator(zombies_.begin()),
                  std::make_move_iterator(zombies_.end()));
    zombies_.clear();
  }
  for (const auto& link : doomed) {
    if (link->reader.joinable()) link->reader.join();
    ::close(link->fd);
  }
  clients_.clear();
}

}  // namespace quest::cluster

#include "quest/cluster/replica_router.hpp"

#include <algorithm>
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

constexpr std::string_view k_admitted_prefix =
    "{\"event\":\"admitted\",\"id\":\"";
constexpr std::string_view k_result_prefix = "{\"event\":\"result\",\"id\":\"";

/// Best-effort id extraction from a backend event line that starts with
/// `prefix` (`{"event":"<kind>","id":"` — the builders' field order is
/// fixed), so the route entry can be updated or retired. Anything else,
/// an escaped id included, returns empty and the line is forwarded as is.
std::string event_id(std::string_view line, std::string_view prefix) {
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
                               serve::Tcp_transport& transport)
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
      feeds_(options_.backends.size(), 0) {
  QUEST_EXPECTS(!options_.backends.empty(),
                "replica router needs at least one backend");
  QUEST_EXPECTS(options_.replicas >= 1 &&
                    options_.replicas <= options_.backends.size(),
                "replication factor must satisfy 1 <= R <= backends");
  QUEST_EXPECTS(options_.max_line_bytes >= 2,
                "max_line_bytes must hold at least a tiny op");
  health_.start();
}

// The probe thread first, so no heal replay races the teardown. Links
// need nothing: the transport closes them when its run ends.
Replica_router::~Replica_router() { health_.stop(); }

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
  clients_.try_emplace(id, id, options_.max_line_bytes,
                       options_.backends.size());
}

void Replica_router::on_data(serve::Connection_id id,
                             std::string_view chunk) {
  if (const auto found = links_.find(id); found != links_.end()) {
    // A reference, not the iterator: a failover may dial a new link and
    // rehash links_ while this one's lines are handled.
    Link& link = found->second;
    link.framer.feed(
        chunk,
        [&](std::string_view line) {
          return handle_backend_line(id, link, line);
        },
        [] {});
    return;
  }
  const auto found = clients_.find(id);
  if (found == clients_.end()) return;  // a replication feed: swallow
  Client& client = found->second;
  if (client.closing) return;
  client.framer.feed(
      chunk, [&](std::string_view line) { return handle_line(client, line); },
      [&] {
        transport_.send(
            id, serve::line_overflow_event(options_.max_line_bytes).dump());
      });
}

void Replica_router::on_close(serve::Connection_id id) {
  if (links_.count(id) != 0) {
    link_down(id);
    return;
  }
  if (const auto found = clients_.find(id); found != clients_.end()) {
    // A client that asked for shutdown may hang up at once; its links
    // stay until the backends answer, and the last answer stops the run.
    if (found->second.closing) return;
    for (const serve::Connection_id link : found->second.links) {
      if (link != 0) retire(link);
    }
    clients_.erase(found);
    return;
  }
  // A replication feed (or a retired link, which matches no slot).
  std::lock_guard<std::mutex> lock(feeds_mutex_);
  const auto feed = std::find(feeds_.begin(), feeds_.end(), id);
  if (feed == feeds_.end()) return;
  *feed = 0;
  health_.mark_dead(static_cast<std::size_t>(feed - feeds_.begin()));
}

bool Replica_router::handle_line(Client& client, std::string_view line) {
  io::Json doc;
  std::string op;
  try {
    doc = io::Json::parse(line);
    op = doc.at("op").as_string();
  } catch (const std::exception& error) {
    transport_.send(client.id,
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
          client.id,
          serve::error_event("optimize_batch needs a \"requests\" array", id,
                             "parse")
              .dump());
      return true;
    }
    const auto& elements = requests->as_array();
    if (elements.size() > serve::k_max_batch_requests) {
      transport_.send(
          client.id,
          serve::error_event(
              "optimize_batch exceeds " +
                  std::to_string(serve::k_max_batch_requests) + " requests",
              id, "parse")
              .dump());
      return true;
    }
    transport_.send(client.id,
                    serve::batch_event(id, elements.size()).dump());
    for (std::size_t index = 0; index < elements.size(); ++index) {
      const io::Json& element = elements[index];
      if (!element.is_object()) {
        transport_.send(client.id,
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
      transport_.send(client.id,
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
    handle_shutdown(client, line);
    return false;
  }

  transport_.send(
      client.id,
      serve::error_event("unknown op \"" + op + "\"", {}, "parse").dump());
  return true;
}

void Replica_router::handle_register(Client& client, const io::Json& doc,
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
    transport_.send(client.id,
                    serve::error_event(error.what(), {}, "parse").dump());
    return;
  }
  // Journal before forwarding: even a register that sheds (whole owner
  // set down) is replayable the moment an owner comes back.
  journal_.record(print, name, std::string(line));
  names_[name] = print;
  fan_out(client, map_.replicas(print, options_.replicas), line, {});
}

bool Replica_router::resolve_instance(Client& client, const io::Json& doc,
                                      const std::string& id,
                                      std::uint64_t& print) {
  const io::Json* instance = doc.find("instance");
  if (instance == nullptr) {
    transport_.send(
        client.id,
        serve::error_event("op needs an \"instance\"", id, "parse").dump());
    return false;
  }
  if (instance->is_string()) {
    const auto found = names_.find(instance->as_string());
    if (found == names_.end()) {
      transport_.send(
          client.id,
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
    transport_.send(client.id,
                    serve::error_event(error.what(), id, "parse").dump());
    return false;
  }
  return true;
}

void Replica_router::route_optimize(Client& client, const io::Json& doc,
                                    const std::string& id,
                                    std::string_view line) {
  std::uint64_t print = 0;
  if (!resolve_instance(client, doc, id, print)) return;
  const std::vector<std::size_t> owners =
      map_.replicas(print, options_.replicas);

  for (std::size_t index = 0; index < owners.size(); ++index) {
    if (!send_to(client, owners[index], line)) continue;
    if (!id.empty()) {
      Route route;
      route.fingerprint = print;
      route.owners = owners;
      route.owner_index = index;
      route.hops = index > 0 ? 1 : 0;
      route.line = std::string(line);
      client.routes[id] = std::move(route);
    }
    if (index > 0) {
      replica_failovers_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  shed(client, id, owners.front());
}

void Replica_router::handle_cancel(Client& client, const std::string& id,
                                   std::string_view line) {
  const auto route = client.routes.find(id);
  if (route == client.routes.end()) {
    transport_.send(client.id, serve::cancel_event(id, false).dump());
    return;
  }
  const std::size_t shard = route->second.owners[route->second.owner_index];
  client.routes.erase(route);
  if (!send_to(client, shard, line)) shed(client, id, shard);
}

void Replica_router::fan_out(Client& client,
                             const std::vector<std::size_t>& owners,
                             std::string_view line, const std::string& id) {
  // The first reachable owner carries the client-visible ack; every
  // other owner gets the line best-effort over its replication feed.
  std::size_t acked = owners.size();
  for (std::size_t index = 0; index < owners.size(); ++index) {
    if (send_to(client, owners[index], line)) {
      acked = index;
      break;
    }
  }
  if (owners.size() > 1) {
    std::lock_guard<std::mutex> lock(feeds_mutex_);
    for (std::size_t index = 0; index < owners.size(); ++index) {
      if (index == acked) continue;
      if (!feed_send_locked(owners[index], line)) {
        replica_lag_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (acked == owners.size()) shed(client, id, owners.front());
}

void Replica_router::handle_stats(Client& client, std::string_view line) {
  std::vector<serve::Connection_id> members;
  for (std::size_t shard = 0; shard < options_.backends.size(); ++shard) {
    if (const serve::Connection_id link = link_for(client, shard)) {
      members.push_back(link);
    }
  }
  if (members.empty()) {
    transport_.send(client.id,
                    serve::error_event("all backend shards are unreachable",
                                       {}, "overloaded")
                        .dump());
    return;
  }
  if (client.merge_pending > 0) {
    transport_.send(
        client.id,
        serve::error_event("a stats merge is already in flight; retry", {})
            .dump());
    return;
  }
  client.merge_pending = members.size();
  client.merge_events.clear();
  for (const serve::Connection_id member : members) {
    links_.at(member).merge_member = true;
    transport_.send(member, line);
  }
}

void Replica_router::handle_shutdown(Client& client, std::string_view line) {
  client.closing = true;
  // One share per backend reached, folded as its pair arrives, plus this
  // call's own, released below: with no backend reachable the merged
  // pair goes out at once.
  client.shutdown_pending = 1;
  for (std::size_t shard = 0; shard < options_.backends.size(); ++shard) {
    const serve::Connection_id link = link_for(client, shard);
    if (link == 0) continue;
    links_.at(link).shutdown_member = true;
    ++client.shutdown_pending;
    transport_.send(link, line);
  }
  shutdown_answered(client);
}

void Replica_router::shutdown_answered(Client& client) {
  if (--client.shutdown_pending > 0) return;
  io::Json down;
  down.set("event", "shutting-down");
  down.set("outstanding", client.shutdown_outstanding);
  transport_.send(client.id, down.dump());
  io::Json done;
  done.set("event", "shutdown-complete");
  done.set("completed", client.shutdown_completed);
  transport_.send(client.id, done.dump());
  shutdown_requested_ = true;
  transport_.stop();
}

serve::Connection_id Replica_router::link_for(Client& client,
                                              std::size_t shard) {
  serve::Connection_id& slot = client.links[shard];
  if (slot != 0) return slot;
  if (!health_.alive(shard)) return 0;
  const int fd = dial_backend(options_.backends[shard]);
  if (fd < 0) {
    health_.mark_dead(shard);
    return 0;
  }
  slot = transport_.adopt(fd, client.id);
  links_.try_emplace(slot, shard, client);
  return slot;
}

bool Replica_router::send_to(Client& client, std::size_t shard,
                             std::string_view line) {
  const serve::Connection_id link = link_for(client, shard);
  return link != 0 && transport_.send(link, line);
}

bool Replica_router::feed_send_locked(std::size_t shard,
                                      std::string_view line) {
  serve::Connection_id& slot = feeds_[shard];
  if (slot == 0) {
    if (!health_.alive(shard)) return false;
    const int fd = dial_backend(options_.backends[shard]);
    if (fd < 0) {
      health_.mark_dead(shard);
      return false;
    }
    slot = transport_.adopt(fd, /*owner=*/0);
  }
  if (transport_.send(slot, line)) return true;
  // The feed dropped and its on_close has not run yet.
  slot = 0;
  health_.mark_dead(shard);
  return false;
}

bool Replica_router::failover(Client& client, Route& route,
                              std::size_t avoiding) {
  if (route.hops >= route.owners.size()) return false;
  const std::size_t count = route.owners.size();
  for (std::size_t step = 1; step <= count; ++step) {
    const std::size_t index = (route.owner_index + step) % count;
    const std::size_t shard = route.owners[index];
    if (shard == avoiding) continue;
    if (!health_.alive(shard)) continue;
    if (!send_to(client, shard, route.line)) continue;
    route.owner_index = index;
    ++route.hops;
    replica_failovers_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void Replica_router::shed(Client& client, const std::string& id,
                          std::size_t shard) {
  transport_.send(
      client.id,
      serve::error_event("backend shard " + std::to_string(shard) + " (" +
                             options_.backends[shard] +
                             ") and its replicas are unavailable; retry later",
                         id, "overloaded")
          .dump());
}

bool Replica_router::handle_backend_line(serve::Connection_id id, Link& link,
                                         std::string_view line) {
  if (link.shutdown_member && starts_with(line, "{\"event\":\"shut")) {
    return fold_shutdown(id, link, line);
  }
  if (intercept_event(id, link, line)) return true;
  Client& client = *link.client;
  if (const std::string admitted = event_id(line, k_admitted_prefix);
      !admitted.empty()) {
    const auto route = client.routes.find(admitted);
    if (route != client.routes.end()) {
      // A failover re-admits the request on the next owner; the client
      // already saw it admitted once.
      if (route->second.admitted) return true;
      route->second.admitted = true;
    }
  } else if (const std::string finished = event_id(line, k_result_prefix);
             !finished.empty()) {
    client.routes.erase(finished);
  }
  transport_.send(client.id, line);
  return true;
}

bool Replica_router::fold_shutdown(serve::Connection_id id, Link& link,
                                   std::string_view line) {
  io::Json event;
  try {
    event = io::Json::parse(line);
  } catch (const std::exception&) {
    return true;  // unparseable: nothing to fold
  }
  const io::Json* tag = event.find("event");
  const bool complete = tag != nullptr && tag->is_string() &&
                        tag->as_string() == "shutdown-complete";
  const char* field = complete ? "completed" : "outstanding";
  Client& client = *link.client;
  if (const io::Json* value = event.find(field);
      value != nullptr && value->is_number()) {
    (complete ? client.shutdown_completed : client.shutdown_outstanding) +=
        value->as_number();
  }
  if (!complete) return true;
  // The backend answered and is going away: retire the link so its
  // close does not count as a death.
  retire(id);
  shutdown_answered(client);
  return false;
}

bool Replica_router::intercept_event(serve::Connection_id id, Link& link,
                                     std::string_view line) {
  const bool error_like = starts_with(line, "{\"event\":\"error\"");
  const bool registered_like = starts_with(line, "{\"event\":\"registered\"");
  if (!link.merge_member && !error_like &&
      !(registered_like && !link.repairs.empty())) {
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
  Client& client = *link.client;

  if (link.merge_member && kind == "stats") {
    link.merge_member = false;
    client.merge_events.push_back(std::move(event));
    if (client.merge_events.size() >= client.merge_pending) {
      finish_merge(client);
    }
    return true;
  }

  if (kind == "registered" && !link.repairs.empty()) {
    // Possibly the ack of a journal replay this router sent itself; the
    // client never asked, so it must not see it.
    const io::Json* print_field = event.find("fingerprint");
    std::uint64_t print = 0;
    if (print_field != nullptr && print_field->is_string() &&
        store::parse_hex64(print_field->as_string(), print)) {
      const auto repair = link.repairs.find(print);
      if (repair != link.repairs.end()) {
        repairs_.fetch_add(1, std::memory_order_relaxed);
        for (const std::string& queued : repair->second) {
          transport_.send(id, queued);
        }
        link.repairs.erase(repair);
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
    const std::string request = id_field != nullptr && id_field->is_string()
                                    ? id_field->as_string()
                                    : "";
    if (request.empty()) return false;
    const auto found = client.routes.find(request);
    if (found == client.routes.end() ||
        found->second.owners[found->second.owner_index] != link.shard) {
      return false;
    }
    Route& route = found->second;

    if (code == "overloaded") {
      // The owning backend shed the request; another replica may have
      // room (and the same warm cache) — move it there silently.
      if (failover(client, route, link.shard)) return true;
      client.routes.erase(found);
      return false;  // no replica left: the client sees the shed
    }

    if (code == "unknown-instance") {
      // A failover target (or freshly rejoined backend) is missing state
      // it owns: replay the journaled register on this same connection,
      // then re-send the op once the ack comes back — same link, so the
      // backend observes register-then-optimize in order.
      const std::string register_line = journal_.line_for(route.fingerprint);
      if (register_line.empty()) {
        client.routes.erase(found);
        return false;  // nothing journaled: the client sees the error
      }
      link.repairs[route.fingerprint].push_back(route.line);
      transport_.send(id, register_line);
      return true;
    }
    return false;
  }
  return false;
}

void Replica_router::link_down(serve::Connection_id id) {
  const auto found = links_.find(id);
  const Link link = std::move(found->second);
  links_.erase(found);
  Client& client = *link.client;
  client.links[link.shard] = 0;
  health_.mark_dead(link.shard);

  std::vector<std::string> abandoned;
  if (!client.closing) {
    // Every id still routed at this shard fails over — this is the
    // mid-flight path that keeps a kill -9 invisible to clients.
    for (auto route = client.routes.begin(); route != client.routes.end();) {
      if (route->second.owners[route->second.owner_index] != link.shard) {
        ++route;
        continue;
      }
      if (failover(client, route->second, link.shard)) {
        ++route;
      } else {
        abandoned.push_back(route->first);
        route = client.routes.erase(route);
      }
    }
  }
  if (link.merge_member) {
    if (client.merge_pending > 0) --client.merge_pending;
    if (client.merge_pending == 0) {
      client.merge_events.clear();
      transport_.send(client.id,
                      serve::error_event(
                          "all backend shards dropped during stats merge",
                          {}, "overloaded")
                          .dump());
    } else if (client.merge_events.size() >= client.merge_pending) {
      finish_merge(client);
    }
  }
  for (const std::string& abandoned_id : abandoned) {
    transport_.send(
        client.id,
        serve::error_event("backend shard " + std::to_string(link.shard) +
                               " (" + options_.backends[link.shard] +
                               ") dropped and no replica is live; retry later",
                           abandoned_id, "overloaded")
            .dump());
  }
  if (link.shutdown_member) shutdown_answered(client);
}

void Replica_router::retire(serve::Connection_id id) {
  links_.erase(id);
  transport_.close(id);
}

void Replica_router::finish_merge(Client& client) {
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
  std::lock_guard<std::mutex> lock(feeds_mutex_);
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

}  // namespace quest::cluster

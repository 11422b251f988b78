// The traced per-layer run (see runs.hpp).
//
// The workload's generated requests are replayed in-process through the
// public function of every layer a served request passes, in the order
// quest_serve calls them, with a span recorded around each call. Spans
// of one request share its index; every span's parent is the request's
// root span. They are kept in memory and written as JSON lines when the
// run ends. Layers that need a running process (transport, router) are
// probed over loopback with idle round trips.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <variant>

#include "client.hpp"
#include "quest/core/engines.hpp"
#include "quest/io/instance_io.hpp"
#include "quest/opt/registry.hpp"
#include "quest/serve/instance_store.hpp"
#include "quest/serve/plan_cache.hpp"
#include "quest/serve/protocol.hpp"
#include "quest/serve/server.hpp"
#include "quest/serve/session.hpp"
#include "quest/serve/transport.hpp"
#include "runs.hpp"
#include "stats.hpp"
#include "verify.hpp"

namespace perfbench {

namespace {

using quest::io::Json;
using Clock = std::chrono::steady_clock;

/// Span names. `request` and `register_op` are the per-request roots.
enum class Layer : std::uint8_t {
  request,
  register_op,
  parse_op,
  instance_from_json,
  store_put,
  store_get,
  bind_key,
  cache_lookup,
  make_optimizer,
  optimize,
  cache_insert,
  result_event,
  json_dump,
  handle_line,
  admit_to_result,
  session_line,
  transport_rtt,
  routed_rtt,
  direct_rtt,
  layer_count
};

const char* const k_layer_names[static_cast<int>(Layer::layer_count)] = {
    "request",          "register",
    "protocol.parse_op", "io.instance_from_json",
    "instance_store.put", "instance_store.get",
    "model.bind_key",   "plan_cache.lookup",
    "engines.make_optimizer", "engine.optimize",
    "plan_cache.insert", "protocol.result_event",
    "io.json_dump",     "server.handle_line",
    "server.admit_to_result", "session.line",
    "transport.rtt",    "router.routed_rtt",
    "router.direct_rtt"};

struct Span {
  std::uint64_t request = 0;
  Layer layer = Layer::request;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// In-memory span recorder. Disabled, it records nothing and reads no
/// clock: that is the untraced replay the overhead is measured against.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  void record(std::uint64_t id, Layer layer, double start, double end) {
    spans_.push_back({id, layer, start, end});
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (µs) of every span of one layer.
  std::vector<double> durations(Layer layer) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.layer == layer) out.push_back(span.end_us - span.start_us);
    }
    return out;
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Records one span for the lifetime of the scope.
class Scope {
 public:
  Scope(Tracer& tracer, std::uint64_t id, Layer layer)
      : tracer_(tracer), id_(id), layer_(layer),
        start_(tracer.enabled() ? tracer.now_us() : 0.0) {}
  ~Scope() {
    if (tracer_.enabled()) {
      tracer_.record(id_, layer_, start_, tracer_.now_us());
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::uint64_t id_;
  Layer layer_;
  double start_;
};

/// Runs `call` inside a span and returns its result.
template <typename Call>
auto timed(Tracer& tracer, std::uint64_t id, Layer layer, Call&& call) {
  Scope span(tracer, id, layer);
  return call();
}

/// What one in-process replay produced.
struct Replay {
  std::size_t requests = 0;
  double wall_s = 0.0;
  std::vector<Record> records;
  /// The plan-cache key of each answered optimize, in order.
  std::vector<quest::serve::Cache_key> keys;
  std::vector<double> nodes;
  double prunes = 0.0;
  double expanded = 0.0;
};

/// The request path of quest_serve, one public call per layer, over
/// ops [0, count) — or fewer, when `budget_s` runs out first.
Replay replay_requests(const Workload& workload, const std::vector<Op>& ops,
                       const std::vector<std::string>& lines,
                       std::size_t count, double budget_s, Tracer& tracer,
                       std::uint64_t id_base) {
  namespace serve = quest::serve;
  serve::Instance_store store;
  serve::Plan_cache cache;
  for (std::uint32_t slot = 0; slot < workload.slots.size(); ++slot) {
    store.put(workload.slots[slot].name, workload.slots[slot].versions[0],
              std::nullopt);
  }
  Replay replay;
  const double started = now_seconds();
  for (std::size_t i = 0; i < count; ++i) {
    if (budget_s > 0 && now_seconds() - started > budget_s) break;
    const std::uint64_t id = id_base + i;
    const Op& op = ops[i];
    if (op.kind == Op::Kind::reregister) {
      Scope root(tracer, id, Layer::register_op);
      serve::Op parsed = timed(tracer, id, Layer::parse_op,
                               [&] { return serve::parse_op(lines[i]); });
      auto& reg = std::get<serve::Register_op>(parsed);
      Scope span(tracer, id, Layer::store_put);
      store.put(std::move(reg.name), std::move(reg.document.instance),
                std::move(reg.document.precedence));
      ++replay.requests;
      continue;
    }
    Record record;
    record.op = op;
    quest::serve::Cache_key key;
    {
      Scope root(tracer, id, Layer::request);
      serve::Op parsed = timed(tracer, id, Layer::parse_op,
                               [&] { return serve::parse_op(lines[i]); });
      auto& request_op = std::get<serve::Optimize_op>(parsed);
      const auto problem = timed(tracer, id, Layer::store_get, [&] {
        return store.get(request_op.instance_name);
      });
      if (problem == nullptr) throw std::runtime_error("unknown instance");
      const std::size_t n = problem->instance.size();
      quest::model::Cost_model model;
      {
        Scope span(tracer, id, Layer::bind_key);
        model = quest::opt::spec_model_override(
            request_op.optimizer, request_op.model.bind(n), n);
        key = serve::Cache_key{problem->fingerprint, model.key(),
                               request_op.optimizer,
                               serve::budget_class(request_op.budget),
                               request_op.seed};
      }
      std::optional<serve::Cached_plan> hit;
      if (request_op.cache) {
        Scope span(tracer, id, Layer::cache_lookup);
        hit = cache.lookup(key);
      }
      quest::opt::Result result;
      if (hit) {
        result.plan = hit->plan;
        result.cost = hit->cost;
        result.proven_optimal = hit->proven_optimal;
        result.termination = hit->termination;
      } else {
        std::unique_ptr<quest::opt::Optimizer> optimizer;
        {
          Scope span(tracer, id, Layer::make_optimizer);
          optimizer = quest::core::make_optimizer(request_op.optimizer);
        }
        quest::opt::Request request;
        request.instance = &problem->instance;
        request.budget = request_op.budget;
        request.seed = request_op.seed;
        request.model = model;
        std::optional<serve::Cached_plan> warm;
        if (request_op.cache) {
          warm = cache.best_known(key.fingerprint, key.model_key);
          if (warm) request.warm_start = &warm->plan;
        }
        {
          Scope span(tracer, id, Layer::optimize);
          result = optimizer->optimize(request);
        }
        if (warm && result.cost > warm->cost) {
          result.plan = warm->plan;
          result.cost = warm->cost;
          result.proven_optimal = false;
        }
        replay.nodes.push_back(
            static_cast<double>(result.stats.nodes_expanded));
        replay.expanded += static_cast<double>(result.stats.nodes_expanded);
        replay.prunes += static_cast<double>(result.stats.total_prunes());
        if (request_op.cache) {
          Scope span(tracer, id, Layer::cache_insert);
          cache.insert(key, {result.plan, result.cost, result.termination,
                             result.proven_optimal});
        }
      }
      Json event;
      {
        Scope span(tracer, id, Layer::result_event);
        event = serve::result_event(
            request_op.id, result.termination, result.plan, result.cost,
            /*complete=*/true, result.proven_optimal, hit.has_value(),
            /*warm_started=*/false, model.key(), result.elapsed_seconds,
            hit ? nullptr : &result.stats);
      }
      std::string text;
      {
        Scope span(tracer, id, Layer::json_dump);
        text = event.dump();
      }
      record.status = text.empty() ? Status::error : Status::ok;
      record.cost = result.cost;
      record.complete = true;
      record.proven_optimal = result.proven_optimal;
      record.cached = hit.has_value();
      record.plan_size = static_cast<std::uint8_t>(
          std::min(result.plan.size(), record.plan.size()));
      for (std::size_t p = 0; p < record.plan_size; ++p) {
        record.plan[p] = static_cast<std::uint8_t>(result.plan[p]);
      }
    }
    replay.records.push_back(record);
    replay.keys.push_back(std::move(key));
    ++replay.requests;
  }
  replay.wall_s = now_seconds() - started;
  return replay;
}

/// Counts result/error events and wakes a waiter; the shared sink side
/// of the server and session replays.
class Completions {
 public:
  void arrived(std::uint64_t index, bool ok) {
    std::lock_guard<std::mutex> lock(mutex_);
    done_at_[index] = now_seconds();
    if (!ok) ++errors_;
    ++count_;
    changed_.notify_all();
  }
  /// Waits until at most `limit` of `sent` are unanswered.
  bool wait_below(std::size_t sent, std::size_t limit, double timeout_s) {
    std::unique_lock<std::mutex> lock(mutex_);
    return changed_.wait_for(
        lock, std::chrono::duration<double>(timeout_s),
        [&] { return sent - count_ <= limit; });
  }
  double done_at(std::uint64_t index) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto found = done_at_.find(index);
    return found == done_at_.end() ? -1.0 : found->second;
  }
  std::size_t errors() {
    std::lock_guard<std::mutex> lock(mutex_);
    return errors_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  std::map<std::uint64_t, double> done_at_;
  std::size_t count_ = 0;
  std::size_t errors_ = 0;
};

/// Event index of a result/error line or event ("r<index>" ids).
std::int64_t event_index(const std::string& id) {
  if (id.size() < 2 || id[0] != 'r') return -1;
  return std::stoll(id.substr(1));
}

quest::serve::Server_options server_options(const Workload& workload) {
  quest::serve::Server_options options;
  options.workers = workload.serve_workers;
  options.queue_cap = 1024;  // quest_serve's TCP default
  return options;
}

std::size_t outstanding_limit(const Workload& workload) {
  return workload.connections * workload.window;
}

/// Server::handle_line (the serialized admission step) and the time to
/// the result event at a recording sink.
std::size_t replay_server(const Workload& workload, const std::vector<Op>& ops,
                          const std::vector<std::string>& lines,
                          std::size_t count, Tracer& tracer,
                          std::uint64_t id_base, std::size_t& errors) {
  Completions completions;
  quest::serve::Server server(server_options(workload));
  const auto session = server.open_session([&](const Json& event) {
    const Json* kind = event.find("event");
    const Json* id = event.find("id");
    if (kind == nullptr || id == nullptr || !id->is_string()) return;
    const std::int64_t index = event_index(id->as_string());
    if (index < 0) return;
    if (kind->as_string() == "result") completions.arrived(index, true);
    if (kind->as_string() == "error") completions.arrived(index, false);
  });
  for (std::uint32_t slot = 0; slot < workload.slots.size(); ++slot) {
    server.handle_line(session, workload.register_line(slot, 0));
  }
  // (op index, admission time in seconds); spans are placed on the
  // tracer's clock afterwards.
  std::vector<std::pair<std::uint64_t, double>> admitted;
  std::size_t sent = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t id = id_base + i;
    if (ops[i].kind == Op::Kind::reregister) {
      server.handle_line(session, lines[i]);
      continue;
    }
    if (!completions.wait_below(sent, outstanding_limit(workload) - 1, 30.0)) {
      break;
    }
    const double start = tracer.now_us();
    const double start_s = now_seconds();
    server.handle_line(session, lines[i]);
    tracer.record(id, Layer::handle_line, start, tracer.now_us());
    admitted.emplace_back(i, start_s);
    ++sent;
  }
  completions.wait_below(sent, 0, 60.0);
  server.shutdown();
  const double offset_us = tracer.now_us() - now_seconds() * 1e6;
  for (const auto& [index, start_s] : admitted) {
    const double done = completions.done_at(index);
    if (done < 0) {
      ++errors;
      continue;
    }
    tracer.record(id_base + index, Layer::admit_to_result,
                  start_s * 1e6 + offset_us, done * 1e6 + offset_us);
  }
  errors += completions.errors();
  return sent;
}

/// An in-memory Transport: feeds the replay's lines to the session layer
/// as one connection's byte stream and counts the answers it sends.
class Memory_transport final : public quest::serve::Transport {
 public:
  Memory_transport(const Workload& workload, const std::vector<Op>& ops,
                   const std::vector<std::string>& lines, std::size_t count,
                   Tracer& tracer, std::uint64_t id_base)
      : workload_(workload), ops_(ops), lines_(lines), count_(count),
        tracer_(tracer), id_base_(id_base) {}

  void run(const Handlers& handlers) override {
    handlers.on_open(1);
    for (std::uint32_t slot = 0; slot < workload_.slots.size(); ++slot) {
      handlers.on_data(1, workload_.register_line(slot, 0) + "\n");
    }
    for (std::size_t i = 0; i < count_ && !stopped_; ++i) {
      const std::string framed = lines_[i] + "\n";
      if (ops_[i].kind == Op::Kind::reregister) {
        handlers.on_data(1, framed);
        continue;
      }
      if (!completions_.wait_below(sent_, outstanding_limit(workload_) - 1,
                                   30.0)) {
        break;
      }
      const double start = tracer_.now_us();
      handlers.on_data(1, framed);
      tracer_.record(id_base_ + i, Layer::session_line, start,
                     tracer_.now_us());
      ++sent_;
    }
    completions_.wait_below(sent_, 0, 60.0);
    handlers.on_close(1);
  }
  void stop() override { stopped_ = true; }
  bool send(quest::serve::Connection_id, std::string_view line) override {
    const bool result = line.find("\"event\":\"result\"") != line.npos;
    const bool error = line.find("\"event\":\"error\"") != line.npos;
    if (result || error) completions_.arrived(answers_++, result);
    return true;
  }
  void close(quest::serve::Connection_id) override {}

  std::size_t sent() const { return sent_; }
  std::size_t errors() { return completions_.errors(); }

 private:
  const Workload& workload_;
  const std::vector<Op>& ops_;
  const std::vector<std::string>& lines_;
  std::size_t count_;
  Tracer& tracer_;
  std::uint64_t id_base_;
  Completions completions_;
  std::size_t sent_ = 0;
  std::atomic<std::uint64_t> answers_{0};
  std::atomic<bool> stopped_{false};
};

/// One blocking request/answer exchange: sends `line`, reads up to the
/// first event containing `until`.
void round_trip(Line_socket& socket, const std::string& line,
                const std::string& until) {
  socket.send_line(line);
  for (;;) {
    const std::string reply = socket.read_line();
    if (reply.find(until) != std::string::npos) break;
    if (reply.find("\"event\":\"error\"") != std::string::npos) {
      throw std::runtime_error("probe failed: " + reply);
    }
  }
}

struct Router_probe {
  double failovers = 0.0;
  double lag = 0.0;
};

/// Idle round trips on a routed fleet: `stats` straight to a backend
/// (transport.rtt), and the same optimize direct and through the router.
Router_probe probe_fleet(const Workload& workload, const Binaries& binaries,
                         std::size_t probes, Tracer& tracer,
                         std::uint64_t id_base) {
  Fleet fleet(binaries, /*routed=*/true, /*serve_workers=*/1);
  const std::string doc = workload.register_line(0, 0);
  Line_socket routed(fleet.port());
  Line_socket direct(fleet.backend_ports().front());
  round_trip(routed, doc, "\"event\":\"registered\"");
  round_trip(direct, doc, "\"event\":\"registered\"");
  Op op;
  op.model = workload.models.size() > 1 ? 1 : 0;  // slot 0's own model
  for (std::size_t i = 0; i < probes; ++i) {
    const std::uint64_t id = id_base + i;
    op.seed = i + 1;
    const std::string line = workload.line(op, id);
    const std::string until = "\"event\":\"result\"";
    double start = tracer.now_us();
    round_trip(direct, line, until);
    tracer.record(id, Layer::direct_rtt, start, tracer.now_us());
    start = tracer.now_us();
    round_trip(routed, line, until);
    tracer.record(id, Layer::routed_rtt, start, tracer.now_us());
    start = tracer.now_us();
    round_trip(direct, "{\"op\":\"stats\"}", "\"event\":\"stats\"");
    tracer.record(id, Layer::transport_rtt, start, tracer.now_us());
  }
  routed.send_line("{\"op\":\"stats\"}");
  Router_probe probe;
  for (;;) {
    const std::string line = routed.read_line();
    if (line.find("\"event\":\"stats\"") == std::string::npos) continue;
    const Json stats = Json::parse(line);
    if (const Json* v = stats.find("replica_failovers")) {
      probe.failovers = v->as_number();
    }
    if (const Json* v = stats.find("replica_lag")) probe.lag = v->as_number();
    break;
  }
  fleet.shutdown();
  return probe;
}

double metric_value(const Run_result& run, const std::string& name) {
  for (const Metric& metric : run.metrics) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

}  // namespace

Run_result run_traced(Workload& workload, const Binaries& binaries,
                      const Run_options& options) {
  const double seconds = options.seconds;
  const std::size_t max_ops = options.tiny ? 200 : 5000;

  // 1. cpu_us_per_req of the same workload, untraced, over TCP: the
  //    total the in-layer spans are subtracted from.
  Workload baseline_workload = workload;
  Run_options baseline_options;
  baseline_options.seconds = 0.3 * seconds;
  baseline_options.tiny = options.tiny;
  baseline_options.setups = 1;
  baseline_options.self_check = false;
  const Run_result baseline =
      run_serving(baseline_workload, binaries, baseline_options);

  // 2. The request stream, generated once for every replay below. A
  //    stream without re-registrations (so any order is valid) is
  //    shuffled: a replay cut short by its time budget then samples
  //    the whole stream, e.g. all of search-btsp's pool, not a prefix.
  Op_stream stream(workload);
  std::vector<Op> ops;
  for (std::size_t i = 0; i < max_ops; ++i) ops.push_back(stream.next());
  if (std::none_of(ops.begin(), ops.end(), [](const Op& op) {
        return op.kind == Op::Kind::reregister;
      })) {
    quest::Rng rng(workload.seed ^ 0x7261636564ULL);
    for (std::size_t i = ops.size() - 1; i > 0; --i) {
      std::swap(ops[i], ops[rng.uniform_int(i + 1)]);
    }
  }
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    lines.push_back(workload.line(ops[i], i));
  }

  Tracer tracer(true);
  Tracer untraced(false);
  // Registration path: the document decode and the store insert.
  {
    quest::serve::Instance_store store;
    for (std::uint32_t slot = 0; slot < workload.slots.size(); ++slot) {
      const std::uint64_t id = 1'000'000'000 + slot;
      const Json op = Json::parse(workload.register_line(slot, 0));
      quest::io::Instance_document document =
          timed(tracer, id, Layer::instance_from_json, [&] {
            return quest::io::instance_from_json(op.at("instance"));
          });
      Scope span(tracer, id, Layer::store_put);
      store.put(workload.slots[slot].name, std::move(document.instance),
                std::move(document.precedence));
    }
  }

  // 3. The request path, traced and untraced, alternating; the traced
  //    passes' spans give the layer times, the wall clocks the overhead.
  const double pass_budget = 0.1 * seconds;
  Replay first = replay_requests(workload, ops, lines, ops.size(),
                                 pass_budget, tracer, 0);
  const std::size_t count = std::max<std::size_t>(1, first.requests);
  double traced_wall = first.wall_s;
  double untraced_wall =
      replay_requests(workload, ops, lines, count, 0, untraced, 0).wall_s;
  untraced_wall +=
      replay_requests(workload, ops, lines, count, 0, untraced, 0).wall_s;
  traced_wall +=
      replay_requests(workload, ops, lines, count, 0, tracer, count).wall_s;

  // 4. The same key stream through a fresh 256-entry Plan_cache: the
  //    cache's own figures, whether or not the workload's requests use it.
  quest::serve::Plan_cache cache;
  std::vector<double> lookups;
  std::vector<double> inserts;
  for (std::size_t r = 0; r < first.records.size(); ++r) {
    const Record& answer = first.records[r];
    const quest::serve::Cache_key& key = first.keys[r];
    double start = tracer.now_us();
    const bool hit = cache.lookup(key).has_value();
    lookups.push_back(tracer.now_us() - start);
    if (hit) continue;
    quest::model::Plan plan(std::vector<quest::model::Service_id>(
        answer.plan.begin(), answer.plan.begin() + answer.plan_size));
    start = tracer.now_us();
    cache.insert(key, {std::move(plan), answer.cost,
                       answer.proven_optimal
                           ? quest::opt::Termination::optimal
                           : quest::opt::Termination::budget_exhausted,
                       answer.proven_optimal});
    inserts.push_back(tracer.now_us() - start);
  }

  // 5. The serving core and the session layer, in-process.
  std::size_t replay_errors = 0;
  const std::size_t server_count = std::min<std::size_t>(
      ops.size(),
      options.tiny ? 100 : std::clamp<std::size_t>(count, 1000, 5000));
  const std::size_t served = replay_server(
      workload, ops, lines, server_count, tracer, 2 * count, replay_errors);
  Memory_transport transport(workload, ops, lines, server_count, tracer,
                             2 * count + server_count);
  {
    quest::serve::Server server(server_options(workload));
    quest::serve::Session_manager sessions(server, transport);
    sessions.serve();
  }
  replay_errors += transport.errors();

  // 6. Loopback probes: transport round trip and the router's hop.
  const Router_probe probe =
      probe_fleet(workload, binaries, options.tiny ? 20 : 200, tracer,
                  2 * count + 2 * server_count);

  // The gate over every answer of the first traced pass.
  const Gate_report gate = verify(workload, first.records, options.corrupt);

  auto median_of = [&](Layer layer) { return median(tracer.durations(layer)); };
  // Mean in-layer time per request of the first traced pass, to set
  // against cpu_us_per_req (also a mean).
  double in_layer = 0.0;
  {
    double total = 0.0;
    for (const Span& span : tracer.spans()) {
      if (span.request >= count || span.layer == Layer::request ||
          span.layer == Layer::register_op) {
        continue;
      }
      total += span.end_us - span.start_us;
    }
    in_layer = total / static_cast<double>(count);
  }
  double failovers = probe.failovers;
  double lag = probe.lag;
  const Json& stats = baseline.report.at("server_stats");
  if (workload.routed && stats.is_object()) {
    if (const Json* v = stats.find("replica_failovers")) {
      failovers = v->as_number();
    }
    if (const Json* v = stats.find("replica_lag")) lag = v->as_number();
  }
  const double hits = static_cast<double>(cache.hits());
  const double looked = static_cast<double>(cache.lookups());

  Run_result run;
  run.metrics = {
      {"protocol.parse_op_us", "us", median_of(Layer::parse_op)},
      {"protocol.result_event_us", "us", median_of(Layer::result_event)},
      {"io.json_dump_us", "us", median_of(Layer::json_dump)},
      {"io.instance_from_json_us", "us", median_of(Layer::instance_from_json)},
      {"model.bind_key_us", "us", median_of(Layer::bind_key)},
      {"engines.make_optimizer_us", "us", median_of(Layer::make_optimizer)},
      {"instance_store.get_us", "us", median_of(Layer::store_get)},
      {"instance_store.put_us", "us", median_of(Layer::store_put)},
      {"plan_cache.lookup_us", "us", median(lookups)},
      {"plan_cache.insert_us", "us", median(inserts)},
      {"plan_cache.hit_ratio", "fraction", looked > 0 ? hits / looked : 0.0},
      {"plan_cache.evictions", "count",
       static_cast<double>(cache.evictions())},
      {"engine.optimize_us", "us", median_of(Layer::optimize)},
      {"engine.nodes_expanded", "count", median(first.nodes)},
      {"engine.prune_ratio", "fraction",
       first.prunes + first.expanded > 0
           ? first.prunes / (first.prunes + first.expanded)
           : 0.0},
      {"server.handle_line_us", "us", median_of(Layer::handle_line)},
      {"server.admit_to_result_us", "us", median_of(Layer::admit_to_result)},
      {"session.line_us", "us", median_of(Layer::session_line)},
      {"transport.rtt_us", "us", median_of(Layer::transport_rtt)},
      {"router.hop_us", "us",
       median_of(Layer::routed_rtt) - median_of(Layer::direct_rtt)},
      {"router.replica_failovers", "count", failovers},
      {"router.replica_lag", "count", lag},
      {"unattributed_us", "us",
       metric_value(baseline, "cpu_us_per_req") - in_layer},
      {"trace_overhead_frac", "fraction", traced_wall / untraced_wall - 1.0}};
  run.attempted = count + served + transport.sent();
  run.violations = gate.violations;
  run.failed = gate.violations + replay_errors;

  Json& report = run.report;
  report.set("replayed_requests", Json(count));
  report.set("server_replay_requests", Json(served));
  report.set("session_replay_requests", Json(transport.sent()));
  report.set("spans", Json(tracer.spans().size()));
  report.set("baseline_cpu_us_per_req",
             Json(metric_value(baseline, "cpu_us_per_req")));
  report.set("in_layer_us_per_req", Json(in_layer));
  report.set("baseline_failed", Json(baseline.failed));
  Json gate_json;
  gate_json.set("checked", Json(gate.checked));
  gate_json.set("dp_references", Json(gate.references));
  Json examples;
  for (const std::string& example : gate.examples) {
    examples.push_back(Json(example));
  }
  gate_json.set("examples", std::move(examples));
  report.set("gate", std::move(gate_json));

  if (!options.trace_path.empty()) {
    std::ofstream out(options.trace_path);
    for (const Span& span : tracer.spans()) {
      const bool root =
          span.layer == Layer::request || span.layer == Layer::register_op;
      out << "{\"request\":" << span.request << ",\"name\":\""
          << k_layer_names[static_cast<int>(span.layer)] << "\",\"parent\":"
          << (root ? "null" : "\"request\"") << ",\"start_us\":"
          << span.start_us << ",\"end_us\":" << span.end_us << "}\n";
    }
  }
  return run;
}

}  // namespace perfbench

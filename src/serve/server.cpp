#include "quest/serve/server.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "quest/adapt/model_fitter.hpp"
#include "quest/common/error.hpp"
#include "quest/core/engines.hpp"
#include "quest/opt/registry.hpp"
#include "quest/io/fingerprint.hpp"
#include "quest/runtime/choreography.hpp"

namespace quest::serve {

/// One admitted optimize request. Immutable after admission except for
/// the stop source (tripped by cancel/shutdown) — workers own the rest.
struct Server::Job {
  std::string id;
  /// The session that submitted the request: its sink receives the
  /// job's events, its id scopes the request id, and closing it cancels
  /// the job.
  Session_ptr session;
  std::shared_ptr<const Stored_instance> problem;
  std::string spec;
  std::unique_ptr<opt::Optimizer> optimizer;
  opt::Budget budget;
  std::uint64_t seed = 0;
  /// The effective cost model: the op's "policy"/"model" fields bound to
  /// the resolved instance, then overridden by any shared model keys in
  /// the engine spec — exactly what the engine will evaluate under, so
  /// the cache key can never disagree with the search.
  model::Cost_model model;
  bool stream = false;
  bool use_cache = true;
  std::optional<Execute_spec> execute;
  /// Computed once at admission; identifies the request to both cache
  /// tiers.
  Cache_key cache_key;
  opt::Stop_source stop;
};

namespace {

/// The optional execute stage, shared by the worker path and the
/// admission-time cache-hit path: run the plan on the virtual-clock
/// executor and attach the measured report to the result event (or an
/// "execution_error" — execution failures must not void the
/// optimization result).
void append_execution(io::Json& event, const model::Instance& instance,
                      const model::Plan& plan, const Execute_spec& spec) {
  runtime::Runtime_config config;
  config.input_tuples = spec.tuples;
  config.block_size = spec.block_size;
  config.worker_count = spec.workers;
  config.clock_mode = runtime::Clock_mode::virtual_time;
  try {
    const runtime::Runtime_result executed =
        runtime::execute(instance, plan, config);
    io::Json execution;
    execution.set("per_tuple_cost_units",
                  io::Json(executed.per_tuple_cost_units));
    execution.set("predicted_cost", io::Json(executed.predicted_cost));
    execution.set("tuples_delivered",
                  io::Json(static_cast<double>(executed.tuples_delivered)));
    event.set("execution", std::move(execution));
  } catch (const std::exception& error) {
    event.set("execution_error", io::Json(std::string(error.what())));
  }
}

/// Rewrites a spec that carries a `threads=` option (bnb-par itself, or
/// a portfolio dispatching to it) so the count is explicit and at most
/// `cap`. For bnb-par, 0 and absent resolve to the hardware concurrency
/// first; for portfolio, 0/1 means "sequential exact phase" and passes
/// through untouched. Other engines pass through. Making the capped
/// count explicit in the spec string means the cache key, the engine
/// build, and the result stats all see the same effective configuration.
std::string cap_engine_threads_in_spec(const std::string& spec,
                                       std::size_t cap) {
  const opt::Spec_options options = opt::Registry::parse_spec(spec);
  const bool parallel_engine = options.engine() == "bnb-par";
  const bool portfolio = options.engine() == "portfolio";
  if (!parallel_engine && !portfolio) return spec;
  std::size_t requested = options.get_size("threads", 0);
  if (portfolio && requested <= 1) return spec;  // sequential exact phase
  if (requested == 0) {
    const unsigned hardware = std::thread::hardware_concurrency();
    requested = hardware == 0 ? 1 : hardware;
  }
  const std::size_t effective = std::min(requested, cap);
  std::string rebuilt = options.engine();
  char separator = ':';
  bool replaced = false;
  for (const auto& [key, value] : options.entries()) {
    rebuilt += separator;
    separator = ',';
    if (key == "threads") {
      rebuilt += "threads=" + std::to_string(effective);
      replaced = true;
    } else {
      rebuilt += key + "=" + value;
    }
  }
  if (!replaced) {
    rebuilt += separator;
    rebuilt += "threads=" + std::to_string(effective);
  }
  return rebuilt;
}

}  // namespace

Server::Server(Server_options options)
    : options_(options), cache_(options.cache_capacity) {
  QUEST_EXPECTS(options_.workers >= 1, "server needs at least one worker");
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::Server(Server_options options, Event_sink sink) : Server(options) {
  QUEST_EXPECTS(sink != nullptr, "server needs an event sink");
  default_session_ = open_session(std::move(sink));
}

Server::~Server() { shutdown(); }

Server::Session_ptr Server::open_session(Event_sink sink) {
  QUEST_EXPECTS(sink != nullptr, "session needs an event sink");
  auto session = std::make_shared<Client_session>();
  session->sink = std::move(sink);
  std::lock_guard<std::mutex> lock(mutex_);
  session->id = next_session_id_++;
  ++sessions_;
  return session;
}

void Server::close_session(const Session_ptr& session) {
  if (session == nullptr) return;
  {
    // Under the session's sink mutex so that once close_session returns,
    // no event can still be entering this session's sink from a worker.
    std::lock_guard<std::mutex> lock(session->sink_mutex);
    if (!session->open.exchange(false)) return;  // idempotent
  }
  std::lock_guard<std::mutex> lock(mutex_);
  --sessions_;
  // Free the workers: a vanished client's jobs have no reader anyway.
  for (const auto& job : active_) {
    if (job->session == session) job->stop.request_stop();
  }
}

void Server::emit(Client_session& session, const io::Json& event) {
  std::lock_guard<std::mutex> lock(session.sink_mutex);
  if (session.open.load(std::memory_order_relaxed)) session.sink(event);
}

bool Server::handle_line(std::string_view line) {
  return handle_line(default_session_, line);
}

bool Server::handle(Op op) { return handle(default_session_, std::move(op)); }

bool Server::handle_line(const Session_ptr& session, std::string_view line) {
  QUEST_EXPECTS(session != nullptr, "handle_line needs a session");
  const auto content = line.find_first_not_of(" \t\r\n");
  if (content == std::string_view::npos) return true;  // blank keep-alive
  try {
    return handle(session, parse_op(line));
  } catch (const std::exception& error) {
    // quest::Error for protocol violations, but also any std::exception
    // (bad_alloc from a huge document, ...): a long-lived daemon must
    // not die because one line was hostile.
    // Try to salvage the request id so the client can correlate.
    std::string id;
    try {
      const io::Json op = io::Json::parse(line);
      if (const io::Json* field = op.find("id");
          field != nullptr && field->is_string()) {
        id = field->as_string();
      }
    } catch (const std::exception&) {
    }
    emit(*session, error_event(error.what(), id, "parse"));
    return true;
  }
}

bool Server::handle(const Session_ptr& session, Op op) {
  QUEST_EXPECTS(session != nullptr, "handle needs a session");
  if (const auto* request = std::get_if<Shutdown_op>(&op)) {
    std::size_t outstanding = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      outstanding = active_.size();
    }
    io::Json event;
    event.set("event", io::Json("shutting-down"));
    event.set("outstanding", io::Json(outstanding));
    event.set("drain", io::Json(request->drain));
    emit(*session, event);
    shutdown(/*cancel_in_flight=*/!request->drain);
    io::Json done;
    done.set("event", io::Json("shutdown-complete"));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done.set("completed", io::Json(static_cast<double>(completed_)));
      done.set("cancelled", io::Json(static_cast<double>(cancelled_)));
    }
    emit(*session, done);
    return false;
  }

  try {
    if (auto* reg = std::get_if<Register_op>(&op)) {
      handle_register(session, std::move(*reg));
    } else if (auto* optimize = std::get_if<Optimize_op>(&op)) {
      handle_optimize(session, std::move(*optimize));
    } else if (auto* batch = std::get_if<Batch_op>(&op)) {
      handle_batch(session, std::move(*batch));
    } else if (auto* cancel = std::get_if<Cancel_op>(&op)) {
      handle_cancel(session, *cancel);
    } else if (auto* observe = std::get_if<Observe_op>(&op)) {
      handle_observe(session, std::move(*observe));
    } else if (auto* refit = std::get_if<Refit_op>(&op)) {
      handle_refit(session, *refit);
    } else {
      emit_stats(session);
    }
  } catch (const std::exception& error) {
    emit(*session, error_event(error.what()));
  }
  return true;
}

void Server::handle_register(const Session_ptr& session, Register_op op) {
  bool replaced = false;
  const auto entry =
      store_.put(std::move(op.name), std::move(op.document.instance),
                 std::move(op.document.precedence), &replaced);
  emit(*session, registered_event(entry->name, entry->instance.size(),
                                  entry->fingerprint, replaced));
}

void Server::handle_batch(const Session_ptr& session, Batch_op op) {
  // The batch ack first, then each element admits (or sheds)
  // individually — a half-admitted batch is visible as such.
  emit(*session, batch_event(op.id, op.requests.size()));
  for (Optimize_op& element : op.requests) {
    handle_optimize(session, std::move(element));
  }
}

std::shared_ptr<const Stored_instance> Server::resolve_instance(
    const Session_ptr& session, const std::string& name,
    std::optional<io::Instance_document>& inline_doc,
    const std::string& request_id) {
  if (inline_doc) {
    auto entry = std::make_shared<Stored_instance>(
        Stored_instance{{}, std::move(inline_doc->instance),
                        std::move(inline_doc->precedence), 0});
    entry->fingerprint =
        io::fingerprint(entry->instance, entry->precedence_ptr());
    return entry;
  }
  auto problem = store_.get(name);
  if (problem == nullptr) {
    emit(*session, unknown_instance_event(name, request_id));
  }
  return problem;
}

void Server::handle_optimize(const Session_ptr& session, Optimize_op op) {
  auto job = std::make_shared<Job>();
  job->id = std::move(op.id);
  job->session = session;
  job->problem = resolve_instance(session, op.instance_name,
                                  op.inline_instance, job->id);
  if (job->problem == nullptr) return;

  job->spec = std::move(op.optimizer);
  job->budget = op.budget;
  job->seed = op.seed;
  job->stream = op.stream;
  job->use_cache = op.cache && options_.enable_cache;
  job->execute = op.execute;
  try {
    // Nested-parallelism cap, before the cache key and the engine build:
    // a parallel engine may use at most engine_thread_cap() threads, so
    // `workers * cap` bounds the process's total search parallelism.
    job->spec = cap_engine_threads_in_spec(job->spec, engine_thread_cap());
    const std::size_t n = job->problem->instance.size();
    job->model = opt::spec_model_override(job->spec, op.model.bind(n), n);
  } catch (const Error& error) {
    emit(*session, error_event(error.what(), job->id));
    return;
  }
  job->cache_key = Cache_key{job->problem->fingerprint, job->model.key(),
                             job->spec, budget_class(job->budget), job->seed};

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      emit(*session, error_event("server is shutting down", job->id));
      return;
    }
    const bool duplicate =
        std::any_of(active_.begin(), active_.end(), [&](const auto& other) {
          return other->session->id == session->id && other->id == job->id;
        });
    if (duplicate) {
      emit(*session, error_event(
                         "request id '" + job->id + "' is already in flight",
                         job->id));
      return;
    }
  }

  // Identical repeats are answered at admission, on the transport
  // thread: a cached request must never queue behind long-running jobs
  // or occupy a worker.
  if (job->use_cache) {
    if (auto cached = cache_.lookup(job->cache_key)) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++admitted_;
        ++completed_;
      }
      emit(*session, admitted_event(job->id, 0));
      io::Json event =
          result_event(job->id, cached->termination, cached->plan,
                       cached->cost, /*complete=*/true,
                       cached->proven_optimal, /*cached=*/true,
                       /*warm_started=*/false, job->model.key(),
                       /*elapsed_seconds=*/0.0, /*stats=*/nullptr);
      // Only the *optimization* is cached — a requested execute stage
      // still runs, on the cached plan (bounded by the protocol's
      // resource caps, so inline on the transport thread is fine).
      if (job->execute) {
        append_execution(event, job->problem->instance, cached->plan,
                         *job->execute);
      }
      emit(*session, event);
      return;
    }
  }

  // Load shedding, after the cache had its chance to answer for free:
  // a bounded queue that refuses with a typed error is how overload
  // stays a client-visible, recoverable condition rather than an
  // unbounded memory/latency spiral.
  if (options_.queue_cap > 0) {
    bool shed = false;
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      depth = queue_.size();
      if (depth >= options_.queue_cap) {
        ++shed_;
        shed = true;
      }
    }
    if (shed) {
      emit(*session, overloaded_event(job->id, depth, options_.queue_cap));
      return;
    }
  }

  try {
    // Build the engine at admission so bad specs fail fast, before the
    // request occupies a worker — but after the cache lookup, which
    // answers repeats without paying for an engine at all.
    job->optimizer = core::make_optimizer(job->spec);
  } catch (const Error& error) {
    emit(*session, error_event(error.what(), job->id));
    return;
  }

  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    active_.push_back(job);
    ++admitted_;
    depth = queue_.size() + 1;
  }
  // Admission is acknowledged before the job becomes runnable, so the
  // "admitted" event always precedes the request's incumbents/result.
  emit(*session, admitted_event(job->id, depth));
  bool stranded = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // An embedder may call shutdown() from another thread between the
    // admission check above and this push; once the workers are joining,
    // a queued job would never be popped. Honor the "every admitted
    // request gets a result" guarantee right here instead.
    if (shutting_down_) {
      retire_job_locked(*job);
      ++completed_;
      ++cancelled_;
      stranded = true;
    } else {
      queue_.push_back(job);
    }
  }
  if (stranded) {
    emit(*session,
         result_event(job->id, opt::Termination::cancelled, model::Plan(),
                      /*cost=*/0.0, /*complete=*/false,
                      /*proven_optimal=*/false, /*cached=*/false,
                      /*warm_started=*/false, job->model.key(),
                      /*elapsed_seconds=*/0.0, /*stats=*/nullptr));
    return;
  }
  work_available_.notify_one();
}

void Server::handle_observe(const Session_ptr& session, Observe_op op) {
  const auto problem =
      resolve_instance(session, op.instance_name, op.inline_instance, {});
  if (problem == nullptr) return;
  const std::size_t n = problem->instance.size();
  for (const model::Service_id u : op.plan) {
    if (u >= n) {
      emit(*session, error_event("observe plan refers to service " +
                                 std::to_string(u) + " of an instance with " +
                                 std::to_string(n) + " services"));
      return;
    }
  }
  if (!op.cost_count.empty() && op.cost_count.size() != n) {
    emit(*session,
         error_event("observe cost arrays must have one entry per service"));
    return;
  }
  std::uint64_t runs = 0;
  std::size_t plans = 0;
  {
    std::lock_guard<std::mutex> lock(adapt_mutex_);
    auto [it, inserted] = adapt_.try_emplace(
        problem->fingerprint, Adapt_state{adapt::Observation_log(n), {}});
    Adapt_state& state = it->second;
    state.log.record_run(op.plan, op.tuples_in, op.tuples_out);
    for (std::size_t u = 0; u < op.cost_count.size(); ++u) {
      state.log.record_cost(static_cast<model::Service_id>(u),
                            op.cost_count[u], op.cost_sum[u],
                            op.cost_sq_sum[u]);
    }
    // Remember the plan for refit-time warm seeding: complete plans
    // only, deduplicated, bounded (the log itself is O(n^3) regardless).
    constexpr std::size_t k_max_observed_plans = 64;
    if (op.plan.is_permutation_of(n) &&
        state.plans.size() < k_max_observed_plans &&
        std::find(state.plans.begin(), state.plans.end(), op.plan) ==
            state.plans.end()) {
      state.plans.push_back(op.plan);
    }
    runs = state.log.runs();
    plans = state.plans.size();
  }
  emit(*session, observed_event(problem->fingerprint, runs, plans));
}

void Server::handle_refit(const Session_ptr& session, const Refit_op& op) {
  auto inline_doc = op.inline_instance;
  const auto problem =
      resolve_instance(session, op.instance_name, inline_doc, {});
  if (problem == nullptr) return;
  const std::size_t n = problem->instance.size();

  adapt::Fit_options options;
  if (op.min_samples > 0) {
    options.min_pair_samples = op.min_samples;
    options.min_marginal_samples = op.min_samples;
  }
  // Fit on a copy: the log is tiny (O(n^3)) and copying keeps the
  // adapt lock out of the dense solve.
  std::optional<adapt::Observation_log> log;
  std::vector<model::Plan> plans;
  {
    std::lock_guard<std::mutex> lock(adapt_mutex_);
    const auto it = adapt_.find(problem->fingerprint);
    if (it != adapt_.end() && it->second.log.size() == n) {
      log.emplace(it->second.log);
      plans = it->second.plans;
    }
  }
  if (!log.has_value() || log->runs() == 0) {
    emit(*session,
         error_event("refit: no observations recorded for this instance "
                     "(send observe ops first)"));
    return;
  }

  const adapt::Model_fitter fitter(options);
  const adapt::Fit_report report = fitter.fit(*log);
  const model::Cost_model_spec spec =
      fitter.to_spec(report, op.policy, op.objective);
  const model::Cost_model fitted = spec.bind(n);
  const std::string fitted_key = fitted.key();

  // Bridge the cache tiers: the fitted key has never been optimized
  // under, so the exact tier will miss — but re-costing the observed
  // plans under the fitted model gives the warm tier a sound floor,
  // and the first optimize under the fitted model warm-starts from it.
  bool warm_seeded = false;
  double warm_cost = 0.0;
  if (options_.enable_cache) {
    model::Plan best_plan;
    for (const model::Plan& plan : plans) {
      const double cost =
          model::bottleneck_cost(problem->instance, plan, fitted);
      if (!warm_seeded || cost < warm_cost) {
        warm_seeded = true;
        warm_cost = cost;
        best_plan = plan;
      }
    }
    if (warm_seeded) {
      cache_.remember_best(problem->fingerprint, fitted_key,
                           Cached_plan{std::move(best_plan), warm_cost,
                                       opt::Termination::completed,
                                       /*proven_optimal=*/false});
    }
  }

  io::Json event;
  event.set("event", io::Json("refit"));
  event.set("fingerprint", io::Json(io::hex64(problem->fingerprint)));
  event.set("model", io::Json(spec.to_string()));
  event.set("model_key", io::Json(fitted_key));
  event.set("falsified", io::Json(report.independent_falsified));
  event.set("max_abs_log_gamma", io::Json(report.max_abs_log_gamma));
  event.set("runs", io::Json(static_cast<double>(report.runs)));
  event.set("cost_sigma_capped", io::Json(report.cost_sigma_capped));
  event.set("warm_seeded", io::Json(warm_seeded));
  if (warm_seeded) event.set("warm_cost", io::Json(warm_cost));
  emit(*session, event);
}

void Server::handle_cancel(const Session_ptr& session, const Cancel_op& op) {
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& job : active_) {
      if (job->session->id == session->id && job->id == op.id) {
        job->stop.request_stop();
        found = true;
        break;
      }
    }
  }
  emit(*session, cancel_event(op.id, found));
}

void Server::emit_stats(const Session_ptr& session) {
  const Server_stats snapshot = stats();
  io::Json event;
  event.set("event", io::Json("stats"));
  event.set("workers", io::Json(snapshot.workers));
  event.set("admitted", io::Json(static_cast<double>(snapshot.admitted)));
  event.set("completed", io::Json(static_cast<double>(snapshot.completed)));
  event.set("cancelled", io::Json(static_cast<double>(snapshot.cancelled)));
  event.set("failed", io::Json(static_cast<double>(snapshot.failed)));
  event.set("queue_depth", io::Json(snapshot.queue_depth));
  event.set("running", io::Json(snapshot.running));
  event.set("max_concurrent", io::Json(snapshot.max_concurrent));
  event.set("instances", io::Json(snapshot.instances));
  event.set("engine_threads", io::Json(snapshot.engine_threads));
  if (snapshot.queue_cap > 0) {
    // Admission-control counters only exist for bounded queues; the
    // legacy unbounded configuration keeps its event shape unchanged.
    event.set("queue_cap", io::Json(snapshot.queue_cap));
    event.set("shed", io::Json(static_cast<double>(snapshot.shed)));
    event.set("sessions", io::Json(snapshot.sessions));
  }
  io::Json cache;
  cache.set("lookups", io::Json(static_cast<double>(snapshot.cache_lookups)));
  cache.set("hits", io::Json(static_cast<double>(snapshot.cache_hits)));
  cache.set("entries", io::Json(snapshot.cache_entries));
  event.set("cache", std::move(cache));
  if (snapshot.durability) {
    // Durability counters only exist when a snapshot subsystem is
    // attached (quest_serve --snapshot-path); without one the event
    // keeps its legacy shape byte for byte.
    event.set("snapshot_writes",
              io::Json(static_cast<double>(snapshot.snapshot_writes)));
    event.set("snapshot_bytes",
              io::Json(static_cast<double>(snapshot.snapshot_bytes)));
    event.set("warm_boot_entries",
              io::Json(static_cast<double>(snapshot.warm_boot_entries)));
    event.set("stale_refused",
              io::Json(static_cast<double>(snapshot.stale_refused)));
  }
  event.set("uptime_seconds", io::Json(snapshot.uptime_seconds));
  event.set("throughput_rps", io::Json(snapshot.throughput_rps));
  emit(*session, event);
}

Server_stats Server::stats() const {
  Server_stats snapshot;
  snapshot.workers = options_.workers;
  snapshot.queue_cap = options_.queue_cap;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot.admitted = admitted_;
    snapshot.completed = completed_;
    snapshot.cancelled = cancelled_;
    snapshot.failed = failed_;
    snapshot.shed = shed_;
    snapshot.sessions = sessions_;
    snapshot.queue_depth = queue_.size();
  }
  snapshot.running = running_.load(std::memory_order_relaxed);
  snapshot.max_concurrent = max_concurrent_.load(std::memory_order_relaxed);
  snapshot.cache_lookups = cache_.lookups();
  snapshot.cache_hits = cache_.hits();
  snapshot.cache_entries = cache_.size();
  snapshot.instances = store_.size();
  snapshot.engine_threads = engine_thread_cap();
  if (options_.durability != nullptr) {
    const Durability_counters& durability = *options_.durability;
    snapshot.durability = true;
    snapshot.snapshot_writes =
        durability.snapshot_writes.load(std::memory_order_relaxed);
    snapshot.snapshot_bytes =
        durability.snapshot_bytes.load(std::memory_order_relaxed);
    snapshot.warm_boot_entries =
        durability.warm_boot_entries.load(std::memory_order_relaxed);
    snapshot.stale_refused =
        durability.stale_refused.load(std::memory_order_relaxed);
  }
  snapshot.uptime_seconds = uptime_.seconds();
  snapshot.throughput_rps =
      snapshot.uptime_seconds > 0.0
          ? static_cast<double>(snapshot.completed) / snapshot.uptime_seconds
          : 0.0;
  return snapshot;
}

std::size_t Server::engine_thread_cap() const {
  if (options_.engine_threads != 0) return options_.engine_threads;
  const unsigned hardware = std::thread::hardware_concurrency();
  const std::size_t budget = hardware == 0 ? 1 : hardware;
  return std::max<std::size_t>(1, budget / options_.workers);
}

void Server::shutdown(bool cancel_in_flight) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      // Already requested; fall through to join below (idempotent).
    } else {
      shutting_down_ = true;
      // Trip every queued and running job: queued jobs run against a
      // pre-cancelled token and return immediately, so the queue drains
      // with a "cancelled" result per admitted request. In drain mode
      // the workers instead finish all admitted work before exiting.
      if (cancel_in_flight) {
        for (const auto& job : active_) job->stop.request_stop();
      }
    }
  }
  work_available_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void Server::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down, queue drained
      job = queue_.front();
      queue_.pop_front();
    }
    // run_job() retires the job from active_ itself, *before* emitting
    // its result — a client that reads the result may immediately reuse
    // the id.
    run_job(*job);
  }
}

void Server::retire_job_locked(const Job& job) {
  active_.erase(std::remove_if(active_.begin(), active_.end(),
                               [&](const auto& other) {
                                 return other->session->id ==
                                            job.session->id &&
                                        other->id == job.id;
                               }),
                active_.end());
}

void Server::run_job(Job& job) {
  const std::size_t now_running =
      running_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::size_t peak = max_concurrent_.load(std::memory_order_relaxed);
  while (now_running > peak &&
         !max_concurrent_.compare_exchange_weak(peak, now_running,
                                                std::memory_order_relaxed)) {
  }
  struct Running_guard {
    std::atomic<std::size_t>& counter;
    ~Running_guard() { counter.fetch_sub(1, std::memory_order_relaxed); }
  } guard{running_};

  Timer timer;
  opt::Request request;
  request.instance = &job.problem->instance;
  request.precedence = job.problem->precedence_ptr();
  request.budget = job.budget;
  request.seed = job.seed;
  request.model = job.model;
  request.stop = job.stop.token();

  // Warm-start tier: any earlier result on this problem (whatever engine
  // or budget produced it) seeds the incumbent.
  model::Plan warm_plan;
  double warm_cost = 0.0;
  bool warm_started = false;
  if (job.use_cache) {
    if (auto best = cache_.best_known(job.cache_key.fingerprint,
                                      job.cache_key.model_key)) {
      warm_plan = std::move(best->plan);
      warm_cost = best->cost;
      request.warm_start = &warm_plan;
      warm_started = true;
    }
  }

  if (job.stream) {
    request.on_incumbent = [&](const model::Plan& plan, double cost,
                               const opt::Search_stats&) {
      emit(*job.session, incumbent_event(job.id, cost, timer.seconds(), plan));
    };
  }

  opt::Result result;
  try {
    result = job.optimizer->optimize(request);
  } catch (const std::exception& error) {
    // quest::Error for engine preconditions, but also bad_alloc & co.
    // (the DP on a large instance allocates gigabytes): an escaping
    // exception would std::terminate the daemon from this worker thread.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++failed_;
      retire_job_locked(job);
    }
    emit(*job.session, error_event(error.what(), job.id));
    return;
  }

  bool complete = result.plan.size() == job.problem->instance.size();
  // Warm-started results are floored at the plan the server already
  // knew: engines with no incumbent to seed (greedy, dp, ...) ignore
  // Request::warm_start, and a budget-starved run can come back worse —
  // either way the client must never receive a costlier answer than the
  // cache held. An optimality proof is unaffected: a proven-optimal
  // result can't cost more than any known plan, so it is never floored.
  if (warm_started && (!complete || result.cost > warm_cost)) {
    result.plan = std::move(warm_plan);
    result.cost = warm_cost;
    result.proven_optimal = false;
    complete = true;
  }
  if (complete && job.use_cache) {
    Cached_plan value{result.plan, result.cost, result.termination,
                      result.proven_optimal};
    if (result.termination == opt::Termination::cancelled) {
      // The incumbent is real, but "cancelled" is one client's decision,
      // not a property of the problem — replaying it to a later
      // identical request would rob that request of its full search.
      // Keep the plan as a warm start only.
      cache_.remember_best(job.cache_key.fingerprint,
                           job.cache_key.model_key, std::move(value));
    } else {
      cache_.insert(job.cache_key, std::move(value));
    }
  }

  io::Json event = result_event(job.id, result.termination, result.plan,
                                result.cost, complete,
                                result.proven_optimal, /*cached=*/false,
                                warm_started, job.model.key(),
                                result.elapsed_seconds, &result.stats);

  if (complete && job.execute) {
    append_execution(event, job.problem->instance, result.plan,
                     *job.execute);
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++completed_;
    if (result.termination == opt::Termination::cancelled) ++cancelled_;
    retire_job_locked(job);
  }
  emit(*job.session, event);
}

}  // namespace quest::serve

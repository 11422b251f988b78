#include "quest/core/bnb_par.hpp"

#include <atomic>
#include <bit>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "quest/common/error.hpp"
#include "quest/core/bounds.hpp"
#include "quest/core/search_driver.hpp"
#include "quest/opt/parallel_control.hpp"
#include "quest/opt/search_control.hpp"

namespace quest::core {

using model::Plan;
using model::Service_id;

namespace {

/// The shared incumbent: rho lives in one atomic as the double's bit
/// pattern (CAS on cost bits — lock-free on the prune path, which every
/// worker hits constantly), the winning plan and the stream behind a
/// mutex (taken only on actual improvements, which are rare).
class Shared_incumbent {
 public:
  explicit Shared_incumbent(opt::Shared_search_control& control)
      : control_(&control),
        bits_(std::bit_cast<std::uint64_t>(
            std::numeric_limits<double>::infinity())) {}

  double rho() const noexcept {
    return std::bit_cast<double>(bits_.load(std::memory_order_acquire));
  }

  void offer(std::span<const Service_id> order, double cost) {
    std::uint64_t observed = bits_.load(std::memory_order_acquire);
    while (cost < std::bit_cast<double>(observed)) {
      if (bits_.compare_exchange_weak(observed,
                                      std::bit_cast<std::uint64_t>(cost),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        publish(order, cost);
        return;
      }
    }
  }

  /// Post-join accessors (no concurrent writers left).
  double cost() const noexcept { return best_cost_; }
  const Plan& best() const noexcept { return best_; }

 private:
  void publish(std::span<const Service_id> order, double cost) {
    std::lock_guard<std::mutex> lock(mutex_);
    // A racing CAS winner with a smaller cost may have published first;
    // the plan must track the true minimum, not CAS order.
    if (cost < best_cost_) {
      best_cost_ = cost;
      best_ = Plan(std::vector<Service_id>(order.begin(), order.end()));
      control_->note_incumbent(best_, cost);
    }
  }

  opt::Shared_search_control* control_;
  std::atomic<std::uint64_t> bits_;
  std::mutex mutex_;
  double best_cost_ = std::numeric_limits<double>::infinity();
  Plan best_;
};

/// Reconstruction control: only the stop token matters — the search
/// budget was already satisfied when the parallel phase completed, and
/// the post-pass must stay cancellable without re-arming node limits.
class Rebuild_control {
 public:
  explicit Rebuild_control(const opt::Stop_token& stop) : stop_(&stop) {}
  bool should_stop() const { return stop_->stop_requested(); }

 private:
  const opt::Stop_token* stop_;
};

/// The deterministic post-pass (see bnb_par.hpp): a sequential DFS in
/// ascending service-id order that finds the lexicographically smallest
/// complete plan whose cost is <= target (== the proven optimum).
/// Pruning is sound and equality-admitting — a prefix is abandoned only
/// when provably no completion costs <= target — so the first complete
/// plan the DFS reaches is the canonical one.
class Canonical_rebuild {
 public:
  Canonical_rebuild(const model::Instance& instance,
                    const model::Cost_model& model,
                    const constraints::Precedence_graph* precedence,
                    const Bound_provider& bounds, double target,
                    const Rebuild_control& control,
                    opt::Search_stats& stats)
      : instance_(instance),
        model_(model),
        precedence_(precedence),
        bounds_(bounds),
        target_(target),
        control_(control),
        stats_(stats),
        eval_(instance, model),
        placed_(instance.size()) {}

  /// True when the canonical plan was found (then plan() holds it);
  /// false when aborted by the stop token or — an fp corner the caller
  /// covers with the incumbent — no plan re-evaluated to <= target.
  bool run() { return dfs() && !aborted_; }

  Plan plan() const { return eval_.plan(); }

 private:
  bool feasible(Service_id id) const {
    return !placed_.test(id) &&
           (!precedence_ || precedence_->feasible_next(id, placed_.chars()));
  }

  void append(Service_id id) {
    eval_.append(id);
    placed_.set(id);
  }
  void pop() {
    placed_.reset(eval_.last());
    eval_.pop();
  }

  /// On success the found plan is left assembled in eval_.
  bool dfs() {
    if (eval_.full()) return eval_.complete_cost() <= target_;
    if (control_.should_stop()) {
      aborted_ = true;
      return false;
    }

    if (eval_.size() >= 2) {
      if (eval_.epsilon() > target_) return false;
      const Member_mask& remaining = placed_.remaining();
      if (bounds_.lower_bound_enabled() &&
          bounds_.lower_bound(eval_, remaining) > target_) {
        return false;
      }
      if (bounds_.closure_enabled() && bounds_.closes(eval_, remaining)) {
        // Lemma 2: every completion costs exactly epsilon <= target, so
        // each smallest-feasible-id step below succeeds — exactly the
        // continuation the id-ordered DFS itself would take.
        const std::size_t depth = eval_.size();
        while (!eval_.full()) {
          Service_id next = model::invalid_service;
          for (Service_id u = 0; u < instance_.size(); ++u) {
            if (feasible(u)) {
              next = u;
              break;
            }
          }
          QUEST_ASSERT(next != model::invalid_service,
                       "precedence graph admits no completion");
          append(next);
          ++stats_.nodes_expanded;
        }
        // Verify in fp what Lemma 2 promises in exact arithmetic; on an
        // ulp-level mismatch unwind and let the caller fall back.
        if (eval_.complete_cost() <= target_) return true;
        while (eval_.size() > depth) pop();
        return false;
      }
    }

    for (Service_id u = 0; u < instance_.size(); ++u) {
      if (!feasible(u)) continue;
      // The term this append fixes is a lower bound on any completion's
      // cost; admit equality (ties are where canonicalization matters).
      if (!eval_.empty() &&
          std::max(eval_.epsilon(), eval_.term_if_appended(u)) > target_) {
        continue;
      }
      append(u);
      ++stats_.nodes_expanded;
      if (dfs()) return true;
      pop();
      if (aborted_) return false;
    }
    return false;
  }

  const model::Instance& instance_;
  const model::Cost_model& model_;
  const constraints::Precedence_graph* precedence_;
  const Bound_provider& bounds_;
  double target_;
  const Rebuild_control& control_;
  opt::Search_stats& stats_;

  model::Partial_plan_evaluator eval_;
  Placed_set placed_;
  bool aborted_ = false;
};

/// A worker's deque of root tasks (indices into the sorted pair list).
/// The owner pops its front (cheapest remaining); thieves pop a victim's
/// back (costliest, most prunable — cheap to lose).
struct Work_queue {
  std::mutex mutex;
  std::deque<std::uint32_t> tasks;
};

constexpr std::uint32_t no_task = 0xFFFFFFFFu;

std::uint32_t next_task(std::vector<Work_queue>& queues, std::size_t self) {
  {
    Work_queue& own = queues[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      const std::uint32_t task = own.tasks.front();
      own.tasks.pop_front();
      return task;
    }
  }
  for (std::size_t offset = 1; offset < queues.size(); ++offset) {
    Work_queue& victim = queues[(self + offset) % queues.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      const std::uint32_t task = victim.tasks.back();
      victim.tasks.pop_back();
      return task;
    }
  }
  return no_task;
}

void add_stats(opt::Search_stats& into, const opt::Search_stats& from) {
  into.nodes_expanded += from.nodes_expanded;
  into.complete_plans += from.complete_plans;
  into.incumbent_updates += from.incumbent_updates;
  into.lemma1_cutoffs += from.lemma1_cutoffs;
  into.lemma1_children_skipped += from.lemma1_children_skipped;
  into.lemma2_closures += from.lemma2_closures;
  into.lemma3_backjumps += from.lemma3_backjumps;
  into.lemma3_siblings_skipped += from.lemma3_siblings_skipped;
  into.pairs_explored += from.pairs_explored;
  into.ebar_evaluations += from.ebar_evaluations;
  into.lower_bound_prunes += from.lower_bound_prunes;
}

}  // namespace

Bnb_par_optimizer::Bnb_par_optimizer(Bnb_par_options options)
    : options_(options) {}

std::string Bnb_par_optimizer::name() const {
  std::string name = "bnb-par";
  if (options_.search.ebar_mode == Epsilon_bar_mode::loose) name += "-loose";
  if (!options_.search.enable_closure) name += "-noclosure";
  if (!options_.search.enable_backjump) name += "-nojump";
  if (options_.search.enable_lower_bound) name += "-lb";
  return name;
}

std::size_t Bnb_par_optimizer::effective_threads() const {
  if (options_.threads != 0) return options_.threads;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

opt::Result Bnb_par_optimizer::optimize(const opt::Request& request) {
  opt::validate_request(request);
  QUEST_EXPECTS(options_.search.suboptimality == 0.0,
                "bnb-par is exact-only: suboptimality must be 0");
  const auto& instance = *request.instance;
  const std::size_t n = instance.size();
  const std::size_t threads = effective_threads();

  opt::Result result;

  if (n == 1) {
    opt::Search_stats stats;
    opt::Search_control control(request, stats);
    result.plan = Plan::identity(1);
    result.cost = model::bottleneck_cost(instance, result.plan, request.model);
    ++stats.complete_plans;
    control.note_final_incumbent(result.plan, result.cost);
    stats.engine_threads = 1;
    result.stats = stats;
    control.finish(result, true);
    return result;
  }

  Bound_config bound_config;
  bound_config.ebar_mode = options_.search.ebar_mode;
  bound_config.enable_closure = options_.search.enable_closure;
  bound_config.enable_lower_bound = options_.search.enable_lower_bound;
  // Computed once, shared read-only by every worker and the post-pass.
  const Bound_provider bounds(instance, request.model, bound_config);

  Driver_config config;
  config.relax = 1.0;
  config.enable_backjump = options_.search.enable_backjump;

  opt::Shared_search_control shared(request);
  Shared_incumbent incumbent(shared);

  // Warm starts run on the calling thread before workers spawn, exactly
  // like the sequential engine's pre-loop phase.
  opt::Search_stats main_stats;
  if (request.warm_start != nullptr) {
    ++main_stats.complete_plans;
    incumbent.offer(request.warm_start->order(),
                    model::bottleneck_cost(instance, *request.warm_start,
                                           request.model));
  }
  const std::vector<Pair_seed> pairs = build_pair_seeds(
      instance, request.model, request.precedence);
  if (options_.search.warm_start) {
    opt::Worker_control main_control(shared, main_stats);
    Search_driver<Shared_incumbent, opt::Worker_control> main_driver(
        instance, request.model, request.precedence, config, bounds,
        incumbent, main_control, main_stats);
    main_driver.greedy_warm_start(pairs);
    main_control.flush_work();
  }

  // Root decomposition: the sorted pair seeds, dealt round-robin so every
  // worker starts near the cheap (hard-to-prune) end of the list.
  std::vector<Work_queue> queues(threads);
  for (std::uint32_t i = 0; i < pairs.size(); ++i) {
    queues[i % threads].tasks.push_back(i);
  }

  std::vector<opt::Search_stats> worker_stats(threads);
  std::vector<std::exception_ptr> worker_errors(threads);

  auto worker = [&](std::size_t index) {
    try {
      opt::Search_stats& stats = worker_stats[index];
      opt::Worker_control control(shared, stats);
      Search_driver<Shared_incumbent, opt::Worker_control> driver(
          instance, request.model, request.precedence, config, bounds,
          incumbent, control, stats);
      while (!control.stopped()) {
        const std::uint32_t task = next_task(queues, index);
        if (task == no_task) break;
        if (control.should_stop()) break;
        const Pair_seed& pair = pairs[task];
        // Lemma 1 at the root: this pair's first term already reaches
        // the shared incumbent. (No sorted-list early exit here — a
        // stolen task may be cheaper than the next owned one — but the
        // check itself is the same prune. The sequential engine's
        // closed-leader trick is deliberately absent: it is only sound
        // when pairs arrive in ascending first_term order, which work
        // stealing breaks, and every pair it would prune is first_term
        // >= rho anyway once the closing plan has been offered.)
        if (pair.first_term >= incumbent.rho()) continue;
        ++stats.pairs_explored;
        driver.run_pair(pair);
        if (control.stopped()) break;
      }
      control.flush_work();
    } catch (...) {
      worker_errors[index] = std::current_exception();
      shared.request_stop(opt::Termination::cancelled);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t index = 0; index < threads; ++index) {
    pool.emplace_back(worker, index);
  }
  for (auto& thread : pool) thread.join();
  for (auto& error : worker_errors) {
    if (error) std::rethrow_exception(error);
  }

  // Snapshot before the post-pass: a stop token firing *during*
  // reconstruction must not retroactively void the completed proof.
  const bool search_stopped = shared.stopped();

  opt::Search_stats stats = main_stats;
  for (const auto& per_worker : worker_stats) add_stats(stats, per_worker);
  stats.pairs_total = pairs.size();
  stats.incumbent_updates = shared.incumbent_updates();
  stats.engine_threads = threads;

  if (!search_stopped) {
    QUEST_ASSERT(incumbent.best().size() == n,
                 "branch-and-bound must visit at least one complete plan");
    result.cost = incumbent.cost();
    Rebuild_control rebuild_control(request.stop);
    Canonical_rebuild rebuild(instance, request.model, request.precedence,
                              bounds, result.cost, rebuild_control, stats);
    result.plan = rebuild.run() ? rebuild.plan() : incumbent.best();
    result.stats = stats;
    result.proven_optimal = true;
    result.termination = opt::Termination::optimal;
  } else {
    result.plan = incumbent.best();
    result.cost = incumbent.cost();
    result.stats = stats;
    result.proven_optimal = false;
    result.termination = shared.reason();
  }
  result.elapsed_seconds = shared.elapsed_seconds();
  return result;
}

}  // namespace quest::core

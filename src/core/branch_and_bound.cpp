#include "quest/core/branch_and_bound.hpp"

#include <vector>

#include "quest/common/error.hpp"
#include "quest/core/bounds.hpp"
#include "quest/core/search_driver.hpp"
#include "quest/opt/search_control.hpp"

namespace quest::core {

using model::Plan;

Bnb_optimizer::Bnb_optimizer(Bnb_options options)
    : options_(options) {}

std::string Bnb_optimizer::name() const {
  std::string name = "bnb";
  if (options_.ebar_mode == Epsilon_bar_mode::loose) name += "-loose";
  if (!options_.enable_closure) name += "-noclosure";
  if (!options_.enable_backjump) name += "-nojump";
  if (options_.enable_lower_bound) name += "-lb";
  if (options_.suboptimality > 0.0) {
    name += "-subopt";
  }
  return name;
}

opt::Result Bnb_optimizer::optimize(const opt::Request& request) {
  opt::validate_request(request);
  QUEST_EXPECTS(options_.suboptimality >= 0.0,
                "suboptimality must be non-negative");
  const auto& instance = *request.instance;
  const std::size_t n = instance.size();

  opt::Result result;
  opt::Search_stats stats;
  opt::Search_control control(request, stats);

  if (n == 1) {
    result.plan = Plan::identity(1);
    result.cost = model::bottleneck_cost(instance, result.plan, request.model);
    ++stats.complete_plans;
    control.note_final_incumbent(result.plan, result.cost);
    result.stats = stats;
    control.finish(result, true);
    return result;
  }

  Bound_config bound_config;
  bound_config.ebar_mode = options_.ebar_mode;
  bound_config.enable_closure = options_.enable_closure;
  bound_config.enable_lower_bound = options_.enable_lower_bound;
  const Bound_provider bounds(instance, request.model, bound_config);

  Driver_config config;
  config.relax = 1.0 + options_.suboptimality;
  config.enable_backjump = options_.enable_backjump;

  Local_incumbent incumbent(control);
  Search_driver<Local_incumbent, opt::Search_control> driver(
      instance, request.model, request.precedence, config, bounds, incumbent,
      control, stats);

  // Request-supplied warm start (validated by validate_request): a
  // feasible plan's cost is an upper bound on the optimum, so priming
  // the incumbent with it tightens every prune without voiding the
  // optimality proof.
  if (request.warm_start != nullptr) {
    ++stats.complete_plans;
    incumbent.offer(request.warm_start->order(),
                    model::bottleneck_cost(instance, *request.warm_start,
                                           request.model));
  }

  const std::vector<Pair_seed> pairs = build_pair_seeds(
      instance, request.model, request.precedence);
  if (options_.warm_start) driver.greedy_warm_start(pairs);
  stats.pairs_total = pairs.size();

  std::vector<char> closed_leader(n, 0);
  for (const Pair_seed& pair : pairs) {
    if (control.should_stop()) break;
    // Lemma-1 global exit: the list is sorted, so no remaining pair can
    // start a plan cheaper than the incumbent (relaxed by the
    // suboptimality factor when bounded-suboptimal search is on).
    if (pair.first_term * config.relax >= incumbent.rho()) break;
    // Lemma 3 at the root: a back-jump to depth 0 established that every
    // successor of this leader yields cost >= rho.
    if (closed_leader[pair.a]) {
      ++stats.lemma3_siblings_skipped;
      continue;
    }
    ++stats.pairs_explored;
    const std::size_t target = driver.run_pair(pair);
    if (control.stopped()) break;
    if (target == 0) closed_leader[pair.a] = 1;
  }

  QUEST_ASSERT(incumbent.best().size() == n || control.stopped(),
               "branch-and-bound must visit at least one complete plan");
  result.plan = incumbent.best();
  result.cost = incumbent.cost();
  result.stats = stats;
  control.finish(result, options_.suboptimality == 0.0);
  return result;
}

}  // namespace quest::core

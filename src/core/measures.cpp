#include "quest/core/measures.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "quest/common/error.hpp"

namespace quest::core {

using model::Cost_model;
using model::Instance;
using model::Partial_plan_evaluator;
using model::Service_id;
using model::stage_term;

namespace {

/// The largest transfer out of `from` into `into`: the first member of
/// `into` met reading from's successor row from its costly end, or
/// `none` when `into` holds no successor of `from`.
double worst_transfer(const Instance& instance, const Successor_table& table,
                      Service_id from, const Member_mask& into,
                      double none) {
  const auto row = table.row(from);
  for (auto it = row.rbegin(); it != row.rend(); ++it) {
    if (into.test(*it)) return instance.transfer(from, *it);
  }
  return none;
}

/// The smallest transfer out of `from` into `into` (the row read
/// forward), or `none` when `into` holds no successor of `from`.
double cheapest_transfer(const Instance& instance,
                         const Successor_table& table, Service_id from,
                         const Member_mask& into, double none) {
  for (const Service_id v : table.row(from)) {
    if (into.test(v)) return instance.transfer(from, v);
  }
  return none;
}

std::vector<double> effective_costs(const Instance& instance,
                                    const Cost_model& model) {
  std::vector<double> costs(instance.size());
  for (Service_id u = 0; u < instance.size(); ++u) {
    costs[u] = model.effective_cost(instance, u);
  }
  return costs;
}

}  // namespace

Epsilon_bar::Epsilon_bar(const Instance& instance, const Cost_model& model,
                         Epsilon_bar_mode mode)
    : Epsilon_bar(instance, model,
                  [&] {
                    auto bounds = model.selectivity_bounds(instance);
                    QUEST_EXPECTS(
                        bounds.has_value() && bounds->hi_sound,
                        "epsilon-bar needs sound selectivity upper bounds "
                        "from the cost model (search with Lemma 2 "
                        "disabled instead)");
                    return std::move(*bounds);
                  }(),
                  std::make_shared<const Successor_table>(instance), mode) {}

Epsilon_bar::Epsilon_bar(const Instance& instance, const Cost_model& model,
                         model::Selectivity_bounds bounds,
                         std::shared_ptr<const Successor_table> successors,
                         Epsilon_bar_mode mode)
    : instance_(&instance),
      successors_(std::move(successors)),
      policy_(model.policy()),
      mode_(mode),
      sigma_hi_(std::move(bounds.hi)),
      cost_(effective_costs(instance, model)),
      all_hi_selective_(bounds.all_hi_selective) {
  if (mode_ == Epsilon_bar_mode::loose) {
    const std::size_t n = instance.size();
    loose_term_bound_.resize(n);
    for (Service_id u = 0; u < n; ++u) {
      const double t_max = instance.max_outgoing_transfer(
          u, [](Service_id) { return true; });
      loose_term_bound_[u] = stage_term(cost_[u], sigma_hi_[u], t_max,
                                        policy_);
    }
  }
}

double Epsilon_bar::evaluate(const Partial_plan_evaluator& eval,
                             const Member_mask& remaining) const {
  return scan(eval, remaining, std::numeric_limits<double>::infinity());
}

double Epsilon_bar::scan(const Partial_plan_evaluator& eval,
                         const Member_mask& remaining,
                         double stop_above) const {
  QUEST_EXPECTS(!eval.empty(), "epsilon-bar needs a non-empty partial plan");
  QUEST_EXPECTS(!remaining.none(),
                "epsilon-bar is defined while services remain");
  const Instance& instance = *instance_;
  const Successor_table& table = *successors_;

  // Dangling term of the current last service: its conditional selectivity
  // is already determined by the prefix; its successor will be drawn from
  // `remaining`, so the worst case is the costliest outgoing link.
  const Service_id last = eval.last();
  const double t_dangling =
      std::max(0.0, worst_transfer(instance, table, last, remaining, 0.0));
  double bound = eval.product_before_last() *
                 stage_term(cost_[last], eval.last_selectivity(),
                            t_dangling, policy_);
  if (bound > stop_above) return bound;

  // Amplification product over the remaining set (only > 1 when some
  // service can still expand the stream — the paper's sigma > 1
  // modification, via the model's attainable upper bounds). The loose
  // mode's product includes u's own factor, so it is one product for
  // every u.
  const bool exact = mode_ == Epsilon_bar_mode::exact;
  double loose_amplification = 1.0;
  if (!all_hi_selective_ && !exact) {
    for (const std::size_t w : remaining) {
      loose_amplification *= std::max(1.0, sigma_hi_[w]);
    }
  }

  const double product_through = eval.product_through();
  for (const std::size_t u : remaining) {
    double term_bound;
    double amplification = loose_amplification;
    if (exact) {
      // Worst transfer out of u into the live remaining set or the sink
      // (u may be placed last).
      const double sink = instance.sink_transfer(u);
      const double t_max = std::max(
          sink, worst_transfer(instance, table, static_cast<Service_id>(u),
                               remaining, sink));
      term_bound = stage_term(cost_[u], sigma_hi_[u], t_max, policy_);
      if (!all_hi_selective_) {
        for (const std::size_t w : remaining) {
          if (w != u) amplification *= std::max(1.0, sigma_hi_[w]);
        }
      }
    } else {
      term_bound = loose_term_bound_[u];
    }
    bound = std::max(bound, product_through * amplification * term_bound);
    if (bound > stop_above) return bound;
  }
  return bound;
}

Lower_bound::Lower_bound(const Instance& instance, const Cost_model& model)
    : Lower_bound(instance, model,
                  [&] {
                    // Only the lower bounds are needed, and those are
                    // always finite — admissible pruning survives even
                    // when the upper bounds overflow.
                    auto bounds = model.selectivity_bounds(instance);
                    QUEST_EXPECTS(bounds.has_value(),
                                  "the admissible lower bound needs "
                                  "selectivity bounds from the cost model");
                    return std::move(*bounds);
                  }(),
                  std::make_shared<const Successor_table>(instance)) {}

Lower_bound::Lower_bound(const Instance& instance, const Cost_model& model,
                         const model::Selectivity_bounds& bounds,
                         std::shared_ptr<const Successor_table> successors)
    : instance_(&instance),
      successors_(std::move(successors)),
      policy_(model.policy()),
      sigma_lo_(bounds.lo),
      cost_(effective_costs(instance, model)) {}

double Lower_bound::evaluate(const Partial_plan_evaluator& eval,
                             const Member_mask& remaining) const {
  QUEST_EXPECTS(!eval.empty(), "lower bound needs a non-empty partial plan");
  QUEST_EXPECTS(!remaining.none(),
                "lower bound is defined while services remain");
  const Instance& instance = *instance_;
  const Successor_table& table = *successors_;

  // Dangling term: the last placed service must forward to something in
  // the remaining set; its conditional selectivity is already fixed.
  const Service_id last = eval.last();
  const double t_dangling =
      cheapest_transfer(instance, table, last, remaining,
                        std::numeric_limits<double>::infinity());
  double bound = eval.product_before_last() *
                 stage_term(cost_[last], eval.last_selectivity(),
                            t_dangling, policy_);

  // Smallest possible selectivity attenuation between the plan's end and
  // any later position: only sub-unit conditional selectivities can shrink
  // a product, and lo_w bounds each from below. Computed exactly per
  // candidate (no division) so floating-point rounding can never overstate
  // the bound — admissibility is what keeps the search exact.
  const double product_through = eval.product_through();
  for (const std::size_t u : remaining) {
    // u may be placed last, so the sink link competes with the cheapest
    // link into the rest of the remaining set.
    const double sink = instance.sink_transfer(u);
    const double t_min = std::min(
        sink, cheapest_transfer(instance, table, static_cast<Service_id>(u),
                                remaining, sink));
    double shrink = 1.0;
    for (const std::size_t v : remaining) {
      if (v != u) shrink *= std::min(1.0, sigma_lo_[v]);
    }
    bound = std::max(bound,
                     product_through * shrink *
                         stage_term(cost_[u], sigma_lo_[u], t_min, policy_));
  }
  return bound;
}

}  // namespace quest::core

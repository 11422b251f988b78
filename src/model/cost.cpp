#include "quest/model/cost.hpp"

#include <algorithm>
#include <span>

#include "quest/common/error.hpp"

namespace quest::model {

double bottleneck_cost(const Instance& instance, const Plan& plan,
                       const Cost_model& model) {
  QUEST_EXPECTS(plan.is_permutation_of(instance.size()),
                "bottleneck_cost requires a complete plan");
  model.validate_for(instance);
  const Send_policy policy = model.policy();
  const bool independent = model.is_independent();
  const bool scaled = model.has_cost_profile();
  const auto& order = plan.order();
  const std::size_t n = order.size();
  double product = 1.0;
  double worst = 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    const Service_id id = order[p];
    const Service& s = instance.service(id);
    const double sigma =
        independent ? s.selectivity
                    : model.conditional_selectivity(
                          instance, id, std::span(order.data(), p));
    const double cost = scaled ? s.cost * model.cost_scale(id) : s.cost;
    const double transfer = p + 1 < n ? instance.transfer(id, order[p + 1])
                                      : instance.sink_transfer(id);
    worst = std::max(worst,
                     product * stage_term(cost, sigma, transfer, policy));
    product *= sigma;
  }
  return worst;
}

double partial_epsilon(const Instance& instance, const Plan& plan,
                       const Cost_model& model) {
  Partial_plan_evaluator eval(instance, model);
  for (const Service_id id : plan) eval.append(id);
  return eval.epsilon();
}

Cost_breakdown cost_breakdown(const Instance& instance, const Plan& plan,
                              const Cost_model& model) {
  QUEST_EXPECTS(plan.is_permutation_of(instance.size()),
                "cost_breakdown requires a complete plan");
  model.validate_for(instance);
  const Send_policy policy = model.policy();
  const bool independent = model.is_independent();
  const bool scaled = model.has_cost_profile();
  Cost_breakdown result;
  const auto& order = plan.order();
  const std::size_t n = order.size();
  result.stage_costs.resize(n);
  result.input_fractions.resize(n);
  result.stage_selectivities.resize(n);
  double product = 1.0;
  for (std::size_t p = 0; p < n; ++p) {
    const Service_id id = order[p];
    const Service& s = instance.service(id);
    const double sigma =
        independent ? s.selectivity
                    : model.conditional_selectivity(
                          instance, id, std::span(order.data(), p));
    const double transfer = p + 1 < n ? instance.transfer(id, order[p + 1])
                                      : instance.sink_transfer(id);
    const double cost = scaled ? s.cost * model.cost_scale(id) : s.cost;
    result.input_fractions[p] = product;
    result.stage_selectivities[p] = sigma;
    result.stage_costs[p] =
        product * stage_term(cost, sigma, transfer, policy);
    product *= sigma;
  }
  const auto it =
      std::max_element(result.stage_costs.begin(), result.stage_costs.end());
  result.bottleneck_position =
      static_cast<std::size_t>(it - result.stage_costs.begin());
  result.cost = *it;
  return result;
}

Partial_plan_evaluator::Partial_plan_evaluator(const Instance& instance,
                                               Cost_model model)
    : instance_(&instance),
      model_(std::move(model)),
      gamma_(model_.interaction()),
      in_plan_(instance.size()) {
  model_.validate_for(instance);
  frames_.reserve(instance.size());
  order_.reserve(instance.size());
}

void Partial_plan_evaluator::append(Service_id id) {
  QUEST_EXPECTS(id < instance_->size(), "service id out of range");
  QUEST_EXPECTS(!in_plan_.test(id), "service already in the partial plan");
  const Service& s = instance_->service(id);
  Frame frame;
  frame.id = id;
  frame.bottleneck_pos = 0;
  frame.sigma = s.selectivity;
  if (gamma_ != nullptr) {
    // sigma(id | plan set): symmetric factors, so plan order is
    // irrelevant; recomputed fresh to stay drift-free under pop().
    for (const Service_id w : order_) {
      frame.sigma *= gamma_->at_unchecked(w, id);
    }
  }
  if (frames_.empty()) {
    frame.product_before = 1.0;
    frame.epsilon_after = 0.0;
  } else {
    const Frame& prev = frames_.back();
    frame.product_before = prev.product_through;
    // Appending fixes the previous last service's successor, determining
    // its stage term.
    const double fixed =
        prev.product_before *
        stage_term(model_.effective_cost(*instance_, prev.id), prev.sigma,
                   instance_->transfer(prev.id, id), model_.policy());
    if (fixed > prev.epsilon_after) {
      frame.epsilon_after = fixed;
      frame.bottleneck_pos = frames_.size() - 1;
    } else {
      // Ties keep the earliest position: the back-jump then prunes more.
      frame.epsilon_after = prev.epsilon_after;
      frame.bottleneck_pos = prev.bottleneck_pos;
    }
  }
  frame.product_through = frame.product_before * frame.sigma;
  frames_.push_back(frame);
  order_.push_back(id);
  in_plan_.set(id);
}

void Partial_plan_evaluator::pop() {
  QUEST_EXPECTS(!frames_.empty(), "pop() on an empty partial plan");
  in_plan_.reset(frames_.back().id);
  frames_.pop_back();
  order_.pop_back();
}

void Partial_plan_evaluator::clear() {
  frames_.clear();
  order_.clear();
  in_plan_.clear();
}

std::size_t Partial_plan_evaluator::bottleneck_position() const {
  QUEST_EXPECTS(frames_.size() >= 2,
                "bottleneck_position() needs at least one determined term");
  return frames_.back().bottleneck_pos;
}

double Partial_plan_evaluator::complete_cost() const {
  QUEST_EXPECTS(full(), "complete_cost() requires a full plan");
  const Frame& top = frames_.back();
  const double final_term =
      top.product_before *
      stage_term(model_.effective_cost(*instance_, top.id), top.sigma,
                 instance_->sink_transfer(top.id), model_.policy());
  return std::max(top.epsilon_after, final_term);
}

Plan Partial_plan_evaluator::plan() const { return Plan(order_); }

}  // namespace quest::model

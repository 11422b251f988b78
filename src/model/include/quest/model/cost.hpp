// quest/model/cost.hpp
//
// The bottleneck cost metric of the paper (Eq. 1) and an incremental
// evaluator for partial plans, the workhorse of every optimizer. All
// entry points evaluate through a Cost_model (quest/model/cost_model.hpp):
// the send policy plus the selectivity structure.
//
// For a complete plan S = (s_0, ..., s_{n-1}):
//
//   cost(S) = max_i  P_i * term(c_i, sigma_i, t_i)
//
// where sigma_i = sigma(s_i | {s_0..s_{i-1}}) is the model's conditional
// selectivity (just sigma_{s_i} under the independent structure), P_i is
// the product of the conditional selectivities of the services before s_i
// (the average number of tuples reaching s_i per input tuple), t_i is the
// transfer cost from s_i to its successor (the sink link for the last
// service, zero by default), and term() depends on the send policy:
//
//   sequential: c + sigma * t   (single-threaded service: processing and
//                                sending of a tuple cannot overlap — the
//                                paper's Section 2 restriction)
//   overlapped: max(c, sigma*t) (processing overlaps sending; the "minor
//                                modification" for multi-threaded services)
//
// For a *partial* plan only the terms of services that already have a
// successor are determined; their maximum is the paper's measure epsilon,
// which is non-decreasing under extension (Lemma 1) for every cost model
// (the model's conditional selectivities are non-negative by
// construction, so stage terms are non-negative).

#pragma once

#include <cstddef>
#include <vector>

#include "quest/common/bitset64.hpp"
#include "quest/common/error.hpp"
#include "quest/model/cost_model.hpp"
#include "quest/model/instance.hpp"
#include "quest/model/plan.hpp"

namespace quest::model {

/// Per-tuple time spent at one stage, before attenuation by upstream
/// selectivities. `selectivity` is the stage's conditional selectivity
/// under the active cost model.
constexpr double stage_term(double cost, double selectivity, double transfer,
                            Send_policy policy) noexcept {
  const double send = selectivity * transfer;
  return policy == Send_policy::sequential ? cost + send
                                           : (cost > send ? cost : send);
}

/// Bottleneck cost (Eq. 1) of a complete plan under `model`.
/// Precondition: `plan` is a permutation of the instance's services and
/// `model` fits the instance (Cost_model::validate_for).
double bottleneck_cost(const Instance& instance, const Plan& plan,
                       const Cost_model& model = {});

/// Fully-determined-terms maximum (the paper's epsilon) of a partial plan:
/// the max over all services that already have a successor. Zero for plans
/// of size < 2. Precondition: `plan` holds distinct, in-range services.
double partial_epsilon(const Instance& instance, const Plan& plan,
                       const Cost_model& model = {});

/// Detailed per-stage view of a complete plan's cost.
struct Cost_breakdown {
  /// P_i * term(...) for each plan position.
  std::vector<double> stage_costs;
  /// Expected tuples reaching each position per input tuple (P_i).
  std::vector<double> input_fractions;
  /// Conditional selectivity at each position under the cost model
  /// (equal to the services' base selectivities when independent).
  std::vector<double> stage_selectivities;
  /// Plan position of the (first) bottleneck stage.
  std::size_t bottleneck_position = 0;
  /// The bottleneck cost itself.
  double cost = 0.0;
};

/// Computes the full breakdown; same preconditions as bottleneck_cost.
Cost_breakdown cost_breakdown(const Instance& instance, const Plan& plan,
                              const Cost_model& model = {});

/// Incremental evaluator for growing/shrinking a partial plan, O(1) per
/// append/pop under the independent structure and O(plan size) under the
/// correlated one. Used by branch-and-bound and exhaustive search; exposed
/// publicly because heuristics and tests benefit from it too.
class Partial_plan_evaluator {
 public:
  explicit Partial_plan_evaluator(const Instance& instance,
                                  Cost_model model = {});

  /// Appends a service. Precondition: not already in the plan.
  void append(Service_id id);
  /// Removes the most recently appended service. Precondition: non-empty.
  void pop();
  /// Clears back to the empty plan.
  void clear();

  std::size_t size() const noexcept { return frames_.size(); }
  bool empty() const noexcept { return frames_.empty(); }
  bool full() const noexcept { return frames_.size() == instance_->size(); }
  bool contains(Service_id id) const { return in_plan_.test(id); }
  Service_id last() const {
    QUEST_EXPECTS(!frames_.empty(), "last() on an empty partial plan");
    return frames_.back().id;
  }

  /// The paper's epsilon: max over fully-determined stage terms.
  /// Non-decreasing in append() (Lemma 1); 0 while size() < 2.
  double epsilon() const noexcept {
    return frames_.empty() ? 0.0 : frames_.back().epsilon_after;
  }

  /// Product of the conditional selectivities of every service in the plan
  /// (P_{k+1}: the input fraction any immediately-appended service sees).
  double product_through() const noexcept {
    return frames_.empty() ? 1.0 : frames_.back().product_through;
  }

  /// Input fraction of the last service in the plan (P_k).
  double product_before_last() const {
    QUEST_EXPECTS(!frames_.empty(),
                  "product_before_last() on an empty partial plan");
    return frames_.back().product_before;
  }

  /// Conditional selectivity of the last service given the services
  /// before it — the sigma its stage term uses. Precondition: non-empty.
  double last_selectivity() const {
    QUEST_EXPECTS(!frames_.empty(),
                  "last_selectivity() on an empty partial plan");
    return frames_.back().sigma;
  }

  /// Plan position of the (earliest) stage achieving epsilon — the
  /// bottleneck service among the determined terms. Defined for size >= 2;
  /// the branch-and-bound back-jump (Lemma 3) unwinds to this position.
  std::size_t bottleneck_position() const;

  /// The determined term the append of `next` would fix for the current
  /// last service, without mutating the evaluator.
  double term_if_appended(Service_id next) const {
    QUEST_EXPECTS(!frames_.empty(),
                  "term_if_appended() on an empty partial plan");
    QUEST_EXPECTS(next < instance_->size(), "service id out of range");
    QUEST_EXPECTS(!in_plan_.test(next),
                  "candidate already in the partial plan");
    const Frame& top = frames_.back();
    return top.product_before *
           stage_term(model_.effective_cost(*instance_, top.id), top.sigma,
                      instance_->transfer(top.id, next), model_.policy());
  }

  /// Bottleneck cost of the plan interpreted as complete
  /// (epsilon joined with the last service's sink term).
  /// Precondition: full().
  double complete_cost() const;

  /// Current ordering (a copy).
  Plan plan() const;
  const std::vector<Service_id>& order() const noexcept { return order_; }

  /// Bitmask view of the plan set (bits 0..63; the subset engines and the
  /// search kernel consume this on n <= 64 instances).
  std::uint64_t placed_word() const noexcept { return in_plan_.word(); }

  const Instance& instance() const noexcept { return *instance_; }
  const Cost_model& cost_model() const noexcept { return model_; }
  Send_policy policy() const noexcept { return model_.policy(); }

 private:
  struct Frame {
    Service_id id;
    double sigma;            ///< sigma(id | services before it)
    double product_before;   ///< P_k for this service
    double product_through;  ///< P_k * sigma
    double epsilon_after;    ///< epsilon including this append's fixed term
    std::size_t bottleneck_pos;  ///< earliest argmax position of epsilon
  };

  const Instance* instance_;
  Cost_model model_;
  /// Cached correlation matrix (nullptr = independent fast path).
  const Matrix<double>* gamma_;
  std::vector<Frame> frames_;
  std::vector<Service_id> order_;
  /// Membership of order_ as a bitmask (single-word fast path for
  /// n <= 64; overflow words keep arbitrary-n callers working).
  Member_mask in_plan_;
};

}  // namespace quest::model

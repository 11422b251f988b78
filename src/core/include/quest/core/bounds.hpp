// quest/core/bounds.hpp
//
// The bounds layer of the search kernel: everything the branch-and-bound
// drivers prune with beyond epsilon itself — Lemma-2 closure through
// Epsilon_bar and the quest admissible Lower_bound — resolved once per
// optimize() call behind one provider.
//
// Construction builds the instance's Successor_table — the
// cheapest-first child order the drivers expand and the bounds scan —
// and runs the soundness gate that used to live inside the
// monolithic search: the cost model's attainable-selectivity bounds are
// computed once; closure stays off unless the *upper* bounds are sound
// (hi_sound), the lower bound only needs the always-finite lower bounds.
// Lemma 1/3 need no bounds and stay exact regardless.
//
// A Bound_provider is immutable after construction and its evaluations
// are stateless, so a single instance is shared read-only by every worker
// of the parallel driver (bnb-par) — the table and the bounds are
// computed once, not once per thread.

#pragma once

#include <memory>
#include <optional>

#include "quest/core/measures.hpp"

namespace quest::core {

/// Which bounds to arm. The enables are requests, not guarantees: the
/// provider still turns a bound off when the cost model cannot support it
/// soundly (see the file comment).
struct Bound_config {
  Epsilon_bar_mode ebar_mode = Epsilon_bar_mode::exact;
  bool enable_closure = true;
  bool enable_lower_bound = false;
};

/// Per-optimize() bound computation, shared read-only across workers.
class Bound_provider {
 public:
  Bound_provider(const model::Instance& instance,
                 const model::Cost_model& model, const Bound_config& config);

  /// The instance's cheapest-first successor order, which the drivers
  /// expand children from and both bounds scan.
  const Successor_table& successors() const noexcept { return *successors_; }

  /// True when Lemma-2 closure survived the soundness gate.
  bool closure_enabled() const noexcept { return ebar_.has_value(); }
  /// True when the admissible lower bound is armed.
  bool lower_bound_enabled() const noexcept { return lower_.has_value(); }

  /// Lemma 2's test for the partial plan held by `eval` (see
  /// Epsilon_bar::closes). Precondition: closure_enabled().
  bool closes(const model::Partial_plan_evaluator& eval,
              const Member_mask& remaining) const {
    return ebar_->closes(eval, remaining);
  }

  /// Admissible lower bound on the undetermined terms (see Lower_bound).
  /// Precondition: lower_bound_enabled().
  double lower_bound(const model::Partial_plan_evaluator& eval,
                     const Member_mask& remaining) const {
    return lower_->evaluate(eval, remaining);
  }

 private:
  std::shared_ptr<const Successor_table> successors_;
  std::optional<Epsilon_bar> ebar_;
  std::optional<Lower_bound> lower_;
};

}  // namespace quest::core

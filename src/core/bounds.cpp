#include "quest/core/bounds.hpp"

#include <utility>

namespace quest::core {

Bound_provider::Bound_provider(const model::Instance& instance,
                               const model::Cost_model& model,
                               const Bound_config& config)
    : successors_(std::make_shared<const Successor_table>(instance)) {
  // Lemma-2 closure needs sound attainable-selectivity *upper* bounds
  // from the cost model; when they overflow the search falls back to
  // closure-disabled operation. The admissible lower bound only needs
  // the always-finite lower bounds, so it survives the fallback.
  auto bounds = model.selectivity_bounds(instance);
  const bool closure_on =
      config.enable_closure && bounds.has_value() && bounds->hi_sound;
  const bool lower_on = config.enable_lower_bound && bounds.has_value();
  if (lower_on) lower_.emplace(instance, model, *bounds, successors_);
  if (closure_on) {
    ebar_.emplace(instance, model, std::move(*bounds), successors_,
                  config.ebar_mode);
  }
}

}  // namespace quest::core

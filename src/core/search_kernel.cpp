#include "quest/core/search_kernel.hpp"

#include <algorithm>
#include <tuple>

namespace quest::core {

std::vector<Pair_seed> build_pair_seeds(
    const model::Instance& instance, const model::Cost_model& model,
    const constraints::Precedence_graph* precedence) {
  const model::Send_policy policy = model.policy();
  const std::size_t n = instance.size();
  std::vector<Pair_seed> pairs;
  if (n < 2) return pairs;
  pairs.reserve(n * (n - 1));
  for (model::Service_id a = 0; a < n; ++a) {
    if (precedence && !precedence->predecessors(a).empty()) continue;
    const auto& sa = instance.service(a);
    for (model::Service_id b = 0; b < n; ++b) {
      if (b == a) continue;
      if (precedence) {
        const auto& preds = precedence->predecessors(b);
        const bool ok =
            std::all_of(preds.begin(), preds.end(),
                        [a](model::Service_id p) { return p == a; });
        if (!ok) continue;
      }
      pairs.push_back({model::stage_term(model.effective_cost(instance, a),
                                         sa.selectivity,
                                         instance.transfer(a, b), policy),
                       a, b});
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair_seed& x, const Pair_seed& y) {
              return std::tie(x.first_term, x.a, x.b) <
                     std::tie(y.first_term, y.a, y.b);
            });
  return pairs;
}

Successor_table::Successor_table(const model::Instance& instance)
    : width_(instance.size() - 1) {
  const std::size_t n = instance.size();
  const auto& transfer = instance.transfer_matrix();
  ids_.reserve(n * width_);
  for (model::Service_id u = 0; u < n; ++u) {
    const std::size_t row = ids_.size();
    for (model::Service_id v = 0; v < n; ++v) {
      if (v != u) ids_.push_back(v);
    }
    std::sort(ids_.begin() + static_cast<std::ptrdiff_t>(row), ids_.end(),
              [&](model::Service_id x, model::Service_id y) {
                return std::tie(transfer.at_unchecked(u, x), x) <
                       std::tie(transfer.at_unchecked(u, y), y);
              });
  }
}

}  // namespace quest::core

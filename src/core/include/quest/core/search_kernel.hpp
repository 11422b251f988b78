// quest/core/search_kernel.hpp
//
// The node/frontier layer of the search kernel: the flat data structures
// a branch-and-bound driver walks. A DFS "node" here is implicit — its
// state is the evaluator frame at that depth
// (model::Partial_plan_evaluator) and the remaining-set mask; its
// children are a row of the Successor_table filtered by that mask, so no
// node sorts or stores anything. The table is built once per optimize()
// call and shared read-only; the evaluator and the mask are allocated
// once per driver and reused across the whole tree, so there is no
// per-node heap churn and each parallel worker owns one private copy.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "quest/common/bitset64.hpp"
#include "quest/constraints/precedence.hpp"
#include "quest/model/cost.hpp"
#include "quest/model/instance.hpp"

namespace quest::core {

/// A size-two seed prefix of the root enumeration: `first_term` is the
/// plan's position-0 stage cost, a lower bound (Lemma 1) on any plan
/// starting with (a, b).
struct Pair_seed {
  double first_term;
  model::Service_id a;
  model::Service_id b;
};

/// Every precedence-feasible ordered pair, sorted ascending by
/// (first_term, a, b) — the canonical root ordering both the sequential
/// pair loop (sorted, so Lemma 1 turns into a global exit) and the
/// parallel task distribution consume. Empty for instances of size < 2.
std::vector<Pair_seed> build_pair_seeds(
    const model::Instance& instance, const model::Cost_model& model,
    const constraints::Precedence_graph* precedence);

/// Every service's successors in the paper's cheapest-first expansion
/// order: row u lists each v != u ascending by (transfer(u, v), v) —
/// Lemma 3's correctness depends on this order. The order depends only
/// on the instance, so it is built once per optimize() and shared
/// read-only by every driver and bound of that call. A node's children
/// are its last service's row filtered by the node's feasible set; read
/// in reverse, the row's first remaining entry is the costliest link
/// into the remaining set (epsilon-bar), read forward the cheapest
/// (the lower bound). Transfers themselves are read from the instance.
class Successor_table {
 public:
  explicit Successor_table(const model::Instance& instance);

  std::span<const model::Service_id> row(model::Service_id u) const noexcept {
    return {ids_.data() + u * width_, width_};
  }

 private:
  std::size_t width_;
  std::vector<model::Service_id> ids_;
};

/// The prefix set of the current search node, kept as the *remaining*
/// set — the services not yet placed, the set every bound scans and
/// children are drawn from — plus the vector<char> placed mirror the
/// precedence API consumes.
class Placed_set {
 public:
  explicit Placed_set(std::size_t n)
      : remaining_(Member_mask(n).complement(n)), chars_(n, 0) {}

  bool test(model::Service_id id) const noexcept {
    return !remaining_.test(id);
  }

  void set(model::Service_id id) noexcept {
    remaining_.reset(id);
    chars_[id] = 1;
  }

  void reset(model::Service_id id) noexcept {
    remaining_.set(id);
    chars_[id] = 0;
  }

  /// The services not yet placed.
  const Member_mask& remaining() const noexcept { return remaining_; }

  /// The n-length membership mask Precedence_graph::feasible_next takes.
  const std::vector<char>& chars() const noexcept { return chars_; }

 private:
  Member_mask remaining_;
  std::vector<char> chars_;
};

}  // namespace quest::core

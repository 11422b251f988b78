// quest/core/branch_and_bound.hpp
//
// The paper's contribution: a branch-and-bound algorithm that finds the
// linear service ordering minimizing the bottleneck cost metric (Eq. 1) in
// the decentralized setting (heterogeneous pairwise transfer costs), where
// the problem generalizes bottleneck TSP and is NP-hard.
//
// Search structure (Section 2 of the paper):
//  * The root enumerates the at-most n(n-1) size-two prefixes in ascending
//    first-term cost and exits as soon as the cheapest uninvestigated pair
//    already reaches the incumbent rho (Lemma 1).
//  * Each node appends the cheapest not-yet-investigated successor of the
//    plan's last service ("less expensive WS with respect to the last
//    service") — successors are visited in ascending transfer cost.
//  * Lemma 1 (epsilon is non-decreasing): once the newly fixed term reaches
//    rho, the child and all remaining (costlier) siblings are pruned.
//  * Lemma 2 (closure): when epsilon >= epsilon-bar, every completion of
//    the partial plan costs exactly epsilon; the subtree collapses to one
//    candidate value.
//  * Lemma 3 (back-jump): after a closure — or a completed plan — the
//    prefix up to and *including* the bottleneck service joins the pruned
//    set V, and the search unwinds to just *before* the bottleneck
//    service: because successors are expanded cheapest-first, every plan
//    extending a prefix in V costs at least rho. V is never stored; the
//    unwind itself is what keeps its prefixes from being revisited.

#pragma once

#include <cstdint>

#include "quest/core/measures.hpp"
#include "quest/opt/optimizer.hpp"

namespace quest::core {

/// Tuning and ablation switches for the branch-and-bound. Defaults give
/// the full algorithm of the paper.
struct Bnb_options {
  /// Tightness of the epsilon-bar measure (see Epsilon_bar_mode).
  Epsilon_bar_mode ebar_mode = Epsilon_bar_mode::exact;
  /// Lemma 2 subtree closure. Disable to ablate (E2).
  bool enable_closure = true;
  /// Lemma 3 back-jump past the bottleneck service. Disable to ablate.
  bool enable_backjump = true;
  /// Prime the incumbent with a cheapest-successor greedy descent before
  /// the exact search (not part of the paper's description; off by
  /// default).
  bool warm_start = false;
  /// quest extension: join epsilon with the admissible Lower_bound on the
  /// undetermined terms before pruning against the incumbent. Exactness
  /// is preserved; decisive on sigma > 1 instances (ablated in E11).
  bool enable_lower_bound = false;
  /// quest extension: bounded-suboptimality search. Prunes subtrees whose
  /// lower bound multiplied by (1 + suboptimality) reaches the incumbent,
  /// so the returned plan costs at most (1 + suboptimality) times the
  /// optimum. 0 (default) searches exactly; results with a non-zero value
  /// report proven_optimal = false.
  double suboptimality = 0.0;
};

/// The paper's optimizer. Reusable across optimize() calls; not
/// thread-safe (use one per thread).
class Bnb_optimizer final : public opt::Optimizer {
 public:
  explicit Bnb_optimizer(Bnb_options options = {});

  std::string name() const override;
  opt::Result optimize(const opt::Request& request) override;

  const Bnb_options& options() const noexcept { return options_; }

 private:
  Bnb_options options_;
};

}  // namespace quest::core

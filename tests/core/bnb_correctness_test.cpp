// Correctness of the branch-and-bound: on every instance family and every
// configuration, it must return exactly the optimum found by exhaustive
// search (small n) or the subset DP (larger n).

#include <gtest/gtest.h>

#include "quest/core/branch_and_bound.hpp"
#include "quest/opt/dp.hpp"
#include "quest/opt/exhaustive.hpp"
#include "quest/workload/generators.hpp"
#include "support/helpers.hpp"

namespace quest {
namespace {

using core::Bnb_optimizer;
using core::Bnb_options;
using core::Epsilon_bar_mode;
using model::Instance;
using model::Send_policy;
using opt::Request;

Request request_for(const Instance& instance,
                    Send_policy policy = Send_policy::sequential) {
  Request request;
  request.instance = &instance;
  request.model = model::Cost_model::independent(policy);
  return request;
}

void expect_matches_exhaustive(const Instance& instance,
                               const Request& request,
                               const Bnb_options& options = {}) {
  Bnb_optimizer bnb(options);
  opt::Exhaustive_optimizer exhaustive;
  const auto got = bnb.optimize(request);
  const auto want = exhaustive.optimize(request);
  ASSERT_TRUE(want.proven_optimal);
  EXPECT_TRUE(got.proven_optimal);
  EXPECT_TRUE(test::costs_equal(got.cost, want.cost))
      << "instance " << instance.name() << ", plan " << got.plan.to_string();
  // The returned plan must actually achieve the reported cost.
  EXPECT_TRUE(test::costs_equal(
      got.cost, model::bottleneck_cost(instance, got.plan, request.model)));
}

// ---- parameterized sweep over sizes and seeds --------------------------

struct Sweep_param {
  std::size_t n;
  std::uint64_t seed;
};

class Bnb_matches_exhaustive
    : public ::testing::TestWithParam<Sweep_param> {};

TEST_P(Bnb_matches_exhaustive, Selective) {
  const auto [n, seed] = GetParam();
  const Instance instance = test::selective_instance(n, seed);
  expect_matches_exhaustive(instance, request_for(instance));
}

TEST_P(Bnb_matches_exhaustive, ExpandingServices) {
  const auto [n, seed] = GetParam();
  const Instance instance = test::expanding_instance(n, seed);
  expect_matches_exhaustive(instance, request_for(instance));
}

TEST_P(Bnb_matches_exhaustive, WithSinkTransfers) {
  const auto [n, seed] = GetParam();
  const Instance instance = test::sink_instance(n, seed);
  expect_matches_exhaustive(instance, request_for(instance));
}

TEST_P(Bnb_matches_exhaustive, OverlappedPolicy) {
  const auto [n, seed] = GetParam();
  const Instance instance = test::selective_instance(n, seed);
  expect_matches_exhaustive(instance,
                            request_for(instance, Send_policy::overlapped));
}

TEST_P(Bnb_matches_exhaustive, LooseEpsilonBar) {
  const auto [n, seed] = GetParam();
  const Instance instance = test::selective_instance(n, seed);
  Bnb_options options;
  options.ebar_mode = Epsilon_bar_mode::loose;
  expect_matches_exhaustive(instance, request_for(instance), options);
}

TEST_P(Bnb_matches_exhaustive, ClosureDisabled) {
  const auto [n, seed] = GetParam();
  const Instance instance = test::selective_instance(n, seed);
  Bnb_options options;
  options.enable_closure = false;
  expect_matches_exhaustive(instance, request_for(instance), options);
}

TEST_P(Bnb_matches_exhaustive, BackjumpDisabled) {
  const auto [n, seed] = GetParam();
  const Instance instance = test::selective_instance(n, seed);
  Bnb_options options;
  options.enable_backjump = false;
  expect_matches_exhaustive(instance, request_for(instance), options);
}

TEST_P(Bnb_matches_exhaustive, WarmStart) {
  const auto [n, seed] = GetParam();
  const Instance instance = test::selective_instance(n, seed);
  Bnb_options options;
  options.warm_start = true;
  expect_matches_exhaustive(instance, request_for(instance), options);
}

TEST_P(Bnb_matches_exhaustive, LowerBoundExtension) {
  const auto [n, seed] = GetParam();
  const Instance instance = test::expanding_instance(n, seed);
  Bnb_options options;
  options.enable_lower_bound = true;
  expect_matches_exhaustive(instance, request_for(instance), options);
}

TEST_P(Bnb_matches_exhaustive, ZeroSuboptimalityIsExact) {
  const auto [n, seed] = GetParam();
  const Instance instance = test::selective_instance(n, seed);
  Bnb_options options;
  options.suboptimality = 0.0;
  expect_matches_exhaustive(instance, request_for(instance), options);
}

TEST_P(Bnb_matches_exhaustive, SuboptimalityGuaranteeHolds) {
  const auto [n, seed] = GetParam();
  const Instance instance = test::selective_instance(n, seed);
  opt::Exhaustive_optimizer exhaustive;
  const auto request = request_for(instance);
  const double optimum = exhaustive.optimize(request).cost;
  for (const double delta : {0.05, 0.25, 1.0}) {
    Bnb_options options;
    options.suboptimality = delta;
    Bnb_optimizer bnb(options);
    const auto result = bnb.optimize(request);
    EXPECT_FALSE(result.proven_optimal);
    // The relaxed search must stay within its advertised factor...
    EXPECT_LE(result.cost,
              optimum * (1.0 + delta) * (1.0 + test::cost_tolerance))
        << "delta " << delta;
    // ...and still return a real, feasible plan achieving the cost.
    EXPECT_TRUE(result.plan.is_permutation_of(n));
    EXPECT_TRUE(test::costs_equal(
        result.cost, model::bottleneck_cost(instance, result.plan)));
  }
}

TEST_P(Bnb_matches_exhaustive, WithPrecedence) {
  const auto [n, seed] = GetParam();
  const Instance instance = test::selective_instance(n, seed);
  Rng rng(seed ^ 0xDA6u);
  const auto dag = workload::make_random_dag(n, 0.3, rng);
  Request request = request_for(instance);
  request.precedence = &dag;
  Bnb_optimizer bnb;
  opt::Exhaustive_optimizer exhaustive;
  const auto got = bnb.optimize(request);
  const auto want = exhaustive.optimize(request);
  EXPECT_TRUE(test::costs_equal(got.cost, want.cost));
  EXPECT_TRUE(dag.respects(got.plan.order()));
  EXPECT_TRUE(got.plan.is_permutation_of(n));
}

TEST_P(Bnb_matches_exhaustive, ClusteredTopology) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  workload::Clustered_spec spec;
  spec.n = n;
  const Instance instance = workload::make_clustered(spec, rng);
  expect_matches_exhaustive(instance, request_for(instance));
}

TEST_P(Bnb_matches_exhaustive, BottleneckTspReduction) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  workload::Bottleneck_tsp_spec spec;
  spec.n = n;
  const Instance instance = workload::make_bottleneck_tsp(spec, rng);
  expect_matches_exhaustive(instance, request_for(instance));
}

std::vector<Sweep_param> sweep_params() {
  std::vector<Sweep_param> params;
  for (std::size_t n = 2; n <= 8; ++n) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      params.push_back({n, seed * 7919});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Bnb_matches_exhaustive,
                         ::testing::ValuesIn(sweep_params()),
                         [](const auto& param_info) {
                           return test::numbered(
                               test::numbered("n", param_info.param.n) +
                                   "_seed",
                               param_info.param.seed);
                         });

// ---- spot checks against the subset DP at sizes exhaustive cannot reach -

TEST(Bnb_matches_dp, Size12Selective) {
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    const Instance instance = test::selective_instance(12, seed);
    Bnb_optimizer bnb;
    opt::Dp_optimizer dp;
    const auto request = request_for(instance);
    const auto got = bnb.optimize(request);
    const auto want = dp.optimize(request);
    EXPECT_TRUE(test::costs_equal(got.cost, want.cost)) << "seed " << seed;
  }
}

// Expanding services (sigma > 1) weaken Lemma-1/2 pruning, so the exact
// cross-check stays at n = 10 (n = 13 already takes minutes; see
// EXPERIMENTS.md, E4).
TEST(Bnb_matches_dp, Size10Expanding) {
  const Instance instance = test::expanding_instance(10, 99);
  Bnb_optimizer bnb;
  opt::Dp_optimizer dp;
  const auto request = request_for(instance);
  EXPECT_TRUE(
      test::costs_equal(bnb.optimize(request).cost, dp.optimize(request).cost));
}

TEST(Bnb_matches_dp, Size14BottleneckTsp) {
  Rng rng(4242);
  workload::Bottleneck_tsp_spec spec;
  spec.n = 14;
  const Instance instance = workload::make_bottleneck_tsp(spec, rng);
  Bnb_optimizer bnb;
  opt::Dp_optimizer dp;
  const auto request = request_for(instance);
  EXPECT_TRUE(
      test::costs_equal(bnb.optimize(request).cost, dp.optimize(request).cost));
}

// ---- degenerate shapes --------------------------------------------------

TEST(Bnb_edge_cases, SingleService) {
  const Instance instance({{2.5, 0.5, "only"}},
                          Matrix<double>::square(1, 0.0));
  Bnb_optimizer bnb;
  const auto result = bnb.optimize(request_for(instance));
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.plan.size(), 1u);
  EXPECT_TRUE(test::costs_equal(result.cost, 2.5));
}

TEST(Bnb_edge_cases, TwoServicesPicksCheaperOrder) {
  // a: cost 1, sigma 0.5; b: cost 10, sigma 0.5; t symmetric 1.
  Matrix<double> t = Matrix<double>::square(2, 0.0);
  t(0, 1) = t(1, 0) = 1.0;
  const Instance instance({{1.0, 0.5, "a"}, {10.0, 0.5, "b"}}, std::move(t));
  Bnb_optimizer bnb;
  const auto result = bnb.optimize(request_for(instance));
  // a first: max(1 + 0.5*1, 0.5*10) = 5; b first: max(10.5, 0.5) = 10.5.
  EXPECT_TRUE(test::costs_equal(result.cost, 5.0));
  EXPECT_EQ(result.plan[0], 0u);
}

TEST(Bnb_edge_cases, ZeroCostsAndTransfers) {
  const Instance instance({{0.0, 0.5, "a"}, {0.0, 0.5, "b"}, {0.0, 1.0, "c"}},
                          Matrix<double>::square(3, 0.0));
  Bnb_optimizer bnb;
  const auto result = bnb.optimize(request_for(instance));
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_TRUE(test::costs_equal(result.cost, 0.0));
}

TEST(Bnb_edge_cases, ZeroSelectivityShortCircuitsDownstream) {
  // A sigma = 0 filter kills all downstream flow; optimal plans place the
  // expensive service after it.
  Matrix<double> t = Matrix<double>::square(3, 0.0);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) t(i, j) = 1.0;
    }
  }
  const Instance instance({{1.0, 0.0, "kill"}, {100.0, 0.5, "heavy"},
                           {1.0, 0.5, "light"}},
                          std::move(t));
  Bnb_optimizer bnb;
  opt::Exhaustive_optimizer exhaustive;
  const auto request = request_for(instance);
  const auto got = bnb.optimize(request);
  EXPECT_TRUE(
      test::costs_equal(got.cost, exhaustive.optimize(request).cost));
  // "heavy" must not run before "kill".
  const auto positions = got.plan.positions(3);
  EXPECT_GT(positions[1], positions[0]);
}

TEST(Bnb_edge_cases, TotalOrderPrecedenceLeavesOnePlan) {
  const Instance instance = test::selective_instance(6, 5);
  constraints::Precedence_graph chain(6);
  for (model::Service_id v = 0; v + 1 < 6; ++v) chain.add_edge(v, v + 1);
  Request request = request_for(instance);
  request.precedence = &chain;
  Bnb_optimizer bnb;
  const auto result = bnb.optimize(request);
  EXPECT_EQ(result.plan, model::Plan::identity(6));
  EXPECT_TRUE(test::costs_equal(
      result.cost,
      model::bottleneck_cost(instance, model::Plan::identity(6))));
}

// When the cost model cannot provide sound selectivity *upper* bounds
// (here the attainable-product bounds overflow to infinity), the search
// must fall back to Lemma-2-disabled operation — still exact via
// Lemma 1/3, with the admissible lower bound surviving on the
// always-finite lower bounds.
TEST(Bnb_fallback, UnsoundBoundsDisableClosureButStayExact) {
  const std::size_t n = 6;
  const Instance instance = test::selective_instance(n, 42);
  Matrix<double> gamma = Matrix<double>::square(n, 1.0);
  // Two enormous (finite) interactions onto service 1: any bound over
  // all prefixes multiplies them and overflows, but real plans that keep
  // service 1 early stay finite, so an optimum exists.
  gamma(0, 1) = gamma(1, 0) = 1e200;
  gamma(2, 1) = gamma(1, 2) = 1e200;
  const auto cost_model = model::Cost_model::correlated(
      std::move(gamma), Send_policy::sequential, 0.0, 1e300);
  const auto bounds = cost_model.selectivity_bounds(instance);
  ASSERT_TRUE(bounds.has_value());
  ASSERT_FALSE(bounds->hi_sound);

  Request request;
  request.instance = &instance;
  request.model = cost_model;

  Bnb_options with_everything;
  with_everything.enable_closure = true;
  with_everything.enable_lower_bound = true;
  Bnb_optimizer bnb(with_everything);
  opt::Exhaustive_optimizer exhaustive;
  const auto got = bnb.optimize(request);
  const auto want = exhaustive.optimize(request);
  ASSERT_TRUE(want.proven_optimal);
  EXPECT_TRUE(got.proven_optimal);
  EXPECT_TRUE(test::costs_equal(got.cost, want.cost));
  // The fallback really was taken: no closure could have fired — but
  // the admissible lower bound (finite lo products) stays available.
  EXPECT_EQ(got.stats.lemma2_closures, 0u);
  EXPECT_EQ(got.stats.ebar_evaluations, 0u);
}

// Correlated models flow through the same exactness sweep: bnb (all
// pruning on) against exhaustive ground truth.
TEST_P(Bnb_matches_exhaustive, CorrelatedModel) {
  const auto [n, seed] = GetParam();
  const Instance instance = test::selective_instance(n, seed);
  Request request = request_for(instance);
  request.model =
      model::Cost_model::correlated_seeded(n, 0.7, seed * 3 + 1);
  expect_matches_exhaustive(instance, request);
}

}  // namespace
}  // namespace quest

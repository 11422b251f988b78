// The frontier (best-first subset) search must agree with exhaustive
// search and the DP everywhere, and must expand no more states than the
// DP touches.

#include <gtest/gtest.h>

#include "quest/opt/dp.hpp"
#include "quest/opt/exhaustive.hpp"
#include "quest/opt/frontier.hpp"
#include "quest/workload/generators.hpp"
#include "support/helpers.hpp"

namespace quest {
namespace {

using model::Instance;
using opt::Dp_optimizer;
using opt::Exhaustive_optimizer;
using opt::Frontier_optimizer;
using opt::Request;

struct Param {
  std::size_t n;
  std::uint64_t seed;
};

class Frontier_matches_exact : public ::testing::TestWithParam<Param> {};

TEST_P(Frontier_matches_exact, Selective) {
  const auto [n, seed] = GetParam();
  const Instance instance = test::selective_instance(n, seed);
  Request request;
  request.instance = &instance;
  const auto got = Frontier_optimizer().optimize(request);
  const auto want = Exhaustive_optimizer().optimize(request);
  EXPECT_TRUE(test::costs_equal(got.cost, want.cost));
  EXPECT_TRUE(got.proven_optimal);
  EXPECT_TRUE(got.plan.is_permutation_of(n));
  EXPECT_TRUE(test::costs_equal(
      got.cost, model::bottleneck_cost(instance, got.plan)));
}

TEST_P(Frontier_matches_exact, ExpandingWithSink) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  workload::Uniform_spec spec;
  spec.n = n;
  spec.selectivity_min = 0.3;
  spec.selectivity_max = 2.5;
  spec.sink_min = 0.1;
  spec.sink_max = 3.0;
  const Instance instance = workload::make_uniform(spec, rng);
  Request request;
  request.instance = &instance;
  const auto got = Frontier_optimizer().optimize(request);
  const auto want = Exhaustive_optimizer().optimize(request);
  EXPECT_TRUE(test::costs_equal(got.cost, want.cost));
}

TEST_P(Frontier_matches_exact, Overlapped) {
  const auto [n, seed] = GetParam();
  const Instance instance = test::selective_instance(n, seed);
  Request request;
  request.instance = &instance;
  request.model =
      model::Cost_model::independent(model::Send_policy::overlapped);
  const auto got = Frontier_optimizer().optimize(request);
  const auto want = Exhaustive_optimizer().optimize(request);
  EXPECT_TRUE(test::costs_equal(got.cost, want.cost));
}

TEST_P(Frontier_matches_exact, WithPrecedence) {
  const auto [n, seed] = GetParam();
  const Instance instance = test::selective_instance(n, seed);
  Rng rng(seed ^ 0xF00Du);
  const auto dag = workload::make_random_dag(n, 0.35, rng);
  Request request;
  request.instance = &instance;
  request.precedence = &dag;
  const auto got = Frontier_optimizer().optimize(request);
  const auto want = Exhaustive_optimizer().optimize(request);
  EXPECT_TRUE(test::costs_equal(got.cost, want.cost));
  EXPECT_TRUE(dag.respects(got.plan.order()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Frontier_matches_exact,
    ::testing::Values(Param{1, 1}, Param{2, 2}, Param{3, 3}, Param{4, 4},
                      Param{5, 5}, Param{6, 6}, Param{7, 7}, Param{8, 8}),
    [](const auto& param_info) {
      return test::numbered(test::numbered("n", param_info.param.n) + "_seed",
                            param_info.param.seed);
    });

TEST(Frontier_test, MatchesDpAtLargerSizes) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Instance instance = test::selective_instance(13, seed * 101);
    Request request;
    request.instance = &instance;
    const auto got = Frontier_optimizer().optimize(request);
    const auto want = Dp_optimizer().optimize(request);
    EXPECT_TRUE(test::costs_equal(got.cost, want.cost)) << "seed " << seed;
  }
}

TEST(Frontier_test, ExpandsFewerStatesThanTheDpSweeps) {
  const Instance instance = test::selective_instance(14, 4);
  Request request;
  request.instance = &instance;
  const auto frontier = Frontier_optimizer().optimize(request);
  const auto dp = Dp_optimizer().optimize(request);
  // The DP's nodes counter tallies swept reachable states; best-first
  // should close the goal long before touching all of them on selective
  // instances.
  EXPECT_LT(frontier.stats.nodes_expanded, dp.stats.nodes_expanded / 2);
}

TEST(Frontier_test, NodeLimitAborts) {
  const Instance instance = test::selective_instance(12, 9);
  Request request;
  request.instance = &instance;
  request.budget.node_limit = 3;
  const auto result = Frontier_optimizer().optimize(request);
  EXPECT_EQ(result.termination, opt::Termination::budget_exhausted);
  EXPECT_FALSE(result.proven_optimal);
}

TEST(Frontier_test, RejectsOversizedInstances) {
  const Instance instance = test::selective_instance(
      Frontier_optimizer::max_services + 1, 1);
  Request request;
  request.instance = &instance;
  EXPECT_THROW(Frontier_optimizer().optimize(request), Precondition_error);
}

}  // namespace
}  // namespace quest

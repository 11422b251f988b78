// The subset DP must agree with exhaustive search everywhere it runs.

#include <gtest/gtest.h>

#include "quest/opt/dp.hpp"
#include "quest/opt/exhaustive.hpp"
#include "quest/workload/generators.hpp"
#include "support/helpers.hpp"

namespace quest {
namespace {

using model::Instance;
using model::Send_policy;
using opt::Dp_optimizer;
using opt::Exhaustive_optimizer;
using opt::Request;

struct Param {
  std::size_t n;
  std::uint64_t seed;
};

class Dp_matches_exhaustive : public ::testing::TestWithParam<Param> {};

TEST_P(Dp_matches_exhaustive, Selective) {
  const auto [n, seed] = GetParam();
  const Instance instance = test::selective_instance(n, seed);
  Request request;
  request.instance = &instance;
  Dp_optimizer dp;
  Exhaustive_optimizer exhaustive;
  const auto got = dp.optimize(request);
  const auto want = exhaustive.optimize(request);
  EXPECT_TRUE(test::costs_equal(got.cost, want.cost));
  EXPECT_TRUE(got.proven_optimal);
  EXPECT_TRUE(got.plan.is_permutation_of(n));
  EXPECT_TRUE(test::costs_equal(
      got.cost, model::bottleneck_cost(instance, got.plan)));
}

TEST_P(Dp_matches_exhaustive, ExpandingWithSink) {
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
  const auto got = Dp_optimizer().optimize(request);
  const auto want = Exhaustive_optimizer().optimize(request);
  EXPECT_TRUE(test::costs_equal(got.cost, want.cost));
}

TEST_P(Dp_matches_exhaustive, Overlapped) {
  const auto [n, seed] = GetParam();
  const Instance instance = test::selective_instance(n, seed);
  Request request;
  request.instance = &instance;
  request.model = model::Cost_model::independent(Send_policy::overlapped);
  const auto got = Dp_optimizer().optimize(request);
  const auto want = Exhaustive_optimizer().optimize(request);
  EXPECT_TRUE(test::costs_equal(got.cost, want.cost));
}

TEST_P(Dp_matches_exhaustive, WithPrecedence) {
  const auto [n, seed] = GetParam();
  const Instance instance = test::selective_instance(n, seed);
  Rng rng(seed ^ 0xBEEF);
  const auto dag = workload::make_random_dag(n, 0.35, rng);
  Request request;
  request.instance = &instance;
  request.precedence = &dag;
  const auto got = Dp_optimizer().optimize(request);
  const auto want = Exhaustive_optimizer().optimize(request);
  EXPECT_TRUE(test::costs_equal(got.cost, want.cost));
  EXPECT_TRUE(dag.respects(got.plan.order()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Dp_matches_exhaustive,
    ::testing::Values(Param{2, 1}, Param{3, 2}, Param{4, 3}, Param{5, 4},
                      Param{6, 5}, Param{7, 6}, Param{8, 7}, Param{8, 8}),
    [](const auto& param_info) {
      return test::numbered(test::numbered("n", param_info.param.n) + "_seed",
                            param_info.param.seed);
    });

TEST(Dp_test, RejectsOversizedInstances) {
  const Instance instance = test::selective_instance(
      Dp_optimizer::max_services + 1, 1);
  Request request;
  request.instance = &instance;
  EXPECT_THROW(Dp_optimizer().optimize(request), Precondition_error);
}

TEST(Dp_test, SingleService) {
  const Instance instance = test::selective_instance(1, 1);
  Request request;
  request.instance = &instance;
  const auto result = Dp_optimizer().optimize(request);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.plan.size(), 1u);
}

}  // namespace
}  // namespace quest

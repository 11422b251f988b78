// Property tests for the epsilon-bar measure: it must upper-bound every
// stage term any completion of a partial plan can still produce (this is
// exactly what Lemma 2's soundness needs), and its early-exit test
// closes() must answer exactly what comparing epsilon with evaluate()
// answers.

#include <gtest/gtest.h>

#include <vector>

#include "quest/core/measures.hpp"
#include "quest/model/cost.hpp"
#include "support/generators.hpp"
#include "support/helpers.hpp"
#include "support/property.hpp"

namespace quest {
namespace {

using core::Epsilon_bar;
using core::Epsilon_bar_mode;
using model::Instance;
using model::Partial_plan_evaluator;
using model::Plan;
using model::Send_policy;
using model::Service_id;

struct Param {
  std::uint64_t seed;
  Send_policy policy;
  bool expanding;
  /// Run the property under a correlated cost model too: the measures
  /// must stay sound for any structure with sound selectivity bounds.
  bool correlated = false;
};

model::Cost_model make_model(const Param& param, std::size_t n) {
  return param.correlated
             ? model::Cost_model::correlated_seeded(n, 0.6,
                                                    param.seed * 11 + 3,
                                                    param.policy)
             : model::Cost_model::independent(param.policy);
}

/// The remaining-set mask the measures take, over n services.
Member_mask mask_of(std::size_t n, const std::vector<Service_id>& ids) {
  Member_mask mask(n);
  for (const Service_id id : ids) mask.set(id);
  return mask;
}

class Epsilon_bar_property : public ::testing::TestWithParam<Param> {};

/// For a random prefix of a random full ordering, every stage term of the
/// completed plan that was not already determined by the prefix must be
/// <= epsilon-bar.
TEST_P(Epsilon_bar_property, BoundsEveryUndeterminedTerm) {
  const auto param = GetParam();
  const std::size_t n = 9;
  const Instance instance =
      param.expanding ? test::expanding_instance(n, param.seed)
                      : test::sink_instance(n, param.seed);
  const model::Cost_model cost_model = make_model(param, n);
  Rng rng(param.seed * 31 + 7);

  for (int trial = 0; trial < 40; ++trial) {
    const auto order = rng.permutation(n);
    const std::size_t prefix_len =
        2 + static_cast<std::size_t>(rng.uniform_int(n - 2));  // [2, n-1]

    Partial_plan_evaluator eval(instance, cost_model);
    for (std::size_t p = 0; p < prefix_len; ++p) {
      eval.append(static_cast<Service_id>(order[p]));
    }
    std::vector<Service_id> remaining;
    for (std::size_t p = prefix_len; p < n; ++p) {
      remaining.push_back(static_cast<Service_id>(order[p]));
    }

    for (const auto mode :
         {Epsilon_bar_mode::exact, Epsilon_bar_mode::loose}) {
      const Epsilon_bar ebar(instance, cost_model, mode);
      const double bound = ebar.evaluate(eval, mask_of(n, remaining));

      // Complete the plan in the sampled order and compare each stage term
      // from position prefix_len-1 (the dangling term) onwards.
      Plan full;
      for (const std::size_t id : order) {
        full.append(static_cast<Service_id>(id));
      }
      const auto breakdown =
          model::cost_breakdown(instance, full, cost_model);
      for (std::size_t p = prefix_len - 1; p < n; ++p) {
        EXPECT_LE(breakdown.stage_costs[p],
                  bound * (1.0 + test::cost_tolerance) + 1e-12)
            << "mode " << static_cast<int>(mode) << " position " << p
            << " trial " << trial;
      }
    }
  }
}

/// exact is never looser than loose.
TEST_P(Epsilon_bar_property, ExactAtMostLoose) {
  const auto param = GetParam();
  const std::size_t n = 8;
  const Instance instance =
      param.expanding ? test::expanding_instance(n, param.seed)
                      : test::selective_instance(n, param.seed);
  const model::Cost_model cost_model = make_model(param, n);
  Rng rng(param.seed);
  const Epsilon_bar exact(instance, cost_model, Epsilon_bar_mode::exact);
  const Epsilon_bar loose(instance, cost_model, Epsilon_bar_mode::loose);

  for (int trial = 0; trial < 25; ++trial) {
    const auto order = rng.permutation(n);
    const std::size_t prefix_len =
        2 + static_cast<std::size_t>(rng.uniform_int(n - 2));
    Partial_plan_evaluator eval(instance, cost_model);
    for (std::size_t p = 0; p < prefix_len; ++p) {
      eval.append(static_cast<Service_id>(order[p]));
    }
    std::vector<Service_id> remaining;
    for (std::size_t p = prefix_len; p < n; ++p) {
      remaining.push_back(static_cast<Service_id>(order[p]));
    }
    const Member_mask mask = mask_of(n, remaining);
    EXPECT_LE(exact.evaluate(eval, mask),
              loose.evaluate(eval, mask) * (1.0 + 1e-12));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Epsilon_bar_property,
    ::testing::Values(Param{3, Send_policy::sequential, false},
                      Param{4, Send_policy::sequential, true},
                      Param{5, Send_policy::overlapped, false},
                      Param{6, Send_policy::overlapped, true},
                      Param{7, Send_policy::sequential, false},
                      Param{8, Send_policy::sequential, true},
                      Param{9, Send_policy::sequential, false, true},
                      Param{10, Send_policy::sequential, true, true},
                      Param{11, Send_policy::overlapped, false, true},
                      Param{12, Send_policy::overlapped, true, true}),
    [](const auto& param_info) {
      return "seed" + std::to_string(param_info.param.seed) +
             (param_info.param.policy == Send_policy::overlapped ? "_ovl"
                                                                 : "_seq") +
             (param_info.param.expanding ? "_exp" : "_sel") +
             (param_info.param.correlated ? "_corr" : "");
    });

/// Admissibility of the quest-extension lower bound: no completion of the
/// partial plan may cost less than the bound.
TEST_P(Epsilon_bar_property, LowerBoundIsAdmissible) {
  const auto param = GetParam();
  const std::size_t n = 9;
  const Instance instance =
      param.expanding ? test::expanding_instance(n, param.seed)
                      : test::sink_instance(n, param.seed);
  const model::Cost_model cost_model = make_model(param, n);
  const core::Lower_bound lower(instance, cost_model);
  Rng rng(param.seed * 53 + 1);

  for (int trial = 0; trial < 40; ++trial) {
    const auto order = rng.permutation(n);
    const std::size_t prefix_len =
        2 + static_cast<std::size_t>(rng.uniform_int(n - 2));
    Partial_plan_evaluator eval(instance, cost_model);
    for (std::size_t p = 0; p < prefix_len; ++p) {
      eval.append(static_cast<Service_id>(order[p]));
    }
    std::vector<Service_id> remaining;
    for (std::size_t p = prefix_len; p < n; ++p) {
      remaining.push_back(static_cast<Service_id>(order[p]));
    }
    const Member_mask mask = mask_of(n, remaining);
    const double bound = lower.evaluate(eval, mask);

    Plan full;
    for (const std::size_t id : order) {
      full.append(static_cast<Service_id>(id));
    }
    const double cost =
        model::bottleneck_cost(instance, full, cost_model);
    EXPECT_GE(cost, bound * (1.0 - test::cost_tolerance) - 1e-12)
        << "trial " << trial;
    // The lower bound never exceeds the upper bound.
    const Epsilon_bar ebar(instance, cost_model, Epsilon_bar_mode::exact);
    EXPECT_LE(bound, ebar.evaluate(eval, mask) * (1.0 + 1e-12));
  }
}

TEST(Epsilon_bar_test, RequiresNonEmptyPlanAndRemaining) {
  const Instance instance = test::selective_instance(4, 1);
  const Epsilon_bar ebar(instance, model::Cost_model{},
                         Epsilon_bar_mode::exact);
  Partial_plan_evaluator eval(instance);
  const Member_mask remaining = mask_of(4, {2, 3});
  EXPECT_THROW(ebar.evaluate(eval, remaining), Precondition_error);
  EXPECT_THROW(ebar.closes(eval, remaining), Precondition_error);
  eval.append(0);
  EXPECT_THROW(ebar.evaluate(eval, Member_mask(4)), Precondition_error);
  EXPECT_THROW(ebar.closes(eval, Member_mask(4)), Precondition_error);
}

/// A random instance (sigma > 1 services in half the cases, result links
/// in a quarter), cost model and partial plan for the closes() law.
struct Closure_case {
  Instance instance;
  model::Cost_model model;
  std::vector<Service_id> order;
  std::size_t prefix_len = 1;
};

Closure_case gen_closure_case(Rng& rng) {
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 12));
  const double sigma_hi = rng.bernoulli(0.5) ? 3.0 : 0.95;
  Closure_case c{rng.bernoulli(0.25) ? test::sink_instance(n, rng())
                                     : test::gen_instance(rng, n, 0.05,
                                                          sigma_hi),
                 model::Cost_model::independent(test::gen_policy(rng)),
                 {},
                 1};
  if (rng.bernoulli(0.5)) c.model = test::gen_correlated_spec(rng).bind(n);
  c.order = test::gen_plan(rng, n).order();
  // Deep prefixes are where Lemma 2 fires; keep both outcomes common.
  c.prefix_len = rng.bernoulli(0.5)
                     ? n - 1
                     : 1 + static_cast<std::size_t>(rng.uniform_int(n - 1));
  return c;
}

TEST(Epsilon_bar_test, ClosesAgreesWithEvaluate) {
  std::size_t closed = 0;
  std::size_t open = 0;
  test::check_property<Closure_case>(
      "closes(eval, R) == (epsilon >= evaluate(eval, R))",
      test::Property_config{}, gen_closure_case,
      [&](const Closure_case& c) -> ::testing::AssertionResult {
        const std::size_t n = c.instance.size();
        const auto bounds = c.model.selectivity_bounds(c.instance);
        if (!bounds.has_value() || !bounds->hi_sound) {
          return ::testing::AssertionSuccess();
        }
        Partial_plan_evaluator eval(c.instance, c.model);
        Member_mask remaining = Member_mask(n).complement(n);
        for (std::size_t p = 0; p < c.prefix_len; ++p) {
          eval.append(c.order[p]);
          remaining.reset(c.order[p]);
        }
        for (const auto mode :
             {Epsilon_bar_mode::exact, Epsilon_bar_mode::loose}) {
          const Epsilon_bar ebar(c.instance, c.model, mode);
          const double bound = ebar.evaluate(eval, remaining);
          const bool closes = ebar.closes(eval, remaining);
          (closes ? closed : open) += 1;
          if (closes != (eval.epsilon() >= bound)) {
            return QUEST_PROP(false)
                   << "n=" << n << " prefix=" << c.prefix_len << " mode "
                   << static_cast<int>(mode) << ": epsilon "
                   << eval.epsilon() << ", evaluate " << bound
                   << ", closes " << closes;
          }
        }
        return ::testing::AssertionSuccess();
      });
  // The law must be exercised on both sides.
  EXPECT_GT(closed, 20u);
  EXPECT_GT(open, 20u);
}

}  // namespace
}  // namespace quest

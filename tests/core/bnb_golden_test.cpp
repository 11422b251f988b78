// Golden identity of the branch-and-bound kernel: a seeded corpus run
// through bnb, bnb-lb, bnb:ebar=loose and bnb:closure=false must return
// the recorded plan, cost bits, termination and every Search_stats
// counter. The kernel's data structures (successor table, masks, the
// early-exit closure test) are free to change; what they compute is not.
//
// The corpus covers the paths a change to the kernel can break:
//  * bottleneck-TSP n=8..13 under the independent model and
//    correlated:strength=0.5 (the serving benchmark's search workload);
//  * uniform instances with precedence chains (feasibility filtering);
//  * instances with sigma > 1 services (the amplification path);
//  * n=70 instances under a node budget (multi-word masks).
//
// bnb-par with 2 and 4 workers is compared on the unbudgeted cases only,
// and only on plan, cost bits and proven_optimal: under a node budget its
// result depends on worker interleaving.
//
// The table (QUEST_BNB_GOLDEN, baked in by CMake) was recorded by this
// test. On a mismatch the test writes the full actual table to
// bnb_golden.actual.txt in its working directory; a deliberate change of
// search behaviour re-records by copying that file over the table.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "quest/common/rng.hpp"
#include "quest/constraints/precedence.hpp"
#include "quest/core/engines.hpp"
#include "quest/io/json.hpp"
#include "quest/model/cost_model.hpp"
#include "quest/workload/generators.hpp"
#include "support/helpers.hpp"

#ifndef QUEST_BNB_GOLDEN
#error "QUEST_BNB_GOLDEN must point at tests/core/bnb_golden.txt"
#endif

namespace quest {
namespace {

struct Golden_case {
  std::string name;
  model::Instance instance;
  model::Cost_model model;
  std::unique_ptr<constraints::Precedence_graph> precedence;
  std::uint64_t node_limit = 0;
};

model::Instance btsp(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  workload::Bottleneck_tsp_spec spec;
  spec.n = n;
  return workload::make_bottleneck_tsp(spec, rng);
}

/// Two disjoint chains over a random relabeling of the services.
std::unique_ptr<constraints::Precedence_graph> chains(std::size_t n,
                                                      std::uint64_t seed) {
  Rng rng(seed);
  const auto order = rng.permutation(n);
  auto graph = std::make_unique<constraints::Precedence_graph>(n);
  for (std::size_t i = 0; i + 1 < 4; ++i) {
    graph->add_edge(static_cast<model::Service_id>(order[i]),
                    static_cast<model::Service_id>(order[i + 1]));
  }
  for (std::size_t i = 4; i + 1 < 7; ++i) {
    graph->add_edge(static_cast<model::Service_id>(order[i]),
                    static_cast<model::Service_id>(order[i + 1]));
  }
  return graph;
}

std::vector<Golden_case> corpus() {
  std::vector<Golden_case> cases;
  auto add = [&](std::string name, model::Instance instance,
                 model::Cost_model cost_model, std::uint64_t node_limit,
                 std::unique_ptr<constraints::Precedence_graph> precedence =
                     nullptr) {
    cases.push_back({std::move(name), std::move(instance),
                     std::move(cost_model), std::move(precedence),
                     node_limit});
  };
  for (std::size_t n = 8; n <= 13; ++n) {
    // The serving workload's budget on the larger sizes, whose search
    // effort is heavy-tailed; the smaller ones run to a proof.
    const std::uint64_t limit = n >= 12 ? 20000 : 0;
    const std::uint64_t seeds = n >= 12 ? 8 : 3;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      const std::string stem =
          "btsp" + std::to_string(n) + "-s" + std::to_string(seed);
      add(stem + "-ind", btsp(n, seed * 100 + n), model::Cost_model{},
          limit);
      add(stem + "-corr", btsp(n, seed * 100 + n),
          model::Cost_model::correlated_seeded(n, 0.5, seed * 7 + n), limit);
    }
  }
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    add("chain10-s" + std::to_string(seed),
        test::selective_instance(10, seed + 40), model::Cost_model{}, 0,
        chains(10, seed));
  }
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    add("expand9-s" + std::to_string(seed),
        test::expanding_instance(9, seed + 60), model::Cost_model{}, 0);
    add("expand9-s" + std::to_string(seed) + "-corr",
        test::expanding_instance(9, seed + 60),
        model::Cost_model::correlated_seeded(9, 0.5, seed + 3), 0);
  }
  // Past 64 services: a selective instance (closes early), a
  // bottleneck-TSP instance that runs into its budget, and two whose
  // bounds depend on the services past the first mask word (sigma > 1,
  // and a correlated model).
  add("wide70", test::selective_instance(70, 70), model::Cost_model{},
      30000);
  add("wide70-btsp", btsp(70, 70), model::Cost_model{}, 30000);
  add("wide70-exp", test::expanding_instance(70, 72), model::Cost_model{},
      30000);
  add("wide70-corr", test::selective_instance(70, 73),
      model::Cost_model::correlated_seeded(70, 0.5, 74), 30000);
  return cases;
}

std::string plan_text(const model::Plan& plan) {
  std::string text;
  for (const model::Service_id id : plan.order()) {
    if (!text.empty()) text += '.';
    text += std::to_string(id);
  }
  return text.empty() ? "-" : text;
}

std::string cost_bits(double cost) {
  std::ostringstream out;
  out << std::hex << std::bit_cast<std::uint64_t>(cost);
  return out.str();
}

opt::Result run(const Golden_case& golden, const std::string& engine) {
  opt::Request request;
  request.instance = &golden.instance;
  request.model = golden.model;
  request.precedence = golden.precedence.get();
  request.budget.node_limit = golden.node_limit;
  return core::make_optimizer(engine)->optimize(request);
}

/// One table row: everything a sequential engine's run is pinned to.
std::string sequential_row(const Golden_case& golden,
                           const std::string& engine) {
  const opt::Result result = run(golden, engine);
  const opt::Search_stats& s = result.stats;
  std::ostringstream row;
  row << golden.name << ' ' << engine << ' '
      << opt::to_string(result.termination) << ' ' << result.proven_optimal
      << ' ' << cost_bits(result.cost) << ' ' << plan_text(result.plan)
      << " nodes=" << s.nodes_expanded << " complete=" << s.complete_plans
      << " incumbent=" << s.incumbent_updates
      << " l1cut=" << s.lemma1_cutoffs
      << " l1skip=" << s.lemma1_children_skipped
      << " l2=" << s.lemma2_closures << " l3jump=" << s.lemma3_backjumps
      << " l3skip=" << s.lemma3_siblings_skipped
      << " pairs=" << s.pairs_explored << '/' << s.pairs_total
      << " ebar=" << s.ebar_evaluations << " lb=" << s.lower_bound_prunes
      << " threads=" << s.engine_threads;
  return row.str();
}

/// The parallel engine's deterministic surface on a completed run.
std::string parallel_row(const Golden_case& golden,
                         const std::string& engine) {
  const opt::Result result = run(golden, engine);
  std::ostringstream row;
  row << golden.name << ' ' << engine << ' ' << result.proven_optimal << ' '
      << cost_bits(result.cost) << ' ' << plan_text(result.plan);
  return row.str();
}

std::vector<std::string> actual_table() {
  std::vector<std::string> rows;
  for (const Golden_case& golden : corpus()) {
    for (const char* engine :
         {"bnb", "bnb-lb", "bnb:ebar=loose", "bnb:closure=false"}) {
      rows.push_back(sequential_row(golden, engine));
    }
    if (golden.node_limit != 0) continue;
    for (const char* engine : {"bnb-par:threads=2", "bnb-par:threads=4"}) {
      rows.push_back(parallel_row(golden, engine));
    }
  }
  return rows;
}

std::vector<std::string> golden_table() {
  std::vector<std::string> rows;
  std::istringstream in(io::read_file(QUEST_BNB_GOLDEN));
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.front() != '#') rows.push_back(line);
  }
  return rows;
}

TEST(Bnb_golden_test, KernelReproducesRecordedSearches) {
  const std::vector<std::string> actual = actual_table();
  const std::vector<std::string> expected = golden_table();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < std::max(actual.size(), expected.size());
       ++i) {
    const std::string& got = i < actual.size() ? actual[i] : std::string();
    const std::string& want =
        i < expected.size() ? expected[i] : std::string();
    if (got == want) continue;
    if (++mismatches <= 10) {
      ADD_FAILURE() << "row " << i << "\n  expected: " << want
                    << "\n  actual:   " << got;
    }
  }
  if (mismatches != 0) {
    std::ofstream out("bnb_golden.actual.txt");
    for (const std::string& row : actual) out << row << '\n';
    FAIL() << mismatches << " row(s) differ; the actual table is in "
           << "bnb_golden.actual.txt";
  }
}

}  // namespace
}  // namespace quest

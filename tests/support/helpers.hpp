// tests/support/helpers.hpp
//
// Shared helpers for the quest test suite: random-instance shorthands and
// tolerant floating-point comparison of optimizer costs.

#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "quest/common/rng.hpp"
#include "quest/model/instance.hpp"
#include "quest/workload/generators.hpp"

namespace quest::test {

/// Relative tolerance for comparing two computations of the same cost that
/// may associate floating-point operations differently.
inline constexpr double cost_tolerance = 1e-9;

inline ::testing::AssertionResult costs_equal(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  if (std::fabs(a - b) <= cost_tolerance * scale) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " vs " << b << " differ by " << std::fabs(a - b);
}

/// `prefix` followed by `number` in decimal: numbered("r", 3) is "r3".
/// It appends, because the inlined insert behind `"r" + std::to_string(3)`
/// draws a false -Wrestrict from GCC 12 in optimized builds.
template <typename Number>
std::string numbered(std::string prefix, Number number) {
  prefix += std::to_string(number);
  return prefix;
}

/// Uniform random instance with selectivities in (0, 1] — the paper's
/// restricted setting.
inline model::Instance selective_instance(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  workload::Uniform_spec spec;
  spec.n = n;
  return workload::make_uniform(spec, rng);
}

/// Instance that mixes filters and expanding services (sigma up to 3).
inline model::Instance expanding_instance(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  workload::Uniform_spec spec;
  spec.n = n;
  spec.selectivity_min = 0.2;
  spec.selectivity_max = 3.0;
  return workload::make_uniform(spec, rng);
}

/// Instance with non-zero result links back to the query originator.
inline model::Instance sink_instance(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  workload::Uniform_spec spec;
  spec.n = n;
  spec.sink_min = 0.1;
  spec.sink_max = 4.0;
  return workload::make_uniform(spec, rng);
}

}  // namespace quest::test

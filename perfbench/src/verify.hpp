// perfbench/src/verify.hpp
//
// The correctness gate. Every answered optimize must be a complete plan
// that is a permutation of its instance; its reported cost must be
// re-achieved by the library's Eq. 1 evaluator under the request's cost
// model; a proven-optimal cost must equal the exact subset DP's
// ("dp"), computed after the timed window; and a cached answer must
// equal a fresh answer for the same (instance version, model, seed) key.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "client.hpp"
#include "workload.hpp"

namespace perfbench {

struct Gate_report {
  std::size_t checked = 0;
  std::size_t violations = 0;
  std::size_t references = 0;
  /// The first few violations, for the report.
  std::vector<std::string> examples;
};

/// Checks every record with status ok. With `corrupt`, the first answer
/// is deliberately altered before checking (the gate's own test: it must
/// report a violation).
Gate_report verify(const Workload& workload, std::vector<Record>& records,
                   bool corrupt);

/// True when two costs agree to within floating-point noise.
bool same_cost(double a, double b);

}  // namespace perfbench

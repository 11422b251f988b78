// perfbench/src/runs.hpp
//
// The two kinds of run the benchmark command makes:
//
//  * run_serving — untraced, end to end: spawn the fleet (several times,
//    for set-up time), register the workload's instance set, drive it
//    over loopback TCP for the timed window, check every answer, and
//    summarize what a client sees.
//  * run_traced — the per-layer breakdown: the same generated requests
//    replayed in-process through each layer's public functions, with
//    spans recorded around every call (in memory, written at exit).

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fleet.hpp"
#include "quest/io/json.hpp"
#include "workload.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Run_options {
  double seconds = 10.0;
  bool tiny = false;
  /// Alter one answer before the gate runs (the gate's own test).
  bool corrupt = false;
  /// Fleet spawns measured for setup_s; the last one carries the load.
  std::size_t setups = 15;
  /// Measure the load generator's ceiling against the echo endpoint.
  bool self_check = true;
  /// Where run_traced writes its spans.
  std::string trace_path;
};

struct Run_result {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Correctness-gate violations (a subset of `failed`).
  std::size_t violations = 0;
  /// Everything else worth printing: sample counts, validity checks,
  /// gate examples, server counters.
  quest::io::Json report;
};

Run_result run_serving(Workload& workload, const Binaries& binaries,
                       const Run_options& options);

Run_result run_traced(Workload& workload, const Binaries& binaries,
                      const Run_options& options);

}  // namespace perfbench

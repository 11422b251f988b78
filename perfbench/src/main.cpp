// questbench — the serving benchmark's driver binary (run.py builds and
// invokes it; see README.md).
//
//   questbench --workload admit-small --seed 1 --seconds 10 --trace 0
//              --serve PATH --router PATH [--tiny] [--corrupt]
//              [--trace-out FILE]
//
// Prints one JSON object as its last stdout line:
//   {"report": {...details...}, "result": {"correct":...,"attempted":...,
//    "failed":...,"metrics":{name:{"value":...,"unit":...}}}}
// Exits 1 when the correctness gate found a violation, 2 on bad
// arguments, 3 when a run could not be carried out.

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "runs.hpp"
#include "workload.hpp"

namespace {

using quest::io::Json;

struct Arguments {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt = false;
  std::string trace_out;
  perfbench::Binaries binaries;
};

Arguments parse(int argc, char** argv) {
  Arguments arguments;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      arguments.workload = value();
    } else if (flag == "--seed") {
      arguments.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      arguments.seconds = std::stod(value());
    } else if (flag == "--trace") {
      arguments.trace = value() == "1";
    } else if (flag == "--serve") {
      arguments.binaries.serve = value();
    } else if (flag == "--router") {
      arguments.binaries.router = value();
    } else if (flag == "--trace-out") {
      arguments.trace_out = value();
    } else if (flag == "--tiny") {
      arguments.tiny = true;
    } else if (flag == "--corrupt") {
      arguments.corrupt = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (arguments.workload.empty() || arguments.binaries.serve.empty() ||
      arguments.binaries.router.empty() || !(arguments.seconds > 0)) {
    throw std::invalid_argument(
        "needs --workload, --serve, --router and a positive --seconds");
  }
  return arguments;
}

}  // namespace

int main(int argc, char** argv) {
  Arguments arguments;
  perfbench::Workload workload;
  try {
    arguments = parse(argc, argv);
    workload = perfbench::make_workload(arguments.workload, arguments.seed,
                                        arguments.tiny);
  } catch (const std::exception& error) {
    std::cerr << "questbench: " << error.what() << '\n';
    return 2;
  }
  perfbench::Run_options options;
  options.seconds = arguments.seconds;
  options.tiny = arguments.tiny;
  options.corrupt = arguments.corrupt;
  options.trace_path = arguments.trace_out;
  perfbench::Run_result run;
  try {
    run = arguments.trace
              ? perfbench::run_traced(workload, arguments.binaries, options)
              : perfbench::run_serving(workload, arguments.binaries, options);
  } catch (const std::exception& error) {
    std::cerr << "questbench: run failed: " << error.what() << '\n';
    return 3;
  }

  Json metrics;
  for (const perfbench::Metric& metric : run.metrics) {
    Json entry;
    entry.set("value", Json(metric.value));
    entry.set("unit", Json(metric.unit));
    metrics.set(metric.name, std::move(entry));
  }
  Json result;
  result.set("correct", Json(run.violations == 0));
  result.set("attempted", Json(run.attempted));
  result.set("failed", Json(run.failed));
  result.set("metrics", std::move(metrics));
  Json report = std::move(run.report);
  report.set("workload", Json(arguments.workload));
  report.set("seed", Json(static_cast<double>(arguments.seed)));
  report.set("seconds", Json(arguments.seconds));
  report.set("trace", Json(arguments.trace));
  report.set("build_type", Json(PERFBENCH_BUILD_TYPE));
#ifdef NDEBUG
  report.set("assertions", Json(false));
#else
  report.set("assertions", Json(true));
#endif
  Json out;
  out.set("report", std::move(report));
  out.set("result", std::move(result));
  std::cout << out.dump() << std::endl;
  return run.violations == 0 ? 0 : 1;
}

// The untraced end-to-end run (see runs.hpp).

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "client.hpp"
#include "runs.hpp"
#include "stats.hpp"
#include "verify.hpp"

namespace perfbench {

namespace {

using quest::io::Json;

/// Registers version 0 of every slot over up to four connections and
/// waits for every "registered" ack. The lines are rendered beforehand,
/// so only the server's work (and the loopback) is inside the timing.
void register_all(const std::vector<std::string>& lines, int port) {
  const std::size_t count = std::min<std::size_t>(4, lines.size());
  std::vector<std::unique_ptr<Line_socket>> sockets;
  std::vector<std::string> batches(count);
  std::vector<std::size_t> expected(count, 0);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    batches[i % count] += lines[i];
    ++expected[i % count];
  }
  for (std::size_t c = 0; c < count; ++c) {
    sockets.push_back(std::make_unique<Line_socket>(port));
    batches[c].pop_back();  // send_line frames the last line itself
    sockets.back()->send_line(batches[c]);
  }
  for (std::size_t c = 0; c < count; ++c) {
    for (std::size_t acked = 0; acked < expected[c];) {
      const std::string line = sockets[c]->read_line();
      if (line.find("\"event\":\"registered\"") != std::string::npos) {
        ++acked;
      } else {
        throw std::runtime_error("register failed: " + line);
      }
    }
  }
}

/// The server's own counters: a "stats" event, parsed.
Json server_stats(int port) {
  Line_socket socket(port);
  socket.send_line("{\"op\":\"stats\"}");
  for (;;) {
    const std::string line = socket.read_line();
    if (line.find("\"event\":\"stats\"") != std::string::npos) {
      return Json::parse(line);
    }
  }
}

/// Drives the echo endpoint with the same client and returns the
/// results per second it sustained: the generator's own ceiling.
double echo_ceiling(const Workload& workload, bool tiny) {
  Workload echo = make_workload("admit-small", workload.seed, tiny);
  Op_stream stream(echo);
  Echo_endpoint endpoint;
  Load_config config;
  config.connections = workload.connections;
  config.window = workload.window;
  config.warmup_s = 0.1;
  config.measure_s = tiny ? 0.2 : 0.5;
  config.slices = 1;
  const Load_result load = run_load(endpoint.port(), echo, &stream, config,
                                    [] { return Proc_usage{}; });
  std::size_t answered = 0;
  for (const Record& record : load.records) {
    if (record.status == Status::ok && record.done >= load.edges.front() &&
        record.done < load.edges.back()) {
      ++answered;
    }
  }
  return static_cast<double>(answered) /
         (load.edges.back() - load.edges.front());
}

}  // namespace

Run_result run_serving(Workload& workload, const Binaries& binaries,
                       const Run_options& options) {
  Run_result run;
  Load_config config;
  config.connections = workload.connections;
  config.window = workload.window;
  config.warmup_s = std::min(1.0, 0.2 * options.seconds);
  config.measure_s = options.seconds;
  config.slices =
      std::max<long>(1, std::lround(options.seconds / workload.slice_s));

  Op_stream stream(workload);
  std::vector<std::string> register_lines;
  for (std::uint32_t slot = 0; slot < workload.slots.size(); ++slot) {
    register_lines.push_back(workload.register_line(slot, 0) + "\n");
  }

  const double ceiling =
      options.self_check ? echo_ceiling(workload, options.tiny) : 0.0;

  std::vector<double> setups;
  std::unique_ptr<Fleet> fleet;
  bool clean_exits = true;
  for (std::size_t k = 0; k < options.setups; ++k) {
    if (fleet != nullptr) clean_exits = fleet->shutdown() && clean_exits;
    const double started = now_seconds();
    fleet = std::make_unique<Fleet>(binaries, workload.routed,
                                    workload.serve_workers);
    register_all(register_lines, fleet->port());
    setups.push_back(now_seconds() - started);
  }

  Load_result load = run_load(fleet->port(), workload, &stream, config,
                              [&fleet] { return fleet->usage(); });
  double peak_rss = fleet->usage().peak_rss_mib;
  for (const Proc_usage& usage : load.usage) {
    peak_rss = std::max(peak_rss, usage.peak_rss_mib);
  }
  Json stats;
  try {
    stats = server_stats(fleet->port());
  } catch (const std::exception& error) {
    stats = Json(std::string("unavailable: ") + error.what());
  }
  clean_exits = fleet->shutdown() && clean_exits;

  const Gate_report gate = verify(workload, load.records, options.corrupt);

  // Every figure is taken per slice of the timed window, and each one
  // reported is the median over the slices with the highest throughput
  // (a quarter of them). On a shared host other tenants slow this one
  // in bursts, by descheduling its vCPUs (steal) or by sharing their
  // cores and caches (which no counter shows), and a burst only ever
  // lowers a closed loop's throughput; so a slice's own throughput says
  // how disturbed it was. Latency and CPU figures come from the same
  // slices, so they describe one state of the host. A program that gets
  // slower is slower in every slice, the kept ones too.
  const std::size_t slices = load.edges.size() - 1;
  auto slice_of = [&](double t) -> std::size_t {
    if (t < load.edges.front() || t >= load.edges.back()) return slices;
    return static_cast<std::size_t>(
        std::upper_bound(load.edges.begin(), load.edges.end(), t) -
        load.edges.begin() - 1);
  };
  std::vector<std::size_t> answered(slices, 0);
  std::vector<std::vector<double>> latencies(slices);
  std::size_t errors = load.unmatched_errors;
  std::size_t shed = 0;
  std::size_t missing = 0;
  for (const Record& record : load.records) {
    switch (record.status) {
      case Status::ok:
        if (record.op.kind == Op::Kind::optimize) {
          const std::size_t done = slice_of(record.done);
          if (done < slices) ++answered[done];
          const std::size_t started = slice_of(record.sent);
          if (started < slices) {
            latencies[started].push_back((record.done - record.sent) * 1e3);
          }
        }
        break;
      case Status::error: ++errors; break;
      case Status::shed: ++shed; break;
      case Status::pending: ++missing; break;
    }
  }
  if (!clean_exits) ++errors;

  std::vector<double> throughputs(slices);
  std::vector<double> cpu_costs(slices);
  std::vector<double> p50s(slices);
  std::vector<double> p99s(slices);
  std::vector<double> steal(slices);
  std::vector<std::size_t> beyond_p99(slices);
  std::size_t samples = 0;
  for (std::size_t k = 0; k < slices; ++k) {
    throughputs[k] = static_cast<double>(answered[k]) /
                     (load.edges[k + 1] - load.edges[k]);
    cpu_costs[k] =
        answered[k] == 0
            ? 0.0
            : (load.usage[k + 1].cpu_seconds - load.usage[k].cpu_seconds) *
                  1e6 / static_cast<double>(answered[k]);
    p50s[k] = quantile(latencies[k], 0.5);
    p99s[k] = quantile(latencies[k], 0.99);
    const double p99 = p99s[k];
    beyond_p99[k] = static_cast<std::size_t>(
        std::count_if(latencies[k].begin(), latencies[k].end(),
                      [p99](double value) { return value > p99; }));
    samples += latencies[k].size();
    const double total = load.host[k + 1].total - load.host[k].total;
    steal[k] =
        total > 0 ? (load.host[k + 1].steal - load.host[k].steal) / total : 0;
  }
  std::vector<std::size_t> kept(slices);
  for (std::size_t k = 0; k < slices; ++k) kept[k] = k;
  std::stable_sort(kept.begin(), kept.end(), [&](std::size_t a, std::size_t b) {
    return throughputs[a] > throughputs[b];
  });
  kept.resize((slices + 3) / 4);
  auto kept_median = [&](const std::vector<double>& values) {
    std::vector<double> chosen;
    for (const std::size_t k : kept) chosen.push_back(values[k]);
    return median(chosen);
  };
  std::size_t fewest_beyond_p99 = beyond_p99[kept.front()];
  for (const std::size_t k : kept) {
    fewest_beyond_p99 = std::min(fewest_beyond_p99, beyond_p99[k]);
  }
  const double throughput = kept_median(throughputs);

  run.attempted = load.records.size();
  run.violations = gate.violations;
  run.failed = errors + shed + missing + gate.violations;
  run.metrics = {
      {"throughput_rps", "req/s", throughput},
      {"latency_p50_ms", "ms", kept_median(p50s)},
      {"latency_p99_ms", "ms", kept_median(p99s)},
      {"cpu_us_per_req", "us", kept_median(cpu_costs)},
      {"peak_rss_mb", "MiB", peak_rss},
      {"setup_s", "s", median(setups)}};

  Json& report = run.report;
  report.set("latency_samples", Json(samples));
  report.set("fewest_samples_beyond_p99_in_a_kept_slice",
             Json(fewest_beyond_p99));
  report.set("slices", Json(slices));
  auto series = [](const std::vector<double>& values) {
    Json out;
    for (const double value : values) out.push_back(Json(value));
    return out;
  };
  Json kept_json;
  for (const std::size_t k : kept) kept_json.push_back(Json(k));
  report.set("kept_slices", std::move(kept_json));
  report.set("slice_steal_share", series(steal));
  report.set("slice_throughput_rps", series(throughputs));
  report.set("slice_latency_p50_ms", series(p50s));
  report.set("slice_latency_p99_ms", series(p99s));
  report.set("slice_cpu_us_per_req", series(cpu_costs));
  report.set("setups", Json(setups.size()));
  report.set("error_rate",
             Json(run.attempted == 0
                        ? 0.0
                        : static_cast<double>(run.failed) /
                              static_cast<double>(run.attempted)));
  Json failures;
  failures.set("error_events", Json(errors));
  failures.set("overloaded", Json(shed));
  failures.set("missing", Json(missing));
  failures.set("gate_violations", Json(gate.violations));
  failures.set("clean_shutdown", Json(clean_exits));
  report.set("failures", std::move(failures));
  Json gate_json;
  gate_json.set("checked", Json(gate.checked));
  gate_json.set("dp_references", Json(gate.references));
  Json examples;
  for (const std::string& example : gate.examples) {
    examples.push_back(Json(example));
  }
  gate_json.set("examples", std::move(examples));
  report.set("gate", std::move(gate_json));
  Json validity;
  validity.set("generator_ceiling_rps", Json(ceiling));
  validity.set("ceiling_over_throughput",
               Json(throughput > 0 ? ceiling / throughput : 0.0));
  report.set("validity", std::move(validity));
  report.set("server_stats", std::move(stats));
  return run;
}

}  // namespace perfbench

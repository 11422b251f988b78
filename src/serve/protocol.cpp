#include "quest/serve/protocol.hpp"

#include <utility>

#include "quest/common/error.hpp"
#include "quest/io/fingerprint.hpp"

namespace quest::serve {

namespace {

double number_field(const io::Json& object, std::string_view key,
                    double fallback) {
  const io::Json* field = object.find(key);
  if (field == nullptr) return fallback;
  const double value = field->as_number();
  if (value < 0.0) {
    throw Parse_error("field '" + std::string(key) +
                      "' must be non-negative");
  }
  return value;
}

/// Checked integer field: rejects values a uint64 cast could not
/// represent (the cast would be undefined behavior on client-supplied
/// input like {"node_limit":1e300}). 1e18 comfortably exceeds any
/// meaningful budget, seed or tuple count.
std::uint64_t uint_field(const io::Json& object, std::string_view key,
                         std::uint64_t fallback) {
  const double value =
      number_field(object, key, static_cast<double>(fallback));
  if (value > 1e18) {
    throw Parse_error("field '" + std::string(key) +
                      "' is too large (max 1e18)");
  }
  return static_cast<std::uint64_t>(value);
}

bool bool_field(const io::Json& object, std::string_view key, bool fallback) {
  const io::Json* field = object.find(key);
  return field == nullptr ? fallback : field->as_bool();
}

std::string string_field(const io::Json& object, std::string_view key,
                         std::string fallback) {
  const io::Json* field = object.find(key);
  return field == nullptr ? std::move(fallback) : field->as_string();
}

opt::Budget parse_budget(const io::Json& op) {
  opt::Budget budget;
  const io::Json* field = op.find("budget");
  if (field == nullptr) return budget;
  budget.time_limit_seconds = number_field(*field, "deadline_ms", 0.0) / 1e3;
  budget.node_limit = uint_field(*field, "node_limit", 0);
  budget.cost_target = number_field(*field, "cost_target", 0.0);
  return budget;
}

/// Parses one optimize op. `default_id` is the batch-element fallback;
/// empty means the "id" field is mandatory (the top-level op form).
Optimize_op parse_optimize(const io::Json& op,
                           const std::string& default_id = {}) {
  Optimize_op parsed;
  if (const io::Json* id = op.find("id"); id != nullptr) {
    parsed.id = id->as_string();
  } else {
    parsed.id = default_id;
  }
  if (parsed.id.empty()) {
    throw Parse_error("optimize op needs a non-empty 'id'");
  }
  const io::Json& instance = op.at("instance");
  if (instance.is_string()) {
    parsed.instance_name = instance.as_string();
  } else {
    parsed.inline_instance = io::instance_from_json(instance);
  }
  parsed.optimizer = string_field(op, "optimizer", "portfolio");
  parsed.budget = parse_budget(op);
  parsed.seed = uint_field(op, "seed", 0);
  parsed.model = model::parse_cost_model_spec(
      string_field(op, "model", "independent"),
      string_field(op, "policy", "sequential"));
  parsed.stream = bool_field(op, "stream", false);
  parsed.cache = bool_field(op, "cache", true);
  if (const io::Json* execute = op.find("execute"); execute != nullptr) {
    // Hard resource bounds, not just representability: `workers` creates
    // OS threads (running past the thread limit would terminate the
    // daemon) and `tuples` is uncancellable executor work.
    Execute_spec spec;
    spec.tuples = uint_field(*execute, "tuples", spec.tuples);
    if (spec.tuples < 1 || spec.tuples > 10'000'000) {
      throw Parse_error("execute.tuples must be in [1, 10000000]");
    }
    spec.block_size = uint_field(*execute, "block_size", spec.block_size);
    if (spec.block_size < 1 || spec.block_size > spec.tuples) {
      throw Parse_error("execute.block_size must be in [1, tuples]");
    }
    spec.workers = static_cast<std::size_t>(
        uint_field(*execute, "workers", spec.workers));
    if (spec.workers < 1 || spec.workers > 64) {
      throw Parse_error("execute.workers must be in [1, 64]");
    }
    parsed.execute = spec;
  }
  return parsed;
}

std::vector<std::uint64_t> uint_array(const io::Json& op,
                                      std::string_view key,
                                      bool required) {
  const io::Json* field = op.find(key);
  if (field == nullptr) {
    if (required) {
      throw Parse_error("observe op needs array field '" +
                        std::string(key) + "'");
    }
    return {};
  }
  const io::Json::Array& array = field->as_array();
  std::vector<std::uint64_t> values;
  values.reserve(array.size());
  for (const io::Json& element : array) {
    const double value = element.as_number();
    if (value < 0.0 || value > 1e18) {
      throw Parse_error("field '" + std::string(key) +
                        "' entries must be in [0, 1e18]");
    }
    values.push_back(static_cast<std::uint64_t>(value));
  }
  return values;
}

std::vector<double> number_array(const io::Json& op, std::string_view key) {
  const io::Json* field = op.find(key);
  if (field == nullptr) return {};
  const io::Json::Array& array = field->as_array();
  std::vector<double> values;
  values.reserve(array.size());
  for (const io::Json& element : array) {
    const double value = element.as_number();
    if (value < 0.0) {
      throw Parse_error("field '" + std::string(key) +
                        "' entries must be non-negative");
    }
    values.push_back(value);
  }
  return values;
}

/// Resolves the shared "instance" field shape (name or inline doc) of
/// the observe/refit ops.
void parse_instance_ref(const io::Json& op, std::string& name,
                        std::optional<io::Instance_document>& inline_doc) {
  const io::Json& instance = op.at("instance");
  if (instance.is_string()) {
    name = instance.as_string();
  } else {
    inline_doc = io::instance_from_json(instance);
  }
}

Observe_op parse_observe(const io::Json& op) {
  Observe_op parsed;
  parse_instance_ref(op, parsed.instance_name, parsed.inline_instance);
  const io::Json::Array& plan = op.at("plan").as_array();
  for (const io::Json& element : plan) {
    const double value = element.as_number();
    if (value < 0.0 || value > 1e6) {
      throw Parse_error("observe plan entries must be service ids");
    }
    parsed.plan.append(static_cast<model::Service_id>(value));
  }
  parsed.tuples_in = uint_array(op, "tuples_in", /*required=*/true);
  parsed.tuples_out = uint_array(op, "tuples_out", /*required=*/true);
  if (parsed.tuples_in.size() != parsed.plan.size() ||
      parsed.tuples_out.size() != parsed.plan.size()) {
    throw Parse_error(
        "observe tuples_in/tuples_out must match the plan length");
  }
  parsed.cost_count = uint_array(op, "cost_count", /*required=*/false);
  parsed.cost_sum = number_array(op, "cost_sum");
  parsed.cost_sq_sum = number_array(op, "cost_sq_sum");
  if (parsed.cost_count.size() != parsed.cost_sum.size() ||
      parsed.cost_count.size() != parsed.cost_sq_sum.size()) {
    throw Parse_error(
        "observe cost_count/cost_sum/cost_sq_sum must have equal length");
  }
  return parsed;
}

Refit_op parse_refit(const io::Json& op) {
  Refit_op parsed;
  parse_instance_ref(op, parsed.instance_name, parsed.inline_instance);
  parsed.policy =
      model::parse_send_policy(string_field(op, "policy", "sequential"));
  parsed.objective =
      model::parse_objective(string_field(op, "objective", "mean"));
  parsed.min_samples = uint_field(op, "min_samples", 0);
  return parsed;
}

}  // namespace

Op parse_op(std::string_view line) {
  const io::Json op = io::Json::parse(line);
  const std::string kind = op.at("op").as_string();
  if (kind == "register") {
    std::string name = op.at("name").as_string();
    if (name.empty()) {
      throw Parse_error("register op needs a non-empty 'name'");
    }
    return Register_op{std::move(name),
                       io::instance_from_json(op.at("instance"))};
  }
  if (kind == "optimize") return parse_optimize(op);
  if (kind == "optimize_batch") {
    Batch_op parsed;
    parsed.id = op.at("id").as_string();
    if (parsed.id.empty()) {
      throw Parse_error("optimize_batch op needs a non-empty 'id'");
    }
    const io::Json::Array& requests = op.at("requests").as_array();
    if (requests.empty()) {
      throw Parse_error("optimize_batch needs at least one request");
    }
    if (requests.size() > k_max_batch_requests) {
      throw Parse_error("optimize_batch is capped at " +
                        std::to_string(k_max_batch_requests) + " requests");
    }
    parsed.requests.reserve(requests.size());
    for (std::size_t index = 0; index < requests.size(); ++index) {
      parsed.requests.push_back(parse_optimize(
          requests[index], parsed.id + "/" + std::to_string(index)));
    }
    return parsed;
  }
  if (kind == "cancel") {
    Cancel_op parsed;
    parsed.id = op.at("id").as_string();
    return parsed;
  }
  if (kind == "observe") return parse_observe(op);
  if (kind == "refit") return parse_refit(op);
  if (kind == "stats") return Stats_op{};
  if (kind == "shutdown") {
    return Shutdown_op{bool_field(op, "drain", false)};
  }
  throw Parse_error("unknown op '" + kind +
                    "' (expected register, optimize, optimize_batch, "
                    "cancel, observe, refit, stats, or shutdown)");
}

io::Json registered_event(const std::string& name, std::size_t services,
                          std::uint64_t fingerprint, bool replaced) {
  io::Json event;
  event.set("event", io::Json("registered"));
  event.set("name", io::Json(name));
  event.set("services", io::Json(services));
  event.set("fingerprint", io::Json(io::hex64(fingerprint)));
  event.set("replaced", io::Json(replaced));
  return event;
}

io::Json admitted_event(const std::string& id, std::size_t queue_depth) {
  io::Json event;
  event.set("event", io::Json("admitted"));
  event.set("id", io::Json(id));
  event.set("queue_depth", io::Json(queue_depth));
  return event;
}

io::Json incumbent_event(const std::string& id, double cost,
                         double elapsed_seconds, const model::Plan& plan) {
  io::Json event;
  event.set("event", io::Json("incumbent"));
  event.set("id", io::Json(id));
  event.set("cost", io::Json(cost));
  event.set("elapsed_seconds", io::Json(elapsed_seconds));
  event.set("plan", io::to_json(plan));
  return event;
}

io::Json cancel_event(const std::string& id, bool found) {
  io::Json event;
  event.set("event", io::Json("cancel-requested"));
  event.set("id", io::Json(id));
  event.set("found", io::Json(found));
  return event;
}

io::Json observed_event(std::uint64_t fingerprint, std::uint64_t runs,
                        std::size_t plans) {
  io::Json event;
  event.set("event", io::Json("observed"));
  event.set("fingerprint", io::Json(io::hex64(fingerprint)));
  event.set("runs", io::Json(static_cast<double>(runs)));
  event.set("plans", io::Json(plans));
  return event;
}

io::Json batch_event(const std::string& id, std::size_t count) {
  io::Json event;
  event.set("event", io::Json("batch-admitted"));
  event.set("id", io::Json(id));
  event.set("count", io::Json(count));
  return event;
}

io::Json error_event(const std::string& message, const std::string& id,
                     const std::string& code) {
  io::Json event;
  event.set("event", io::Json("error"));
  if (!code.empty()) event.set("code", io::Json(code));
  if (!id.empty()) event.set("id", io::Json(id));
  event.set("message", io::Json(message));
  return event;
}

io::Json overloaded_event(const std::string& id, std::size_t queue_depth,
                          std::size_t queue_cap) {
  io::Json event = error_event(
      "server overloaded: admission queue is full (" +
          std::to_string(queue_depth) + "/" + std::to_string(queue_cap) +
          " queued); retry later",
      id, "overloaded");
  event.set("queue_depth", io::Json(queue_depth));
  event.set("queue_cap", io::Json(queue_cap));
  return event;
}

io::Json unknown_instance_event(const std::string& name,
                                const std::string& id) {
  return error_event("unknown instance '" + name + "' (register it first)",
                     id, "unknown-instance");
}

io::Json line_overflow_event(std::size_t max_line_bytes) {
  return error_event("request line exceeds " + std::to_string(max_line_bytes) +
                         " bytes and was discarded",
                     {}, "line-overflow");
}

io::Json result_event(const std::string& id, opt::Termination termination,
                      const model::Plan& plan, double cost, bool complete,
                      bool proven_optimal, bool cached, bool warm_started,
                      const std::string& model_key, double elapsed_seconds,
                      const opt::Search_stats* stats) {
  io::Json event;
  event.set("event", io::Json("result"));
  event.set("id", io::Json(id));
  event.set("termination", io::Json(opt::to_string(termination)));
  event.set("cost", complete ? io::Json(cost) : io::Json());
  event.set("plan", io::to_json(plan));
  event.set("proven_optimal", io::Json(proven_optimal));
  event.set("complete", io::Json(complete));
  event.set("cached", io::Json(cached));
  event.set("warm_started", io::Json(warm_started));
  event.set("model", io::Json(model_key));
  event.set("elapsed_seconds", io::Json(elapsed_seconds));
  if (stats != nullptr) {
    io::Json stats_json;
    stats_json.set("nodes_expanded",
                   io::Json(static_cast<double>(stats->nodes_expanded)));
    stats_json.set("complete_plans",
                   io::Json(static_cast<double>(stats->complete_plans)));
    stats_json.set("incumbent_updates",
                   io::Json(static_cast<double>(stats->incumbent_updates)));
    stats_json.set("total_prunes",
                   io::Json(static_cast<double>(stats->total_prunes())));
    stats_json.set("engine_threads",
                   io::Json(static_cast<double>(stats->engine_threads)));
    event.set("stats", std::move(stats_json));
  }
  return event;
}

}  // namespace quest::serve

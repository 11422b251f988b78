#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "quest/io/instance_io.hpp"
#include "quest/io/json.hpp"
#include "quest/workload/generators.hpp"

namespace perfbench {

namespace {

/// Share of cache-zipf-rw ops that re-register an instance.
constexpr double k_reregister_share = 0.02;
/// Distinct seeds per instance in cache-zipf-rw's key space.
constexpr std::uint32_t k_zipf_seeds = 4;
constexpr double k_zipf_exponent = 0.99;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a * 0x9e3779b97f4a7c15ULL ^ b;
  return quest::splitmix64(state);
}

std::uint64_t workload_tag(const std::string& name) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : name) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return hash;
}

std::size_t slot_count(const std::string& name, bool tiny) {
  if (name == "admit-small" || name == "routed-r2") return tiny ? 8 : 64;
  if (name == "search-btsp") return tiny ? 4 : 512;
  return tiny ? 64 : 4096;  // cache-zipf-rw
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "admit-small", "search-btsp", "cache-zipf-rw", "routed-r2"};
  return names;
}

quest::model::Instance make_document(const std::string& workload,
                                     std::uint64_t seed, std::uint32_t slot,
                                     std::uint32_t version) {
  quest::Rng rng(mix(mix(seed, workload_tag(workload)),
                     (static_cast<std::uint64_t>(slot) << 32) | version));
  if (workload == "search-btsp") {
    quest::workload::Bottleneck_tsp_spec spec;
    spec.n = 12 + slot % 2;
    return quest::workload::make_bottleneck_tsp(spec, rng);
  }
  quest::workload::Uniform_spec spec;
  spec.n = workload == "cache-zipf-rw" ? 10 : 8;
  return quest::workload::make_uniform(spec, rng);
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  if (std::find(workload_names().begin(), workload_names().end(), name) ==
      workload_names().end()) {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  Workload workload;
  workload.name = name;
  workload.seed = seed;
  workload.models = {""};
  if (name == "admit-small" || name == "routed-r2") {
    workload.window = 8;
    workload.routed = name == "routed-r2";
    workload.serve_workers = workload.routed ? 1 : 2;
  } else if (name == "search-btsp") {
    workload.window = 1;
    workload.slice_s = 1.0;
    // Bottleneck-TSP search effort is heavy-tailed (a rare n=13
    // instance needs tens of millions of nodes); the node budget a
    // waiting planner would set keeps every request's work bounded.
    workload.node_limit = 20000;
  } else {
    workload.window = 4;
    workload.serve_workers = 2;
  }
  const std::size_t slots = slot_count(name, tiny);
  if (name == "search-btsp") {
    // One correlated model per pool instance: how hard a correlated
    // search is depends strongly on its interaction matrix, so a single
    // matrix per run would make the whole run easy or hard at once.
    quest::Rng rng(mix(seed, workload_tag(name) + 2));
    for (std::size_t slot = 0; slot < slots; ++slot) {
      std::string model = "correlated:strength=0.5,seed=";
      model += std::to_string(rng.uniform_int(1u << 30) + 1);
      workload.models.push_back(std::move(model));
    }
  }
  workload.slots.resize(slots);
  for (std::uint32_t slot = 0; slot < slots; ++slot) {
    workload.slots[slot].name = 'i' + std::to_string(slot);
    workload.slots[slot].versions.push_back(
        make_document(name, seed, slot, 0));
  }
  return workload;
}

std::string Workload::register_line(std::uint32_t slot,
                                    std::uint32_t version) const {
  quest::io::Json op;
  op.set("op", quest::io::Json("register"));
  op.set("name", quest::io::Json(slots[slot].name));
  op.set("instance", quest::io::to_json(slots[slot].versions[version]));
  return op.dump();
}

std::string Workload::line(const Op& op, std::uint64_t index) const {
  if (op.kind == Op::Kind::reregister) {
    return register_line(op.slot, op.version);
  }
  std::string line = "{\"op\":\"optimize\",\"id\":\"r";
  line += std::to_string(index);
  line += "\",\"instance\":\"";
  line += slots[op.slot].name;
  line += "\",\"optimizer\":\"";
  line += optimizer;
  line += "\",\"seed\":";
  line += std::to_string(op.seed);
  line += op.cache ? ",\"cache\":true" : ",\"cache\":false";
  if (node_limit != 0) {
    line += ",\"budget\":{\"node_limit\":";
    line += std::to_string(node_limit);
    line += '}';
  }
  if (!models[op.model].empty()) {
    line += ",\"model\":\"";
    line += models[op.model];
    line += '"';
  }
  line += '}';
  return line;
}

quest::model::Cost_model Workload::bound_model(const Op& op) const {
  const std::string& text = models[op.model];
  return quest::model::parse_cost_model_spec(text.empty() ? "independent"
                                                          : text)
      .bind(instance(op).size());
}

Op_stream::Op_stream(Workload& workload)
    : workload_(workload),
      rng_(mix(workload.seed, workload_tag(workload.name) + 1)),
      current_(workload.slots.size(), 0) {
  if (workload_.name != "cache-zipf-rw") return;
  const std::size_t keys = workload_.slots.size() * k_zipf_seeds;
  zipf_cdf_.resize(keys);
  double total = 0.0;
  for (std::size_t rank = 0; rank < keys; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), k_zipf_exponent);
    zipf_cdf_[rank] = total;
  }
  for (double& weight : zipf_cdf_) weight /= total;
  zipf_keys_.resize(keys);
  for (std::size_t key = 0; key < keys; ++key) {
    zipf_keys_[key] = static_cast<std::uint32_t>(key);
  }
  for (std::size_t i = keys - 1; i > 0; --i) {
    std::swap(zipf_keys_[i], zipf_keys_[rng_.uniform_int(i + 1)]);
  }
}

Op Op_stream::next() {
  Op op;
  const std::uint64_t index = index_++;
  op.seed = index + 1;
  const std::size_t slots = workload_.slots.size();
  if (workload_.name == "search-btsp") {
    // The pool is cycled in a fixed order, each instance once under the
    // independent model and then once under the correlated one.
    op.slot = static_cast<std::uint32_t>((index / 2) % slots);
    op.model = index % 2 == 0 ? 0 : static_cast<std::uint16_t>(1 + op.slot);
  } else if (workload_.name == "cache-zipf-rw") {
    const double draw = rng_.uniform();
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), draw) -
        zipf_cdf_.begin());
    const std::uint32_t key =
        zipf_keys_[std::min(rank, zipf_keys_.size() - 1)];
    op.slot = static_cast<std::uint32_t>(key % slots);
    if (rng_.uniform() < k_reregister_share) {
      Slot& slot = workload_.slots[op.slot];
      op.kind = Op::Kind::reregister;
      op.version = static_cast<std::uint32_t>(slot.versions.size());
      slot.versions.push_back(make_document(workload_.name, workload_.seed,
                                            op.slot, op.version));
      current_[op.slot] = op.version;
      return op;
    }
    op.seed = key / slots + 1;
    op.cache = true;
  } else {
    op.slot = static_cast<std::uint32_t>(rng_.uniform_int(slots));
  }
  op.version = current_[op.slot];
  return op;
}

}  // namespace perfbench

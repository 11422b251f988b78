// perfbench/src/workload.hpp
//
// The four benchmark workloads, generated from a seed. A workload is an
// instance set registered before the timed window, plus a deterministic
// stream of client ops (optimize requests and, for cache-zipf-rw,
// re-registrations). The same seed always yields the same instances and
// the same op stream; the program under test only ever sees the
// generated protocol lines.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "quest/common/rng.hpp"
#include "quest/model/cost_model.hpp"
#include "quest/model/instance.hpp"

namespace perfbench {

/// One registered instance name and every document it held over the run
/// (version 0 is registered at set-up; re-registrations append).
struct Slot {
  std::string name;
  std::vector<quest::model::Instance> versions;
};

/// One client op. For an optimize, `version` is the document version the
/// server resolves the name to when the op is sent (ops of one slot share
/// a connection, so the server sees them in send order).
struct Op {
  enum class Kind : std::uint8_t { optimize, reregister };
  Kind kind = Kind::optimize;
  std::uint32_t slot = 0;
  std::uint32_t version = 0;
  std::uint16_t model = 0;  ///< index into Workload::models
  bool cache = false;
  std::uint64_t seed = 0;
};

struct Workload {
  std::string name;
  std::size_t connections = 4;
  /// Requests kept outstanding per connection.
  std::size_t window = 1;
  /// Length of one slice of the timed window (each figure is a median
  /// over slices): long enough that a slice holds some 1000 latency
  /// samples, so at least ten lie beyond its 99th percentile.
  double slice_s = 0.25;
  /// Serve through quest_router --replicas 2 over three backends.
  bool routed = false;
  /// --workers of each quest_serve process.
  std::size_t serve_workers = 4;
  std::string optimizer = "bnb";
  /// Node budget of every optimize (0 = unlimited).
  std::uint64_t node_limit = 0;
  /// Cost-model texts as sent on the wire ("" = the default independent
  /// model, field omitted).
  std::vector<std::string> models;
  std::vector<Slot> slots;

  /// The --seed every input of the workload is generated from.
  std::uint64_t seed = 0;

  /// The register line of a slot's document version.
  std::string register_line(std::uint32_t slot, std::uint32_t version) const;
  /// The protocol line of op number `index` (ids are "r<index>").
  std::string line(const Op& op, std::uint64_t index) const;
  /// The cost model op `op` is evaluated under, bound to its instance.
  quest::model::Cost_model bound_model(const Op& op) const;
  const quest::model::Instance& instance(const Op& op) const {
    return slots[op.slot].versions[op.version];
  }
};

/// Sequential, deterministic op stream of a workload. next() returns op
/// number 0, 1, 2, ... in order; re-registrations append their new
/// document version to the workload as they are generated.
class Op_stream {
 public:
  explicit Op_stream(Workload& workload);
  Op next();

 private:
  Workload& workload_;
  quest::Rng rng_;
  std::uint64_t index_ = 0;
  /// cache-zipf-rw: cumulative Zipf weights over (instance, seed) keys
  /// and the seeded rank -> key permutation.
  std::vector<double> zipf_cdf_;
  std::vector<std::uint32_t> zipf_keys_;
  /// Current document version of each slot.
  std::vector<std::uint32_t> current_;
};

/// Builds a workload's instance set from `seed`: "admit-small",
/// "search-btsp", "cache-zipf-rw" or "routed-r2" (anything else throws
/// std::invalid_argument). `tiny` shrinks every size for the benchmark's
/// own quick test.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny);

}  // namespace perfbench

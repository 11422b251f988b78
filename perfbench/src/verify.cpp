#include "verify.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <thread>
#include <tuple>

#include "quest/model/cost.hpp"
#include "quest/opt/dp.hpp"

namespace perfbench {

namespace {

using Reference_key = std::tuple<std::uint32_t, std::uint32_t, std::uint16_t>;
using Answer_key =
    std::tuple<std::uint32_t, std::uint32_t, std::uint16_t, std::uint64_t>;

Reference_key reference_key(const Op& op) {
  return {op.slot, op.version, op.model};
}

quest::model::Plan plan_of(const Record& record) {
  std::vector<quest::model::Service_id> order;
  for (std::size_t i = 0; i < record.plan_size; ++i) {
    order.push_back(record.plan[i]);
  }
  return quest::model::Plan(std::move(order));
}

/// Exact optimum of every (instance version, model) that has a
/// proven-optimal answer, on up to four threads.
std::map<Reference_key, double> dp_references(
    const Workload& workload, const std::vector<Record>& records) {
  std::map<Reference_key, double> references;
  std::vector<Op> todo;
  for (const Record& record : records) {
    if (record.status != Status::ok || record.op.kind != Op::Kind::optimize ||
        !record.proven_optimal) {
      continue;
    }
    if (references.emplace(reference_key(record.op), 0.0).second) {
      todo.push_back(record.op);
    }
  }
  std::vector<double> costs(todo.size());
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    quest::opt::Dp_optimizer dp;
    for (std::size_t i = next++; i < todo.size(); i = next++) {
      quest::opt::Request request;
      request.instance = &workload.instance(todo[i]);
      request.model = workload.bound_model(todo[i]);
      costs[i] = dp.optimize(request).cost;
    }
  };
  std::vector<std::thread> threads;
  const std::size_t count = std::min<std::size_t>(4, todo.size());
  for (std::size_t t = 0; t < count; ++t) threads.emplace_back(work);
  for (auto& thread : threads) thread.join();
  for (std::size_t i = 0; i < todo.size(); ++i) {
    references[reference_key(todo[i])] = costs[i];
  }
  return references;
}

}  // namespace

bool same_cost(double a, double b) {
  return std::fabs(a - b) <=
         1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

Gate_report verify(const Workload& workload, std::vector<Record>& records,
                   bool corrupt) {
  Gate_report report;
  if (corrupt) {
    for (Record& record : records) {
      if (record.status == Status::ok &&
          record.op.kind == Op::Kind::optimize) {
        record.cost *= 1.01;
        break;
      }
    }
  }
  const auto references = dp_references(workload, records);
  report.references = references.size();
  auto violation = [&](std::size_t index, const std::string& what) {
    ++report.violations;
    if (report.examples.size() < 5) {
      report.examples.push_back('r' + std::to_string(index) + ": " + what);
    }
  };

  std::map<Answer_key, std::vector<std::size_t>> fresh;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& record = records[i];
    if (record.status != Status::ok || record.op.kind != Op::Kind::optimize) {
      continue;
    }
    ++report.checked;
    const quest::model::Instance& instance = workload.instance(record.op);
    const quest::model::Plan plan = plan_of(record);
    if (!record.complete || !plan.is_permutation_of(instance.size())) {
      violation(i, "plan is not a permutation of the instance");
      continue;
    }
    const double evaluated = quest::model::bottleneck_cost(
        instance, plan, workload.bound_model(record.op));
    if (!same_cost(evaluated, record.cost)) {
      violation(i, "reported cost " + std::to_string(record.cost) +
                       " but Eq. 1 gives " + std::to_string(evaluated));
      continue;
    }
    if (record.proven_optimal) {
      const double optimum = references.at(reference_key(record.op));
      if (!same_cost(optimum, record.cost)) {
        violation(i, "proven-optimal cost " + std::to_string(record.cost) +
                         " but dp gives " + std::to_string(optimum));
        continue;
      }
    }
    if (!record.cached) {
      fresh[{record.op.slot, record.op.version, record.op.model,
             record.op.seed}]
          .push_back(i);
    }
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& record = records[i];
    if (record.status != Status::ok || record.op.kind != Op::Kind::optimize ||
        !record.cached) {
      continue;
    }
    const auto found = fresh.find({record.op.slot, record.op.version,
                                   record.op.model, record.op.seed});
    const bool matches =
        found != fresh.end() &&
        std::any_of(found->second.begin(), found->second.end(),
                    [&](std::size_t other) {
                      return records[other].cost == record.cost &&
                             plan_of(records[other]) == plan_of(record);
                    });
    if (!matches) violation(i, "cached answer differs from the fresh one");
  }
  return report;
}

}  // namespace perfbench

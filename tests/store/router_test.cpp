// Router unit surface at the default replication factor (R=1, one owner
// per key): the stats-merge algebra (counters summed, uptime maxed, the
// nested cache object summed fieldwise, fleet-health fields added) and
// option validation. The router itself is cluster::Replica_router; the
// full proxy path — forwarding, shedding, reconnection — is exercised end
// to end by the serve/router_smoke ctest entry (scripts/loadgen.py
// --router).

#include "quest/cluster/replica_router.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "quest/common/error.hpp"
#include "quest/io/json.hpp"
#include "quest/serve/tcp_transport.hpp"

namespace quest {
namespace {

io::Json backend_stats(double admitted, double completed, double uptime,
                       double cache_hits) {
  io::Json cache;
  cache.set("lookups", io::Json(cache_hits + 1));
  cache.set("hits", io::Json(cache_hits));
  cache.set("entries", io::Json(2.0));
  io::Json event;
  event.set("event", io::Json("stats"));
  event.set("workers", io::Json(4.0));
  event.set("admitted", io::Json(admitted));
  event.set("completed", io::Json(completed));
  event.set("uptime_seconds", io::Json(uptime));
  event.set("cache", std::move(cache));
  return event;
}

TEST(Router_test, MergeSumsCountersAndMaxesUptime) {
  const std::vector<io::Json> events = {
      backend_stats(5, 4, 10.5, 2),
      backend_stats(7, 7, 3.25, 1),
  };
  const io::Json merged = cluster::merge_stats_events(events, 3);
  EXPECT_EQ(merged.at("event").as_string(), "stats");
  EXPECT_EQ(merged.at("shards").as_number(), 3.0);
  EXPECT_EQ(merged.at("shards_live").as_number(), 2.0);
  EXPECT_EQ(merged.at("admitted").as_number(), 12.0);
  EXPECT_EQ(merged.at("completed").as_number(), 11.0);
  EXPECT_EQ(merged.at("workers").as_number(), 8.0);
  // Uptime is a max, not a sum: the fleet is as old as its oldest member.
  EXPECT_EQ(merged.at("uptime_seconds").as_number(), 10.5);
  EXPECT_EQ(merged.at("cache").at("hits").as_number(), 3.0);
  EXPECT_EQ(merged.at("cache").at("lookups").as_number(), 5.0);
  EXPECT_EQ(merged.at("cache").at("entries").as_number(), 4.0);
}

TEST(Router_test, MergeToleratesHeterogeneousEvents) {
  // One backend runs with a bounded queue (extra fields), one without;
  // one reports durability counters. The merge takes the union.
  io::Json bounded = backend_stats(1, 1, 2.0, 0);
  bounded.set("shed", io::Json(3.0));
  bounded.set("queue_cap", io::Json(8.0));
  io::Json durable = backend_stats(2, 2, 1.0, 0);
  durable.set("snapshot_writes", io::Json(5.0));
  const io::Json merged =
      cluster::merge_stats_events({bounded, durable}, 2);
  EXPECT_EQ(merged.at("shed").as_number(), 3.0);
  EXPECT_EQ(merged.at("snapshot_writes").as_number(), 5.0);
  EXPECT_EQ(merged.at("admitted").as_number(), 3.0);
}

TEST(Router_test, MergeOfNothingStillReportsFleetShape) {
  const io::Json merged = cluster::merge_stats_events({}, 4);
  EXPECT_EQ(merged.at("shards").as_number(), 4.0);
  EXPECT_EQ(merged.at("shards_live").as_number(), 0.0);
}

TEST(Router_test, RejectsAnEmptyBackendList) {
  serve::Tcp_transport transport(serve::Tcp_options{});
  cluster::Replica_options options;  // no backends, default R=1
  EXPECT_THROW(cluster::Replica_router(options, transport), Error);
}

}  // namespace
}  // namespace quest

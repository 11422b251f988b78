// Replica_router construction contracts and counter surface. The full
// proxy path — forwarding, shedding, failover, journal replay on rejoin —
// is process-level and lives in the scripted serve/router_smoke and
// serve/replication_smoke ctests (scripts/loadgen.py --router); these
// tests pin what can be checked in-process. The stats-merge algebra is
// covered by store/router_test.

#include "quest/cluster/replica_router.hpp"

#include <gtest/gtest.h>

#include <chrono>

#include "quest/common/error.hpp"
#include "quest/serve/tcp_transport.hpp"

namespace quest {
namespace {

using cluster::Replica_options;
using cluster::Replica_router;

Replica_options three_backends() {
  Replica_options options;
  // Port 1: nothing listens there — constructing a router never dials
  // (connections are on-demand), so unreachable backends are fine.
  options.backends = {"127.0.0.1:1", "127.0.0.1:1", "127.0.0.1:1"};
  options.replicas = 2;
  // Keep the probe thread quiet for the test's lifetime.
  options.probe_interval = std::chrono::minutes(1);
  options.max_backoff = std::chrono::minutes(1);
  return options;
}

TEST(Replica_router_test, ValidatesItsOptions) {
  serve::Tcp_transport transport(serve::Tcp_options{});

  Replica_options no_backends = three_backends();
  no_backends.backends.clear();
  EXPECT_THROW(Replica_router(no_backends, transport), Error);

  Replica_options zero_replicas = three_backends();
  zero_replicas.replicas = 0;
  EXPECT_THROW(Replica_router(zero_replicas, transport), Error);

  Replica_options too_many = three_backends();
  too_many.replicas = 4;  // more than the three backends
  EXPECT_THROW(Replica_router(too_many, transport), Error);

  Replica_options tiny_lines = three_backends();
  tiny_lines.max_line_bytes = 1;
  EXPECT_THROW(Replica_router(tiny_lines, transport), Error);
}

TEST(Replica_router_test, ConstructsWithFullReplication) {
  serve::Tcp_transport transport(serve::Tcp_options{});
  Replica_options options = three_backends();
  options.replicas = 3;  // R == K: every key everywhere
  Replica_router router(options, transport);
  EXPECT_EQ(router.replica_failovers(), 0u);
  EXPECT_EQ(router.repairs(), 0u);
  EXPECT_EQ(router.replica_lag(), 0u);
}

TEST(Replica_router_test, CountersStartAtZero) {
  serve::Tcp_transport transport(serve::Tcp_options{});
  Replica_router router(three_backends(), transport);
  EXPECT_EQ(router.replica_failovers(), 0u);
  EXPECT_EQ(router.repairs(), 0u);
  EXPECT_EQ(router.replica_lag(), 0u);
}

TEST(Replica_router_test, DefaultsToOneOwnerPerKey) {
  // The CLI default: --replicas 1 runs through this same router.
  EXPECT_EQ(Replica_options{}.replicas, 1u);
  serve::Tcp_transport transport(serve::Tcp_options{});
  Replica_options options = three_backends();
  options.replicas = 1;
  Replica_router router(options, transport);
  EXPECT_EQ(router.replica_failovers(), 0u);
}

}  // namespace
}  // namespace quest

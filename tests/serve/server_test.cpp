// The serving layer end to end, in process: concurrent requests on a
// fixed worker pool produce correct per-request results, mid-flight
// cancellation releases the worker within the anytime latency bound,
// repeated identical requests hit the plan cache, budgets are honored
// per request, and shutdown (cancelling or draining) never leaks a
// worker — the destructor joining is part of every test.

#include "quest/serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "quest/common/timer.hpp"
#include "quest/core/engines.hpp"
#include "quest/io/instance_io.hpp"
#include "quest/serve/protocol.hpp"
#include "support/helpers.hpp"

namespace quest {
namespace {

using namespace quest::serve;

/// Thread-safe event capture with predicate waits.
class Event_log {
 public:
  void operator()(const io::Json& event) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      events_.push_back(event);
    }
    changed_.notify_all();
  }

  /// Blocks until an event matches; returns it. Fails the test (and
  /// returns null) after `timeout_seconds`.
  io::Json wait_for(const std::function<bool(const io::Json&)>& predicate,
                    double timeout_seconds = 20.0) {
    std::unique_lock<std::mutex> lock(mutex_);
    std::size_t scanned = 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_seconds);
    for (;;) {
      for (; scanned < events_.size(); ++scanned) {
        if (predicate(events_[scanned])) return events_[scanned];
      }
      if (changed_.wait_until(lock, deadline) ==
          std::cv_status::timeout) {
        ADD_FAILURE() << "timed out waiting for an event";
        return io::Json();
      }
    }
  }

  io::Json wait_result(const std::string& id, double timeout_seconds = 20.0) {
    return wait_for(
        [&](const io::Json& event) {
          const io::Json* kind = event.find("event");
          const io::Json* event_id = event.find("id");
          return kind != nullptr && kind->as_string() == "result" &&
                 event_id != nullptr && event_id->as_string() == id;
        },
        timeout_seconds);
  }

  std::vector<io::Json> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable changed_;
  std::vector<io::Json> events_;
};

Optimize_op optimize_op(std::string id, std::string instance,
                        std::string spec) {
  Optimize_op op;
  op.id = std::move(id);
  op.instance_name = std::move(instance);
  op.optimizer = std::move(spec);
  return op;
}

Register_op register_op(std::string name, const model::Instance& instance) {
  return Register_op{std::move(name),
                     io::Instance_document{instance, std::nullopt}};
}

/// A job that runs until cancelled (with a far-away safety net so a
/// broken cancellation path cannot hang the suite).
Optimize_op long_running_op(std::string id, std::string instance) {
  Optimize_op op = optimize_op(std::move(id), std::move(instance),
                               "annealing:iterations=2000000000");
  op.budget.time_limit_seconds = 60.0;  // safety net only
  op.cache = false;  // keep these runs out of the cache tiers
  return op;
}

TEST(Server_test, RegisterOptimizeResultLifecycle) {
  Event_log log;
  Server_options options;
  options.workers = 2;
  Server server(options, std::ref(log));

  const auto instance = test::selective_instance(10, 3);
  server.handle(register_op("prod", instance));
  const io::Json registered = log.wait_for([](const io::Json& event) {
    return event.at("event").as_string() == "registered";
  });
  EXPECT_EQ(registered.at("services").as_number(), 10.0);

  server.handle(optimize_op("r1", "prod", "bnb"));
  const io::Json result = log.wait_result("r1");
  ASSERT_TRUE(result.is_object());
  EXPECT_EQ(result.at("termination").as_string(), "optimal");
  EXPECT_TRUE(result.at("proven_optimal").as_bool());
  EXPECT_FALSE(result.at("cached").as_bool());

  // The admitted ack must precede the result in the event stream.
  const auto events = log.snapshot();
  std::size_t admitted_at = events.size(), result_at = events.size();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string kind = events[i].at("event").as_string();
    if (kind == "admitted") admitted_at = std::min(admitted_at, i);
    if (kind == "result") result_at = std::min(result_at, i);
  }
  EXPECT_LT(admitted_at, result_at);

  // Reference: the same engine run directly.
  opt::Request request;
  request.instance = &instance;
  const auto reference = core::make_optimizer("bnb")->optimize(request);
  EXPECT_TRUE(
      test::costs_equal(result.at("cost").as_number(), reference.cost));
}

TEST(Server_test, ConcurrentRequestsGetCorrectPerRequestResults) {
  Event_log log;
  Server_options options;
  options.workers = 4;
  options.enable_cache = false;  // force every request through an engine
  Server server(options, std::ref(log));

  // Eight requests over four distinct instances and two exact engines;
  // every result must match its own problem's optimum.
  std::vector<model::Instance> instances;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    instances.push_back(test::selective_instance(9, seed * 17));
    server.handle(register_op(test::numbered("i", seed), instances.back()));
  }
  std::vector<std::string> ids;
  for (int request_index = 0; request_index < 8; ++request_index) {
    const std::string id = test::numbered("r", request_index);
    ids.push_back(id);
    server.handle(optimize_op(
        id, test::numbered("i", 1 + request_index % 4),
        request_index % 2 == 0 ? "bnb" : "dp"));
  }
  for (int request_index = 0; request_index < 8; ++request_index) {
    const io::Json result = log.wait_result(ids[request_index]);
    ASSERT_TRUE(result.is_object()) << ids[request_index];
    EXPECT_EQ(result.at("termination").as_string(), "optimal");
    opt::Request request;
    request.instance = &instances[request_index % 4];
    const auto reference = core::make_optimizer("bnb")->optimize(request);
    EXPECT_TRUE(test::costs_equal(result.at("cost").as_number(),
                                  reference.cost))
        << ids[request_index];
  }
}

TEST(Server_test, NoSinkCallLandsAfterCloseSessionReturns) {
  Server_options options;
  options.workers = 2;
  options.enable_cache = false;  // every request runs on a worker
  Server server(options);

  // Session a's sink is slow on results, so a worker is usually inside
  // it when close_session(a) runs; close_session must wait that call
  // out, and no later event may enter the sink. `late` counts calls that
  // were still running, or started, after close_session returned.
  std::atomic<bool> closed{false};
  std::atomic<int> late{0};
  std::atomic<int> a_results{0};
  const auto a = server.open_session([&](const io::Json& event) {
    if (closed.load()) ++late;
    if (event.at("event").as_string() == "result") {
      ++a_results;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (closed.load()) ++late;
  });
  Event_log b_log;
  const auto b = server.open_session(std::ref(b_log));

  server.handle(b, register_op("prod", test::selective_instance(7, 11)));
  constexpr int k_requests = 60;
  for (int i = 0; i < k_requests; ++i) {
    server.handle(a, optimize_op(test::numbered("a", i), "prod", "bnb"));
    server.handle(b, optimize_op(test::numbered("b", i), "prod", "bnb"));
  }
  // Close a while the workers are still emitting to both sessions.
  Timer timer;
  while (a_results.load() < 4 && timer.seconds() < 20.0) {
    std::this_thread::yield();
  }
  server.close_session(a);
  closed.store(true);

  // Session b is unaffected: every one of its results arrives.
  for (int i = 0; i < k_requests; ++i) {
    EXPECT_TRUE(b_log.wait_result(test::numbered("b", i)).is_object()) << i;
  }
  server.shutdown();
  EXPECT_EQ(late.load(), 0);
}

TEST(Server_test, SustainsEightConcurrentRequestsOnThePool) {
  Event_log log;
  Server_options options;
  options.workers = 8;
  Server server(options, std::ref(log));
  server.handle(register_op("prod", test::selective_instance(12, 5)));

  for (int request_index = 0; request_index < 8; ++request_index) {
    Optimize_op op =
        long_running_op(test::numbered("c", request_index), "prod");
    op.stream = true;
    server.handle(std::move(op));
  }
  // All eight must be running at once — the high-water mark proves the
  // pool sustained them concurrently (scheduling, not wall-clock
  // parallelism, so this holds on any core count).
  Timer timer;
  while (server.stats().max_concurrent < 8 && timer.seconds() < 15.0) {
    std::this_thread::yield();
  }
  EXPECT_EQ(server.stats().max_concurrent, 8u);

  // Running is not yet holding a plan: a job cancelled inside its greedy
  // seed legitimately reports complete == false. Wait until every job
  // has streamed its first incumbent before cancelling.
  for (int request_index = 0; request_index < 8; ++request_index) {
    const std::string id = test::numbered("c", request_index);
    log.wait_for([&](const io::Json& event) {
      const io::Json* kind = event.find("event");
      const io::Json* event_id = event.find("id");
      return kind != nullptr && kind->as_string() == "incumbent" &&
             event_id != nullptr && event_id->as_string() == id;
    });
  }

  for (int request_index = 0; request_index < 8; ++request_index) {
    server.handle(Cancel_op{test::numbered("c", request_index)});
  }
  for (int request_index = 0; request_index < 8; ++request_index) {
    const io::Json result =
        log.wait_result(test::numbered("c", request_index));
    ASSERT_TRUE(result.is_object());
    EXPECT_EQ(result.at("termination").as_string(), "cancelled");
    EXPECT_TRUE(result.at("complete").as_bool());  // best incumbent
  }
  const Server_stats stats = server.stats();
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.cancelled, 8u);
  // The running gauge settles asynchronously (workers decrement after
  // their result is out); give it a beat.
  Timer settle;
  while (server.stats().running != 0 && settle.seconds() < 10.0) {
    std::this_thread::yield();
  }
  EXPECT_EQ(server.stats().running, 0u);
}

TEST(Server_test, CancelReleasesTheWorkerWithinTheLatencyBound) {
  // The PR 3 anytime contract, measured through the serving layer: once
  // cancel is requested, the engine polls its token within one work unit
  // and the worker emits the result promptly.
  constexpr double cancel_latency_budget_seconds = 0.05;

  Event_log log;
  Server_options options;
  options.workers = 2;
  Server server(options, std::ref(log));
  server.handle(register_op("prod", test::selective_instance(12, 7)));

  Optimize_op op = long_running_op("slow", "prod");
  op.stream = true;
  server.handle(std::move(op));

  // Wait for the first incumbent so the job is provably mid-flight.
  log.wait_for([](const io::Json& event) {
    return event.at("event").as_string() == "incumbent";
  });

  Timer timer;
  server.handle(Cancel_op{"slow"});
  const io::Json result = log.wait_result("slow");
  const double latency = timer.seconds();
  ASSERT_TRUE(result.is_object());
  EXPECT_EQ(result.at("termination").as_string(), "cancelled");
  EXPECT_TRUE(result.at("complete").as_bool());
  EXPECT_LE(latency, cancel_latency_budget_seconds);

  const io::Json ack = log.wait_for([](const io::Json& event) {
    return event.at("event").as_string() == "cancel-requested";
  });
  EXPECT_TRUE(ack.at("found").as_bool());
}

TEST(Server_test, RepeatedIdenticalRequestIsServedFromTheCache) {
  Event_log log;
  Server_options options;
  options.workers = 1;
  Server server(options, std::ref(log));
  server.handle(register_op("prod", test::selective_instance(10, 11)));

  server.handle(optimize_op("first", "prod", "bnb"));
  const io::Json first = log.wait_result("first");
  ASSERT_TRUE(first.is_object());
  EXPECT_FALSE(first.at("cached").as_bool());

  // The repeat also asks for execution: only the optimization is
  // cached — the execute stage still runs, on the cached plan.
  Optimize_op second_op = optimize_op("second", "prod", "bnb");
  second_op.execute = Execute_spec{200, 16, 2};
  server.handle(std::move(second_op));
  const io::Json second = log.wait_result("second");
  ASSERT_TRUE(second.is_object());
  EXPECT_TRUE(second.at("cached").as_bool());
  EXPECT_TRUE(test::costs_equal(second.at("cost").as_number(),
                                first.at("cost").as_number()));
  ASSERT_NE(second.find("execution"), nullptr);
  // (Ten selective services can filter 200 tuples down to zero, so
  // assert on the cost model, not on delivery.)
  EXPECT_GT(second.at("execution").at("predicted_cost").as_number(), 0.0);

  const Server_stats stats = server.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_lookups, 2u);
  EXPECT_EQ(stats.cache_entries, 1u);

  // Opting a request out of the cache forces a fresh (warm-started) run.
  Optimize_op uncached = optimize_op("third", "prod", "bnb");
  uncached.cache = false;
  server.handle(std::move(uncached));
  const io::Json third = log.wait_result("third");
  EXPECT_FALSE(third.at("cached").as_bool());
  EXPECT_EQ(server.stats().cache_hits, 1u);
}

TEST(Server_test, CachedAnswersBypassASaturatedPool) {
  // The cache is consulted at admission, on the transport thread: a
  // repeat request is answered instantly even when every worker is
  // pinned by long-running jobs.
  Event_log log;
  Server_options options;
  options.workers = 1;
  Server server(options, std::ref(log));
  server.handle(register_op("prod", test::selective_instance(10, 43)));

  server.handle(optimize_op("seed-cache", "prod", "bnb"));
  const io::Json first = log.wait_result("seed-cache");
  ASSERT_TRUE(first.is_object());

  // Pin the only worker; its first streamed incumbent proves the job is
  // mid-flight (and therefore out of the queue).
  Optimize_op hog = long_running_op("hog", "prod");
  hog.stream = true;
  server.handle(std::move(hog));
  log.wait_for([](const io::Json& event) {
    const io::Json* id = event.find("id");
    return event.at("event").as_string() == "incumbent" && id != nullptr &&
           id->as_string() == "hog";
  });
  ASSERT_EQ(server.stats().running, 1u);

  server.handle(optimize_op("repeat", "prod", "bnb"));
  const io::Json repeat = log.wait_result("repeat", /*timeout=*/5.0);
  ASSERT_TRUE(repeat.is_object());
  EXPECT_TRUE(repeat.at("cached").as_bool());
  // The hog is still running: the cached answer never touched a worker.
  EXPECT_EQ(server.stats().running, 1u);
  EXPECT_EQ(server.stats().queue_depth, 0u);

  server.handle(Cancel_op{"hog"});
  log.wait_result("hog");
}

TEST(Server_test, CancelledResultsAreNotReplayedFromTheCache) {
  // A client's cancel must not poison later identical requests: the
  // cancelled incumbent may serve as a warm start, but the repeat
  // request gets its own full run.
  Event_log log;
  Server_options options;
  options.workers = 1;
  Server server(options, std::ref(log));
  server.handle(register_op("prod", test::selective_instance(12, 37)));

  Optimize_op first = optimize_op("first", "prod",
                                  "annealing:iterations=2000000000");
  first.budget.time_limit_seconds = 60.0;  // safety net only
  first.stream = true;                     // cache stays ON here
  server.handle(std::move(first));
  log.wait_for([](const io::Json& event) {
    return event.at("event").as_string() == "incumbent";
  });
  server.handle(Cancel_op{"first"});
  const io::Json cancelled = log.wait_result("first");
  ASSERT_TRUE(cancelled.is_object());
  ASSERT_EQ(cancelled.at("termination").as_string(), "cancelled");

  // Identical repeat, with a budget it can actually finish under.
  Optimize_op repeat = optimize_op("repeat", "prod",
                                   "annealing:iterations=2000000000");
  repeat.budget.time_limit_seconds = 60.0;
  repeat.budget.node_limit = 2000;
  server.handle(std::move(repeat));
  const io::Json rerun = log.wait_result("repeat");
  ASSERT_TRUE(rerun.is_object());
  EXPECT_FALSE(rerun.at("cached").as_bool());
  EXPECT_TRUE(rerun.at("warm_started").as_bool());
  EXPECT_NE(rerun.at("termination").as_string(), "cancelled");
}

TEST(Server_test, RequestIdIsReusableTheMomentItsResultArrives) {
  // The result event is the retirement edge: jobs leave the active set
  // before their result is emitted, so a pipelined client may recycle
  // ids without racing into "already in flight".
  Event_log log;
  Server_options options;
  options.workers = 2;
  Server server(options, std::ref(log));
  server.handle(register_op("prod", test::selective_instance(8, 41)));

  for (int round = 0; round < 20; ++round) {
    Optimize_op op = optimize_op("same-id", "prod", "greedy");
    op.cache = false;
    server.handle(std::move(op));
    const io::Json result = log.wait_for(
        [&, seen = round](const io::Json& event) mutable {
          const io::Json* kind = event.find("event");
          if (kind == nullptr || kind->as_string() != "result") return false;
          return seen-- == 0;  // the round-th result event
        },
        20.0);
    ASSERT_TRUE(result.is_object()) << "round " << round;
  }
  for (const auto& event : log.snapshot()) {
    EXPECT_NE(event.at("event").as_string(), "error");
  }
  EXPECT_EQ(server.stats().completed, 20u);
}

TEST(Server_test, WarmStartFlowsAcrossEngines) {
  Event_log log;
  Server_options options;
  options.workers = 1;
  Server server(options, std::ref(log));
  server.handle(register_op("prod", test::selective_instance(11, 13)));

  server.handle(optimize_op("exact", "prod", "bnb"));
  const io::Json exact = log.wait_result("exact");
  ASSERT_TRUE(exact.is_object());
  EXPECT_FALSE(exact.at("warm_started").as_bool());

  // A different engine on the same problem misses the exact tier but
  // warm-starts from the optimal plan — so it can't do worse.
  server.handle(optimize_op("heuristic", "prod", "local-search"));
  const io::Json warmed = log.wait_result("heuristic");
  ASSERT_TRUE(warmed.is_object());
  EXPECT_FALSE(warmed.at("cached").as_bool());
  EXPECT_TRUE(warmed.at("warm_started").as_bool());
  EXPECT_TRUE(test::costs_equal(warmed.at("cost").as_number(),
                                exact.at("cost").as_number()));
}

TEST(Server_test, ResultsAreFlooredAtTheBestKnownPlan) {
  // Engines with no incumbent to seed (greedy, random, dp) ignore
  // Request::warm_start — the server still guarantees a warm-started
  // result is never costlier than the best plan the cache held.
  Event_log log;
  Server_options options;
  options.workers = 1;
  Server server(options, std::ref(log));
  server.handle(register_op("prod", test::selective_instance(11, 47)));

  server.handle(optimize_op("exact", "prod", "bnb"));
  const io::Json exact = log.wait_result("exact");
  ASSERT_TRUE(exact.is_object());
  ASSERT_TRUE(exact.at("proven_optimal").as_bool());

  Optimize_op weak = optimize_op("weak", "prod", "random:samples=1");
  weak.seed = 3;
  server.handle(std::move(weak));
  const io::Json floored = log.wait_result("weak");
  ASSERT_TRUE(floored.is_object());
  EXPECT_TRUE(floored.at("warm_started").as_bool());
  EXPECT_TRUE(test::costs_equal(floored.at("cost").as_number(),
                                exact.at("cost").as_number()));
}

TEST(Server_test, PerRequestBudgetsAreHonored) {
  Event_log log;
  Server_options options;
  options.workers = 2;
  Server server(options, std::ref(log));
  server.handle(register_op("prod", test::selective_instance(12, 19)));

  Optimize_op limited = optimize_op("limited", "prod",
                                    "annealing:iterations=2000000000");
  limited.budget.node_limit = 500;
  limited.cache = false;
  server.handle(std::move(limited));
  const io::Json by_work = log.wait_result("limited");
  ASSERT_TRUE(by_work.is_object());
  EXPECT_EQ(by_work.at("termination").as_string(), "budget-exhausted");

  Optimize_op deadlined = optimize_op("deadlined", "prod",
                                      "annealing:iterations=2000000000");
  deadlined.budget.time_limit_seconds = 0.05;
  deadlined.cache = false;
  server.handle(std::move(deadlined));
  const io::Json by_time = log.wait_result("deadlined");
  ASSERT_TRUE(by_time.is_object());
  EXPECT_EQ(by_time.at("termination").as_string(), "budget-exhausted");
}

TEST(Server_test, ErrorsBecomeEventsAndTheServerSurvives) {
  Event_log log;
  Server_options options;
  options.workers = 1;
  Server server(options, std::ref(log));

  // Unknown instance.
  server.handle(optimize_op("bad1", "nope", "bnb"));
  const io::Json unknown = log.wait_for([](const io::Json& event) {
    const io::Json* id = event.find("id");
    return event.at("event").as_string() == "error" && id != nullptr &&
           id->as_string() == "bad1";
  });
  EXPECT_NE(unknown.at("message").as_string().find("unknown instance"),
            std::string::npos);
  // Typed: the replicated router keys journal repair off this code.
  EXPECT_EQ(unknown.at("code").as_string(), "unknown-instance");

  // Unknown engine spec fails at admission.
  server.handle(register_op("prod", test::selective_instance(8, 23)));
  server.handle(optimize_op("bad2", "prod", "frobnicator"));
  log.wait_for([](const io::Json& event) {
    const io::Json* id = event.find("id");
    return event.at("event").as_string() == "error" && id != nullptr &&
           id->as_string() == "bad2";
  });

  // Malformed line through the transport path.
  EXPECT_TRUE(server.handle_line("this is not json"));
  log.wait_for([](const io::Json& event) {
    return event.at("event").as_string() == "error" &&
           event.find("id") == nullptr;
  });

  // Duplicate in-flight id.
  server.handle(long_running_op("dup", "prod"));
  server.handle(long_running_op("dup", "prod"));
  log.wait_for([](const io::Json& event) {
    const io::Json* message = event.find("message");
    return event.at("event").as_string() == "error" && message != nullptr &&
           message->as_string().find("already in flight") !=
               std::string::npos;
  });
  server.handle(Cancel_op{"dup"});
  log.wait_result("dup");

  // And the server still works.
  server.handle(optimize_op("good", "prod", "greedy"));
  const io::Json result = log.wait_result("good");
  ASSERT_TRUE(result.is_object());
  EXPECT_EQ(server.stats().failed, 0u);  // admission errors, not failures
}

TEST(Server_test, ShutdownCancelsInFlightWorkAndJoins) {
  Event_log log;
  Server_options options;
  options.workers = 1;
  Server server(options, std::ref(log));
  server.handle(register_op("prod", test::selective_instance(12, 29)));

  // One running, one queued behind it.
  server.handle(long_running_op("running", "prod"));
  server.handle(long_running_op("queued", "prod"));
  EXPECT_FALSE(server.handle(Shutdown_op{}));

  // Every admitted request still got a result, and the workers are
  // joined by the time handle() returned.
  const auto events = log.snapshot();
  int results = 0;
  bool complete_seen = false;
  for (const auto& event : events) {
    if (event.at("event").as_string() == "result") {
      ++results;
      EXPECT_EQ(event.at("termination").as_string(), "cancelled");
    }
    if (event.at("event").as_string() == "shutdown-complete") {
      complete_seen = true;
      EXPECT_EQ(event.at("completed").as_number(), 2.0);
    }
  }
  EXPECT_EQ(results, 2);
  EXPECT_TRUE(complete_seen);

  // Post-shutdown submissions are refused politely.
  server.handle(optimize_op("late", "prod", "greedy"));
  log.wait_for([](const io::Json& event) {
    const io::Json* message = event.find("message");
    return event.at("event").as_string() == "error" && message != nullptr &&
           message->as_string().find("shutting down") != std::string::npos;
  });
}

TEST(Server_test, DrainShutdownFinishesAdmittedWork) {
  Event_log log;
  Server_options options;
  options.workers = 1;
  Server server(options, std::ref(log));
  server.handle(register_op("prod", test::selective_instance(9, 31)));

  for (int request_index = 0; request_index < 3; ++request_index) {
    Optimize_op op =
        optimize_op(test::numbered("d", request_index), "prod", "greedy");
    op.cache = false;
    server.handle(std::move(op));
  }
  EXPECT_FALSE(server.handle(Shutdown_op{/*drain=*/true}));

  int results = 0;
  for (const auto& event : log.snapshot()) {
    if (event.at("event").as_string() == "result") {
      ++results;
      EXPECT_EQ(event.at("termination").as_string(), "completed");
    }
  }
  EXPECT_EQ(results, 3);
}

// Acceptance round trip of the Cost_model redesign at the serving layer:
// a correlated instance travels register -> optimize -> cache-hit intact,
// the result names the model it was computed under, and neither cache
// tier ever crosses models — an identical request under the independent
// model (or a different correlation seed) misses and re-optimizes.
TEST(Server_test, CorrelatedModelRoundTripsWithoutCrossModelCacheHits) {
  Event_log log;
  Server_options options;
  options.workers = 2;
  Server server(options, std::ref(log));

  const std::size_t n = 8;
  const auto instance = test::selective_instance(n, 77);
  server.handle(register_op("prod", instance));

  const auto correlated_spec =
      model::parse_cost_model_spec("correlated:strength=0.8,seed=5");
  Optimize_op correlated = optimize_op("c1", "prod", "bnb");
  correlated.model = correlated_spec;
  server.handle(std::move(correlated));
  const io::Json first = log.wait_result("c1");
  ASSERT_TRUE(first.is_object());
  EXPECT_EQ(first.at("termination").as_string(), "optimal");
  EXPECT_FALSE(first.at("cached").as_bool());
  const std::string model_key = first.at("model").as_string();
  EXPECT_EQ(model_key, correlated_spec.bind(n).key());

  // The reported cost matches a direct correlated run, not the
  // independent one.
  opt::Request request;
  request.instance = &instance;
  request.model = correlated_spec.bind(n);
  const auto reference = core::make_optimizer("bnb")->optimize(request);
  EXPECT_TRUE(
      test::costs_equal(first.at("cost").as_number(), reference.cost));

  // Identical repeat: served from the exact tier, same model key.
  Optimize_op repeat = optimize_op("c2", "prod", "bnb");
  repeat.model = correlated_spec;
  server.handle(std::move(repeat));
  const io::Json second = log.wait_result("c2");
  EXPECT_TRUE(second.at("cached").as_bool());
  EXPECT_EQ(second.at("model").as_string(), model_key);
  EXPECT_TRUE(test::costs_equal(second.at("cost").as_number(),
                                first.at("cost").as_number()));

  // Same instance/engine under the independent model: a miss (fresh,
  // uncached run) with its own model key.
  server.handle(optimize_op("i1", "prod", "bnb"));
  const io::Json independent = log.wait_result("i1");
  EXPECT_FALSE(independent.at("cached").as_bool());
  EXPECT_EQ(independent.at("model").as_string(),
            model::Cost_model().key());

  // A different correlation seed is a different model: also a miss.
  Optimize_op other = optimize_op("c3", "prod", "bnb");
  other.model = model::parse_cost_model_spec("correlated:strength=0.8,seed=6");
  server.handle(std::move(other));
  const io::Json third = log.wait_result("c3");
  EXPECT_FALSE(third.at("cached").as_bool());
  EXPECT_NE(third.at("model").as_string(), model_key);
}

// The nested-parallelism cap applies to portfolio specs too: a
// requested thread count above Server_options::engine_threads is
// rewritten down at admission, before the cache key — so two requests
// whose effective configurations coincide share one cache entry.
TEST(Server_test, PortfolioThreadRequestsAreCappedAtAdmission) {
  Event_log log;
  Server_options options;
  options.workers = 1;
  options.engine_threads = 1;  // cap every engine to one thread
  Server server(options, std::ref(log));
  server.handle(register_op("prod", test::selective_instance(9, 53)));

  server.handle(optimize_op("wide", "prod", "portfolio:threads=8"));
  const io::Json wide = log.wait_result("wide");
  ASSERT_TRUE(wide.is_object());
  EXPECT_EQ(wide.at("termination").as_string(), "optimal");
  // The capped run is sequential: bnb-par never spun up 8 workers.
  EXPECT_NE(wide.at("stats").at("engine_threads").as_number(), 8.0);

  // "portfolio:threads=1" is the same effective spec — a cache hit
  // proves the rewrite happened before the key was computed.
  server.handle(optimize_op("narrow", "prod", "portfolio:threads=1"));
  const io::Json narrow = log.wait_result("narrow");
  ASSERT_TRUE(narrow.is_object());
  EXPECT_TRUE(narrow.at("cached").as_bool());
}

// The bounded admission queue sheds with a typed "overloaded" error and
// counts the refusal; unbounded (queue_cap = 0) keeps legacy behavior.
TEST(Server_test, BoundedQueueShedsOverloadWithATypedError) {
  Event_log log;
  Server_options options;
  options.workers = 1;
  options.queue_cap = 1;
  Server server(options, std::ref(log));
  server.handle(register_op("prod", test::selective_instance(12, 59)));

  // Occupy the worker (incumbent proves it left the queue), fill the
  // one queue slot, then overload.
  Optimize_op hog = long_running_op("hog", "prod");
  hog.stream = true;
  server.handle(std::move(hog));
  log.wait_for([](const io::Json& event) {
    return event.at("event").as_string() == "incumbent";
  });
  server.handle(long_running_op("queued", "prod"));
  log.wait_for([](const io::Json& event) {
    const io::Json* id = event.find("id");
    return event.at("event").as_string() == "admitted" && id != nullptr &&
           id->as_string() == "queued";
  });

  server.handle(long_running_op("extra", "prod"));
  const io::Json shed = log.wait_for([](const io::Json& event) {
    const io::Json* id = event.find("id");
    return event.at("event").as_string() == "error" && id != nullptr &&
           id->as_string() == "extra";
  });
  EXPECT_EQ(shed.at("code").as_string(), "overloaded");
  EXPECT_EQ(shed.at("queue_depth").as_number(), 1.0);
  EXPECT_EQ(shed.at("queue_cap").as_number(), 1.0);
  EXPECT_EQ(server.stats().shed, 1u);
  EXPECT_EQ(server.stats().admitted, 2u);  // the shed op never admitted

  for (const char* id : {"hog", "queued"}) {
    server.handle(Cancel_op{id});
    log.wait_result(id);
  }
}

// A spec-level override (shared model= keys in the optimizer spec) must
// reach both the engine and the cache key — the admission path folds it
// into the job's model so a cached plan can never cross models.
TEST(Server_test, SpecLevelModelOverrideReachesTheCacheKey) {
  Event_log log;
  Server server(Server_options{}, std::ref(log));
  const std::size_t n = 7;
  const auto instance = test::selective_instance(n, 13);
  server.handle(register_op("prod", instance));

  server.handle(optimize_op(
      "s1", "prod", "bnb:model=correlated,model-strength=0.7,model-seed=9"));
  const io::Json result = log.wait_result("s1");
  ASSERT_TRUE(result.is_object());
  const auto expected = model::Cost_model::correlated_seeded(n, 0.7, 9);
  EXPECT_EQ(result.at("model").as_string(), expected.key());

  // The plain-spec request with an op-level correlated model of the same
  // parameters hits the entry only when the *effective* models agree...
  Optimize_op same_model = optimize_op(
      "s2", "prod", "bnb:model=correlated,model-strength=0.7,model-seed=9");
  server.handle(std::move(same_model));
  EXPECT_TRUE(log.wait_result("s2").at("cached").as_bool());

  // ...and the bare "bnb" spec (independent model) never does.
  server.handle(optimize_op("s3", "prod", "bnb"));
  EXPECT_FALSE(log.wait_result("s3").at("cached").as_bool());
}

}  // namespace
}  // namespace quest

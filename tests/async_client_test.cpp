// AsyncClient facade + channel policy layer: deadline/hedge/retry timing,
// epoch-fenced chases, one-way zero-retry, and the sharded chaos variant
// (AsyncChaos.*: digest-identical at 1/2/8 workers across seeds).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/fault_schedule.hpp"
#include "net/network.hpp"
#include "rmi/channel.hpp"
#include "rmi/transport.hpp"
#include "rts/async_client.hpp"
#include "rts/client.hpp"
#include "rts/directory.hpp"
#include "rts/future.hpp"
#include "rts/server.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"
#include "support/chaos_harness.hpp"
#include "support/test_objects.hpp"

namespace mage::rts {
namespace {

using testing::Counter;

// A hand-built driver-engine federation (no MageSystem: these tests need
// to install fault schedules and custom CallPolicies per client).
struct Cluster {
  explicit Cluster(int nodes, std::uint64_t seed = 42)
      : sim(seed), net(sim, testing::chaos_model()) {
    ClassBuilder<Counter>(world, "Counter")
        .method("increment", &Counter::increment)
        .method("add", &Counter::add)
        .method("get", &Counter::get);
    for (int i = 0; i < nodes; ++i) {
      ids.push_back(net.add_node("n" + std::to_string(i + 1)));
    }
    for (int i = 0; i < nodes; ++i) {
      transports.push_back(std::make_unique<rmi::Transport>(net, ids[i]));
      servers.push_back(
          std::make_unique<MageServer>(*transports[i], world, directory));
      servers[i]->class_cache().install("Counter");
    }
  }

  // Binds a fresh public Counter named `name` on node index `home`.
  void bind_counter(const std::string& name, int home) {
    ComponentInfo info;
    info.name = name;
    info.class_name = "Counter";
    info.home = ids[home];
    info.is_public = true;
    directory.announce(info);
    servers[home]->registry().bind(name, world.instantiate("Counter"));
  }

  [[nodiscard]] std::int64_t counter(const std::string& name) {
    return sim.stats().counter(name);
  }

  sim::Simulation sim;
  net::Network net;
  ClassWorld world;
  Directory directory;
  std::vector<common::NodeId> ids;
  std::vector<std::unique_ptr<rmi::Transport>> transports;
  std::vector<std::unique_ptr<MageServer>> servers;
};

// --- deadline --------------------------------------------------------------

TEST(AsyncClientTest, DeadlineExpiresMidBackoff) {
  Cluster cluster(2);
  // The target is unreachable for the whole test: the first attempt fails
  // after 2 transmissions x 2ms, a retry is scheduled 50ms out, and the
  // 20ms overall deadline expires in the middle of that backoff.
  net::FaultSchedule schedule;
  schedule.partition(0, cluster.ids[0], cluster.ids[1]);
  cluster.net.set_fault_schedule(std::move(schedule));

  rmi::CallPolicy policy;
  policy.deadline_us = 20'000;
  policy.attempt_timeout_us = 2'000;
  policy.attempt_transmissions = 2;
  policy.max_retries = 5;
  policy.backoff_base_us = 50'000;
  policy.backoff_multiplier = 1.0;
  AsyncClient client(*cluster.servers[0], policy);

  std::string error;
  common::SimTime completed_at = -1;
  auto future = client.ping(cluster.ids[1]).on_error([&](const std::string& e) {
    error = e;
    completed_at = cluster.sim.now();
  });
  ASSERT_TRUE(cluster.sim.run_until([&] { return future.completed(); }));

  EXPECT_TRUE(future.has_error());
  EXPECT_NE(error.find("deadline exceeded"), std::string::npos) << error;
  // The deadline timer completes the call at EXACTLY start + deadline —
  // not at the next attempt boundary.
  EXPECT_EQ(completed_at, 20'000);
  EXPECT_EQ(cluster.counter("rmi.deadline_exceeded"), 1);
  EXPECT_EQ(cluster.counter("rmi.retries"), 1);  // scheduled, then killed

  // The pending backoff timer was cancelled with the call: draining the
  // queue must not launch the killed retry.
  cluster.sim.run_until_idle();
  EXPECT_EQ(cluster.counter("rmi.retries"), 1);
  EXPECT_EQ(cluster.counter("rmi.deadline_exceeded"), 1);
}

// --- hedging ---------------------------------------------------------------

TEST(AsyncClientTest, HedgeWinnerCancelsLoserRetryTimer) {
  Cluster cluster(2);
  // Drop the primary's one transmission (sent at t=0); the hedge launches
  // at t=2ms, after the burst, and wins.  The primary's retransmission
  // timer (20ms out) must be cancelled by the win — not fire late.
  net::FaultSchedule schedule;
  schedule.link_loss_burst(0, cluster.ids[0], cluster.ids[1], 1.0, 1'000);
  cluster.net.set_fault_schedule(std::move(schedule));

  rmi::CallPolicy policy;
  policy.attempt_timeout_us = 20'000;
  policy.attempt_transmissions = 4;
  policy.hedge_after_us = 2'000;
  AsyncClient client(*cluster.servers[0], policy);

  auto future = client.ping(cluster.ids[1]);
  ASSERT_TRUE(cluster.sim.run_until([&] { return future.completed(); }));

  EXPECT_TRUE(future.has_value()) << future.error();
  // Completed shortly after the hedge launch — not after the primary's
  // 20ms retransmission period.
  EXPECT_GT(cluster.sim.now(), 2'000);
  EXPECT_LT(cluster.sim.now(), 20'000);
  EXPECT_EQ(cluster.counter("rmi.hedged_calls"), 1);
  EXPECT_EQ(cluster.counter("rmi.hedge_wins"), 1);
  EXPECT_EQ(cluster.counter("rmi.cancelled_calls"), 1);

  // No late retransmissions: the loser's timer is dead, so draining the
  // queue sends nothing more.
  cluster.sim.run_until_idle();
  EXPECT_EQ(cluster.counter("rmi.retransmissions"), 0);
}

// --- epoch fence vs a stale Moved hint -------------------------------------

// The facade driving the chase: AsyncClient's future, or MageClient
// blocking on that same future.
enum class Facade { Async, Sync };

class FacadeChaseTest : public ::testing::TestWithParam<Facade> {};

TEST_P(FacadeChaseTest, ChaseRetriesPastStaleMovedHintUntilChainCatchesUp) {
  Cluster cluster(5);
  cluster.bind_counter("obj", /*home=*/0);

  // Build a two-hop forwarding chain: obj moves n1 -> n2 -> n3.  n1's
  // forwarding address is left one epoch behind (it still points at n2).
  AsyncClient mover_a(*cluster.servers[0]);
  auto moved_a = mover_a.move("obj", cluster.ids[1]);
  ASSERT_TRUE(cluster.sim.run_until([&] { return moved_a.completed(); }));
  ASSERT_TRUE(moved_a.has_value()) << moved_a.error();

  AsyncClient mover_b(*cluster.servers[1]);
  auto moved_b = mover_b.move("obj", cluster.ids[2]);
  ASSERT_TRUE(cluster.sim.run_until([&] { return moved_b.completed(); }));
  ASSERT_TRUE(moved_b.has_value()) << moved_b.error();
  const std::uint64_t fresh_epoch = mover_b.known_epoch("obj");
  ASSERT_GT(fresh_epoch, 0u);

  // The chaser (n4) has confirmed epoch knowledge of the second move but
  // no location knowledge, so it asks the static home n1 — whose Moved
  // hint carries the FIRST move's epoch.  The fence must reject it (never
  // chase placement history backwards), and the chase re-locates.
  //
  // n1's own min_epoch-fenced lookup dead-ends too (its forwarding
  // knowledge is one epoch behind the chaser's fence), but the chain
  // still leads to the live binding — so locate()'s last-resort unfenced
  // walk follows the stale link forward (epochs rise strictly along a
  // chain) and converges without any outside help.  A genuine
  // retry/hint/fence race, resolved deterministically.
  std::int64_t value = 0;
  if (GetParam() == Facade::Async) {
    AsyncClient chaser(*cluster.servers[3]);
    chaser.note_epoch("obj", fresh_epoch);
    auto invoked = chaser.invoke<std::int64_t>("obj", "increment");
    ASSERT_TRUE(cluster.sim.run_until([&] { return invoked.completed(); },
                                      5'000'000));
    ASSERT_TRUE(invoked.has_value()) << invoked.error();
    value = invoked.value();
  } else {
    MageClient chaser(*cluster.transports[3], *cluster.servers[3],
                      cluster.directory, cluster.world,
                      common::ActivityId{4});
    chaser.note_epoch("obj", fresh_epoch);
    common::NodeId cloc = cluster.ids[0];  // the static home
    value = chaser.invoke<std::int64_t>(cloc, "obj", "increment");
    EXPECT_EQ(cloc, cluster.ids[2]);  // the host that ran it
  }
  EXPECT_EQ(value, 1);  // exactly one execution despite the chase
  EXPECT_GE(cluster.counter("rts.stale_hints_rejected"), 1);
  EXPECT_GE(cluster.counter("rts.async_relocates"), 1);
  EXPECT_GE(cluster.counter("rts.unfenced_walks"), 1);
  EXPECT_EQ(cluster.counter("rts.invocations"), 1);
}

INSTANTIATE_TEST_SUITE_P(BothFacades, FacadeChaseTest,
                         ::testing::Values(Facade::Async, Facade::Sync),
                         [](const ::testing::TestParamInfo<Facade>& info) {
                           return info.param == Facade::Async ? "Async"
                                                              : "Sync";
                         });

// --- one-way verbs are never channel-retried -------------------------------

TEST(AsyncClientTest, OnewayIgnoresRetryAndHedgePolicy) {
  Cluster cluster(2);
  cluster.bind_counter("obj", /*home=*/1);
  // Drop everything for 1.5ms: a hedging stack would launch its hedge at
  // 0.5ms, a retrying stack would re-issue with a fresh request id.  The
  // one-way must do neither — only the transport's same-request-id
  // retransmission (at-most-once safe) may recover it.
  net::FaultSchedule schedule;
  schedule.loss_burst(0, 1.0, 1'500);
  cluster.net.set_fault_schedule(std::move(schedule));

  rmi::CallPolicy aggressive;
  aggressive.attempt_timeout_us = 2'000;
  aggressive.attempt_transmissions = 8;
  aggressive.max_retries = 5;
  aggressive.backoff_base_us = 1'000;
  aggressive.hedge_after_us = 500;
  AsyncClient client(*cluster.servers[0], aggressive);

  auto ack = client.invoke_oneway("obj", "add", std::int64_t{3});
  ASSERT_TRUE(cluster.sim.run_until([&] { return ack.completed(); }));
  ASSERT_TRUE(ack.has_value()) << ack.error();

  EXPECT_EQ(cluster.counter("rmi.hedged_calls"), 0);
  EXPECT_EQ(cluster.counter("rmi.retries"), 0);
  EXPECT_GE(cluster.counter("rmi.retransmissions"), 1);

  // Exactly one execution: the parked result is 3, not a multiple of it.
  auto value = client.invoke<std::int64_t>("obj", "get");
  ASSERT_TRUE(cluster.sim.run_until([&] { return value.completed(); }));
  ASSERT_TRUE(value.has_value()) << value.error();
  EXPECT_EQ(value.value(), 3);
}

// --- future combinators (driver-side) --------------------------------------

TEST(AsyncClientTest, WhenAllAndWhenAnyOverProbes) {
  Cluster cluster(3);
  AsyncClient client(*cluster.servers[0]);

  std::vector<MageFuture<double>> probes;
  for (int i = 0; i < 3; ++i) probes.push_back(client.load_of(cluster.ids[i]));
  auto all = when_all(probes);
  auto any = when_any(probes);
  ASSERT_TRUE(cluster.sim.run_until(
      [&] { return all.completed() && any.completed(); }));
  ASSERT_TRUE(all.has_value()) << all.error();
  EXPECT_EQ(all.value().size(), 3u);
  ASSERT_TRUE(any.has_value()) << any.error();
  EXPECT_LT(any.value().first, 3u);
}

// --- sharded chaos variant -------------------------------------------------

constexpr int kChaosNodes = 6;
constexpr int kChaosSessions = 12;
constexpr int kInvokesPerGen = 40;
constexpr int kChaosWindow = 3;

std::string chaos_session(int s) { return "c" + std::to_string(s); }

struct AsyncChaosRun {
  bool completed = false;
  std::int64_t failures = 0;
  // Per generator node: FNV fold of (session, returned value, shard-local
  // completion time) in completion order — single writer per slot.
  std::vector<std::uint64_t> digests;
  // Aggregated per session: invokes issued / sum of returned values.
  std::vector<std::int64_t> issued;
  std::vector<std::int64_t> retsum;
  std::int64_t relocates = 0;
  std::int64_t redirects = 0;
};

// The storm_balancer workload shrunk and run under a seed-generated fault
// schedule (loss bursts, partitions, a crash/restart), with a mover
// migrating sessions while every node's generator chases them.
AsyncChaosRun run_async_chaos(std::uint64_t seed, int threads) {
  const net::CostModel model = testing::chaos_model();
  sim::ShardedSim ssim(kChaosNodes, seed,
                       net::Network::min_link_latency(model));
  net::Network net(ssim, model);

  ClassWorld world;
  ClassBuilder<Counter>(world, "Counter")
      .method("add", &Counter::add)
      .method("get", &Counter::get);
  Directory directory;

  std::vector<common::NodeId> ids;
  for (int i = 0; i < kChaosNodes; ++i) {
    ids.push_back(net.add_node("n" + std::to_string(i)));
  }
  std::vector<std::unique_ptr<rmi::Transport>> transports;
  std::vector<std::unique_ptr<MageServer>> servers;
  std::vector<std::unique_ptr<AsyncClient>> clients;
  rmi::CallPolicy invoke_policy;  // transport-level recovery only
  invoke_policy.attempt_timeout_us = 3'000;
  invoke_policy.attempt_transmissions = 64;
  for (int i = 0; i < kChaosNodes; ++i) {
    transports.push_back(std::make_unique<rmi::Transport>(net, ids[i]));
    servers.push_back(
        std::make_unique<MageServer>(*transports[i], world, directory));
    servers[i]->class_cache().install("Counter");
    clients.push_back(
        std::make_unique<AsyncClient>(*servers[i], invoke_policy));
  }
  AsyncClient mover(*servers[0]);

  for (int s = 0; s < kChaosSessions; ++s) {
    ComponentInfo info;
    info.name = chaos_session(s);
    info.class_name = "Counter";
    info.home = ids[s % kChaosNodes];
    info.is_public = true;
    directory.announce(info);
    servers[s % kChaosNodes]->registry().bind(info.name,
                                              world.instantiate("Counter"));
  }

  testing::ChaosParams params;
  params.nodes = kChaosNodes;
  net.set_fifo_checks(true);
  net.set_fault_schedule(testing::random_fault_schedule(seed, params));
  // Horizon ticks keep virtual time moving past the last schedule entry.
  const common::SimTime horizon = params.fault_t0_us + params.fault_span_us * 2;
  for (common::SimTime t = 500; t <= horizon; t += 500) {
    net.node_sim(ids[0]).schedule_at(t, [] {}, sim::Wake::No);
  }

  struct Gen {
    std::int64_t issued = 0;
    std::int64_t completed = 0;
    std::int64_t failed = 0;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::vector<std::int64_t> issued_to;
    std::vector<std::int64_t> retsum;
  };
  std::vector<Gen> gens(kChaosNodes);
  for (auto& g : gens) {
    g.issued_to.assign(kChaosSessions, 0);
    g.retsum.assign(kChaosSessions, 0);
  }

  using testing::chaos_detail::fold;
  std::function<void(int)> issue = [&](int g) {
    Gen& gen = gens[g];
    if (gen.issued >= kInvokesPerGen) return;
    ++gen.issued;
    const int s = static_cast<int>(
        net.node_sim(ids[g]).rng().next_below(kChaosSessions));
    ++gen.issued_to[s];
    auto& sim = net.node_sim(ids[g]);
    clients[g]
        ->invoke<std::int64_t>(chaos_session(s), "add", std::int64_t{1})
        .then([&, g, s](std::int64_t& v) {
          Gen& gn = gens[g];
          gn.retsum[s] += v;
          gn.digest =
              fold(fold(fold(gn.digest, static_cast<std::uint64_t>(s) + 1),
                        static_cast<std::uint64_t>(v)),
                   static_cast<std::uint64_t>(sim.now()));
          ++gn.completed;
          issue(g);
        })
        .on_error([&, g](const std::string&) {
          ++gens[g].failed;
          issue(g);
        });
  };

  // The mover migrates sessions while the storm is invoking them: Moved
  // hints, epoch fences, and relocations all race the chases.  Migrations
  // start after the fault window: a transfer frame lost to the schedule is
  // retransmitted on the transport's default 150ms period, which would pin
  // the session "in transit" past every chaser's 12 x 10ms budget.
  for (int k = 0; k < 10; ++k) {
    net.node_sim(ids[0]).schedule_at(
        horizon + 2'000 + 2'000 * k,
        [&mover, k, &ids] {
          mover.move(chaos_session(k % kChaosSessions),
                     ids[static_cast<std::size_t>(k * 5 + 1) % kChaosNodes])
              .on_error([](const std::string&) {});
        },
        sim::Wake::No);
  }

  for (int g = 0; g < kChaosNodes; ++g) {
    for (int w = 0; w < kChaosWindow; ++w) issue(g);
  }

  const std::int64_t total =
      static_cast<std::int64_t>(kChaosNodes) * kInvokesPerGen;
  AsyncChaosRun run;
  run.completed = ssim.run_until(
      [&] {
        std::int64_t done = 0;
        for (const auto& g : gens) done += g.completed + g.failed;
        return done == total && net.pending_fault_events() == 0;
      },
      threads, /*deadline=*/60'000'000);

  run.issued.assign(kChaosSessions, 0);
  run.retsum.assign(kChaosSessions, 0);
  for (const auto& g : gens) {
    run.failures += g.failed;
    run.digests.push_back(g.digest);
    for (int s = 0; s < kChaosSessions; ++s) {
      run.issued[s] += g.issued_to[s];
      run.retsum[s] += g.retsum[s];
    }
  }
  run.relocates = ssim.counter("rts.async_relocates");
  run.redirects = ssim.counter("rts.async_redirects");
  return run;
}

// --- combinator edge cases -------------------------------------------------

TEST(FutureEdgeTest, WhenAllOnEmptyVectorCompletesImmediately) {
  // No simulation needed: zero futures means zero pending dependencies, so
  // the combined future must resolve synchronously with an empty vector —
  // the fan-out base case DistMap-style collections rely on.
  std::vector<MageFuture<std::int64_t>> none;
  bool resolved = false;
  std::size_t count = 999;
  when_all(none)
      .then([&](std::vector<std::int64_t>& values) {
        resolved = true;
        count = values.size();
      })
      .on_error([&](const std::string& error) {
        ADD_FAILURE() << "empty when_all failed: " << error;
      });
  EXPECT_TRUE(resolved);
  EXPECT_EQ(count, 0u);
}

TEST(FutureEdgeTest, WhenAnyOnEmptyVectorFailsCleanly) {
  // A race with no contestants can never produce a winner: it must fail
  // immediately (not hang) with a diagnosable error.
  std::vector<MageFuture<std::int64_t>> none;
  bool failed = false;
  std::string message;
  when_any(none)
      .then([&](std::pair<std::size_t, std::int64_t>&) {
        ADD_FAILURE() << "empty when_any produced a winner";
      })
      .on_error([&](const std::string& error) {
        failed = true;
        message = error;
      });
  EXPECT_TRUE(failed);
  EXPECT_EQ(message, "when_any on zero futures");
}

TEST(AsyncChaos, DigestIdenticalAcrossWorkerCountsAndSeeds) {
  for (std::uint64_t seed : {0xA51ull, 0xA52ull, 0xA53ull}) {
    const AsyncChaosRun base = run_async_chaos(seed, 1);
    ASSERT_TRUE(base.completed) << "seed " << seed;
    EXPECT_EQ(base.failures, 0) << "seed " << seed;
    // Exactly-once through every chase: the i-th add on a session returns
    // i, so the returned values of a session's K invokes must sum to
    // K(K+1)/2 — a duplicate or lost execution breaks the triangle sum.
    for (int s = 0; s < kChaosSessions; ++s) {
      const std::int64_t k = base.issued[s];
      EXPECT_EQ(base.retsum[s], k * (k + 1) / 2)
          << "seed " << seed << " session " << s;
    }
    for (int threads : {2, 8}) {
      const AsyncChaosRun replay = run_async_chaos(seed, threads);
      ASSERT_TRUE(replay.completed) << "seed " << seed << " x" << threads;
      EXPECT_EQ(replay.digests, base.digests)
          << "seed " << seed << " diverged at " << threads << " workers";
      EXPECT_EQ(replay.retsum, base.retsum);
      EXPECT_EQ(replay.issued, base.issued);
      EXPECT_EQ(replay.failures, base.failures);
      EXPECT_EQ(replay.relocates, base.relocates);
      EXPECT_EQ(replay.redirects, base.redirects);
    }
  }
}

}  // namespace
}  // namespace mage::rts

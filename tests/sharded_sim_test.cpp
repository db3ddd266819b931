// Sharded-simulation contract tests.
//
// The two load-bearing properties of sim::ShardedSim:
//
//   1. determinism — one seed fully determines each node's event order at
//      ANY worker-thread count (the conservative windows are a pure
//      function of event timestamps; mailbox drains happen in fixed source
//      order at barriers);
//   2. the threading contract is enforced, not advisory — configuration
//      mutations while workers run, driver-blocking calls on shard
//      threads, and zero-lookahead construction all throw.
//
// Plus engine parity: the same seeded mesh gives identical per-node logs and
// traffic counters on the single-queue driver engine and the sharded one.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "net/affinity.hpp"
#include "net/cost_model.hpp"
#include "net/network.hpp"
#include "rmi/transport.hpp"
#include "serial/writer.hpp"
#include "sim/sharded.hpp"
#include "support/chaos_harness.hpp"

namespace mage {
namespace {

net::CostModel lan_model() {
  net::CostModel m = net::CostModel::zero();
  m.propagation_us = 200;
  m.per_message_cpu_us = 20;
  m.connection_setup_us = 100;
  m.local_invoke_us = 1;
  return m;
}

// One delivery observed by a node: (caller, seq, shard-local sim time).
using Observation = std::tuple<std::uint32_t, std::uint64_t, common::SimTime>;

struct MeshParams {
  int nodes = 4;
  int calls_per_link = 30;
  int threads = 1;  // sharded engine with this many workers; 0: driver engine
  std::uint64_t seed = 99;
  bool clustered = false;  // two nodes per shard instead of one
  double loss = 0.0;
  bool link_latencies = false;  // a different extra latency per link
};

struct MeshRun {
  // Per node (indexed by NodeId): every echo it served, and every echo it
  // saw complete as the caller (callee, seq, time) — execution order plus
  // shard-local timestamps.
  std::vector<std::vector<Observation>> served;
  std::vector<std::vector<Observation>> completed;
  std::map<std::string, std::int64_t> counters;  // summed over contexts
};

// Runs a small all-to-all echo mesh on the sharded engine (or, with
// threads == 0, the driver engine) and returns each node's full
// observation logs plus the network/RMI counters.
MeshRun run_mesh(const MeshParams& p) {
  const net::CostModel model = lan_model();
  const std::size_t shards = static_cast<std::size_t>(
      p.clustered ? (p.nodes + 1) / 2 : p.nodes);
  std::vector<std::size_t> mapping;
  if (p.clustered) {
    for (int i = 0; i < p.nodes; ++i) {
      mapping.push_back(static_cast<std::size_t>(i / 2));
    }
  }
  std::unique_ptr<sim::Simulation> dsim;
  std::unique_ptr<sim::ShardedSim> ssim;
  std::unique_ptr<net::Network> net_ptr;
  if (p.threads == 0) {
    dsim = std::make_unique<sim::Simulation>(p.seed);
    net_ptr = std::make_unique<net::Network>(*dsim, model);
  } else {
    ssim = std::make_unique<sim::ShardedSim>(
        shards, p.seed, net::Network::min_link_latency(model));
    net_ptr = std::make_unique<net::Network>(*ssim, model, mapping);
  }
  net::Network& net = *net_ptr;

  std::vector<common::NodeId> ids;
  std::vector<std::unique_ptr<rmi::Transport>> transports;
  for (int i = 0; i < p.nodes; ++i) {
    ids.push_back(net.add_node("n" + std::to_string(i)));
  }
  for (int i = 0; i < p.nodes; ++i) {
    transports.push_back(std::make_unique<rmi::Transport>(net, ids[i]));
  }
  if (p.link_latencies) {
    for (int i = 0; i < p.nodes; ++i) {
      for (int j = 0; j < p.nodes; ++j) {
        if (i != j) {
          net.set_extra_latency(ids[i], ids[j], 37 * ((3 * i + j) % 5));
        }
      }
    }
    net.refresh_pair_lookaheads();
  }
  net.set_loss_rate(p.loss);

  MeshRun run;
  run.served.assign(static_cast<std::size_t>(p.nodes) + 1, {});
  run.completed.assign(static_cast<std::size_t>(p.nodes) + 1, {});
  const common::VerbId echo = common::intern_verb("sharded.echo");
  for (int i = 0; i < p.nodes; ++i) {
    auto* log = &run.served[ids[i].value()];
    auto& sim = net.node_sim(ids[i]);
    transports[i]->register_service(
        echo, [log, &sim](common::NodeId caller,
                          const serial::BufferChain& body,
                          rmi::Replier replier) {
          serial::ChainReader r(body);
          log->emplace_back(caller.value(), r.read_u64(), sim.now());
          replier.ok(body);
        });
  }

  struct Pipe {
    rmi::Transport* transport;
    common::NodeId dst;
    sim::Simulation* sim;
    std::vector<Observation>* log;
    std::int64_t next = 0;
    std::int64_t* completed = nullptr;
  };
  std::vector<std::int64_t> completed(static_cast<std::size_t>(p.nodes) + 1, 0);
  std::vector<Pipe> pipes;
  for (int i = 0; i < p.nodes; ++i) {
    for (int j = 0; j < p.nodes; ++j) {
      if (i != j) {
        pipes.push_back(Pipe{transports[i].get(), ids[j], &net.node_sim(ids[i]),
                             &run.completed[ids[i].value()], 0,
                             &completed[ids[i].value()]});
      }
    }
  }
  const int calls_per_link = p.calls_per_link;
  std::function<void(Pipe&)> next_call = [&](Pipe& pipe) {
    if (pipe.next >= calls_per_link) return;
    const auto seq = static_cast<std::uint64_t>(pipe.next++);
    serial::Writer w(8);
    w.write_u64(seq);
    pipe.transport->call(pipe.dst, echo, w.take(),
                         [&next_call, &pipe, seq](rmi::CallResult r) {
      // Thrown on a worker thread; ShardedSim::run_until rethrows it on
      // the driver (gtest assertions are not thread-safe off-thread).
      if (!r.ok) throw common::MageError("echo failed: " + r.error);
      pipe.log->emplace_back(pipe.dst.value(), seq, pipe.sim->now());
      ++*pipe.completed;
      next_call(pipe);
    });
  };
  for (auto& pipe : pipes) {
    next_call(pipe);
    next_call(pipe);  // window of 2 outstanding per link
  }

  const std::int64_t total =
      static_cast<std::int64_t>(p.nodes) * (p.nodes - 1) * calls_per_link;
  const auto all_done = [&] {
    std::int64_t sum = 0;
    for (auto c : completed) sum += c;
    return sum == total;
  };
  EXPECT_TRUE(dsim ? dsim->run_until(all_done)
                   : ssim->run_until(all_done, p.threads));
  for (const char* key : {"net.messages_sent", "net.messages_dropped",
                          "net.connections_opened", "rmi.retransmissions"}) {
    run.counters[key] =
        dsim ? dsim->stats().counter(key) : ssim->counter(key);
  }
  return run;
}

TEST(ShardedSim, SameSeedSameOrderAtAnyThreadCount) {
  MeshParams params;
  const auto one = run_mesh(params).served;
  params.threads = 2;
  const auto two = run_mesh(params).served;
  params.threads = 4;
  const auto four = run_mesh(params).served;
  ASSERT_EQ(one.size(), two.size());
  // Identical per-node event order AND identical shard-local timestamps:
  // the parallel execution replays the sequential one exactly.
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  // And the logs are non-trivial: every node saw every peer's full stream.
  for (std::size_t node = 1; node < one.size(); ++node) {
    EXPECT_EQ(one[node].size(), 3u * 30u);
  }
}

// --- engine parity -----------------------------------------------------------
//
// One network model for both engines: per-node random streams, directed
// connection warmth (a delivery warms the reply direction) and source-keyed
// delivery ties make every node's event order and timestamps — and the
// summed traffic counters — identical on the driver engine and on the
// sharded engine at any worker count and under any node:shard mapping.

void expect_engine_parity(double loss) {
  for (const std::uint64_t seed : {3ull, 17ull, 4242ull}) {
    MeshParams params;
    params.nodes = 6;
    params.calls_per_link = 20;
    params.seed = seed;
    params.loss = loss;
    params.link_latencies = true;
    params.threads = 0;
    const MeshRun driver = run_mesh(params);
    if (loss > 0.0) {
      EXPECT_GT(driver.counters.at("net.messages_dropped"), 0);
      EXPECT_GT(driver.counters.at("rmi.retransmissions"), 0);
    } else {
      EXPECT_EQ(driver.counters.at("net.messages_dropped"), 0);
    }
    for (const bool clustered : {false, true}) {
      for (const int threads : {1, 2, 8}) {
        params.clustered = clustered;
        params.threads = threads;
        const MeshRun sharded = run_mesh(params);
        const std::string where = "seed " + std::to_string(seed) +
                                  (clustered ? " clustered" : " identity") +
                                  " workers " + std::to_string(threads);
        EXPECT_EQ(driver.served, sharded.served) << where;
        EXPECT_EQ(driver.completed, sharded.completed) << where;
        EXPECT_EQ(driver.counters, sharded.counters) << where;
      }
    }
  }
}

TEST(EngineParity, LossFreeMeshIsIdenticalOnBothEngines) {
  expect_engine_parity(0.0);
}

TEST(EngineParity, LossyMeshIsIdenticalOnBothEngines) {
  expect_engine_parity(0.1);
}

TEST(ShardedSim, DifferentSeedsDiverge) {
  // The per-shard RNG streams (and so election timeouts drawn from them)
  // derive from the master seed; sanity-check the derivation by observing
  // shard RNGs directly.
  sim::ShardedSim a(2, 1, 100);
  sim::ShardedSim b(2, 2, 100);
  EXPECT_NE(a.shard(0).rng().next_below(1u << 30),
            b.shard(0).rng().next_below(1u << 30));
  EXPECT_NE(a.shard(0).rng().next_below(1u << 30),
            a.shard(1).rng().next_below(1u << 30));
}

TEST(ShardedSim, ZeroLookaheadRejected) {
  EXPECT_THROW(sim::ShardedSim(4, 7, 0), common::MageError);
}

TEST(ShardedSim, CostModelMustCoverLookahead) {
  sim::ShardedSim ssim(2, 7, 10'000);  // lookahead larger than any delay
  EXPECT_THROW(net::Network(ssim, net::CostModel::zero()),
               common::MageError);
}

TEST(ShardedSim, PostedEventsRunInTimeOrder) {
  sim::ShardedSim ssim(2, 7, 50);
  std::vector<int> order;
  // Driver-side posts before the run: both land in shard 1's mailbox and
  // must fire in time order regardless of post order.
  ssim.post(0, 1, 200, [&order] { order.push_back(2); });
  ssim.post(0, 1, 100, [&order] { order.push_back(1); });
  ssim.run_until_idle(2);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(ssim.shard(1).now(), 200);
}

TEST(ShardedSim, ConfigFrozenWhileWorkersRun) {
  const net::CostModel model = lan_model();
  sim::ShardedSim ssim(2, 7, net::Network::min_link_latency(model));
  net::Network net(ssim, model);
  net.add_node("a");
  net.add_node("b");
  // An event on a worker thread mutating global network config must throw;
  // the error surfaces through run_until on the driver.
  ssim.shard(0).schedule_after(10, [&net] { net.set_loss_rate(0.5); });
  EXPECT_THROW(ssim.run_until_idle(2), common::MageError);
  // Stopped again: configuration reopens.
  EXPECT_NO_THROW(net.set_loss_rate(0.0));
}

TEST(ShardedSim, TracingIsDriverModeOnly) {
  const net::CostModel model = lan_model();
  sim::ShardedSim ssim(2, 7, net::Network::min_link_latency(model));
  net::Network net(ssim, model);
  EXPECT_THROW(net.set_tracing(true), common::MageError);
}

TEST(ShardedSim, CallSyncIsDriverModeOnly) {
  const net::CostModel model = lan_model();
  sim::ShardedSim ssim(2, 7, net::Network::min_link_latency(model));
  net::Network net(ssim, model);
  const auto a = net.add_node("a");
  const auto b = net.add_node("b");
  rmi::Transport ta(net, a);
  rmi::Transport tb(net, b);
  tb.register_service("noop", [](common::NodeId, const serial::BufferChain&,
                                 rmi::Replier replier) {
    replier.ok({});
  });
  EXPECT_THROW((void)ta.call_sync(b, "noop", {}), common::MageError);
}

TEST(ShardedSim, SimulationAccessorIsDriverModeOnly) {
  const net::CostModel model = lan_model();
  sim::ShardedSim ssim(2, 7, net::Network::min_link_latency(model));
  net::Network net(ssim, model);
  EXPECT_THROW((void)net.simulation(), common::MageError);
  const auto a = net.add_node("a");
  EXPECT_EQ(&net.node_sim(a), &ssim.shard(0));
}

TEST(ShardedSim, CounterAggregatesAcrossShards) {
  sim::ShardedSim ssim(3, 7, 100);
  for (std::size_t i = 0; i < 3; ++i) {
    ssim.shard(i).stats().add("test.key", static_cast<std::int64_t>(i) + 1);
  }
  EXPECT_EQ(ssim.counter("test.key"), 6);
}

// --- affinity mapping + per-pair lookahead (ISSUE 10) ----------------------
//
// The WAN mesh is the geometry the remapped engine exists for: `sites`
// clusters of co-located nodes chattering all-to-all inside each site,
// joined by 20ms hops that only site leaders cross.  These tests pin the
// tentpole contract on that mesh: per-node delivery order (AND shard-local
// timestamps) are a pure function of the seed — independent of the
// node:shard mapping, of uniform vs per-pair lookahead, and of the worker
// count — while the mapping + matrix change only how much the run pays in
// windows and barriers.

constexpr common::SimDuration kTestWanHopUs = 20'000;

struct WanTestParams {
  int nodes = 16;
  int sites = 4;
  int calls_per_link = 6;   // site-local links
  int cross_calls = 3;      // leader <-> leader links
  bool identity = false;    // one shard per node instead of one per site
  bool per_pair = true;     // refresh the lookahead matrix from the model
  int threads = 2;
  std::uint64_t seed = 1;
  bool chaos = false;       // apply a seeded fault schedule mid-run
};

struct WanTestResult {
  bool completed = false;
  std::int64_t windows = 0;
  std::int64_t faults_applied = 0;
  std::vector<std::vector<Observation>> observed;
};

WanTestResult run_wan_mesh(const WanTestParams& p) {
  const net::CostModel model = net::CostModel::wan_site();
  const int per_site = p.nodes / p.sites;
  const std::size_t shard_count = static_cast<std::size_t>(
      p.identity ? p.nodes : p.sites);

  std::vector<net::AffinityEdge> edges;
  for (int s = 0; s < p.sites; ++s) {
    for (int a = 0; a < per_site; ++a) {
      for (int b = a + 1; b < per_site; ++b) {
        edges.push_back({static_cast<std::size_t>(s * per_site + a),
                         static_cast<std::size_t>(s * per_site + b),
                         2.0 * p.calls_per_link});
      }
    }
  }
  for (int s = 0; s < p.sites; ++s) {
    for (int t = s + 1; t < p.sites; ++t) {
      edges.push_back({static_cast<std::size_t>(s * per_site),
                       static_cast<std::size_t>(t * per_site),
                       2.0 * p.cross_calls});
    }
  }
  std::vector<std::size_t> mapping;
  if (!p.identity) {
    mapping = net::affinity_mapping(static_cast<std::size_t>(p.nodes),
                                    shard_count, edges);
  }

  sim::ShardedSim ssim(shard_count, p.seed,
                       net::Network::min_link_latency(model));
  net::Network net(ssim, model, std::move(mapping));

  std::vector<common::NodeId> ids;
  std::vector<std::unique_ptr<rmi::Transport>> transports;
  for (int i = 0; i < p.nodes; ++i) {
    ids.push_back(net.add_node("s" + std::to_string(i / per_site) + "n" +
                               std::to_string(i % per_site)));
  }
  for (int a = 0; a < p.nodes; ++a) {
    for (int b = 0; b < p.nodes; ++b) {
      if (a != b && a / per_site != b / per_site) {
        net.set_extra_latency(ids[a], ids[b], kTestWanHopUs);
      }
    }
  }
  for (int i = 0; i < p.nodes; ++i) {
    transports.push_back(std::make_unique<rmi::Transport>(net, ids[i]));
  }
  if (p.per_pair) net.refresh_pair_lookaheads();

  WanTestResult result;
  result.observed.assign(static_cast<std::size_t>(p.nodes) + 1, {});
  const common::VerbId echo = common::intern_verb("wan.echo");
  for (int i = 0; i < p.nodes; ++i) {
    auto* log = &result.observed[ids[i].value()];
    auto& sim = net.node_sim(ids[i]);
    transports[i]->register_service(
        echo, [log, &sim](common::NodeId caller,
                          const serial::BufferChain& body,
                          rmi::Replier replier) {
          serial::ChainReader r(body);
          log->emplace_back(caller.value(), r.read_u64(), sim.now());
          replier.ok(body);
        });
  }

  struct Pipe {
    rmi::Transport* transport;
    common::NodeId dst;
    std::int64_t next = 0;
    std::int64_t total = 0;
    std::int64_t* completed = nullptr;
  };
  std::vector<std::int64_t> completed(static_cast<std::size_t>(p.nodes) + 1,
                                      0);
  std::vector<Pipe> pipes;
  std::int64_t total_calls = 0;
  for (int a = 0; a < p.nodes; ++a) {
    for (int b = 0; b < p.nodes; ++b) {
      if (a == b) continue;
      const bool same_site = a / per_site == b / per_site;
      const bool leaders = a % per_site == 0 && b % per_site == 0;
      if (!same_site && !leaders) continue;
      const std::int64_t calls = same_site ? p.calls_per_link : p.cross_calls;
      pipes.push_back(Pipe{transports[a].get(), ids[b], 0, calls,
                           &completed[ids[a].value()]});
      total_calls += calls;
    }
  }
  std::function<void(Pipe&)> next_call = [&](Pipe& pipe) {
    if (pipe.next >= pipe.total) return;
    serial::Writer w(8);
    w.write_u64(static_cast<std::uint64_t>(pipe.next++));
    pipe.transport->call(pipe.dst, echo, w.take(),
                         [&next_call, &pipe](rmi::CallResult r) {
                           if (!r.ok) {
                             throw common::MageError("wan echo failed: " +
                                                     r.error);
                           }
                           ++*pipe.completed;
                           next_call(pipe);
                         });
  };

  if (p.chaos) {
    testing::ChaosParams chaos_params;
    chaos_params.nodes = p.nodes;
    chaos_params.fault_t0_us = 5'000;
    chaos_params.fault_span_us = 60'000;  // faults overlap the 40ms WAN RTTs
    net.set_fifo_checks(true);
    net.set_fault_schedule(
        testing::random_fault_schedule(p.seed, chaos_params));
    // Horizon ticks keep virtual time moving past the last schedule entry
    // even if the storm drains early, so every fault is guaranteed to fire.
    const common::SimTime horizon =
        chaos_params.fault_t0_us + chaos_params.fault_span_us * 2;
    for (common::SimTime t = 5'000; t <= horizon; t += 5'000) {
      net.node_sim(ids[0]).schedule_at(t, [] {}, sim::Wake::No);
    }
  }

  for (auto& pipe : pipes) {
    next_call(pipe);
    next_call(pipe);  // window of 2 outstanding per link
  }
  result.completed = ssim.run_until(
      [&] {
        std::int64_t sum = 0;
        for (auto c : completed) sum += c;
        return sum == total_calls &&
               (!p.chaos || net.pending_fault_events() == 0);
      },
      p.threads, /*deadline=*/60'000'000);
  result.windows = ssim.windows();
  result.faults_applied = ssim.counter("net.faults_applied");
  return result;
}

TEST(ShardedAffinity, MappingDoesNotChangeDelivery) {
  // Clustered (one site per shard) vs identity (one node per shard): the
  // mapping decides which messages ride the intra-shard fast path, and it
  // must change NOTHING about what each node observes — order or clock.
  WanTestParams clustered;
  WanTestParams identity;
  identity.identity = true;
  const WanTestResult a = run_wan_mesh(clustered);
  const WanTestResult b = run_wan_mesh(identity);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(a.observed, b.observed);
  // The payoff the mapping exists for: site-local traffic stops bounding
  // the windows, so the clustered run syncs strictly less often.
  EXPECT_LT(a.windows, b.windows);
}

TEST(ShardedAffinity, PerPairLookaheadPreservesDelivery) {
  // The matrix widens windows (cross-shard links all carry the 20ms WAN
  // hop, so window_end can jump by it); it must not move any delivery.
  WanTestParams matrix;
  WanTestParams uniform;
  uniform.per_pair = false;
  const WanTestResult a = run_wan_mesh(matrix);
  const WanTestResult b = run_wan_mesh(uniform);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(a.observed, b.observed);
  // Uniform lookahead is the 60us model floor; the per-pair matrix rides
  // the 20ms hop, so the same run commits strictly fewer windows.  (The
  // gap is modest here only because the frontier jumps across empty
  // stretches of virtual time; the bench meshes show the full payoff.)
  EXPECT_LT(a.windows, b.windows);
}

TEST(ShardedAffinity, DeterministicAcrossWorkersAndSeeds) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    WanTestParams params;
    params.seed = seed;
    params.threads = 1;
    const WanTestResult one = run_wan_mesh(params);
    params.threads = 2;
    const WanTestResult two = run_wan_mesh(params);
    params.threads = 8;
    const WanTestResult eight = run_wan_mesh(params);
    ASSERT_TRUE(one.completed && two.completed && eight.completed);
    EXPECT_EQ(one.observed, two.observed) << "seed " << seed;
    EXPECT_EQ(one.observed, eight.observed) << "seed " << seed;
  }
}

TEST(ShardedAffinity, ChaosStormOnWanMesh) {
  // The 64-node WAN mesh under a seeded fault schedule (loss bursts, a
  // partition/heal, node crash/restarts): the full chaos machinery rides
  // the affinity mapping + lookahead matrix, and the run stays a pure
  // function of the seed at any worker count.
  WanTestParams params;
  params.nodes = 64;
  params.sites = 8;
  params.calls_per_link = 4;
  params.cross_calls = 2;
  params.chaos = true;
  params.seed = 7;
  params.threads = 1;
  const WanTestResult one = run_wan_mesh(params);
  params.threads = 2;
  const WanTestResult two = run_wan_mesh(params);
  ASSERT_TRUE(one.completed);
  ASSERT_TRUE(two.completed);
  EXPECT_GT(one.faults_applied, 0);
  EXPECT_EQ(one.faults_applied, two.faults_applied);
  EXPECT_EQ(one.observed, two.observed);
  // Exactly-once under chaos: every (caller, seq) executed exactly once on
  // its destination despite drops and retransmissions.
  for (std::size_t node = 1; node < one.observed.size(); ++node) {
    std::map<std::pair<std::uint32_t, std::uint64_t>, int> counts;
    for (const Observation& o : one.observed[node]) {
      ++counts[{std::get<0>(o), std::get<1>(o)}];
    }
    for (const auto& [key, count] : counts) {
      EXPECT_EQ(count, 1) << "node " << node << " caller " << key.first
                          << " seq " << key.second;
    }
  }
}

TEST(ShardedAffinity, MatrixValidationNamesTheBadLink) {
  // A matrix entry smaller than the fastest message the model can deliver
  // across that shard pair would let a post land inside a committed
  // window — the old engine deadlocked; the new one throws naming the
  // link before any worker starts.
  const net::CostModel model = net::CostModel::wan_site();
  sim::ShardedSim ssim(2, 7, net::Network::min_link_latency(model));
  net::Network net(ssim, model, std::vector<std::size_t>{0, 1});
  net.add_node("alpha");
  net.add_node("beta");
  net.refresh_pair_lookaheads();
  EXPECT_NO_THROW(net.validate_pair_lookaheads());
  // Hand-corrupt one direction: claim 1 second of lookahead on a link the
  // model can cross in ~60us.
  ssim.set_pair_lookahead(0, 1, 1'000'000);
  try {
    net.validate_pair_lookaheads();
    FAIL() << "validate_pair_lookaheads accepted an unsound matrix";
  } catch (const common::MageError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("alpha"), std::string::npos) << what;
    EXPECT_NE(what.find("beta"), std::string::npos) << what;
  }
  // The setter itself rejects degenerate entries outright.
  EXPECT_THROW(ssim.set_pair_lookahead(0, 1, 0), common::MageError);
  EXPECT_THROW(ssim.set_pair_lookahead(0, 2, 100), common::MageError);
}

TEST(ShardedAffinity, MappingClustersHeavyEdgesWithinCapacity) {
  // 8 nodes, 2 shards: heavy edges inside {0..3} and {4..7}, light edges
  // across.  The greedy clusterer must recover the two groups exactly and
  // be a pure function of its inputs.
  std::vector<net::AffinityEdge> edges;
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = a + 1; b < 4; ++b) {
      edges.push_back({a, b, 100.0});
      edges.push_back({a + 4, b + 4, 100.0});
    }
  }
  edges.push_back({0, 4, 1.0});
  const auto mapping = net::affinity_mapping(8, 2, edges);
  ASSERT_EQ(mapping.size(), 8u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(mapping[i], mapping[0]);
    EXPECT_EQ(mapping[i + 4], mapping[4]);
  }
  EXPECT_NE(mapping[0], mapping[4]);  // capacity 4 forbids one mega-group
  EXPECT_EQ(mapping, net::affinity_mapping(8, 2, edges));
  EXPECT_THROW(net::affinity_mapping(8, 0, {}), common::MageError);
  EXPECT_THROW(net::affinity_mapping(2, 2, {{0, 5, 1.0}}),
               common::MageError);
}

}  // namespace
}  // namespace mage

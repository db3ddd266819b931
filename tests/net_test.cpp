// Unit tests for the simulated network: delivery timing, connection warmup,
// ordering, loss/partition injection, tracing, load.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "net/cost_model.hpp"
#include "net/network.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"

namespace mage::net {
namespace {

enum class Engine { Driver, Sharded };

struct NetFixture : ::testing::Test {
  sim::Simulation sim{1};
  // Set when the network runs on the sharded engine (one shard per node).
  std::unique_ptr<sim::ShardedSim> sharded;
  CostModel model = CostModel::zero();

  std::unique_ptr<Network> make(CostModel m) {
    return make_on(Engine::Driver, m);
  }

  std::unique_ptr<Network> make_on(Engine engine, CostModel m) {
    std::unique_ptr<Network> net;
    if (engine == Engine::Sharded) {
      sharded = std::make_unique<sim::ShardedSim>(3, 1,
                                                  Network::min_link_latency(m));
      net = std::make_unique<Network>(*sharded, m);
    } else {
      net = std::make_unique<Network>(sim, m);
    }
    a = net->add_node("a");
    b = net->add_node("b");
    c = net->add_node("c");
    return net;
  }

  void run_until_idle() {
    if (sharded) {
      sharded->run_until_idle(1);
    } else {
      sim.run_until_idle();
    }
  }

  [[nodiscard]] std::int64_t counter(const std::string& key) {
    return sharded ? sharded->counter(key) : sim.stats().counter(key);
  }

  common::NodeId a, b, c;
};

// The same test body on both engines: nodes get one shard each on the
// sharded one, so every message crosses shards.  Each shard keeps its own
// clock, so times are read from the node's context (net.node_sim).
struct NetEngines : NetFixture, ::testing::WithParamInterface<Engine> {
  std::unique_ptr<Network> make(CostModel m) { return make_on(GetParam(), m); }
};

INSTANTIATE_TEST_SUITE_P(
    Engines, NetEngines, ::testing::Values(Engine::Driver, Engine::Sharded),
    [](const ::testing::TestParamInfo<Engine>& info) {
      return info.param == Engine::Driver ? std::string("Driver")
                                          : std::string("Sharded");
    });

Message msg(common::NodeId from, common::NodeId to, std::size_t payload = 4) {
  return Message{from,          to, common::intern_verb("test"),
                 MsgKind::Request, {},
                 serial::Buffer(std::vector<std::uint8_t>(payload, 0))};
}

TEST_F(NetFixture, DeliversToHandler) {
  auto net = make(CostModel::zero());
  std::optional<Message> got;
  net->set_handler(b, [&got](Message m) { got = std::move(m); });
  net->send(msg(a, b));
  sim.run_until_idle();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->from, a);
  EXPECT_EQ(got->verb, common::intern_verb("test"));
  EXPECT_EQ(got->label(), "test");
}

TEST_F(NetFixture, WireSizeIncludesHeader) {
  EXPECT_EQ(msg(a, b, 10).wire_size(), 10 + kHeaderBytes);
}

TEST_F(NetFixture, DeliveryTimeMatchesCostModel) {
  CostModel m = CostModel::zero();
  m.propagation_us = 100;
  m.bytes_per_usec = 1.0;  // 1 byte per us
  m.per_message_cpu_us = 50;
  auto net = make(m);
  common::SimTime delivered_at = -1;
  net->set_handler(b, [&](Message) { delivered_at = sim.now(); });
  net->send(msg(a, b, 4));  // wire = 4 + 96 = 100 bytes -> 100us
  sim.run_until_idle();
  EXPECT_EQ(delivered_at, 100 + 100 + 50);
}

TEST_P(NetEngines, ConnectionSetupChargedOncePerPair) {
  CostModel m = CostModel::zero();
  m.propagation_us = 10;
  m.connection_setup_us = 1000;
  m.bytes_per_usec = 1e9;
  auto net = make(m);
  std::vector<common::SimTime> deliveries;
  sim::Simulation& b_sim = net->node_sim(b);
  net->set_handler(b, [&](Message) { deliveries.push_back(b_sim.now()); });
  net->send(msg(a, b));
  run_until_idle();
  ASSERT_EQ(deliveries.size(), 1u);
  // The second send leaves a's context once the first has landed (a's own
  // clock has not moved on the sharded engine: a ran no event).
  net->node_sim(a).schedule_at(deliveries[0],
                               [&net, this] { net->send(msg(a, b)); });
  run_until_idle();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], 1010);           // cold: setup + propagation
  EXPECT_EQ(deliveries[1] - deliveries[0], 10);  // warm: propagation only
  EXPECT_EQ(counter("net.connections_opened"), 1);
}

TEST_P(NetEngines, ConnectionIsWarmInBothDirections) {
  CostModel m = CostModel::zero();
  m.propagation_us = 10;
  m.connection_setup_us = 1000;
  auto net = make(m);
  net->set_handler(b, [](Message) {});
  net->set_handler(a, [](Message) {});
  net->send(msg(a, b));
  run_until_idle();
  const auto t0 = net->node_sim(b).now();
  net->send(msg(b, a));  // reverse direction reuses the connection
  run_until_idle();
  EXPECT_EQ(net->node_sim(a).now() - t0, 10);
}

TEST_P(NetEngines, NegativeExtraLatencyIsRejected) {
  // A negative extra latency would deliver a message before it was sent
  // (the driver engine's clock would run backwards).
  CostModel m = CostModel::zero();
  m.propagation_us = 10;
  auto net = make(m);
  EXPECT_THROW(net->set_extra_latency(a, b, -1000), common::MageError);
  common::SimTime delivered_at = -1;
  sim::Simulation& b_sim = net->node_sim(b);
  net->set_handler(b, [&](Message) { delivered_at = b_sim.now(); });
  net->node_sim(a).schedule_at(5000, [&net, this] { net->send(msg(a, b)); });
  run_until_idle();
  EXPECT_EQ(delivered_at, 5010);
}

TEST_F(NetFixture, ResetConnectionsRestoresColdCost) {
  CostModel m = CostModel::zero();
  m.connection_setup_us = 500;
  m.propagation_us = 1;
  auto net = make(m);
  net->set_handler(b, [](Message) {});
  net->send(msg(a, b));
  sim.run_until_idle();
  net->reset_connections();
  const auto t0 = sim.now();
  net->send(msg(a, b));
  sim.run_until_idle();
  EXPECT_EQ(sim.now() - t0, 501);
}

TEST_F(NetFixture, LoopbackIsCheapAndLossless) {
  CostModel m = CostModel::zero();
  m.local_invoke_us = 3;
  m.connection_setup_us = 1000;
  auto net = make(m);
  net->set_loss_rate(1.0);  // would drop every network message
  bool got = false;
  net->set_handler(a, [&](Message) { got = true; });
  net->send(msg(a, a));
  sim.run_until_idle();
  EXPECT_TRUE(got);
  EXPECT_EQ(sim.now(), 3);
  EXPECT_EQ(sim.stats().counter("net.connections_opened"), 0);
}

TEST_F(NetFixture, LossRateDropsMessages) {
  auto net = make(CostModel::zero());
  net->set_loss_rate(0.5);
  int got = 0;
  net->set_handler(b, [&](Message) { ++got; });
  for (int i = 0; i < 200; ++i) net->send(msg(a, b));
  sim.run_until_idle();
  EXPECT_GT(got, 50);
  EXPECT_LT(got, 150);
  EXPECT_EQ(got + sim.stats().counter("net.messages_dropped"), 200);
}

TEST_F(NetFixture, PartitionBlocksBothDirections) {
  auto net = make(CostModel::zero());
  int got = 0;
  net->set_handler(a, [&](Message) { ++got; });
  net->set_handler(b, [&](Message) { ++got; });
  net->set_partitioned(a, b, true);
  net->send(msg(a, b));
  net->send(msg(b, a));
  sim.run_until_idle();
  EXPECT_EQ(got, 0);
  net->set_partitioned(a, b, false);
  net->send(msg(a, b));
  sim.run_until_idle();
  EXPECT_EQ(got, 1);
}

TEST_F(NetFixture, PartitionDoesNotAffectThirdParty) {
  auto net = make(CostModel::zero());
  bool got = false;
  net->set_handler(c, [&](Message) { got = true; });
  net->set_partitioned(a, b, true);
  net->send(msg(a, c));
  sim.run_until_idle();
  EXPECT_TRUE(got);
}

TEST_F(NetFixture, ExtraLatencyIsDirectional) {
  CostModel m = CostModel::zero();
  m.propagation_us = 10;
  auto net = make(m);
  net->set_extra_latency(a, b, 500);
  common::SimTime ab = -1, ba = -1;
  net->set_handler(b, [&](Message) { ab = sim.now(); });
  net->set_handler(a, [&](Message) { ba = sim.now(); });
  net->send(msg(a, b));
  sim.run_until_idle();
  const auto t0 = sim.now();
  net->send(msg(b, a));
  sim.run_until_idle();
  EXPECT_EQ(ab, 510);
  EXPECT_EQ(ba - t0, 10);
}

TEST_F(NetFixture, InOrderDeliveryPerLink) {
  // A big message followed by a small one: FIFO ordering must hold even
  // though the small one would naturally arrive first.
  CostModel m = CostModel::zero();
  m.propagation_us = 10;
  m.bytes_per_usec = 0.001;  // brutally slow wire
  auto net = make(m);
  std::vector<std::string> order;
  net->set_handler(b, [&](Message m2) { order.push_back(m2.label()); });
  Message big{a,           b, common::intern_verb("big"),
              MsgKind::Request, {},
              serial::Buffer(std::vector<std::uint8_t>(10'000, 0))};
  Message small{a, b, common::intern_verb("small"), MsgKind::Request, {}, {}};
  net->send(big);
  net->send(small);
  sim.run_until_idle();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "big");
  EXPECT_EQ(order[1], "small");
}

TEST_F(NetFixture, TraceRecordsDeliveriesAndDrops) {
  auto net = make(CostModel::zero());
  net->set_tracing(true);
  net->set_handler(b, [](Message) {});
  net->send(msg(a, b));
  net->set_partitioned(a, b, true);
  net->send(msg(a, b));
  sim.run_until_idle();
  ASSERT_EQ(net->trace().size(), 2u);
  EXPECT_FALSE(net->trace()[0].dropped);
  EXPECT_TRUE(net->trace()[1].dropped);
  net->clear_trace();
  EXPECT_TRUE(net->trace().empty());
}

TEST_F(NetFixture, LoadIsPerNode) {
  auto net = make(CostModel::zero());
  net->set_load(a, 42.0);
  EXPECT_DOUBLE_EQ(net->load(a), 42.0);
  EXPECT_DOUBLE_EQ(net->load(b), 0.0);
}

TEST_F(NetFixture, NodeLabels) {
  auto net = make(CostModel::zero());
  EXPECT_EQ(net->label(a), "a");
  EXPECT_EQ(net->label(c), "c");
  EXPECT_EQ(net->node_count(), 3u);
  EXPECT_EQ(net->node_ids().size(), 3u);
}

TEST_F(NetFixture, StatsCountMessages) {
  auto net = make(CostModel::zero());
  net->set_handler(b, [](Message) {});
  net->send(msg(a, b, 10));
  sim.run_until_idle();
  EXPECT_EQ(sim.stats().counter("net.messages_sent"), 1);
  EXPECT_EQ(sim.stats().counter("net.messages_delivered"), 1);
  EXPECT_EQ(sim.stats().counter("net.bytes_sent"),
            static_cast<std::int64_t>(10 + kHeaderBytes));
}

// --- cost model presets -----------------------------------------------------

TEST(CostModel, WireTimeMath) {
  CostModel m;
  m.bytes_per_usec = 1.25;  // 10 Mb/s
  EXPECT_EQ(m.wire_time(1250), 1000);
}

TEST(CostModel, MarshalTimeMath) {
  CostModel m;
  m.marshal_us_per_byte = 2.0;
  EXPECT_EQ(m.marshal_time(100), 200);
}

TEST(CostModel, ClassicPresetIsTenMbit) {
  const auto m = CostModel::jdk122_classic();
  EXPECT_DOUBLE_EQ(m.bytes_per_usec, 1.25);
  EXPECT_GT(m.rmi_client_overhead_us, 1000);
  EXPECT_GT(m.engine_warmup_us, 10'000);
}

TEST(CostModel, ModernPresetIsMuchFaster) {
  const auto classic = CostModel::jdk122_classic();
  const auto modern = CostModel::modern_lan();
  EXPECT_LT(modern.rmi_client_overhead_us, classic.rmi_client_overhead_us);
  EXPECT_GT(modern.bytes_per_usec, classic.bytes_per_usec);
}

}  // namespace
}  // namespace mage::net

// Unit tests for the RMI layer: request/reply, marshalled envelopes,
// at-most-once execution under retransmission, loss recovery, deferred
// replies, error propagation, containment of malformed frames.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "net/network.hpp"
#include "rmi/envelope.hpp"
#include "rmi/transport.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"

namespace mage::rmi {
namespace {

serial::Buffer bytes(std::initializer_list<std::uint8_t> list) {
  return serial::Buffer(std::vector<std::uint8_t>{list});
}

// --- envelope ----------------------------------------------------------------

TEST(Envelope, RequestRoundTrip) {
  Envelope e;
  e.kind = EnvelopeKind::Request;
  e.request_id = common::RequestId{42};
  e.verb = common::intern_verb("mage.invoke");
  e.body = bytes({1, 2, 3});
  const auto decoded = Envelope::decode(e.encode());
  EXPECT_EQ(decoded.kind, EnvelopeKind::Request);
  EXPECT_EQ(decoded.request_id, common::RequestId{42});
  EXPECT_EQ(decoded.verb, common::intern_verb("mage.invoke"));
  EXPECT_EQ(decoded.body, bytes({1, 2, 3}));
}

TEST(Envelope, ReplyOkRoundTrip) {
  Envelope e;
  e.kind = EnvelopeKind::Reply;
  e.request_id = common::RequestId{7};
  e.verb = common::intern_verb("v");
  e.ok = true;
  e.body = bytes({9});
  const auto decoded = Envelope::decode(e.encode());
  EXPECT_TRUE(decoded.ok);
  EXPECT_EQ(decoded.body, bytes({9}));
}

TEST(Envelope, ReplyErrorRoundTrip) {
  Envelope e;
  e.kind = EnvelopeKind::Reply;
  e.request_id = common::RequestId{7};
  e.verb = common::intern_verb("v");
  e.ok = false;
  e.error = "kaboom";
  const auto decoded = Envelope::decode(e.encode());
  EXPECT_FALSE(decoded.ok);
  EXPECT_EQ(decoded.error, "kaboom");
}

TEST(Envelope, BadKindThrows) {
  serial::Buffer junk(std::vector<std::uint8_t>{9, 0, 0, 0, 0, 0, 0, 0, 0});
  EXPECT_THROW((void)Envelope::decode(junk), common::SerializationError);
}

TEST(Envelope, TruncatedBodyThrows) {
  Envelope e;
  e.kind = EnvelopeKind::Request;
  e.request_id = common::RequestId{1};
  e.verb = common::intern_verb("v");
  e.body = bytes({1, 2, 3, 4});
  const auto flat = e.encode();
  // Chop two payload bytes off: the header's declared body size no longer
  // matches what follows.
  const auto truncated = flat.slice(0, flat.size() - 2);
  EXPECT_THROW((void)Envelope::decode(truncated), common::SerializationError);
}

TEST(Envelope, ScatterGatherMatchesFlatEncoding) {
  Envelope e;
  e.kind = EnvelopeKind::Reply;
  e.request_id = common::RequestId{99};
  e.verb = common::intern_verb("mage.invoke");
  e.ok = true;
  e.body = bytes({11, 22, 33});
  const auto header = e.encode_header();
  const auto flat = e.encode();
  // flat == header ++ body
  ASSERT_EQ(flat.size(), header.size() + e.body.size());
  EXPECT_EQ(flat.slice(0, header.size()), header);
  EXPECT_EQ(flat.slice(header.size(), e.body.size()), e.body);
  const auto decoded = Envelope::decode(header, e.body);
  EXPECT_EQ(decoded.request_id, common::RequestId{99});
  EXPECT_EQ(decoded.body, e.body);
}

TEST(Envelope, SingleFragmentFastPathLayout) {
  Envelope e;
  e.kind = EnvelopeKind::Request;
  e.request_id = common::RequestId{7};
  e.verb = common::intern_verb("v");
  e.body = bytes({1, 2, 3, 4});

  Envelope::reset_header_counters();
  const auto header = e.encode_header();
  EXPECT_EQ(Envelope::fast_path_headers(), 1u);
  EXPECT_EQ(Envelope::list_path_headers(), 0u);
  // tag | u64 id | u32 verb | u32 size — no count byte, no size list.
  ASSERT_EQ(header.size(), 1u + 8u + 4u + 4u);
  EXPECT_EQ(header[0] & 0x40, 0x40);  // kSingleFragmentFlag
  EXPECT_EQ(header[0] & ~0x40, 0);    // kind = Request

  const auto decoded = Envelope::decode(header, e.body);
  EXPECT_EQ(decoded.kind, EnvelopeKind::Request);
  EXPECT_EQ(decoded.request_id, common::RequestId{7});
  EXPECT_EQ(decoded.body, e.body);

  const auto from_flat = Envelope::decode(e.encode());
  EXPECT_EQ(from_flat.body, e.body);
}

TEST(Envelope, MultiFragmentBodiesUseTheListPath) {
  Envelope e;
  e.kind = EnvelopeKind::Reply;
  e.request_id = common::RequestId{8};
  e.verb = common::intern_verb("v");
  e.ok = true;
  e.body.append(bytes({1, 2}));
  e.body.append(bytes({3, 4, 5}));

  Envelope::reset_header_counters();
  const auto decoded = Envelope::decode(e.encode_header(), e.body);
  EXPECT_EQ(Envelope::fast_path_headers(), 0u);
  EXPECT_EQ(Envelope::list_path_headers(), 1u);
  EXPECT_EQ(decoded.body, e.body);
  EXPECT_EQ(decoded.body.fragments(), 2u);
}

TEST(Envelope, EmptyBodyUsesTheListPath) {
  Envelope e;
  e.kind = EnvelopeKind::Request;
  e.request_id = common::RequestId{9};
  e.verb = common::intern_verb("v");

  Envelope::reset_header_counters();
  const auto decoded = Envelope::decode(e.encode());
  EXPECT_EQ(Envelope::list_path_headers(), 1u);
  EXPECT_EQ(decoded.body.fragments(), 0u);
  EXPECT_TRUE(decoded.body.empty());
}

TEST(Envelope, FastPathSizeMismatchRejected) {
  Envelope e;
  e.kind = EnvelopeKind::Request;
  e.request_id = common::RequestId{10};
  e.verb = common::intern_verb("v");
  e.body = bytes({1, 2, 3, 4});
  const auto header = e.encode_header();
  serial::BufferChain wrong = bytes({1, 2, 3});
  EXPECT_THROW((void)Envelope::decode(header, wrong),
               common::SerializationError);
}

// --- transport ------------------------------------------------------------------

struct RmiFixture : ::testing::Test {
  sim::Simulation sim{7};
  net::Network net{sim, net::CostModel::zero()};
  common::NodeId a = net.add_node("a");
  common::NodeId b = net.add_node("b");
  Transport ta{net, a};
  Transport tb{net, b};
};

TEST_F(RmiFixture, EchoCall) {
  tb.register_service("echo", [](common::NodeId, const auto& body,
                                 Replier replier) { replier.ok(body); });
  auto result = ta.call_sync(b, "echo", bytes({5, 6}));
  EXPECT_EQ(result, bytes({5, 6}));
  EXPECT_EQ(sim.stats().counter("rmi.calls"), 1);
}

TEST_F(RmiFixture, CallerIdentityIsPassed) {
  std::optional<common::NodeId> seen;
  tb.register_service("who", [&seen](common::NodeId caller, const auto&,
                                     Replier replier) {
    seen = caller;
    replier.ok({});
  });
  (void)ta.call_sync(b, "who", {});
  EXPECT_EQ(seen, a);
}

TEST_F(RmiFixture, RemoteErrorPropagates) {
  tb.register_service("fail", [](common::NodeId, const auto&,
                                 Replier replier) {
    replier.error("application exploded");
  });
  EXPECT_THROW((void)ta.call_sync(b, "fail", {}),
               common::RemoteInvocationError);
}

TEST_F(RmiFixture, UnknownVerbIsRemoteError) {
  try {
    (void)ta.call_sync(b, "nope", {});
    FAIL() << "expected exception";
  } catch (const common::RemoteInvocationError& e) {
    EXPECT_NE(std::string(e.what()).find("no service"), std::string::npos);
  }
}

TEST_F(RmiFixture, LoopbackCallWorks) {
  ta.register_service("self", [](common::NodeId, const auto&,
                                 Replier replier) { replier.ok({}); });
  EXPECT_NO_THROW((void)ta.call_sync(a, "self", {}));
}

TEST_F(RmiFixture, DeferredReply) {
  // The service holds its Replier and answers 1ms later — the pattern all
  // multi-party MAGE protocols use.
  std::optional<Replier> parked;
  tb.register_service("later", [&parked](common::NodeId, const auto&,
                                         Replier replier) {
    parked = std::move(replier);
  });
  std::optional<CallResult> result;
  ta.call(b, "later", {}, [&result](CallResult r) { result = std::move(r); });
  sim.run_until([&parked] { return parked.has_value(); });
  EXPECT_FALSE(result.has_value());
  sim.schedule_after(1000, [&parked] { parked->ok(bytes({1})); });
  sim.run_until([&result] { return result.has_value(); });
  EXPECT_TRUE(result->ok);
}

TEST_F(RmiFixture, ConcurrentCallsMatchReplies) {
  tb.register_service("id", [](common::NodeId, const auto& body,
                               Replier replier) { replier.ok(body); });
  std::vector<std::optional<CallResult>> results(10);
  for (std::uint8_t i = 0; i < 10; ++i) {
    ta.call(b, "id", bytes({i}), [&results, i](CallResult r) {
      results[i] = std::move(r);
    });
  }
  sim.run_until_idle();
  for (std::uint8_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(results[i].has_value());
    EXPECT_EQ(results[i]->body, bytes({i}));
  }
}

struct LossyRmiFixture : ::testing::Test {
  sim::Simulation sim{11};
  net::Network net{sim, net::CostModel::zero()};
  common::NodeId a = net.add_node("a");
  common::NodeId b = net.add_node("b");
  Transport ta{net, a};
  Transport tb{net, b};
};

TEST_F(LossyRmiFixture, RetransmissionRecoversFromLoss) {
  net.set_loss_rate(0.4);
  int executions = 0;
  tb.register_service("inc", [&executions](common::NodeId, const auto&,
                                           Replier replier) {
    ++executions;
    replier.ok({});
  });
  CallOptions options;
  options.retry_timeout_us = 10'000;
  options.max_attempts = 50;
  for (int i = 0; i < 50; ++i) {
    EXPECT_NO_THROW((void)ta.call_sync(b, "inc", {}, options));
  }
  // At-most-once: every call executed exactly once despite retransmission.
  EXPECT_EQ(executions, 50);
  EXPECT_GT(sim.stats().counter("rmi.retransmissions"), 0);
}

TEST_F(LossyRmiFixture, DuplicateRequestsAreSuppressed) {
  // Drop every reply by hand: partition after first delivery is fiddly, so
  // instead use 100% loss on the b->a direction via extra trick: we
  // partition after the request arrives, forcing a retransmission storm,
  // then heal and confirm a single execution.
  int executions = 0;
  tb.register_service("once", [&executions](common::NodeId, const auto&,
                                            Replier replier) {
    ++executions;
    replier.ok({});
  });

  CallOptions options;
  options.retry_timeout_us = 5'000;
  options.max_attempts = 20;
  std::optional<CallResult> result;
  ta.call(b, "once", {}, [&result](CallResult r) { result = std::move(r); },
          options);
  // Let the request arrive and the reply vanish into a partition.
  sim.run_until([&executions] { return executions == 1; });
  net.set_partitioned(a, b, true);
  sim.run_for(20'000);  // several retransmission timeouts fire into the void
  net.set_partitioned(a, b, false);
  sim.run_until([&result] { return result.has_value(); });
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(executions, 1);
  EXPECT_GT(sim.stats().counter("rmi.duplicates_suppressed"), 0);
}

TEST_F(LossyRmiFixture, ExhaustedRetriesFailTheCall) {
  net.set_partitioned(a, b, true);
  tb.register_service("void", [](common::NodeId, const auto&,
                                 Replier replier) { replier.ok({}); });
  CallOptions options;
  options.retry_timeout_us = 1'000;
  options.max_attempts = 3;
  EXPECT_THROW((void)ta.call_sync(b, "void", {}, options),
               common::TransportError);
  EXPECT_EQ(sim.stats().counter("rmi.failures"), 1);
}

TEST_F(LossyRmiFixture, StaleRepliesAreIgnored) {
  // A reply that arrives after the call already failed must not crash or
  // double-complete.
  std::optional<Replier> parked;
  tb.register_service("slow", [&parked](common::NodeId, const auto&,
                                        Replier replier) {
    parked = std::move(replier);
  });
  CallOptions options;
  options.retry_timeout_us = 1'000;
  options.max_attempts = 2;
  std::optional<CallResult> result;
  ta.call(b, "slow", {}, [&result](CallResult r) { result = std::move(r); },
          options);
  sim.run_until([&result] { return result.has_value(); });
  EXPECT_FALSE(result->ok);  // timed out
  ASSERT_TRUE(parked.has_value());
  parked->ok({});  // late reply
  sim.run_until_idle();
  EXPECT_GE(sim.stats().counter("rmi.stale_replies"), 1);
}

// Cost accounting: with the classic model, a warm trivial call should land
// in the ballpark the paper measured for Java RMI (~18-20 ms warm).
TEST(RmiCost, WarmCallMatchesCalibration) {
  sim::Simulation sim(3);
  net::Network net(sim, net::CostModel::jdk122_classic());
  const auto a = net.add_node("a");
  const auto b = net.add_node("b");
  Transport ta(net, a);
  Transport tb(net, b);
  tb.register_service("noop", [](common::NodeId, const auto&,
                                 Replier replier) { replier.ok({}); });
  (void)ta.call_sync(b, "noop", {});  // cold call pays connection setup
  const auto warm_start = sim.now();
  (void)ta.call_sync(b, "noop", {});
  const double warm_ms = common::to_ms(sim.now() - warm_start);
  EXPECT_GT(warm_ms, 14.0);
  EXPECT_LT(warm_ms, 24.0);
}

TEST(RmiCost, ColdCallPaysConnectionSetup) {
  sim::Simulation sim(3);
  net::Network net(sim, net::CostModel::jdk122_classic());
  const auto a = net.add_node("a");
  const auto b = net.add_node("b");
  Transport ta(net, a);
  Transport tb(net, b);
  tb.register_service("noop", [](common::NodeId, const auto&,
                                 Replier replier) { replier.ok({}); });
  const auto t0 = sim.now();
  (void)ta.call_sync(b, "noop", {});
  const double cold_ms = common::to_ms(sim.now() - t0);
  const auto t1 = sim.now();
  (void)ta.call_sync(b, "noop", {});
  const double warm_ms = common::to_ms(sim.now() - t1);
  EXPECT_GT(cold_ms, warm_ms + 5.0);  // setup is worth >5ms
}

// --- hostile input -----------------------------------------------------------

// A frame that does not decode is dropped and counted by the node that
// receives it (rmi.malformed_frames); it is never thrown into the engine,
// so the next, unrelated call on the same link completes.  The parameter
// is the engine: 0 = driver, else the sharded engine at that many workers.
struct MalformedFrame : ::testing::TestWithParam<int> {
  // One node per shard, so the pool really runs as many workers as the
  // largest parameter asks for (it is capped at the shard count).  The
  // probe's two ends are the first and last node: on different workers
  // at every sharded parameter above 1.
  static constexpr std::size_t kShards = 8;

  // Sends `frame` a->b, then an echo call a->b, and runs until it replies.
  void probe(serial::Buffer frame) {
    const int threads = GetParam();
    const net::CostModel model = net::CostModel::modern_lan();
    std::optional<sim::Simulation> driver;
    std::optional<sim::ShardedSim> sharded;
    std::optional<net::Network> net;
    if (threads == 0) {
      net.emplace(driver.emplace(5), model);
    } else {
      net.emplace(sharded.emplace(kShards, 5,
                                  net::Network::min_link_latency(model)),
                  model);
      ASSERT_LE(static_cast<std::size_t>(threads), sharded->shard_count());
    }
    std::vector<common::NodeId> nodes;
    for (std::size_t i = 0; i < kShards; ++i) {
      nodes.push_back(net->add_node("n" + std::to_string(i)));
    }
    const common::NodeId a = nodes.front();
    const common::NodeId b = nodes.back();
    Transport ta(*net, a);
    Transport tb(*net, b);
    tb.register_service("echo", [](common::NodeId, const auto& body,
                                   Replier replier) { replier.ok(body); });

    net::Message garbage;
    garbage.from = a;
    garbage.to = b;
    garbage.header = std::move(frame);
    net->send(std::move(garbage));
    std::optional<CallResult> result;
    ta.call(b, "echo", bytes({9}),
            [&result](CallResult r) { result = std::move(r); });
    const auto replied = [&result] { return result.has_value(); };
    if (threads == 0) {
      driver->run_until(replied);
    } else {
      sharded->run_until(replied, threads);
    }

    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->ok) << result->error;
    EXPECT_EQ(result->body, bytes({9}));
    EXPECT_EQ(threads == 0 ? driver->stats().counter("rmi.malformed_frames")
                           : sharded->counter("rmi.malformed_frames"),
              1);
  }
};

TEST_P(MalformedFrame, BadEnvelopeTagIsDroppedAndCounted) {
  probe(bytes({127, 0, 0}));
}

TEST_P(MalformedFrame, TruncatedBatchFrameIsDroppedAndCounted) {
  // A batch frame declaring 2^32-1 sub-envelopes and carrying none.
  probe(bytes({kBatchTag, 0xFF, 0xFF, 0xFF, 0xFF}));
}

INSTANTIATE_TEST_SUITE_P(
    Engines, MalformedFrame, ::testing::Values(0, 1, 2, 8),
    [](const ::testing::TestParamInfo<int>& info) {
      return info.param == 0
                 ? std::string("Driver")
                 : std::string("Sharded") + std::to_string(info.param);
    });

}  // namespace
}  // namespace mage::rmi

// Property-test layer for batched & pipelined invokes (ROADMAP item 1):
//
//   (1) framing   — randomized batch round-trips (fuzzed kinds, fragment
//       shapes, error strings) are byte-exact; the empty batch and the
//       single-invoke degenerate case behave; malformed frames are
//       rejected; encode_batch is exactly ONE heap allocation.
//   (2) transport — a window of invokes toward one link rides one batch
//       frame (one net::Message, one wire_seq), their replies ride one
//       frame back, and a lone invoke in a quantum collapses to the plain
//       envelope so the single-fragment fast path still applies
//       (asserted via Envelope::fast_path_headers).
//   (3) one-way   — call_oneway executes with an unarmed Replier, touches
//       neither the pending table (no retransmissions ever) nor the reply
//       cache, and is at-most-once by construction.
//   (4) adaptive  — the at-most-once ring doubles under eviction pressure
//       (instantly on an observed eviction-caused re-execution), halves
//       back to the floor when idle, and at small-storm scale keeps
//       evictions to the handful spent discovering each capacity step.
//   (5) chaos     — batched + one-way traffic replayed through the PR 5
//       fault harness: per-node digests bit-identical at 1/2/8 workers
//       across 3 seeds, every echo exactly-once, every one-way note
//       at-most-once, zero wire-FIFO violations — and dropped batch
//       frames re-execute with zero duplicate side effects.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/verb.hpp"
#include "net/cost_model.hpp"
#include "net/network.hpp"
#include "rmi/envelope.hpp"
#include "rmi/transport.hpp"
#include "serial/buffer.hpp"
#include "serial/chain.hpp"
#include "serial/writer.hpp"
#include "sim/simulation.hpp"
#include "support/chaos_harness.hpp"

// Replaces global operator new/delete for this binary (one TU only) so the
// single-allocation-per-flush budget is asserted, not assumed.
#include "common/alloc_counter.hpp"

namespace mage {
namespace {

using rmi::Envelope;
using rmi::EnvelopeKind;

// --- (1) framing ------------------------------------------------------------

serial::Buffer random_fragment(common::Rng& rng, std::size_t max_bytes) {
  const std::size_t size = rng.next_below(max_bytes + 1);
  serial::Writer w(size);
  for (std::size_t i = 0; i < size; ++i) {
    w.write_u8(static_cast<std::uint8_t>(rng.next_below(256)));
  }
  return w.take();
}

Envelope random_envelope(common::Rng& rng) {
  Envelope e;
  switch (rng.next_below(3)) {
    case 0: e.kind = EnvelopeKind::Request; break;
    case 1: e.kind = EnvelopeKind::Reply; break;
    default: e.kind = EnvelopeKind::OneWay; break;
  }
  e.request_id = common::RequestId{rng.next()};
  e.verb = common::VerbId{static_cast<std::uint32_t>(rng.next_below(1 << 20))};
  if (e.kind == EnvelopeKind::Reply) {
    e.ok = rng.next_bool(0.7);
    if (!e.ok) {
      std::string error;
      const std::size_t len = rng.next_below(40);
      for (std::size_t i = 0; i < len; ++i) {
        error.push_back(static_cast<char>('a' + rng.next_below(26)));
      }
      e.error = std::move(error);
    }
  }
  // 0..kMaxFragments fragments, including empty ones: the framing header
  // must declare them all exactly.
  const std::size_t fragments =
      rng.next_below(serial::BufferChain::kMaxFragments + 1);
  for (std::size_t i = 0; i < fragments; ++i) {
    e.body.append(random_fragment(rng, 300));
  }
  return e;
}

void expect_envelopes_equal(const Envelope& a, const Envelope& b,
                            std::size_t index) {
  SCOPED_TRACE("envelope " + std::to_string(index));
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.request_id.value(), b.request_id.value());
  EXPECT_EQ(a.verb.value(), b.verb.value());
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.body.size(), b.body.size());
  EXPECT_TRUE(a.body == b.body.flatten());
}

TEST(BatchFraming, RandomizedBatchesRoundTripByteExactly) {
  common::Rng rng(0xBA7C4);
  for (int iter = 0; iter < 200; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    std::vector<Envelope> in;
    const std::size_t count = rng.next_below(13);
    in.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      in.push_back(random_envelope(rng));
    }

    const serial::Buffer wire = Envelope::encode_batch(in);
    ASSERT_GE(wire.size(), 5u);  // tag + count, always present
    // The tag byte is exactly kBatchTag: the fast-path flag is never set
    // on a batch frame.
    EXPECT_EQ(wire[0], rmi::kBatchTag);
    EXPECT_TRUE(Envelope::is_batch(wire));

    const std::vector<Envelope> out = Envelope::decode_batch(wire);
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < count; ++i) {
      expect_envelopes_equal(in[i], out[i], i);
    }
    // Re-encoding the decoded envelopes reproduces the wire bytes —
    // decode loses nothing the encoder cares about.
    const serial::Buffer again = Envelope::encode_batch(out);
    ASSERT_EQ(again.size(), wire.size());
    EXPECT_TRUE(std::equal(wire.begin(), wire.end(), again.begin()));
  }
}

TEST(BatchFraming, EmptyBatchIsFiveBytesAndRoundTrips) {
  const serial::Buffer wire = Envelope::encode_batch({});
  EXPECT_EQ(wire.size(), 5u);  // u8 tag + u32 count(0)
  EXPECT_TRUE(Envelope::is_batch(wire));
  EXPECT_TRUE(Envelope::decode_batch(wire).empty());
}

TEST(BatchFraming, SingleEnvelopeBatchRoundTrips) {
  common::Rng rng(0x51461E);
  for (int iter = 0; iter < 32; ++iter) {
    std::vector<Envelope> in;
    in.push_back(random_envelope(rng));
    const std::vector<Envelope> out =
        Envelope::decode_batch(Envelope::encode_batch(in));
    ASSERT_EQ(out.size(), 1u);
    expect_envelopes_equal(in[0], out[0], 0);
  }
}

// The 5-byte frame `03 ff ff ff ff` declares 2^32-1 sub-envelopes; it must
// raise SerializationError before reserving for them, not std::bad_alloc.
TEST(BatchFraming, HostileCountThrowsSerializationError) {
  serial::Writer w;
  w.write_u8(rmi::kBatchTag);
  w.write_u32(0xFFFFFFFFu);
  EXPECT_THROW((void)Envelope::decode_batch(w.take()),
               common::SerializationError);
}

TEST(BatchFraming, RejectsMalformedFrames) {
  // A batch frame where a single envelope is expected.
  const serial::Buffer batch = Envelope::encode_batch({});
  EXPECT_THROW((void)Envelope::decode(batch), common::SerializationError);
  // A single envelope where a batch is expected.
  Envelope plain;
  plain.verb = common::VerbId{7};
  EXPECT_THROW((void)Envelope::decode_batch(plain.encode()),
               common::SerializationError);

  // A sub-envelope size running past the end of the frame.
  {
    serial::Writer w(16);
    w.write_u8(rmi::kBatchTag);
    w.write_u32(1);
    w.write_u32(1000);  // declares far more bytes than follow
    w.write_u8(0);
    EXPECT_THROW((void)Envelope::decode_batch(w.take()),
                 common::SerializationError);
  }
  // Trailing bytes after the declared sub-envelopes.
  {
    Envelope e;
    e.verb = common::VerbId{9};
    std::vector<Envelope> one;
    one.push_back(std::move(e));
    const serial::Buffer good = Envelope::encode_batch(one);
    serial::Writer w(good.size() + 1);
    w.write_raw(good.data(), good.size());
    w.write_u8(0xEE);
    EXPECT_THROW((void)Envelope::decode_batch(w.take()),
                 common::SerializationError);
  }
  // A nested batch: a sub-envelope whose own tag is the batch tag.
  {
    const serial::Buffer inner = Envelope::encode_batch({});
    serial::Writer w(1 + 4 + 4 + inner.size());
    w.write_u8(rmi::kBatchTag);
    w.write_u32(1);
    w.write_u32(static_cast<std::uint32_t>(inner.size()));
    w.write_raw(inner.data(), inner.size());
    EXPECT_THROW((void)Envelope::decode_batch(w.take()),
                 common::SerializationError);
  }
}

TEST(BatchFraming, EncodeBatchIsExactlyOneAllocation) {
  common::Rng rng(0xA110C);
  std::vector<Envelope> in;
  for (int i = 0; i < 8; ++i) in.push_back(random_envelope(rng));
  // Warm up once (interning, lazy init), then measure.
  (void)Envelope::encode_batch(in);
  const std::uint64_t before = common::alloc_count();
  const serial::Buffer wire = Envelope::encode_batch(in);
  const std::uint64_t after = common::alloc_count();
  EXPECT_EQ(after - before, 1u)
      << "a " << wire.size() << "-byte batch gather must be one pre-sized "
      << "Writer allocation";
}

// --- (2) transport: coalescing, pipelining, wire_seq, fast path -------------

struct Pair {
  sim::Simulation sim;
  net::Network net;
  common::NodeId a, b;
  rmi::Transport ta, tb;

  explicit Pair(std::uint64_t seed = 1,
                net::CostModel model = testing::chaos_model())
      : sim(seed),
        net(sim, model),
        a(net.add_node("a")),
        b(net.add_node("b")),
        ta(net, a),
        tb(net, b) {
    net.set_fifo_checks(true);
  }

  void enable_batching(common::SimDuration quantum = 250) {
    rmi::BatchOptions batch;
    batch.enabled = true;
    batch.flush_quantum_us = quantum;
    ta.set_batching(batch);
    tb.set_batching(batch);
  }

  std::int64_t counter(const std::string& name) {
    return sim.stats().counter(name);
  }
};

serial::Buffer seq_body(std::uint64_t seq) {
  serial::Writer w(8);
  w.write_u64(seq);
  return w.take();
}

TEST(BatchTransport, WindowOfInvokesRidesOneFrameEachWay) {
  Pair p;
  p.enable_batching();
  std::vector<std::uint64_t> executed;
  p.tb.register_service("batch.echo",
                        [&executed](common::NodeId,
                                    const serial::BufferChain& body,
                                    rmi::Replier replier) {
                          serial::ChainReader r(body);
                          executed.push_back(r.read_u64());
                          replier.ok(body);
                        });
  constexpr int kCalls = 10;
  int completed = 0;
  for (std::uint64_t seq = 0; seq < kCalls; ++seq) {
    p.ta.call(p.b, "batch.echo", seq_body(seq),
              [&completed](rmi::CallResult r) {
                ASSERT_TRUE(r.ok) << r.error;
                ++completed;
              });
  }
  ASSERT_TRUE(p.sim.run_until([&] { return completed == kCalls; }));

  // All 10 requests were issued inside one flush quantum, so they ride ONE
  // batch frame; their replies ride one frame back.  One net::Message per
  // frame means one wire_seq per frame — which the enabled FIFO self-check
  // would flag if any inner invoke were stamped separately.
  EXPECT_EQ(p.counter("rmi.batches_sent"), 2);
  EXPECT_EQ(p.counter("rmi.batched_invokes"), 2 * kCalls);
  EXPECT_EQ(p.counter("rmi.batch_singletons"), 0);
  EXPECT_EQ(p.counter("net.messages_sent"), 2);
  EXPECT_EQ(p.counter("net.fifo_violations"), 0);

  // Per-link FIFO through the batch: execution order == issue order.
  ASSERT_EQ(executed.size(), static_cast<std::size_t>(kCalls));
  for (std::uint64_t seq = 0; seq < kCalls; ++seq) {
    EXPECT_EQ(executed[seq], seq) << "batched invokes reordered";
  }
}

TEST(BatchTransport, LoneInvokeCollapsesToTheFastPathEnvelope) {
  Pair p;
  p.enable_batching();
  p.tb.register_service("batch.lone",
                        [](common::NodeId, const serial::BufferChain& body,
                           rmi::Replier replier) { replier.ok(body); });
  Envelope::reset_header_counters();
  bool done = false;
  p.ta.call(p.b, "batch.lone", seq_body(1), [&done](rmi::CallResult r) {
    ASSERT_TRUE(r.ok) << r.error;
    done = true;
  });
  ASSERT_TRUE(p.sim.run_until([&] { return done; }));

  // One request, one reply: each was alone in its link queue at flush
  // time, so each collapsed to a plain envelope — no batch frame, and the
  // single-fragment fast path still taken for both headers.
  EXPECT_EQ(p.counter("rmi.batches_sent"), 0);
  EXPECT_EQ(p.counter("rmi.batch_singletons"), 2);
  EXPECT_EQ(Envelope::fast_path_headers(), 2u);
  EXPECT_EQ(Envelope::list_path_headers(), 0u);
}

TEST(BatchTransport, RequestAndReplyStreamsPipelinePerQuantum) {
  // A windowed pipeline: each completion launches the next call.  With the
  // flush quantum aligned to the link latency, batches of requests and
  // batches of replies each ride one message per quantum — the message
  // count stays a small multiple of the quantum count, not of the calls.
  Pair p;
  p.enable_batching(/*quantum=*/250);
  p.tb.register_service("batch.pipe",
                        [](common::NodeId, const serial::BufferChain& body,
                           rmi::Replier replier) { replier.ok(body); });
  constexpr int kCalls = 64;
  constexpr int kWindow = 8;
  int completed = 0;
  std::uint64_t next_seq = 0;
  std::function<void()> launch = [&] {
    if (next_seq >= kCalls) return;
    p.ta.call(p.b, "batch.pipe", seq_body(next_seq++),
              [&](rmi::CallResult r) {
                ASSERT_TRUE(r.ok) << r.error;
                ++completed;
                launch();
              });
  };
  for (int i = 0; i < kWindow; ++i) launch();
  ASSERT_TRUE(p.sim.run_until([&] { return completed == kCalls; }));

  const std::int64_t messages = p.counter("net.messages_sent");
  EXPECT_LT(messages, kCalls) << "batching never amortized the wire";
  EXPECT_GE(p.counter("rmi.batched_invokes"),
            2 * p.counter("rmi.batches_sent"));
  EXPECT_EQ(p.counter("net.fifo_violations"), 0);
}

TEST(BatchTransport, ValidatesOptions) {
  Pair p;
  rmi::BatchOptions bad;
  bad.enabled = true;
  bad.flush_quantum_us = 0;
  EXPECT_THROW(p.ta.set_batching(bad), common::MageError);
  bad.flush_quantum_us = 100;
  bad.max_batch_invokes = 0;
  EXPECT_THROW(p.ta.set_batching(bad), common::MageError);
}

// --- (3) one-way verbs ------------------------------------------------------

TEST(OneWay, ExecutesWithUnarmedReplierAndNoReplyState) {
  Pair p;
  int executions = 0;
  bool saw_armed = false;
  p.tb.register_service("oneway.note",
                        [&](common::NodeId, const serial::BufferChain&,
                            rmi::Replier replier) {
                          ++executions;
                          saw_armed = replier.armed();
                        });
  p.ta.call_oneway(p.b, "oneway.note", seq_body(7));
  p.sim.run_until_idle();

  EXPECT_EQ(executions, 1);
  EXPECT_FALSE(saw_armed) << "one-way delivery must not arm a Replier";
  EXPECT_EQ(p.counter("rmi.oneway_calls"), 1);
  EXPECT_EQ(p.counter("rmi.oneway_executions"), 1);
  // No pending-table entry was ever created, so nothing can retransmit —
  // and the receive path touched neither the reply cache nor caller marks.
  EXPECT_EQ(p.counter("rmi.retransmissions"), 0);
  EXPECT_EQ(p.counter("rmi.duplicates_suppressed"), 0);
  EXPECT_EQ(p.counter("rmi.reply_cache_evictions"), 0);

  // Idle far past any retry horizon: still exactly one execution.
  p.sim.run_for(10'000'000);
  EXPECT_EQ(executions, 1);
  EXPECT_EQ(p.counter("rmi.retransmissions"), 0);
}

TEST(OneWay, MissingServiceIsCountedNotFatal) {
  Pair p;
  p.ta.call_oneway(p.b, "oneway.nobody-home", seq_body(1));
  p.sim.run_until_idle();
  EXPECT_EQ(p.counter("rmi.oneway_calls"), 1);
  EXPECT_EQ(p.counter("rmi.oneway_executions"), 0);
  EXPECT_EQ(p.counter("rmi.oneway_no_service"), 1);
}

TEST(OneWay, BatchesAlongsideRequestsOnTheSameLink) {
  Pair p;
  p.enable_batching();
  int notes = 0;
  p.tb.register_service("oneway.mixed-note",
                        [&notes](common::NodeId, const serial::BufferChain&,
                                 rmi::Replier) { ++notes; });
  p.tb.register_service("oneway.mixed-echo",
                        [](common::NodeId, const serial::BufferChain& body,
                           rmi::Replier replier) { replier.ok(body); });
  int completed = 0;
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    p.ta.call_oneway(p.b, "oneway.mixed-note", seq_body(seq));
    p.ta.call(p.b, "oneway.mixed-echo", seq_body(seq),
              [&completed](rmi::CallResult r) {
                ASSERT_TRUE(r.ok) << r.error;
                ++completed;
              });
  }
  ASSERT_TRUE(p.sim.run_until([&] { return completed == 4; }));
  EXPECT_EQ(notes, 4);
  // 4 one-ways + 4 requests ride ONE frame; 4 replies ride one back.
  EXPECT_EQ(p.counter("rmi.batches_sent"), 2);
  EXPECT_EQ(p.counter("rmi.batched_invokes"), 12);
  EXPECT_EQ(p.counter("net.messages_sent"), 2);
}

// --- (4) adaptive reply-cache sizing ----------------------------------------

// One caller hammering sequential syncs: every executed request inserts a
// reply-cache entry on the server, so capacity pressure is exact and
// deterministic.
struct AdaptivePair {
  sim::Simulation sim{11};
  net::Network net{sim, testing::chaos_model()};
  common::NodeId a{net.add_node("a")};
  common::NodeId b{net.add_node("b")};
  rmi::Transport ta{net, a};
  rmi::Transport tb{net, b, /*reply_cache_capacity=*/8};
  common::VerbId verb{common::intern_verb("adaptive.count")};
  int executions = 0;

  explicit AdaptivePair(rmi::AdaptiveCacheOptions options = default_options()) {
    tb.register_service(verb, [this](common::NodeId,
                                     const serial::BufferChain&,
                                     rmi::Replier replier) {
      ++executions;
      replier.ok({});
    });
    tb.set_adaptive_reply_cache(options);
  }

  static rmi::AdaptiveCacheOptions default_options() {
    rmi::AdaptiveCacheOptions o;
    o.enabled = true;
    o.floor = 8;
    o.ceiling = 64;
    o.grow_threshold = 2;
    o.idle_shrink_us = 50'000;
    return o;
  }

  void calls(int n) {
    for (int i = 0; i < n; ++i) (void)ta.call_sync(b, verb, {});
  }
  std::int64_t counter(const std::string& name) {
    return sim.stats().counter(name);
  }
};

TEST(AdaptiveReplyCache, GrowsUnderEvictionPressureToTheCeiling) {
  AdaptivePair p;
  ASSERT_EQ(p.tb.reply_cache_capacity(), 8u);
  p.calls(50);
  // Each capacity step costs exactly grow_threshold evictions before the
  // ring doubles: 8 -> 16 -> 32 -> 64, then pressure stops (50 < 64 live).
  EXPECT_EQ(p.tb.reply_cache_capacity(), 64u);
  EXPECT_EQ(p.counter("rmi.reply_cache_grows"), 3);
  EXPECT_EQ(p.counter("rmi.reply_cache_shrinks"), 0);
  EXPECT_EQ(p.counter("rmi.reply_cache_evictions"), 3 * 2);
  EXPECT_EQ(p.counter("rmi.evicted_reexecutions"), 0);
  EXPECT_EQ(p.counter("rmi.reply_cache_capacity"), 64);
  EXPECT_EQ(p.counter("rmi.reply_cache_capacity_highwater"), 64);
}

TEST(AdaptiveReplyCache, FixedCacheChurnsWhereAdaptiveStaysQuiet) {
  // The contrast the bench asserts at storm scale, reproduced small: a
  // 200-call hammer against a FIXED 8-entry ring evicts on nearly every
  // call; an adaptive ring whose ceiling covers the working set pays
  // grow_threshold evictions per capacity step and then goes quiet.
  AdaptivePair fixed{[] {
    rmi::AdaptiveCacheOptions off;
    off.enabled = false;
    return off;
  }()};
  fixed.calls(200);
  const std::int64_t fixed_evictions =
      fixed.counter("rmi.reply_cache_evictions");
  EXPECT_GE(fixed_evictions, 190);

  AdaptivePair adaptive{[] {
    rmi::AdaptiveCacheOptions o = AdaptivePair::default_options();
    o.ceiling = 256;  // room for the whole working set
    return o;
  }()};
  adaptive.calls(200);
  const std::int64_t adaptive_evictions =
      adaptive.counter("rmi.reply_cache_evictions");
  EXPECT_LT(adaptive_evictions * 10, fixed_evictions);
}

TEST(AdaptiveReplyCache, ShrinksBackToTheFloorWhenIdle) {
  AdaptivePair p;
  p.calls(50);
  ASSERT_EQ(p.tb.reply_cache_capacity(), 64u);

  // One halving per idle period, each triggered by the next insert after
  // the period elapses: 64 -> 32 -> 16 -> 8, then pinned at the floor.
  for (std::size_t expect : {32u, 16u, 8u, 8u}) {
    p.sim.run_for(60'000);  // > idle_shrink_us since the last eviction
    p.calls(1);
    EXPECT_EQ(p.tb.reply_cache_capacity(), expect);
  }
  EXPECT_EQ(p.counter("rmi.reply_cache_shrinks"), 3);
  // High water remembers the peak even after the shrink.
  EXPECT_EQ(p.counter("rmi.reply_cache_capacity_highwater"), 64);
  EXPECT_EQ(p.counter("rmi.reply_cache_capacity"), 8);
}

TEST(AdaptiveReplyCache, EvictedReexecutionTriggersAnImmediateGrow) {
  // An eviction-caused re-execution is the harm the cache exists to
  // prevent: one observed instance must trip the growth threshold
  // instantly, not after `grow_threshold` more evictions.
  AdaptivePair p{[] {
    rmi::AdaptiveCacheOptions o = AdaptivePair::default_options();
    o.grow_threshold = 1000;  // passive growth effectively disabled
    return o;
  }()};
  p.calls(10);  // fills the 8-ring; ids 1 and 2 evicted
  ASSERT_EQ(p.tb.reply_cache_capacity(), 8u);
  ASSERT_GE(p.counter("rmi.reply_cache_evictions"), 2);

  // Hand-craft a retransmission of evicted request 1 (mirrors the
  // chaos_test eviction probe): it re-executes AND flags the ring.
  rmi::Envelope env;
  env.kind = rmi::EnvelopeKind::Request;
  env.request_id = common::RequestId{1};
  env.verb = p.verb;
  p.net.send(net::Message{p.a, p.b, p.verb, net::MsgKind::Request,
                          env.encode_header(), env.body});
  p.sim.run_until_idle();
  EXPECT_EQ(p.counter("rmi.evicted_reexecutions"), 1);
  EXPECT_EQ(p.executions, 11);

  // The re-execution's own insert found the ring full and doubled it
  // despite the sky-high passive threshold.
  EXPECT_EQ(p.tb.reply_cache_capacity(), 16u);
  EXPECT_EQ(p.counter("rmi.reply_cache_grows"), 1);
}

TEST(AdaptiveReplyCache, ValidatesOptions) {
  Pair p;
  rmi::AdaptiveCacheOptions bad;
  bad.enabled = true;
  bad.floor = 0;
  EXPECT_THROW(p.tb.set_adaptive_reply_cache(bad), common::MageError);
  bad.floor = 64;
  bad.ceiling = 8;
  EXPECT_THROW(p.tb.set_adaptive_reply_cache(bad), common::MageError);
  bad.ceiling = 128;
  bad.grow_threshold = 0;
  EXPECT_THROW(p.tb.set_adaptive_reply_cache(bad), common::MageError);
}

// --- (5) chaos regressions: batched + one-way under faults ------------------

using testing::ChaosParams;
using testing::ChaosRun;
using testing::run_chaos_storm;

ChaosParams batched_chaos_params() {
  ChaosParams params;
  params.batching = true;
  params.oneway_notes = true;
  return params;
}

void expect_batched_chaos_invariants(const ChaosRun& run, std::uint64_t seed,
                                     int threads) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ", threads " +
               std::to_string(threads));
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.failed_calls, 0);
  EXPECT_TRUE(run.every_invoke_exactly_once());
  EXPECT_TRUE(run.every_note_at_most_once());
  EXPECT_EQ(run.fifo_violations, 0);
  EXPECT_EQ(run.pending_fault_events, 0);
  EXPECT_GT(run.faults_applied, 0);
  // Batching genuinely engaged: multi-invoke frames dominated.
  EXPECT_GT(run.batches_sent, 0);
  EXPECT_GE(run.batched_invokes, 2 * run.batches_sent);
  EXPECT_GT(run.oneway_calls, 0);
}

const std::uint64_t kBatchChaosSeeds[] = {0xA1, 0xB2C3, 0xDEADBEEF};

TEST(BatchChaos, SeedReplaysBitIdenticallyAt1_2_8Workers) {
  const ChaosParams params = batched_chaos_params();
  for (const std::uint64_t seed : kBatchChaosSeeds) {
    const ChaosRun r1 = run_chaos_storm(seed, 1, params);
    const ChaosRun r2 = run_chaos_storm(seed, 2, params);
    const ChaosRun r8 = run_chaos_storm(seed, 8, params);
    expect_batched_chaos_invariants(r1, seed, 1);
    expect_batched_chaos_invariants(r2, seed, 2);
    expect_batched_chaos_invariants(r8, seed, 8);
    // The tentpole determinism claim: batched + one-way traffic replays
    // bit-identically at any worker count — execution order, shard-local
    // timestamps, every drop and re-delivery.
    EXPECT_EQ(r1.node_digests, r2.node_digests) << "seed " << seed;
    EXPECT_EQ(r1.node_digests, r8.node_digests) << "seed " << seed;
    EXPECT_EQ(r1.note_exec_counts, r2.note_exec_counts) << "seed " << seed;
    EXPECT_EQ(r1.note_exec_counts, r8.note_exec_counts) << "seed " << seed;
  }
}

TEST(BatchChaos, DroppedBatchesReexecuteWithoutDuplicateSideEffects) {
  // Under every seed's mandatory loss burst some batch frames are dropped
  // whole.  Their requests retransmit (individually or re-coalesced) and
  // the execution counters prove each side effect landed exactly once —
  // a dropped batch re-executes as a unit with zero duplicates.
  const ChaosParams params = batched_chaos_params();
  for (const std::uint64_t seed : kBatchChaosSeeds) {
    const ChaosRun run = run_chaos_storm(seed, 2, params);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_GT(run.retransmissions, 0) << "chaos never dropped anything";
    EXPECT_TRUE(run.every_invoke_exactly_once());
    EXPECT_TRUE(run.every_note_at_most_once());
  }
}

TEST(BatchChaos, DriverEngineHoldsTheSameProperties) {
  const ChaosParams params = batched_chaos_params();
  const ChaosRun run = run_chaos_storm(0xB2C3, /*threads=*/0, params);
  expect_batched_chaos_invariants(run, 0xB2C3, 0);
}

}  // namespace
}  // namespace mage

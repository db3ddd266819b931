// Tests for the hot-path spine: ref-counted zero-copy payloads (Buffer),
// scatter-gather body chains (BufferChain/ChainWriter/ChainReader),
// zero-copy Reader views, verb interning, the pooled cancellable EventQueue
// (determinism under interleaving), the open-addressed FlatMap64 behind the
// transport's receive path, completion wakeups, the move-only one-shot
// Replier contract — and the allocation budget: a steady-state send is
// exactly ONE heap allocation (counted via a replaced global operator new).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "common/verb.hpp"
#include "net/network.hpp"
#include "rmi/envelope.hpp"
#include "rmi/transport.hpp"
#include "serial/buffer.hpp"
#include "serial/chain.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "support/test_objects.hpp"

// Replaces global operator new/delete for this binary so steady-state tests
// can assert allocation budgets, not just copy budgets.
#include "common/alloc_counter.hpp"

namespace mage {
namespace {

using common::alloc_count;

// --- serial::Buffer ---------------------------------------------------------

TEST(Buffer, AdoptDoesNotCopy) {
  serial::Buffer::reset_copy_counters();
  std::vector<std::uint8_t> bytes(1024, 0x7F);
  const auto* data = bytes.data();
  serial::Buffer buf(std::move(bytes));
  EXPECT_EQ(buf.data(), data);  // same storage, just adopted
  EXPECT_EQ(buf.size(), 1024u);
  EXPECT_EQ(serial::Buffer::deep_copy_count(), 0u);
}

TEST(Buffer, CopiesAreCounted) {
  serial::Buffer::reset_copy_counters();
  const std::vector<std::uint8_t> bytes(100, 1);
  auto copy = serial::Buffer::copy(bytes);
  EXPECT_EQ(copy.size(), 100u);
  EXPECT_EQ(serial::Buffer::deep_copy_count(), 1u);
  EXPECT_EQ(serial::Buffer::deep_copy_bytes(), 100u);
}

TEST(Buffer, SliceSharesStorage) {
  serial::Buffer::reset_copy_counters();
  std::vector<std::uint8_t> bytes(256);
  std::iota(bytes.begin(), bytes.end(), 0);
  serial::Buffer buf(std::move(bytes));
  auto mid = buf.slice(16, 64);
  EXPECT_EQ(mid.size(), 64u);
  EXPECT_EQ(mid.data(), buf.data() + 16);  // a view, not a copy
  EXPECT_EQ(mid[0], 16);
  // Sub-slicing composes.
  auto inner = mid.slice(8, 8);
  EXPECT_EQ(inner.data(), buf.data() + 24);
  EXPECT_EQ(serial::Buffer::deep_copy_count(), 0u);
}

TEST(Buffer, SliceOutlivesParentHandle) {
  serial::Buffer tail;
  {
    std::vector<std::uint8_t> bytes{1, 2, 3, 4, 5};
    serial::Buffer buf(std::move(bytes));
    tail = buf.slice(3, 2);
  }  // parent handle gone; refcount keeps the storage alive
  EXPECT_EQ(tail, (std::vector<std::uint8_t>{4, 5}));
}

TEST(Buffer, SliceOutOfBoundsThrows) {
  serial::Buffer buf(std::vector<std::uint8_t>(8));
  EXPECT_THROW((void)buf.slice(4, 8), common::SerializationError);
  EXPECT_THROW((void)buf.slice(9, 0), common::SerializationError);
  EXPECT_NO_THROW((void)buf.slice(8, 0));
}

TEST(Buffer, EqualityIsByteWise) {
  serial::Buffer a{1, 2, 3};
  serial::Buffer b{1, 2, 3};
  serial::Buffer c{1, 2, 4};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Writer, TakeIsSingleAllocation) {
  // The whole point of the shared-array Writer: reserve + build + take is
  // one make_shared<uint8_t[]> block, no vector, no separate control block.
  const auto before = alloc_count();
  serial::Writer w(64);
  w.write_u64(0x1122334455667788ull);
  w.write_u32(7);
  serial::Buffer out = w.take();
  EXPECT_EQ(alloc_count() - before, 1u);
  EXPECT_EQ(out.size(), 12u);
}

// --- scatter-gather chains ---------------------------------------------------

TEST(BufferChain, SingleFragmentImplicitConversion) {
  serial::Buffer payload{1, 2, 3};
  serial::BufferChain chain = payload;
  EXPECT_EQ(chain.fragments(), 1u);
  EXPECT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain, payload);
  EXPECT_EQ(chain.flatten().data(), payload.data());  // shares storage
}

TEST(BufferChain, AppendAndLogicalEquality) {
  serial::BufferChain chain;
  chain.append(serial::Buffer{1, 2});
  chain.append(serial::Buffer{});  // empty fragment is legal
  chain.append(serial::Buffer{3, 4, 5});
  EXPECT_EQ(chain.fragments(), 3u);
  EXPECT_EQ(chain.size(), 5u);
  EXPECT_EQ(chain, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  // Equality is over the logical stream, not the fragmentation.
  serial::BufferChain other = serial::Buffer{1, 2, 3, 4, 5};
  EXPECT_TRUE(chain == other);
}

TEST(BufferChain, FragmentCapIsEnforced) {
  serial::BufferChain chain;
  for (std::size_t i = 0; i < serial::BufferChain::kMaxFragments; ++i) {
    chain.append(serial::Buffer{1});
  }
  EXPECT_THROW(chain.append(serial::Buffer{1}), common::SerializationError);
}

TEST(BufferChain, FlattenGathersAndCounts) {
  serial::BufferChain chain;
  chain.append(serial::Buffer{1, 2});
  chain.append(serial::Buffer{3});
  serial::Buffer::reset_copy_counters();
  EXPECT_EQ(chain.flatten(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(serial::Buffer::deep_copy_count(), 1u);
  EXPECT_EQ(serial::Buffer::deep_copy_bytes(), 3u);
}

TEST(ChainWriter, PayloadRidesAsFragmentWithoutCopy) {
  const serial::Buffer args(std::vector<std::uint8_t>(512, 0xAB));
  serial::Buffer::reset_copy_counters();

  serial::ChainWriter w;
  w.write_string("component");
  w.write_string("method");
  w.append_payload(args);
  serial::BufferChain body = w.take();

  ASSERT_EQ(body.fragments(), 2u);
  EXPECT_EQ(body.fragment(1).data(), args.data());  // spliced, not copied
  EXPECT_EQ(serial::Buffer::deep_copy_count(), 0u);

  // The logical stream is byte-identical to the copying encoder's output.
  serial::Writer flat;
  flat.write_string("component");
  flat.write_string("method");
  flat.write_bytes(args.span());
  EXPECT_EQ(body, flat.take());
}

TEST(ChainWriter, FieldsAfterPayloadGetTheirOwnFragment) {
  const serial::Buffer args{9, 9};
  serial::ChainWriter w;
  w.write_string("obj");
  w.append_payload(args);
  w.write_u32(1234);  // trailing field, e.g. ExecRequest::class_source
  serial::BufferChain body = w.take();
  ASSERT_EQ(body.fragments(), 3u);

  serial::ChainReader r(body);
  EXPECT_EQ(r.read_string(), "obj");
  serial::Buffer::reset_copy_counters();
  serial::Buffer nested = r.read_bytes();
  EXPECT_EQ(nested.data(), args.data());  // zero-copy slice of the fragment
  EXPECT_EQ(r.read_u32(), 1234u);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(serial::Buffer::deep_copy_count(), 0u);
}

TEST(ChainWriter, EmptyPayloadSpendsNoFragment) {
  serial::ChainWriter w;
  w.write_u8(1);
  w.append_payload({});
  w.write_u8(2);
  serial::BufferChain body = w.take();
  EXPECT_EQ(body.fragments(), 1u);  // prefix+suffix coalesce
  serial::ChainReader r(body);
  EXPECT_EQ(r.read_u8(), 1u);
  EXPECT_TRUE(r.read_bytes().empty());
  EXPECT_EQ(r.read_u8(), 2u);
}

TEST(ChainReader, ReadsAcrossArbitraryFragmentBoundaries) {
  // The wire contract says fragmentation is framing, not encoding: a reader
  // must reproduce the logical stream however it was split — including a
  // primitive or block straddling fragments (the counted gather path).
  serial::Writer flat;
  flat.write_u32(0xDEADBEEF);
  flat.write_string("split-me");
  flat.write_bytes(std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6});
  flat.write_u64(42);
  const serial::Buffer bytes = flat.take();

  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    serial::BufferChain chain;
    chain.append(bytes.slice(0, cut));
    chain.append(bytes.slice(cut, bytes.size() - cut));
    serial::ChainReader r(chain);
    EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.read_string(), "split-me");
    EXPECT_EQ(r.read_bytes(), (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(r.read_u64(), 42u);
    EXPECT_TRUE(r.at_end());
  }
}

TEST(ChainReader, TruncationThrowsNotReads) {
  serial::BufferChain chain;
  chain.append(serial::Buffer{1, 2, 3});
  serial::ChainReader r(chain);
  EXPECT_THROW((void)r.read_u32(), common::SerializationError);
}

// --- scatter-gather envelopes ------------------------------------------------

TEST(EnvelopeChain, MultiFragmentRoundTrip) {
  rmi::Envelope e;
  e.kind = rmi::EnvelopeKind::Request;
  e.request_id = common::RequestId{7};
  e.verb = common::intern_verb("hp.frag");
  e.body.append(serial::Buffer{1, 2});
  e.body.append(serial::Buffer{3, 4, 5});
  e.body.append(serial::Buffer{6});

  // Scatter-gather form: fragments pass through untouched.
  const auto header = e.encode_header();
  const auto decoded = rmi::Envelope::decode(header, e.body);
  EXPECT_EQ(decoded.request_id, common::RequestId{7});
  ASSERT_EQ(decoded.body.fragments(), 3u);
  EXPECT_EQ(decoded.body.fragment(1).data(), e.body.fragment(1).data());

  // Flat form: the concatenation round-trips, fragment structure preserved.
  const auto flat = e.encode();
  const auto from_flat = rmi::Envelope::decode(flat);
  ASSERT_EQ(from_flat.body.fragments(), 3u);
  EXPECT_EQ(from_flat.body, e.body);
  EXPECT_EQ(from_flat.body.fragment(0), (std::vector<std::uint8_t>{1, 2}));
}

TEST(EnvelopeChain, EmptyFragmentRoundTrips) {
  rmi::Envelope e;
  e.kind = rmi::EnvelopeKind::Reply;
  e.request_id = common::RequestId{8};
  e.verb = common::intern_verb("hp.frag");
  e.body.append(serial::Buffer{1});
  e.body.append(serial::Buffer{});  // explicit zero-size fragment
  const auto decoded = rmi::Envelope::decode(e.encode());
  ASSERT_EQ(decoded.body.fragments(), 2u);
  EXPECT_EQ(decoded.body.fragment(1).size(), 0u);
  EXPECT_EQ(decoded.body, (std::vector<std::uint8_t>{1}));
}

TEST(EnvelopeChain, FragmentCountMismatchThrows) {
  rmi::Envelope e;
  e.kind = rmi::EnvelopeKind::Request;
  e.request_id = common::RequestId{9};
  e.verb = common::intern_verb("hp.frag");
  e.body.append(serial::Buffer{1, 2});
  const auto header = e.encode_header();
  serial::BufferChain wrong;
  wrong.append(serial::Buffer{1});
  wrong.append(serial::Buffer{2});
  EXPECT_THROW((void)rmi::Envelope::decode(header, wrong),
               common::SerializationError);
}

// --- zero-copy Reader views -------------------------------------------------

TEST(ReaderViews, RoundTripPropertyWithZeroCopies) {
  // Property test: random nested payloads survive a write/read round trip,
  // and reading through a Buffer-backed Reader never deep-copies.
  common::Rng rng(1234);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> blob(rng.next_below(2048));
    for (auto& b : blob) b = static_cast<std::uint8_t>(rng.next_below(256));
    const std::string text = "round-" + std::to_string(round);

    serial::Writer w(16 + blob.size() + text.size());
    w.write_string(text);
    w.write_bytes(blob);
    w.write_u32(0xDEADBEEF);
    serial::Buffer encoded = w.take();

    serial::Buffer::reset_copy_counters();
    serial::Reader r(encoded);
    const std::string_view view = r.read_view();
    EXPECT_EQ(view, text);
    // The view aliases the encoded buffer, no allocation or copy.
    EXPECT_GE(reinterpret_cast<const std::uint8_t*>(view.data()),
              encoded.data());
    serial::Buffer nested = r.read_bytes();
    EXPECT_EQ(nested, blob);
    if (!nested.empty()) {
      EXPECT_GE(nested.data(), encoded.data());  // shared slice
      EXPECT_LT(nested.data(), encoded.data() + encoded.size());
    }
    EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
    EXPECT_TRUE(r.at_end());
    EXPECT_EQ(serial::Buffer::deep_copy_count(), 0u);
  }
}

TEST(ReaderViews, SpanBackedReaderCopiesNestedBytes) {
  serial::Writer w;
  w.write_bytes(std::vector<std::uint8_t>{1, 2, 3});
  const auto encoded = w.take();

  serial::Buffer::reset_copy_counters();
  serial::Reader r(encoded.span());  // no owner: must deep-copy to be safe
  auto nested = r.read_bytes();
  EXPECT_EQ(nested, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(serial::Buffer::deep_copy_count(), 1u);
}

TEST(Writer, OversizedStringThrows) {
  // The length prefix is u32; a silent truncation used to write a wrong
  // length and corrupt the stream.  The size check fires before any bytes
  // are touched, so a fabricated oversized view is safe to pass.
  serial::Writer w;
  const char c = 'x';
  const std::string_view huge(&c, (1ull << 32) + 1);
  EXPECT_THROW(w.write_string(huge), common::SerializationError);
  EXPECT_EQ(w.size(), 0u);  // nothing was written
}

TEST(Writer, ReservePreallocates) {
  serial::Writer w(4096);
  const std::vector<std::uint8_t> chunk(4096, 9);
  w.write_raw(chunk.data(), chunk.size());
  EXPECT_EQ(w.size(), 4096u);
  EXPECT_EQ(w.take().size(), 4096u);
}

// --- verb interning ---------------------------------------------------------

TEST(VerbInterning, SameSpellingSameId) {
  const auto a = common::intern_verb("hotpath.test.verb");
  const auto b = common::intern_verb("hotpath.test.verb");
  const auto c = common::intern_verb("hotpath.test.other");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(common::verb_name(a), "hotpath.test.verb");
  EXPECT_EQ(common::verb_calls_stat(a), "rmi.calls.hotpath.test.verb");
}

TEST(VerbInterning, InvalidIdHasPlaceholderName) {
  EXPECT_EQ(common::verb_name(common::VerbId{}), "<invalid-verb>");
}

// --- FlatMap64 --------------------------------------------------------------

TEST(FlatMap64, InsertFindErase) {
  common::FlatMap64<int> map;
  auto [v, inserted] = map.try_emplace(42);
  EXPECT_TRUE(inserted);
  *v = 7;
  EXPECT_EQ(*map.find(42), 7);
  EXPECT_EQ(map.find(43), nullptr);
  auto [again, fresh] = map.try_emplace(42);
  EXPECT_FALSE(fresh);
  EXPECT_EQ(*again, 7);
  EXPECT_TRUE(map.erase(42));
  EXPECT_FALSE(map.erase(42));
  EXPECT_EQ(map.find(42), nullptr);
  EXPECT_EQ(map.size(), 0u);
}

TEST(FlatMap64, MatchesReferenceUnderChurn) {
  // Randomized differential test against unordered_map: inserts, erases,
  // lookups — growth, probe wraparound, and backward-shift deletion all get
  // exercised (keys are drawn from a small range to force collisions).
  common::FlatMap64<std::uint64_t> map(16);
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  common::Rng rng(99);
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t key = 1 + rng.next_below(512);
    switch (rng.next_below(3)) {
      case 0: {  // insert/overwrite
        const std::uint64_t value = rng.next_below(1u << 30);
        *map.try_emplace(key).first = value;
        ref[key] = value;
        break;
      }
      case 1: {  // erase
        EXPECT_EQ(map.erase(key), ref.erase(key) > 0);
        break;
      }
      default: {  // lookup
        auto* got = map.find(key);
        auto it = ref.find(key);
        ASSERT_EQ(got != nullptr, it != ref.end());
        if (got != nullptr) {
          EXPECT_EQ(*got, it->second);
        }
      }
    }
    ASSERT_EQ(map.size(), ref.size());
  }
  for (const auto& [key, value] : ref) {
    auto* got = map.find(key);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, value);
  }
}

TEST(FlatMap64, ReservePinsCapacity) {
  common::FlatMap64<std::uint64_t> map;
  map.reserve(1000);
  const auto before = alloc_count();
  for (std::uint64_t k = 1; k <= 1000; ++k) *map.try_emplace(k).first = k;
  EXPECT_EQ(alloc_count(), before);  // no growth, no per-node allocation
}

// --- pooled EventQueue ------------------------------------------------------

TEST(PooledEventQueue, SameInstantFifoUnderInterleavedScheduleAndPop) {
  // Determinism regression: events at one instant fire in scheduling order
  // even when schedules and pops interleave (pops recycle slab slots, which
  // must not perturb the (time, seq) order).
  sim::EventQueue q;
  std::vector<int> fired;
  auto make = [&fired](int tag) { return [&fired, tag] { fired.push_back(tag); }; };

  q.schedule(5, make(0));
  q.schedule(5, make(1));
  common::SimTime at = 0;
  q.pop(at)();  // fires 0, frees its slot
  q.schedule(5, make(2));  // reuses the freed slot
  q.schedule(5, make(3));
  q.pop(at)();
  q.schedule(5, make(4));
  while (!q.empty()) q.pop(at)();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(at, 5);
}

TEST(PooledEventQueue, EarlierTimeBeatsEarlierSeq) {
  sim::EventQueue q;
  std::vector<int> fired;
  q.schedule(10, [&] { fired.push_back(10); });
  q.schedule(3, [&] { fired.push_back(3); });
  q.schedule(7, [&] { fired.push_back(7); });
  common::SimTime at = 0;
  while (!q.empty()) q.pop(at)();
  EXPECT_EQ(fired, (std::vector<int>{3, 7, 10}));
}

TEST(PooledEventQueue, SlabIsReusedNotGrown) {
  sim::EventQueue q;
  common::SimTime at = 0;
  // Steady state: one event in flight at a time -> one pooled node, ever.
  for (int i = 0; i < 10'000; ++i) {
    q.schedule(i, [] {});
    (void)q.pop(at);
  }
  EXPECT_EQ(q.pool_size(), 1u);
}

TEST(PooledEventQueue, CancelPreventsFiring) {
  sim::EventQueue q;
  bool fired = false;
  const auto id = q.schedule(1, [&fired] { fired = true; });
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(id));  // second cancel is a no-op
  EXPECT_FALSE(fired);
}

TEST(PooledEventQueue, CancelledSlotReuseDoesNotConfuseCancel) {
  sim::EventQueue q;
  const auto id = q.schedule(1, [] {});
  ASSERT_TRUE(q.cancel(id));
  // The slot is recycled for a new event; the stale id must not cancel it.
  bool fired = false;
  q.schedule(2, [&fired] { fired = true; });
  EXPECT_FALSE(q.cancel(id));
  common::SimTime at = 0;
  q.pop(at)();
  EXPECT_TRUE(fired);
  EXPECT_EQ(at, 2);
}

TEST(PooledEventQueue, MassCancellationCompactsAndPreservesOrder) {
  sim::EventQueue q;
  std::vector<int> fired;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.schedule(100, [&fired, i] { fired.push_back(i); }));
  }
  // Cancel every odd event; survivors must still fire in FIFO order.
  for (int i = 1; i < 1000; i += 2) EXPECT_TRUE(q.cancel(ids[i]));
  EXPECT_EQ(q.size(), 500u);
  common::SimTime at = 0;
  while (!q.empty()) q.pop(at)();
  ASSERT_EQ(fired.size(), 500u);
  for (std::size_t i = 0; i + 1 < fired.size(); ++i) {
    EXPECT_LT(fired[i], fired[i + 1]);
  }
}

TEST(PooledEventQueue, MoveOnlyActionsAreSupported) {
  // The point of UniqueFunction: actions may capture move-only state.
  sim::EventQueue q;
  auto payload = std::make_unique<int>(42);
  int seen = 0;
  q.schedule(1, [p = std::move(payload), &seen] { seen = *p; });
  common::SimTime at = 0;
  q.pop(at)();
  EXPECT_EQ(seen, 42);
}

// --- completion wakeups -----------------------------------------------------

TEST(CompletionWakeups, NonWakingEventsStillSatisfyRunUntilOnDrain) {
  // A predicate flipped by a Wake::No event is caught by the final check
  // when the queue drains — run_until never reports false while done()
  // holds.
  sim::Simulation sim;
  bool flag = false;
  sim.schedule_after(5, [&flag] { flag = true; }, sim::Wake::No);
  EXPECT_TRUE(sim.run_until([&flag] { return flag; }));
}

TEST(CompletionWakeups, ExplicitWakeTriggersPredicateCheck) {
  sim::Simulation sim;
  bool flag = false;
  sim.schedule_after(5,
                     [&] {
                       flag = true;
                       sim.wake();
                     },
                     sim::Wake::No);
  // A later event keeps the queue non-empty; the explicit wake must stop
  // the loop at t=5, not at drain.
  sim.schedule_after(500, [] {}, sim::Wake::No);
  EXPECT_TRUE(sim.run_until([&flag] { return flag; }));
  EXPECT_EQ(sim.now(), 5);
}

// --- transport zero-copy + Replier contract ---------------------------------

struct HotpathRmiFixture : ::testing::Test {
  sim::Simulation sim{99};
  net::Network net{sim, net::CostModel::zero()};
  common::NodeId a = net.add_node("a");
  common::NodeId b = net.add_node("b");
  rmi::Transport ta{net, a};
  rmi::Transport tb{net, b};
};

TEST_F(HotpathRmiFixture, SteadyStateCallIsZeroPayloadCopies) {
  const auto echo = common::intern_verb("hp.echo");
  tb.register_service(echo,
                      [](common::NodeId, const serial::BufferChain& body,
                         rmi::Replier replier) { replier.ok(body); });
  const serial::Buffer payload(std::vector<std::uint8_t>(2048, 0x3C));
  (void)ta.call_sync(b, echo, payload);  // warm connection

  serial::Buffer::reset_copy_counters();
  for (int i = 0; i < 100; ++i) {
    auto result = ta.call_sync(b, echo, payload);
    ASSERT_EQ(result.size(), payload.size());
  }
  // The whole spine — envelope, network, retransmission state, reply cache,
  // CallResult — moved refcounts, never bytes.
  EXPECT_EQ(serial::Buffer::deep_copy_count(), 0u);
}

TEST(HotpathAllocation, SteadyStateSendIsExactlyOneAllocation) {
  // The allocation budget the spine promises: a steady-state send costs ONE
  // heap allocation — the envelope header block.  A call round trip is two
  // sends (request + reply), so a call is exactly two allocations: pending
  // calls and the reply-cache index live in pre-sized flat tables, the
  // entries ring is full and overwritten in place, event nodes come from
  // the pooled slab, captures stay inline in UniqueFunction storage, and
  // the payload travels by refcount.
  //
  // A small reply cache, warmed past its capacity, puts the measured loop
  // in the long-run regime — ring wrapped, continuously evicting — which
  // is exactly where the budget must hold.
  constexpr std::size_t kCacheCapacity = 64;
  sim::Simulation sim{77};
  net::Network net{sim, net::CostModel::zero()};
  const common::NodeId a = net.add_node("a");
  const common::NodeId b = net.add_node("b");
  rmi::Transport ta{net, a, kCacheCapacity};
  rmi::Transport tb{net, b, kCacheCapacity};

  const auto echo = common::intern_verb("hp.alloc");
  tb.register_service(echo,
                      [](common::NodeId, const serial::BufferChain& body,
                         rmi::Replier replier) { replier.ok(body); });
  const serial::Buffer payload(std::vector<std::uint8_t>(512, 0x11));
  // Warm-up: connection setup, stats handles, event slab, verb counters,
  // and 2x the ring capacity so both ends' entry rings have wrapped.
  for (std::size_t i = 0; i < 2 * kCacheCapacity; ++i) {
    (void)ta.call_sync(b, echo, payload);
  }
  ASSERT_GT(sim.stats().counter("rmi.reply_cache_evictions"), 0);

  constexpr std::uint64_t kCalls = 100;
  const auto before = alloc_count();
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    (void)ta.call_sync(b, echo, payload);
  }
  EXPECT_EQ(alloc_count() - before, 2 * kCalls);
}

TEST(HotpathAllocation, BlockingInvokeAddsOnlyTheChaseOp) {
  // MageClient::invoke blocks on AsyncClient's chase.  On the happy path
  // it may cost what the bare protocol round trip costs (call_sync of the
  // same InvokeRequest) plus at most one allocation: the chase's op, which
  // also holds the future's state.
  auto system = testing::make_logic_system(2);
  const common::NodeId n1{1}, n2{2};
  system->client(n2).create_component("obj", "Counter");
  auto& client = system->client(n1);
  common::NodeId cloc = n2;
  const rts::proto::InvokeRequest request{"obj", "increment", {}};
  auto bare_invoke = [&] {
    (void)rts::proto::InvokeReply::decode(system->transport(n1).call_sync(
        n2, rts::proto::verbs::kInvoke, request.encode()));
  };
  for (int i = 0; i < 64; ++i) {
    (void)client.invoke<std::int64_t>(cloc, "obj", "increment");
    bare_invoke();
  }

  constexpr std::uint64_t kCalls = 100;
  auto before = alloc_count();
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    (void)client.invoke<std::int64_t>(cloc, "obj", "increment");
  }
  const std::uint64_t adapter = alloc_count() - before;
  before = alloc_count();
  for (std::uint64_t i = 0; i < kCalls; ++i) bare_invoke();
  const std::uint64_t bare = alloc_count() - before;
  EXPECT_LE(adapter, bare + kCalls);
  EXPECT_EQ(cloc, n2);
}

TEST(AllocCounter, NothrowNewPairsWithTheReplacedDelete) {
  // std::stable_sort takes its scratch buffer from nothrow operator new
  // (std::get_temporary_buffer) and hands it back through operator delete.
  // The counter must replace both, or the buffer comes from an allocator
  // the replaced delete does not free into (ASan: alloc-dealloc-mismatch).
  std::vector<int> values(4096);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int>((i * 7919) % values.size());
  }
  const auto before = alloc_count();
  std::stable_sort(values.begin(), values.end());
  EXPECT_GT(alloc_count(), before);  // the scratch buffer was counted
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
}

TEST_F(HotpathRmiFixture, ScatterGatherBodyTravelsIntact) {
  // A multi-fragment body (the proto layer's [fields, payload] shape)
  // arrives as the same fragments, payload storage shared end to end.
  const auto probe = common::intern_verb("hp.sg");
  const serial::Buffer args(std::vector<std::uint8_t>(256, 0x42));
  const std::uint8_t* service_saw = nullptr;
  std::size_t service_fragments = 0;
  tb.register_service(probe, [&](common::NodeId,
                                 const serial::BufferChain& body,
                                 rmi::Replier replier) {
    service_fragments = body.fragments();
    serial::ChainReader r(body);
    EXPECT_EQ(r.read_string(), "target");
    serial::Buffer nested = r.read_bytes();
    service_saw = nested.data();
    replier.ok(nested);  // bounce the payload back, still by refcount
  });

  serial::ChainWriter w;
  w.write_string("target");
  w.append_payload(args);

  serial::Buffer::reset_copy_counters();
  auto result = ta.call_sync(b, probe, w.take());
  EXPECT_EQ(service_fragments, 2u);
  EXPECT_EQ(service_saw, args.data());  // zero-copy through the whole spine
  EXPECT_EQ(result, args);
  EXPECT_EQ(serial::Buffer::deep_copy_count(), 0u);
}

TEST_F(HotpathRmiFixture, EchoedPayloadAliasesTheRequestBuffer) {
  // Loopback-free proof that the body travels by reference: the service's
  // view of the body is the same storage the caller serialized.
  const auto probe = common::intern_verb("hp.probe");
  const std::uint8_t* service_saw = nullptr;
  tb.register_service(probe, [&service_saw](common::NodeId,
                                            const serial::BufferChain& body,
                                            rmi::Replier replier) {
    service_saw = body.fragment(0).data();
    replier.ok({});
  });
  const serial::Buffer payload(std::vector<std::uint8_t>(64, 1));
  (void)ta.call_sync(b, probe, payload);
  EXPECT_EQ(service_saw, payload.data());
}

TEST_F(HotpathRmiFixture, ReplierIsOneShot) {
  const auto verb = common::intern_verb("hp.double");
  std::optional<rmi::Replier> parked;
  tb.register_service(verb, [&parked](common::NodeId,
                                      const serial::BufferChain&,
                                      rmi::Replier replier) {
    parked = std::move(replier);
  });
  std::optional<rmi::CallResult> result;
  ta.call(b, verb, {}, [&result](rmi::CallResult r) { result = std::move(r); });
  sim.run_until([&parked] { return parked.has_value(); });
  ASSERT_TRUE(parked->armed());
  parked->ok({});
  EXPECT_FALSE(parked->armed());
  EXPECT_THROW(parked->ok({}), common::MageError);  // double reply
  EXPECT_THROW(parked->error("again"), common::MageError);
  sim.run_until([&result] { return result.has_value(); });
  EXPECT_TRUE(result->ok);
}

TEST_F(HotpathRmiFixture, MovedFromReplierThrows) {
  rmi::Replier from;
  EXPECT_THROW(from.ok({}), common::MageError);  // default-constructed
  const auto verb = common::intern_verb("hp.moved");
  tb.register_service(verb, [](common::NodeId, const serial::BufferChain&,
                               rmi::Replier replier) {
    rmi::Replier stolen = std::move(replier);
    EXPECT_FALSE(replier.armed());                  // NOLINT(bugprone-use-after-move)
    EXPECT_THROW(replier.ok({}), common::MageError);  // NOLINT
    stolen.ok({});
  });
  EXPECT_NO_THROW((void)ta.call_sync(b, verb, {}));
}

TEST_F(HotpathRmiFixture, RetryTimersDoNotAccumulate) {
  // Completed calls cancel their retry timers, so a storm leaves the event
  // queue empty instead of thousands of dead timers deep.
  const auto verb = common::intern_verb("hp.clean");
  tb.register_service(verb, [](common::NodeId, const serial::BufferChain&,
                               rmi::Replier replier) { replier.ok({}); });
  for (int i = 0; i < 500; ++i) (void)ta.call_sync(b, verb, {});
  EXPECT_EQ(sim.stats().counter("rmi.calls"), 500);
  // Everything completed, so every retry timer was cancelled: draining the
  // queue must not advance the clock anywhere near the first retry timeout
  // (un-cancelled timers would drag now() to >= 150'000).
  sim.run_until_idle();
  EXPECT_LT(sim.now(), 150'000);
  EXPECT_EQ(sim.stats().counter("rmi.retransmissions"), 0);
}

TEST_F(HotpathRmiFixture, RunUntilChecksPredicatesOnCompletionsNotEvents) {
  // Completion wakeups: a call_sync round trip runs ~5 internal events but
  // only wakes the predicate at user-code boundaries (service dispatch,
  // callback), so predicate checks stay a small multiple of calls instead
  // of tracking event count.
  const auto verb = common::intern_verb("hp.wake");
  tb.register_service(verb, [](common::NodeId, const serial::BufferChain&,
                               rmi::Replier replier) { replier.ok({}); });
  (void)ta.call_sync(b, verb, {});  // warm
  const auto checks_before = sim.stats().counter("sim.predicate_checks");
  for (int i = 0; i < 100; ++i) (void)ta.call_sync(b, verb, {});
  const auto checks = sim.stats().counter("sim.predicate_checks") - checks_before;
  EXPECT_LE(checks, 100 * 4);
}

}  // namespace
}  // namespace mage

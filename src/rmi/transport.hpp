// Per-node RMI endpoint.
//
// One Transport is attached to each namespace's network node.  It provides:
//
//   * `call(dest, verb, body, callback)` — asynchronous remote invocation
//     with retransmission on timeout and exactly-one completion of the
//     callback (result, remote error, or transport error after the retry
//     budget is exhausted);
//   * `register_service(verb, service)` — server-side dispatch.  A service
//     may reply immediately or hold its Replier and reply later, which is
//     how multi-party protocols (object move, class fetch, forwarding-chain
//     walks) are written without nested blocking;
//   * at-most-once execution: duplicate requests (retransmissions) never
//     re-execute a service; completed requests re-send the cached reply,
//     in-progress requests are ignored (the eventual reply will answer all
//     copies).
//
// Hot-path layout: verbs are interned VerbIds, so dispatch is a flat vector
// index; bodies are scatter-gather serial::BufferChains of ref-counted
// fragments, so a steady-state call deep-copies zero payload bytes
// (retransmission and the reply cache hold refcounts, not copies); pending
// calls and the reply cache are open-addressed flat tables
// (common::FlatMap64 — no per-insert node allocation), the reply cache
// keyed by a packed (node, request) word with a ring-buffer eviction order
// and pre-sized to its ring capacity so the receive path never allocates.
// Completion wakeups: the transport wakes the simulation exactly where
// user code runs (service dispatch, callback completion), letting
// run_until skip predicate checks on internal events.
//
// Cost accounting per the CostModel: the caller is charged client overhead
// plus marshalling before the request hits the wire; the callee is charged
// dispatch plus unmarshalling before the service runs.  Every successful
// call increments "rmi.calls" — the unit the paper uses to explain Table 3.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_map.hpp"
#include "common/function.hpp"
#include "common/ids.hpp"
#include "common/verb.hpp"
#include "net/network.hpp"
#include "rmi/envelope.hpp"
#include "serial/buffer.hpp"
#include "serial/chain.hpp"

namespace mage::rmi {

// Outcome of one RMI call, exactly one of which reaches the callback.
struct CallResult {
  bool ok = false;
  std::string error;          // set when !ok
  serial::BufferChain body;   // set when ok

  static CallResult success(serial::BufferChain body) {
    return CallResult{true, {}, std::move(body)};
  }
  static CallResult failure(std::string error) {
    return CallResult{false, std::move(error), {}};
  }
};

class Transport;

// Handle a service uses to answer one request.  Move-only and strictly
// one-shot: replying a second time (or through a moved-from handle) throws
// MageError — a service that double-replies is a protocol bug, not a
// recoverable condition.
class Replier {
 public:
  Replier() = default;
  Replier(Transport* transport, common::NodeId to, common::RequestId id,
          common::VerbId verb)
      : transport_(transport), to_(to), id_(id), verb_(verb) {}

  Replier(Replier&& other) noexcept { steal(other); }
  Replier& operator=(Replier&& other) noexcept {
    if (this != &other) steal(other);
    return *this;
  }
  Replier(const Replier&) = delete;
  Replier& operator=(const Replier&) = delete;

  void ok(serial::BufferChain body);
  void error(const std::string& message);

  [[nodiscard]] common::NodeId caller() const { return to_; }
  // True until the reply has been sent (false for default-constructed and
  // moved-from handles).
  [[nodiscard]] bool armed() const { return transport_ != nullptr; }

 private:
  void steal(Replier& other) {
    transport_ = other.transport_;
    to_ = other.to_;
    id_ = other.id_;
    verb_ = other.verb_;
    other.transport_ = nullptr;
  }
  // Returns the transport exactly once; throws on reuse.
  Transport* fire();

  Transport* transport_ = nullptr;
  common::NodeId to_;
  common::RequestId id_;
  common::VerbId verb_;
};

struct CallOptions {
  common::SimDuration retry_timeout_us = 150'000;  // 150 simulated ms
  int max_attempts = 24;
};

// A failed call carries only an error string; its marker prefix names the
// failure's family: "rmi call" for the transport's own failures (no reply
// within the retransmission budget, a channel deadline), "access denied"
// and "capacity exceeded" for rejections by the callee's policy.
[[nodiscard]] bool is_transport_failure(const std::string& error);

// Throws the MageError subclass a marked error names (TransportError,
// AccessDeniedError, CapacityError); returns for an unmarked error, which
// the caller raises as its own failure type.  The one error mapping of
// every blocking call: Transport::call_sync and MageClient's chasing verbs.
void throw_if_marked(const std::string& error);

// Per-link invoke coalescing (docs/ARCHITECTURE.md "Flush quanta").  When
// enabled, every outgoing envelope (requests, replies, one-ways) bound for
// a remote node is queued per destination and flushed as ONE batch frame
// (Envelope::encode_batch) at the next flush-quantum boundary — so a burst
// of invokes toward one link and the burst of their replies each ride a
// single net::Message (one mailbox push, one wire_seq).  Quantum boundaries
// are absolute multiples of `flush_quantum_us`, which lines batch flushes
// up with the sharded engine's conservative-lookahead windows when the
// quantum equals the lookahead.
struct BatchOptions {
  bool enabled = false;
  // Flush at the next absolute multiple of this quantum (>= 1).
  common::SimDuration flush_quantum_us = 500;
  // Flush immediately once a link's queue holds this many envelopes...
  std::size_t max_batch_invokes = 1024;
  // ...or this many encoded bytes, whichever trips first.
  std::size_t max_batch_bytes = 256 * 1024;
  // Bodies larger than this bypass batching and keep the scatter-gather
  // zero-copy send path (batch frames gather payload bytes by copy).
  std::size_t max_inline_body = 4096;
};

// Adaptive at-most-once reply-cache sizing (ROADMAP item 1).  Opt-in: the
// ring doubles when eviction pressure accumulates (or instantly on an
// observed eviction-caused re-execution) up to `ceiling`, and halves back
// toward `floor` after an idle period with no evictions.  Growth/shrink
// both preserve exact FIFO eviction order.
struct AdaptiveCacheOptions {
  bool enabled = false;
  std::size_t floor = 512;
  std::size_t ceiling = 8192;
  // Evictions accumulated since the last resize that trigger a doubling.
  // Kept low: every eviction below the ceiling risks a duplicate
  // re-execution, so the ring should double after minimal evidence.
  std::int64_t grow_threshold = 2;
  // Halve (toward floor) when no eviction happened for this long.
  common::SimDuration idle_shrink_us = 250'000;
};

class Transport {
 public:
  // Move-only: callbacks routinely capture Buffers and Repliers.
  using Callback = common::UniqueFunction<void(CallResult)>;
  // Service receives the caller's node, the argument body, and a Replier.
  // Multi-shot (std::function): one registration answers many requests.
  using Service = std::function<void(common::NodeId caller,
                                     const serial::BufferChain& body,
                                     Replier replier)>;

  // At-most-once reply-cache depth (cached replies retained per node).
  static constexpr std::size_t kReplyCacheCapacity = 8192;

  // `reply_cache_capacity` bounds the at-most-once cache; benches shrink it
  // to exercise ring eviction under load without 8k-call warmups.
  Transport(net::Network& network, common::NodeId self,
            std::size_t reply_cache_capacity = kReplyCacheCapacity);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  [[nodiscard]] common::NodeId self() const { return self_; }
  [[nodiscard]] net::Network& network() { return network_; }

  void register_service(common::VerbId verb, Service service);
  void register_service(std::string_view verb, Service service) {
    register_service(common::intern_verb(verb), std::move(service));
  }

  // Asynchronous call; `callback` fires exactly once — unless the call is
  // cancel()ed first, in which case it never fires.  The returned id is the
  // cancellation handle (channels use it; plain callers may ignore it).
  common::RequestId call(common::NodeId dest, common::VerbId verb,
                         serial::BufferChain body, Callback callback,
                         CallOptions options = {});
  common::RequestId call(common::NodeId dest, std::string_view verb,
                         serial::BufferChain body, Callback callback,
                         CallOptions options = {}) {
    return call(dest, common::intern_verb(verb), std::move(body),
                std::move(callback), options);
  }

  // Abandons an in-flight call: the retry timer is cancelled, the pending
  // entry (and its callback, unfired) is destroyed, and a reply arriving
  // later is dropped as stale.  No-op when the call already completed.
  // This is how a hedged channel silences the losing branch.  Counted in
  // "rmi.cancelled_calls".
  void cancel(common::RequestId id);

  // True one-way invoke: no pending-table entry, no retry timer, no reply
  // — and on the receiving side no reply-cache or caller-marks traffic.
  // The service runs with an unarmed Replier (replier.armed() == false);
  // delivery is at-most-once (0 under loss, never 2: nothing retransmits).
  void call_oneway(common::NodeId dest, common::VerbId verb,
                   serial::BufferChain body);
  void call_oneway(common::NodeId dest, std::string_view verb,
                   serial::BufferChain body) {
    call_oneway(dest, common::intern_verb(verb), std::move(body));
  }

  // Enables/disables per-link batching (see BatchOptions).  Any queued
  // envelopes are flushed before the new options take effect.
  void set_batching(BatchOptions options);
  [[nodiscard]] const BatchOptions& batching() const { return batch_options_; }

  // Enables/disables adaptive reply-cache sizing (see AdaptiveCacheOptions).
  // The current capacity is clamped into [floor, ceiling] immediately.
  void set_adaptive_reply_cache(AdaptiveCacheOptions options);
  [[nodiscard]] std::size_t reply_cache_capacity() const {
    return reply_cache_capacity_;
  }

  // Synchronous call usable only from driver code (runs the event loop
  // until the reply arrives).  Throws a marked error's type (see
  // throw_if_marked), else RemoteInvocationError.
  serial::BufferChain call_sync(common::NodeId dest, common::VerbId verb,
                                serial::BufferChain body,
                                CallOptions options = {});
  serial::BufferChain call_sync(common::NodeId dest, std::string_view verb,
                                serial::BufferChain body,
                                CallOptions options = {}) {
    return call_sync(dest, common::intern_verb(verb), std::move(body),
                     options);
  }

 private:
  friend class Replier;

  struct PendingCall {
    common::NodeId dest;
    common::VerbId verb;
    serial::BufferChain body;  // retained (refcounts) for retransmission
    Callback callback;
    CallOptions options;
    int attempts = 0;
    bool done = false;
    sim::EventId retry_timer;  // outstanding timer, cancelled on completion
  };

  void on_message(net::Message msg);
  // The envelope is consumed (its body moved out) by the handlers.
  void dispatch_envelope(common::NodeId from, Envelope& env);
  void on_request(common::NodeId from, Envelope& env);
  void on_oneway(common::NodeId from, Envelope& env);
  void on_reply(Envelope& env);
  void transmit(common::RequestId id);
  void arm_retry_timer(common::RequestId id);
  void send_reply(common::NodeId to, common::RequestId id,
                  common::VerbId verb, bool ok, const std::string& error,
                  serial::BufferChain body);
  std::int64_t* verb_calls_counter(common::VerbId verb);

  // Runs `fn` after `cost` simulated CPU microseconds — inline when the
  // cost model charges nothing (zero-cost benches otherwise pay an event
  // round-trip per call), a Wake::No event otherwise.  RECEIVER SIDE ONLY:
  // inlining is safe only where no driver code can interleave at the same
  // timestamp (message delivery -> service dispatch).  Sender-side steps
  // (call prep, reply marshalling) must stay events even at zero cost, so
  // drivers keep their window to mutate faults before a send reaches the
  // wire.
  template <typename Fn>
  void after_cpu(common::SimDuration cost, Fn&& fn) {
    if (cost == 0) {
      fn();
    } else {
      sim_.schedule_after(cost, std::forward<Fn>(fn), sim::Wake::No);
    }
  }

  // All outgoing envelopes funnel through here: batched links queue the
  // envelope for the next flush boundary, everything else sends now.
  void route(common::NodeId dest, Envelope env, net::MsgKind kind);
  void send_now(common::NodeId dest, Envelope env, net::MsgKind kind);
  void schedule_flush();
  void flush_all();
  void flush_link(std::size_t dest_index);

  // Rebuilds the at-most-once ring at `new_capacity`, keeping the newest
  // entries in exact FIFO order (shrink evicts oldest-first, with the same
  // accounting as a ring wrap).
  void resize_reply_cache(std::size_t new_capacity);

  net::Network& network_;
  sim::Simulation& sim_;
  common::NodeId self_;
  // Flat dispatch table indexed by VerbId (grown on register).  A deque so
  // growth never moves existing entries: a service may register new verbs
  // from inside its own handler while its std::function is mid-invocation
  // (re-registering the SAME verb from its own handler is still undefined).
  std::deque<Service> services_;
  // Open-addressed, keyed by request id (ids start at 1, never 0).
  common::FlatMap64<PendingCall> pending_;
  std::uint64_t next_request_ = 1;

  // Hot-path counters (see StatsRegistry::counter_handle).
  std::int64_t* calls_;
  std::int64_t* failures_;
  std::int64_t* retransmissions_;
  std::int64_t* duplicates_suppressed_;
  std::int64_t* stale_replies_;
  std::int64_t* reply_cache_evictions_;
  std::int64_t* evicted_reexecutions_;
  std::int64_t* cancelled_calls_;
  std::int64_t* oneway_calls_;
  std::int64_t* oneway_executions_;
  std::int64_t* oneway_no_service_;
  std::int64_t* batches_sent_;
  std::int64_t* batched_invokes_;
  std::int64_t* batch_singletons_;
  std::int64_t* reply_cache_grows_;
  std::int64_t* reply_cache_shrinks_;
  std::int64_t* reply_cache_capacity_stat_;
  std::int64_t* reply_cache_capacity_high_water_;
  // Per-verb "rmi.calls.<verb>" counters, indexed by VerbId.
  std::vector<std::int64_t*> per_verb_calls_;

  // --- per-link batching state (see BatchOptions) --------------------------
  struct BatchItem {
    Envelope env;
    net::MsgKind kind;
    std::size_t encoded_size;  // env.encoded_size(), computed once on queue
  };
  struct LinkQueue {
    std::vector<BatchItem> items;  // FIFO; capacity reused across flushes
    std::size_t bytes = 0;         // encoded_size() sum of `items`
  };
  BatchOptions batch_options_;
  common::VerbId batch_verb_;            // interned "rmi.batch", for traces
  std::vector<LinkQueue> batch_queues_;  // indexed by dest NodeId value
  bool flush_scheduled_ = false;         // one flush event serves all links

  // --- adaptive reply-cache state (see AdaptiveCacheOptions) ---------------
  AdaptiveCacheOptions adaptive_cache_;
  std::int64_t evictions_since_resize_ = 0;
  common::SimTime last_eviction_us_ = 0;

  // At-most-once receiver state, keyed by (caller, request id) packed into
  // one 64-bit word (caller in the high bits, request id in the low 32).
  // The full request id is kept in the entry and verified on every hit, so
  // a low-32-bit wraparound can never alias two live requests.  The key is
  // never 0 (node ids start at 1), as FlatMap64 requires.
  //
  // Layout: the open-addressed index probes slim (key, ring slot) pairs —
  // a few slots per cache line — while the fat entries (cached reply
  // envelopes) sit in a ring array in insertion order, each touched only
  // when its request is addressed.  The ring slot being overwritten on
  // insert is the entry evicted.  The index is pre-sized to
  // reply_cache_capacity_ (no rehash, no backward-shift of anything
  // bigger than 16 bytes); the entries ring grows append-only to capacity
  // and is then overwritten in place, so once it has wrapped the receive
  // path never allocates.
  struct ReplyCacheEntry {
    std::uint64_t key = 0;  // pack_key of the request this slot caches
    common::RequestId request_id;
    bool completed = false;  // false => execution still in progress
    Envelope reply;          // valid when completed
  };
  static std::uint64_t pack_key(common::NodeId node, common::RequestId id) {
    return (static_cast<std::uint64_t>(node.value()) << 32) |
           (id.value() & 0xFFFFFFFFull);
  }
  // Claims the ring slot for a fresh key (evicting the slot's previous
  // entry once the ring is full) and indexes it.
  ReplyCacheEntry* reply_cache_insert(std::uint64_t key);

  common::FlatMap64<std::uint32_t> reply_cache_index_;  // key -> ring slot
  std::vector<ReplyCacheEntry> reply_cache_entries_;    // insertion order
  std::size_t reply_cache_head_ = 0;
  std::size_t reply_cache_capacity_;

  // Per-caller-node marks backing the "rmi.evicted_reexecutions" counter
  // (ROADMAP: surface eviction-caused re-executions).  Keyed by the
  // caller's node value (non-zero as FlatMap64 requires; one entry per
  // peer).  `high_water` is the highest request id ever received from the
  // caller; `evicted_max` the highest of the caller's ids whose reply-cache
  // entry has been evicted (or alias-overwritten).  An arriving request
  // that misses the cache with id <= evicted_max re-executes the service —
  // at-most-once broken by cache undersizing — and is counted.  The test
  // is exact whenever the cache is adequately sized (nothing of the
  // caller's was ever evicted => counter provably 0, the chaos-run
  // assertion); in deliberately undersized AND lossy runs a late first
  // transmission below an evicted id can overcount — acceptable for a
  // pressure diagnostic whose load-bearing use is the zero assertion.
  struct CallerMarks {
    std::uint64_t high_water = 0;
    std::uint64_t evicted_max = 0;
  };
  void mark_evicted(std::uint64_t key, common::RequestId id);
  common::FlatMap64<CallerMarks> caller_marks_;
};

}  // namespace mage::rmi

#include "rmi/transport.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "serial/writer.hpp"

namespace mage::rmi {

Transport* Replier::fire() {
  if (transport_ == nullptr) {
    throw common::MageError(
        "reply through a spent, moved-from, or default-constructed Replier "
        "(verb '" + common::verb_name(verb_) + "'): services reply exactly "
        "once");
  }
  return std::exchange(transport_, nullptr);
}

void Replier::ok(serial::BufferChain body) {
  fire()->send_reply(to_, id_, verb_, true, {}, std::move(body));
}

void Replier::error(const std::string& message) {
  fire()->send_reply(to_, id_, verb_, false, message, {});
}

Transport::Transport(net::Network& network, common::NodeId self,
                     std::size_t reply_cache_capacity)
    : network_(network),
      sim_(network.node_sim(self)),
      self_(self),
      calls_(sim_.stats().counter_handle("rmi.calls")),
      failures_(sim_.stats().counter_handle("rmi.failures")),
      retransmissions_(sim_.stats().counter_handle("rmi.retransmissions")),
      duplicates_suppressed_(
          sim_.stats().counter_handle("rmi.duplicates_suppressed")),
      stale_replies_(sim_.stats().counter_handle("rmi.stale_replies")),
      reply_cache_evictions_(
          sim_.stats().counter_handle("rmi.reply_cache_evictions")),
      evicted_reexecutions_(
          sim_.stats().counter_handle("rmi.evicted_reexecutions")),
      cancelled_calls_(sim_.stats().counter_handle("rmi.cancelled_calls")),
      oneway_calls_(sim_.stats().counter_handle("rmi.oneway_calls")),
      oneway_executions_(sim_.stats().counter_handle("rmi.oneway_executions")),
      oneway_no_service_(sim_.stats().counter_handle("rmi.oneway_no_service")),
      batches_sent_(sim_.stats().counter_handle("rmi.batches_sent")),
      batched_invokes_(sim_.stats().counter_handle("rmi.batched_invokes")),
      batch_singletons_(sim_.stats().counter_handle("rmi.batch_singletons")),
      reply_cache_grows_(
          sim_.stats().counter_handle("rmi.reply_cache_grows")),
      reply_cache_shrinks_(
          sim_.stats().counter_handle("rmi.reply_cache_shrinks")),
      reply_cache_capacity_stat_(
          sim_.stats().counter_handle("rmi.reply_cache_capacity")),
      reply_cache_capacity_high_water_(
          sim_.stats().counter_handle("rmi.reply_cache_capacity_highwater")),
      batch_verb_(common::intern_verb("rmi.batch")),
      reply_cache_capacity_(reply_cache_capacity) {
  if (reply_cache_capacity_ == 0) {
    throw common::MageError(
        "reply cache capacity must be at least 1 (at-most-once needs a "
        "live entry per in-flight request)");
  }
  // Pre-size the slim probe index so steady-state inserts never rehash.
  // The fat entries ring grows on demand (append-only up to capacity, then
  // in-place overwrite), so an idle transport does not pre-commit
  // capacity * sizeof(ReplyCacheEntry) bytes — once the ring has wrapped,
  // the receive path is allocation-free.
  reply_cache_index_.reserve(reply_cache_capacity_);
  *reply_cache_capacity_stat_ = static_cast<std::int64_t>(reply_cache_capacity_);
  *reply_cache_capacity_high_water_ =
      static_cast<std::int64_t>(reply_cache_capacity_);
  network_.set_handler(self_,
                       [this](net::Message msg) { on_message(std::move(msg)); });
}

void Transport::set_batching(BatchOptions options) {
  if (options.enabled &&
      (options.flush_quantum_us < 1 || options.max_batch_invokes < 1)) {
    throw common::MageError(
        "batching needs a flush quantum and invoke budget of at least 1");
  }
  // Never strand queued envelopes under the old policy.
  flush_all();
  batch_options_ = options;
}

void Transport::set_adaptive_reply_cache(AdaptiveCacheOptions options) {
  if (options.enabled &&
      (options.floor < 1 || options.ceiling < options.floor ||
       options.grow_threshold < 1 || options.idle_shrink_us < 1)) {
    throw common::MageError(
        "adaptive reply cache needs 1 <= floor <= ceiling, a positive grow "
        "threshold, and a positive idle-shrink period");
  }
  adaptive_cache_ = options;
  if (options.enabled) {
    const std::size_t clamped = std::clamp(reply_cache_capacity_,
                                           options.floor, options.ceiling);
    if (clamped != reply_cache_capacity_) resize_reply_cache(clamped);
    last_eviction_us_ = sim_.now();
  }
}

void Transport::register_service(common::VerbId verb, Service service) {
  if (!verb.valid()) {
    throw common::MageError("cannot register a service on an invalid verb");
  }
  if (verb.value() >= services_.size()) {
    services_.resize(verb.value() + 1);
  }
  services_[verb.value()] = std::move(service);
}

std::int64_t* Transport::verb_calls_counter(common::VerbId verb) {
  if (verb.value() >= per_verb_calls_.size()) {
    per_verb_calls_.resize(verb.value() + 1, nullptr);
  }
  auto*& handle = per_verb_calls_[verb.value()];
  if (handle == nullptr) {
    handle = sim_.stats().counter_handle(common::verb_calls_stat(verb));
  }
  return handle;
}

common::RequestId Transport::call(common::NodeId dest, common::VerbId verb,
                                  serial::BufferChain body, Callback callback,
                                  CallOptions options) {
  if (!verb.valid() || verb.value() >= common::interned_verb_count()) {
    throw common::MageError("call on an uninterned verb id");
  }
  const common::RequestId id{next_request_++};
  const std::size_t body_size = body.size();
  auto [pc, inserted] = pending_.try_emplace(id.value());
  assert(inserted);
  (void)inserted;
  pc->dest = dest;
  pc->verb = verb;
  pc->body = std::move(body);
  pc->callback = std::move(callback);
  pc->options = options;

  ++*calls_;
  ++*verb_calls_counter(verb);

  // Client-side overhead: stub entry + argument marshalling, charged as
  // simulated CPU time before the request reaches the wire.
  const auto& model = network_.cost_model();
  const common::SimDuration prep =
      model.rmi_client_overhead_us + model.marshal_time(body_size);
  // Always an event (never inline, even at zero cost): call() runs in
  // driver context, and the driver must keep its window to mutate faults
  // before the request reaches the wire — the seed's contract.
  sim_.schedule_after(prep, [this, id] { transmit(id); }, sim::Wake::No);
  return id;
}

void Transport::cancel(common::RequestId id) {
  PendingCall* pc = pending_.find(id.value());
  if (pc == nullptr || pc->done) return;
  // The initial prep event (and any armed retry timer) may still reference
  // this id; transmit() tolerates a missing entry, and the timer is
  // cancelled outright so the queue does not keep a dead closure alive.
  sim_.cancel(pc->retry_timer);
  pending_.erase(id.value());
  ++*cancelled_calls_;
}

void Transport::call_oneway(common::NodeId dest, common::VerbId verb,
                            serial::BufferChain body) {
  if (!verb.valid() || verb.value() >= common::interned_verb_count()) {
    throw common::MageError("call_oneway on an uninterned verb id");
  }
  ++*oneway_calls_;
  ++*verb_calls_counter(verb);

  Envelope env;
  env.kind = EnvelopeKind::OneWay;
  // Ids keep the global sequence so traces stay unambiguous; one-way ids
  // never enter the pending table or the at-most-once key space.
  env.request_id = common::RequestId{next_request_++};
  env.verb = verb;
  const std::size_t body_size = body.size();
  env.body = std::move(body);

  const auto& model = network_.cost_model();
  const common::SimDuration prep =
      model.rmi_client_overhead_us + model.marshal_time(body_size);
  // An event for the same reason as call(): keep the driver's window to
  // mutate faults before the send reaches the wire.
  sim_.schedule_after(
      prep,
      [this, dest, env = std::move(env)]() mutable {
        route(dest, std::move(env), net::MsgKind::OneWay);
      },
      sim::Wake::No);
}

void Transport::transmit(common::RequestId id) {
  PendingCall* pc = pending_.find(id.value());
  if (pc == nullptr || pc->done) return;

  if (pc->attempts >= pc->options.max_attempts) {
    pc->done = true;
    auto callback = std::move(pc->callback);
    const std::string message =
        "rmi call '" + common::verb_name(pc->verb) + "' timed out after " +
        std::to_string(pc->options.max_attempts) + " attempts";
    pending_.erase(id.value());
    ++*failures_;
    sim_.wake();  // completion: an enclosing run_until should re-check
    callback(CallResult::failure(message));
    return;
  }

  ++pc->attempts;
  if (pc->attempts > 1) ++*retransmissions_;

  Envelope env;
  env.kind = EnvelopeKind::Request;
  env.request_id = id;
  env.verb = pc->verb;
  env.body = pc->body;  // fragment refcounts, not a copy
  route(pc->dest, std::move(env), net::MsgKind::Request);
  arm_retry_timer(id);
}

void Transport::send_now(common::NodeId dest, Envelope env,
                         net::MsgKind kind) {
  network_.send(net::Message{self_, dest, env.verb, kind, env.encode_header(),
                             std::move(env.body)});
}

void Transport::route(common::NodeId dest, Envelope env, net::MsgKind kind) {
  if (!batch_options_.enabled || dest.value() == self_.value() ||
      env.body.size() > batch_options_.max_inline_body) {
    // Loopback and oversized bodies keep the scatter-gather direct path.
    send_now(dest, std::move(env), kind);
    return;
  }
  if (batch_queues_.size() <= dest.value()) {
    batch_queues_.resize(dest.value() + 1);
  }
  LinkQueue& queue = batch_queues_[dest.value()];
  const std::size_t encoded = env.encoded_size();
  queue.bytes += encoded;
  queue.items.push_back(BatchItem{std::move(env), kind, encoded});
  if (queue.items.size() >= batch_options_.max_batch_invokes ||
      queue.bytes >= batch_options_.max_batch_bytes) {
    flush_link(dest.value());
    return;
  }
  schedule_flush();
}

void Transport::schedule_flush() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  // Absolute quantum boundaries, not now()+quantum: every node's flushes
  // land on the same global grid, so a request batch and the batch of its
  // replies pipeline one quantum apart instead of drifting.
  const common::SimDuration quantum = batch_options_.flush_quantum_us;
  const common::SimTime at = (sim_.now() / quantum + 1) * quantum;
  sim_.schedule_at(at, [this] { flush_all(); }, sim::Wake::No);
}

void Transport::flush_all() {
  flush_scheduled_ = false;
  for (std::size_t dest = 0; dest < batch_queues_.size(); ++dest) {
    flush_link(dest);
  }
}

void Transport::flush_link(std::size_t dest_index) {
  LinkQueue& queue = batch_queues_[dest_index];
  if (queue.items.empty()) return;
  const common::NodeId dest{static_cast<std::uint32_t>(dest_index)};
  if (queue.items.size() == 1) {
    // Single-invoke degenerate case: collapse to the plain envelope so the
    // single-fragment fast path (and its header counter) still applies.
    BatchItem item = std::move(queue.items.front());
    queue.items.clear();
    queue.bytes = 0;
    ++*batch_singletons_;
    send_now(dest, std::move(item.env), item.kind);
    return;
  }
  // Gather every queued envelope into ONE flat frame: a single pre-sized
  // Writer allocation, then one net::Message (one mailbox push, one
  // wire_seq) for the whole batch.
  std::size_t total = 1 + 4 + 4 * queue.items.size() + queue.bytes;
  serial::Writer w(total);
  w.write_u8(kBatchTag);
  w.write_u32(static_cast<std::uint32_t>(queue.items.size()));
  for (const BatchItem& item : queue.items) {
    w.write_u32(static_cast<std::uint32_t>(item.encoded_size));
    item.env.encode_into(w);
  }
  ++*batches_sent_;
  *batched_invokes_ += static_cast<std::int64_t>(queue.items.size());
  queue.items.clear();
  queue.bytes = 0;
  network_.send(net::Message{self_, dest, batch_verb_, net::MsgKind::Batch,
                             w.take(), {}});
}

void Transport::arm_retry_timer(common::RequestId id) {
  PendingCall* pc = pending_.find(id.value());
  assert(pc != nullptr);
  pc->retry_timer = sim_.schedule_after(
      pc->options.retry_timeout_us, [this, id] { transmit(id); },
      sim::Wake::No);
}

serial::BufferChain Transport::call_sync(common::NodeId dest,
                                         common::VerbId verb,
                                         serial::BufferChain body,
                                         CallOptions options) {
  if (network_.is_sharded()) {
    // Blocking here would spin one shard's queue while the reply depends
    // on other shards making progress — a deadlock by construction.
    throw common::MageError(
        "call_sync is driver-mode only: on a sharded network use the "
        "asynchronous call() and complete from the callback");
  }
  std::optional<CallResult> result;
  call(
      dest, verb, std::move(body),
      [&result](CallResult r) { result = std::move(r); }, options);
  const bool completed =
      sim_.run_until([&result] { return result.has_value(); });
  if (!completed) {
    throw common::TransportError("simulation drained while waiting for '" +
                                 common::verb_name(verb) + "' reply");
  }
  if (!result->ok) {
    throw_if_marked(result->error);
    throw common::RemoteInvocationError(result->error);
  }
  return std::move(result->body);
}

bool is_transport_failure(const std::string& error) {
  return error.rfind("rmi call", 0) == 0;
}

void throw_if_marked(const std::string& error) {
  if (is_transport_failure(error)) throw common::TransportError(error);
  if (error.rfind("access denied", 0) == 0) {
    throw common::AccessDeniedError(error);
  }
  if (error.rfind("capacity exceeded", 0) == 0) {
    throw common::CapacityError(error);
  }
}

// A frame that does not decode is contained at the node that received it:
// dropped whole and counted, never thrown into the engine, where it would
// stop the run and fail every unrelated call in flight.  Only the framing
// is guarded: once the frame has decoded, a SerializationError (a
// service's own decode failure) propagates as before.  The counter
// registers on first use, so a run that never sees a malformed frame keeps
// its counter set unchanged.
void Transport::on_message(net::Message msg) {
  bool decoded = false;
  try {
    if (Envelope::is_batch(msg.header)) {
      // One mailbox push carried the whole flush; unpack (zero-copy
      // slices) and dispatch the sub-envelopes in their sent order.
      std::vector<Envelope> envelopes = Envelope::decode_batch(msg.header);
      decoded = true;
      for (Envelope& env : envelopes) {
        dispatch_envelope(msg.from, env);
      }
      return;
    }
    Envelope env = Envelope::decode(msg.header, std::move(msg.body));
    decoded = true;
    dispatch_envelope(msg.from, env);
  } catch (const common::SerializationError&) {
    if (decoded) throw;
    sim_.stats().add("rmi.malformed_frames");
  }
}

void Transport::dispatch_envelope(common::NodeId from, Envelope& env) {
  switch (env.kind) {
    case EnvelopeKind::Request:
      on_request(from, env);
      break;
    case EnvelopeKind::OneWay:
      on_oneway(from, env);
      break;
    case EnvelopeKind::Reply:
      on_reply(env);
      break;
  }
}

void Transport::on_oneway(common::NodeId from, Envelope& env) {
  // One-way requests never touch the at-most-once state: nothing ever
  // retransmits them, so a duplicate cannot exist; and with no Replier to
  // arm there is no reply to cache.
  const std::uint32_t verb_index = env.verb.value();
  if (verb_index >= services_.size() || !services_[verb_index]) {
    // No reply channel to carry the error — count and drop.
    ++*oneway_no_service_;
    return;
  }
  ++*oneway_executions_;
  const auto& model = network_.cost_model();
  const common::SimDuration prep =
      model.rmi_server_dispatch_us + model.marshal_time(env.body.size());
  after_cpu(prep, [this, verb_index, from,
                   body = std::move(env.body)]() mutable {
    sim_.wake();  // user code runs here (see on_request)
    services_[verb_index](from, body, Replier{});
  });
}

void Transport::mark_evicted(std::uint64_t key, common::RequestId id) {
  CallerMarks* marks = caller_marks_.try_emplace(key >> 32).first;
  marks->evicted_max = std::max(marks->evicted_max, id.value());
}

void Transport::resize_reply_cache(std::size_t new_capacity) {
  assert(new_capacity >= 1);
  if (new_capacity == reply_cache_capacity_) return;
  const std::size_t live = reply_cache_entries_.size();
  const std::size_t keep = std::min(live, new_capacity);
  const std::size_t drop = live - keep;
  // Walk the ring oldest-first so the rebuilt vector is exact FIFO order;
  // a shrink evicts the oldest entries with the same accounting as a ring
  // wrap (their at-most-once protection is genuinely gone).
  const std::size_t start =
      live == reply_cache_capacity_ ? reply_cache_head_ : 0;
  std::vector<ReplyCacheEntry> rebuilt;
  rebuilt.reserve(keep);
  for (std::size_t i = 0; i < live; ++i) {
    ReplyCacheEntry& entry =
        reply_cache_entries_[(start + i) % reply_cache_capacity_];
    if (i < drop) {
      ++*reply_cache_evictions_;
      mark_evicted(entry.key, entry.request_id);
      continue;
    }
    rebuilt.push_back(std::move(entry));
  }
  reply_cache_entries_ = std::move(rebuilt);
  reply_cache_head_ = 0;
  if (new_capacity > reply_cache_capacity_) {
    ++*reply_cache_grows_;
  } else {
    ++*reply_cache_shrinks_;
  }
  reply_cache_capacity_ = new_capacity;
  // Rebuild the slim index over the survivors (pre-sized, no rehash).
  reply_cache_index_ = common::FlatMap64<std::uint32_t>();
  reply_cache_index_.reserve(new_capacity);
  for (std::size_t i = 0; i < reply_cache_entries_.size(); ++i) {
    *reply_cache_index_.try_emplace(reply_cache_entries_[i].key).first =
        static_cast<std::uint32_t>(i);
  }
  evictions_since_resize_ = 0;
  *reply_cache_capacity_stat_ = static_cast<std::int64_t>(new_capacity);
  *reply_cache_capacity_high_water_ =
      std::max(*reply_cache_capacity_high_water_,
               static_cast<std::int64_t>(new_capacity));
}

Transport::ReplyCacheEntry* Transport::reply_cache_insert(std::uint64_t key) {
  if (adaptive_cache_.enabled) {
    if (reply_cache_entries_.size() == reply_cache_capacity_ &&
        reply_cache_capacity_ < adaptive_cache_.ceiling &&
        evictions_since_resize_ >= adaptive_cache_.grow_threshold) {
      // Sustained eviction pressure: double before this insert evicts yet
      // another live entry.
      resize_reply_cache(
          std::min(adaptive_cache_.ceiling, reply_cache_capacity_ * 2));
    } else if (reply_cache_capacity_ > adaptive_cache_.floor &&
               sim_.now() - last_eviction_us_ >=
                   adaptive_cache_.idle_shrink_us) {
      // Idle: no eviction for a full shrink period — halve toward the
      // floor, one step per period.
      resize_reply_cache(
          std::max(adaptive_cache_.floor, reply_cache_capacity_ / 2));
      last_eviction_us_ = sim_.now();
    }
  }
  std::uint32_t slot;
  if (reply_cache_entries_.size() < reply_cache_capacity_) {
    slot = static_cast<std::uint32_t>(reply_cache_entries_.size());
    reply_cache_entries_.emplace_back();
  } else {
    // Ring full: this slot's previous occupant is the entry evicted.
    slot = static_cast<std::uint32_t>(reply_cache_head_);
    reply_cache_head_ = (reply_cache_head_ + 1) % reply_cache_capacity_;
    reply_cache_index_.erase(reply_cache_entries_[slot].key);
    ++*reply_cache_evictions_;
    ++evictions_since_resize_;
    last_eviction_us_ = sim_.now();
    mark_evicted(reply_cache_entries_[slot].key,
                 reply_cache_entries_[slot].request_id);
  }
  *reply_cache_index_.try_emplace(key).first = slot;
  ReplyCacheEntry* entry = &reply_cache_entries_[slot];
  entry->key = key;
  return entry;
}

void Transport::on_request(common::NodeId from, Envelope& env) {
  const std::uint64_t key = pack_key(from, env.request_id);
  const std::uint32_t* cached_slot = reply_cache_index_.find(key);
  ReplyCacheEntry* cached =
      cached_slot != nullptr ? &reply_cache_entries_[*cached_slot] : nullptr;
  if (cached != nullptr && cached->request_id == env.request_id) {
    // Duplicate (retransmission).  If we already answered, answer again
    // from the cache; if the service is still working, stay silent.
    ++*duplicates_suppressed_;
    if (cached->completed) {
      Envelope reply = cached->reply;  // fragment refcounts, not a copy
      route(from, std::move(reply), net::MsgKind::ReplyDup);
    }
    return;
  }

  const std::uint32_t verb_index = env.verb.value();
  if (verb_index >= services_.size() || !services_[verb_index]) {
    send_reply(from, env.request_id, env.verb, false,
               "no service registered for verb '" +
                   common::verb_name(env.verb) + "' on node " +
                   std::to_string(self_.value()),
               {});
    return;
  }

  // Not in the cache — a genuinely new request, a first transmission
  // arriving late (its predecessors already raised the high-water mark),
  // or a retransmission whose at-most-once entry was evicted (the ring
  // wrapped while it was in flight).  Only the last re-executes an
  // already-run service; it is the one at or below the caller's evicted
  // high-water mark.  Surface it — nothing better than re-executing is
  // possible once the entry is gone (see CallerMarks).
  {
    CallerMarks* marks = caller_marks_.try_emplace(
        static_cast<std::uint64_t>(from.value())).first;
    if (env.request_id.value() > marks->high_water) {
      marks->high_water = env.request_id.value();
    } else if (env.request_id.value() <= marks->evicted_max) {
      ++*evicted_reexecutions_;
      if (adaptive_cache_.enabled) {
        // An at-most-once violation is the strongest pressure signal there
        // is: trip the grow threshold immediately.
        evictions_since_resize_ =
            std::max(evictions_since_resize_, adaptive_cache_.grow_threshold);
      }
    }
  }

  // Record the request in the at-most-once state.  A fresh key claims a
  // ring slot (evicting its previous occupant once the ring is full); a
  // low-32-bit aliased leftover (cached != null but request ids differ) is
  // overwritten in place, keeping its ring position — re-inserting it
  // would give the key two ring slots and let the older one evict the
  // newer, still-live entry, breaking at-most-once.
  if (cached != nullptr) {
    // Alias overwrite is an eviction in disguise: the previous occupant's
    // at-most-once entry is gone the moment we reuse its slot.
    mark_evicted(cached->key, cached->request_id);
  }
  ReplyCacheEntry* entry =
      cached != nullptr ? cached : reply_cache_insert(key);
  entry->request_id = env.request_id;
  entry->completed = false;
  entry->reply = {};

  // Server-side overhead: skeleton dispatch + argument unmarshalling.
  const auto& model = network_.cost_model();
  const common::SimDuration prep =
      model.rmi_server_dispatch_us + model.marshal_time(env.body.size());
  Replier replier(this, from, env.request_id, env.verb);
  after_cpu(prep, [this, verb_index, from, body = std::move(env.body),
                   replier = std::move(replier)]() mutable {
    // User code runs here: wake so enclosing run_until predicates see
    // whatever the service mutates (parked repliers, flags, ...).
    sim_.wake();
    // Re-resolve the service at fire time: the table may have grown
    // between dispatch and execution (deque growth leaves the entry in
    // place even if the handler itself registers new verbs).
    services_[verb_index](from, body, std::move(replier));
  });
}

void Transport::send_reply(common::NodeId to, common::RequestId id,
                           common::VerbId verb, bool ok,
                           const std::string& error,
                           serial::BufferChain body) {
  Envelope reply;
  reply.kind = EnvelopeKind::Reply;
  reply.request_id = id;
  reply.verb = verb;
  reply.ok = ok;
  reply.error = error;
  reply.body = std::move(body);

  const std::uint64_t key = pack_key(to, id);
  if (const std::uint32_t* slot = reply_cache_index_.find(key);
      slot != nullptr && reply_cache_entries_[*slot].request_id == id) {
    ReplyCacheEntry& entry = reply_cache_entries_[*slot];
    entry.completed = true;
    entry.reply = reply;  // fragment refcounts, not a payload copy
  }

  // Result marshalling charged on the serving side before the wire.
  // Always an event, even at zero cost: a reply may be sent from user code
  // (service dispatch or a parked Replier), after which the driver regains
  // control at the wake — and drivers legitimately mutate faults in that
  // window expecting the not-yet-sent reply to be affected (rmi_test
  // partitions a link between execution and reply to force a
  // retransmission storm).  Inlining here would leak the reply onto the
  // wire before the driver runs.
  const auto& model = network_.cost_model();
  sim_.schedule_after(
      model.marshal_time(reply.body.size()),
      [this, to, reply = std::move(reply)]() mutable {
        route(to, std::move(reply), net::MsgKind::Reply);
      },
      sim::Wake::No);
}

void Transport::on_reply(Envelope& env) {
  PendingCall* pc = pending_.find(env.request_id.value());
  if (pc == nullptr || pc->done) {
    ++*stale_replies_;
    return;
  }
  pc->done = true;
  sim_.cancel(pc->retry_timer);
  auto callback = std::move(pc->callback);
  CallResult result = env.ok ? CallResult::success(std::move(env.body))
                             : CallResult::failure(std::move(env.error));
  pending_.erase(env.request_id.value());
  sim_.wake();  // completion wakeup for the caller's run_until
  callback(std::move(result));
}

}  // namespace mage::rmi

// Channel policy layer: one CallPolicy, composable channel decorators.
//
// A Channel is "a place calls go": the leaf (DirectChannel, FailoverChannel)
// turns a channel call into Transport::call attempts, and decorators
// (RetriableChannel, HedgedChannel) wrap an inner channel with policy —
// retries with backoff, an overall deadline, a hedge request after a
// latency threshold.  Every knob lives in ONE struct, rmi::CallPolicy,
// instead of being spread across CallOptions, per-caller private
// timeout/tries, and ad-hoc driver loops.  Stacks compose bottom-up:
//
//   RetriableChannel(HedgedChannel(DirectChannel(transport, policy)))
//
// Determinism: every timer is simulated, backoff jitter is drawn from the
// calling node's own stream (net::Network::node_rng), and completions are
// delivered on the owning node's shard — a channel stack replays
// bit-identically at any worker count.  Cancellation rides
// Transport::cancel, so a hedge winner silences the losing branch's
// retransmission timer outright ("rmi.cancelled_calls").
//
// At-most-once caveat — read before enabling retries or hedging: a
// channel-level retry (or hedge) is a NEW request id, so the transport's
// duplicate suppression does NOT cover it and a non-idempotent verb can
// execute twice.  Transport-level retransmission (CallPolicy::
// attempt_transmissions, same request id, reply-cache-deduplicated) is the
// only at-most-once-safe retry.  Reserve max_retries/hedging for
// idempotent verbs: lookups, load probes, directory resolves, and
// convergent operations like mage.move.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "rmi/transport.hpp"

namespace mage::rmi {

// The unified per-call policy.  A default-constructed policy behaves like a
// bare Transport::call: one channel attempt, transport-level retransmission
// only, no deadline, no hedge.
struct CallPolicy {
  // Overall deadline for the whole call (all retries and hedges included).
  // 0 disables.  Expiry completes the call with an "rmi call ... deadline
  // exceeded" failure and counts "rmi.deadline_exceeded".
  common::SimDuration deadline_us = 0;

  // Per-attempt budget, forwarded to Transport::call: retransmission
  // period and how many transmissions of the SAME request id to make
  // before the attempt fails.  At-most-once safe.
  common::SimDuration attempt_timeout_us = 150'000;
  int attempt_transmissions = 24;

  // Channel-level retries: fresh request ids (see at-most-once caveat in
  // the header comment).  0 disables.  Counted in "rmi.retries".
  int max_retries = 0;
  common::SimDuration backoff_base_us = 4'000;
  double backoff_multiplier = 2.0;
  // Fractional jitter j: each backoff is scaled by a factor drawn
  // uniformly from [1-j, 1+j] using the calling node's own stream
  // (net::Network::node_rng).  0 disables.
  double backoff_jitter = 0.0;

  // Hedging: after this long without a reply, issue a second identical
  // attempt and take whichever answers first (the loser is cancelled).
  // 0 disables.  Counted in "rmi.hedged_calls" / "rmi.hedge_wins".
  common::SimDuration hedge_after_us = 0;

  [[nodiscard]] CallOptions attempt_options() const {
    return CallOptions{attempt_timeout_us, attempt_transmissions};
  }

  // Backoff before retry number `retry` (1-based): base * multiplier^(n-1),
  // jittered.  Never returns less than 1us so a retry is always an event.
  [[nodiscard]] common::SimDuration backoff_us(int retry,
                                               common::Rng& rng) const;

  // The control-plane quorum preset: the exact timing the original
  // directory failover caller shipped with (2ms attempts, one
  // retransmission, 8 sweeps, flat 4ms pause between sweeps) so directory
  // chaos runs replay unchanged.
  [[nodiscard]] static CallPolicy quorum();
};

// Abstract call target.  Tokens are per-channel cancellation handles;
// cancel() guarantees the callback will never fire once it returns.
class Channel {
 public:
  using Token = std::uint64_t;
  static constexpr Token kNoToken = 0;

  virtual ~Channel() = default;

  [[nodiscard]] virtual Transport& transport() = 0;
  virtual Token call(common::NodeId dest, common::VerbId verb,
                     serial::BufferChain body, Transport::Callback done) = 0;
  virtual void cancel(Token token) = 0;

  Token call(common::NodeId dest, std::string_view verb,
             serial::BufferChain body, Transport::Callback done) {
    return call(dest, common::intern_verb(verb), std::move(body),
                std::move(done));
  }

 protected:
  [[nodiscard]] sim::Simulation& sim_of(Transport& transport) {
    return transport.network().node_sim(transport.self());
  }
  [[nodiscard]] common::Rng& rng_of(Transport& transport) {
    return transport.network().node_rng(transport.self());
  }
};

// Leaf: one channel call == one transport call with the policy's
// per-attempt options; the token is the request id, and cancellation
// forwards to Transport::cancel.
class DirectChannel final : public Channel {
 public:
  DirectChannel(Transport& transport, CallPolicy policy);

  [[nodiscard]] Transport& transport() override { return transport_; }
  Token call(common::NodeId dest, common::VerbId verb,
             serial::BufferChain body, Transport::Callback done) override;
  void cancel(Token token) override;

 private:
  Transport& transport_;
  CallPolicy policy_;
};

// Decorator: re-issues failed inner calls up to max_retries times with
// exponential, seeded-jitter backoff, under an optional overall deadline.
class RetriableChannel final : public Channel {
 public:
  RetriableChannel(Channel& inner, CallPolicy policy);

  [[nodiscard]] Transport& transport() override { return inner_.transport(); }
  Token call(common::NodeId dest, common::VerbId verb,
             serial::BufferChain body, Transport::Callback done) override;
  void cancel(Token token) override;

 private:
  struct Call {
    common::NodeId dest;
    common::VerbId verb;
    serial::BufferChain body;  // refcounted; reused verbatim per retry
    Transport::Callback done;
    common::SimTime start = 0;
    int retries_used = 0;
    Token inner = kNoToken;        // outstanding inner-channel call
    sim::EventId backoff_timer{};  // armed between attempts
    bool backing_off = false;
    sim::EventId deadline_timer{};  // armed when policy.deadline_us > 0
    bool deadline_armed = false;
  };

  void attempt(Token token);
  void on_result(Token token, CallResult result);
  void on_deadline(Token token);
  void complete(Token token, CallResult result);

  Channel& inner_;
  CallPolicy policy_;
  sim::Simulation& sim_;
  common::Rng& rng_;
  std::int64_t* retries_;           // "rmi.retries"
  std::int64_t* deadline_exceeded_;  // "rmi.deadline_exceeded"
  Token next_token_ = 1;
  std::map<Token, Call> live_;
};

// Decorator: if the primary attempt has not completed after
// policy.hedge_after_us, issue one identical hedge attempt; the first
// success wins and the loser is cancelled.  A primary failure before the
// hedge fires completes the call immediately (retries are RetriableChannel's
// job, stacked above); once both branches are in flight the call fails only
// when both have failed.
class HedgedChannel final : public Channel {
 public:
  HedgedChannel(Channel& inner, CallPolicy policy);

  [[nodiscard]] Transport& transport() override { return inner_.transport(); }
  Token call(common::NodeId dest, common::VerbId verb,
             serial::BufferChain body, Transport::Callback done) override;
  void cancel(Token token) override;

 private:
  struct Call {
    common::NodeId dest;
    common::VerbId verb;
    serial::BufferChain body;
    Transport::Callback done;
    Token primary = kNoToken;
    Token hedge = kNoToken;
    bool hedge_launched = false;
    sim::EventId hedge_timer{};
    bool timer_armed = false;
    int outstanding = 1;
  };

  void on_branch(Token token, bool is_hedge, CallResult result);
  void launch_hedge(Token token);

  Channel& inner_;
  CallPolicy policy_;
  sim::Simulation& sim_;
  std::int64_t* hedged_calls_;  // "rmi.hedged_calls"
  std::int64_t* hedge_wins_;    // "rmi.hedge_wins"
  Token next_token_ = 1;
  std::map<Token, Call> live_;
};

// Leaf: RMI against a replicated service group (the directory failover
// sweep).  Any member may answer; an application Verdict accepts a reply
// or steers the next attempt (leader redirect); the list is swept starting
// from the last-known-good member, max_retries+1 full rounds with the
// policy backoff between rounds.  Channel::call ignores `dest` and uses an
// accept-any-success verdict; call_with_verdict is the full interface.
class FailoverChannel final : public Channel {
 public:
  // Invoked on each transport-successful reply.  Return true to accept;
  // on rejection, `redirect` may name the member to try next.
  using Verdict = std::function<bool(common::NodeId target,
                                     const CallResult& result,
                                     common::NodeId& redirect)>;

  FailoverChannel(Transport& transport, std::vector<common::NodeId> targets,
                  CallPolicy policy);

  [[nodiscard]] Transport& transport() override { return transport_; }
  Token call(common::NodeId dest, common::VerbId verb,
             serial::BufferChain body, Transport::Callback done) override;
  void cancel(Token token) override;

  Token call_with_verdict(common::VerbId verb, serial::BufferChain body,
                          Verdict verdict, Transport::Callback done);
  Token call_with_verdict(std::string_view verb, serial::BufferChain body,
                          Verdict verdict, Transport::Callback done) {
    return call_with_verdict(common::intern_verb(verb), std::move(body),
                             std::move(verdict), std::move(done));
  }

  // Next sweep starts at `node` (ignored when not a member).
  void set_preferred(common::NodeId node);
  [[nodiscard]] common::NodeId preferred() const { return preferred_; }
  [[nodiscard]] const std::vector<common::NodeId>& targets() const {
    return targets_;
  }
  [[nodiscard]] const CallPolicy& policy() const { return policy_; }

 private:
  struct Sweep {
    common::VerbId verb;
    serial::BufferChain body;  // refcounted; reused verbatim per attempt
    Verdict verdict;
    Transport::Callback done;
    std::size_t position = 0;  // index into targets_ for the next attempt
    int tried_this_round = 0;  // members probed in the current sweep
    int round = 0;
    bool switched = false;  // left the first member at least once
    common::SimTime start = 0;
    common::RequestId inflight{};  // outstanding transport call
    bool inflight_armed = false;
    sim::EventId backoff_timer{};
    bool backing_off = false;
  };

  void attempt(Token token);
  void advance(Token token, common::NodeId redirect);
  void complete(Token token, CallResult result);
  [[nodiscard]] std::size_t index_of(common::NodeId node) const;

  Transport& transport_;
  std::vector<common::NodeId> targets_;
  CallPolicy policy_;
  sim::Simulation& sim_;
  common::Rng& rng_;
  common::NodeId preferred_;
  std::int64_t* failovers_;  // "rmi.directory_failovers"
  Token next_token_ = 1;
  std::map<Token, Sweep> live_;
};

}  // namespace mage::rmi

#include "rmi/channel.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace mage::rmi {

common::SimDuration CallPolicy::backoff_us(int retry,
                                           common::Rng& rng) const {
  double backoff = static_cast<double>(backoff_base_us);
  for (int i = 1; i < retry; ++i) backoff *= backoff_multiplier;
  if (backoff_jitter > 0.0) {
    // Uniform in [1-j, 1+j], one RNG draw per backoff: deterministic given
    // the calling node's stream and the (replayable) order of its events.
    backoff *= 1.0 + backoff_jitter * (2.0 * rng.next_double() - 1.0);
  }
  if (backoff < 1.0) return 1;
  return static_cast<common::SimDuration>(backoff);
}

CallPolicy CallPolicy::quorum() {
  CallPolicy policy;
  policy.attempt_timeout_us = 2'000;
  policy.attempt_transmissions = 2;
  policy.max_retries = 7;  // 8 full sweeps, as the legacy caller's rounds=8
  policy.backoff_base_us = 4'000;
  policy.backoff_multiplier = 1.0;  // flat pause between sweeps
  policy.backoff_jitter = 0.0;
  return policy;
}

// --- DirectChannel ---------------------------------------------------------

DirectChannel::DirectChannel(Transport& transport, CallPolicy policy)
    : transport_(transport), policy_(policy) {}

Channel::Token DirectChannel::call(common::NodeId dest, common::VerbId verb,
                                   serial::BufferChain body,
                                   Transport::Callback done) {
  // The request id is the token: Transport::cancel ignores finished ids,
  // so the channel keeps no bookkeeping of its own (and no allocation).
  return transport_
      .call(dest, verb, std::move(body), std::move(done),
            policy_.attempt_options())
      .value();
}

void DirectChannel::cancel(Token token) {
  transport_.cancel(common::RequestId{token});  // never fires after this
}

// --- RetriableChannel ------------------------------------------------------

RetriableChannel::RetriableChannel(Channel& inner, CallPolicy policy)
    : inner_(inner),
      policy_(policy),
      sim_(sim_of(inner.transport())),
      rng_(rng_of(inner.transport())),
      retries_(sim_.stats().counter_handle("rmi.retries")),
      deadline_exceeded_(
          sim_.stats().counter_handle("rmi.deadline_exceeded")) {}

Channel::Token RetriableChannel::call(common::NodeId dest,
                                      common::VerbId verb,
                                      serial::BufferChain body,
                                      Transport::Callback done) {
  const Token token = next_token_++;
  Call& call = live_[token];
  call.dest = dest;
  call.verb = verb;
  call.body = std::move(body);
  call.done = std::move(done);
  call.start = sim_.now();
  if (policy_.deadline_us > 0) {
    call.deadline_timer = sim_.schedule_after(
        policy_.deadline_us, [this, token] { on_deadline(token); },
        sim::Wake::No);
    call.deadline_armed = true;
  }
  attempt(token);
  return token;
}

void RetriableChannel::attempt(Token token) {
  Call& call = live_.at(token);
  call.backing_off = false;
  call.inner = inner_.call(call.dest, call.verb, call.body,
                           [this, token](CallResult result) {
                             on_result(token, std::move(result));
                           });
}

void RetriableChannel::on_result(Token token, CallResult result) {
  auto it = live_.find(token);
  if (it == live_.end()) return;  // cancelled/deadline'd concurrently
  Call& call = it->second;
  call.inner = kNoToken;  // the inner call just completed itself
  if (result.ok || call.retries_used >= policy_.max_retries) {
    complete(token, std::move(result));
    return;
  }
  ++call.retries_used;
  ++*retries_;
  call.backoff_timer = sim_.schedule_after(
      policy_.backoff_us(call.retries_used, rng_),
      [this, token] { attempt(token); }, sim::Wake::No);
  call.backing_off = true;
}

void RetriableChannel::on_deadline(Token token) {
  auto it = live_.find(token);
  if (it == live_.end()) return;
  Call& call = it->second;
  call.deadline_armed = false;  // this timer just fired
  if (call.inner != kNoToken) inner_.cancel(call.inner);
  if (call.backing_off) sim_.cancel(call.backoff_timer);
  ++*deadline_exceeded_;
  // Completion from a channel-internal timer is a user-code boundary: wake
  // so an enclosing run_until re-checks its predicate (transport-delivered
  // completions are already inside a woken event).
  sim_.wake();
  complete(token, CallResult::failure(
                      "rmi call '" + common::verb_name(call.verb) +
                      "' deadline exceeded after " +
                      std::to_string(policy_.deadline_us) + "us"));
}

void RetriableChannel::complete(Token token, CallResult result) {
  auto node = live_.extract(token);
  Call& call = node.mapped();
  if (call.deadline_armed) sim_.cancel(call.deadline_timer);
  call.done(std::move(result));
}

void RetriableChannel::cancel(Token token) {
  auto it = live_.find(token);
  if (it == live_.end()) return;
  Call& call = it->second;
  if (call.inner != kNoToken) inner_.cancel(call.inner);
  if (call.backing_off) sim_.cancel(call.backoff_timer);
  if (call.deadline_armed) sim_.cancel(call.deadline_timer);
  live_.erase(it);
}

// --- HedgedChannel ---------------------------------------------------------

HedgedChannel::HedgedChannel(Channel& inner, CallPolicy policy)
    : inner_(inner),
      policy_(policy),
      sim_(sim_of(inner.transport())),
      hedged_calls_(sim_.stats().counter_handle("rmi.hedged_calls")),
      hedge_wins_(sim_.stats().counter_handle("rmi.hedge_wins")) {}

Channel::Token HedgedChannel::call(common::NodeId dest, common::VerbId verb,
                                   serial::BufferChain body,
                                   Transport::Callback done) {
  const Token token = next_token_++;
  Call& call = live_[token];
  call.dest = dest;
  call.verb = verb;
  call.body = body;  // keep a refcounted copy for the hedge attempt
  call.done = std::move(done);
  call.primary = inner_.call(dest, verb, std::move(body),
                             [this, token](CallResult result) {
                               on_branch(token, false, std::move(result));
                             });
  if (policy_.hedge_after_us > 0) {
    call.hedge_timer = sim_.schedule_after(
        policy_.hedge_after_us, [this, token] { launch_hedge(token); },
        sim::Wake::No);
    call.timer_armed = true;
  }
  return token;
}

void HedgedChannel::launch_hedge(Token token) {
  auto it = live_.find(token);
  if (it == live_.end()) return;
  Call& call = it->second;
  call.timer_armed = false;  // this timer just fired
  call.hedge_launched = true;
  call.outstanding = 2;
  ++*hedged_calls_;
  call.hedge = inner_.call(call.dest, call.verb, call.body,
                           [this, token](CallResult result) {
                             on_branch(token, true, std::move(result));
                           });
}

void HedgedChannel::on_branch(Token token, bool is_hedge, CallResult result) {
  auto it = live_.find(token);
  if (it == live_.end()) return;
  Call& call = it->second;
  (is_hedge ? call.hedge : call.primary) = kNoToken;
  if (result.ok) {
    // Winner: silence everything else — the losing branch's callback (and
    // its retransmission timer, all the way down to the transport) never
    // fires again.
    if (call.timer_armed) sim_.cancel(call.hedge_timer);
    const Token loser = is_hedge ? call.primary : call.hedge;
    if (loser != kNoToken) inner_.cancel(loser);
    if (is_hedge) ++*hedge_wins_;
    auto node = live_.extract(it);
    node.mapped().done(std::move(result));
    return;
  }
  --call.outstanding;
  if (call.outstanding > 0) return;  // the other branch may still win
  // Sole (or last) branch failed.  A hedge not yet launched would only
  // repeat the same failure; retries are the RetriableChannel's job.
  if (call.timer_armed) sim_.cancel(call.hedge_timer);
  auto node = live_.extract(it);
  node.mapped().done(std::move(result));
}

void HedgedChannel::cancel(Token token) {
  auto it = live_.find(token);
  if (it == live_.end()) return;
  Call& call = it->second;
  if (call.timer_armed) sim_.cancel(call.hedge_timer);
  if (call.primary != kNoToken) inner_.cancel(call.primary);
  if (call.hedge != kNoToken) inner_.cancel(call.hedge);
  live_.erase(it);
}

// --- FailoverChannel -------------------------------------------------------

FailoverChannel::FailoverChannel(Transport& transport,
                                 std::vector<common::NodeId> targets,
                                 CallPolicy policy)
    : transport_(transport),
      targets_(std::move(targets)),
      policy_(policy),
      sim_(sim_of(transport)),
      rng_(rng_of(transport)),
      preferred_(targets_.empty() ? common::kNoNode : targets_.front()),
      failovers_(sim_.stats().counter_handle("rmi.directory_failovers")) {
  if (targets_.empty()) {
    throw common::MageError("FailoverChannel needs at least one target");
  }
}

std::size_t FailoverChannel::index_of(common::NodeId node) const {
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    if (targets_[i] == node) return i;
  }
  return 0;
}

void FailoverChannel::set_preferred(common::NodeId node) {
  for (auto target : targets_) {
    if (target == node) {
      preferred_ = node;
      return;
    }
  }
}

Channel::Token FailoverChannel::call(common::NodeId /*dest*/,
                                     common::VerbId verb,
                                     serial::BufferChain body,
                                     Transport::Callback done) {
  return call_with_verdict(
      verb, std::move(body),
      [](common::NodeId, const CallResult&, common::NodeId&) { return true; },
      std::move(done));
}

Channel::Token FailoverChannel::call_with_verdict(common::VerbId verb,
                                                  serial::BufferChain body,
                                                  Verdict verdict,
                                                  Transport::Callback done) {
  const Token token = next_token_++;
  Sweep& sweep = live_[token];
  sweep.verb = verb;
  sweep.body = std::move(body);
  sweep.verdict = std::move(verdict);
  sweep.done = std::move(done);
  sweep.position = index_of(preferred_);
  sweep.start = sim_.now();
  attempt(token);
  return token;
}

void FailoverChannel::attempt(Token token) {
  Sweep& sweep = live_.at(token);
  sweep.backing_off = false;
  const common::NodeId target = targets_[sweep.position];
  ++sweep.tried_this_round;
  sweep.inflight = transport_.call(
      target, sweep.verb, sweep.body,
      [this, token, target](CallResult result) {
        auto it = live_.find(token);
        if (it == live_.end()) return;
        Sweep& sweep = it->second;
        sweep.inflight_armed = false;
        common::NodeId redirect = common::kNoNode;
        if (result.ok && sweep.verdict(target, result, redirect)) {
          set_preferred(target);
          if (sweep.switched) {
            sim_.stats().add("rmi.directory_failover_time_us",
                             sim_.now() - sweep.start);
          }
          complete(token, std::move(result));
          return;
        }
        advance(token, redirect);
      },
      policy_.attempt_options());
  sweep.inflight_armed = true;
}

void FailoverChannel::advance(Token token, common::NodeId redirect) {
  Sweep& sweep = live_.at(token);
  ++*failovers_;
  sweep.switched = true;
  if (!common::is_no_node(redirect) && redirect != targets_[sweep.position]) {
    // A member told us who the leader is; jump straight there.  The
    // redirect still consumes a probe from the round budget, so a lying
    // quorum cannot loop the sweep forever.
    sweep.position = index_of(redirect);
  } else {
    sweep.position = (sweep.position + 1) % targets_.size();
  }
  if (sweep.tried_this_round < static_cast<int>(targets_.size())) {
    attempt(token);
    return;
  }
  sweep.tried_this_round = 0;
  ++sweep.round;
  const int rounds = policy_.max_retries + 1;
  if (sweep.round >= rounds) {
    complete(token,
             CallResult::failure("no directory member accepted the call "
                                 "after " +
                                 std::to_string(rounds) + " rounds"));
    return;
  }
  sweep.backoff_timer = sim_.schedule_after(
      policy_.backoff_us(sweep.round, rng_), [this, token] { attempt(token); },
      sim::Wake::No);
  sweep.backing_off = true;
}

void FailoverChannel::complete(Token token, CallResult result) {
  auto node = live_.extract(token);
  node.mapped().done(std::move(result));
}

void FailoverChannel::cancel(Token token) {
  auto it = live_.find(token);
  if (it == live_.end()) return;
  Sweep& sweep = it->second;
  if (sweep.inflight_armed) transport_.cancel(sweep.inflight);
  if (sweep.backing_off) sim_.cancel(sweep.backoff_timer);
  live_.erase(it);
}

}  // namespace mage::rmi

#include "sim/simulation.hpp"

#include <cassert>

#include "common/log.hpp"

namespace mage::sim {

Simulation::Simulation(std::uint64_t seed)
    : seed_(seed),
      rng_(seed),
      predicate_checks_(stats_.counter_handle("sim.predicate_checks")),
      wakeups_(stats_.counter_handle("sim.wakeups")),
      wake_contract_violations_(
          stats_.counter_handle("sim.wake_contract_violations")) {}

EventId Simulation::schedule_at(common::SimTime at, EventQueue::Action action,
                                Wake wake, std::uint32_t tie) {
  assert(at >= now_ && "cannot schedule into the past");
  return queue_.schedule(at, std::move(action), wake == Wake::Yes, tie);
}

EventId Simulation::schedule_after(common::SimDuration delay,
                                   EventQueue::Action action, Wake wake,
                                   std::uint32_t tie) {
  return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(action), wake,
                     tie);
}

bool Simulation::step_event() {
  if (queue_.empty()) return false;
  common::SimTime at = 0;
  bool wake = false;
  auto action = queue_.pop(at, wake);
  now_ = at;
  action();
  if (wake) woken_ = true;
  return true;
}

bool Simulation::step() { return step_event(); }

void Simulation::run_until_idle() {
  while (step_event()) {
  }
}

bool Simulation::run_until(const std::function<bool()>& done,
                           common::SimTime deadline) {
  ++*predicate_checks_;
  if (done()) return true;
  while (true) {
    if (queue_.empty() || queue_.next_time() > deadline) {
      // Final check: a wake may have been missed (e.g. a predicate flipped
      // by a non-waking event) — never report false while done() holds.
      ++*predicate_checks_;
      return done();
    }
    (void)step_event();
    if (woken_) {
      woken_ = false;
      ++*wakeups_;
      ++*predicate_checks_;
      if (done()) return true;
    } else if (wake_contract_checks_ && done()) {
      // Wake-contract violation: a non-waking event flipped the predicate.
      // Whatever that event ran touched driver-visible state, so its layer
      // should have scheduled with Wake::Yes or called wake() — without
      // this check the caller silently stalls until the drain-time
      // re-check.  Flag it, but keep the release-build behaviour (do not
      // return early) so debug and release runs are step-identical.
      ++*wake_contract_violations_;
      if (!wake_contract_warned_) {
        wake_contract_warned_ = true;
        MAGE_WARN() << "wake-contract violation: a run_until predicate "
                       "flipped true after a non-waking event (a layer ran "
                       "user-visible code under Wake::No without wake()); "
                       "counted in sim.wake_contract_violations";
      }
    }
  }
}

bool Simulation::run_window(common::SimTime end) {
  bool woke = false;
  while (!queue_.empty() && queue_.next_time() < end) {
    (void)step_event();
    if (woken_) {
      woken_ = false;
      woke = true;
    }
  }
  return woke;
}

void Simulation::run_for(common::SimDuration span) {
  const common::SimTime end = now_ + span;
  while (!queue_.empty() && queue_.next_time() <= end) (void)step_event();
  now_ = end;
}

}  // namespace mage::sim

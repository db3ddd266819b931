// Simulation driver.
//
// One Simulation instance is the "universe" for a MAGE federation: it owns
// simulated time, the event queue, the deterministic RNG, and the stats
// registry every layer records into.
//
// Synchrony model (see DESIGN.md): application code — the "driver" — makes
// synchronous calls (`bind()`, stub invocations).  Internally those calls
// send messages and then run the event loop via run_until(predicate) until
// the reply lands.  Server-side protocol steps never block; they are plain
// event handlers that may send further messages.  This gives the paper's
// synchronous programmer-facing semantics on top of an asynchronous
// message-passing substrate.
#pragma once

#include <functional>
#include <limits>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "sim/event_queue.hpp"

namespace mage::sim {

// Whether a scheduled event is driver-visible: run_until(predicate) only
// re-evaluates its predicate after waking events (or an explicit wake()).
// Library-internal bookkeeping events — wire deliveries, retransmission
// timers, marshalling delays — schedule with Wake::No; the layer that
// eventually invokes user code (a service handler, a call completion
// callback) calls wake() at that boundary.  Driver/test schedules default
// to Wake::Yes, so ad-hoc predicates keep working unchanged.
enum class Wake : bool { No = false, Yes = true };

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 0x6D616765u);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] common::SimTime now() const { return now_; }

  // `tie` orders same-instant events deterministically before insertion
  // order (EventQueue tie key): the network stamps deliveries with their
  // source node id so a node observes equal-time arrivals in source order
  // regardless of the node:shard mapping or engine mode.  Ordinary events
  // leave it 0 and run before any same-instant delivery.
  EventId schedule_at(common::SimTime at, EventQueue::Action action,
                      Wake wake = Wake::Yes, std::uint32_t tie = 0);
  EventId schedule_after(common::SimDuration delay, EventQueue::Action action,
                         Wake wake = Wake::Yes, std::uint32_t tie = 0);

  // Cancels a scheduled event; no-op if it already fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  // Marks the current event as having touched driver-visible state, so an
  // enclosing run_until re-checks its predicate after this event.
  void wake() { woken_ = true; }

  // Runs one pending event; returns false when the queue is empty.
  bool step();

  // Runs events until the queue drains.
  void run_until_idle();

  // Runs events until `done` returns true.  Returns false if the queue
  // drained (or `deadline` passed) before the predicate was satisfied —
  // the caller decides whether that is a timeout error.  The predicate is
  // evaluated only after waking events (completion wakeups), not per event;
  // see enum Wake for the contract.
  bool run_until(const std::function<bool()>& done,
                 common::SimTime deadline = kNoDeadline);

  // Runs events for a fixed span of simulated time, then advances the clock
  // to exactly now()+span even if the queue drained earlier.
  void run_for(common::SimDuration span);

  // --- sharded-execution primitives (see sim/sharded.hpp) -----------------

  // Time of the earliest pending event, or kNoDeadline when the queue is
  // empty.  The sharded driver folds these into the global virtual-time
  // frontier.
  [[nodiscard]] common::SimTime next_event_time() {
    return queue_.empty() ? kNoDeadline : queue_.next_time();
  }

  // Runs every event with time strictly before `end` — this shard's share
  // of one conservative window.  The clock is left at the last executed
  // event's time (not advanced to `end`).  Returns true when any waking
  // event ran, consuming the wake mark; the sharded driver folds the marks
  // and re-checks the driver predicate at the window barrier.
  bool run_window(common::SimTime end);

  // --- wake-contract checking ----------------------------------------------

  // When enabled, run_until additionally evaluates its predicate after
  // every NON-waking event.  A predicate that flips true there exposes a
  // mis-marked event: some layer ran user-visible code under Wake::No and
  // forgot its wake() call, so the caller would have stalled until the
  // drain-time re-check (or the next unrelated wakeup).  Violations bump
  // the "sim.wake_contract_violations" counter and log one warning per
  // simulation; run_until's observable behaviour is unchanged (the check
  // never returns early), so debug and release runs stay step-identical.
  // Defaults to on in debug builds (!NDEBUG), off in release.
  void set_wake_contract_checks(bool on) { wake_contract_checks_ = on; }
  [[nodiscard]] bool wake_contract_checks() const {
    return wake_contract_checks_;
  }

  [[nodiscard]] common::Rng& rng() { return rng_; }
  // The construction seed (net::Network derives per-node streams from it).
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] common::StatsRegistry& stats() { return stats_; }

  static constexpr common::SimTime kNoDeadline =
      std::numeric_limits<common::SimTime>::max();

 private:
  // Runs one event, folding its wake mark into woken_.
  bool step_event();

  common::SimTime now_ = 0;
  std::uint64_t seed_;
  EventQueue queue_;
  common::Rng rng_;
  common::StatsRegistry stats_;
  bool woken_ = false;
#ifdef NDEBUG
  bool wake_contract_checks_ = false;
#else
  bool wake_contract_checks_ = true;
#endif
  bool wake_contract_warned_ = false;
  // Observability: how often run_until actually evaluated predicates vs how
  // many events ran (docs/PERF.md tracks the ratio).
  std::int64_t* predicate_checks_;
  std::int64_t* wakeups_;
  std::int64_t* wake_contract_violations_;
};

}  // namespace mage::sim

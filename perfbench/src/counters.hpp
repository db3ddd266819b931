// Counter snapshots around the measured phase, and window timing on the
// sharded engine.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "rmi/envelope.hpp"
#include "serial/buffer.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

// The runtime counters the per-layer metrics read (stats-registry keys),
// plus process-wide serial/envelope counters under "serial.*" and
// "envelope.*" names of the benchmark's own.
inline const std::vector<std::string>& counter_keys() {
  static const std::vector<std::string> keys = {
      "sim.predicate_checks",      "sim.wakeups",
      "net.messages_sent",         "net.bytes_sent",
      "net.messages_dropped",      "net.fifo_violations",
      "rmi.calls",                 "rmi.failures",
      "rmi.retransmissions",       "rmi.duplicates_suppressed",
      "rmi.reply_cache_evictions", "rmi.retries",
      "rmi.deadline_exceeded",     "rts.invocations",
      "rts.lookup_hops",           "rts.class_fetches",
      "rts.migrations",            "rts.async_redirects",
      "rts.stale_hints_rejected",  "rts.lifeline_steals",
  };
  return keys;
}

using CounterSnapshot = std::map<std::string, double>;

inline void add_process_counters(CounterSnapshot& s) {
  s["serial.deep_copy_bytes"] =
      static_cast<double>(mage::serial::Buffer::deep_copy_bytes());
  s["serial.allocations"] = static_cast<double>(allocation_count());
  s["envelope.fast_path_headers"] =
      static_cast<double>(mage::rmi::Envelope::fast_path_headers());
  s["envelope.list_path_headers"] =
      static_cast<double>(mage::rmi::Envelope::list_path_headers());
}

inline CounterSnapshot snapshot(const mage::sim::ShardedSim& ssim) {
  CounterSnapshot s;
  for (const auto& key : counter_keys()) {
    s[key] = static_cast<double>(ssim.counter(key));
  }
  add_process_counters(s);
  return s;
}

inline CounterSnapshot snapshot(mage::sim::Simulation& sim) {
  CounterSnapshot s;
  for (const auto& key : counter_keys()) {
    s[key] = static_cast<double>(sim.stats().counter(key));
  }
  add_process_counters(s);
  return s;
}

inline CounterSnapshot delta(const CounterSnapshot& before,
                             const CounterSnapshot& after) {
  CounterSnapshot d;
  for (const auto& [key, value] : after) {
    auto it = before.find(key);
    d[key] = value - (it == before.end() ? 0.0 : it->second);
  }
  return d;
}

// Host time of each engine window: the deltas between successive calls of
// the ShardedSim boundary hook.  Installed only in traced runs (the hook
// owns the engine's single boundary slot).
class WindowClock {
 public:
  WindowClock(mage::sim::ShardedSim& ssim, bool on, std::vector<double>* out)
      : ssim_(ssim), on_(on), out_(out) {
    if (!on_) return;
    ssim_.set_boundary_hook(
        [this](mage::common::SimTime) {
          const double now = wall_now();
          if (last_ > 0) out_->push_back((now - last_) * 1e6);
          last_ = now;
        },
        this);
  }
  // Call after each run_until: the gap until the next run is not a window.
  void pause() { last_ = 0; }
  ~WindowClock() {
    if (on_ && !ssim_.running() && ssim_.boundary_hook_owner() == this) {
      ssim_.set_boundary_hook(nullptr);
    }
  }
  WindowClock(const WindowClock&) = delete;
  WindowClock& operator=(const WindowClock&) = delete;

 private:
  mage::sim::ShardedSim& ssim_;
  bool on_;
  std::vector<double>* out_;
  double last_ = 0;
};

}  // namespace perfbench

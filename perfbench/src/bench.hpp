// Shared vocabulary of the benchmark: one measured round of a workload,
// the clocks it is timed with, and the per-workload run configuration.
//
// A run of the benchmark repeats ONE seeded round of its workload until the
// time budget is spent.  Every round builds a fresh federation from the
// same seed, so every round must reproduce the same simulated-time results
// bit for bit (checked), while the host-time results of the rounds give a
// median that shrugs off bursts of host contention.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"

namespace perfbench {

inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU seconds consumed by every thread of the process.
inline double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// FNV-1a folding, for digests of simulated results.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline std::uint64_t fnv_fold(std::uint64_t digest, std::uint64_t value) {
  return (digest ^ value) * 0x100000001B3ull;
}

struct RunConfig {
  std::uint64_t seed = 1;
  int workers = 4;        // sharded workloads run at 4 (one per core)
  bool time_windows = false;  // record each engine window's host time
  // Workload size multiplier in percent (the self-tests shrink rounds).
  int scale_pct = 100;
};

// Everything one round measured.  Host-time fields vary run to run; the
// sim-time fields (latencies, sim_span_us, digest) are a pure function of
// the seed and must not depend on the worker count.
struct Round {
  std::vector<std::string> failures;  // correctness checks that fired
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t completed = 0;

  double setup_s = 0;  // federation build, class install, warm-up
  double wall_s = 0;   // measured phase, host wall clock
  double cpu_s = 0;    // measured phase, process CPU (all threads)

  std::vector<std::int64_t> latencies_us;  // sim, issue -> completion
  std::int64_t sim_span_us = 0;            // sim length of measured phase
  std::uint64_t digest = kFnvOffset;       // latencies + workload digests
  // Sim latencies by mobility attribute (mobility_mix only).
  std::map<std::string, std::vector<std::int64_t>> latencies_by_kind;

  // Runtime counters over the measured phase (stats registries, summed
  // over shards), plus a few benchmark-side counts.
  std::map<std::string, double> counters;
  std::int64_t windows = 0;                // sharded engine windows
  std::vector<double> window_host_us;      // traced: per-window host time

  [[nodiscard]] bool correct() const { return failures.empty(); }
  [[nodiscard]] double counter(const std::string& key) const {
    auto it = counters.find(key);
    return it == counters.end() ? 0.0 : it->second;
  }
};

// Folds the sorted latency multiset into the round digest, so the digest
// compares sim-time results independently of completion order.
void fold_latencies(Round& round);

// Process-wide counters of the serial layer (deep copies come from
// serial::Buffer; allocations from common/alloc_counter.hpp, and read 0 in
// the untraced binary, which does not replace operator new).
std::uint64_t allocation_count();
bool allocations_counted();

// Per-link latency spread: every directed link between distinct nodes
// gets a seeded extra one-way latency, uniform in [0, max_extra_us].  Real
// links differ, and it makes the sim-time latency percentiles a property
// of the seed's topology instead of one constant of the cost model.
inline void spread_link_latencies(mage::net::Network& net, std::uint64_t seed,
                                  std::int64_t max_extra_us) {
  mage::common::Rng rng(seed ^ 0x1A7E2C7ull);
  const auto bound = static_cast<std::uint64_t>(max_extra_us + 1);
  for (const auto from : net.node_ids()) {
    for (const auto to : net.node_ids()) {
      if (from != to) {
        net.set_extra_latency(from, to, static_cast<std::int64_t>(rng.next_below(bound)));
      }
    }
  }
}

}  // namespace perfbench

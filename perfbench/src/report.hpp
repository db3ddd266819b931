// Turning rounds into the benchmark's metrics, and printing them.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "bench.hpp"
#include "replay.hpp"
#include "trace.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool applies = true;  // false: not measured on this workload, reads 0
};

double median(std::vector<double> values);

// Nearest-rank percentile of an ascending sample; q in (0, 1].
template <typename T>
T percentile(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return T{};
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

// The end-to-end metrics over the untraced rounds of one run.
std::vector<Metric> end_to_end(const std::vector<Round>& rounds,
                               double peak_rss_mb);

// What the traced run measured besides the traced rounds themselves.
struct TracedInputs {
  std::string workload;
  bool sharded = false;
  std::vector<Round> traced;        // spans on
  std::vector<Round> multi;         // spans off, window clock on, N workers
  std::vector<Round> single;        // spans off, 1 worker
  std::array<SpanTotals, kSpanKinds> spans{};
  ReplayCosts replay;
};

// The per-layer metrics; prints the reconciliation table on the way.
std::vector<Metric> per_layer(const TracedInputs& in);

// Peak resident set of this process, MiB.
double peak_rss_mb();

// CPU time the hypervisor gave to other guests ("steal" in /proc/stat),
// summed over all CPUs, in seconds; 0 where the kernel does not report it.
double host_steal_s();

}  // namespace perfbench

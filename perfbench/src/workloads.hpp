// The three workloads of the benchmark (README.md says why each exists).
//
// Each run_* builds a fresh federation from cfg.seed, times its set-up,
// runs one closed-loop measured phase, and checks its outputs.  The raw
// evidence the checks read is returned through `evidence` so the
// self-tests can corrupt it and prove each check fires.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "replay.hpp"

namespace perfbench {

// --- lan_storm ---------------------------------------------------------------

struct StormShape {
  int nodes = 16;
  int window = 8;           // echo calls in flight per ordered pair
  int calls_per_link = 0;   // derived from RunConfig::scale_pct
};
StormShape storm_shape(const RunConfig& cfg);

struct StormEvidence {
  StormShape shape;
  // completions[link][seq]: how often the callback of that call fired.
  std::vector<std::vector<std::uint8_t>> completions;
  // executions[(node * nodes + caller) * calls_per_link + seq], 0-based.
  std::vector<std::uint8_t> executions;
  std::int64_t order_violations = 0;  // per-link FIFO, checked at services
  std::int64_t echo_mismatches = 0;   // reply body != request body
  std::int64_t call_failures = 0;
  std::vector<std::uint64_t> node_digests;  // per receiving node
};
std::vector<std::string> check_storm(const StormEvidence& e);
Round run_lan_storm(const RunConfig& cfg, StormEvidence* evidence = nullptr);

// Request body sizes the storm draws from (bytes, before the 8-byte seq).
std::vector<std::size_t> storm_body_sizes(std::uint64_t seed, int count);
ReplayShapes storm_replay_shapes(const RunConfig& cfg);

// --- glb_chaos ---------------------------------------------------------------

struct GlbShape {
  int nodes = 6;
  std::size_t partitions = 12;
  int window = 4;        // expands in flight per driver
  int full_depth = 0;    // depths that always branch 4 ways
  int max_depth = 24;
};
GlbShape glb_shape(const RunConfig& cfg);

// The tree is a pure function of (seed, shape): the reference size.
std::uint64_t glb_tree_size(std::uint64_t seed, const GlbShape& shape);

struct GlbEvidence {
  std::uint64_t tree_size = 0;   // reference, computed without the runtime
  std::uint64_t processed = 0;   // driver-side expand completions
  std::uint64_t map_count = 0;   // keys stored across partitions
  std::int64_t map_sum = 0;      // sum of values (1 per key when exact)
  std::uint64_t exec_violations = 0;  // keys whose exec counter != 1
  std::uint64_t content_digest = 0;   // partition digests, index order
  std::int64_t fifo_violations = 0;
  std::size_t partitions = 0;        // the map's partition count
  std::size_t live_partitions = 0;   // partitions found bound somewhere
  bool drained = false;          // run_until reached the done predicate
};
std::vector<std::string> check_glb(const GlbEvidence& e);
Round run_glb_chaos(const RunConfig& cfg, GlbEvidence* evidence = nullptr);
ReplayShapes glb_replay_shapes(const RunConfig& cfg);

// --- mobility_mix ------------------------------------------------------------

struct MixShape {
  int nodes = 8;
  int objects = 24;
  int ops = 0;  // derived from RunConfig::scale_pct
};
MixShape mix_shape(const RunConfig& cfg);

enum class MixOp : std::uint8_t { Rpc, Cod, Rev, Grev, Cle, MAgent, Move };
const char* mix_op_name(MixOp op);

struct MixEvidence {
  // Per op: the value the runtime returned and the value the reference
  // model predicts (increment returns the new count, get the count).
  std::vector<std::int64_t> returned;
  std::vector<std::int64_t> expected;
  // Per object at the end: counter read in place, reference count; host
  // found in the registries, reference host.
  std::vector<std::int64_t> final_counts;
  std::vector<std::int64_t> model_counts;
  std::vector<std::uint32_t> final_hosts;
  std::vector<std::uint32_t> model_hosts;
  std::int64_t op_errors = 0;
  std::string first_error;
};
std::vector<std::string> check_mix(const MixEvidence& e);
Round run_mobility_mix(const RunConfig& cfg, MixEvidence* evidence = nullptr);
ReplayShapes mix_replay_shapes(const RunConfig& cfg);

}  // namespace perfbench

// The benchmark's own tests, at reduced round sizes:
//
//   * determinism: each workload's sim-time results (latencies, sim span,
//     lan_storm per-node delivery digests, glb_chaos content digest, folded
//     into Round::digest) are identical across two runs and at 1 and 4
//     workers;
//   * every correctness check fires when fed a broken result: a dropped
//     completion, a double execution, a wrong object counter.
//
// Exit code 0 when every test passes.
#include <iostream>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "[ ok ] " : "[FAIL] ") << what << "\n";
  if (!ok) ++g_failures;
}

bool mentions(const std::vector<std::string>& failures, const std::string& needle) {
  for (const auto& f : failures) {
    if (f.find(needle) != std::string::npos) return true;
  }
  return false;
}

RunConfig small(int workers) {
  RunConfig cfg;
  cfg.seed = 7;
  cfg.workers = workers;
  cfg.scale_pct = 5;
  return cfg;
}

void storm_tests() {
  StormEvidence a, b, c;
  const Round r4 = run_lan_storm(small(4), &a);
  const Round r4b = run_lan_storm(small(4), &b);
  const Round r1 = run_lan_storm(small(1), &c);
  expect(r4.correct() && r1.correct(), "lan_storm: rounds pass their checks");
  expect(r4.digest == r4b.digest, "lan_storm: sim results identical across runs");
  expect(r4.digest == r1.digest, "lan_storm: sim results identical at 1 and 4 workers");
  expect(a.node_digests == c.node_digests && a.node_digests == b.node_digests,
         "lan_storm: per-node delivery digests identical at 1 and 4 workers");
  expect(check_storm(a).empty(), "lan_storm: clean evidence passes");

  StormEvidence dropped = a;
  dropped.completions[3][1] = 0;
  expect(mentions(check_storm(dropped), "never completed"),
         "lan_storm: a dropped completion is caught");
  StormEvidence twice = a;
  twice.completions[0][0] = 2;
  expect(mentions(check_storm(twice), "more than once"),
         "lan_storm: a doubled completion is caught");
  StormEvidence reexec = a;
  reexec.executions[(1 * 16 + 0) * static_cast<std::size_t>(a.shape.calls_per_link) + 2] = 2;
  expect(mentions(check_storm(reexec), "exactly once"),
         "lan_storm: a double execution is caught");
}

void glb_tests() {
  GlbEvidence a, b;
  const Round r4 = run_glb_chaos(small(4), &a);
  const Round r4b = run_glb_chaos(small(4), nullptr);
  const Round r1 = run_glb_chaos(small(1), &b);
  expect(r4.correct() && r1.correct(), "glb_chaos: rounds pass their checks");
  expect(r4.digest == r4b.digest, "glb_chaos: sim results identical across runs");
  expect(r4.digest == r1.digest, "glb_chaos: sim results identical at 1 and 4 workers");
  expect(a.content_digest == b.content_digest,
         "glb_chaos: content digest identical at 1 and 4 workers");
  expect(r4.counter("rts.migrations") > 0, "glb_chaos: partitions migrated");

  GlbEvidence dropped = a;
  --dropped.processed;
  expect(mentions(check_glb(dropped), "expands completed"),
         "glb_chaos: a dropped completion is caught");
  GlbEvidence twice = a;
  twice.exec_violations = 1;
  ++twice.map_sum;
  expect(mentions(check_glb(twice), "exactly once"),
         "glb_chaos: a double execution is caught");
  GlbEvidence lost = a;
  --lost.map_count;
  expect(mentions(check_glb(lost), "map holds"), "glb_chaos: a lost key is caught");
}

void mix_tests() {
  MixEvidence a;
  const Round r = run_mobility_mix(small(1), &a);
  const Round r2 = run_mobility_mix(small(1), nullptr);
  expect(r.correct(), "mobility_mix: round passes its checks");
  expect(r.digest == r2.digest, "mobility_mix: sim results identical across runs");
  expect(r.latencies_by_kind.size() == 7, "mobility_mix: every op kind ran");

  MixEvidence counter = a;
  ++counter.final_counts[0];
  expect(mentions(check_mix(counter), "wrong counter"),
         "mobility_mix: a wrong object counter is caught");
  MixEvidence value = a;
  ++value.returned[5];
  expect(mentions(check_mix(value), "reference model"),
         "mobility_mix: a wrong returned value is caught");
  MixEvidence dropped = a;
  dropped.returned.pop_back();
  expect(mentions(check_mix(dropped), "reference model"),
         "mobility_mix: a dropped op result is caught");
  MixEvidence moved = a;
  moved.final_hosts[1] = 0;
  expect(mentions(check_mix(moved), "wrong node"),
         "mobility_mix: an object on the wrong node is caught");
}

}  // namespace

int main() {
  storm_tests();
  glb_tests();
  mix_tests();
  std::cout << (g_failures == 0 ? "all self-tests passed\n" : "SELF-TESTS FAILED\n");
  return g_failures == 0 ? 0 : 1;
}

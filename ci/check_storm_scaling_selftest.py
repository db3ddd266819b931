#!/usr/bin/env python3
"""Self-test for ci/check_storm_scaling.py.

Builds a record that passes every check, then breaks one condition at a
time and requires the checker to exit 1 with the matching message on
stderr (so a crash in the checker cannot pass for a verdict).  Soft
failures (a rate or speedup below its floor) must exit 0 under
BENCH_GATE_MODE=warn; hard failures must still exit 1 there.

Usage: check_storm_scaling_selftest.py  (checks the checker beside it)
"""
import copy
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKER = os.path.join(HERE, "check_storm_scaling.py")
REQUIRE_ALL = ["--require-chaos", "--require-batch", "--require-glb",
               "--require-speedup"]


def storm_run():
    return {
        "nodes": 16, "threads": 8, "calls": 120000, "wall_sec": 0.06,
        "calls_per_sec": 2_000_000.0, "reply_cache_evictions": 100,
        "retransmissions": 50, "duplicates_suppressed": 0,
        "predicate_checks": 0, "windows": 150, "order_violations": 0,
        "faults_applied": 8, "messages_dropped_by_schedule": 40,
        "evicted_reexecutions": 0, "fifo_violations": 0,
        "messages_sent": 10000, "batches_sent": 1000,
        "batched_invokes": 30000, "batch_singletons": 0,
        "reply_cache_grows": 3, "reply_cache_shrinks": 0,
        "reply_cache_capacity_highwater": 4096,
        "failover": {
            "elections_held": 3, "leader_changes": 3,
            "directory_failovers": 2, "directory_resolves": 27,
            "election_time_us": 9000, "failover_time_us": 4000,
        },
    }


def paired(**extra):
    block = {"threads": 8, "oversubscribed": False, "deterministic": True,
             "speedup": 4.0, "single": storm_run(), "multi": storm_run()}
    block.update(extra)
    return block


def glb_run(seed):
    return {"seed": seed, "tree_size": 500, "digest": 1234, "processed": 500,
            "migrations": 2, "lifeline_steals": 1, "rebalance_moves": 2,
            "table_repairs": 0, "dup_hits": 0, "requeues": 1,
            "exec_violations": 0, "faults_applied": 4,
            "wall_sec_single": 0.1, "wall_sec_multi": 0.1}


def wan_point(workers):
    return {"workers": workers, "oversubscribed": False, "wall_sec": 0.1,
            "calls_per_sec": 500_000.0 * workers, "windows": 27,
            "messages_sent": 20000}


def passing_record():
    return {
        "bench": "storm", "calls_per_link": 500, "window": 8,
        "reply_cache_capacity": 512, "hardware_threads": 8,
        "runs": [storm_run()],
        "threaded": paired(),
        "batch": paired(vs_unbatched=2.0, flush_quantum_us=550),
        "chaos": paired(exactly_once=True, degraded_vs_clean=0.5),
        "glb": {"nodes": 6, "partitions": 8, "threads": 8,
                "deterministic": True, "exactly_once": True,
                "migrated": True,
                "runs": [glb_run(11), glb_run(23), glb_run(47)]},
        "scaling": [{"nodes": 64, "sites": 8, "wan_hop_us": 20000,
                     "mapping": "affinity", "calls": 100000,
                     "deterministic": True, "mapping_independent": True,
                     "speedup": 2.0,
                     "points": [wan_point(w) for w in (1, 2, 4, 8)],
                     "identity": {"workers": 4, "windows": 77,
                                  "calls_per_sec": 300_000.0}}],
    }


def setter(path, value):
    """Mutation that sets record[path...] = value."""
    def mutate(record):
        node = record
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


def deleter(path):
    def mutate(record):
        node = record
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return mutate


def both_rates(value):
    def mutate(record):
        for which in ("single", "multi"):
            record["batch"][which]["calls_per_sec"] = value
    return mutate


def ladder(workers):
    def mutate(record):
        points = record["scaling"][0]["points"]
        for point, w in zip(points, workers):
            point["workers"] = w
    return mutate


# (name, mutation, expected fragment of the checker's output)
HARD = [
    ("threaded block missing", deleter(["threaded"]), "no threaded block"),
    ("threaded nondeterministic", setter(["threaded", "deterministic"], False),
     "per-node order digests diverged"),
    ("chaos nondeterministic", setter(["chaos", "deterministic"], False),
     "chaos digests diverged"),
    ("chaos not exactly once", setter(["chaos", "exactly_once"], False),
     "did not execute exactly once"),
    ("batch nondeterministic", setter(["batch", "deterministic"], False),
     "batch digests diverged"),
    ("glb nondeterministic", setter(["glb", "deterministic"], False),
     "glb digests/counters diverged"),
    ("glb not exactly once", setter(["glb", "exactly_once"], False),
     "not expanded exactly once"),
    ("glb not migrated", setter(["glb", "migrated"], False),
     "without any partition migration"),
    ("glb too few seeds", lambda r: r["glb"]["runs"].pop(),
     "glb ran only 2 seeds"),
    ("wan nondeterministic",
     setter(["scaling", 0, "deterministic"], False),
     "digests diverged across worker counts"),
    ("wan mapping dependent",
     setter(["scaling", 0, "mapping_independent"], False),
     "depends on the node:shard mapping"),
    ("wan ladder starts above 1", ladder([2, 3, 4, 8]),
     "ladder must start at 1 worker"),
    ("wan ladder not increasing", ladder([1, 2, 2, 8]),
     "is not strictly increasing"),
    ("wan windows zero", setter(["scaling", 0, "points", 2, "windows"], 0),
     "no windows recorded"),
    ("wan messages zero",
     setter(["scaling", 0, "points", 1, "messages_sent"], 0),
     "messages_sent is zero"),
]
for which in ("single", "multi"):
    HARD += [
        (f"chaos {which} re-executed",
         setter(["chaos", which, "evicted_reexecutions"], 1),
         f"chaos {which}: eviction-caused re-executions"),
        (f"chaos {which} fifo",
         setter(["chaos", which, "fifo_violations"], 1),
         f"chaos {which}: wire-FIFO violations"),
        (f"chaos {which} few faults",
         setter(["chaos", which, "faults_applied"], 7),
         f"chaos {which}: fault schedule did not fully apply"),
        (f"chaos {which} no drops",
         setter(["chaos", which, "messages_dropped_by_schedule"], 0),
         f"chaos {which}: scheduled faults dropped nothing"),
        (f"chaos {which} no retransmissions",
         setter(["chaos", which, "retransmissions"], 0),
         f"chaos {which}: no retransmissions"),
        (f"chaos {which} failover missing",
         deleter(["chaos", which, "failover"]),
         f"chaos {which}: no failover block"),
        (f"chaos {which} no elections",
         setter(["chaos", which, "failover", "elections_held"], 0),
         f"chaos {which}: no elections held"),
        (f"chaos {which} no directory failovers",
         setter(["chaos", which, "failover", "directory_failovers"], 0),
         f"chaos {which}: no directory failovers"),
        (f"chaos {which} no resolves",
         setter(["chaos", which, "failover", "directory_resolves"], 0),
         f"chaos {which}: no directory resolves"),
        (f"batch {which} order",
         setter(["batch", which, "order_violations"], 1),
         f"batch {which}: per-link ordering violations"),
        (f"batch {which} no frames",
         setter(["batch", which, "batches_sent"], 0),
         f"batch {which}: batching never coalesced"),
        (f"batch {which} one invoke per frame",
         setter(["batch", which, "batched_invokes"], 1999),
         f"batch {which}: batching never coalesced"),
        (f"batch {which} cache never grew",
         setter(["batch", which, "reply_cache_grows"], 0),
         f"batch {which}: adaptive reply cache never grew"),
        (f"batch {which} evictions",
         setter(["batch", which, "reply_cache_evictions"], 1200),
         f"batch {which}: 1200 evictions on 120000 calls"),
    ]
for seed_index in range(3):
    seed = (11, 23, 47)[seed_index]
    run = ["glb", "runs", seed_index]
    HARD += [
        (f"glb seed {seed} exec violations",
         setter(run + ["exec_violations"], 1),
         f"glb seed {seed}: per-key exec-count violations"),
        (f"glb seed {seed} unprocessed",
         setter(run + ["processed"], 499),
         f"glb seed {seed}: processed 499 of 500"),
        (f"glb seed {seed} no migrations",
         setter(run + ["migrations"], 0),
         f"glb seed {seed}: no load-driven partition migrations"),
        (f"glb seed {seed} no faults",
         setter(run + ["faults_applied"], 0),
         f"glb seed {seed}: chaos schedule did not apply"),
    ]
for block, flag, message in (
        ("chaos", "--require-chaos", "no chaos block"),
        ("batch", "--require-batch", "no batch block"),
        ("glb", "--require-glb", "no glb block"),
        ("scaling", "--require-speedup", "no scaling block")):
    HARD.append((f"{block} block missing under {flag}", deleter([block]),
                 message))

SOFT = [
    ("batch rate below floor", both_rates(999_999.0),
     "batch rate 999,999 calls/sec below required 1,000,000"),
    ("threaded speedup below floor",
     setter(["threaded", "speedup"], 2.9),
     "speedup 2.90x below required 3.0x"),
    ("wan speedup not above 1",
     setter(["scaling", 0, "speedup"], 1.0),
     "speedup 1.00x is not > 1.0x"),
]


def check(record, flags, warn=False):
    env = dict(os.environ)
    env.pop("BENCH_GATE_MODE", None)
    if warn:
        env["BENCH_GATE_MODE"] = "warn"
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as f:
        json.dump(record, f)
        path = f.name
    try:
        proc = subprocess.run([sys.executable, CHECKER, path] + flags,
                              capture_output=True, text=True, env=env)
    finally:
        os.unlink(path)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    failures = []

    def expect(name, record, flags, want_rc, fragment=None, warn=False):
        rc, output = check(record, flags, warn)
        if rc != want_rc or "Traceback" in output or (
                fragment is not None and fragment not in output):
            failures.append(f"{name}: exit {rc} (want {want_rc}), "
                            f"expected {fragment!r} in output:\n{output}")

    expect("passing record", passing_record(), REQUIRE_ALL, 0)
    expect("passing record, no --require flags", passing_record(), [], 0)
    for name, mutate, fragment in HARD:
        record = copy.deepcopy(passing_record())
        mutate(record)
        expect(name, record, REQUIRE_ALL, 1, fragment)
        expect(name + " (warn mode)", record, REQUIRE_ALL, 1, fragment,
               warn=True)
    for name, mutate, fragment in SOFT:
        record = copy.deepcopy(passing_record())
        mutate(record)
        expect(name, record, REQUIRE_ALL, 1, fragment)
        expect(name + " (warn mode)", record, REQUIRE_ALL, 0,
               "BENCH_GATE_MODE=warn", warn=True)

    total = 2 + 2 * (len(HARD) + len(SOFT))
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} of {total} checker cases failed",
              file=sys.stderr)
        return 1
    print(f"all {total} checker cases behave ({len(HARD)} hard and "
          f"{len(SOFT)} soft mutations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Pins bench_storm's record against tests/golden/storm_record.json.

Runs `bench_storm 4 --threads 2 --chaos --glb` in OUT_DIR and compares the
BENCH_storm.json it writes with the golden record, after dropping the keys
that depend on wall-clock time or on the host (STRIPPED below).  Everything
else in the record is a function of the seed: counters, windows, digests,
failover tallies and the glb tree.  A difference is a behaviour change of
the storm, the engines or the runtime under them; explain it, do not
re-record it.

Usage: check_storm_record.py <bench_storm> <golden.json> <out_dir>
An intended change of the record is an edit of the golden file, made by
hand and reviewed like any other golden.
"""
import json
import os
import subprocess
import sys

ARGS = ["4", "--threads", "2", "--chaos", "--glb"]
STRIPPED = {
    # wall-clock
    "wall_sec", "calls_per_sec", "speedup", "vs_unbatched",
    "degraded_vs_clean", "wall_sec_single", "wall_sec_multi",
    # host-dependent
    "hardware_threads", "oversubscribed",
}


def strip(value):
    if isinstance(value, dict):
        return {k: strip(v) for k, v in value.items() if k not in STRIPPED}
    if isinstance(value, list):
        return [strip(v) for v in value]
    return value


def differences(want, got, path="$"):
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            if key not in got:
                yield f"{path}.{key}: missing"
            elif key not in want:
                yield f"{path}.{key}: unexpected"
            else:
                yield from differences(want[key], got[key], f"{path}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            yield f"{path}: {len(want)} entries expected, {len(got)} found"
        for i, (w, g) in enumerate(zip(want, got)):
            yield from differences(w, g, f"{path}[{i}]")
    elif want != got:
        yield f"{path}: expected {want!r}, found {got!r}"


def main():
    binary, golden_path, out_dir = sys.argv[1:]
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.run([os.path.abspath(binary)] + ARGS, cwd=out_dir,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        print(f"FAIL: bench_storm {' '.join(ARGS)} exited "
              f"{proc.returncode}", file=sys.stderr)
        return 1
    with open(os.path.join(out_dir, "BENCH_storm.json")) as f:
        got = strip(json.load(f))
    with open(golden_path) as f:
        want = json.load(f)
    diffs = list(differences(want, got))
    if diffs:
        for d in diffs:
            print(f"FAIL: storm record {d}", file=sys.stderr)
        return 1
    print("storm record matches the golden")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Regenerate and gate the committed throughput records.

Three records, selected with --mode:

  kernels (default) — BENCH_kernels.json. Distills `bench_kernels
      --benchmark_format=json` down to the fields that are stable across
      machines and runs of the same binary: benchmark name, CPU time, and
      the throughput counters (GFLOP/s for the numeric kernels, cells/s and
      runs/s for the simulator hot loop, bytes/s for the daemon's report
      codec, decisions/s for the ABFT-OC checksum ladder). Timestamps,
      hostnames, and load averages are dropped so the
      committed file only changes when performance changes.

  serve — BENCH_serve.json. Distills `bench_serve --format=json` (the
      serving-subsystem load generator) to one entry per repeat-ratio
      scenario: the gated qps counter plus the client-observed latency
      percentiles, kept as informational trajectory but never gated —
      wall-clock tails move with the host, order-of-magnitude QPS collapses
      do not.

  scale — BENCH_scale.json. Distills `bench_fig14_scale --n 4096 --cluster
      rack_8x8 --devices 1,2,4,8,16,32,64 --format=json` (the rack-scale
      strong/weak scaling sweep) to one entry per (scaling, devices) cell:
      simulated makespan and total GFLOP/s as informational trajectory, plus
      a gated "speedup" counter — gflops_total(d) / gflops_total(1), which
      for strong scaling is the classic speedup and for weak scaling the
      scaled (Gustafson) speedup. Unlike the other two modes these numbers
      come out of the deterministic simulator, so they are bitwise
      reproducible across machines and the scale tolerance defaults to a
      tight 1.05x. Two hard floors apply on top of the per-entry tolerance
      (on --write as well as --check, so a regressed curve can never be
      committed): strong scaling at 8 devices must reach 6.0x, and the
      64-device weak-scaling point must exist.

Usage:
    # Refresh a committed snapshot (run from the repo root); with --filter
    # only the matching entries are re-recorded:
    python3 tools/perf_gate.py --bench build/bench/bench_kernels --write
    python3 tools/perf_gate.py --bench build/bench/bench_kernels --write \
        --filter BM_AbftOc
    python3 tools/perf_gate.py --mode serve --bench build/bench/bench_serve --write

    # CI regression gate: re-run and fail if any throughput counter dropped
    # below committed/tolerance:
    python3 tools/perf_gate.py --bench build/bench/bench_kernels --check
    python3 tools/perf_gate.py --mode serve --bench build/bench/bench_serve --check

Only the *throughput counters* are gated, never raw times: absolute CPU time
shifts with the runner's hardware, but so do the counters, which is why the
default tolerance is a deliberately generous 3.0x — the gate exists to catch
order-of-magnitude regressions (an accidentally quadratic loop, a defeated
cache, a lost fast path), not single-digit-percent noise. Tighten with
--tolerance for local A/B runs on one machine.

Since the observability retrofit the hot loops carry trace emission sites
(guarded by a null TraceRecorder pointer) and the servers mirror their stats
onto the metrics registry, so this gate doubles as the disabled-tracing
contract: bench_kernels and bench_serve run with tracing OFF, and their
counters staying inside the tolerance bands is what "observability compiled
in costs nothing when idle" means in CI. --min-gated guards that contract
against vacuous passes — if a rename or a filter typo makes the comparison
loop match nothing, the gate fails instead of reporting an empty success.

stdlib only; no third-party imports.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

# Counters treated as higher-is-better throughput and therefore gated.
RATE_COUNTERS = ("GFLOP/s", "cells/s", "runs/s", "bytes/s", "decisions/s",
                 "qps", "speedup")

REGEN_COMMANDS = {
    "kernels":
        "python3 tools/perf_gate.py --bench build/bench/bench_kernels --write",
    "serve":
        "python3 tools/perf_gate.py --mode serve "
        "--bench build/bench/bench_serve --write",
    "scale":
        "python3 tools/perf_gate.py --mode scale "
        "--bench build/bench/bench_fig14_scale --write",
}
DEFAULT_RECORDS = {
    "kernels": "BENCH_kernels.json",
    "serve": "BENCH_serve.json",
    "scale": "BENCH_scale.json",
}

# The canonical scale sweep: the committed record and every CI check run the
# same axes, so entries line up by name across refreshes.
SCALE_ARGS = ("--n", "4096", "--cluster", "rack_8x8",
              "--devices", "1,2,4,8,16,32,64", "--format=json")
# Simulator results are deterministic, so the scale gate can be tight.
SCALE_TOLERANCE = 1.05
# ISSUE 9's headline acceptance bar: the 8-GPU strong-scaling point must
# clear 6x (the pre-rack engine plateaued near 4x), and the weak-scaling
# curve must extend to the full 64-device rack.
SCALE_STRONG_FLOOR = ("scale/strong/devices=8", 6.0)
SCALE_WEAK_REQUIRED = "scale/weak/devices=64"

# Kept as the historical name: the kernels-mode regeneration command, still
# referenced by the CI warning annotations.
REGEN_COMMAND = REGEN_COMMANDS["kernels"]


def run_bench(bench: Path, bench_filter: str) -> dict:
    cmd = [str(bench), "--benchmark_format=json"]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True)
    return json.loads(proc.stdout)


def run_serve_bench(bench: Path) -> list:
    # bench_serve's own defaults ARE the gate scenario (requests, clients,
    # repeat ratios), so the record stays comparable across refreshes.
    proc = subprocess.run([str(bench), "--format=json"],
                          stdout=subprocess.PIPE, check=True)
    return json.loads(proc.stdout)


def run_scale_bench(bench: Path) -> list:
    proc = subprocess.run([str(bench), *SCALE_ARGS],
                          stdout=subprocess.PIPE, check=True)
    return json.loads(proc.stdout)


def sig4(x: float) -> float:
    """Round to 4 significant digits so last-ulp noise never dirties the file."""
    return float(f"{x:.4g}")


def distill(raw: dict) -> dict:
    benches = []
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        entry = {"name": b["name"], "cpu_time_ms": sig4(b["cpu_time"] / 1e6
                                                        if b.get("time_unit") == "ns"
                                                        else b["cpu_time"])}
        counters = {k: sig4(b[k]) for k in RATE_COUNTERS if k in b}
        if counters:
            entry["counters"] = counters
        benches.append(entry)
    return {"command": REGEN_COMMANDS["kernels"], "benchmarks": benches}


def distill_serve(rows: list) -> dict:
    benches = []
    for row in rows:
        benches.append({
            "name": f"serve/repeat={row['repeat']:g}",
            "p50_ms": sig4(row["p50_ms"]),
            "p95_ms": sig4(row["p95_ms"]),
            "p99_ms": sig4(row["p99_ms"]),
            "counters": {"qps": sig4(row["qps"])},
        })
    return {"command": REGEN_COMMANDS["serve"], "benchmarks": benches}


def distill_scale(rows: list) -> dict:
    # Per-device rows are trajectory detail for humans reading the raw bench;
    # the record keeps only each cell's "total" row.
    totals = [r for r in rows if r["device"] == "total"]
    base = {r["scaling"]: r["gflops"] for r in totals if r["devices"] == 1}
    benches = []
    for row in totals:
        ref = base.get(row["scaling"])
        if not ref:
            raise SystemExit(f"error: scale sweep has no devices=1 baseline "
                             f"for {row['scaling']} scaling")
        benches.append({
            "name": f"scale/{row['scaling']}/devices={row['devices']}",
            "n": row["n"],
            "sim_time_s": sig4(row["time_s"]),
            "gflops": sig4(row["gflops"]),
            "counters": {"speedup": sig4(row["gflops"] / ref)},
        })
    return {"command": REGEN_COMMANDS["scale"], "benchmarks": benches}


def validate_scale(record: dict) -> int:
    """The two hard floors of the scale record; applied to every fresh sweep
    (so --write can never commit a curve that fails them) and to --check."""
    by_name = {b["name"]: b for b in record["benchmarks"]}
    failures = 0
    name, floor = SCALE_STRONG_FLOOR
    entry = by_name.get(name)
    if entry is None:
        print(f"FAIL {name}: missing from scale sweep")
        failures += 1
    elif entry["counters"]["speedup"] < floor:
        print(f"FAIL {name}: speedup {entry['counters']['speedup']:g} below "
              f"the hard floor {floor:g}x")
        failures += 1
    else:
        print(f"ok   {name}: speedup {entry['counters']['speedup']:g} "
              f">= hard floor {floor:g}x")
    if SCALE_WEAK_REQUIRED not in by_name:
        print(f"FAIL {SCALE_WEAK_REQUIRED}: the weak-scaling curve must "
              f"extend to the full 64-device rack")
        failures += 1
    else:
        print(f"ok   {SCALE_WEAK_REQUIRED}: present "
              f"(speedup {by_name[SCALE_WEAK_REQUIRED]['counters']['speedup']:g})")
    return failures


def merge(committed: dict, fresh: dict) -> dict:
    """The committed record with each freshly run entry replaced in place;
    fresh entries it lacks are appended."""
    by_name = {b["name"]: b for b in fresh["benchmarks"]}
    merged = [by_name.pop(b["name"], b) for b in committed["benchmarks"]]
    merged.extend(b for b in fresh["benchmarks"] if b["name"] in by_name)
    return {**committed, "benchmarks": merged}


def check(committed: dict, fresh: dict, tolerance: float,
          bench_filter: str = "", regen: str = REGEN_COMMAND) -> "tuple[int, int]":
    by_name = {b["name"]: b for b in fresh["benchmarks"]}
    # A filter narrows the fresh run, so only gate the matching committed
    # entries (Google Benchmark treats the filter as a regex; so do we).
    pattern = re.compile(bench_filter) if bench_filter else None
    failures = 0
    gated = 0
    for ref in committed["benchmarks"]:
        name = ref["name"]
        if pattern and not pattern.search(name):
            continue
        cur = by_name.get(name)
        if cur is None:
            print(f"FAIL {name}: benchmark missing from fresh run")
            failures += 1
            continue
        for counter, ref_val in ref.get("counters", {}).items():
            cur_val = cur.get("counters", {}).get(counter)
            if cur_val is None:
                print(f"FAIL {name}: counter {counter} missing from fresh run")
                failures += 1
                continue
            floor = ref_val / tolerance
            verdict = "ok  " if cur_val >= floor else "FAIL"
            print(f"{verdict} {name} {counter}: {cur_val:g} "
                  f"(committed {ref_val:g}, floor {floor:g})")
            gated += 1
            if cur_val < floor:
                failures += 1
    extra = set(by_name) - {b["name"] for b in committed["benchmarks"]}
    for name in sorted(extra):
        print(f"note {name}: not in committed record "
              f"(refresh with: {regen})")
    return failures, gated


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("kernels", "serve", "scale"),
                        default="kernels",
                        help="which bench/record pair to drive (default: "
                             "kernels)")
    parser.add_argument("--bench", required=True, type=Path,
                        help="path to the bench binary for the chosen mode")
    parser.add_argument("--record", type=Path, default=None,
                        help="committed record (default: the repo-root "
                             "BENCH_<mode>.json)")
    parser.add_argument("--filter", default="",
                        help="forwarded as --benchmark_filter; with --write, "
                             "only the matching entries are re-recorded")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="allowed throughput drop factor for --check "
                             "(default 3.0: cross-machine headroom; mode "
                             "scale defaults to 1.05 because simulated "
                             "speedups are deterministic)")
    parser.add_argument("--min-gated", type=int, default=1,
                        help="fail --check unless at least this many "
                             "throughput counters were actually compared "
                             "(guards against a vacuous pass when a rename "
                             "or filter matches nothing; default 1)")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="regenerate the committed record")
    mode.add_argument("--check", action="store_true",
                      help="re-run and gate against the committed record")
    args = parser.parse_args()

    if args.record is None:
        args.record = (Path(__file__).resolve().parent.parent
                       / DEFAULT_RECORDS[args.mode])
    if args.tolerance is None:
        args.tolerance = SCALE_TOLERANCE if args.mode == "scale" else 3.0
    regen = REGEN_COMMANDS[args.mode]

    if not args.bench.exists():
        print(f"error: bench binary not found: {args.bench}", file=sys.stderr)
        return 2

    if args.mode != "kernels" and args.filter:
        print("error: --filter only applies to --mode kernels",
              file=sys.stderr)
        return 2
    if args.mode == "serve":
        fresh = distill_serve(run_serve_bench(args.bench))
    elif args.mode == "scale":
        fresh = distill_scale(run_scale_bench(args.bench))
        # The hard floors bind the fresh sweep in both directions: a --write
        # that would commit a sub-6x curve fails instead of moving the goal.
        if validate_scale(fresh):
            print("\nscale hard floor(s) violated; record not "
                  + ("written" if args.write else "accepted"))
            return 1
    else:
        fresh = distill(run_bench(args.bench, args.filter))

    if args.write:
        if args.filter and args.record.exists():
            # A filtered run re-records only the entries it ran; every other
            # committed entry keeps its value.
            fresh = merge(json.loads(args.record.read_text()), fresh)
        args.record.write_text(json.dumps(fresh, indent=1) + "\n")
        print(f"wrote {args.record} ({len(fresh['benchmarks'])} benchmarks)")
        return 0

    if not args.record.exists():
        print(f"error: no committed record at {args.record}; "
              f"create one with: {regen}", file=sys.stderr)
        return 2
    committed = json.loads(args.record.read_text())
    failures, gated = check(committed, fresh, args.tolerance, args.filter,
                            regen)
    if failures:
        print(f"\n{failures} throughput counter(s) below the committed floor "
              f"(tolerance {args.tolerance}x). If the regression is intended, "
              f"refresh with: {regen}")
        return 1
    if gated < args.min_gated:
        print(f"\nerror: only {gated} throughput counter(s) compared, "
              f"--min-gated {args.min_gated} required - the gate would pass "
              f"vacuously; fix the filter or refresh with: {regen}",
              file=sys.stderr)
        return 1
    print(f"\nall {gated} throughput counters within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread (IQR / median), as the steadiness record in
README.md does.

    python3 perfbench/steadiness.py --runs 10 [--workloads a,b] [--seconds 10]

Run from the repository root after building the benchmark once
(`CARGO_TARGET_DIR=.bench_build cargo build --release --offline
--manifest-path perfbench/Cargo.toml`; the script looks for the binary
under `$CARGO_TARGET_DIR`, by default `.bench_build`).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    binary = os.path.join(ROOT, target, "release", "perfbench")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        values, walls = {}, []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [binary, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = time.monotonic()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            walls.append(time.monotonic() - start)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect\n{out.stderr}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({args.runs} runs, {args.seconds} s; "
              f"wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- over a third of bound"
            print(f"  {name:32s} median {med:14.6g}  spread {spread:7.4f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()

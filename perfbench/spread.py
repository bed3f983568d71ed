#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

Run from the repository root:

    python3 perfbench/spread.py --workload voting-dense --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, with the
``run_seconds`` and bounds of ``BENCHMARK.json``. For each metric it prints
the median and the distance between the first and third quartiles as a
share of the median, next to the metric's bound. Raw results go to
``.bench_out/spread-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(raw: str) -> list[int]:
    seeds = []
    for part in raw.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"] + config["per_layer"]}
    results = []
    for seed in seed_list(args.seeds):
        cmd = [*config["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(config["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exited with status {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        results.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    raw = out / f"spread-{args.workload}-trace{args.trace}.json"
    raw.write_text(json.dumps(results, indent=1))
    print(f"{'metric':30s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for metric in results[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / abs(median) if median else float("inf")
        bound = bounds.get(metric)
        flag = ""
        if bound is not None:
            flag = "OVER" if spread > bound else ("ok" if spread < bound / 3 else "near")
        print(f"{metric:30s} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
              f"{bound if bound is not None else '-':>6} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

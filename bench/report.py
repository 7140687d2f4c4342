"""Run every workload untraced and traced; print every metric with its unit.

    python3 bench/report.py [--seed 1] [--seconds 30] [--workload NAME ...]

Each run is its own `run.py` process.  After the metrics of each workload
come each layer's share of the summed self time and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import LAYERS  # noqa: E402

WORKLOADS = ("plus_tower", "twisted_sum", "cli_batch")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith(("FAILED", "probe")):
            print(f"  {line}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    args = p.parse_args(argv)
    for workload in args.workload or WORKLOADS:
        print(f"== {workload}")
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        print(f"  correct {plain['correct'] and traced['correct']}, failed "
              f"{plain['failed']}/{plain['attempted']} untraced, "
              f"{traced['failed']}/{traced['attempted']} traced")
        for result in (plain, traced):
            for name, m in result["metrics"].items():
                print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
        metrics = traced["metrics"]
        total = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
        print("  share of self time:")
        for layer in LAYERS:
            share = metrics[f"{layer}.self_s"]["value"] / total if total else 0.0
            print(f"    {layer:16s} {100 * share:6.1f} %")
        print(f"  trace_overhead {metrics['trace_overhead']['value']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

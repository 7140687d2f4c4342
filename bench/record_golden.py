"""Rebuild golden.json: the answer of every op any seed can run.

    PYTHONPATH=src python3 bench/record_golden.py

Run it only on a commit whose answers are trusted; the benchmark then
counts every answer that differs from these as a failed op.  Recording
stops with an error if an op fails or breaks a closed form (checks.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import families  # noqa: E402
import workloads  # noqa: E402
from floercone import cli  # noqa: E402


def record() -> dict:
    golden, problems = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        cfk = Path(tmp) / "op.cfk"
        for wl in workloads.every_input():
            for op in dict.fromkeys(wl.cycle):
                inp = wl.inputs[op.input]
                cfk.write_text(families.instantiate(
                    families.cfk_template(op.input, inp.complex), "g_"), encoding="utf-8")
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = cli.main([op.argv[0], str(cfk), *op.argv[1:], "--machine"])
                if rc != 0:
                    problems.append(f"{op.key}: exit code {rc}")
                    continue
                records = checks.parse_records(out.getvalue())
                problems += [f"{op.key}: {e}" for e in
                             checks.closed_form_errors(inp, op.argv, records)]
                golden[op.key] = checks.normalize(op.argv, records)
            print(f"{wl.name}: {len(golden)} answers so far", file=sys.stderr)
    # the mirror relation, once every answer is in; normalized records
    # stand in for raw ones
    inputs = {}
    for wl in workloads.every_input():
        inputs.update(wl.inputs)
    checker = checks.Checker(golden, inputs)
    for key, answer in golden.items():
        label, _, rest = key.partition(" ")
        op = workloads.Op(label, tuple(rest.split(" ")))
        problems += [f"{key}: {e}" for e in checker.errors(op, answer)]
    if problems:
        raise SystemExit("golden answers not recorded:\n" + "\n".join(problems[:40]))
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
            for k, v in sorted(golden.items())) + "\n}\n")
    return golden


if __name__ == "__main__":
    print(f"{len(record())} golden answers written to {checks.GOLDEN_PATH}")

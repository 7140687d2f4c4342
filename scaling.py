"""Time loading, the plus, hat and twisted cones at s = 0 and 1, red, genus and prop0check, on connected sums of torus knots.

    PYTHONPATH=src python scaling.py [--max-generators N] [--baseline FILE] [--out FILE]
    PYTHONPATH=src python scaling.py --parent DIR [--runs N] [--max-generators N] [--out FILE]

The inputs are tensor powers of the staircases T(2, 2k+1) of
`tests/corpus.py`, from 343 to 16,807 generators, and for prop0check alone
T(2, 2k+1) # mT(2, 2k+1), of 961 and 10,201 generators, which passes
clauses (c) and (b) at s = 0 and fails (c) at s = 1, where every power
fails (c) at s = 0; inputs past `--max-generators` (default 3,125) are
skipped.  Each row is the best of three in-process timings of
`cone_homology_plus_truncated` in auto mode, of `cone_homology_hat` or of
`twisted_homology_laurent`, each on a copy of the input freshly parsed
from its canonical text, flip lines included, and validated outside the
timer, as one CLI call sees it, so no cache on the complex is warm; with
the answer it gave.  The reduced homology `hf_red_graded` gets one row per
input, keyed as s = 0, timed the same way, and so do `genus`, answered by
the genus, prop0check (`sphere_necessary_conditions`, which scans every s
until a clause fails), answered by its verdict and witness, and loading:
`io_format.parse` of that text, with the `validate` it runs, answered by
the generator and term counts.  Times are kept to the microsecond.
Each row also gets `peak_mb`, the peak memory in MB that `tracemalloc`
sees Python allocate in one more, untimed call on a fresh parse, traced
from after the parse to the end of the call.
`--baseline` reads an earlier output (say, of this script run on another
checkout's `src`), puts its times beside each row as `baseline_s` and
`speedup` and its peak as `baseline_peak_mb`, and exits 1 unless some row
was run and every row run has an answer there that agrees with it.
`--parent` names the `src` directory of another checkout.  The script
then runs itself `--runs` times (default 5) in a subprocess per side, on
this checkout's `src` and on DIR, alternating which side goes first, and
gives each row its times as `runs_s` and `baseline_runs_s`, their medians
as `seconds` and `baseline_s`, their quartiles as `quartiles_s` and
`baseline_quartiles_s`, and `speedup`; it exits 1 unless every answer
agrees across all runs of both sides.  The JSON goes
to `--out`, or to standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "tests"))

from corpus import mirror, staircase, tensor  # noqa: E402
from floercone.cone import cone_homology_hat, cone_homology_plus_truncated, ensure_flip  # noqa: E402
from floercone.detect import Verdict, genus, sphere_necessary_conditions  # noqa: E402
from floercone.io_format import DocumentEntry, InputDocument, parse, serialize  # noqa: E402
from floercone.subquotient import hf_red_graded  # noqa: E402
from floercone.twisted import TwistedConeResult, twisted_homology_laurent  # noqa: E402

REPEATS = 3
# (name, k, summands): T(2, 2k+1) summed with itself
INPUTS = (("T(2,7)^#3", 3, 3), ("T(2,11)^#3", 5, 3), ("T(2,13)^#3", 6, 3),
          ("T(2,7)^#4", 3, 4), ("T(2,5)^#5", 2, 5), ("T(2,5)^#6", 2, 6), ("T(2,7)^#5", 3, 5))
# (name, k): T(2, 2k+1) summed with its mirror, for prop0check alone
SLICE_INPUTS = (("T(2,31)#mT(2,31)", 15), ("T(2,101)#mT(2,101)", 50))
CONES = (("plus", cone_homology_plus_truncated), ("hat", cone_homology_hat),
         ("twisted", twisted_homology_laurent))


def tensor_power(k: int, summands: int):
    knot = out = staircase(k)
    for _ in range(summands - 1):
        out = tensor(out, knot)
    return out


def answer(result) -> dict:
    if isinstance(result, InputDocument):  # load
        c = result.entries[0].complex
        return {"generators": len(c.generators), "terms": len(c.differential) + len(c.flip)}
    if isinstance(result, int):  # genus
        return {"genus": result}
    if isinstance(result, Verdict):  # prop0check
        return {"kind": result.kind.value, "witness": result.witness}
    if isinstance(result, dict):  # hf_red_graded
        return {"reduced": {str(m): n for m, n in result.items()}}
    if isinstance(result, TwistedConeResult):
        return {"laurent_free_rank": result.laurent_free_rank,
                "torsion_factors": [str(p) for p in result.torsion_factors]}
    graded = result.graded_dims
    return {"total_dim": result.total_dim, "rank_v": result.rank_v, "rank_h": result.rank_h,
            "rank_v_plus_h": result.rank_v_plus_h, "truncation": result.truncation,
            "graded_dims": None if graded is None else {str(m): n for m, n in graded.items()}}


def inputs():
    """(name, generators, build, flavors timed, None for all) per input."""
    for name, k, summands in INPUTS:
        yield name, (2 * k + 1) ** summands, lambda k=k, n=summands: tensor_power(k, n), None
    for name, k in SLICE_INPUTS:
        yield name, (2 * k + 1) ** 2, lambda k=k: tensor(staircase(k), mirror(staircase(k))), {"prop0check"}


def rows(max_generators: int):
    for name, generators, build, flavors in inputs():
        if generators > max_generators:
            continue
        c = ensure_flip(build())
        text = serialize(InputDocument((DocumentEntry("K", c),)))
        runs = [(flavor, s, lambda fresh, s=s, cone=cone: cone(fresh, s)) for s in (0, 1)
                for flavor, cone in CONES]
        runs += [("red", 0, hf_red_graded), ("genus", 0, lambda fresh: genus([fresh])),
                 ("prop0check", 0, lambda fresh: sphere_necessary_conditions([fresh])),
                 ("load", 0, lambda _: parse(text))]
        for flavor, s, run in runs:
            if flavors is not None and flavor not in flavors:
                continue
            times = []
            for _ in range(REPEATS):
                fresh = parse(text).entries[0].complex  # parsed and validated, not timed
                start = time.perf_counter()
                result = run(fresh)
                times.append(time.perf_counter() - start)
            fresh = parse(text).entries[0].complex
            tracemalloc.start()  # one more pass, untimed, for the peak allocated past the parse
            run(fresh)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            yield {"input": name, "generators": len(c.generators), "flavor": flavor, "s": s,
                   "seconds": round(min(times), 6), "peak_mb": round(peak / 2 ** 20, 3),
                   "answer": answer(result)}


def alternated(parent: Path, runs: int, max_generators: int) -> tuple:
    """(mine, theirs): the rows of each of runs subprocess runs of this
    script on this checkout's src and on parent, alternating which side
    goes first."""
    sides = ((Path(__file__).resolve().parent / "src", []), (parent, []))
    for k in range(runs):
        for src, out in sides[::-1] if k % 2 else sides:
            done = subprocess.run(
                [sys.executable, __file__, "--max-generators", str(max_generators)],
                env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
            if done.returncode:
                sys.exit(f"the run on {src} failed:\n{done.stderr}")
            out.append(json.loads(done.stdout)["rows"])
    return tuple(out for _, out in sides)


def summary(runs: list) -> tuple:
    """({(input, flavor, s): row}, agree) over the rows of several runs of one
    side: each first row with every run's time as runs_s, their median as
    seconds and their quartiles as quartiles_s; agree is False when two runs
    answer a row differently."""
    out, agree = {}, True
    for rows_run in runs:
        for row in rows_run:
            first = out.setdefault((row["input"], row["flavor"], row["s"]), dict(row, runs_s=[]))
            first["runs_s"].append(row["seconds"])
            agree = agree and first["answer"] == row["answer"]
    for row in out.values():
        q1, _, q3 = statistics.quantiles(row["runs_s"], n=4, method="inclusive")
        row["seconds"] = round(statistics.median(row["runs_s"]), 6)
        row["quartiles_s"] = [round(q1, 6), round(q3, 6)]
    return out, agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-generators", type=int, default=3125)
    parser.add_argument("--baseline", type=Path)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.baseline and args.parent:
        parser.error("--baseline and --parent exclude each other")
    if args.runs < 2:
        parser.error("--runs must be at least 2, to give quartiles")
    baseline, agree = {}, True
    if args.parent:
        sides = alternated(args.parent, args.runs, args.max_generators)
        (mine, agree_mine), (baseline, agree) = map(summary, sides)
        current, agree = mine.values(), agree_mine and agree
    else:
        current = rows(args.max_generators)
    if args.baseline:
        # a row with no flavor comes from a run that timed the plus cone alone
        baseline = {(r["input"], r.get("flavor", "plus"), r["s"]): r
                    for r in json.loads(args.baseline.read_text())["rows"]}
    out = []
    for row in current:
        if args.baseline or args.parent:
            before = baseline.get((row["input"], row["flavor"], row["s"]))
            if before is None:
                print(f"no baseline row for the {row['flavor']} cone on {row['input']} "
                      f"at s = {row['s']}", file=sys.stderr)
                agree = False
            else:
                row["baseline_s"] = before["seconds"]
                row["baseline_peak_mb"] = before.get("peak_mb")  # None in a file from before peak_mb
                if args.parent:
                    row["baseline_runs_s"] = before["runs_s"]
                    row["baseline_quartiles_s"] = before["quartiles_s"]
                row["speedup"] = round(before["seconds"] / row["seconds"], 2)
                agree = agree and before["answer"] == row["answer"]
        out.append(row)
        print(json.dumps(row, sort_keys=True), file=sys.stderr)
    if (args.baseline or args.parent) and not out:
        print("no row was run to compare with the baseline", file=sys.stderr)
        agree = False
    report = {"python": platform.python_version(), "machine": platform.machine(),
              "repeats": REPEATS, "rows": out}
    if args.parent:
        report["runs_per_side"] = args.runs
    report = json.dumps(report, indent=1, sort_keys=True)
    if args.out:
        args.out.write_text(report + "\n")
    else:
        print(report)
    if not agree:
        print("the answers do not match the baseline", file=sys.stderr)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())

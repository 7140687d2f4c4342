"""floercone benchmark: one workload, one closed-loop client, one JSON result.

    python3 bench/run.py --workload plus_tower --seed 1 --seconds 30 --trace 0

Every op is one in-process `floercone.cli.main([...,"--machine"])` call on a
freshly written .cfk file; its JSON output is captured and checked.  Ops
run one after another in one thread.  The run executes whole cycles of
its workload (see workloads.py) while the next cycle still fits in
--seconds, and always at least one.

--trace 0 prints the end-to-end metrics, with every time given at the
reference speed of calibrate.py; --trace 1 alternates untraced and
traced cycles and prints the per-layer metrics of the traced ones, per
cycle, plus the tracing overhead; the spans go to .bench_build/spans/.
The last line of standard output is the
result object; the lines before it list every metric with its unit.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracer as tracing  # noqa: E402

SPANS_DIR = ROOT / ".bench_build" / "spans"
SETUP_REPEATS = 7
PROBE_DEADLINE_S = 2.0
RUN_CAP_S = 150.0  # stop starting cycles past this, whatever --seconds says
BAND = 0.1  # width of the rank band a smoothed quantile averages over
PROJECT_MODULES = ("floercone", "families", "workloads")


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an op that ran past its deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


# ---------------------------------------------------------------------------
# Set-up


def _purge_modules() -> None:
    for name in list(sys.modules):
        if name.split(".")[0] in PROJECT_MODULES:
            del sys.modules[name]


def setup(workload: str, workdir: Path):
    """Import floercone from this checkout, build and validate the inputs,
    write one .cfk file per input.  Returns (floercone.cli, workload, templates)."""
    _purge_modules()
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import floercone
    import floercone.cli
    if not Path(floercone.__file__).resolve().is_relative_to(src):
        raise ImportError(f"floercone was imported from {floercone.__file__}, not {src}")
    import families
    import workloads
    wl = workloads.WORKLOADS[workload]()
    inputs_dir = workdir / "inputs"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    templates = {}
    for label, inp in wl.inputs.items():
        templates[label] = families.cfk_template(label, inp.complex)
        (inputs_dir / f"{label}.cfk").write_text(
            families.instantiate(templates[label], ""), encoding="utf-8")
    return floercone.cli, wl, templates


# ---------------------------------------------------------------------------
# Ops


class Runner:
    """Runs ops; with a calibrate.Sampler, reports their time at reference speed."""

    def __init__(self, cli, wl, templates, checker, workdir: Path, sampler=None):
        self.cli_module = cli
        self.instantiate = sys.modules["families"].instantiate
        self.wl = wl
        self.templates = templates
        self.checker = checker
        self.path = workdir / "op.cfk"
        self.sampler = sampler
        self.opno = 0
        self.failures: list[str] = []

    def call(self, label: str, argv: tuple, deadline: float, tracer=None):
        """Run one CLI call; returns (seconds, stdout, error or None)."""
        self.opno += 1
        self.path.write_text(self.instantiate(self.templates[label], f"o{self.opno:07d}_"),
                             encoding="utf-8")
        args = [argv[0], str(self.path), *argv[1:], "--machine"]
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdout, sys.stderr
        rc, error = None, None
        sys.stdout, sys.stderr = out, err
        signal.setitimer(signal.ITIMER_REAL, deadline)
        spent = self.sampler.spent if self.sampler else 0.0
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = self.cli_module.main(args)
            else:
                with tracer.span(tracing.ROOT, label):
                    rc = self.cli_module.main(args)
        except DeadlineExceeded:
            error = f"deadline of {deadline:g} s exceeded"
        except Exception as e:  # an op that raises is a failed op, not a crash
            error = f"{type(e).__name__}: {e}"
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            sys.stdout, sys.stderr = saved
        if error is None and rc != 0:
            error = f"exit code {rc}: {err.getvalue().strip()[:200]}"
        dt = self.sampler.scaled(t0, t1, spent) if self.sampler else t1 - t0
        return dt, out.getvalue(), error

    def op(self, op, tracer=None):
        """Run and check one op; returns (latency_s, ok)."""
        dt, text, error = self.call(op.input, op.argv, self.wl.deadline_s, tracer)
        if error is None:
            try:
                errs = self.checker.errors(op, checks.parse_records(text))
            except (ValueError, KeyError, IndexError, TypeError) as e:
                errs = [f"unreadable output: {type(e).__name__}: {e}"]
            if errs:
                error = "; ".join(errs)
        if error is not None:
            self.failures.append(f"{op.key}: {error}")
            return max(dt, self.wl.deadline_s), False
        return dt, True

    def probe(self, label: str) -> bool:
        """True when `genus` on a flipless probe input misses PROBE_DEADLINE_S."""
        _, _, error = self.call(label, ("genus",), PROBE_DEADLINE_S)
        return error is not None and error.startswith("deadline")


# ---------------------------------------------------------------------------
# Metrics


def quantile(values, p: float) -> float:
    """The p-quantile, smoothed: the mean of the sorted values whose rank
    lies within BAND / 2 of the quantile's rank (at least two ranks each way).

    A workload mixes ops of very different cost, so a single order statistic
    jumps between neighbouring groups of ops when noise reorders them; the
    band mean moves smoothly instead.
    """
    x = sorted(values)
    centre = p * (len(x) - 1)
    half = max(2.0, BAND * len(x) / 2)
    lo = max(0, math.ceil(centre - half))
    hi = min(len(x) - 1, math.floor(centre + half))
    return statistics.fmean(x[lo:hi + 1])


def end_to_end(lat, big, ok, setup_times, rss_mb) -> dict:
    """Times are at reference speed (calibrate.py)."""
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (sum(ok) / sum(lat), "1/s"),
        "op_p50_ms": (1000 * quantile(lat, 0.5), "ms"),
        "op_p90_ms": (1000 * quantile(lat, 0.9), "ms"),
        "big_op_p50_ms": (1000 * quantile(big, 0.5), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tr, cycles: int, lat_plain, lat_traced, ok, timeouts) -> dict:
    out = {}
    summary = tr.summary()
    for layer in tracing.LAYERS:
        rec = summary[layer]
        out[f"{layer}.calls"] = (rec["calls"] / cycles, "count")
        out[f"{layer}.busy_s"] = (rec["busy_s"] / cycles, "s")
        out[f"{layer}.self_s"] = (rec["self_s"] / cycles, "s")
    units = {"subquotient.max_truncation": "count", "io_format.bytes": "bytes"}
    for name in tracing.WORK_COUNTS:
        value = tr.counts.get(name, 0)
        if name != "subquotient.max_truncation":
            value /= cycles
        out[name] = (value, units.get(name, "count"))
    out["model.validate.hit_ratio"] = (tr.validate_hit_ratio(), "ratio")
    out["model.derive_flip.timeouts"] = (timeouts, "count")
    out["trace_overhead"] = (quantile(lat_traced, 0.5) / quantile(lat_plain, 0.5), "ratio")
    out["fail_ratio"] = ((len(ok) - sum(ok)) / len(ok), "ratio")
    return out


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """End-to-end runs time everything with a calibrate.Sampler started;
    traced runs report raw times."""
    sampler = None if trace else calibrate.Sampler()
    if sampler:
        sampler.start()
    try:
        return _run(workload, seed, seconds, trace, workdir, sampler)
    finally:
        if sampler:
            sampler.stop()


def _run(workload, seed, seconds, trace, workdir, sampler) -> dict:
    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        gc.collect()  # the previous set-up's modules, outside the timing
        spent = sampler.spent if sampler else 0.0
        t0 = time.perf_counter()
        cli, wl, templates = setup(workload, workdir)
        t1 = time.perf_counter()
        setup_times.append(sampler.scaled(t0, t1, spent) if sampler else t1 - t0)
    checker = checks.Checker(checks.load_golden(), wl.inputs)
    missing = checker.missing(wl.cycle)
    if missing:
        raise SystemExit(f"no golden answer for {len(missing)} ops, e.g. {missing[0]!r}")
    runner = Runner(cli, wl, templates, checker, workdir, sampler)
    rng = random.Random(seed)
    big_gens = wl.big_gens
    tr = tracing.Tracer() if trace else None

    # warm-up, untimed: each command once on the smallest input that uses it
    smallest = {}
    for op in wl.cycle:
        best = smallest.get(op.argv)
        if best is None or wl.inputs[op.input].gens < wl.inputs[best].gens:
            smallest[op.argv] = op.input
    for argv, label in smallest.items():
        runner.call(label, argv, wl.deadline_s)
    # set-up garbage is not the program's: collect it and keep the survivors
    # out of the collector's later passes
    gc.collect()
    gc.freeze()

    lat, big, ok = [], [], []
    lat_traced = []
    traced_cycles = cycles = 0
    begin = time.perf_counter()
    cycle_time = {False: 0.0, True: 0.0}
    while True:
        traced = trace and cycles % 2 == 1
        t_cycle = time.perf_counter()
        if traced:
            tr.install()
        try:
            for op in wl.ordered(rng):
                dt, good = runner.op(op, tr if traced else None)
                ok.append(good)
                if traced:
                    lat_traced.append(dt)
                    continue
                lat.append(dt)
                if wl.inputs[op.input].gens == big_gens:
                    big.append(dt)
        finally:
            if traced:
                tr.uninstall()
        cycles += 1
        traced_cycles += traced
        if cycles == 1:
            # after a fixed amount of work, so it does not depend on the speed
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        cycle_time[traced] = time.perf_counter() - t_cycle
        elapsed = time.perf_counter() - begin
        upcoming = cycle_time[trace and cycles % 2 == 1]
        if trace and traced_cycles == 0:
            continue
        if elapsed + upcoming > seconds or elapsed > RUN_CAP_S:
            break
    wall = time.perf_counter() - begin

    if trace:
        timeouts = 0
        for label in wl.probes:
            if runner.probe(label):
                timeouts += 1
                print(f"probe {label}: flip search exceeded {PROBE_DEADLINE_S:g} s")
        metrics = per_layer(tr, traced_cycles, lat, lat_traced, ok, timeouts)
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        tr.write(SPANS_DIR / f"{workload}-seed{seed}")
    else:
        print(f"calibration: {len(sampler.secs)} chunks, median {1000 * sampler.median():.3f} "
              f"ms; times are given where it takes {1000 * calibrate.REF_S:g} ms")
        metrics = end_to_end(lat, big, ok, setup_times, rss_mb)
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}")
    print(f"workload {workload}: seed {seed}, {cycles} cycles, {len(ok)} ops "
          f"({len(wl.cycle)} per cycle, {len(big) // max(1, cycles - traced_cycles)} on the "
          f"{big_gens}-generator size class), {wall:.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    return {
        "correct": not runner.failures,
        "attempted": len(ok),
        "failed": len(ok) - sum(ok),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("plus_tower", "twisted_sum", "cli_batch"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workdir = ROOT / ".bench_build" / f"floercone-{args.workload}-{os.getpid()}"
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except ImportError as e:
        print(f"error: cannot import the program from this checkout: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

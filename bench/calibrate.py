"""Machine-speed calibration: a fixed chunk of pure-Python work, timed.

The benchmark was written on a shared two-core machine whose speed drifted
by up to 1.7x within a minute and by 10-20 % within a second, so the same
op took very different times from run to run.  While a run measures, a
`Sampler` times this chunk from a SIGVTALRM handler after every EVERY_S of
the process's CPU time, inside long ops as well as between ops.  Each
measured time then has the chunk time spent inside it removed and is
scaled by REF_S / (the median chunk time from WINDOW_S before its start to
its end): it is reported at reference speed, the time it would take where
the chunk takes REF_S.  The chunk mixes the kinds of work the program
does: elimination on Python-int bitmasks, dict and frozenset updates on
tuple keys, and per-call work (argparse, Fraction arithmetic, text, JSON).
"""

from __future__ import annotations

import argparse
import bisect
import json
import random
import signal
import statistics
import time
from array import array
from fractions import Fraction

REF_S = 0.0011  # chunk time at reference speed, about its time on a quiet machine
EVERY_S = 0.02  # CPU time between two chunks
WINDOW_S = 0.2  # how far before a measured interval its chunks are taken from

_rng = random.Random(0)
_MASKS = tuple(_rng.getrandbits(400) for _ in range(100))
_KEYS = tuple(tuple(_rng.randrange(50) for _ in range(3)) for _ in range(600))
_GRADINGS = tuple(Fraction(_rng.randint(-9, 9), _rng.choice((1, 2))) for _ in range(40))
_RECORD = {"s": list(range(-3, 4)), "graded_dims": {str(k): k % 3 for k in range(-6, 7)},
           "kind": "Fires", "valid": True}
_PARSER = argparse.ArgumentParser(prog="chunk")
_PARSER.add_argument("path")
_PARSER.add_argument("--s", default="0")
_PARSER.add_argument("--flavor", choices=("hat", "plus"), default="hat")
_PARSER.add_argument("--machine", action="store_true")


def _work() -> int:
    # elimination on bitmasks, as in the GF(2) code
    pivots: dict[int, int] = {}
    for m in _MASKS:
        while m:
            lead = m.bit_length() - 1
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = m
                break
            m ^= p
    # dict and frozenset updates on tuple keys
    counts: dict[tuple, int] = {}
    for k in _KEYS:
        counts[k] = counts.get(k, 0) + 1
    # the per-call kind of work: argparse, rational gradings, text, JSON
    for _ in range(2):
        args = _PARSER.parse_args(["x.cfk", "--s", "1..2", "--flavor", "plus", "--machine"])
        total = sum(g * g for g in _GRADINGS)
        text = " ".join(f"g{j:02d} {g}" for j, g in enumerate(_GRADINGS))
        json.loads(json.dumps(_RECORD, sort_keys=True))
    return len(pivots) + len(counts) + len(frozenset(_KEYS)) + len(args.s) + len(text) + int(total)


class Sampler:
    """Times the chunk every EVERY_S of CPU time while started."""

    def __init__(self):
        self.starts = array("d")
        self.secs = array("d")
        self.spent = 0.0  # seconds spent in chunks so far

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _work()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.secs.append(t1 - t0)
        self.spent += t1 - t0

    def start(self) -> None:
        self._tick(None, None)  # so that there is always a sample to scale by
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def median(self) -> float:
        return statistics.median(self.secs)

    def scaled(self, t0: float, t1: float, spent0: float) -> float:
        """Seconds from t0 to t1 at reference speed, less the chunks run
        since the sampler had spent spent0."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        near = self.secs[lo:] if len(self.secs) > lo else self.secs[-1:]
        return (t1 - t0 - (self.spent - spent0)) * REF_S / statistics.median(near)

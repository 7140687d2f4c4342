"""The three benchmark workloads: inputs, commands and one cycle of ops.

A cycle is a fixed multiset of ops (input x command, some repeated); a run
executes whole cycles, each in a seeded order, so every run measures the
same mix whatever its seed.  The seed sets only that order (and so which
input gets which per-op name prefix, since a prefix numbers the op).

plus_tower   truncated-plus cones and reduced homology on staircases
             T(2,7)..T(2,15) and Y1SIGMA # T(2,3), # T(2,5) (7-15
             generators).  Flips are supplied; no Laurent code runs.
twisted_sum  twisted cones and the two detectors on connected sums of
             T(2,3), T(2,5), the figure-eight and mirrors (15-45
             generators).  Flips are supplied; no plus-flavor code runs.
cli_batch    many small commands on 1-27 generator inputs: the shipped
             fixtures, small staircases and sums, and a fixed pool of
             random complexes.  A share of inputs has no flip lines, so
             the flip search runs on every op that needs one.

Sizes stop at 15 and 45 generators: a run holds at least 100 ops in 30 s,
and ops on larger inputs take seconds each.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import families as fam
from floercone import fixtures

PLUS_S0 = ("cone", "--flavor", "plus", "--truncation", "auto", "--s", "0")
PLUS_S1 = ("cone", "--flavor", "plus", "--truncation", "auto", "--s", "1")
RED = ("red",)
TWISTED = ("cone", "--twisted", "--s", "-1..1")
DETECT = ("detect-sphere",)
PROP0 = ("prop0check",)
CHECK = ("check",)
ALEX = ("alex",)
GENUS = ("genus",)
HAT = ("cone", "--s", "-2..2")
PLUS_N2 = ("cone", "--flavor", "plus", "--truncation", "2")

POOL_SEED = 20261017
POOL_SIZE = 24
NOFLIP = ".noflip"


@dataclass(frozen=True)
class Input:
    label: str
    complex: object
    factors: tuple  # factor names for the closed forms; () when none apply

    @property
    def gens(self) -> int:
        return len(self.complex.generators)

    @property
    def has_flip(self) -> bool:
        return self.complex.flip is not None


@dataclass(frozen=True)
class Op:
    input: str
    argv: tuple

    @property
    def key(self) -> str:
        return " ".join((self.input,) + self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: dict        # label -> Input
    cycle: tuple        # Op, repeats included
    deadline_s: float   # per-op limit, far above the slowest op
    probes: tuple = ()  # labels of flipless inputs whose flip search is known to hang

    @property
    def big_gens(self) -> int:
        return max(self.inputs[op.input].gens for op in self.cycle)

    def ordered(self, rng: random.Random) -> list:
        ops = list(self.cycle)
        rng.shuffle(ops)
        return ops


def factor_complex(name: str):
    """Complex of a factor name: U, Y1, F8, T2_<n>, and m<factor> for mirrors."""
    if name.startswith("m"):
        return fam.mirror(factor_complex(name[1:]))
    if name.startswith("T2_"):
        return fam.staircase((int(name[3:]) - 1) // 2)
    return {"U": fixtures.UNKNOT, "Y1": fixtures.Y1SIGMA, "F8": fixtures.FIGURE8}[name]


def sum_input(label: str) -> Input:
    """Input for a label like 'T2_3+mF8' (add NOFLIP to drop the flip lines)."""
    base = label[:-len(NOFLIP)] if label.endswith(NOFLIP) else label
    factors = tuple(base.split("+"))
    c = fam.sum_of(*(factor_complex(f) for f in factors))
    if base != label:
        c = fam.strip_flip(c)
    return Input(label, c, factors)


FIXTURE_FACTORS = {"UNKNOT": "U", "TREFOIL": "T2_3", "TREFOIL_L": "mT2_3",
                   "FIGURE8": "F8", "Y1SIGMA": "Y1"}


def fixture_input(label: str) -> Input:
    base = label[:-len(NOFLIP)] if label.endswith(NOFLIP) else label
    c = getattr(fixtures, base)
    if base != label:
        c = fam.strip_flip(c)
    return Input(label, c, (FIXTURE_FACTORS[base],))


def random_pool() -> list:
    """The fixed pool of random complexes (each with a flip found by search)."""
    rng = random.Random(POOL_SEED)
    out = []
    while len(out) < POOL_SIZE:
        c = fam.random_complex(rng)
        if c is not None:
            out.append(c)
    return out


def _cycle(spec) -> tuple:
    """spec: [(labels, commands, repeats)] -> the cycle's op tuple."""
    ops = []
    for labels, commands, repeats in spec:
        for label in labels:
            for argv in commands:
                ops.extend([Op(label, argv)] * repeats)
    return tuple(ops)


def plus_tower() -> Workload:
    reps = {3: 8, 4: 6, 5: 5, 6: 3, 7: 3}
    y1_reps = {1: 6, 2: 3}
    spec = [([f"T2_{2 * k + 1}"], (PLUS_S0, PLUS_S1, RED), r) for k, r in reps.items()]
    spec += [([f"Y1+T2_{2 * k + 1}"], (PLUS_S0, PLUS_S1, RED), r) for k, r in y1_reps.items()]
    cycle = _cycle(spec)
    inputs = {op.input: sum_input(op.input) for op in cycle}
    return Workload("plus_tower", inputs, cycle, deadline_s=60.0)


def twisted_sum() -> Workload:
    two = ["T2_3+T2_5", "T2_3+F8", "mT2_3+T2_5", "T2_5+F8", "F8+F8", "T2_5+mT2_5"]
    three = ["T2_3+T2_3+T2_3", "T2_3+T2_3+mT2_3"]
    largest = ["T2_3+T2_3+F8", "mT2_3+F8+T2_3", "T2_3+T2_3+T2_5"]
    commands = (TWISTED, DETECT, PROP0)
    cycle = _cycle([(two, commands, 3), (three, commands, 2), (largest, commands, 2)])
    inputs = {op.input: sum_input(op.input) for op in cycle}
    return Workload("twisted_sum", inputs, cycle, deadline_s=60.0)


CLI_FIXTURES = ["UNKNOT", "TREFOIL", "TREFOIL_L", "FIGURE8", "Y1SIGMA",
                "UNKNOT" + NOFLIP, "TREFOIL" + NOFLIP, "FIGURE8" + NOFLIP, "Y1SIGMA" + NOFLIP]
CLI_SUMS = ["T2_5", "T2_7", "mT2_5", "T2_5" + NOFLIP,
            "T2_3+F8", "mT2_3+mF8", "T2_3+mT2_3", "Y1+T2_3", "F8+F8", "T2_5+F8", "Y1+T2_9",
            "T2_3+F8" + NOFLIP, "T2_3+mT2_3" + NOFLIP, "Y1+T2_3" + NOFLIP]
# Flipless inputs whose flip search did not finish within a minute at the
# time the benchmark was written; they are probed, not timed (see run.py).
CLI_PROBES = ["F8+F8" + NOFLIP, "T2_5+F8" + NOFLIP]
CLI_COMMANDS = (CHECK, ALEX, GENUS, HAT, PLUS_N2, PROP0)


def pool_label(k: int, flip: bool) -> str:
    return f"R{k:02d}" + ("" if flip else NOFLIP)


def cli_batch() -> Workload:
    """Every pool member, the even-numbered ones with their flip lines."""
    inputs = {label: fixture_input(label) for label in CLI_FIXTURES}
    inputs.update({label: sum_input(label) for label in CLI_SUMS + CLI_PROBES})
    for k, c in enumerate(random_pool()):
        flip = k % 2 == 0
        label = pool_label(k, flip)
        inputs[label] = Input(label, c if flip else fam.strip_flip(c), ())
    timed = [label for label in inputs if label not in CLI_PROBES]
    cycle = _cycle([(timed, CLI_COMMANDS, 1)])
    return Workload("cli_batch", inputs, cycle, deadline_s=10.0, probes=tuple(CLI_PROBES))


WORKLOADS = {"plus_tower": plus_tower, "twisted_sum": twisted_sum, "cli_batch": cli_batch}


def every_input() -> tuple:
    """Every workload, with every input and op it runs."""
    return tuple(make() for make in WORKLOADS.values())

"""Deterministic input families for the benchmark.

- staircase(k): the torus knot T(2, 2k+1), an L-space knot whose complex is
  a staircase with 2k + 1 generators and unit steps.
- connected_sum(x, y): the tensor product of two complexes; the flip is the
  tensor product of the two flips (Kunneth).
- mirror(c): the dual complex, with the transposed flip.
- random_complex(rng): a small complex in the style of the test corpus:
  generators in mirrored grading pairs, a random d^2 = 0 subset of the
  grading-legal edges, and a flip found by the library's flip search.

Generator names are zero-padded so their sort order is the construction
order.  `cfk_template` writes a complex with a placeholder in front of
every generator name; `instantiate` replaces it with a per-op prefix.  One
prefix on every name keeps the name order, so answers and the flip
search's lexicographic choice do not change, while the library's caches,
which key on the complex, see a new complex on every op.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

from floercone.io_format import DocumentEntry, InputDocument, serialize
from floercone.model import (
    DiffTerm,
    FlipTerm,
    Generator,
    KnotComplex,
    NoFlipFound,
    derive_flip,
    validate,
)

PLACEHOLDER = "@"
MAX_RANDOM_GENS = 6


def _renamed(c: KnotComplex, rename) -> KnotComplex:
    gens = tuple(Generator(rename(g.name), g.alexander, g.maslov) for g in c.generators)
    diff = tuple(DiffTerm(rename(t.source), rename(t.target), t.u_power) for t in c.differential)
    flip = None
    if c.flip is not None:
        flip = tuple(FlipTerm(rename(t.source), rename(t.target), t.u_power) for t in c.flip)
    return KnotComplex(c.spinc_label, gens, diff, flip)


def staircase(k: int) -> KnotComplex:
    """T(2, 2k+1): g_j has A = k - j and M = -j; d g_odd = U g_prev + g_next."""
    if k < 0:
        raise ValueError("k must be >= 0")
    n = 2 * k + 1
    name = [f"g{j:02d}" for j in range(n)]
    gens = tuple(Generator(name[j], k - j, Fraction(-j)) for j in range(n))
    diff = []
    for j in range(1, n, 2):
        diff.append(DiffTerm(name[j], name[j - 1], 1))
        diff.append(DiffTerm(name[j], name[j + 1], 0))
    flip = tuple(FlipTerm(name[j], name[n - 1 - j], -(k - j)) for j in range(n))
    return KnotComplex("0", gens, tuple(diff), flip)


def connected_sum(x: KnotComplex, y: KnotComplex) -> KnotComplex:
    """Tensor product over F2[U]: d(a b) = (da) b + a (db), flip(a b) = flip(a) flip(b)."""
    if x.flip is None or y.flip is None:
        raise ValueError("connected sums need both flips")

    def pair(a: str, b: str) -> str:
        return f"{a}.{b}"

    gens = tuple(
        Generator(pair(a.name, b.name), a.alexander + b.alexander, a.maslov + b.maslov)
        for a in x.generators for b in y.generators)
    diff = []
    for t in x.differential:
        for b in y.generators:
            diff.append(DiffTerm(pair(t.source, b.name), pair(t.target, b.name), t.u_power))
    for a in x.generators:
        for t in y.differential:
            diff.append(DiffTerm(pair(a.name, t.source), pair(a.name, t.target), t.u_power))
    flip = tuple(
        FlipTerm(pair(s.source, t.source), pair(s.target, t.target), s.u_power + t.u_power)
        for s in x.flip for t in y.flip)
    return KnotComplex("0", gens, tuple(diff), flip)


def mirror(c: KnotComplex) -> KnotComplex:
    """Dual complex: A and M negate, every differential term is transposed."""
    gens = tuple(Generator(g.name, -g.alexander, -g.maslov) for g in c.generators)
    by_name = {g.name: g for g in gens}
    diff = tuple(DiffTerm(t.target, t.source, t.u_power) for t in c.differential)
    flip = None
    if c.flip is not None:
        flip = tuple(
            FlipTerm(t.target, t.source, -by_name[t.target].alexander) for t in c.flip)
    return KnotComplex(c.spinc_label, gens, diff, flip)


def sum_of(*factors: KnotComplex) -> KnotComplex:
    out = factors[0]
    for f in factors[1:]:
        out = connected_sum(out, f)
    return out


def strip_flip(c: KnotComplex) -> KnotComplex:
    return replace(c, flip=None)


# ---------------------------------------------------------------------------
# Seeded random small complexes


def _random_generators(rng: random.Random):
    count = rng.randint(1, MAX_RANDOM_GENS)
    gens = []
    half = Fraction(1, 2) if rng.random() < 0.1 else Fraction(0)
    while len(gens) < count:
        a = rng.randint(-2, 2)
        m = Fraction(a + rng.randint(-2, 2)) + half
        if a == 0 or count - len(gens) == 1:
            gens.append((0, m))
        else:
            gens.append((a, m))
            gens.append((-a, m - 2 * a))
    return [Generator(f"r{j:02d}", a, m) for j, (a, m) in enumerate(gens[:count])]


def _legal_edges(gens):
    out = []
    for g in gens:
        for h in gens:
            if g.name == h.name:
                continue
            delta = h.maslov - g.maslov + 1
            if delta.denominator != 1 or delta.numerator % 2:
                continue
            n = delta.numerator // 2
            if n < 0 or n < h.alexander - g.alexander:
                continue
            out.append(DiffTerm(g.name, h.name, n))
    return out


def random_complex(rng: random.Random) -> KnotComplex | None:
    """A valid random complex with a flip, or None when no flip exists."""
    gens = _random_generators(rng)
    edges = _legal_edges(gens)
    c = KnotComplex("0", tuple(gens), ())
    for _ in range(40):
        trial = KnotComplex("0", tuple(gens), tuple(e for e in edges if rng.random() < 0.4))
        if validate(trial).ok:
            c = trial
            break
    try:
        return derive_flip(c)
    except NoFlipFound:
        return None


# ---------------------------------------------------------------------------
# .cfk text


def cfk_template(label: str, c: KnotComplex) -> str:
    """Canonical .cfk text with PLACEHOLDER in front of every generator name."""
    report = validate(c)
    if not report.ok:
        raise ValueError(f"generated input {label} is invalid: {report}")
    tagged = _renamed(c, lambda n: PLACEHOLDER + n)
    return serialize(InputDocument((DocumentEntry(label, tagged),)))


def instantiate(template: str, prefix: str) -> str:
    return template.replace(PLACEHOLDER, prefix)

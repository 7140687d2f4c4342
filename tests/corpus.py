"""Seeded random corpus of valid complexes shared by the property suites,
and deterministic families of larger ones: staircases of L-space knots,
mirrors and connected sums; and the shipped trefoil with one input fault,
which the tests of the input checks feed to the library and the CLI, also
under `python -O`.

Generators come in mirrored pairs (A, M) / (-A, M - 2A) so that a flip is
usually available; differentials pick a random subset of the grading-legal
edges and keep the subset only if d squared vanishes.  Everything is
deterministic for a fixed seed.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cached_property, lru_cache
from pathlib import Path

import floercone
import floercone.cone as cone_module
import floercone.detect as detect_module
import floercone.subquotient as subquotient
import floercone.twisted as twisted_module
from floercone.fixtures import FIGURE8, TREFOIL, Y1SIGMA
from floercone.model import (
    DiffTerm,
    FlipTerm,
    Generator,
    KnotComplex,
    NoFlipFound,
    derive_flip,
    validate,
)

SEED = 20260823
CORPUS_SIZE = 220


def _random_generators(rng: random.Random):
    count = rng.randint(1, 6)
    gens = []
    serial = 0

    def fresh(a: int, m: Fraction):
        nonlocal serial
        serial += 1
        return Generator(f"g{serial}", a, m)

    half = rng.choice((Fraction(0), Fraction(1, 2))) if rng.random() < 0.15 else Fraction(0)
    while len(gens) < count:
        a = rng.randint(-2, 2)
        m = Fraction(a + rng.randint(-2, 2)) + half
        if a == 0 or count - len(gens) == 1:
            gens.append(fresh(0 if count - len(gens) == 1 and a != 0 else a, m))
        else:
            gens.append(fresh(a, m))
            gens.append(fresh(-a, m - 2 * a))
    return gens[:count]


def _legal_edges(gens):
    """Edges (src, tgt, n) allowed by the grading rules; n is forced by M."""
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


def _random_complex(rng: random.Random) -> KnotComplex:
    gens = _random_generators(rng)
    edges = _legal_edges(gens)
    for _ in range(40):
        chosen = tuple(e for e in edges if rng.random() < 0.4)
        c = KnotComplex("0", tuple(gens), chosen)
        if validate(c).ok:
            return c
    return KnotComplex("0", tuple(gens), ())


@lru_cache(maxsize=None)
def corpus(seed: int = SEED, size: int = CORPUS_SIZE):
    rng = random.Random(seed)
    return tuple(_random_complex(rng) for _ in range(size))


@lru_cache(maxsize=None)
def with_flip(seed: int = SEED, size: int = CORPUS_SIZE):
    """(complex, flipped complex) pairs for the corpus members with a flip."""
    out = []
    for c in corpus(seed, size):
        try:
            out.append((c, derive_flip(c)))
        except NoFlipFound:
            continue
    return tuple(out)


def staircase(k: int) -> KnotComplex:
    """T(2, 2k+1): x_j has A = k - j and M = -j; d x_odd = U x_prev + x_next."""
    n = 2 * k + 1
    name = [f"x{j:02d}" for j in range(n)]
    gens = tuple(Generator(name[j], k - j, Fraction(-j)) for j in range(n))
    diff = []
    for j in range(1, n, 2):
        diff += [DiffTerm(name[j], name[j - 1], 1), DiffTerm(name[j], name[j + 1], 0)]
    flip = tuple(FlipTerm(name[j], name[n - 1 - j], j - k) for j in range(n))
    return KnotComplex("0", gens, tuple(diff), flip)


def torus_exponents(p: int, q: int) -> tuple:
    """Exponents of the symmetrized Alexander polynomial of T(p, q), in
    descending order; the coefficients alternate +1, -1, ..., +1."""
    num = [0] * (p * q + 2)  # (t^pq - 1)(t - 1), low degree first
    num[0], num[1], num[p * q], num[p * q + 1] = 1, -1, -1, 1
    for d in (p, q):  # quotient by t^d - 1: quo[k] = quo[k - d] - num[k]
        quo = []
        for k in range(len(num) - d):
            quo.append((quo[k - d] if k >= d else 0) - num[k])
        num = quo
    genus = (p - 1) * (q - 1) // 2
    return tuple(k - genus for k in range(2 * genus, -1, -1) if num[k])


def lspace_staircase(exponents) -> KnotComplex:
    """The staircase of an L-space knot whose Alexander polynomial has the
    descending exponents n_0 > ... > n_2m, symmetric about 0: x_k has A = n_k,
    d x_odd = U^(n_prev - n_k) x_prev + x_next, and the flip sends x_k to
    x_(2m-k).  T(2, 2k+1) is the case of unit steps."""
    name = [f"x{k:02d}" for k in range(len(exponents))]
    maslov, gens, diff = Fraction(0), [], []
    for k, a in enumerate(exponents):
        if k:
            maslov += 1 - 2 * (exponents[k - 1] - a) if k % 2 else -1
        gens.append(Generator(name[k], a, maslov))
    for k in range(1, len(exponents), 2):
        diff += [DiffTerm(name[k], name[k - 1], exponents[k - 1] - exponents[k]),
                 DiffTerm(name[k], name[k + 1], 0)]
    flip = tuple(FlipTerm(name[k], name[-1 - k], -a) for k, a in enumerate(exponents))
    return KnotComplex("0", tuple(gens), tuple(diff), flip)


def mirror(c: KnotComplex) -> KnotComplex:
    """The dual complex: A and M negate, differential and flip terms reverse."""
    gens = tuple(Generator(g.name, -g.alexander, -g.maslov) for g in c.generators)
    diff = tuple(DiffTerm(t.target, t.source, t.u_power) for t in c.differential)
    flip = tuple(FlipTerm(t.target, t.source, c.alexander(t.target)) for t in c.flip)
    return KnotComplex(c.spinc_label, gens, diff, flip)


def tensor(x: KnotComplex, y: KnotComplex) -> KnotComplex:
    """Connected sum: generators g.h with A and M added, d = d x 1 + 1 x d
    and flip = flip x flip, U-powers added; both factors need a flip."""
    gens = tuple(Generator(f"{g.name}.{h.name}", g.alexander + h.alexander, g.maslov + h.maslov)
                 for g in x.generators for h in y.generators)
    diff = [DiffTerm(f"{t.source}.{h.name}", f"{t.target}.{h.name}", t.u_power)
            for t in x.differential for h in y.generators]
    diff += [DiffTerm(f"{g.name}.{t.source}", f"{g.name}.{t.target}", t.u_power)
             for g in x.generators for t in y.differential]
    flip = tuple(FlipTerm(f"{p.source}.{q.source}", f"{p.target}.{q.target}", p.u_power + q.u_power)
                 for p in x.flip for q in y.flip)
    return KnotComplex("0", gens, tuple(diff), flip)


# the connected sums the benchmark's twisted workload runs (15-45 generators),
# and three of 125 generators
TWISTED_SUMS = ("T2_3+T2_5", "T2_3+F8", "mT2_3+T2_5", "T2_5+F8", "F8+F8", "T2_5+mT2_5",
                "T2_3+T2_3+T2_3", "T2_3+T2_3+mT2_3", "T2_3+T2_3+F8", "mT2_3+F8+T2_3",
                "T2_3+T2_3+T2_5")
BIG_SUMS = ("T2_5+T2_5+F8", "Y1+T2_5+F8", "T2_5+mT2_5+F8")


def connected_sum(name: str) -> KnotComplex:
    """The connected sum of the "+"-separated parts T2_3 and T2_5 (staircases),
    F8 (the figure-eight) and Y1 (Y1SIGMA), each mirrored under an "m" prefix."""
    part = {"T2_3": staircase(1), "T2_5": staircase(2), "F8": FIGURE8, "Y1": Y1SIGMA}
    part.update({"m" + key: mirror(c) for key, c in part.items()})
    first, *rest = (part[n] for n in name.split("+"))
    for other in rest:
        first = tensor(first, other)
    return first


# the shipped trefoil's flip lines, each with one input fault: the term at a
# with its U-power shifted by one, and the term at b dropped
TREFOIL_FLIP_FAULTS = (("flip a : U^-1 c\n", "flip a : U^0 c\n"), ("flip b : U^0 b\n", ""))


def broken_trefoils() -> list:
    """(complex, .cfk text) per fault of TREFOIL_FLIP_FAULTS; `validate`
    refuses each, the shifted term as a flip-term violation and the dropped
    one as a singular flip that does not commute with d."""
    text = (Path(floercone.__file__).parent / "data" / "trefoil.cfk").read_text()
    shifted = tuple(t._replace(u_power=t.u_power + 1) if t.source == "a" else t for t in TREFOIL.flip)
    dropped = tuple(t for t in TREFOIL.flip if t.source != "b")
    texts = [text.replace(old, new, 1) for old, new in TREFOIL_FLIP_FAULTS]
    assert text not in texts, "the shipped trefoil no longer has the flip lines to break"
    return [(replace(TREFOIL, flip=flip), broken) for flip, broken in zip((shifted, dropped), texts)]


def run_on_broken_trefoils_under_python_O(code: str, tmp_path) -> subprocess.CompletedProcess:
    """Runs code under python -O, with the library and this module importable
    and the path of a file holding each text of `broken_trefoils` in argv."""
    paths = [tmp_path / f"broken{k}.cfk" for k in range(len(TREFOIL_FLIP_FAULTS))]
    for path, (_, text) in zip(paths, broken_trefoils()):
        path.write_text(text)
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-O", "-c", code, *map(str, paths)], env=env,
                          capture_output=True, text=True, timeout=60)


# the tables a complex builds on first use, once each, for every s
TABLES = ("_alexander_gradings", "_b_modulo_u", "_b_echelon")


def count_builds(monkeypatch) -> Counter:
    """Counts `free_plus_complex` calls by s (None for B), the readings of
    A_s modulo U ("a_modulo_u", `cone._a_modulo_u`) and of B, v and h modulo
    U ("maps", `cone._modulo_u_maps`), and the builds of each of TABLES by
    name, from every module that calls them."""
    built, free = Counter(), subquotient.free_plus_complex
    read, maps = cone_module._a_modulo_u, cone_module._modulo_u_maps
    counted = {"free_plus_complex": lambda c, s=None: built.update([s]) or free(c, s),
               "_a_modulo_u": lambda c, s: built.update(["a_modulo_u"]) or read(c, s),
               "_modulo_u_maps": lambda *args: built.update(["maps"]) or maps(*args)}
    for module in (subquotient, cone_module, detect_module, twisted_module):
        for name, counter in counted.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counter)
    for name in TABLES:
        table = cached_property(lambda c, _f=getattr(KnotComplex, name).func, _name=name:
                                built.update([_name]) or _f(c))
        table.__set_name__(KnotComplex, name)
        monkeypatch.setattr(KnotComplex, name, table)
    return built

"""Finite free models of knot Floer complexes.

A model is a list of generators with an Alexander grading A (an integer)
and a Maslov grading M (an exact rational), a differential given by terms
U^n * target, and an optional flip map realizing the symmetry that
exchanges the two lattice coordinates.

The plane element (g, i) stands for U^{-i} * g.  It sits at lattice
position (i, i + A(g)) and has Maslov grading M(g) + 2i.  The differential
acts by translation: a term U^n * h in the differential of g contributes
(h, i - n) to the differential of (g, i).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache

from floercone.linalg import F2Matrix, rank_f2


# Entries kept by each of the validate and derive_flip caches; a long batch
# evicts the least recently used complexes instead of growing.
_CACHE_SIZE = 256


class NoFlipFound(Exception):
    """No generator involution satisfies the flip constraints."""


class ValidationError(Exception):
    def __init__(self, label: str, report: "ValidationReport"):
        self.label = label
        self.report = report
        lines = "; ".join(str(v) for v in report.violations)
        super().__init__(f"complex {label!r} is invalid: {lines}")


@dataclass(frozen=True)
class Generator:
    name: str
    alexander: int
    maslov: Fraction

    def __post_init__(self):
        if not isinstance(self.alexander, int):
            raise TypeError("alexander grading must be an integer")
        if not isinstance(self.maslov, Fraction):
            object.__setattr__(self, "maslov", Fraction(self.maslov))


@dataclass(frozen=True)
class DiffTerm:
    """The term U^{u_power} * target inside the differential of source."""

    source: str
    target: str
    u_power: int


@dataclass(frozen=True)
class FlipTerm:
    """The term U^{u_power} * target inside the flip image of source."""

    source: str
    target: str
    u_power: int


@dataclass(frozen=True)
class PlaneElement:
    """U^{-i} * generator, at lattice position (i, i + A), Maslov M + 2i."""

    generator: str
    i: int


def _term_order(t):
    return (t.source, t.target, t.u_power)


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: str
    detail: str

    def __str__(self):
        return f"[{self.kind}] {self.subject}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


@dataclass(frozen=True)
class KnotComplex:
    """A complex in canonical order: generators sorted by name, terms by
    (source, target, U-power).  Equality is therefore order-insensitive in
    the inputs."""

    spinc_label: str
    generators: tuple = ()
    differential: tuple = ()
    flip: tuple | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "generators",
            tuple(sorted(self.generators, key=lambda g: g.name)))
        object.__setattr__(
            self, "differential", tuple(sorted(self.differential, key=_term_order)))
        if self.flip is not None:
            object.__setattr__(
                self, "flip", tuple(sorted(self.flip, key=_term_order)))

    @cached_property
    def _hash(self) -> int:
        return hash((self.spinc_label, self.generators, self.differential, self.flip))

    def __hash__(self) -> int:  # cached: it walks every generator, term and Fraction
        return self._hash

    def __getstate__(self) -> dict:  # no cached hash: str hashes differ between processes
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def names(self) -> tuple:
        return tuple(g.name for g in self.generators)

    def generator(self, name: str) -> Generator:
        for g in self.generators:
            if g.name == name:
                return g
        raise KeyError(name)

    def alexander(self, name: str) -> int:
        return self.generator(name).alexander

    def maslov(self, name: str) -> Fraction:
        return self.generator(name).maslov

    def a_max(self) -> int:
        """Largest Alexander grading present, clamped below at 0."""
        return max([0] + [g.alexander for g in self.generators])

    def a_bound(self) -> int:
        """Largest |A| over the generators (0 for an empty complex)."""
        return max([0] + [abs(g.alexander) for g in self.generators])


def _term_map(terms) -> dict:
    """(source -> target -> frozenset of U-powers with odd multiplicity)."""
    acc: dict[str, dict[str, set]] = {}
    for t in terms:
        powers = acc.setdefault(t.source, {}).setdefault(t.target, set())
        if t.u_power in powers:
            powers.discard(t.u_power)
        else:
            powers.add(t.u_power)
    return {
        src: {tgt: frozenset(p) for tgt, p in tgts.items() if p}
        for src, tgts in acc.items()
    }


def _compose(outer: dict, inner: dict) -> dict:
    """Formal composition of U-power term maps over F2[U, U^-1]."""
    acc: dict[str, dict[str, set]] = {}
    for src, mids in inner.items():
        for mid, inner_powers in mids.items():
            for tgt, outer_powers in outer.get(mid, {}).items():
                sink = acc.setdefault(src, {}).setdefault(tgt, set())
                for p1 in inner_powers:
                    for p2 in outer_powers:
                        n = p1 + p2
                        if n in sink:
                            sink.discard(n)
                        else:
                            sink.add(n)
    return {
        src: {tgt: frozenset(p) for tgt, p in tgts.items() if p}
        for src, tgts in acc.items()
    }


def _maps_equal(a: dict, b: dict) -> bool:
    keys = set(a) | set(b)
    for k in keys:
        ta, tb = a.get(k, {}), b.get(k, {})
        if set(ta) != set(tb):
            return False
        for t in ta:
            if ta[t] != tb[t]:
                return False
    return True


def differential_map(c: KnotComplex) -> dict:
    return _term_map(c.differential)


def flip_map(c: KnotComplex) -> dict:
    return _term_map(c.flip or ())


@lru_cache(maxsize=_CACHE_SIZE)
def validate(c: KnotComplex) -> ValidationReport:
    """Full structural check; returns every violation found, never raises."""
    bad: list[Violation] = []
    names = [g.name for g in c.generators]
    by_name = {}
    for g in c.generators:
        if g.name in by_name:
            bad.append(Violation("duplicate-name", g.name, "generator name reused"))
        by_name[g.name] = g
    if len(set(names)) != len(names):
        # containers keyed by name are unreliable; stop before deriving more
        return ValidationReport(tuple(bad))

    def known(term, role) -> bool:
        ok = True
        for who in (term.source, term.target):
            if who not in by_name:
                bad.append(Violation("unknown-generator", f"{role} {term.source}->{term.target}", f"no generator named {who!r}"))
                ok = False
        return ok

    seen_terms = set()
    for t in c.differential:
        if not known(t, "d"):
            continue
        key = (t.source, t.target, t.u_power)
        label = f"d {t.source} -> U^{t.u_power} {t.target}"
        if key in seen_terms:
            bad.append(Violation("duplicate-term", label, "term listed twice"))
        seen_terms.add(key)
        src, tgt = by_name[t.source], by_name[t.target]
        if t.u_power < 0:
            bad.append(Violation("negative-u-power", label, "differential U-powers must be >= 0"))
        if t.u_power < tgt.alexander - src.alexander:
            bad.append(Violation(
                "filtration", label,
                f"U-power {t.u_power} < A(target) - A(source) = {tgt.alexander - src.alexander}"))
        if tgt.maslov - 2 * t.u_power != src.maslov - 1:
            bad.append(Violation(
                "maslov-drop", label,
                f"M(target) - 2n = {tgt.maslov - 2 * t.u_power}, expected M(source) - 1 = {src.maslov - 1}"))

    d = differential_map(c)
    dd = _compose(d, d)
    for src in sorted(dd):
        for tgt in sorted(dd[src]):
            for n in sorted(dd[src][tgt]):
                bad.append(Violation("d-squared", f"{src} -> U^{n} {tgt}", "d o d has this odd term"))

    if c.flip is not None:
        seen_flip = set()
        for t in c.flip:
            if not known(t, "flip"):
                continue
            key = (t.source, t.target, t.u_power)
            label = f"flip {t.source} -> U^{t.u_power} {t.target}"
            if key in seen_flip:
                bad.append(Violation("duplicate-term", label, "term listed twice"))
            seen_flip.add(key)
            src, tgt = by_name[t.source], by_name[t.target]
            if t.u_power != -src.alexander:
                bad.append(Violation(
                    "flip-term", label,
                    f"U-power must be -A(source) = {-src.alexander} to exchange coordinates"))
            if tgt.alexander != -src.alexander:
                bad.append(Violation(
                    "flip-term", label,
                    f"A(target) = {tgt.alexander}, expected -A(source) = {-src.alexander}"))
            if tgt.maslov != src.maslov - 2 * src.alexander:
                bad.append(Violation(
                    "flip-term", label,
                    f"M(target) = {tgt.maslov}, expected M(source) - 2A(source) = {src.maslov - 2 * src.alexander}"))

        phi = flip_map(c)
        index = {n: k for k, n in enumerate(names)}
        entries = []
        for src, tgts in phi.items():
            for tgt in tgts:
                entries.append((index[tgt], index[src]))
        mat = F2Matrix(len(names), len(names), frozenset(entries))
        if rank_f2(mat) != len(names):
            bad.append(Violation("flip-not-invertible", "flip", "generator matrix of the flip is singular"))
        if not _maps_equal(_compose(phi, d), _compose(d, phi)):
            bad.append(Violation("flip-chain-map", "flip", "flip does not commute with the differential"))

    return ValidationReport(tuple(bad))


def require_valid(c: KnotComplex) -> None:
    report = validate(c)
    if not report.ok:
        raise ValidationError(c.spinc_label, report)


def _flip_terms_of(c: KnotComplex, sigma: dict) -> tuple:
    return tuple(
        FlipTerm(name, sigma[name], -c.alexander(name))
        for name in sorted(sigma)
    )


def _sigma_is_chain_map(c: KnotComplex, sigma: dict) -> bool:
    phi = _term_map(_flip_terms_of(c, sigma))
    d = differential_map(c)
    return _maps_equal(_compose(phi, d), _compose(d, phi))


@lru_cache(maxsize=_CACHE_SIZE)
def derive_flip(c: KnotComplex) -> KnotComplex:
    """Search for an involution flip; returns a copy with flip populated.

    Pairing constraints: A(sigma g) = -A(g) and M(sigma g) = M(g) - 2 A(g).
    The constraints are symmetric in g and sigma g, so assignments are made
    in mutually consistent pairs.  Among valid involutions the
    lexicographically first assignment (by generator name) is returned.
    """
    require_valid(c)
    if c.flip is not None:
        raise ValueError("flip already present")
    gens = sorted(c.generators, key=lambda g: g.name)
    by_name = {g.name: g for g in gens}

    def candidates(g: Generator) -> list:
        out = []
        for h in gens:
            if h.alexander == -g.alexander and h.maslov == g.maslov - 2 * g.alexander:
                out.append(h.name)
        return out

    sigma: dict[str, str] = {}

    def search() -> bool:
        free = [g.name for g in gens if g.name not in sigma]
        if not free:
            return _sigma_is_chain_map(c, sigma)
        g = by_name[free[0]]
        for h in candidates(g):
            if h != g.name and h in sigma:
                continue
            sigma[g.name] = h
            sigma[h] = g.name
            if search():
                return True
            del sigma[g.name]
            if h != g.name:
                del sigma[h]
        return False

    if not search():
        raise NoFlipFound(f"no involution flip exists for complex {c.spinc_label!r}")
    out = replace(c, flip=_flip_terms_of(c, sigma))
    require_valid(out)
    return out


def enumerate_flips(c: KnotComplex) -> list:
    """All generator bijections that are valid flips, as FlipTerm tuples.

    Exhaustive over bijections sigma with A(sigma g) = -A(g) and
    M(sigma g) = M(g) - 2 A(g) whose induced map commutes with the
    differential.  Involutions are not required here.  Deterministic order:
    lexicographic in the assignment vector over name-sorted generators.
    """
    require_valid(c)
    gens = sorted(c.generators, key=lambda g: g.name)
    pools = []
    for g in gens:
        pool = [
            h.name for h in gens
            if h.alexander == -g.alexander and h.maslov == g.maslov - 2 * g.alexander
        ]
        pools.append(pool)
    found = []
    for choice in itertools.product(*pools):
        if len(set(choice)) != len(choice):
            continue
        sigma = {g.name: h for g, h in zip(gens, choice)}
        if _sigma_is_chain_map(c, sigma):
            found.append(_flip_terms_of(c, sigma))
    return found


def lattice_window(c: KnotComplex, i_min: int, i_max: int):
    """Plane elements with i_min <= i <= i_max and the induced differential.

    Returns (elements, matrix) where matrix[(r, k)] = 1 means the
    differential of elements[k] contains elements[r].  Terms whose image
    leaves the window are dropped.
    """
    require_valid(c)
    if i_min > i_max:
        raise ValueError("i_min must not exceed i_max")
    elements = tuple(
        PlaneElement(g.name, i)
        for g in sorted(c.generators, key=lambda g: g.name)
        for i in range(i_min, i_max + 1)
    )
    index = {(e.generator, e.i): k for k, e in enumerate(elements)}
    entries = []
    for t in c.differential:
        for i in range(i_min, i_max + 1):
            row = index.get((t.target, i - t.u_power))
            if row is not None:
                entries.append((row, index[(t.source, i)]))
    return elements, F2Matrix.from_entries(len(elements), len(elements), entries)


def plane_position(c: KnotComplex, e: PlaneElement) -> tuple:
    g = c.generator(e.generator)
    return (e.i, e.i + g.alexander)

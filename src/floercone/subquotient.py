"""Finite subquotient complexes of a knot Floer model.

Regions of the (i, j) plane used here, with j = i + A(generator):

    B_hat    i = 0
    A_hat    max(i, j - s) = 0
    B_plus   0 <= i <= N
    A_plus   0 <= max(i, j - s) <= N

Terms of the differential whose image leaves the region are dropped
(quotient first, then subobject); the regions are convex for the product
order, so the result is again a complex.

The plus-flavor regions carry a U-action (g, i) -> (g, i - 1), truncated
at height N.  `GradedUModule` decomposes the homology of such a complex
into Jordan blocks of the nilpotent U-action, which is what the reduced
part and the socle extraction read off.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from floercone.linalg import (
    F2Matrix,
    F2Span,
    InvariantViolated,
    NotAChainMap,
    kernel_basis_f2,
    rank_f2,
    submatrix,
    vector_mask,
)
from floercone.model import KnotComplex, PlaneElement, plane_maslov, require_valid


class TruncationUnstable(Exception):
    """Truncated computation failed to stabilize below the height cap."""


@dataclass(frozen=True)
class RegionTag:
    kind: str
    s: int | None = None
    n: int | None = None


@dataclass(frozen=True)
class SubquotientComplex:
    basis: tuple
    differential: F2Matrix
    maslov: tuple
    region: RegionTag

    def __post_init__(self):
        d = self.differential
        if d.rows != len(self.basis) or d.cols != len(self.basis):
            raise ValueError("differential shape does not match basis")
        if not d.mul(d).is_zero():
            raise ValueError("induced differential does not square to zero")
        maslov = self.maslov
        for m, col in zip(maslov, d.column_masks()):
            below = m - 1 if col else None
            while col:
                low = col & -col
                if maslov[low.bit_length() - 1] != below:
                    raise ValueError("differential entry does not drop Maslov by 1")
                col ^= low

    @property
    def dim(self) -> int:
        return len(self.basis)

    def homology_dim(self) -> int:
        rk = rank_f2(self.differential)
        return (self.dim - rk) - rk

    def index(self) -> dict:
        return {(e.generator, e.i): k for k, e in enumerate(self.basis)}


@dataclass(frozen=True)
class UAction:
    matrix: F2Matrix
    truncation: int


def _make_sub(c: KnotComplex, elements, region: RegionTag) -> SubquotientComplex:
    elements = tuple(sorted(elements, key=lambda e: (e.generator, e.i)))
    index = {(e.generator, e.i): k for k, e in enumerate(elements)}
    heights: dict[str, list] = {}
    for (g, i), col in index.items():
        heights.setdefault(g, []).append((i, col))
    entries = []
    for t in c.differential:
        for i, col in heights.get(t.source, ()):
            row = index.get((t.target, i - t.u_power))
            if row is not None:
                entries.append((row, col))
    diff = F2Matrix.from_entries(len(elements), len(elements), entries)
    maslov = tuple(plane_maslov(c, e) for e in elements)
    return SubquotientComplex(elements, diff, maslov, region)


def build_B_hat(c: KnotComplex) -> SubquotientComplex:
    require_valid(c)
    elements = [PlaneElement(g.name, 0) for g in c.generators]
    return _make_sub(c, elements, RegionTag("B_hat"))


def build_A_hat(c: KnotComplex, s: int) -> SubquotientComplex:
    """One element per generator: (g, min(0, s - A(g)))."""
    require_valid(c)
    elements = [PlaneElement(g.name, min(0, s - g.alexander)) for g in c.generators]
    return _make_sub(c, elements, RegionTag("A_hat", s=s))


def _plus_elements(c: KnotComplex, region: str, n: int, s: int | None):
    for g in c.generators:
        if region == "B" or g.alexander <= s:
            lo = 0
        else:
            lo = s - g.alexander
        for i in range(lo, lo + n + 1):
            yield PlaneElement(g.name, i)


def build_plus_truncated(c: KnotComplex, region: str, n: int, s: int | None = None):
    """Truncated plus-flavor complex and its U-action.

    region "B": 0 <= i <= n.  region "A": 0 <= max(i, j - s) <= n, which
    per generator is an interval of n + 1 consecutive heights.
    """
    require_valid(c)
    if region not in ("A", "B"):
        raise ValueError("region must be 'A' or 'B'")
    if region == "A" and s is None:
        raise ValueError("region 'A' requires s")
    if n < 0:
        raise ValueError("truncation must be >= 0")
    tag = RegionTag("A_plus", s=s, n=n) if region == "A" else RegionTag("B_plus", n=n)
    sub = _make_sub(c, list(_plus_elements(c, region, n, s)), tag)
    index = sub.index()
    entries = []
    for (g, i), col in index.items():
        row = index.get((g, i - 1))
        if row is not None:
            entries.append((row, col))
    u = F2Matrix.from_entries(sub.dim, sub.dim, entries)
    if u.mul(sub.differential) != sub.differential.mul(u):
        raise NotAChainMap("U does not commute with the differential")
    _check_nilpotent(u, n)
    return sub, UAction(u, n)


def _check_nilpotent(u: F2Matrix, n: int) -> None:
    """Raise InvariantViolated unless U^(n+1) = 0.

    The power is formed by repeated squaring: at most
    ceil(log2(n + 1)) + popcount(n + 1) products instead of n.
    """
    e, square, power = n + 1, u, None
    while True:
        if e & 1:
            power = square if power is None else power.mul(square)
        e >>= 1
        if not e:
            break
        square = square.mul(square)
    if not power.is_zero():
        raise InvariantViolated(f"U^{n + 1} is not zero on the truncation at height {n}")


# ---------------------------------------------------------------------------
# Graded homology with U-action


def graded_homology_dims(maslovs, differential: F2Matrix) -> dict:
    """Homology dimensions per grading for a grading-homogeneous differential."""
    by_grading: dict[Fraction, list] = {}
    for k, m in enumerate(maslovs):
        by_grading.setdefault(m, []).append(k)
    cols = differential.column_masks()
    out = {}
    for d in sorted(by_grading):
        idx = by_grading[d]
        sub = submatrix(differential, range(differential.rows), idx)
        cycles = len(idx) - rank_f2(sub)
        span = F2Span()
        for k in by_grading.get(d + 1, ()):
            span.add(cols[k])
        boundaries = span.size
        if cycles - boundaries:
            out[d] = cycles - boundaries
    return out


class GradedUModule:
    """Homology of a graded complex with a degree -2 nilpotent U-action.

    Exposes the per-grading dimensions, the matrices of U between homology
    gradings, and the resulting Jordan block decomposition.
    """

    def __init__(self, maslovs, differential: F2Matrix, u_matrix: F2Matrix):
        self._u = u_matrix
        by_grading: dict[Fraction, list] = {}
        for k, m in enumerate(maslovs):
            by_grading.setdefault(m, []).append(k)
        cols = differential.column_masks()
        self.reps: dict[Fraction, list] = {}
        self._spans: dict[Fraction, F2Span] = {}
        for d, idx in by_grading.items():
            span = F2Span()
            for k in by_grading.get(d + 1, ()):
                span.add(cols[k])
            sub = submatrix(differential, range(differential.rows), idx)
            reps = []
            for vec in kernel_basis_f2(sub):
                mask = vector_mask(idx[j] for j in vec)
                if span.add(mask, tag=len(reps)):
                    reps.append(mask)
            self.reps[d] = reps
            self._spans[d] = span
        self._u_mats: dict[Fraction, F2Matrix] = {}

    def gradings(self):
        return sorted(d for d, reps in self.reps.items() if reps)

    def dims(self) -> dict:
        return {d: len(reps) for d, reps in self.reps.items() if reps}

    def u_matrix(self, d) -> F2Matrix:
        """Matrix of U from homology at grading d to grading d - 2."""
        if d in self._u_mats:
            return self._u_mats[d]
        src = self.reps.get(d, [])
        tgt = self.reps.get(d - 2, [])
        span = self._spans.get(d - 2, F2Span())
        columns = []
        for mask in src:
            image = self._u.apply(mask)
            combo = span.coords(image)
            if combo is None:
                raise NotAChainMap("U image of a cycle is not a cycle")
            columns.append(combo)
        mat = F2Matrix._from_masks(len(tgt), len(src), tuple(columns))
        self._u_mats[d] = mat
        return mat

    def socle_dims(self, cutoff) -> dict:
        """Per-grading dimension of ker(U) on homology, at gradings <= cutoff."""
        out = {}
        for d in self.gradings():
            if d > cutoff:
                continue
            dim = len(self.reps[d]) - rank_f2(self.u_matrix(d))
            if dim:
                out[d] = dim
        return out

    def _rank_power(self, d, k) -> int:
        """Rank of U^k restricted to homology at grading d."""
        reps = self.reps.get(d, [])
        if not reps:
            return 0
        if k == 0:
            return len(reps)
        prod = self.u_matrix(d)
        for step in range(1, k):
            prod = self.u_matrix(d - 2 * step).mul(prod)
        return rank_f2(prod)

    def block_multiplicities(self) -> dict:
        """Jordan blocks of U: (top grading, length) -> multiplicity."""
        out = {}
        total = sum(len(reps) for reps in self.reps.values())
        for d in self.gradings():
            # at step k: number of blocks with top d and length >= k + 1
            prev = None
            for k in range(0, total + 1):
                tops_ge = self._rank_power(d, k) - self._rank_power(d + 2, k + 1)
                if prev is not None and prev - tops_ge:
                    out[(d, k)] = prev - tops_ge
                prev = tops_ge
                if tops_ge == 0:
                    break
        return out

    def reduced_dims(self, cutoff) -> dict:
        """Graded dims of the blocks whose top grading is <= cutoff."""
        out: dict = {}
        for (top, length), count in self.block_multiplicities().items():
            if top > cutoff:
                continue
            for step in range(length):
                d = top - 2 * step
                out[d] = out.get(d, 0) + count
        return {d: out[d] for d in sorted(out)}


# ---------------------------------------------------------------------------
# Stabilized reduced homology


def default_truncation(c: KnotComplex) -> int:
    return 2 * len(c.generators) + c.maslov_spread_ceil()


def truncation_cap(c: KnotComplex) -> int:
    return 4 * len(c.generators) + c.maslov_spread_ceil()


def stabilize(c: KnotComplex, compute, start_n: int | None = None):
    """Run compute(n) at n and n + 1, doubling n until the results agree.

    Returns (result, n).  Raises TruncationUnstable once n passes the cap.
    """
    n = default_truncation(c) if start_n is None else start_n
    cap = truncation_cap(c)
    while n <= cap:
        now, ahead = compute(n), compute(n + 1)
        if now == ahead:
            return now, n
        n = max(n + 1, 2 * n)
    raise TruncationUnstable(
        f"no stabilization at or below truncation {cap} for complex {c.spinc_label!r}")


def _artifact_cutoff(c: KnotComplex, n: int) -> Fraction:
    """Gradings above n + max Maslov belong to truncation artifacts.

    Genuine finite U-blocks keep a fixed top grading as n grows, while
    artifacts created by chopping towers sit at gradings that grow like 2n;
    this line separates the two once n exceeds the Maslov spread, and the
    stabilization comparison double-checks it.
    """
    top = max((g.maslov for g in c.generators), default=Fraction(0))
    return top + n


def _reduced_part_at(c: KnotComplex, n: int) -> dict:
    sub, u = build_plus_truncated(c, "B", n)
    module = GradedUModule(sub.maslov, sub.differential, u.matrix)
    return module.reduced_dims(_artifact_cutoff(c, n))


def hf_red_graded(c: KnotComplex, start_n: int | None = None) -> dict:
    """Graded dimensions of the finite (U-torsion) part of plus-flavor homology.

    Computed on the truncated region 0 <= i <= N, at increasing N until two
    consecutive heights agree.
    """
    require_valid(c)
    result, _ = stabilize(c, lambda n: _reduced_part_at(c, n), start_n)
    return result

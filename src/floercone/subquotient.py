"""Finite subquotient complexes of a knot Floer model.

Regions of the (i, j) plane used here, with j = i + A(generator):

    B_hat    i = 0
    A_hat    max(i, j - s) = 0
    B_plus   0 <= i <= N
    A_plus   0 <= max(i, j - s) <= N

Terms of the differential whose image leaves the region are dropped
(quotient first, then subobject); the regions are convex for the product
order, so the result is again a complex.

The hat regions are GF(2) complexes.  A plus region at height N is a free
F2[U]-complex, one basis element per generator, tensored with
F2[U]/U^(N+1); one Smith reduction modulo U^P (`reduce_free`) gives the
Jordan blocks of U on its homology (`GradedUModule`) at every N < P, and
the reduced part and the socle are read off those blocks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from floercone.linalg import (
    CompositionNonzero,
    F2Matrix,
    InvariantViolated,
    NotAChainMap,
    _clmul,
    rank_f2,
    smith_pivots_u,
    submatrix,
)
from floercone.model import KnotComplex, PlaneElement, plane_maslov, require_valid


class TruncationUnstable(Exception):
    """Truncated computation failed to stabilize below the height cap."""


@dataclass(frozen=True)
class SubquotientComplex:
    basis: tuple
    differential: F2Matrix
    maslov: tuple

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


def _make_sub(c: KnotComplex, elements) -> SubquotientComplex:
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
    return SubquotientComplex(elements, diff, maslov)


def build_B_hat(c: KnotComplex) -> SubquotientComplex:
    require_valid(c)
    elements = [PlaneElement(g.name, 0) for g in c.generators]
    return _make_sub(c, elements)


def build_A_hat(c: KnotComplex, s: int) -> SubquotientComplex:
    """One element per generator: (g, min(0, s - A(g)))."""
    require_valid(c)
    elements = [PlaneElement(g.name, min(0, s - g.alexander)) for g in c.generators]
    return _make_sub(c, elements)


# ---------------------------------------------------------------------------
# Graded homology


def graded_homology_dims(maslovs, differential: F2Matrix) -> dict:
    """Homology dimensions per grading for a grading-homogeneous differential."""
    by_grading: dict[Fraction, list] = {}
    for k, m in enumerate(maslovs):
        by_grading.setdefault(m, []).append(k)
    # the rank on grading d counts non-cycles there and boundaries at d - 1
    rows = range(differential.rows)
    ranks = {d: rank_f2(submatrix(differential, rows, idx)) for d, idx in by_grading.items()}
    out = {}
    for d in sorted(by_grading):
        dim = len(by_grading[d]) - ranks[d] - ranks.get(d + 1, 0)
        if dim:
            out[d] = dim
    return out


# ---------------------------------------------------------------------------
# Plus flavor: free complexes over F2[U]


def _u_columns(size: int, terms, source_gradings, target_gradings, degree) -> tuple:
    """Columns {row: U-power bitmask} of the F2[U] map whose terms (col, row, k)
    put U^k * row in the image of col; each k must be >= 0 and move gradings
    by degree, target_gradings[row] - 2k = source_gradings[col] + degree."""
    columns = [{} for _ in range(size)]
    for col, row, k in terms:
        if k < 0 or target_gradings[row] - 2 * k != source_gradings[col] + degree:
            raise InvariantViolated(f"U-power {k} is negative or breaks the gradings")
        e = columns[col].pop(row, 0) ^ 1 << k
        if e:
            columns[col][row] = e
    return tuple(columns)


def _u_product(outer, inner) -> list:
    """Product of two F2[U] maps given by their columns."""
    out = []
    for col in inner:
        acc: dict[int, int] = {}
        for mid, e in col.items():
            for row, e2 in outer[mid].items():
                x = acc.pop(row, 0) ^ _clmul(e2, e)
                if x:
                    acc[row] = x
        out.append(acc)
    return out


@dataclass(frozen=True)
class FreeUComplex:
    """A plus region as a free F2[U]-complex: basis element k is the plane
    element (g_k, lo[k] + N) at height N, of grading gradings[k] + 2N, and
    columns[k] maps each row to the U-power bitmask of the differential."""

    lo: tuple
    gradings: tuple
    columns: tuple

    def __post_init__(self):
        if any(_u_product(self.columns, self.columns)):
            raise CompositionNonzero("F2[U] differential does not square to zero")


def free_plus_complex(c: KnotComplex, s: int | None = None) -> FreeUComplex:
    """B (s None), the region 0 <= i, or A_s, the region 0 <= max(i, j - s):
    lo is 0 or min(0, s - A(g)), and U^n * t in d g is U^(n + lo(t) - lo(g))."""
    require_valid(c)
    gens = c.generators
    index = {g.name: k for k, g in enumerate(gens)}
    lo = tuple(0 if s is None else min(0, s - g.alexander) for g in gens)
    gradings = tuple(g.maslov + 2 * low for g, low in zip(gens, lo))
    terms = [(index[t.source], index[t.target],
              t.u_power + lo[index[t.target]] - lo[index[t.source]]) for t in c.differential]
    return FreeUComplex(lo, gradings, _u_columns(len(gens), terms, gradings, gradings, -1))


def free_chain_map(source: FreeUComplex, target: FreeUComplex, terms, degree) -> tuple:
    """Columns of the F2[U] map with terms (col, row, k), checked to move
    gradings by degree and to commute with the differentials."""
    f = _u_columns(len(source.gradings), terms, source.gradings, target.gradings, degree)
    if _u_product(f, source.columns) != _u_product(target.columns, f):
        raise NotAChainMap("F2[U] map does not commute with the differentials")
    return f


def _spanned(blocks) -> dict:
    """Graded dimensions of {(top, length): multiplicity} blocks."""
    out: Counter = Counter()
    for (top, length), count in blocks.items():
        for k in range(length):
            out[top - 2 * k] += count
    return {d: out[d] for d in sorted(out)}


class GradedUModule:
    """A graded F2[U]-module given by its Jordan blocks of U: (top, length)
    is F2[U]/U^length generated at grading top, with ker(U) at its bottom."""

    def __init__(self, blocks):
        self._blocks = Counter(blocks)

    def gradings(self):
        return sorted({top - 2 * k for top, length in self._blocks for k in range(length)})

    def dims(self) -> dict:
        return _spanned(self._blocks)

    def socle_dims(self, cutoff) -> dict:
        """Per-grading dimension of ker(U), at gradings <= cutoff."""
        bottoms: Counter = Counter()
        for (top, length), count in self._blocks.items():
            bottoms[top - 2 * length + 2] += count
        return {d: bottoms[d] for d in self.gradings() if d <= cutoff and d in bottoms}

    def block_multiplicities(self) -> dict:
        """Jordan blocks of U: (top grading, length) -> multiplicity."""
        return dict(self._blocks)

    def reduced_dims(self, cutoff) -> dict:
        """Graded dims of the blocks whose top grading is <= cutoff."""
        return _spanned({block: count for block, count in self.block_multiplicities().items()
                         if block[0] <= cutoff})


@dataclass(frozen=True)
class FreeReduction:
    """Smith pivots of a free F2[U]-complex, read at heights below precision:
    (row grading, column grading, v) per pivot U^v, and the gradings of the
    towers; gradings mean something for a degree -1 differential only."""

    size: int
    precision: int
    pairs: tuple
    towers: tuple

    def homology_dim(self, n: int) -> int:
        """Each pivot U^v leaves 2 min(v, n + 1) of its 2(n + 1) dimensions."""
        self._check_height(n)
        return self.size * (n + 1) - 2 * sum(n + 1 - min(v, n + 1) for *_, v in self.pairs)

    def module(self, n: int) -> GradedUModule:
        """Per pivot two blocks of length min(v, n + 1), one from the top of its
        row, one down to the bottom of its column; per tower one of n + 1."""
        self._check_height(n)
        blocks = [(g + 2 * n, n + 1) for g in self.towers]
        for row, col, v in self.pairs:
            length = min(v, n + 1)
            if length:
                blocks += [(row + 2 * n, length), (col + 2 * length - 2, length)]
        return GradedUModule(blocks)

    def _check_height(self, n: int) -> None:
        if not 0 <= n < self.precision:
            raise ValueError(f"height {n} outside 0..{self.precision - 1}")


def reduce_free(gradings, columns, precision: int, graded: bool = True) -> FreeReduction:
    """One Smith reduction of a free F2[U]-complex modulo U^precision.  With
    graded, each pivot U^v must pair gradings gr[row] - 2v = gr[col] - 1."""
    left = Counter(gradings)
    pairs = []
    for row, col, v in smith_pivots_u(columns, precision):
        if graded and gradings[row] - 2 * v != gradings[col] - 1:
            raise InvariantViolated("Smith pivot of a graded complex breaks the grading")
        left.subtract((gradings[row], gradings[col]))
        pairs.append((gradings[row], gradings[col], v))
    return FreeReduction(len(gradings), precision, tuple(pairs), tuple(sorted(left.elements())))


# ---------------------------------------------------------------------------
# Stabilized reduced homology


def default_truncation(c: KnotComplex) -> int:
    return 2 * len(c.generators) + c.maslov_spread_ceil()


def truncation_cap(c: KnotComplex) -> int:
    return 4 * len(c.generators) + c.maslov_spread_ceil()


def stabilize(c: KnotComplex, compute, start_n: int | None = None):
    """Run compute(n) at n and n + 1, doubling n until the results agree.

    Returns (result, n).  Raises TruncationUnstable once n passes the cap,
    and ValueError for a negative start.
    """
    n = default_truncation(c) if start_n is None else start_n
    if n < 0:
        raise ValueError("truncation must be >= 0")
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


def _reduced_part(c: KnotComplex, precision: int):
    """Reduced part of B as a function of the height, from one reduction."""
    b = free_plus_complex(c)
    reduction = reduce_free(b.gradings, b.columns, precision)
    return lambda n: reduction.module(n).reduced_dims(_artifact_cutoff(c, n))


def _reduced_part_at(c: KnotComplex, n: int) -> dict:
    return _reduced_part(c, n + 2)(n)


def hf_red_graded(c: KnotComplex, start_n: int | None = None) -> dict:
    """Graded dimensions of the finite (U-torsion) part of plus-flavor homology,
    read off one reduction of B at heights N until two consecutive agree."""
    require_valid(c)
    result, _ = stabilize(c, _reduced_part(c, truncation_cap(c) + 2), start_n)
    return result

"""Subquotient complexes of a knot Floer model, as free F2[U]-complexes.

Regions of the (i, j) plane used here, with j = i + A(generator):

    B_hat    i = 0
    A_hat    max(i, j - s) = 0
    B_plus   0 <= i <= N
    A_plus   0 <= max(i, j - s) <= N

Each plus region is a free F2[U]-complex, one basis element per generator
g at its lowest height lo(g) (0 in B, min(0, s - A(g)) in A_s), tensored
with F2[U]/U^(N+1) (`free_plus_complex`).  A hat region is the same
complex read modulo U: basis (g, lo(g)), the U^0 part of the differential,
the same gradings.  One Smith reduction modulo U^P (`reduce_free`) gives
the Jordan blocks of U on plus homology (`GradedUModule`) at every N < P.
A graded reduction has no pivot U^v with v >= P once P exceeds half the
grading spread (`_graded_precision`); then its unpaired gradings are the
towers, and the reduced part is read off the pivots in closed form
(`hf_red_graded`).
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
from floercone.model import KnotComplex, PlaneElement, require_valid


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


def _mod_u(columns, rows: int) -> F2Matrix:
    """The U^0 part of an F2[U] map given by its columns {row: U-power bitmask}."""
    return F2Matrix._from_masks(rows, len(columns), tuple(
        sum(1 << row for row, e in col.items() if e & 1) for col in columns))


def _hat_view(c: KnotComplex, free: FreeUComplex) -> SubquotientComplex:
    """A free complex read modulo U."""
    basis = tuple(PlaneElement(g.name, low) for g, low in zip(c.generators, free.lo))
    return SubquotientComplex(basis, _mod_u(free.columns, len(basis)), free.gradings)


def build_B_hat(c: KnotComplex) -> SubquotientComplex:
    return _hat_view(c, free_plus_complex(c))


def build_A_hat(c: KnotComplex, s: int) -> SubquotientComplex:
    """One element per generator: (g, min(0, s - A(g)))."""
    return _hat_view(c, free_plus_complex(c, s))


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


def _u_columns(size: int, terms, source_gradings, target_gradings, degree,
               precision=None) -> tuple:
    """Columns {row: U-power bitmask} of the F2[U] map whose terms (col, row, k)
    put U^k * row in the image of col; each k must be >= 0 and move gradings
    by degree, target_gradings[row] - source_gradings[col] = 2k + degree.
    With a precision, terms with k >= precision are dropped after the check."""
    columns = [{} for _ in range(size)]
    for col, row, k in terms:
        if k < 0 or target_gradings[row] - source_gradings[col] != 2 * k + degree:
            raise InvariantViolated(f"U-power {k} is negative or breaks the gradings")
        if precision is not None and k >= precision:
            continue
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


def free_chain_map(source: FreeUComplex, target: FreeUComplex, terms, degree,
                   precision: int) -> tuple:
    """Columns of the F2[U] map with terms (col, row, k) modulo U^precision,
    checked to move gradings by degree and, modulo U^precision, to commute
    with the differentials; no U^k with k >= precision is written out."""
    f = _u_columns(len(source.gradings), terms, source.gradings, target.gradings, degree,
                   precision)
    full = (1 << precision) - 1
    for x, y in zip(_u_product(f, source.columns), _u_product(target.columns, f)):
        if x != y and any((x.get(r, 0) ^ y.get(r, 0)) & full for r in x.keys() | y.keys()):
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


@dataclass(frozen=True)
class FreeReduction:
    """Smith pivots of a free F2[U]-complex, read at heights below precision:
    (row grading, column grading, v) per pivot U^v, and the gradings of the
    towers.  Gradings mean something for a graded (degree -1) differential
    only: an ungraded reduction records no towers and has no module."""

    size: int
    precision: int
    pairs: tuple
    towers: tuple
    graded: bool = True

    def homology_dim(self, n: int) -> int:
        """Each pivot U^v leaves 2 min(v, n + 1) of its 2(n + 1) dimensions."""
        self._check_height(n)
        return self.size * (n + 1) - 2 * sum(n + 1 - min(v, n + 1) for *_, v in self.pairs)

    def module(self, n: int) -> GradedUModule:
        """Per pivot two blocks of length min(v, n + 1), one from the top of its
        row, one down to the bottom of its column; per tower one of n + 1."""
        self._check_height(n)
        if not self.graded:
            raise ValueError("an ungraded reduction has no graded module")
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
    towers = tuple(sorted(left.elements())) if graded else ()
    return FreeReduction(len(gradings), precision, tuple(pairs), towers, graded)


def _graded_precision(gradings) -> int:
    """A precision above every pivot of a graded reduction on these gradings:
    a pivot U^v pairs gr[row] - 2v = gr[col] - 1, so 2v <= max - min + 1."""
    return (max(gradings) - min(gradings) + 1) // 2 + 1 if gradings else 1


# ---------------------------------------------------------------------------
# Reduced homology


def _artifact_cutoff(c: KnotComplex, n: int) -> Fraction:
    """Gradings above n + max Maslov, where an explicit height n reports
    nothing: the reporting convention of `--truncation N`.

    A finite block of U keeps its top grading as n grows, while a block cut
    from a tower or from a pivot longer than n + 1 has its top at a grading
    that grows like 2n, so past the grading spread this line drops exactly
    the latter.  Below that the cut is a convention, not a theorem.
    """
    top = max((g.maslov for g in c.generators), default=Fraction(0))
    return top + n


def hf_red_graded(c: KnotComplex) -> dict:
    """Graded dimensions of the finite (U-torsion) part of plus-flavor homology:
    per pivot U^v (v >= 1) of B, one block F2[U]/U^v from grading col + 2v - 2
    down to col, read off one reduction at a precision above every pivot."""
    require_valid(c)
    b = free_plus_complex(c)
    reduction = reduce_free(b.gradings, b.columns, _graded_precision(b.gradings))
    return _spanned(Counter((col + 2 * v - 2, v) for _, col, v in reduction.pairs if v))

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

Every grading here is an int, M - offset with the offset shared by the
Maslov gradings of the complex (`KnotComplex._int_maslov`); the offset is
added back only where a grading is reported (`_reported`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from floercone.linalg import (
    CompositionNonzero,
    F2Matrix,
    InvariantViolated,
    NotAChainMap,
    _cut,
    _u_product,
    cancel_units,
    rank_f2,
    smith_pivots_u,
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
    masks = []
    for col in columns:
        mask = 0
        for row, e in col.items():
            if e & 1:
                mask |= 1 << row
        masks.append(mask)
    return F2Matrix._from_masks(rows, len(columns), tuple(masks))


def _hat_view(c: KnotComplex, free: FreeUComplex) -> SubquotientComplex:
    """A free complex read modulo U."""
    basis = tuple(PlaneElement(g.name, low) for g, low in zip(c.generators, free.lo))
    return SubquotientComplex(basis, _mod_u(free.columns, len(basis)), free.gradings)


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


def free_plus_complex(c: KnotComplex, s: int | None = None,
                      precision: int | None = None) -> FreeUComplex:
    """B (s None), the region 0 <= i, or A_s, the region 0 <= max(i, j - s):
    lo is 0 or min(0, s - A(g)), and U^n * t in d g is U^(n + lo(t) - lo(g)).
    With a precision the differential is built modulo U^precision, after
    every term's grading is checked."""
    require_valid(c)
    lo = tuple(0 if s is None else min(0, s - g.alexander) for g in c.generators)
    gradings = tuple(m + 2 * low for m, low in zip(c._int_maslov[1], lo))
    terms = [(x, y, n + lo[y] - lo[x]) for x, y, n in c._index_form[0]]
    return FreeUComplex(lo, gradings,
                        _u_columns(len(lo), terms, gradings, gradings, -1, precision))


def free_chain_map(source: FreeUComplex, target: FreeUComplex, terms, degree,
                   precision: int) -> tuple:
    """Columns of the F2[U] map with terms (col, row, k) modulo U^precision,
    checked to move gradings by degree and, modulo U^precision, to commute
    with the differentials; no U^k with k >= precision is written out."""
    f = _u_columns(len(source.gradings), terms, source.gradings, target.gradings, degree,
                   precision)
    _check_commutes(f, source, target, precision)
    return f


def _check_commutes(f, source: FreeUComplex, target: FreeUComplex, precision: int) -> None:
    """Raise NotAChainMap unless f d = d f modulo U^precision."""
    differences = [{r: e for r in x.keys() | y.keys() if (e := x.get(r, 0) ^ y.get(r, 0))}
                   for x, y in zip(_u_product(f, source.columns), _u_product(target.columns, f))
                   if x != y]
    if any(_cut(e, precision) for col in differences for e in col.values()):
        raise NotAChainMap("F2[U] map does not commute with the differentials")


def reduced_model(free: FreeUComplex, out=(), into=()) -> tuple:
    """The complex with every unit arrow cancelled (`linalg.cancel_units`),
    which is homotopy equivalent to it by an inclusion i and a projection p,
    with each map f out of it as f i and each map g into it as p g; maps
    are given by their columns {row: U-power bitmask}, and are exact or
    modulo a power of U as given."""
    n, width = len(free.columns), len(out)
    columns = list(free.columns)
    if out:
        columns = [dict(col) for col in columns]
        for k, f in enumerate(out):  # map k rides below the columns: row r in row n + r * width + k
            for col, fcol in zip(columns, f):
                for r, e in fcol.items():
                    col[n + r * width + k] = e
    kept, cols = cancel_units(columns + [col for g in into for col in g], n)
    m = len(kept)
    differential, outs = cols[:m], [[] for _ in out]
    if out:  # rows at n and past are the maps out, and no part of p g
        differential = []
        for col in cols[:m]:
            d, parts = {}, [{} for _ in out]
            for r, e in col.items():
                if r < n:
                    d[r] = e
                else:
                    row, k = divmod(r - n, width)
                    parts[k][row] = e
            differential.append(d)
            for f, part in zip(outs, parts):
                f.append(part)
        cols[m:] = [{r: e for r, e in col.items() if r < n} for col in cols[m:]]
    intos, start = [], m
    for g in into:
        intos.append(cols[start:start + len(g)])
        start += len(g)
    reduced = FreeUComplex(tuple([free.lo[k] for k in kept]),
                           tuple([free.gradings[k] for k in kept]), tuple(differential))
    return reduced, outs, intos


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

    def dims(self) -> dict:
        return _spanned(self._blocks)

    def socle_dims(self, cutoff) -> dict:
        """Per-grading dimension of ker(U), at gradings <= cutoff: one per
        block, at its bottom."""
        bottoms: Counter = Counter()
        for (top, length), count in self._blocks.items():
            bottoms[top - 2 * length + 2] += count
        return {d: bottoms[d] for d in sorted(bottoms) if d <= cutoff}


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


def _artifact_cutoff(c: KnotComplex, n: int) -> int:
    """Gradings above n + max Maslov, where an explicit height n reports
    nothing: the reporting convention of `--truncation N`, on the int
    gradings M - offset.

    A finite block of U keeps its top grading as n grows, while a block cut
    from a tower or from a pivot longer than n + 1 has its top at a grading
    that grows like 2n, so past the grading spread this line drops exactly
    the latter.  Below that the cut is a convention, not a theorem.
    """
    return max(c._int_maslov[1], default=0) + n


def hf_red_graded(c: KnotComplex) -> dict:
    """Graded dimensions of the finite (U-torsion) part of plus-flavor homology:
    per pivot U^v (v >= 1) of B, one block F2[U]/U^v from grading col + 2v - 2
    down to col, read off one reduction at a precision above every pivot.
    The reduction runs on the reduced model B' (`reduced_model`), which has
    the pivots of B with v >= 1 and the same towers, and lacks only the
    unit pivots, which add no block."""
    require_valid(c)
    b = reduced_model(free_plus_complex(c))[0]
    reduction = reduce_free(b.gradings, b.columns, _graded_precision(b.gradings))
    return _reported(c, _spanned(Counter((col + 2 * v - 2, v) for _, col, v in reduction.pairs if v)))


def _reported(c: KnotComplex, dims: dict) -> dict:
    """Dimensions keyed by int gradings, keyed by the Maslov gradings they stand for."""
    offset = c._int_maslov[0]
    return {offset + d: n for d, n in dims.items()}

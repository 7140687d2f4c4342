"""Twisted mapping cone over the Laurent ring L = GF(2)[T, T^-1].

The twisted map is W = v + T h, with v and h the hat maps: the F2[U]
maps of the free models read modulo U (see `cone`); the cone of W
computes the surgery homology with coefficients twisted by the surgery
circle class.

The cone is built on the homology of A_s.  A_s has a constant (F2)
differential, so it has a strong deformation retract (i, p, k) onto
H(A_s), i lifting a basis to cycles (`_homology_cycles`); with the
identity and k = 0 on B it retracts d_A (+) d_B over L onto H(A_s) (+) B.
The cone of W on all of A_s, [[d_A, 0], [W, d_B]], perturbs d_A (+) d_B by
delta = [[0, 0], [W, 0]], and k delta = 0, since delta lands in B, where k
vanishes.  So the homological perturbation lemma (Crainic, "On the
perturbation lemma, and deformations", 2004) transfers it to exactly
[[0, 0], [W i, d_B]], the cone of W i : H(A_s) -> B, which is homotopy
equivalent over L to the cone on all of A_s: the homology over L (free
rank and torsion) and over the Novikov field is the same.  The entries
of W i are (v z)_r + T (h z)_r, still 1, T or 1 + T.  The cone on all of
A_s lives on in `tests/oracles.py`.

The Novikov dimension: every entry of the cone differential is 1, T or
1 + T, so it is a matrix over the discrete valuation ring F2[[T]], whose
fraction field is the Novikov field F2((T)).  Its rank there is the number
of invariant factors T^v of a Smith reduction over F2[[T]], and each of
them survives modulo T^P for P above the largest v, which the
minor-degree bound of `linalg` gives; dimensions over the Novikov field
are read off those pivots (`_novikov_rank`).

Torsion bookkeeping: for a square differential D over a PID with D^2 = 0,
L^m / ker D embeds in L^m, so it is torsion free; the exact sequence
0 -> ker D / im D -> L^m / im D -> L^m / ker D -> 0 then identifies the
torsion of the homology with the torsion of coker D, which is the direct
sum of L/(d) over the nonunit invariant factors d of D.  So the torsion
factors reported here are read off a Smith reduction of the cone
differential over L, and its count of nonzero factors, the free rank, is
checked against the Novikov dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

from floercone.linalg import (
    CompositionNonzero,
    F2Matrix,
    F2Span,
    InvariantViolated,
    LaurentMatrix,
    LaurentPoly,
    _minor_degree_bound,
    kernel_basis_f2,
    smith_invariants_laurent,
    smith_pivots_u,
    vector_mask,
)
from floercone.model import KnotComplex
from floercone.cone import ChainMapF2, _hat_complexes, _hat_maps, ensure_flip


@dataclass(frozen=True)
class TwistedCone:
    a: object
    b: object
    cycles: tuple
    map_matrix: LaurentMatrix
    cone_matrix: LaurentMatrix


def build_twisted_cone(c: KnotComplex, s: int) -> TwistedCone:
    """Block matrix [[0, 0], [W i, dB]] on H(A_s) (+) B, for W = v + T h and
    i the lift of H(A_s) to the cycles `cycles` (bitmasks over A_s)."""
    return _twisted_cone(*_hat_maps(c, s, _hat_complexes(c, s)))


def _homology_cycles(a) -> tuple:
    """Cycles of a, as bitmasks, whose classes form a basis of its homology:
    the kernel vectors that stay independent modulo the boundaries."""
    span = F2Span()
    for boundary in a.differential.column_masks():
        span.add(boundary)
    return tuple(z for z in map(vector_mask, kernel_basis_f2(a.differential)) if span.add(z))


def _twisted_cone(v: ChainMapF2, h: ChainMapF2) -> TwistedCone:
    a, b = v.source, v.target
    # the cone of W on all of A_s, [[d_A, 0], [W, d_B]], squares to [[0, 0], [W d_A + d_B W, 0]]
    # (SubquotientComplex checks d_A^2 and d_B^2), and W = v + T h, so it is a complex,
    # and the retract applies, exactly when v and h each commute with the differentials
    for f in (v.matrix, h.matrix):
        if f.mul(a.differential) != b.differential.mul(f):
            raise CompositionNonzero("twisted cone differential does not square to zero")
    cycles = _homology_cycles(a)
    lift = F2Matrix._from_masks(a.dim, len(cycles), cycles)
    w = LaurentMatrix.from_f2(v.matrix.mul(lift)).add(
        LaurentMatrix.from_f2(h.matrix.mul(lift), LaurentPoly.t()))
    n = len(cycles)
    total = {(n + r, n + col): LaurentPoly.one() for r, col in b.differential.entries}
    for (r, col), p in w.to_dict().items():
        total[(n + r, col)] = p
    cone = LaurentMatrix.from_dict(n + b.dim, n + b.dim, total)
    return TwistedCone(a, b, cycles, w, cone)


def novikov_dim(c: KnotComplex, s: int) -> int:
    """Dimension of the cone homology over the Novikov field."""
    return _cone_novikov_dim(build_twisted_cone(ensure_flip(c), s))


def _novikov_rank(m: LaurentMatrix, rank: int) -> int:
    """Rank over the Novikov field of a matrix whose entries are 1, T or 1 + T
    and whose rank is at most `rank`.

    It is the pivot count of a Smith reduction over F2[[T]] modulo T^P, at
    the precision P of `_minor_degree_bound`, which loses no invariant
    factor; every entry has degree at most 1, so P <= rank + 1.
    """
    columns = [{} for _ in range(m.cols)]
    for r, col, p in m.entries:
        if p.min_exp < 0 or p.max_exp > 1:
            raise InvariantViolated(f"twisted cone entry {p} is not 1, T or 1 + T")
        columns[col][r] = p._mask << p._low
    return len(smith_pivots_u(columns, _minor_degree_bound(columns, rank)))


def _cone_novikov_dim(tc: TwistedCone) -> int:
    """m - 2 rank D over the Novikov field, for the m x m cone differential D;
    D^2 = 0 bounds that rank by m // 2."""
    m = tc.cone_matrix.rows
    return m - 2 * _novikov_rank(tc.cone_matrix, m // 2)


@dataclass(frozen=True)
class TwistedConeResult:
    novikov_dim: int
    laurent_free_rank: int
    torsion_factors: tuple

    def __post_init__(self):
        if self.novikov_dim != self.laurent_free_rank:
            raise InvariantViolated("Novikov dimension must match the Laurent free rank")


def twisted_homology_laurent(c: KnotComplex, s: int) -> TwistedConeResult:
    """Free rank and torsion invariant factors of the twisted cone homology."""
    c = ensure_flip(c)
    tc = build_twisted_cone(c, s)
    m = tc.cone_matrix.rows
    invariants = smith_invariants_laurent(tc.cone_matrix)
    free_rank = m - 2 * len(invariants)
    torsion = [p for p in invariants if p != LaurentPoly.one()]
    torsion.sort(key=lambda p: (p.span, tuple(sorted(p.support))))
    return TwistedConeResult(
        novikov_dim=_cone_novikov_dim(tc),
        laurent_free_rank=free_rank,
        torsion_factors=tuple(torsion),
    )

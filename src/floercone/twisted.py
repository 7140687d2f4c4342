"""Twisted mapping cone over the Laurent ring GF(2)[T, T^-1].

The twisted map is W = v + T h, with v and h the hat maps: the F2[U]
maps of the free models read modulo U (see `cone`); the cone of W
computes the surgery homology with coefficients twisted by the surgery
circle class.  Every entry of the cone differential is 1, T or 1 + T, so
it is a matrix over the discrete valuation ring F2[[T]], whose fraction
field is the Novikov field F2((T)).  Its rank there is the number of
invariant factors T^v of a Smith reduction over F2[[T]], and each of them
survives modulo T^P for P above the largest v, which the minor-degree
bound of `linalg` gives; dimensions over the Novikov field are read off
those pivots (`_novikov_rank`).

Torsion bookkeeping: for a square differential D over a PID with D^2 = 0,
L^m / ker D embeds in L^m, so it is torsion free; the exact sequence
0 -> ker D / im D -> L^m / im D -> L^m / ker D -> 0 then identifies the
torsion of the homology with the torsion of coker D, which is the direct
sum of L/(d) over the nonunit invariant factors d of D.  So the torsion
factors reported here are read off a Smith reduction of the full cone
differential over the Laurent ring L, and its count of nonzero factors,
the free rank, is checked against the Novikov dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

from floercone.linalg import (
    CompositionNonzero,
    InvariantViolated,
    LaurentMatrix,
    LaurentPoly,
    _minor_degree_bound,
    smith_invariants_laurent,
    smith_pivots_u,
)
from floercone.model import KnotComplex
from floercone.cone import ChainMapF2, _hat_maps, ensure_flip


@dataclass(frozen=True)
class TwistedCone:
    a: object
    b: object
    map_matrix: LaurentMatrix
    cone_matrix: LaurentMatrix


def build_twisted_cone(c: KnotComplex, s: int) -> TwistedCone:
    """Block matrix [[dA, 0], [v + T h, dB]] on A_s (+) B."""
    return _twisted_cone(*_hat_maps(c, s))


def _twisted_cone(v: ChainMapF2, h: ChainMapF2) -> TwistedCone:
    a, b = v.source, v.target
    w = LaurentMatrix.from_f2(v.matrix).add(
        LaurentMatrix.from_f2(h.matrix, LaurentPoly.t()))
    na = a.dim
    total = {}
    for r, col in a.differential.entries:
        total[(r, col)] = LaurentPoly.one()
    for r, col in b.differential.entries:
        total[(na + r, na + col)] = LaurentPoly.one()
    for (r, col), p in w.to_dict().items():
        total[(na + r, col)] = p
    cone = LaurentMatrix.from_dict(na + b.dim, na + b.dim, total)
    if not cone.mul(cone).is_zero():
        raise CompositionNonzero("twisted cone differential does not square to zero")
    return TwistedCone(a, b, w, cone)


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

"""Twisted mapping cone over the Laurent ring GF(2)[T, T^-1].

The twisted map is W = v + T h on the hat subquotients; the cone of W
computes the surgery homology with coefficients twisted by the surgery
circle class.  Dimensions over the Novikov field reduce to fraction-field
ranks: the homology over the Laurent ring L is finitely generated over a
PID, and extending scalars to any field containing Frac(L) kills exactly
the torsion.

Torsion bookkeeping: for a square differential D over a PID with D^2 = 0,
L^m / ker D embeds in L^m, so it is torsion free; the exact sequence
0 -> ker D / im D -> L^m / im D -> L^m / ker D -> 0 then identifies the
torsion of the homology with the torsion of coker D, which is the direct
sum of L/(d) over the nonunit invariant factors d of D.  So the torsion
factors reported here are read off a Smith reduction of the full cone
differential.
"""

from __future__ import annotations

from dataclasses import dataclass

from floercone.linalg import (
    CompositionNonzero,
    InvariantViolated,
    LaurentMatrix,
    LaurentPoly,
    kernel_basis_f2,
    laurent_hstack,
    rank_f2,
    rank_fraction_field,
    smith_invariants_laurent,
)
from floercone.model import KnotComplex, require_valid
from floercone.cone import FlipMissing, build_h_hat, build_v_hat, ensure_flip


@dataclass(frozen=True)
class TwistedCone:
    a: object
    b: object
    map_matrix: LaurentMatrix
    cone_matrix: LaurentMatrix


def build_twisted_cone(c: KnotComplex, s: int) -> TwistedCone:
    """Block matrix [[dA, 0], [v + T h, dB]] on A_s (+) B."""
    require_valid(c)
    if c.flip is None:
        raise FlipMissing("complex has no flip map; derive or supply one")
    v = build_v_hat(c, s)
    h = build_h_hat(c, s)
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


def _cone_novikov_dim(tc: TwistedCone) -> int:
    """dim H(A_s) + dim H(B) - 2 rank of the induced map of W over the
    fraction field; the two summand complexes have constant differentials,
    so their homology is free and base changes cleanly.
    """
    a, b = tc.a, tc.b
    cycles = kernel_basis_f2(a.differential)
    w = tc.map_matrix.to_dict()
    columns = {}
    for j, z in enumerate(cycles):
        for (r, col), p in w.items():
            if col in z:
                key = (r, j)
                columns[key] = columns.get(key, LaurentPoly.zero()) + p
    images = LaurentMatrix.from_dict(b.dim, len(cycles), columns)
    boundaries = LaurentMatrix.from_f2(b.differential)
    stacked = laurent_hstack(images, boundaries)
    induced_rank = rank_fraction_field(stacked) - rank_f2(b.differential)
    return a.homology_dim() + b.homology_dim() - 2 * induced_rank


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

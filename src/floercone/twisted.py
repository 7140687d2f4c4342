"""Twisted mapping cone over the Laurent ring L = GF(2)[T, T^-1].

The twisted map is W = v + T h, with v and h the hat maps: the F2[U]
maps of the free models read modulo U (see `cone`); the cone of W
computes the surgery homology with coefficients twisted by the surgery
circle class.

Off s = 0 the twisted cone is the hat cone, and no Laurent cone is built.
v keeps the grading and h lowers it by 2s; give T degree 2s, and W is
homogeneous of degree 0, so the cone is a graded complex of free
L-modules.  For s != 0 every nonzero homogeneous element of L is a
monomial, hence a unit: L is a graded field, over which every graded
module is free, so the cone homology has no torsion.  Its free rank is
then its dimension after T = 1, by universal coefficients with no Tor
term, and the cone at T = 1 is the hat cone of v + h.  So for s != 0 the
answer is (`cone_homology_hat(c, s).total_dim`, ()).  At s = 0, T has
degree 0, the argument says nothing, and torsion occurs: the cone below
is built and reduced over L there alone.

At s = 0 the cone is built on the homology of A_s.  A_s has a constant (F2)
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
A_s, at every s, lives on in `tests/oracles.py`.

The Novikov dimension: the Novikov field F2((T)) is a field extension of
Frac(L), so it is flat over L, and tensoring the homology over L with it
kills every torsion summand L/(p) and keeps every free one.  So the
dimension over the Novikov field is the free rank over L.

Torsion bookkeeping: for a square differential D over a PID with D^2 = 0,
L^m / ker D embeds in L^m, so it is torsion free; the exact sequence
0 -> ker D / im D -> L^m / im D -> L^m / ker D -> 0 then identifies the
torsion of the homology with the torsion of coker D, which is the direct
sum of L/(d) over the nonunit invariant factors d of D.  So the torsion
factors reported here are read off a Smith reduction of the cone
differential over L, and its count of nonzero factors gives the free
rank: m - 2 times that count for the m x m differential.
"""

from __future__ import annotations

from dataclasses import dataclass

from floercone.linalg import (
    F2Matrix,
    F2Span,
    LaurentMatrix,
    LaurentPoly,
    kernel_basis_f2,
    smith_invariants_laurent,
    vector_mask,
)
from floercone.model import KnotComplex
from floercone.cone import ChainMapF2, _hat_complexes, _hat_maps, cone_homology_hat, ensure_flip


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
    """The cone of (v + T h) i, for v and h from `_hat_maps`: `free_chain_map`
    has checked that they commute with the differentials, which makes the
    cone on all of A_s a complex and the retract apply."""
    a, b = v.source, v.target
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


@dataclass(frozen=True)
class TwistedConeResult:
    laurent_free_rank: int
    torsion_factors: tuple

    @property
    def novikov_dim(self) -> int:
        """Dimension over the Novikov field F2((T)): the free rank, since
        F2((T)) is a field extension of Frac(L), hence flat over L, and so
        kills the torsion L/(p) and keeps each free summand."""
        return self.laurent_free_rank


def _cone_homology(tc: TwistedCone) -> TwistedConeResult:
    """The free rank and the sorted torsion invariant factors of the cone
    homology over L, from one Smith reduction of the cone differential."""
    invariants = smith_invariants_laurent(tc.cone_matrix)
    torsion = sorted((p for p in invariants if p != LaurentPoly.one()),
                     key=lambda p: (p.span, tuple(sorted(p.support))))
    return TwistedConeResult(tc.cone_matrix.rows - 2 * len(invariants), tuple(torsion))


def twisted_homology_laurent(c: KnotComplex, s: int) -> TwistedConeResult:
    """Free rank and torsion invariant factors of the twisted cone homology:
    for s != 0 the hat cone's dimension and no torsion (module docstring)."""
    c = ensure_flip(c)
    if s:
        return TwistedConeResult(cone_homology_hat(c, s).total_dim, ())
    return _cone_homology(build_twisted_cone(c, s))


def novikov_dim(c: KnotComplex, s: int) -> int:
    """Dimension of the cone homology over the Novikov field."""
    return twisted_homology_laurent(c, s).novikov_dim

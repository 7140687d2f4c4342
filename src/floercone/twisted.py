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
answer is (the hat cone's total_dim, ()), read off ranks modulo U with no
cancellation (`cone._hat_total`).  At s = 0, T has degree 0, the
argument says nothing, and torsion occurs.

At s = 0 alone the cone is read off homology bases.  Modulo U, A_0 and B
have strong deformation retracts (i, p, k) onto their homology A' and B',
with differential 0: i sends a basis to cycles, p reads each element's
coordinates on them in a Smith basis, and one clearing pass per model
gives both (`cone._pencil_maps`); their sum
retracts d_A (+) d_B over L onto A' (+) B' with the zero differential.
The cone of W, [[d_A, 0], [W, d_B]], perturbs d_A (+) d_B by
delta = [[0, 0], [W, 0]], and delta k delta = 0: delta lands in B, k keeps
B in B, and delta vanishes on B.  So the homological perturbation lemma
(Crainic, "On the perturbation lemma, and deformations", 2004) transfers
it to exactly p delta i = [[0, 0], [W', 0]], with the pencil
W' = p_B W i_A = v' + T h' modulo U, and the cone of W' is homotopy
equivalent over L to the cone of W: the homology over L (free rank and
torsion) and over the Novikov field is the same.  The entries of W' are
1, T or 1 + T.  The cone on all of A_s, at every s, lives on in
`tests/oracles.py`.

The Novikov dimension: the Novikov field F2((T)) is a field extension of
Frac(L), so it is flat over L, and tensoring the homology over L with it
kills every torsion summand L/(p) and keeps every free one.  So the
dimension over the Novikov field is the free rank over L.

Free rank and torsion: the cone of W' : L^|A'| -> L^|B'| has no other
differential, so its homology is ker W' (+) coker W'.  ker W' is free of
rank |A'| - r and coker W' is L^(|B'| - r) plus the sum of L/(d) over the
nonunit invariant factors d of W', r their number.  So one Smith
reduction of W' gives the free rank |A'| + |B'| - 2r and the torsion.
"""

from __future__ import annotations

from dataclasses import dataclass

from floercone.linalg import LaurentMatrix, LaurentPoly, _mask_bits, smith_invariants_laurent
from floercone.model import KnotComplex
from floercone.cone import _a_modulo_u, _hat_total, _pencil_maps, ensure_flip

# 1, T and 1 + T, by the bits of v' (bit 0) and h' (bit 1)
_PENCIL = (None, LaurentPoly({0}), LaurentPoly({1}), LaurentPoly({0, 1}))


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


def _pencil_homology(a, b, v, h) -> TwistedConeResult:
    """The free rank and the sorted torsion invariant factors over L of the
    cone of W' = v' + T h' modulo U : L^|A'| -> L^|B'|, for the homology
    bases and maps of `cone._pencil_maps` (module docstring), from one Smith
    reduction; its invariants do not depend on the bases."""
    entries = {}
    for col, (cv, ch) in enumerate(zip(v, h)):
        for r in _mask_bits(cv | ch):
            entries[(r, col)] = _PENCIL[cv >> r & 1 | (ch >> r & 1) << 1]
    pencil = LaurentMatrix.from_dict(len(b.gradings), len(a.gradings), entries)
    invariants = smith_invariants_laurent(pencil)
    torsion = sorted((p for p in invariants if p != LaurentPoly.one()),
                     key=lambda p: (p.span, tuple(sorted(p.support))))
    return TwistedConeResult(pencil.rows + pencil.cols - 2 * len(invariants), tuple(torsion))


def twisted_homology_laurent(c: KnotComplex, s: int) -> TwistedConeResult:
    """Free rank and torsion invariant factors of the twisted cone homology:
    for s != 0 the hat cone's dimension and no torsion, at s = 0 read off
    the pencil on homology bases modulo U (module docstring)."""
    c = ensure_flip(c)
    a = _a_modulo_u(c, s)
    return TwistedConeResult(_hat_total(c, s, a), ()) if s else _pencil_homology(*_pencil_maps(c, a))


def novikov_dim(c: KnotComplex, s: int) -> int:
    """Dimension of the cone homology over the Novikov field."""
    return twisted_homology_laurent(c, s).novikov_dim

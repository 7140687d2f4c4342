"""Obstruction and detection pipeline built on the cone computations.

Scan bounds: all s-scans run over |s| <= the largest |A| over every
generator of every supplied complex (v and h are chain isomorphisms
beyond that range, and unit-plus-T-times-nilpotent matrices are
invertible over the Novikov field).  The bound is recorded in each
verdict witness.  Scans go s = 0, 1, -1, 2, -2, ... so reported
witnesses are the ones closest to the torsion Spin^c structure.
`sphere_necessary_conditions` and `genus` read homology modulo U off
`cone`'s free models and hat cones (`_hat_dim`, `_hat_cone_dim`), and the
pencil at s = 0 off homology bases modulo U (`cone._pencil_maps`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from floercone.linalg import F2Matrix, LaurentPoly, rank_f2
from floercone.model import KnotComplex, require_valid
from floercone.cone import (_a_modulo_u, _b_hat_dim, _hat_cone_dim, _hat_dim, _hat_total, _modulo_u_maps,
                            _pencil_maps, _rank_nullity, ensure_flip)
from floercone.twisted import _pencil_homology, novikov_dim


class NotHomologySphere(Exception):
    """The reduced-homology obstruction needs a homology-sphere input."""


class VerdictKind(enum.Enum):
    FIRES = "Fires"
    DOES_NOT_FIRE = "DoesNotFire"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class Verdict:
    kind: VerdictKind
    statement: str
    witness: dict | None = None

    def __post_init__(self):
        if self.kind is not VerdictKind.INCONCLUSIVE and self.witness is None:
            raise ValueError("witness required unless the verdict is inconclusive")


def _prepare(complexes):
    complexes = [ensure_flip(c) for c in complexes]
    if not complexes:
        raise ValueError("at least one complex is required")
    bound = max(c.a_bound() for c in complexes)
    return complexes, bound


def _s_scan(bound: int):
    yield 0
    for s in range(1, bound + 1):
        yield s
        yield -s


def sphere_obstruction(complexes) -> Verdict:
    """Twisted-vanishing test for a non-separating sphere in the 0-surgery.

    If any twisted group is nonzero the surgered manifold cannot contain a
    non-separating two-sphere (Fires).  If all vanish the necessary
    condition is met; nothing is concluded about existence.
    """
    complexes, bound = _prepare(complexes)
    for s in _s_scan(bound):
        for c in complexes:
            dim = novikov_dim(c, s)
            if dim:
                return Verdict(
                    VerdictKind.FIRES,
                    "0-surgery contains no non-separating two-sphere",
                    {"spinc": c.spinc_label, "s": s, "novikov_dim": dim,
                     "s_bound": bound},
                )
    return Verdict(
        VerdictKind.DOES_NOT_FIRE,
        "all twisted groups vanish in range; no obstruction to a "
        "non-separating sphere",
        {"s_bound": bound, "spinc_covered": [c.spinc_label for c in complexes]},
    )


def _violated(clause: str, s: int, c: KnotComplex, **numbers) -> Verdict:
    return Verdict(VerdictKind.DOES_NOT_FIRE, "0-surgery cannot contain a non-separating two-sphere",
                   {"clause": clause, "s": s, "spinc": c.spinc_label, **numbers})


def sphere_necessary_conditions(complexes) -> Verdict:
    """Checks the three conditions a 0-surgery with a non-separating sphere
    must satisfy, per Spin^c structure s:

      (c) dim H(A_s) = dim H(B) for |s| <= bound,
      (a) untwisted (v + h) induces an isomorphism for s != 0,
      (b) the twisted cone is acyclic (Novikov dimension 0).

    Fires when all hold over every supplied complex; the witness of a
    failure is the first violated clause in the scan, (c) over every
    complex before (a) or (b) within each s.  B is read off the complex's
    tables, built once per complex, and A_s built and read modulo U by rule
    once per (complex, s) (`cone._a_modulo_u`), for all three clauses;
    (c) reads n - 2 rank(d modulo U) off each.  (a) reads the hat cone of
    v + h the same way (`cone._hat_total`), with no cancellation, and its rank
    (dim H(A_s) + dim H(B) - dim H(cone)) / 2 by `cone._rank_nullity`.
    (b) reads the pencil v' + T h' on homology bases of A_0 and B modulo U
    at s = 0 (`cone._pencil_maps`, `twisted`), with no cancellation, and
    only there: for s != 0 the Novikov dimension is the dimension of the
    hat cone of v + h (see `twisted`), which, given (c), is
    2 (dim H(A_s) - rank (v + h)_*), and is 0 exactly when (a) holds; (a)
    runs first, so (b) could never decide a verdict there.
    """
    complexes, bound = _prepare(complexes)
    dims_b = [_b_hat_dim(c) for c in complexes]
    for s in _s_scan(bound):
        built = []  # A_s modulo U per complex, for clauses (a) and (b)
        for c, dim_b in zip(complexes, dims_b):
            built.append(a := _a_modulo_u(c, s))
            if (dim_a := _hat_dim(a.columns)) != dim_b:
                return _violated("c", s, c, dim_A=dim_a, dim_B=dim_b)
        for c, a, dim in zip(complexes, built, dims_b):
            if s == 0:
                if novikov := _pencil_homology(*_pencil_maps(c, a)).novikov_dim:
                    return _violated("b", s, c, novikov_dim=novikov)
            elif (rank := _rank_nullity(dim, dim, _hat_total(c, s, a))) != dim:
                return _violated("a", s, c, rank=rank, dim_A=dim, dim_B=dim)  # dim_A = dim_B by (c)
    return Verdict(
        VerdictKind.FIRES,
        "all necessary conditions for a non-separating sphere hold",
        {"s_bound": bound, "spinc_covered": [c.spinc_label for c in complexes]},
    )


def unknotting_verdict(dim_y: int, dim_n: int) -> Verdict:
    """Trichotomy comparing dim HF(ambient Y) with dim HF(surgered-and-refilled N).

    Equal dimensions force the knot to be unknotted (and N = Y); a strictly
    smaller dim for N is consistent and inconclusive; a strictly larger dim
    is impossible, so no such surgery description exists.
    """
    if dim_y < 1 or dim_n < 1:
        raise ValueError("Floer dimensions are at least 1")
    base = {"dim_y": dim_y, "dim_n": dim_n}
    if dim_n == dim_y:
        return Verdict(VerdictKind.FIRES, "K is unknotted and N = Y",
                       dict(base, outcome="unknotted"))
    if dim_n < dim_y:
        return Verdict(VerdictKind.INCONCLUSIVE,
                       "consistent; no unknotting conclusion",
                       dict(base, outcome="inconclusive"))
    return Verdict(VerdictKind.FIRES,
                   "no such surgery exists: dim HF(N) cannot exceed dim HF(Y)",
                   dict(base, outcome="impossible"))


def genus(complexes) -> int:
    """Smallest s >= 0 with v_i inducing isomorphisms for all i >= s, all Spin^c.

    v_i induces an isomorphism modulo U exactly when its cone on the free
    models has no homology modulo U.  A_i = B for i >= a_max, so per complex
    the scan runs down from a_max - 1 to the first failure, or to the largest
    one already found.  B is read off the complex's tables, built once
    per complex, and A_i and v_i modulo U at most once.
    """
    complexes = _prepare(complexes)[0]
    worst = -1
    for c in complexes:
        for i in range(c.a_max() - 1, worst, -1):
            a, _, v, _ = _modulo_u_maps(c, i, _a_modulo_u(c, i))
            if _hat_cone_dim(a.columns, v, c._b_echelon):  # not acyclic
                worst = i
                break
    return worst + 1


class AlexanderResult(NamedTuple):
    polynomial: LaurentPoly
    trivial_mod_2: bool


def alexander_polynomial(c: KnotComplex) -> AlexanderResult:
    """Mod-2 Alexander polynomial from the associated graded of B.

    The coefficient of T^j is the mod-2 dimension of the homology of the
    Alexander-grading-j piece (only terms preserving both the height and
    the Alexander grading survive in the associated graded).  Triviality
    means support inside {0}; over GF(2) this is weaker than integral
    triviality.
    """
    require_valid(c)
    by_a: dict[int, list] = {}
    for k, g in enumerate(c.generators):
        by_a.setdefault(g.alexander, []).append(k)
    support = []
    for a_value, members in sorted(by_a.items()):
        local = {k: pos for pos, k in enumerate(members)}
        entries = [(local[y], local[x]) for x, y, n in c._index_form[0]
                   if n == 0 and x in local and y in local]
        d = F2Matrix.from_entries(len(members), len(members), entries)
        dim = len(members) - 2 * rank_f2(d)
        if dim % 2:
            support.append(a_value)
    poly = LaurentPoly(frozenset(support))
    return AlexanderResult(poly, poly.support <= {0})


def hf_red_obstruction(red: dict, *, homology_sphere: bool = False) -> Verdict:
    """Reads graded reduced-homology dims of a homology sphere Y.

    If some grading carries exactly one copy of the ground field, no knot
    in Y has 0-surgery equal to S^2 x S^1.  The caller must certify the
    homology-sphere hypothesis.
    """
    if not homology_sphere:
        raise NotHomologySphere(
            "the obstruction applies to homology spheres only; pass "
            "homology_sphere=True to certify the input")
    for grading in sorted(red):
        if red[grading] == 1:
            return Verdict(
                VerdictKind.FIRES,
                "no knot in this homology sphere has 0-surgery S^2 x S^1",
                {"grading": grading, "graded": dict(sorted(red.items()))},
            )
    return Verdict(
        VerdictKind.DOES_NOT_FIRE,
        "no grading carries exactly one copy of the ground field",
        {"graded": dict(sorted(red.items()))},
    )

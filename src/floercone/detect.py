"""Obstruction and detection pipeline built on the cone computations.

Scan bounds: all s-scans run over |s| <= the largest |A| over every
generator of every supplied complex (v and h are chain isomorphisms
beyond that range, and unit-plus-T-times-nilpotent matrices are
invertible over the Novikov field).  The bound is recorded in each
verdict witness.  Scans go s = 0, 1, -1, 2, -2, ... so reported
witnesses are the ones closest to the torsion Spin^c structure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from floercone.linalg import F2Matrix, LaurentPoly, rank_f2
from floercone.model import KnotComplex, require_valid
from floercone.subquotient import build_A_hat, build_B_hat
from floercone.cone import _hat_maps, build_v_hat, ensure_flip, induced_rank, make_chain_map
from floercone.twisted import _cone_novikov_dim, _twisted_cone, build_twisted_cone, novikov_dim


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


def sphere_necessary_conditions(complexes) -> Verdict:
    """Checks the three conditions a 0-surgery with a non-separating sphere
    must satisfy, per Spin^c structure s:

      (c) dim H(A_s) = dim H(B) for |s| <= bound,
      (a) untwisted (v + h) induces an isomorphism for s != 0,
      (b) the twisted cone is acyclic (Novikov dimension 0).

    Fires when all hold over every supplied complex; the witness of a
    failure is the first violated clause in the scan (cheapest first
    within each s).
    """
    complexes, bound = _prepare(complexes)
    for s in _s_scan(bound):
        for c in complexes:
            dim_a = build_A_hat(c, s).homology_dim()
            dim_b = build_B_hat(c).homology_dim()
            if dim_a != dim_b:
                return Verdict(
                    VerdictKind.DOES_NOT_FIRE,
                    "0-surgery cannot contain a non-separating two-sphere",
                    {"clause": "c", "s": s, "spinc": c.spinc_label,
                     "dim_A": dim_a, "dim_B": dim_b},
                )
        hat = []  # clause (a)'s v and h, which clause (b) reuses
        if s != 0:
            for c in complexes:
                v, h = _hat_maps(c, s)
                hat.append((v, h))
                vh = make_chain_map(v.source, v.target, v.matrix.add(h.matrix))
                rank = induced_rank(vh)
                dim_a = v.source.homology_dim()
                dim_b = v.target.homology_dim()
                if not (rank == dim_a == dim_b):
                    return Verdict(
                        VerdictKind.DOES_NOT_FIRE,
                        "0-surgery cannot contain a non-separating two-sphere",
                        {"clause": "a", "s": s, "spinc": c.spinc_label,
                         "rank": rank, "dim_A": dim_a, "dim_B": dim_b},
                    )
        for k, c in enumerate(complexes):
            dim = _cone_novikov_dim(_twisted_cone(*hat[k]) if hat else build_twisted_cone(c, s))
            if dim:
                return Verdict(
                    VerdictKind.DOES_NOT_FIRE,
                    "0-surgery cannot contain a non-separating two-sphere",
                    {"clause": "b", "s": s, "spinc": c.spinc_label,
                     "novikov_dim": dim},
                )
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

    Scanning stops at the largest Alexander grading present, beyond which
    v_i is a chain isomorphism.
    """
    complexes = [ensure_flip(c) for c in complexes]
    if not complexes:
        raise ValueError("at least one complex is required")
    top = max(c.a_max() for c in complexes)
    worst = -1
    for i in range(0, top + 1):
        for c in complexes:
            v = build_v_hat(c, i)
            if not (induced_rank(v) == v.source.homology_dim() == v.target.homology_dim()):
                worst = max(worst, i)
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
    index = {g.name: k for k, g in enumerate(c.generators)}
    support = []
    for a_value, members in sorted(by_a.items()):
        local = {k: pos for pos, k in enumerate(members)}
        entries = []
        for t in c.differential:
            if t.u_power != 0:
                continue
            src, tgt = index[t.source], index[t.target]
            if src in local and tgt in local:
                entries.append((local[tgt], local[src]))
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

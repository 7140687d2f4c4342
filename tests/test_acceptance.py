"""Acceptance gate: eight pipeline-level criteria, all exact equalities.

Each test prints one PASS line when every assertion in it holds, so a
verbose run shows one pass/fail line per criterion.
"""

from dataclasses import replace
from fractions import Fraction

from floercone.cone import (
    _hat_maps,
    build_v_hat,
    cone_homology_hat,
    induced_rank,
    project_A,
)
from floercone.detect import (
    VerdictKind,
    alexander_polynomial,
    genus,
    hf_red_obstruction,
    sphere_necessary_conditions,
    sphere_obstruction,
    unknotting_verdict,
)
from floercone.fixtures import ALL_FIXTURES, TREFOIL, TREFOIL_L, UNKNOT, Y1SIGMA
from floercone.model import DiffTerm, Generator, KnotComplex, enumerate_flips
from floercone.subquotient import build_A_hat, build_B_hat, hf_red_graded
from floercone.twisted import build_twisted_cone, novikov_dim, twisted_homology_laurent

from corpus import corpus, with_flip
from oracles import oracle_cone_hat, oracle_novikov_dim


def _pass(n: int, slug: str):
    print(f"ACCEPTANCE CRITERION {n}: PASS ({slug})")


def test_criterion_1_unknot_pipeline():
    assert cone_homology_hat(UNKNOT, 0).total_dim == 2
    for s in range(-3, 4):
        assert novikov_dim(UNKNOT, s) == 0, s
    assert genus([UNKNOT]) == 0
    assert alexander_polynomial(UNKNOT).trivial_mod_2
    assert sphere_necessary_conditions([UNKNOT]).kind is VerdictKind.FIRES
    _pass(1, "unknot pipeline")


def test_criterion_2_trefoil_pipeline():
    for s, want in zip(range(-2, 3), [0, 0, 2, 0, 0]):
        res = cone_homology_hat(TREFOIL, s)
        assert res.total_dim == want, s
        assert res.total_dim == oracle_cone_hat(TREFOIL, s)[0], s
    assert cone_homology_hat(TREFOIL, 0).rank_v_plus_h == 0
    for s, want in [(0, 2), (1, 0), (-1, 0)]:
        assert novikov_dim(TREFOIL, s) == want, s
        assert oracle_novikov_dim(TREFOIL, s) == want, s
    assert genus([TREFOIL]) == 1
    assert alexander_polynomial(TREFOIL).polynomial.support == frozenset({-1, 0, 1})
    verdict = sphere_obstruction([TREFOIL])
    assert verdict.kind is VerdictKind.FIRES and verdict.witness["s"] == 0
    _pass(2, "trefoil pipeline, oracle cross-checked")


def test_criterion_3_mirror_rank_nullity():
    assert genus([TREFOIL_L]) == 1
    dim_a = build_A_hat(TREFOIL_L, 0).homology_dim()
    dim_b = build_B_hat(TREFOIL_L).homology_dim()
    assert dim_a == 3 and dim_b == 1
    rank_v = induced_rank(build_v_hat(TREFOIL_L, 0))
    rank_h = induced_rank(_hat_maps(TREFOIL_L, 0)[1])
    # rank 1 onto a 1-dimensional target: both maps are surjections
    assert rank_v == 1 and rank_h == 1
    res = cone_homology_hat(TREFOIL_L, 0)
    assert res.rank_v_plus_h == 1
    assert res.total_dim == 2 == dim_a + dim_b - 2 * res.rank_v_plus_h
    _pass(3, "mirror trefoil rank-nullity")


def test_criterion_4_y1sigma_reduced():
    red = hf_red_graded(Y1SIGMA)
    assert red == {Fraction(-1): 1}
    verdict = hf_red_obstruction(red, homology_sphere=True)
    assert verdict.kind is VerdictKind.FIRES
    assert verdict.witness["grading"] == Fraction(-1)
    assert alexander_polynomial(Y1SIGMA).trivial_mod_2
    _pass(4, "reduced homology obstruction")


def test_criterion_5_verdict_trichotomy():
    assert unknotting_verdict(1, 1).witness["outcome"] == "unknotted"
    assert unknotting_verdict(5, 3).witness["outcome"] == "inconclusive"
    assert unknotting_verdict(3, 5).witness["outcome"] == "impossible"
    _pass(5, "verdict trichotomy")


def test_criterion_6_random_property_suite():
    assert len(corpus()) >= 200
    flipped = [f for _, f in with_flip()]
    for c in flipped:
        for s in (-1, 0, 1):
            res = cone_homology_hat(c, s)
            h_a = build_A_hat(c, s).homology_dim()
            h_b = build_B_hat(c).homology_dim()
            assert res.total_dim == h_a + h_b - 2 * res.rank_v_plus_h, (c, s)
            tw = twisted_homology_laurent(c, s)
            assert tw.novikov_dim == tw.laurent_free_rank, (c, s)
            cone = build_twisted_cone(c, s)
            untwisted = build_v_hat(c, s).matrix.add(_hat_maps(c, s)[1].matrix)
            assert cone.map_matrix.at_one() == untwisted, (c, s)
        for s in range(0, c.a_max() + 1):
            for sp in range(s, c.a_max() + 1):
                assert build_v_hat(c, sp).matrix.mul(project_A(c, s, sp).matrix) \
                    == build_v_hat(c, s).matrix, (c, s, sp)
        for s in range(0, c.a_bound() + 1):
            assert cone_homology_hat(c, s).total_dim == \
                cone_homology_hat(c, -s).total_dim, (c, s)
        if sphere_necessary_conditions([c]).kind is VerdictKind.FIRES:
            assert alexander_polynomial(c).trivial_mod_2, c
    _pass(6, f"property suite over {len(corpus())} random complexes")


def test_criterion_7_oracle_equivalence():
    for c in ALL_FIXTURES:
        for s in range(-2, 3):
            res = cone_homology_hat(c, s)
            total, graded = oracle_cone_hat(c, s)
            assert res.total_dim == total, (c.spinc_label, s)
            if s == 0:
                assert res.graded_dims == graded, c.spinc_label
    _pass(7, "mapping-cone path equals direct-reduction oracle")


def test_criterion_8_flip_robustness():
    flips = enumerate_flips(TREFOIL)
    assert flips == [TREFOIL.flip]  # search terminates and reports uniqueness
    for alt in flips[1:]:  # vacuous here; the machinery is proven below
        _assert_dims_stable(TREFOIL, alt)

    # d w = x + y makes [x] = [y], so the x/y swap is a chain automorphism
    # inducing the identity on homology; both flips it relates must agree
    tripod = KnotComplex("0", (
        Generator("x", 0, Fraction(0)),
        Generator("y", 0, Fraction(0)),
        Generator("w", 0, Fraction(1)),
    ), (DiffTerm("w", "x", 0), DiffTerm("w", "y", 0)))
    candidates = enumerate_flips(tripod)
    assert len(candidates) == 2  # identity and the x/y swap
    base = replace(tripod, flip=candidates[0])
    for alt in candidates[1:]:
        _assert_dims_stable(base, alt)
    _pass(8, "flip search unique for trefoil; alternatives leave dims unchanged")


def _assert_dims_stable(c, alt_flip):
    other = replace(c, flip=alt_flip)
    for s in (-1, 0, 1):
        a, b = cone_homology_hat(c, s), cone_homology_hat(other, s)
        assert a.total_dim == b.total_dim, s
        assert a.graded_dims == b.graded_dims, s
        assert novikov_dim(c, s) == novikov_dim(other, s), s
    assert genus([c]) == genus([other])

"""Twisted coefficients: Novikov dimension and Laurent module structure."""

from dataclasses import replace

import pytest

from floercone.cone import FlipMissing, _hat_maps, build_v_hat, ensure_flip
from floercone.fixtures import ALL_FIXTURES, FIGURE8, TREFOIL, TREFOIL_L, UNKNOT, Y1SIGMA
from floercone.linalg import LaurentPoly, laurent_divides
from floercone.twisted import (
    build_twisted_cone,
    novikov_dim,
    twisted_homology_laurent,
)

from oracles import oracle_novikov_dim

NAMED = dict(zip(["UNKNOT", "TREFOIL", "TREFOIL_L", "Y1SIGMA", "FIGURE8"], ALL_FIXTURES))

ONE = LaurentPoly.one()
T = LaurentPoly.t()
ONE_PLUS_T = ONE + T


def test_trefoil_twisted_map_entries():
    cone = build_twisted_cone(TREFOIL, 0)
    # A_0 basis (a,-1), (b,0), (c,0); B basis (a,0), (b,0), (c,0)
    assert cone.map_matrix.to_dict() == {
        (2, 0): T,            # h: (a,-1) -> c
        (1, 1): ONE_PLUS_T,   # v + h both hit b
        (2, 2): ONE,          # v: (c,0) -> c
    }


def test_twisted_cone_differential_squares_to_zero():
    for c in ALL_FIXTURES:
        for s in (-1, 0, 1):
            cone = build_twisted_cone(ensure_flip(c), s)
            assert cone.cone_matrix.mul(cone.cone_matrix).is_zero()


def test_twisted_requires_flip():
    bare = replace(TREFOIL, flip=None)
    with pytest.raises(FlipMissing):
        build_twisted_cone(bare, 0)


def test_specialization_at_one_recovers_untwisted():
    for c in ALL_FIXTURES:
        flipped = ensure_flip(c)
        for s in (-1, 0, 1, 2):
            cone = build_twisted_cone(flipped, s)
            v = build_v_hat(flipped, s)
            h = _hat_maps(flipped, s)[1]
            assert cone.map_matrix.at_one() == v.matrix.add(h.matrix), (c.spinc_label, s)


NOVIKOV = {
    "UNKNOT": {0: 0, 1: 0, -1: 0, 2: 0, -2: 0, 3: 0, -3: 0},
    "TREFOIL": {0: 2, 1: 0, -1: 0, 2: 0, -2: 0},
    "TREFOIL_L": {0: 2, 1: 0, -1: 0, 2: 0, -2: 0},
    "Y1SIGMA": {0: 0, 1: 0, -1: 0, 2: 0, -2: 0},
    "FIGURE8": {0: 2, 1: 0, -1: 0, 2: 0, -2: 0},
}


def test_novikov_dims_fixture_table():
    for name, expect in NOVIKOV.items():
        c = NAMED[name]
        for s, want in expect.items():
            assert novikov_dim(c, s) == want, (name, s)


def test_novikov_matches_evaluation_oracle():
    for name, c in NAMED.items():
        flipped = ensure_flip(c)
        for s in range(-2, 3):
            assert novikov_dim(c, s) == oracle_novikov_dim(flipped, s), (name, s)


TORSION = {
    "UNKNOT": (ONE_PLUS_T,),
    "TREFOIL": (),
    "TREFOIL_L": (),
    "Y1SIGMA": (ONE_PLUS_T, ONE_PLUS_T, ONE_PLUS_T),
    "FIGURE8": (ONE_PLUS_T,),
}


def test_twisted_homology_structure_at_zero():
    for name, c in NAMED.items():
        res = twisted_homology_laurent(c, 0)
        assert res.novikov_dim == NOVIKOV[name][0], name
        assert res.laurent_free_rank == res.novikov_dim, name
        assert res.torsion_factors == TORSION[name], name


def test_twisted_free_rank_equals_novikov_everywhere():
    for c in ALL_FIXTURES:
        for s in range(-2, 3):
            res = twisted_homology_laurent(c, s)
            assert res.laurent_free_rank == res.novikov_dim == novikov_dim(c, s)


def test_torsion_factors_form_divisibility_chain():
    for c in ALL_FIXTURES:
        for s in (0, 1):
            res = twisted_homology_laurent(c, s)
            for p in res.torsion_factors:
                assert p.min_exp == 0 and p != ONE
            for p, q in zip(res.torsion_factors, res.torsion_factors[1:]):
                assert laurent_divides(p, q)


def test_torsion_vanishes_off_zero_for_fixtures():
    for c in ALL_FIXTURES:
        for s in (-2, -1, 1, 2):
            assert twisted_homology_laurent(c, s).torsion_factors == ()

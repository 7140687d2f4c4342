"""Hat and plus flavor mapping cones and their chain maps."""

from dataclasses import replace
from fractions import Fraction

import pytest

from floercone.cone import (
    _hat_maps,
    FlipMissing,
    NotAChainMap,
    build_v_hat,
    cone_homology_hat,
    cone_homology_plus_truncated,
    ensure_flip,
    induced_rank,
    induces_iso,
    make_chain_map,
    project_A,
)
from floercone.fixtures import ALL_FIXTURES, FIGURE8, TREFOIL, TREFOIL_L, UNKNOT, Y1SIGMA
from floercone.linalg import F2Matrix, rank_f2
from floercone.subquotient import build_A_hat, build_B_hat

from oracles import oracle_cone_hat

NAMED = dict(zip(["UNKNOT", "TREFOIL", "TREFOIL_L", "Y1SIGMA", "FIGURE8"], ALL_FIXTURES))


# ---------------------------------------------------------------------------
# the maps


def test_trefoil_v0_matrix():
    v = build_v_hat(TREFOIL, 0)
    # basis of A_0 is (a,-1), (b,0), (c,0); only i = 0 elements survive
    assert v.matrix.entries == frozenset({(1, 1), (2, 2)})
    assert v.maslov_shift == Fraction(0)


def test_trefoil_h0_matrix():
    h = _hat_maps(TREFOIL, 0)[1]
    # j = 0 elements are (a,-1) and (b,0); flip sends a to c, b to b
    assert h.matrix.entries == frozenset({(2, 0), (1, 1)})
    assert h.maslov_shift == Fraction(0)


def test_trefoil_v_plus_h_matrix_rank():
    v = build_v_hat(TREFOIL, 0)
    h = _hat_maps(TREFOIL, 0)[1]
    f = v.matrix.add(h.matrix)
    assert rank_f2(f) == 1          # matrix rank
    vh = make_chain_map(v.source, v.target, f)
    assert induced_rank(vh) == 0    # induced rank on homology


def test_h_requires_flip():
    bare = replace(TREFOIL, flip=None)
    with pytest.raises(FlipMissing):
        _hat_maps(bare, 0)[1]


def test_ensure_flip_derives():
    bare = replace(TREFOIL, flip=None)
    assert ensure_flip(bare).flip == TREFOIL.flip
    assert ensure_flip(TREFOIL) is TREFOIL


def test_make_chain_map_shape_error():
    a = build_A_hat(TREFOIL, 0)
    b = build_B_hat(TREFOIL)
    with pytest.raises(ValueError):
        make_chain_map(a, b, F2Matrix.zero(2, 3))


def test_make_chain_map_commutation_error():
    a = build_A_hat(TREFOIL, 0)
    b = build_B_hat(TREFOIL)
    # send (a,-1) to (b,0): d-commutation fails
    bad = F2Matrix.from_entries(b.dim, a.dim, [(1, 0)])
    with pytest.raises(NotAChainMap):
        make_chain_map(a, b, bad)


def test_zero_map_shift_zero_and_inhomogeneous_none():
    a = build_A_hat(TREFOIL, 0)
    b = build_B_hat(TREFOIL)
    zero = make_chain_map(a, b, F2Matrix.zero(b.dim, a.dim))
    assert zero.maslov_shift == Fraction(0)
    mixed = make_chain_map(a, a, F2Matrix.identity(a.dim).add(
        F2Matrix.zero(a.dim, a.dim)))
    assert mixed.maslov_shift == Fraction(0)  # identity is homogeneous


def test_mirror_v_h_are_rank_one_surjections():
    v = build_v_hat(TREFOIL_L, 0)
    h = _hat_maps(TREFOIL_L, 0)[1]
    assert induced_rank(v) == 1
    assert induced_rank(h) == 1
    assert v.target.homology_dim() == 1


def test_v_iso_at_and_beyond_genus():
    for c, g in [(UNKNOT, 0), (TREFOIL, 1), (TREFOIL_L, 1), (Y1SIGMA, 0), (FIGURE8, 1)]:
        for s in range(g, g + 3):
            assert induces_iso(build_v_hat(c, s)), (c.spinc_label, s)


def test_project_A_factoring():
    for c in ALL_FIXTURES:
        top = c.a_max()
        for s in range(0, top + 1):
            for sp in range(s, top + 1):
                proj = project_A(c, s, sp)
                v_s = build_v_hat(c, s)
                v_sp = build_v_hat(c, sp)
                assert v_sp.matrix.mul(proj.matrix) == v_s.matrix


def test_project_A_rejects_descending():
    with pytest.raises(ValueError):
        project_A(TREFOIL, 1, 0)


# ---------------------------------------------------------------------------
# hat cones


HAT_TOTALS = {
    "UNKNOT": {-2: 0, -1: 0, 0: 2, 1: 0, 2: 0},
    "TREFOIL": {-2: 0, -1: 0, 0: 2, 1: 0, 2: 0},
    "TREFOIL_L": {-2: 0, -1: 0, 0: 2, 1: 0, 2: 0},
    "Y1SIGMA": {-2: 0, -1: 0, 0: 6, 1: 0, 2: 0},
    "FIGURE8": {-2: 0, -1: 0, 0: 4, 1: 0, 2: 0},
}

HAT_GRADED_0 = {
    "UNKNOT": {Fraction(0): 1, Fraction(-1): 1},
    "TREFOIL": {Fraction(-1): 1, Fraction(-2): 1},
    "TREFOIL_L": {Fraction(1): 1, Fraction(0): 1},
    "Y1SIGMA": {Fraction(0): 2, Fraction(-1): 3, Fraction(-2): 1},
    "FIGURE8": {Fraction(0): 2, Fraction(-1): 2},
}


def test_hat_totals_fixture_table():
    for name, expect in HAT_TOTALS.items():
        c = NAMED[name]
        for s, want in expect.items():
            got = cone_homology_hat(c, s)
            assert got.total_dim == want, (name, s)
            assert got.flavor == "hat" and got.s == s and got.truncation is None


def test_hat_graded_at_zero():
    for name, want in HAT_GRADED_0.items():
        res = cone_homology_hat(NAMED[name], 0)
        assert res.graded_dims == want, name
        assert sum(want.values()) == res.total_dim


def test_hat_graded_none_off_zero():
    assert cone_homology_hat(TREFOIL, 1).graded_dims is None
    assert cone_homology_hat(TREFOIL, -2).graded_dims is None


def test_trefoil_rank_fields():
    res = cone_homology_hat(TREFOIL, 0)
    assert (res.rank_v, res.rank_h, res.rank_v_plus_h) == (0, 0, 0)
    res1 = cone_homology_hat(TREFOIL, 1)
    assert res1.rank_v_plus_h == 1


def test_mirror_cone_via_rank_nullity():
    res = cone_homology_hat(TREFOIL_L, 0)
    assert (res.rank_v, res.rank_h, res.rank_v_plus_h) == (1, 1, 1)
    assert res.total_dim == 3 + 1 - 2 * 1


def test_hat_matches_direct_reduction_oracle():
    for name, c in NAMED.items():
        flipped = ensure_flip(c)
        for s in range(-2, 3):
            want_total, want_graded = oracle_cone_hat(flipped, s)
            got = cone_homology_hat(c, s)
            assert got.total_dim == want_total, (name, s)
            if s == 0:
                assert got.graded_dims == want_graded, name


def test_hat_conjugation_symmetry():
    for c in ALL_FIXTURES:
        for s in range(0, 3):
            assert cone_homology_hat(c, s).total_dim == \
                cone_homology_hat(c, -s).total_dim


# ---------------------------------------------------------------------------
# plus cones


PLUS_SOCLE_0 = {
    "UNKNOT": {Fraction(0): 1, Fraction(-1): 1},
    "TREFOIL": {Fraction(-1): 1, Fraction(-2): 1},
    "TREFOIL_L": {Fraction(1): 1, Fraction(0): 1},
    "Y1SIGMA": {Fraction(0): 1, Fraction(-1): 2, Fraction(-2): 1},
    "FIGURE8": {Fraction(0): 1, Fraction(-1): 2},
}


def test_plus_socle_at_zero():
    for name, want in PLUS_SOCLE_0.items():
        res = cone_homology_plus_truncated(NAMED[name], 0)
        assert res.graded_dims == want, name
        assert res.flavor == "plus"
        assert res.truncation is not None


def test_plus_off_zero_vanishes():
    for c in ALL_FIXTURES:
        for s in (-2, -1, 1, 2):
            res = cone_homology_plus_truncated(c, s)
            assert res.total_dim == 0, (c.spinc_label, s)
            assert res.graded_dims is None


def test_unknot_plus_total_grows_with_towers():
    for n in (2, 5, 9):
        res = cone_homology_plus_truncated(UNKNOT, 0, n)
        assert res.total_dim == 2 * (n + 1)
        assert res.truncation == n


def test_plus_socle_stable_two_heights_later():
    for name, c in NAMED.items():
        auto = cone_homology_plus_truncated(c, 0)
        later = cone_homology_plus_truncated(c, 0, auto.truncation + 2)
        assert later.graded_dims == auto.graded_dims, name


def test_plus_explicit_truncation_validates():
    with pytest.raises(ValueError):
        cone_homology_plus_truncated(TREFOIL, 0, -1)


def test_plus_conjugation_symmetry_totals():
    for c in ALL_FIXTURES:
        for s in (1, 2):
            a = cone_homology_plus_truncated(c, s, 6)
            b = cone_homology_plus_truncated(c, -s, 6)
            assert a.total_dim == b.total_dim

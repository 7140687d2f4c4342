"""Twisted coefficients: Novikov dimension and Laurent module structure."""

from dataclasses import replace

import pytest

import floercone.detect as detect_module
from floercone.cone import FlipMissing, _a_modulo_u, _pencil_maps, ensure_flip
from floercone.detect import sphere_necessary_conditions
from floercone.fixtures import ALL_FIXTURES, FIGURE8, TREFOIL, TREFOIL_L, UNKNOT, Y1SIGMA
from floercone.linalg import F2Matrix, LaurentPoly, _combine, laurent_divides
from floercone.twisted import TwistedConeResult, _pencil_homology, novikov_dim, twisted_homology_laurent

from corpus import (
    BIG_SUMS,
    TWISTED_SUMS,
    connected_sum,
    mirror,
    run_on_broken_trefoils_under_python_O,
    staircase,
    tensor,
    with_flip,
)
from oracles import (
    build_v_hat,
    cancelled_maps_modulo_u,
    hat_homology_dim,
    hat_maps,
    oracle_novikov_dim,
    oracle_twisted_cone,
    oracle_twisted_homology,
    rank_f2_modulo,
    retract_twisted_cone,
)


NAMED = dict(zip(["UNKNOT", "TREFOIL", "TREFOIL_L", "Y1SIGMA", "FIGURE8"], ALL_FIXTURES))

ONE = LaurentPoly.one()
T = LaurentPoly.monomial(1)
ONE_PLUS_T = LaurentPoly.from_exponents([0, 1])


def test_trefoil_twisted_map_entries():
    cone = oracle_twisted_cone(TREFOIL, 0)
    # A_0 basis (a,-1), (b,0), (c,0); B basis (a,0), (b,0), (c,0)
    assert {(r, c): p for r, c, p in cone.map_matrix.entries} == {
        (2, 0): T,            # h: (a,-1) -> c
        (1, 1): ONE_PLUS_T,   # v + h both hit b
        (2, 2): ONE,          # v: (c,0) -> c
    }


def test_twisted_cone_differential_squares_to_zero():
    for c in ALL_FIXTURES:
        for s in (-1, 0, 1):
            for build in (oracle_twisted_cone, retract_twisted_cone):
                cone = build(ensure_flip(c), s)
                assert not (cone.cone_matrix @ cone.cone_matrix).entries, (c, s, build)


def test_twisted_requires_flip():
    """The pencil is read off `_pencil_maps`, which needs h, so a flipless
    complex is refused there rather than read as h = 0."""
    bare = replace(TREFOIL, flip=None)
    with pytest.raises(FlipMissing):
        _pencil_maps(bare, _a_modulo_u(bare, 0))


def test_specialization_at_one_recovers_untwisted():
    for c in ALL_FIXTURES:
        flipped = ensure_flip(c)
        for s in (-1, 0, 1, 2):
            cone = oracle_twisted_cone(flipped, s)
            v = build_v_hat(flipped, s)
            h = hat_maps(flipped, s)[1]
            assert cone.map_matrix.at_one() == v.matrix + h.matrix, (c.spinc_label, s)


def test_the_map_is_v_plus_T_h_on_cycles_lifting_a_homology_basis():
    for c in ALL_FIXTURES + (staircase(3),):
        flipped = ensure_flip(c)
        for s in range(-c.a_bound() - 1, c.a_bound() + 2):
            cone = retract_twisted_cone(flipped, s)
            v, h = hat_maps(flipped, s)
            a, cycles = cone.a, cone.cycles
            assert not any(_combine(a.differential.column_masks(), z) for z in cycles), (c, s)
            assert len(cycles) == hat_homology_dim(a) == rank_f2_modulo(
                cycles, a.differential.column_masks()), (c, s)
            lift = F2Matrix._from_masks(a.dim, len(cycles), cycles)
            assert cone.map_matrix.at_one() == (v.matrix + h.matrix).mul(lift), (c, s)


def twisted_sum_inputs():
    return [pytest.param(connected_sum(name), id=name) for name in TWISTED_SUMS + BIG_SUMS]


def assert_matches_the_cone_on_all_of_A_s(c):
    for s in range(-c.a_bound() - 1, c.a_bound() + 2):
        got = twisted_homology_laurent(c, s)
        assert (got.novikov_dim, got.laurent_free_rank, got.torsion_factors) == \
            oracle_twisted_homology(c, s), (c, s)


def test_cone_on_homology_matches_the_cone_on_all_of_A_s_on_the_corpus():
    for c in [f for _, f in with_flip()] + [ensure_flip(c) for c in ALL_FIXTURES]:
        assert_matches_the_cone_on_all_of_A_s(c)


@pytest.mark.parametrize("c", twisted_sum_inputs())
def test_cone_on_homology_matches_the_cone_on_all_of_A_s_on_sums(c):
    assert_matches_the_cone_on_all_of_A_s(c)


def assert_the_pencil_matches_the_cone_on_all_of_A_s_at_zero(c):
    got = twisted_homology_laurent(c, 0)
    assert (got.novikov_dim, got.laurent_free_rank, got.torsion_factors) == \
        oracle_twisted_homology(c, 0), c


@pytest.mark.parametrize("seed", range(1, 9))
def test_the_pencil_matches_the_cone_on_all_of_A_s_at_zero_on_the_corpus(seed):
    for _, c in with_flip(seed):
        assert_the_pencil_matches_the_cone_on_all_of_A_s_at_zero(c)


@pytest.mark.slow
def test_the_pencil_matches_the_cone_on_all_of_A_s_at_zero_on_a_1331_generator_sum():
    k = staircase(5)
    c = ensure_flip(tensor(tensor(k, k), k))
    assert len(c.generators) == 1331
    assert_the_pencil_matches_the_cone_on_all_of_A_s_at_zero(c)


def assert_the_pencil_equals_the_cancellation_pencil(monkeypatch, c):
    """The pencil at s = 0 on the homology bases of one clearing pass per
    model against the pencil on the reduced models modulo U left by
    cancelling every unit arrow: free rank, torsion factors and the
    prop0check verdict, whose clause (b) reads the pencil."""
    got = twisted_homology_laurent(c, 0), sphere_necessary_conditions([c])
    with monkeypatch.context() as m:
        m.setattr(detect_module, "_pencil_maps", lambda c, a: cancelled_maps_modulo_u(c, 0))
        want = _pencil_homology(*cancelled_maps_modulo_u(c, 0)), sphere_necessary_conditions([c])
    assert got == want, c


@pytest.mark.parametrize("seed", range(1, 9))
def test_the_pencil_equals_the_cancellation_pencil_on_the_corpus_and_its_mirrors(monkeypatch, seed):
    for _, c in with_flip(seed):
        for k in (c, mirror(c)):
            assert_the_pencil_equals_the_cancellation_pencil(monkeypatch, k)


@pytest.mark.parametrize("name", TWISTED_SUMS + BIG_SUMS)
def test_the_pencil_equals_the_cancellation_pencil_on_the_sums_and_their_mirrors(monkeypatch, name):
    c = ensure_flip(connected_sum(name))
    for k in (c, mirror(c)):
        assert_the_pencil_equals_the_cancellation_pencil(monkeypatch, k)


def assert_off_zero_the_twisted_group_is_the_hat_cone(c):
    """For s != 0, T of degree 2s makes L a graded field, so the cone on all
    of A_s has no torsion and its free rank is what the library returns."""
    for s in range(-c.a_bound() - 1, c.a_bound() + 2):
        if s:
            want = TwistedConeResult(oracle_twisted_homology(c, s).laurent_free_rank, ())
            assert twisted_homology_laurent(c, s) == want, (c, s)


@pytest.mark.parametrize("seed", range(1, 9))
def test_off_zero_the_twisted_group_is_the_hat_cone_on_the_corpus(seed):
    for _, c in with_flip(seed):
        assert_off_zero_the_twisted_group_is_the_hat_cone(c)


@pytest.mark.parametrize("c", twisted_sum_inputs())
def test_off_zero_the_twisted_group_is_the_hat_cone_on_sums(c):
    assert_off_zero_the_twisted_group_is_the_hat_cone(ensure_flip(c))


@pytest.mark.slow
def test_off_zero_the_twisted_group_is_the_hat_cone_on_a_1331_generator_sum():
    k = staircase(5)
    c = ensure_flip(tensor(tensor(k, k), k))
    assert len(c.generators) == 1331
    assert_off_zero_the_twisted_group_is_the_hat_cone(c)


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


def test_twisted_checks_survive_python_O(tmp_path):
    """An input whose v or h would not be a chain map is refused before the
    twisted cone is built, on both paths that build it, and by the CLI."""
    code = (
        "import contextlib, io, sys\n"
        "from floercone.cli import main\n"
        "from floercone.detect import sphere_necessary_conditions\n"
        "from floercone.model import ValidationError\n"
        "from floercone.twisted import twisted_homology_laurent\n"
        "from corpus import broken_trefoils\n"
        "assert False, 'asserts are on'\n"
        "for c, _ in broken_trefoils():\n"
        "    for run in (lambda: twisted_homology_laurent(c, 0),\n"
        "                lambda: sphere_necessary_conditions([c])):\n"
        "        try:\n"
        "            run()\n"
        "        except ValidationError:\n"
        "            print('raised')\n"
        "for path in sys.argv[1:]:\n"
        "    for command in (['cone', path, '--twisted', '--s', '0'], ['detect-sphere', path]):\n"
        "        with contextlib.redirect_stderr(io.StringIO()):\n"
        "            print(main(command))\n"
    )
    out = run_on_broken_trefoils_under_python_O(code, tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised"] * 4 + ["2"] * 4

"""The plus flavor from one F2[U] Smith reduction per map: cross-checked
against the truncated GF(2) complexes of `oracles`, auto mode at its proven
precision against the truncate-and-stabilize oracle, its checks under
mutation (also under `python -O`), the negative-height guards, and the
cached KnotComplex hash."""

import os
import pickle
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import floercone
import floercone.cone as cone_module
from floercone.cli import main
import floercone.subquotient as subquotient
from floercone.cone import _induced_rank, _plus_reductions, cone_homology_plus_truncated
from floercone.fixtures import ALL_FIXTURES, FIGURE8, TREFOIL, Y1SIGMA
from floercone.linalg import (
    CompositionNonzero,
    InvariantViolated,
    NotAChainMap,
    _minor_degree_bound,
    smith_pivots_u,
)
from floercone.model import KnotComplex
from floercone.subquotient import (
    FreeReduction,
    FreeUComplex,
    free_chain_map,
    free_plus_complex,
    hf_red_graded,
    reduce_free,
)

from corpus import lspace_staircase, mirror, staircase, tensor, torus_exponents, with_flip
from oracles import (
    GradedUModule,
    build_plus_truncated,
    default_truncation,
    minor_gcd_spans,
    oracle_cone_plus,
    oracle_reduced_part,
    oracle_smith_pivots_u,
    reduced_part_at,
    stabilized_cone_plus,
    stabilized_hf_red_graded,
)

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
TREFOIL_F = str(Path(floercone.__file__).parent / "data" / "trefoil.cfk")


def assert_matches_oracle(c, s, n):
    res = cone_homology_plus_truncated(c, s, n)
    want = oracle_cone_plus(c, s, n)
    got = {k: getattr(res, k) for k in ("total_dim", "rank_v", "rank_h", "rank_v_plus_h")}
    got["graded_dims"] = res.graded_dims
    assert (got, res.truncation) == (want, n), (c.spinc_label, c.generators, s, n)


# ---------------------------------------------------------------------------
# production against the truncated oracle


def test_plus_cone_and_reduced_part_match_the_truncated_oracle():
    complexes = [c for c in ALL_FIXTURES] + [flipped for _, flipped in with_flip()]
    for c in complexes:
        for n in (0, 1, 2, 5):
            for s in range(-2, 3):
                assert_matches_oracle(c, s, n)
            assert reduced_part_at(c, n) == oracle_reduced_part(c, n)


def test_jordan_blocks_of_B_match_the_oracle_module():
    complexes = list(ALL_FIXTURES) + [c for c, _ in with_flip()[:40]]
    for c in complexes:
        b = free_plus_complex(c)
        reduction = reduce_free(b.gradings, b.columns, 7)
        for n in range(6):
            sub, u = build_plus_truncated(c, "B", n)
            want = GradedUModule(sub.maslov, sub.differential, u.matrix)
            got = reduction.module(n)
            assert dict(got._blocks) == want.block_multiplicities()
            assert (got.gradings(), got.dims()) == (want.gradings(), want.dims())
            assert got.socle_dims(Fraction(n)) == want.socle_dims(Fraction(n))
            assert reduction.homology_dim(n) == sub.homology_dim()


def test_t2_15_at_its_default_height_and_one_above():
    c = staircase(7)
    n = default_truncation(c)
    for k in (n, n + 1):
        for s in (0, 1):
            assert_matches_oracle(c, s, k)
        assert reduced_part_at(c, k) == oracle_reduced_part(c, k) == {}


def test_t2_41_completes_and_matches_the_oracle_at_height_2():
    c = staircase(20)
    zero = cone_homology_plus_truncated(c, 0)
    one = cone_homology_plus_truncated(c, 1)
    assert zero == cone_homology_plus_truncated(c, 0, zero.truncation)
    assert (zero.total_dim, zero.rank_v, zero.rank_h, zero.rank_v_plus_h) == (2, 0, 0, 0)
    assert zero.graded_dims == {Fraction(-20): 1, Fraction(-1): 1}
    # one block U^10 per pivot pair: 2 V_1 = 20, whole from height 9 on
    assert (one.total_dim, one.rank_v, one.rank_h, one.rank_v_plus_h) == (20, 0, 0, 0)
    assert (zero.truncation, one.truncation) == (0, 9)
    # the stabilized values of the truncated GF(2) construction
    old_zero, old_one = stabilized_cone_plus(c, 0), stabilized_cone_plus(c, 1)
    assert (old_zero.total_dim, old_zero.rank_v, old_zero.rank_h, old_zero.rank_v_plus_h,
            old_zero.graded_dims) == (246, 113, 113, 0, zero.graded_dims)
    assert (old_one.total_dim, old_one.rank_v, old_one.rank_h, old_one.rank_v_plus_h) == (
        20, 113, 112, 113)
    assert old_zero.truncation == old_one.truncation == 122
    assert hf_red_graded(c) == {}
    for s in (0, 1):
        assert_matches_oracle(c, s, 2)
    assert reduced_part_at(c, 2) == oracle_reduced_part(c, 2)


# ---------------------------------------------------------------------------
# auto mode at its proven precision


def auto_cases():
    """The flip-bearing corpus, long-step staircases and their mirrors, and
    four sums, with the figure-eight, Y1SIGMA and a mirror."""
    stairs = [lspace_staircase(torus_exponents(p, q))
              for p, q in ((3, 4), (3, 5), (4, 5), (5, 6), (3, 7))]
    sums = [tensor(stairs[0], stairs[0]), tensor(FIGURE8, stairs[0]),
            tensor(mirror(stairs[0]), Y1SIGMA), tensor(tensor(TREFOIL, FIGURE8), TREFOIL)]
    return [flipped for _, flipped in with_flip()] + stairs + [mirror(c) for c in stairs] + sums


def test_auto_mode_matches_the_stabilized_oracle():
    """graded_dims at s = 0, total_dim at s != 0 and red, for |s| <= a_bound + 2;
    the reported height gives the same numbers on the explicit path."""
    fields = ("total_dim", "rank_v", "rank_h", "rank_v_plus_h")
    for c in auto_cases():
        assert hf_red_graded(c) == stabilized_hf_red_graded(c), c
        for s in range(-c.a_bound() - 2, c.a_bound() + 3):
            new, old = cone_homology_plus_truncated(c, s), stabilized_cone_plus(c, s)
            field = "graded_dims" if s == 0 else "total_dim"
            assert getattr(new, field) == getattr(old, field), (c, s)
            explicit = cone_homology_plus_truncated(c, s, new.truncation)
            assert [getattr(new, f) for f in fields] == [getattr(explicit, f) for f in fields]


def test_auto_precision_is_above_every_pivot_of_the_cone():
    """Past P, exact maps and a higher precision change no valuation."""
    for c in auto_cases()[::3]:
        for s in range(-c.a_bound() - 2, c.a_bound() + 3):
            auto = _plus_reductions(c, s)[4]
            high = _plus_reductions(c, s, auto.precision + 2 * c.a_bound() + 5)[4]
            assert all(v < auto.precision for *_, v in auto.pairs)
            assert sorted(v for *_, v in auto.pairs) == sorted(v for *_, v in high.pairs), (c, s)
            assert auto.towers == high.towers


def test_a_first_try_below_a_pivot_falls_back_to_the_minor_degree_bound(monkeypatch):
    """T(5,6) has V_1 = 3, so its cone at s = 1 has a pivot U^3: a first try
    at precision 1 + |s| finds too few pivots, and the proven bound takes over."""
    c = lspace_staircase(torus_exponents(5, 6))
    want = [cone_homology_plus_truncated(c, s) for s in (1, -2)]
    bounds = []
    monkeypatch.setattr(cone_module, "_graded_precision", lambda gradings: 1)
    monkeypatch.setattr(cone_module, "_minor_degree_bound",
                        lambda *args: bounds.append(_minor_degree_bound(*args)) or bounds[-1])
    assert [cone_homology_plus_truncated(c, s) for s in (1, -2)] == want
    assert len(bounds) == 2 and want[0].total_dim == 6


def test_an_ungraded_reduction_records_no_towers():
    """Away from s = 0 the cone of v + h is ungraded: its unpaired gradings
    are no towers, and it has no graded module."""
    rvh = _plus_reductions(TREFOIL, -1, 20)[4]
    assert (rvh.size, len(rvh.pairs), rvh.towers) == (6, 3, ())
    with pytest.raises(ValueError):
        rvh.module(0)


def test_a_tower_away_from_s_0_is_an_invariant_violation(monkeypatch):
    real = cone_module._plus_reductions

    def one_more_generator(c, s, precision=None):
        *rest, rvh = real(c, s, precision)
        return (*rest, replace(rvh, size=rvh.size + 1))

    monkeypatch.setattr(cone_module, "_plus_reductions", one_more_generator)
    with pytest.raises(InvariantViolated):
        cone_homology_plus_truncated(TREFOIL, 1)
    assert main(["cone", TREFOIL_F, "--flavor", "plus", "--s", "1"]) == 2


# ---------------------------------------------------------------------------
# the Smith kernel over F2[U] / U^P


def test_smith_pivots_on_small_matrices():
    assert smith_pivots_u([{0: 0b100}], 5) == [(0, 0, 2)]
    assert smith_pivots_u([{0: 0b100}], 2) == []          # U^2 = 0 modulo U^2
    assert smith_pivots_u([{0: 0b11}], 3) == [(0, 0, 0)]  # 1 + U is a unit
    assert smith_pivots_u([{}, {}], 4) == []


def test_smith_valuations_match_the_minors():
    """Over the local ring the first k invariant factors multiply to the
    least valuation among the k x k minors; the minor-degree bound is a
    precision that keeps them all."""
    rng = random.Random(4)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        entries = {}
        for r in range(rows):
            for c in range(cols):
                if rng.random() < 0.6:
                    mask = rng.getrandbits(4) << rng.randint(0, 2)
                    if mask:
                        entries[(r, c)] = mask
        columns = [{r: e for (r, c), e in entries.items() if c == col} for col in range(cols)]
        vals = sorted(v for *_, v in smith_pivots_u(columns, 40))
        bound = _minor_degree_bound(columns, min(rows, cols))
        assert sorted(v for *_, v in smith_pivots_u(columns, bound)) == vals
        exps = {rc: {k: 1 for k in range(mask.bit_length()) if mask >> k & 1}
                for rc, mask in entries.items()}
        for k in range(1, min(rows, cols) + 1):
            minors = minor_gcd_spans(exps, rows, cols, k)
            if k > len(vals):
                assert not minors
            else:
                assert sum(vals[:k]) == min(min(m) for m in minors)


def test_heap_kernel_matches_the_scan_on_random_matrices():
    """Pivot lists agree entry for entry, with non-unit pivots, units other
    than 1 and entries cut off by the precision."""
    rng = random.Random(11)
    for _ in range(300):
        rows, cols, precision = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 6)
        columns = [{r: mask for r in range(rows)
                    if rng.random() < 0.5 and (mask := rng.getrandbits(5) << rng.randint(0, 3))}
                   for _ in range(cols)]
        assert smith_pivots_u(columns, precision) == oracle_smith_pivots_u(columns, precision)


def test_heap_kernel_matches_the_scan_on_the_plus_reductions(monkeypatch):
    """A_s, B and the cones of v, h and v + h (graded at s = 0, ungraded
    elsewhere) of the flip-bearing corpus and sums of up to 75 generators."""
    seen = []

    def both(columns, precision):
        got = smith_pivots_u(columns, precision)
        assert got == oracle_smith_pivots_u(columns, precision)
        seen.append(len(columns))
        return got

    monkeypatch.setattr(subquotient, "smith_pivots_u", both)
    sums = [tensor(tensor(TREFOIL, FIGURE8), TREFOIL), tensor(staircase(2), staircase(7)),
            tensor(FIGURE8, staircase(7))]
    for c in [flipped for _, flipped in with_flip()] + sums:
        for s in range(-2, 3):
            _plus_reductions(c, s)
    assert max(seen) == 150


# ---------------------------------------------------------------------------
# checks of the free model, under mutation


def trefoil_maps():
    a, b = free_plus_complex(TREFOIL, 0), free_plus_complex(TREFOIL)
    # on tops: y_a -> x_c, y_b -> x_b, y_c -> U x_a (a, b, c in name order)
    return a, b, [(0, 2, 0), (1, 1, 0), (2, 0, 1)]


def test_trefoil_h_is_a_chain_map_and_a_broken_one_raises():
    a, b, h = trefoil_maps()
    assert free_chain_map(a, b, h, 0, 4) == ({2: 1}, {1: 1}, {0: 2})
    with pytest.raises(NotAChainMap):
        free_chain_map(a, b, h[:1] + h[2:], 0, 4)  # drop y_b -> x_b


def test_wrong_grading_or_negative_power_raises():
    a, b, h = trefoil_maps()
    with pytest.raises(InvariantViolated):
        free_chain_map(a, b, [(0, 2, 1)] + h[1:], 0, 4)  # U^1 where the gradings ask U^0
    with pytest.raises(InvariantViolated):
        free_chain_map(a, b, h, 2, 4)  # a degree the terms do not have
    with pytest.raises(InvariantViolated):
        free_chain_map(b, b, [(0, 0, -1)], 2, 4)  # consistent gradings, negative power


def test_d_squared_nonzero_raises():
    with pytest.raises(CompositionNonzero):
        FreeUComplex((0, 0, 0), (2, 1, 0), ({}, {0: 1}, {1: 1}))


def test_graded_pivot_off_its_grading_raises():
    columns = ({}, {0: 1})
    assert reduce_free((0, 1), columns, 3).pairs == ((0, 1, 0),)
    with pytest.raises(InvariantViolated):
        reduce_free((0, 0), columns, 3)
    assert reduce_free((0, 0), columns, 3, graded=False).pairs == ((0, 0, 0),)


def test_rank_from_cone_dimensions_is_checked():
    point = FreeReduction(1, 5, (), (0,))       # F2[U]/U^(n+1): dim n + 1
    empty = FreeReduction(0, 5, (), ())
    assert _induced_rank(point, point, FreeReduction(2, 5, ((0, 1, 0),), ()), 3) == 4
    with pytest.raises(InvariantViolated):
        _induced_rank(point, point, point, 0)   # 1 + 1 - 1 is odd
    with pytest.raises(InvariantViolated):
        _induced_rank(point, empty, empty, 1)   # rank (2 + 0 - 0) / 2 > min(2, 0)
    with pytest.raises(ValueError):
        point.homology_dim(5)                   # above the reduction's precision


def test_free_model_checks_survive_python_O():
    code = (
        "from floercone.linalg import CompositionNonzero\n"
        "from floercone.subquotient import FreeUComplex\n"
        "assert False, 'asserts are on'\n"
        "try:\n"
        "    FreeUComplex((0, 0, 0), (2, 1, 0), ({}, {0: 1}, {1: 1}))\n"
        "except CompositionNonzero:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


# ---------------------------------------------------------------------------
# heights: red takes none


def test_red_takes_no_truncation(capsys):
    """red reads every pivot at a proven precision: there is no height to seed."""
    with pytest.raises(SystemExit) as exc:
        main(["red", TREFOIL_F, "--truncation", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --truncation 0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# KnotComplex keeps its hash


def test_complex_hash_is_cached_and_order_insensitive():
    c = staircase(2)
    shuffled = KnotComplex(c.spinc_label, c.generators[::-1], c.differential[::-1], c.flip)
    assert shuffled == c and shuffled is not c
    assert hash(shuffled) == hash(c)
    assert vars(c)["_hash"] == hash(c)
    assert hash((c.spinc_label, c.generators, c.differential, c.flip)) == hash(c)
    assert c != KnotComplex("1", c.generators, c.differential, c.flip)


def test_pickled_complex_leaves_its_hash_behind():
    c = staircase(2)
    before = pickle.dumps(c)
    hash(c)
    assert pickle.dumps(c) == before
    back = pickle.loads(before)
    assert back == c and "_hash" not in vars(back)
    assert hash(back) == hash(c)

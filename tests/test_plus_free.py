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
from floercone.cone import (
    _free_cone,
    _induced_rank,
    _plus_reductions,
    _rank_nullity,
    cone_homology_plus_truncated,
)
from floercone.fixtures import ALL_FIXTURES, FIGURE8, TREFOIL, TREFOIL_L, Y1SIGMA
from floercone.linalg import (
    CompositionNonzero,
    InvariantViolated,
    _minor_degree_bound,
    smith_pivots_u,
)
from floercone.model import KnotComplex, ValidationError
from floercone.subquotient import (
    FreeReduction,
    FreeUComplex,
    _reduce_ungraded,
    free_plus_complex,
    hf_red_graded,
    reduce_free,
)

import oracles
from corpus import (
    BIG_SUMS,
    TWISTED_SUMS,
    broken_trefoils,
    connected_sum,
    lspace_staircase,
    mirror,
    staircase,
    tensor,
    torus_exponents,
    with_flip,
)
from oracles import (
    GradedUModule,
    build_plus_truncated,
    checked_free_model,
    default_truncation,
    filtered_hat_dim,
    hat_homology_dim,
    maslov_offset,
    minor_gcd_spans,
    oracle_cone_plus,
    oracle_plus_reductions,
    oracle_reduced_part,
    oracle_smith_pivots_u,
    power_columns,
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
        b, offset = free_plus_complex(c), maslov_offset(c)
        reduction = reduce_free(tuple(offset + g for g in b.gradings), b.columns)
        for n in range(6):
            sub, u = build_plus_truncated(c, "B", n)
            want = GradedUModule(sub.maslov, sub.differential, u.matrix)
            got = reduction.module(n)
            assert dict(got._blocks) == want.block_multiplicities()
            assert (list(got.dims()), got.dims()) == (want.gradings(), want.dims())
            assert got.socle_dims(Fraction(n)) == want.socle_dims(Fraction(n))
            assert reduction.homology_dim(n) == hat_homology_dim(sub)


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
    """Off s = 0, a higher precision than auto mode's changes no valuation of
    the cone of v + h; at s = 0 that cone is reduced exactly, with no
    precision, and reading it at a height changes nothing either."""
    for c in auto_cases()[::3]:
        for s in range(-c.a_bound() - 2, c.a_bound() + 3):
            auto = _plus_reductions(c, s)[4]
            assert (auto.precision is None) == (s == 0)
            high = _plus_reductions(c, s, (auto.precision or 1) + 2 * c.a_bound() + 5)[4]
            assert all(v < (auto.precision or v + 1) for *_, v in auto.pairs)
            assert sorted(v for *_, v in auto.pairs) == sorted(v for *_, v in high.pairs), (c, s)
            assert auto.towers == high.towers


def test_auto_mode_reduces_the_cone_once_at_the_minor_degree_bound(monkeypatch):
    """T(5,6) has V_1 = 3, so its cone at s = 1 has a pivot U^3: auto mode
    reduces that cone once, at its minor-degree bound, which lies above it."""
    c = lspace_staircase(torus_exponents(5, 6))
    calls, real = [], cone_module._reduce_ungraded
    monkeypatch.setattr(cone_module, "_reduce_ungraded",
                        lambda *args: calls.append(args) or real(*args))
    assert cone_homology_plus_truncated(c, 1).total_dim == 6
    ((gradings, columns, precision),) = calls
    assert precision == _minor_degree_bound(columns, len(columns) // 2)
    assert max(v for *_, v in real(gradings, columns, precision).pairs) == 3 < precision


def test_an_ungraded_reduction_records_no_towers():
    """Away from s = 0 the cone of v + h is ungraded: its unpaired gradings
    are no towers, and it has no graded module.  The full cone has 6
    generators, the cone on the reduced models 2."""
    full = oracle_plus_reductions(TREFOIL, -1, 20)[4]
    reduced = _plus_reductions(TREFOIL, -1, 20)[4]
    assert (full.size, len(full.pairs), full.towers) == (6, 3, ())
    assert (reduced.size, len(reduced.pairs), reduced.towers) == (2, 1, ())
    for rvh in (full, reduced):
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
    elsewhere) of the flip-bearing corpus and sums of up to 75 generators,
    both the full ones of the oracle, of up to 150 columns, and the reduced
    ones of the library, of up to 12."""
    seen = []

    def both(columns, precision):
        got = smith_pivots_u(columns, precision)
        assert got == oracle_smith_pivots_u(columns, precision)
        seen.append(len(columns))
        return got

    for module in (subquotient, oracles):
        monkeypatch.setattr(module, "smith_pivots_u", both)
    sums = [tensor(tensor(TREFOIL, FIGURE8), TREFOIL), tensor(staircase(2), staircase(7)),
            tensor(FIGURE8, staircase(7))]
    largest = []
    for reductions in (oracle_plus_reductions, _plus_reductions):
        seen.clear()
        for c in [flipped for _, flipped in with_flip()] + sums:
            for s in range(-2, 3):
                reductions(c, s)
        largest.append(max(seen))
    assert largest == [150, 12]


# ---------------------------------------------------------------------------
# checks of the free model, under mutation


def trefoil_maps():
    a, b = free_plus_complex(TREFOIL, 0), free_plus_complex(TREFOIL)
    # on tops: y_a -> x_c, y_b -> x_b, y_c -> U x_a (a, b, c in name order)
    return a, b, [(0, 2, 0), (1, 1, 0), (2, 0, 1)]


def test_trefoil_h_is_a_chain_map_and_a_broken_one_raises(tmp_path):
    """h is the flip's masks, a chain map by validate's flip-chain-map check;
    an input that drops the flip term y_b -> x_b is refused before h is built,
    by the library and by the CLI."""
    assert cone_module._h_map(TREFOIL) == (0b100, 0b010, 0b001)  # U x_a read off the gradings
    assert checked_free_model(TREFOIL, 0)[5] == cone_module._h_map(TREFOIL)
    dropped, text = broken_trefoils()[1]
    with pytest.raises(ValidationError):
        cone_homology_plus_truncated(dropped, 0)
    path = tmp_path / "broken.cfk"
    path.write_text(text)
    assert main(["cone", str(path), "--flavor", "plus", "--s", "0"]) == 2


def test_wrong_grading_or_negative_power_raises():
    a, b, h = trefoil_maps()
    with pytest.raises(InvariantViolated):
        power_columns(3, [(0, 2, 1)] + h[1:], a.gradings, b.gradings, 0)  # U^1 where U^0 is due
    with pytest.raises(InvariantViolated):
        power_columns(3, h, a.gradings, b.gradings, 2)  # a degree the terms do not have
    with pytest.raises(InvariantViolated):
        power_columns(3, [(0, 0, -1)], b.gradings, b.gradings, 2)  # right gradings, negative power


def assert_checks_that_validate_implies_hold(c):
    for s in range(-c.a_bound() - 1, c.a_bound() + 2):
        a, b = free_plus_complex(c, s), free_plus_complex(c)
        built = (a.gradings, b.gradings, a.columns, b.columns,
                 oracles._v_map(a), cone_module._h_map(c))
        assert checked_free_model(c, s) == built, (c, s)


def test_checks_that_validate_implies_hold_on_the_fixtures():
    for c in ALL_FIXTURES:
        assert_checks_that_validate_implies_hold(c)


@pytest.mark.parametrize("seed", range(1, 9))
def test_checks_that_validate_implies_hold_on_the_corpus(seed):
    for _, c in with_flip(seed):
        assert_checks_that_validate_implies_hold(c)


@pytest.mark.parametrize("name", TWISTED_SUMS + BIG_SUMS)
def test_checks_that_validate_implies_hold_on_the_sums(name):
    assert_checks_that_validate_implies_hold(connected_sum(name))


def test_d_squared_nonzero_raises():
    with pytest.raises(CompositionNonzero):
        FreeUComplex((0, 0, 0), (2, 1, 0), (0, 0b1, 0b10))


def test_graded_pivot_off_its_grading_raises():
    columns = (0, 0b1)
    assert reduce_free((0, 1), columns).pairs == ((0, 1, 0),)
    assert reduce_free((2, 1), columns).pairs == ((2, 1, 1),)  # U^1, read off the gradings
    with pytest.raises(InvariantViolated):
        reduce_free((0, 0), columns)
    assert _reduce_ungraded((0, 0), ({}, {0: 1}), 3).pairs == ((0, 0, 0),)


def test_rank_from_cone_dimensions_is_checked():
    point = FreeReduction(1, (), (0,), 5)       # F2[U]/U^(n+1): dim n + 1
    empty = FreeReduction(0, (), (), 5)
    assert _induced_rank(point, point, FreeReduction(2, ((0, 1, 0),), (), 5), 3) == 4
    with pytest.raises(InvariantViolated):
        _induced_rank(point, point, point, 0)   # 1 + 1 - 1 is odd
    with pytest.raises(InvariantViolated):
        _induced_rank(point, empty, empty, 1)   # rank (2 + 0 - 0) / 2 > min(2, 0)
    with pytest.raises(ValueError):
        point.homology_dim(5)                   # above the reduction's precision
    # a rank read off dimensions modulo U passes the same check
    a, b = free_plus_complex(TREFOIL_L, 0), free_plus_complex(TREFOIL_L)
    dims = [filtered_hat_dim(*free) for free in ((a.gradings, a.columns), (b.gradings, b.columns),
                                                 _free_cone(a, b, oracles._v_map(a)))]
    assert dims[:2] == [3, 1]                   # H(A_0) = 3, H(B) = 1, v_* onto H(B)
    assert _rank_nullity(*dims) == 1
    with pytest.raises(InvariantViolated):
        _rank_nullity(3, 1, 1)                  # 3 + 1 - 1 is odd
    with pytest.raises(InvariantViolated):
        _rank_nullity(3, 1, 0)                  # rank (3 + 1 - 0) / 2 > min(3, 1)


def test_free_model_checks_survive_python_O():
    code = (
        "from floercone.linalg import CompositionNonzero\n"
        "from floercone.subquotient import FreeUComplex\n"
        "assert False, 'asserts are on'\n"
        "try:\n"
        "    FreeUComplex((0, 0, 0), (2, 1, 0), (0, 0b1, 0b10))\n"
        "except CompositionNonzero:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


def test_reduced_model_check_survives_python_O():
    """The plus cone of the figure-eight at s = 0 reads A'_0, where
    d y1 = U y0, and B' off `subquotient._smith_model`.  A copy of it,
    compiled from its source, whose A' sends every element that is no
    arrow's column end to itself breaks d^2 = 0, and the checked `FreeUComplex` raises
    CompositionNonzero; a projection that adds the first element of B' to
    every image breaks v' d = d v', and NotAChainMap is raised; both with
    the library's asserts stripped."""
    code = (
        "import inspect, textwrap\n"
        "import floercone.cone as cone\n"
        "import floercone.subquotient as subquotient\n"
        "from floercone.fixtures import FIGURE8\n"
        "from floercone.linalg import CompositionNonzero, NotAChainMap\n"
        "assert False, 'asserts are on'\n"
        "real = cone._smith_model\n"
        "source = textwrap.dedent(inspect.getsource(real))\n"
        "arrow = 'else 0 for k in kept'\n"
        "print(source.count(arrow))\n"
        "namespace = dict(vars(subquotient))\n"
        "exec(source.replace(arrow, 'else 1 << place[k] for k in kept'), namespace)\n"
        "def off(free):\n"
        "    reduced, inclusion, project = real(free)\n"
        "    return reduced, inclusion, lambda w: (project(w)[0] ^ 1, 0)\n"
        "print(cone.cone_homology_plus_truncated(FIGURE8, 0).total_dim)\n"
        "for broken, error in ((namespace['_smith_model'], CompositionNonzero), (off, NotAChainMap)):\n"
        "    cone._smith_model = broken\n"
        "    try:\n"
        "        cone.cone_homology_plus_truncated(FIGURE8, 0)\n"
        "    except error:\n"
        "        print('raised')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1", "4", "raised", "raised"]


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
    names = tuple(g.name for g in c.generators)
    assert hash((c.spinc_label, names, c.differential, c.flip)) == hash(c)
    assert c != KnotComplex("1", c.generators, c.differential, c.flip)


def test_pickled_complex_leaves_its_hash_behind():
    c = staircase(2)
    before = pickle.dumps(c)
    hash(c)
    assert pickle.dumps(c) == before
    back = pickle.loads(before)
    assert back == c and "_hash" not in vars(back)
    assert hash(back) == hash(c)

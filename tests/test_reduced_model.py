"""The plus flavor on reduced models: `subquotient._smith_model`, read
off one clearing pass, against the homotopy equivalence it claims and
against unit cancellation (`oracles.cancel_units` and
`oracles.reduced_model`), the pass's pairs and towers against the column
reduction with no clearing, the reduced sizes against the hat homology,
every plus answer against the five reductions of the full complexes
(`oracles.oracle_plus_reductions`), and the reduced homology of B against
the full B with its powers written out."""

import random

import pytest

import floercone.cone as cone_module
from floercone.cone import (
    _free_cone,
    _h_map,
    _plus_reductions,
    _reduced_maps,
    _reduce_ungraded,
    cone_homology_plus_truncated,
    ensure_flip,
)
from floercone.fixtures import ALL_FIXTURES, TREFOIL
from floercone.linalg import (
    F2Matrix,
    _combine,
    _minor_degree_bound,
    rank_f2,
    smith_pivots_u,
)
from floercone.subquotient import (
    _in_grading_order,
    _moved,
    _smith_model,
    free_plus_complex,
    hf_red_graded,
    reduce_free,
)

from corpus import BIG_SUMS, TWISTED_SUMS, connected_sum, corpus, mirror, staircase, tensor, with_flip
from oracles import (
    _v_map,
    build_A_hat,
    build_B_hat,
    cancel_units,
    cancelled_reduced_maps,
    graded_precision,
    hat_homology_dim,
    moved_into_grading_order,
    oracle_hf_red_graded,
    oracle_plus_reductions,
    plus_at_height_0,
    power_cone,
    power_maps,
    power_plus_complex,
    power_reduction,
    powers_of,
    reduce_free_without_clearing,
    reduced_model,
    u0,
)

TRUNCATIONS = ("auto", 0, 1, 2, 5)


def identity(n: int) -> tuple:
    return tuple(1 << k for k in range(n))


def compose(outer, inner) -> tuple:
    """outer o inner on column masks: the F2[U] product of graded maps."""
    return tuple(_combine(outer, col) for col in inner)


def plus_answers(c, s_values, truncations=TRUNCATIONS) -> dict:
    return {(s, n): cone_homology_plus_truncated(c, s, n) for s in s_values for n in truncations}


def assert_equals_the_oracle(monkeypatch, c, s_values, truncations=TRUNCATIONS):
    """Every plus answer against the one read off the oracle's reductions;
    height 0, which the library answers with the hat cone, against the
    oracle's reductions at precision 1 read at height 0."""
    got = plus_answers(c, s_values, truncations)
    with monkeypatch.context() as m:
        m.setattr(cone_module, "_plus_reductions", oracle_plus_reductions)
        want = plus_answers(c, s_values, truncations)
    for (s, n), result in got.items():
        if n == 0:
            want[s, n] = plus_at_height_0(c, s, oracle_plus_reductions(c, s, 1))
        assert result == want[s, n], (c.spinc_label, len(c.generators), (s, n))


def every_s(c) -> range:
    return range(-c.a_bound() - 1, c.a_bound() + 2)


def smith_model(free):
    """`_smith_model` on free moved into descending grading by the oracle:
    A', and i and p as column masks in free's own indices (p's coordinates
    alone)."""
    moved, order, place = moved_into_grading_order(free)
    reduced, inclusion, project = _smith_model(moved)
    return (reduced, tuple(_moved(order, x) for x in inclusion),
            tuple(project(1 << place[k])[0] for k in range(len(order))))


# ---------------------------------------------------------------------------
# A_s, B, v and h placed in descending grading


def placed_maps(monkeypatch, c, s) -> list:
    """v and h on A_s and B in descending grading, as `_reduced_maps` places
    them from their triples and hands them to `_carried`."""
    handed, carried = [], cone_module._carried

    def spy(models, maps):
        handed.extend(maps)
        return carried(models, handed)

    with monkeypatch.context() as m:
        m.setattr(cone_module, "_carried", spy)
        _reduced_maps(c, s)
    return handed


def assert_built_in_grading_order_as_moved(monkeypatch, c):
    """`_in_grading_order` from d's triples against the full model moved
    there one bit at a time (`oracles.moved_into_grading_order`): the same
    model and places, on B and at every s in [-a_bound - 1, a_bound + 1];
    and at every such s, v and h placed from their triples against
    `oracles._v_map` and `_h_map` moved into the orders of A_s and B."""
    c = ensure_flip(c)
    _, _, place_b = moved_into_grading_order(free_plus_complex(c))
    for s in (None, *every_s(c)):
        model, place = _in_grading_order(c, s)
        a = free_plus_complex(c, s)
        want, order_a, want_place = moved_into_grading_order(a)
        assert model == want, (c, s)
        assert place == [want_place[k] for k in range(len(order_a))], (c, s)
        if s is not None:
            moved = [[_moved(place_b, f[k]) for k in order_a] for f in (_v_map(a), _h_map(c))]
            assert placed_maps(monkeypatch, c, s) == moved, (c, s)


def test_built_in_grading_order_as_moved_on_the_fixtures_and_their_mirrors(monkeypatch):
    for c in ALL_FIXTURES:
        for k in (c, mirror(c)):
            assert_built_in_grading_order_as_moved(monkeypatch, k)


@pytest.mark.parametrize("seed", range(1, 9))
def test_built_in_grading_order_as_moved_on_the_corpus(monkeypatch, seed):
    for _, c in with_flip(seed):
        assert_built_in_grading_order_as_moved(monkeypatch, c)


@pytest.mark.parametrize("name", TWISTED_SUMS)
def test_built_in_grading_order_as_moved_on_the_sums_and_their_mirrors(monkeypatch, name):
    c = connected_sum(name)
    for k in (c, mirror(c)):
        assert_built_in_grading_order_as_moved(monkeypatch, k)


# ---------------------------------------------------------------------------
# the reduced models


def test_cancelling_the_trefoil_keeps_one_generator_of_B():
    """d b = U a + c on B: the pass pairs b with c, a unit, and keeps a with
    d = 0, as cancelling the unit arrow b -> c does; the inclusion sends a
    to a, the projection sends c to U a and drops b, a column end."""
    b = free_plus_complex(TREFOIL)
    assert b.columns == (0, 0b101, 0)
    assert b.gradings[0] - b.gradings[1] == 1 and b.gradings[2] - b.gradings[1] == -1
    assert cancel_units(b.columns, b.gradings) == ([0], [0])
    reduced, inclusion, project = _smith_model(b)  # already in descending grading
    assert (reduced.gradings, reduced.columns) == ((b.gradings[0],), (0,))
    assert inclusion == [0b001]
    assert [project(col) for col in identity(3)] == [(1, False), (0, True), (1, False)]  # c -> U a
    assert reduced_model(b)[0] == reduced


def reduced_cases():
    return ([free_plus_complex(c, s) for c in ALL_FIXTURES for s in (None, -1, 0, 1)]
            + [free_plus_complex(c, s) for _, c in with_flip()[::4] for s in (None, 0, 1)]
            + [free_plus_complex(connected_sum(name), s) for name in TWISTED_SUMS[::3]
               for s in (None, 0, 2)])


def test_reduced_models_are_homotopy_equivalent_and_minimal():
    """p i = 1, i and p are chain maps, the reduced differential has no
    entry of power 0, the size is the hat homology and that of the model
    left by unit cancellation, and the Smith pivots U^v with v >= 1 and the
    towers are those of the full complex."""
    for free in reduced_cases():
        n, gradings = len(free.columns), free.gradings
        reduced, i, p = smith_model(free)
        m = len(reduced.columns)
        assert compose(p, i) == identity(m)
        assert compose(free.columns, i) == compose(i, reduced.columns)
        assert compose(p, free.columns) == compose(reduced.columns, p)
        assert not any(u0(reduced.columns, reduced.gradings, reduced.gradings, -1))
        hat = u0(free.columns, gradings, gradings, -1)
        assert m == n - 2 * rank_f2(F2Matrix._from_masks(n, n, hat)) == len(reduced_model(free)[0].lo)
        full, small = reduce_free(gradings, free.columns), reduce_free(reduced.gradings,
                                                                       reduced.columns)
        assert sorted(pair for pair in full.pairs if pair[2]) == sorted(small.pairs)
        assert full.towers == small.towers


def random_map(rng, rows: int, cols: int) -> tuple:
    return tuple(sum(1 << r for r in range(rows) if rng.random() < 0.3) for _ in range(cols))


def test_carried_maps_come_out_composed_with_the_inclusion_and_projection():
    """For any f out of A and g into A, carried alongside the identity by
    the reference cancellation, the carried columns are f i and p g, as
    GF(2) products of their masks."""
    rng = random.Random(5)
    frees = reduced_cases()
    for _ in range(40):
        a = rng.choice(frees)
        na, other = len(a.columns), rng.randint(1, 6)
        f, g = random_map(rng, other, na), random_map(rng, na, other)
        _, (fi, i), (pg, p) = reduced_model(a, out=[f, identity(na)], into=[g, identity(na)])
        assert fi == compose(f, i)
        assert pg == compose(p, g)


def reductions_of_the_cones(a, b, v, h, s):
    return [reduce_free(*cone) for cone in (_free_cone(a, b, v), _free_cone(a, b, h, -2 * s))]


def test_reduced_maps_give_the_cone_pivots_of_unit_cancellation():
    """v' and h' between A' and B' against those left by cancelling every
    unit arrow (`oracles.cancelled_reduced_maps`): the same sizes and the
    same pivots and towers of the cones of v' and h'."""
    cases = list(ALL_FIXTURES) + [c for _, c in with_flip()[::3]]
    for c in cases + [connected_sum(name) for name in TWISTED_SUMS]:
        c = ensure_flip(c)
        for s in every_s(c):
            got, want = _reduced_maps(c, s), cancelled_reduced_maps(c, s)
            assert [len(m.lo) for m in got[:2]] == [len(m.lo) for m in want[:2]], (c, s)
            for x, y in zip(reductions_of_the_cones(*got, s), reductions_of_the_cones(*want, s)):
                assert (sorted(x.pairs), x.towers) == (sorted(y.pairs), y.towers), (c, s)


def test_the_reduced_sizes_are_the_hat_homology():
    """Every unit pair is dropped, so |A'_s| = dim H(A_s hat) and
    |B'| = dim H(B hat): on T2_5+mT2_5+F8, 11, 13 and 7 at s = 0, 1, 2, and 1."""
    c = connected_sum("T2_5+mT2_5+F8")
    sizes = {}
    for s in range(-c.a_bound() - 1, c.a_bound() + 2):
        ra, rb, *_ = _plus_reductions(c, s)
        hat_a = hat_homology_dim(build_A_hat(c, s))
        assert (ra.size, rb.size) == (hat_a, hat_homology_dim(build_B_hat(c)))
        sizes[s] = ra.size
    assert (sizes[0], sizes[1], sizes[2], rb.size) == (11, 13, 7, 1)


def test_a_pivot_row_before_its_column(monkeypatch):
    """On Y1SIGMA # T(2,3) at s = -1 (9 generators) the row at place 1 of
    A_s, grading -2, pairs with the column at place 3, grading -3, by U^1:
    its cycle, met first, is replaced by the boundary and is no tower.  So
    A_s has one tower at -2, A' has 3 elements, and the plus answers are
    the oracle's."""
    c = ensure_flip(connected_sum("Y1+T2_3"))
    a = free_plus_complex(c, -1)
    reduction = reduce_free(a.gradings, a.columns)
    assert reduction == reduce_free_without_clearing(a.gradings, a.columns)
    assert reduction.pairs == ((-4, -3, 0), (-2, -3, 1), (-4, -3, 0), (-5, -4, 0))
    assert reduction.towers == (-2,)
    assert [len(m.lo) for m in _reduced_maps(c, -1)[:2]] == [3, 3]
    assert_equals_the_oracle(monkeypatch, c, (-1,))
    assert [(r.total_dim, r.rank_v, r.rank_h, r.truncation)
            for r in plus_answers(c, (-1,), ("auto", 1, 2)).values()] == [(0, 0, 3, 0), (0, 1, 4, 1),
                                                                        (0, 2, 5, 2)]


def assert_clearing_equals_the_loop_without_clearing(c):
    """reduce_free with clearing against the loop without it, exactly, on
    B, and on A_s and the cones of v and h at every s."""
    c = ensure_flip(c)
    b = free_plus_complex(c)
    for s in every_s(c):
        a = free_plus_complex(c, s)
        cases = [(b.gradings, b.columns), (a.gradings, a.columns), _free_cone(a, b, _v_map(a)),
                 _free_cone(a, b, _h_map(c), -2 * s)]
        for gradings, columns in cases:
            assert reduce_free(gradings, columns) == reduce_free_without_clearing(gradings, columns), (c, s)


@pytest.mark.parametrize("seed", [1, 2] + [pytest.param(seed, marks=pytest.mark.slow) for seed in range(3, 9)])
def test_clearing_equals_the_loop_without_clearing_on_the_corpus(seed):
    for _, c in with_flip(seed):
        assert_clearing_equals_the_loop_without_clearing(c)


# ---------------------------------------------------------------------------
# every graded reduction against `smith_pivots_u` on the powers written out


def graded_cases(c):
    """(label, gradings, column masks, the same with its powers written out by
    the oracle) for every graded reduction of the plus flavor on c: B, and
    at each s in [-a_bound - 1, a_bound + 1] A', the cone of v' and, at
    s = 0, the cones of h' and v' + h'; then the full A_s, B and cones of v,
    h and v + h at s = 0 as the oracle builds them."""
    c = ensure_flip(c)
    b = free_plus_complex(c)
    yield "B", b.gradings, b.columns, powers_of(b.gradings, b.columns)
    for s in every_s(c):
        a, b, v, h = _reduced_maps(c, s)
        cones = [("A'", a.gradings, a.columns), ("cone v'", *_free_cone(a, b, v))]
        if s == 0:
            cones += [("cone h'", *_free_cone(a, b, h)),
                      ("cone v'+h'", *_free_cone(a, b, [x ^ y for x, y in zip(v, h)]))]
        for label, gradings, columns in cones:
            yield (label, s), gradings, columns, powers_of(gradings, columns)
    a, b = free_plus_complex(c, 0), free_plus_complex(c)
    pa, pb = power_plus_complex(c, 0), power_plus_complex(c)
    maps = _v_map(a), cone_module._h_map(c)
    power = power_maps(c, 0, pa, pb, None)
    power += ([{r: x for r in cv.keys() | ch.keys() if (x := cv.get(r, 0) ^ ch.get(r, 0))}
               for cv, ch in zip(*power)],)
    yield "A_0", a.gradings, a.columns, pa.columns
    for label, f, pf in zip(("cone v", "cone h", "cone v+h"),
                            maps + ([x ^ y for x, y in zip(*maps)],), power):
        yield label, *_free_cone(a, b, f), power_cone(pa, pb, pf)[1]


def assert_graded_reductions_equal_the_oracle(c):
    for label, gradings, columns, powers in graded_cases(c):
        got = reduce_free(gradings, columns)
        want = power_reduction(gradings, powers, graded_precision(gradings))
        assert (sorted(got.pairs), got.towers) == (sorted(want.pairs), want.towers), (c, label)


def test_graded_reductions_equal_the_oracle_on_the_fixtures():
    for c in ALL_FIXTURES:
        assert_graded_reductions_equal_the_oracle(c)


@pytest.mark.parametrize("seed", range(1, 9))
def test_graded_reductions_equal_the_oracle_on_the_corpus(seed):
    for _, c in with_flip(seed):
        assert_graded_reductions_equal_the_oracle(c)


@pytest.mark.parametrize("name", TWISTED_SUMS + BIG_SUMS)
def test_graded_reductions_equal_the_oracle_on_the_sums(name):
    assert_graded_reductions_equal_the_oracle(connected_sum(name))


@pytest.mark.slow
def test_graded_reductions_equal_the_oracle_on_a_1331_generator_sum():
    assert_graded_reductions_equal_the_oracle(t2_11_cubed())


# ---------------------------------------------------------------------------
# every plus answer against the five full reductions


def test_plus_answers_equal_the_oracle_on_the_fixtures_and_the_corpus(monkeypatch):
    for c in list(ALL_FIXTURES) + [flipped for _, flipped in with_flip()]:
        assert_equals_the_oracle(monkeypatch, c, every_s(c))


@pytest.mark.parametrize("name", TWISTED_SUMS + BIG_SUMS)
def test_plus_answers_equal_the_oracle_on_the_sums(monkeypatch, name):
    c = connected_sum(name)
    assert_equals_the_oracle(monkeypatch, c, every_s(c))


@pytest.mark.parametrize("seed", range(1, 9))
def test_reduced_homology_of_B_prime_equals_that_of_B_on_the_corpus(seed):
    for c in corpus(seed):
        assert hf_red_graded(c) == oracle_hf_red_graded(c), c


def test_reduced_homology_of_B_prime_equals_that_of_B_on_the_fixtures_and_sums():
    for c in list(ALL_FIXTURES) + [connected_sum(name) for name in TWISTED_SUMS + BIG_SUMS]:
        assert hf_red_graded(c) == oracle_hf_red_graded(c), c.spinc_label


def t2_11_cubed():
    k = staircase(5)
    return tensor(tensor(k, k), k)


@pytest.mark.slow
def test_plus_answers_equal_the_oracle_on_a_1331_generator_sum(monkeypatch):
    """|A'_1| = 53 and |B'| = 1: a 54-column cone where the oracle's has 2,662."""
    c = t2_11_cubed()
    assert_equals_the_oracle(monkeypatch, c, (-1, 0, 1, 5), ("auto",))
    ra, rb, *_, rvh = _plus_reductions(c, 1)
    assert (ra.size, rb.size, rvh.size) == (53, 1, 54)


@pytest.mark.slow
def test_the_minor_degree_bound_is_small_on_the_reduced_cones(monkeypatch):
    """On the full cones of T(2,11)^#3 the bound is 6,092, 8,152 and 19,967
    at s = 1, 5 and 15; on the least models read off the clearing pass it
    is in the tens (it was 217, 211 and 16 on the models left by unit
    cancellation, whose bases differ).  Auto mode reduces each cone once,
    at it, and finds every pivot: m / 2 of them, as many as half the
    grading spread plus one plus |s| finds."""
    c = t2_11_cubed()
    calls = []
    monkeypatch.setattr(cone_module, "_reduce_ungraded",
                        lambda *args: calls.append(args) or _reduce_ungraded(*args))
    bounds = []
    for s in (1, 5, 15):
        calls.clear()
        _plus_reductions(c, s)
        ((gradings, columns, bound),) = calls
        assert bound == _minor_degree_bound(columns, len(columns) // 2)
        pivots = sorted(v for *_, v in smith_pivots_u(columns, bound))
        spread = (max(gradings) - min(gradings) + 1) // 2 + 1 + s
        assert sorted(v for *_, v in smith_pivots_u(columns, spread)) == pivots
        assert 2 * len(pivots) == len(columns)
        bounds.append(bound)
    assert bounds == [35, 31, 16]

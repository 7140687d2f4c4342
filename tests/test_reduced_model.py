"""The plus flavor on reduced models: `linalg.cancel_units` and
`subquotient.reduced_model` against the homotopy equivalence they claim,
the reduced sizes against the hat homology, every plus answer against
the five reductions of the full complexes (`oracles.oracle_plus_reductions`),
and the reduced homology of B' against that of all of B."""

import random

import pytest

import floercone.cone as cone_module
from floercone.cone import _plus_reductions, cone_homology_plus_truncated
from floercone.fixtures import ALL_FIXTURES, TREFOIL
from floercone.linalg import _minor_degree_bound, _u_product, cancel_units, rank_f2
from floercone.subquotient import (
    _hat_view,
    _mod_u,
    free_plus_complex,
    hf_red_graded,
    reduce_free,
    reduced_model,
)

from corpus import BIG_SUMS, TWISTED_SUMS, connected_sum, corpus, staircase, tensor, with_flip
from oracles import oracle_hf_red_graded, oracle_plus_reductions

TRUNCATIONS = ("auto", 0, 1, 2, 5)


def identity(n: int) -> list:
    return [{k: 1} for k in range(n)]


def plus_answers(c, s_values, truncations=TRUNCATIONS) -> dict:
    return {(s, n): cone_homology_plus_truncated(c, s, n) for s in s_values for n in truncations}


def assert_equals_the_oracle(monkeypatch, c, s_values, truncations=TRUNCATIONS):
    got = plus_answers(c, s_values, truncations)
    with monkeypatch.context() as m:
        m.setattr(cone_module, "_plus_reductions", oracle_plus_reductions)
        want = plus_answers(c, s_values, truncations)
    for key, result in got.items():
        assert result == want[key], (c.spinc_label, len(c.generators), key)


def every_s(c) -> range:
    return range(-c.a_bound() - 1, c.a_bound() + 2)


# ---------------------------------------------------------------------------
# the cancellation


def test_cancelling_the_trefoil_keeps_one_generator_of_B():
    """d b = U a + c on B: the unit arrow b -> c goes, a is left with d = 0;
    the inclusion sends a to a, the projection sends c to U a."""
    b = free_plus_complex(TREFOIL)
    assert b.columns == ({}, {0: 2, 2: 1}, {})
    assert cancel_units(b.columns, 3) == ([0], [{}])
    reduced, (inclusion,), (projection,) = reduced_model(b, out=[identity(3)], into=[identity(3)])
    assert (reduced.gradings, reduced.columns) == ((b.gradings[0],), ({},))
    assert inclusion == [{0: 1}]
    assert projection == [{0: 1}, {}, {0: 2}]


def reduced_cases():
    return ([free_plus_complex(c, s) for c in ALL_FIXTURES for s in (None, -1, 0, 1)]
            + [free_plus_complex(c, s) for _, c in with_flip()[::4] for s in (None, 0, 1)]
            + [free_plus_complex(connected_sum(name), s) for name in TWISTED_SUMS[::3]
               for s in (None, 0, 2)])


def test_reduced_models_are_homotopy_equivalent_and_minimal():
    """p i = 1, i and p are chain maps, the reduced differential is 0 modulo
    U, the size is the hat homology, and the Smith pivots U^v with v >= 1 and
    the towers are those of the full complex."""
    for free in reduced_cases():
        n = len(free.columns)
        reduced, (i,), (p,) = reduced_model(free, out=[identity(n)], into=[identity(n)])
        m = len(reduced.columns)
        assert _u_product(p, i) == identity(m)
        assert _u_product(free.columns, i) == _u_product(i, reduced.columns)
        assert _u_product(p, free.columns) == _u_product(reduced.columns, p)
        assert not any(e & 1 for col in reduced.columns for e in col.values())
        assert m == n - 2 * rank_f2(_mod_u(free.columns, n))
        full = reduce_free(free.gradings, free.columns, 40)
        small = reduce_free(reduced.gradings, reduced.columns, 40)
        assert sorted(pair for pair in full.pairs if pair[2]) == sorted(small.pairs)
        assert full.towers == small.towers


def random_map(rng, rows: int, cols: int) -> list:
    return [{r: e for r in range(rows) if rng.random() < 0.3 and (e := rng.getrandbits(3))}
            for _ in range(cols)]


def test_carried_maps_come_out_composed_with_the_inclusion_and_projection():
    """For any f out of A and g into A, carried alongside the identity, the
    carried columns are f i and p g."""
    rng = random.Random(5)
    frees = reduced_cases()
    for _ in range(40):
        a = rng.choice(frees)
        na, other = len(a.columns), rng.randint(1, 6)
        f, g = random_map(rng, other, na), random_map(rng, na, other)
        _, (fi, i), (pg, p) = reduced_model(a, out=[f, identity(na)], into=[g, identity(na)])
        assert fi == _u_product(f, i)
        assert pg == _u_product(p, g)


def test_the_reduced_sizes_are_the_hat_homology():
    """Every unit arrow is cancelled, so |A'_s| = dim H(A_s hat) and
    |B'| = dim H(B hat): on T2_5+mT2_5+F8, 11, 13 and 7 at s = 0, 1, 2, and 1."""
    c = connected_sum("T2_5+mT2_5+F8")
    sizes = {}
    for s in range(-c.a_bound() - 1, c.a_bound() + 2):
        ra, rb, *_ = _plus_reductions(c, s)
        hat_a = _hat_view(c, free_plus_complex(c, s)).homology_dim()
        assert (ra.size, rb.size) == (hat_a, _hat_view(c, free_plus_complex(c)).homology_dim())
        sizes[s] = ra.size
    assert (sizes[0], sizes[1], sizes[2], rb.size) == (11, 13, 7, 1)


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
def test_the_minor_degree_fallback_is_small_on_the_reduced_cones(monkeypatch):
    """On the full cones of T(2,11)^#3 the bound is 6,092, 8,152 and 19,967
    at s = 1, 5 and 15; on the reduced ones it is in the hundreds, and
    reducing at it finds the same pivots."""
    c = t2_11_cubed()
    calls = []
    monkeypatch.setattr(cone_module, "reduce_free",
                        lambda *args: calls.append(args) or reduce_free(*args))
    bounds = []
    for s in (1, 5, 15):
        calls.clear()
        _plus_reductions(c, s)
        gradings, columns, precision, graded = calls[0]  # the cone of v + h comes first
        bound = _minor_degree_bound(columns, len(columns) // 2)
        pivots = sorted(v for *_, v in reduce_free(gradings, columns, precision, graded).pairs)
        assert sorted(v for *_, v in reduce_free(gradings, columns, bound, graded).pairs) == pivots
        bounds.append(bound)
    assert bounds == [217, 211, 16]

"""The (mask, shift) LaurentPoly against exponent-set arithmetic, the Smith
reduction's nonunit path against determinantal divisors, and one Laurent
reduction of the pencil per twisted homology computation at s = 0, none
elsewhere."""

import copy
import pickle
import random

import pytest

import floercone.subquotient
import floercone.twisted
from floercone.cone import _a_modulo_u, _pencil_maps, ensure_flip
from floercone.fixtures import ALL_FIXTURES
from floercone.linalg import (
    LaurentMatrix,
    LaurentPoly,
    _laurent_product,
    _laurent_sum,
    laurent_divmod,
    smith_invariants_laurent,
)
from floercone.twisted import novikov_dim, twisted_homology_laurent

from oracles import _poly_add, _poly_mul, laurent_product, minor_gcd_spans


def random_exponents(rng) -> set:
    """0-6 distinct exponents in [-8, 8], so zero and negative exponents occur."""
    return set(rng.sample(range(-8, 9), rng.randint(0, 6)))


_rng = random.Random(11)
EXPONENT_SETS = [set(), {0}, {-3}] + [random_exponents(_rng) for _ in range(21)]
PAIRS = list(zip(EXPONENT_SETS, EXPONENT_SETS[1:] + EXPONENT_SETS[:1]))


def as_dict(exps) -> dict:
    return {e: 1 for e in exps}


def canonical(p: LaurentPoly) -> LaurentPoly:
    """p rebuilt from its support; equal to p only if p's stored form is the canonical one."""
    return LaurentPoly(frozenset(p.support))


@pytest.mark.parametrize("ea,eb", PAIRS)
def test_add_and_mul_match_exponent_sets(ea, eb):
    a, b = LaurentPoly(frozenset(ea)), LaurentPoly(frozenset(eb))
    total, product = _laurent_sum(a, b), _laurent_product(a, b)
    assert total.support == set(_poly_add(as_dict(ea), as_dict(eb)))
    assert product == laurent_product(a, b)
    assert product == _laurent_product(b, a) and total == _laurent_sum(b, a)
    assert canonical(total) == total and canonical(product) == product


@pytest.mark.parametrize("exps", EXPONENT_SETS)
def test_shift_normalize_span_and_value_at_one(exps):
    p = LaurentPoly(frozenset(exps))
    for k in (-5, 0, 3):
        assert p.shifted(k).support == {e + k for e in exps}
    assert p.at_one() == len(exps) % 2
    assert p.is_zero == (not exps)
    if not exps:
        assert p.unit_normalized() == p
        for attr in ("span", "min_exp", "max_exp"):
            with pytest.raises(ValueError):
                getattr(p, attr)
        return
    lo, hi = min(exps), max(exps)
    assert (p.min_exp, p.max_exp, p.span) == (lo, hi, hi - lo)
    q = p.unit_normalized()
    assert q.support == {e - lo for e in exps} and q.min_exp == 0
    assert canonical(q) == q


def expected_str(exps) -> str:
    names = {0: "1", 1: "T"}
    return " + ".join(names.get(e, f"T^{e}") for e in sorted(exps)) or "0"


@pytest.mark.parametrize("exps", EXPONENT_SETS)
def test_str_support_equality_hash_and_pickle(exps):
    p = LaurentPoly(frozenset(exps))
    assert str(p) == expected_str(exps)
    assert p.support == frozenset(exps) and isinstance(p.support, frozenset)
    # the same polynomial reached three ways is one value
    doubled = sorted(exps) + [7, 7]
    for other in (LaurentPoly.from_exponents(doubled), p.shifted(4).shifted(-4),
                  _laurent_sum(_laurent_sum(p, LaurentPoly.one()), LaurentPoly.one())):
        assert other == p and hash(other) == hash(p)
    for copied in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert copied == p and hash(copied) == hash(p) and str(copied) == str(p)
    if exps:
        assert p != p.shifted(1) and p != _laurent_sum(p, LaurentPoly.monomial(9))


@pytest.mark.parametrize("bad", [True, False, 1.5, "1"])
def test_only_int_exponents(bad):
    for exps in ({bad}, {5, bad}):
        with pytest.raises(ValueError):
            LaurentPoly(frozenset(exps))
    with pytest.raises(ValueError):
        LaurentPoly.from_exponents([bad])


@pytest.mark.parametrize("ea,eb", PAIRS)
def test_divmod_reconstructs_the_dividend(ea, eb):
    a, b = LaurentPoly(frozenset(ea)), LaurentPoly(frozenset(eb))
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            laurent_divmod(a, b)
        return
    q, r = laurent_divmod(a, b)
    rebuilt = _poly_add(_poly_mul(as_dict(q.support), as_dict(eb)), as_dict(r.support))
    assert set(rebuilt) == set(ea)
    assert r.is_zero or r.span < b.span
    assert canonical(q) == q and canonical(r) == r


# ---------------------------------------------------------------------------
# Smith invariants against determinantal divisors


def _normalize(exps: set) -> set:
    lo = min(exps)
    return {e - lo for e in exps}


def _rem(a: set, b: set) -> set:
    """Remainder of a by b in GF(2)[T], both with minimum exponent 0."""
    top = max(b)
    a = set(a)
    while a and max(a) >= top:
        shift = max(a) - top
        a ^= {e + shift for e in b}
    return a


def gcd_exponents(polys) -> set:
    """Unit-normalized gcd of nonzero Laurent polynomials given as exponent sets."""
    g: set = set()
    for p in polys:
        p = _normalize(p)
        while p:
            g, p = p, _rem(g, p) if g else set()
            if p:
                p = _normalize(p)
        g = _normalize(g)
    return g


def random_laurent_matrix(rng, min_span: int) -> LaurentMatrix:
    rows, cols = rng.randint(2, 4), rng.randint(2, 4)
    d = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < 0.6:
                span = rng.randint(min_span, 3)
                low = rng.randint(-2, 2)
                inner = rng.sample(range(low + 1, low + span), rng.randint(0, max(span - 1, 0)))
                exps = {low, low + span, *inner}
                d[(r, c)] = LaurentPoly(frozenset(exps))
    return LaurentMatrix.from_dict(rows, cols, d)


@pytest.mark.parametrize("min_span", [1, 0])
def test_smith_products_are_minor_gcds(min_span):
    """d_1 ... d_k = gcd of the k x k minors, up to a unit, for every k.

    With min_span 1 no entry is a unit, so every first pivot runs the
    divisibility sweep; with min_span 0 unit and nonunit pivots mix.
    """
    rng = random.Random(30 + min_span)
    unit_gcd_of_nonunits = 0
    for _ in range(40):
        m = random_laurent_matrix(rng, min_span)
        inv = smith_invariants_laurent(m)
        entries = {(r, c): as_dict(p.support) for r, c, p in m.entries}
        product = {0: 1}
        for k in range(1, min(m.rows, m.cols) + 1):
            minors = [set(d) for d in minor_gcd_spans(entries, m.rows, m.cols, k)]
            if not minors:
                assert len(inv) < k
                break
            product = _poly_mul(product, as_dict(inv[k - 1].support))
            assert _normalize(set(product)) == gcd_exponents(minors), (m, k)
        if min_span and inv and inv[0] == LaurentPoly.one():
            unit_gcd_of_nonunits += 1
    if min_span:
        assert unit_gcd_of_nonunits > 0  # the sweep had offenders to fold in


# ---------------------------------------------------------------------------
# one Laurent reduction per twisted homology computation at s = 0, on the
# pencil between the reduced models, and none at s != 0


def test_twisted_homology_builds_the_cone_once(monkeypatch):
    """One Laurent Smith reduction per complex at s = 0, on the |B'| x |A'|
    pencil v' + T h', none at s = +-1, where the answer is the hat cone's,
    and no F2[[T]] reduction: the Novikov dimension is the Laurent free rank."""
    calls = []
    smith = floercone.twisted.smith_invariants_laurent

    def reducing(m):
        calls.append((m.rows, m.cols))
        return smith(m)

    def refused(*args):
        raise AssertionError("F2[[T]] reduction on the twisted path")

    monkeypatch.setattr(floercone.twisted, "smith_invariants_laurent", reducing)
    for module in (floercone.subquotient, floercone.twisted):  # every binding of it
        monkeypatch.setattr(module, "smith_pivots_u", refused, raising=False)
    for c in ALL_FIXTURES:
        c = ensure_flip(c)
        a, b, _, _ = _pencil_maps(c, _a_modulo_u(c, 0))
        for s in (-1, 0, 1):
            for run in (twisted_homology_laurent, novikov_dim):
                calls.clear()
                res = run(c, s)
                want = [(len(b.gradings), len(a.gradings))] if s == 0 else []
                assert calls == want, (c, s, run)
            assert res == twisted_homology_laurent(c, s).novikov_dim

"""Exact linear algebra: GF(2) matrices, Laurent polynomials, Smith form."""

import random

import pytest

from floercone.linalg import (
    CompositionNonzero,
    F2Matrix,
    InvariantViolated,
    LaurentMatrix,
    LaurentPoly,
    _laurent_sum,
    homology_dim_f2,
    laurent_divides,
    laurent_divmod,
    _combine,
    rank_f2,
    smith_invariants_laurent,
    smith_pivots_u,
)

from oracles import (
    GF256_EXP,
    GF256_LOG,
    TaggedSpan,
    _novikov_rank,
    dense_rank_f2,
    dense_rank_gf256,
    kernel_basis_f2,
    laurent_product,
    minor_gcd_spans,
    rank_f2_modulo,
    submatrix,
    vector_mask,
)


def dense(m: F2Matrix):
    return [[1 if (r, c) in m.entries else 0 for c in range(m.cols)] for r in range(m.rows)]


def random_f2(rng, rows, cols, density=0.4) -> F2Matrix:
    ents = [(r, c) for r in range(rows) for c in range(cols) if rng.random() < density]
    return F2Matrix.from_entries(rows, cols, ents)


# ---------------------------------------------------------------------------
# GF(2) matrices


def test_from_entries_rejects_duplicates():
    with pytest.raises(ValueError):
        F2Matrix.from_entries(2, 2, [(0, 1), (0, 1)])


def test_from_toggles_cancels_mod_2():
    m = F2Matrix.from_toggles(2, 2, [(0, 1), (0, 1), (1, 0)])
    assert m.entries == frozenset({(1, 0)})


def test_entry_bounds_checked():
    with pytest.raises(ValueError):
        F2Matrix(2, 2, frozenset({(2, 0)}))


def test_identity_mul():
    rng = random.Random(1)
    m = random_f2(rng, 4, 5)
    assert F2Matrix.identity(4).mul(m) == m
    assert m.mul(F2Matrix.identity(5)) == m


def test_mul_matches_dense():
    rng = random.Random(2)
    for _ in range(30):
        a = random_f2(rng, rng.randint(1, 6), rng.randint(1, 6))
        b = random_f2(rng, a.cols, rng.randint(1, 6))
        prod = a.mul(b)
        da, db = dense(a), dense(b)
        for r in range(prod.rows):
            for c in range(prod.cols):
                want = sum(da[r][k] * db[k][c] for k in range(a.cols)) % 2
                assert prod.entry(r, c) == bool(want)


def test_add_is_xor():
    a = F2Matrix.from_entries(2, 2, [(0, 0), (1, 1)])
    b = F2Matrix.from_entries(2, 2, [(1, 1), (0, 1)])
    assert (a + b).entries == frozenset({(0, 0), (0, 1)})


def test_apply_is_column_combination():
    m = F2Matrix.from_entries(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])
    image = _combine(m.column_masks(), vector_mask([0, 1]))
    assert image == vector_mask([0, 2])


def test_rank_against_dense_oracle():
    rng = random.Random(3)
    for _ in range(50):
        m = random_f2(rng, rng.randint(0, 7), rng.randint(0, 7))
        assert rank_f2(m) == dense_rank_f2(dense(m))


def test_transpose_preserves_rank():
    rng = random.Random(4)
    for _ in range(20):
        m = random_f2(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert rank_f2(m) == rank_f2(m.transpose())


def test_kernel_of_row_of_ones():
    m = F2Matrix.from_entries(1, 2, [(0, 0), (0, 1)])
    assert kernel_basis_f2(m) == [frozenset({0, 1})]


def test_kernel_vectors_annihilate_and_count():
    rng = random.Random(5)
    for _ in range(40):
        m = random_f2(rng, rng.randint(1, 6), rng.randint(1, 6))
        basis = kernel_basis_f2(m)
        assert len(basis) == m.cols - rank_f2(m)
        masks = []
        for vec in basis:
            assert _combine(m.column_masks(), vector_mask(vec)) == 0
            masks.append(vector_mask(vec))
        from floercone.linalg import rank_f2_span
        assert rank_f2_span(masks) == len(basis)


def test_rank_modulo():
    base = [vector_mask([0]), vector_mask([1])]
    vecs = [vector_mask([0, 1]), vector_mask([2]), vector_mask([0, 2])]
    assert rank_f2_modulo(vecs, base) == 1


def test_span_coords_recover_combination():
    rng = random.Random(6)
    for _ in range(30):
        span = TaggedSpan()
        tagged = []
        for _ in range(4):
            span.add(rng.getrandbits(6))  # untagged background
        for t in range(4):
            v = rng.getrandbits(6)
            if span.add(v, tag=t):
                tagged.append((t, v))
        if not tagged:
            continue
        pick = [tv for tv in tagged if rng.random() < 0.6] or tagged[:1]
        combo_vec = 0
        for _, v in pick:
            combo_vec ^= v
        coords = span.coords(combo_vec)
        assert coords is not None
        got = {t for t, _ in pick}
        expressed = {t for t in range(4) if coords >> t & 1}
        # the combination may differ from `pick` only by tags that cancel
        # against untagged vectors; re-check by direct evaluation
        acc = 0
        for t, v in tagged:
            if t in expressed:
                acc ^= v
        assert span.contains(acc ^ combo_vec)


def test_submatrix_reindexes():
    m = F2Matrix.from_entries(3, 3, [(0, 0), (1, 2), (2, 1)])
    sub = submatrix(m, [1, 2], [1, 2])
    assert sub.entries == frozenset({(0, 1), (1, 0)})


def test_homology_dim_errors():
    d_in = F2Matrix.from_entries(2, 1, [(0, 0)])
    d_out = F2Matrix.from_entries(1, 2, [(0, 0)])
    with pytest.raises(CompositionNonzero):
        homology_dim_f2(d_in, d_out)
    with pytest.raises(ValueError):
        homology_dim_f2(F2Matrix.zero(3, 1), F2Matrix.zero(1, 2))


def test_homology_dim_two_step():
    d_in = F2Matrix.from_entries(2, 1, [(0, 0), (1, 0)])
    d_out = F2Matrix.from_entries(1, 2, [(0, 0), (0, 1)])
    assert homology_dim_f2(d_in, d_out) == 0


# ---------------------------------------------------------------------------
# Laurent polynomials


def test_poly_str_forms():
    assert str(LaurentPoly()) == "0"
    assert str(LaurentPoly.one()) == "1"
    assert str(LaurentPoly.monomial(1)) == "T"
    assert str(LaurentPoly.monomial(3)) == "T^3"
    assert str(LaurentPoly.from_exponents([-1, 0, 1])) == "T^-1 + 1 + T"


def test_poly_add_cancels():
    p = LaurentPoly.from_exponents([0, 1])
    assert _laurent_sum(p, p).is_zero
    assert _laurent_sum(p, LaurentPoly()) == p == _laurent_sum(LaurentPoly(), p)


def test_poly_mul():
    p = LaurentPoly.from_exponents([0, 1])
    assert laurent_product(p, p) == LaurentPoly.from_exponents([0, 2])
    assert laurent_product(p, LaurentPoly.monomial(-1)) == LaurentPoly.from_exponents([-1, 0])


def test_poly_requires_int_exponents():
    with pytest.raises(ValueError):
        LaurentPoly(frozenset({1.5}))


def test_unit_normalized_and_span():
    p = LaurentPoly.from_exponents([-2, 1])
    assert p.span == 3
    q = p.unit_normalized()
    assert q.min_exp == 0 and q == LaurentPoly.from_exponents([0, 3])


def test_at_one_parity():
    assert LaurentPoly.from_exponents([-1, 0, 1]).at_one() == 1
    assert LaurentPoly.from_exponents([0, 5]).at_one() == 0


def test_divmod_properties():
    rng = random.Random(7)
    for _ in range(60):
        a = LaurentPoly.from_exponents(
            rng.sample(range(-4, 5), rng.randint(0, 5)))
        b = LaurentPoly.from_exponents(
            rng.sample(range(-3, 4), rng.randint(1, 4)))
        if b.is_zero:
            continue
        q, r = laurent_divmod(a, b)
        assert _laurent_sum(laurent_product(q, b), r) == a
        assert r.is_zero or r.span < b.span


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        laurent_divmod(LaurentPoly.one(), LaurentPoly())


def test_divides():
    one_plus_t = LaurentPoly.from_exponents([0, 1])
    assert laurent_divides(one_plus_t, LaurentPoly.from_exponents([0, 2]))
    assert not laurent_divides(one_plus_t, LaurentPoly.from_exponents([0, 1, 2]))
    assert laurent_divides(LaurentPoly.monomial(-5), LaurentPoly.one())


# ---------------------------------------------------------------------------
# Laurent matrices


def test_laurent_matrix_rejects_zero_entries():
    with pytest.raises(ValueError):
        LaurentMatrix(1, 1, ((0, 0, LaurentPoly()),))


def test_laurent_from_dict_drops_zero():
    m = LaurentMatrix.from_dict(1, 2, {(0, 0): LaurentPoly.one(), (0, 1): LaurentPoly()})
    assert m.entries == ((0, 0, LaurentPoly.one()),)


def test_at_one_specialization():
    m = LaurentMatrix.from_dict(2, 2, {
        (0, 0): LaurentPoly.from_exponents([0, 1]),   # 1 + T -> 0 at T = 1
        (1, 1): LaurentPoly.from_exponents([-1, 0, 1]),
    })
    assert m.at_one().entries == frozenset({(1, 1)})


def _random_laurent(rng, rows, cols) -> LaurentMatrix:
    d = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < 0.5:
                p = LaurentPoly.from_exponents(
                    rng.sample(range(-2, 3), rng.randint(1, 3)))
                if not p.is_zero:
                    d[(r, c)] = p
    return LaurentMatrix.from_dict(rows, cols, d)


def _eval_rank(m: LaurentMatrix) -> int:
    """Rank over the fraction field of GF(2)[T, T^-1], by evaluating T at
    nonzero points of GF(2^8).  No evaluation raises the rank.  With every
    exponent in lo..lo + w, a nonzero r x r minor is T^(r lo) times a
    polynomial of degree at most r w, so it vanishes at no more than r w
    nonzero points, and r w + 1 of them find the rank."""
    exps = [e for *_, p in m.entries for e in p.support]
    count = min(m.rows, m.cols) * (max(exps, default=0) - min(exps, default=0)) + 1
    assert count < 256
    best = 0
    for point in range(1, count + 1):
        rows = [[0] * m.cols for _ in range(m.rows)]
        for r, c, p in m.entries:
            for e in p.support:
                rows[r][c] ^= GF256_EXP[GF256_LOG[point] * e % 255]
        best = max(best, dense_rank_gf256(rows))
    return best


def _random_degree_one(rng, rows, cols) -> LaurentMatrix:
    choices = (None, LaurentPoly.one(), LaurentPoly.monomial(1), LaurentPoly.from_exponents([0, 1]))
    return LaurentMatrix.from_dict(rows, cols, {
        (r, c): p for r in range(rows) for c in range(cols)
        if (p := rng.choice(choices)) is not None})


def test_novikov_rank_trefoil_twisted():
    # v + T h of the right-handed trefoil at s = 0, basis (a, b, c)
    m = LaurentMatrix.from_dict(3, 3, {
        (2, 0): LaurentPoly.monomial(1),
        (1, 1): LaurentPoly.from_exponents([0, 1]),
        (2, 2): LaurentPoly.one(),
    })
    assert _novikov_rank(m, min(m.rows, m.cols)) == 2


def test_novikov_rank_against_evaluation():
    rng = random.Random(8)
    for _ in range(200):
        m = _random_degree_one(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert _novikov_rank(m, min(m.rows, m.cols)) == _eval_rank(m)


def test_novikov_rank_precision_bound_is_tight():
    """T I_r + N, N the shift, has invariant factors 1, ..., 1, T^r: modulo
    T^r the kernel loses the last one, at the precision r + 1 of the
    Novikov rank it keeps them all."""
    for r in range(1, 8):
        m = LaurentMatrix.from_dict(r, r, {
            **{(k, k): LaurentPoly.monomial(1) for k in range(r)},
            **{(k, k + 1): LaurentPoly.one() for k in range(r - 1)}})
        columns = [{k: 0b10, **({k - 1: 0b1} if k else {})} for k in range(r)]
        assert _eval_rank(m) == _novikov_rank(m, r) == len(smith_pivots_u(columns, r + 1)) == r
        assert len(smith_pivots_u(columns, r)) == r - 1


def test_novikov_rank_rejects_entries_other_than_1_T_and_1_plus_T():
    for p in (LaurentPoly.monomial(-1), LaurentPoly.monomial(2), LaurentPoly.from_exponents([-1, 0])):
        with pytest.raises(InvariantViolated):
            _novikov_rank(LaurentMatrix.from_dict(1, 1, {(0, 0): p}), 1)


def test_smith_diagonal_example():
    m = LaurentMatrix.from_dict(2, 2, {
        (0, 0): LaurentPoly.monomial(3),
        (1, 1): LaurentPoly.from_exponents([1, 2]),
    })
    assert smith_invariants_laurent(m) == [
        LaurentPoly.one(), LaurentPoly.from_exponents([0, 1])]


def test_smith_zero_matrix():
    assert smith_invariants_laurent(LaurentMatrix(3, 2, ())) == []


def test_smith_coprime_diagonal_becomes_one_and_the_product():
    """A diagonal with coprime nonunits needs the (gcd, lcm) pass even when
    the gcd is a unit: (1 + T)(1 + T + T^2) = 1 + T^3."""
    m = LaurentMatrix.from_dict(2, 2, {
        (0, 0): LaurentPoly.from_exponents([0, 1]),
        (1, 1): LaurentPoly.from_exponents([0, 1, 2]),
    })
    assert smith_invariants_laurent(m) == [
        LaurentPoly.one(), LaurentPoly.from_exponents([0, 3])]


@pytest.mark.parametrize("transpose", [False, True])
def test_smith_remainder_of_the_least_span_pivot_is_a_unit(transpose):
    """In [[1 + T, 1 + T + T^2]] the pivot 1 + T leaves the remainder 1 in
    its row (in the transpose, in its column), which becomes the next pivot."""
    entries = {(0, 0): LaurentPoly.from_exponents([0, 1]),
               (0, 1): LaurentPoly.from_exponents([0, 1, 2])}
    if transpose:
        entries = {(c, r): p for (r, c), p in entries.items()}
    shape = (2, 1) if transpose else (1, 2)
    assert smith_invariants_laurent(LaurentMatrix.from_dict(*shape, entries)) == [LaurentPoly.one()]


def test_smith_count_equals_rank_and_divisibility():
    rng = random.Random(9)
    for _ in range(25):
        m = _random_laurent(rng, rng.randint(1, 4), rng.randint(1, 4))
        inv = smith_invariants_laurent(m)
        assert len(inv) == _eval_rank(m)
        for p in inv:
            assert not p.is_zero and p.min_exp == 0
        for p, q in zip(inv, inv[1:]):
            assert laurent_divides(p, q)


def test_smith_first_invariant_is_minor_gcd():
    # d_1 = gcd of the 1x1 minors; checked via the expansion oracle
    rng = random.Random(10)
    for _ in range(10):
        m = _random_laurent(rng, rng.randint(1, 3), rng.randint(1, 3))
        inv = smith_invariants_laurent(m)
        if not inv:
            continue
        minors = minor_gcd_spans(
            {(r, c): {e: 1 for e in p.support} for r, c, p in m.entries},
            m.rows, m.cols, 1)
        for d in minors:
            poly = LaurentPoly.from_exponents(d.keys())
            assert laurent_divides(inv[0], poly)

"""Subquotient complexes, U-module structure, reduced homology, and the
truncate-and-stabilize oracle that reduced homology is checked against."""

from fractions import Fraction

import pytest

from floercone.cone import _a_modulo_u, _hat_dim
from floercone.fixtures import ALL_FIXTURES, FIGURE8, TREFOIL, TREFOIL_L, UNKNOT, Y1SIGMA
from floercone.linalg import F2Matrix, rank_f2
from floercone.model import Generator, KnotComplex
from floercone.subquotient import hf_red_graded

from oracles import (
    GradedUModule,
    TruncationUnstable,
    build_A_hat,
    build_B_hat,
    build_plus_truncated,
    default_truncation,
    dense_rank_f2,
    graded_homology_dims,
    hat_homology_dim,
    reduced_part_at,
    stabilize,
    truncation_cap,
)


def names_i(sub):
    return [(e.generator, e.i) for e in sub.basis]


def dense(m: F2Matrix):
    return [[1 if (r, c) in m.entries else 0 for c in range(m.cols)] for r in range(m.rows)]


# ---------------------------------------------------------------------------
# hat-flavor subquotients


def test_trefoil_B_hat():
    b = build_B_hat(TREFOIL)
    assert names_i(b) == [("a", 0), ("b", 0), ("c", 0)]
    # d b = U^1 a + U^0 c; the U^1 a term leaves the i = 0 slice
    assert b.differential.entries == frozenset({(2, 1)})
    assert hat_homology_dim(b) == 1


def test_trefoil_A_hat_0():
    a = build_A_hat(TREFOIL, 0)
    assert names_i(a) == [("a", -1), ("b", 0), ("c", 0)]
    # both terms of d b stay inside the region here
    assert a.differential.entries == frozenset({(0, 1), (2, 1)})
    assert hat_homology_dim(a) == 1


def test_trefoil_A_hat_equals_B_hat_at_large_s():
    for s in (TREFOIL.a_max(), TREFOIL.a_max() + 3):
        a = build_A_hat(TREFOIL, s)
        b = build_B_hat(TREFOIL)
        assert names_i(a) == names_i(b)
        assert a.differential == b.differential
        assert a.maslov == b.maslov


def test_mirror_A_hat_0_has_zero_differential():
    a = build_A_hat(TREFOIL_L, 0)
    assert names_i(a) == [("x", -1), ("y", 0), ("z", 0)]
    # d x = U^0 y drops (target at i = -1); d z = U^1 y drops too
    assert a.differential.is_zero()
    assert hat_homology_dim(a) == 3


def test_figure8_A_hat_0():
    a = build_A_hat(FIGURE8, 0)
    assert names_i(a) == [("a", -1), ("b", 0), ("c", 0), ("d", 0), ("e", 0)]
    assert hat_homology_dim(a) == 3


def test_maslov_values_follow_plane_rule():
    a = build_A_hat(TREFOIL, 0)
    assert a.maslov == (Fraction(-2), Fraction(-1), Fraction(-2))


def test_homology_against_dense_oracle():
    # the hat dimension that prop0check's clause (c) and the hat cone read off A_s by rule, too
    for c in ALL_FIXTURES:
        for s in (None, -2, -1, 0, 1, 2):
            sub = build_B_hat(c) if s is None else build_A_hat(c, s)
            rank = dense_rank_f2(dense(sub.differential))
            assert hat_homology_dim(sub) == sub.dim - 2 * rank
            assert _hat_dim(_a_modulo_u(c, s).columns) == sub.dim - 2 * rank, (c.spinc_label, s)


# ---------------------------------------------------------------------------
# truncated plus-flavor regions


def test_trefoil_A_plus_0_truncation_1():
    sub, u = build_plus_truncated(TREFOIL, "A", 1, 0)
    assert names_i(sub) == [
        ("a", -1), ("a", 0), ("b", 0), ("b", 1), ("c", 0), ("c", 1)]
    assert u.truncation == 1


def test_B_plus_shape_and_u_nilpotency():
    for c in ALL_FIXTURES:
        n = 2
        sub, u = build_plus_truncated(c, "B", n)
        assert sub.dim == len(c.generators) * (n + 1)
        power = u.matrix
        for _ in range(n):
            power = power.mul(u.matrix)
        assert power.is_zero()


def test_plus_region_argument_errors():
    with pytest.raises(ValueError):
        build_plus_truncated(TREFOIL, "C", 1)
    with pytest.raises(ValueError):
        build_plus_truncated(TREFOIL, "A", 1)   # missing s
    with pytest.raises(ValueError):
        build_plus_truncated(TREFOIL, "B", -1)


def test_y1sigma_B_plus_homology_dim():
    sub, _ = build_plus_truncated(Y1SIGMA, "B", 3)
    assert sub.dim == 12
    assert hat_homology_dim(sub) == 6
    assert dense_rank_f2(dense(sub.differential)) == 3


# ---------------------------------------------------------------------------
# graded homology and U-module decomposition


def test_graded_dims_sum_to_total():
    for c in ALL_FIXTURES:
        sub = build_B_hat(c)
        graded = graded_homology_dims(sub.maslov, sub.differential)
        assert sum(graded.values()) == hat_homology_dim(sub)


def test_graded_dims_trefoil_B_hat():
    # d b = c inside the slice, so the survivor is [a] at grading 0
    sub = build_B_hat(TREFOIL)
    assert graded_homology_dims(sub.maslov, sub.differential) == {Fraction(0): 1}


def test_unknot_tower_block():
    n = 4
    sub, u = build_plus_truncated(UNKNOT, "B", n)
    module = GradedUModule(sub.maslov, sub.differential, u.matrix)
    assert module.dims() == {Fraction(2 * i): 1 for i in range(n + 1)}
    assert module.block_multiplicities() == {(Fraction(2 * n), n + 1): 1}
    assert module.socle_dims(Fraction(10 ** 6)) == {Fraction(0): 1}
    assert module.reduced_dims(Fraction(n)) == {}


def test_y1sigma_block_structure_at_3():
    sub, u = build_plus_truncated(Y1SIGMA, "B", 3)
    module = GradedUModule(sub.maslov, sub.differential, u.matrix)
    assert module.block_multiplicities() == {
        (Fraction(6), 1): 1,
        (Fraction(6), 4): 1,
        (Fraction(-1), 1): 1,
    }
    # cutoff 3 + max M = 3 separates the real block at -1 from the artifacts
    assert module.reduced_dims(Fraction(3)) == {Fraction(-1): 1}


def test_u_matrix_composes_to_rank_powers():
    sub, u = build_plus_truncated(TREFOIL, "B", 3)
    module = GradedUModule(sub.maslov, sub.differential, u.matrix)
    for d in module.gradings():
        m = module.u_matrix(d)
        assert m.cols == len(module.reps[d])
        assert m.rows == len(module.reps.get(d - 2, []))


# ---------------------------------------------------------------------------
# the stabilization oracle, and reduced homology against it


def test_default_and_cap():
    assert default_truncation(TREFOIL) == 2 * 3 + 2
    assert truncation_cap(TREFOIL) == 4 * 3 + 2
    half = KnotComplex("0", (Generator("a", 0, Fraction(1, 2)),
                             Generator("b", 0, Fraction(-3, 2))))
    assert default_truncation(half) == 2 * 2 + 2  # Maslov spread 2


def test_stabilize_returns_first_agreeing_height():
    calls = []

    def compute(n):
        calls.append(n)
        return min(n, 8)

    result, n = stabilize(TREFOIL, compute)
    # default height 8 already agrees with height 9
    assert (result, n) == (8, 8)
    assert calls == [8, 9]


def test_stabilize_doubling_schedule():
    seen = []

    def compute(n):
        seen.append(n)
        return n

    with pytest.raises(TruncationUnstable):
        stabilize(TREFOIL, compute, start_n=1)
    # compares (n, n+1) at heights 1, 2, 4, 8; 16 exceeds the cap of 14
    assert seen == [1, 2, 2, 3, 4, 5, 8, 9]


def test_stabilize_agrees_mid_schedule():
    result, n = stabilize(TREFOIL, lambda k: min(k, 5), start_n=1)
    assert (result, n) == (5, 8)


def test_stabilize_unstable_raises():
    with pytest.raises(TruncationUnstable):
        stabilize(TREFOIL, lambda n: n)


def test_hf_red_values():
    assert hf_red_graded(UNKNOT) == {}
    assert hf_red_graded(TREFOIL) == {}
    assert hf_red_graded(TREFOIL_L) == {}
    assert hf_red_graded(FIGURE8) == {}
    assert hf_red_graded(Y1SIGMA) == {Fraction(-1): 1}


def test_hf_red_stable_two_past_the_stabilization_height():
    for c in ALL_FIXTURES:
        result, n = stabilize(c, lambda k: reduced_part_at(c, k))
        assert reduced_part_at(c, n + 2) == result == hf_red_graded(c)


def test_unstable_start_beyond_cap():
    c = KnotComplex("0", (Generator("a", 0, 0),))
    with pytest.raises(TruncationUnstable):
        stabilize(c, lambda n: n, start_n=truncation_cap(c) + 1)

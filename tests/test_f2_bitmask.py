"""The column-bitmask F2Matrix against dense list-of-lists arithmetic, and
the U-nilpotency check, also under `python -O`."""

import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import floercone
import floercone.cli
from floercone.linalg import (
    CompositionNonzero,
    F2Matrix,
    InvariantViolated,
    NotAChainMap,
    _combine,
    rank_f2,
)
from oracles import _check_nilpotent, dense_rank_f2, kernel_basis_f2, submatrix, vector_mask

SRC = Path(__file__).resolve().parents[1] / "src"

_rng = random.Random(0)
# 0 x n and n x 0 first, then random shapes
SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1)] + [
    (_rng.randint(1, 9), _rng.randint(1, 9)) for _ in range(16)]


def random_dense(rng, rows, cols, density=0.4):
    return [[int(rng.random() < density) for _ in range(cols)] for _ in range(rows)]


def positions(dense):
    return {(r, c) for r, row in enumerate(dense) for c, v in enumerate(row) if v}


def as_matrix(dense, cols):
    return F2Matrix(len(dense), cols, positions(dense))


def dense_mul(a, b, inner, cols):
    return [[sum(a[r][k] * b[k][c] for k in range(inner)) % 2 for c in range(cols)]
            for r in range(len(a))]


def cases(seed):
    rng = random.Random(seed)
    for rows, cols in SHAPES:
        yield rng, rows, cols, random_dense(rng, rows, cols)


def test_constructors_and_entries_match_dense():
    for rng, rows, cols, dense in cases(1):
        want = positions(dense)
        m = as_matrix(dense, cols)
        assert (m.rows, m.cols) == (rows, cols)
        assert m.entries == frozenset(want)
        assert F2Matrix.from_entries(rows, cols, sorted(want)) == m
        doubled = sorted(want) + sorted(want) + sorted(want)
        assert F2Matrix.from_toggles(rows, cols, doubled) == m
        assert all(m.entry(r, c) == bool(dense[r][c])
                   for r in range(rows) for c in range(cols))
        assert m.is_zero() == (not want)
        assert len(m.column_masks()) == cols
        assert rank_f2(m) == dense_rank_f2(dense)


def test_mul_matches_dense():
    for rng, rows, inner, a in cases(2):
        cols = rng.randint(0, 6)
        b = random_dense(rng, inner, cols)
        prod = as_matrix(a, inner).mul(as_matrix(b, cols))
        assert (prod.rows, prod.cols) == (rows, cols)
        assert prod.entries == frozenset(positions(dense_mul(a, b, inner, cols)))


def test_add_matches_dense():
    for rng, rows, cols, a in cases(3):
        b = random_dense(rng, rows, cols)
        total = as_matrix(a, cols) + as_matrix(b, cols)
        assert total.entries == frozenset(positions(a) ^ positions(b))
    with pytest.raises(ValueError):
        F2Matrix.zero(2, 3) + F2Matrix.zero(3, 2)


def test_apply_matches_dense():
    for rng, rows, cols, dense in cases(4):
        m = as_matrix(dense, cols)
        for _ in range(5):
            x = [rng.randint(0, 1) for _ in range(cols)]
            image = [sum(dense[r][c] * x[c] for c in range(cols)) % 2 for r in range(rows)]
            got = _combine(m.column_masks(), vector_mask(c for c in range(cols) if x[c]))
            assert got == vector_mask(r for r in range(rows) if image[r])


def test_transpose_and_row_masks_match_dense():
    for rng, rows, cols, dense in cases(5):
        m = as_matrix(dense, cols)
        t = m.transpose()
        assert (t.rows, t.cols) == (cols, rows)
        assert t.entries == frozenset((c, r) for r, c in positions(dense))
        assert m.row_masks() == [vector_mask(c for c in range(cols) if dense[r][c])
                                 for r in range(rows)]
        assert t.transpose() == m


def test_submatrix_matches_dense_with_full_and_partial_rows():
    for rng, rows, cols, dense in cases(6):
        m = as_matrix(dense, cols)
        col_idx = rng.sample(range(cols), rng.randint(0, cols))
        partial = rng.sample(range(rows), rng.randint(0, rows))
        for row_idx in (range(rows), list(range(rows)), partial):
            sub = submatrix(m, row_idx, col_idx)
            want = {(i, j) for i, r in enumerate(row_idx) for j, c in enumerate(col_idx)
                    if dense[r][c]}
            assert (sub.rows, sub.cols) == (len(row_idx), len(col_idx))
            assert sub.entries == frozenset(want)


def test_kernel_basis_matches_dense_rank():
    for rng, rows, cols, dense in cases(7):
        m = as_matrix(dense, cols)
        basis = kernel_basis_f2(m)
        assert len(basis) == cols - dense_rank_f2(dense)
        for vec in basis:
            assert all(sum(dense[r][c] for c in vec) % 2 == 0 for r in range(rows))


def test_equality_and_hash_follow_shape_and_masks():
    for rng, rows, cols, dense in cases(8):
        m = as_matrix(dense, cols)
        again = F2Matrix.from_entries(rows, cols, list(positions(dense)))
        assert m == again and hash(m) == hash(again)
        assert len({m, again}) == 1
        assert copy.copy(m) == m and pickle.loads(pickle.dumps(m)) == m
        if positions(dense):
            r, c = next(iter(positions(dense)))
            other = m + F2Matrix(rows, cols, {(r, c)})
            assert other != m
    # same (empty) entries, different shapes
    assert F2Matrix.zero(0, 3) != F2Matrix.zero(3, 0)
    assert F2Matrix.zero(2, 3) != F2Matrix.zero(3, 2)


def test_matrix_is_immutable_and_bounds_checked():
    m = F2Matrix.identity(2)
    with pytest.raises(AttributeError):
        m.rows = 3
    with pytest.raises(ValueError):
        F2Matrix(2, 2, {(0, 2)})
    with pytest.raises(ValueError):
        F2Matrix(2, 2, {(-1, 0)})
    with pytest.raises(ValueError):
        F2Matrix.zero(-1, 2)


def shift(size: int) -> F2Matrix:
    """U e_k = e_(k-1), U e_0 = 0: nilpotent of index exactly size."""
    return F2Matrix.from_entries(size, size, [(k - 1, k) for k in range(1, size)])


def test_nilpotency_check_uses_the_exact_power():
    for n in range(0, 12):
        _check_nilpotent(shift(n + 1), n)  # index n + 1: U^(n+1) = 0
        with pytest.raises(InvariantViolated):
            _check_nilpotent(shift(n + 2), n)  # index n + 2: U^(n+1) != 0


def test_nilpotency_check_survives_python_O():
    code = (
        "from floercone.linalg import F2Matrix, InvariantViolated\n"
        "from oracles import _check_nilpotent\n"
        "assert False, 'asserts are on'\n"
        "n = 5\n"
        "u = F2Matrix.from_entries(n + 2, n + 2, [(k - 1, k) for k in range(1, n + 2)])\n"
        "try:\n"
        "    _check_nilpotent(u, n)\n"
        "except InvariantViolated:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(Path(__file__).parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


@pytest.mark.parametrize("error", [InvariantViolated, NotAChainMap, CompositionNonzero])
def test_failed_checks_exit_2(monkeypatch, capsys, error):
    def broken(c, s):
        raise error("check failed")

    monkeypatch.setattr(floercone.cli, "cone_homology_hat", broken)
    trefoil = Path(floercone.__file__).parent / "data" / "trefoil.cfk"
    assert floercone.cli.main(["cone", str(trefoil)]) == 2
    assert "check failed" in capsys.readouterr().err

"""The hat flavor as the free F2[U] model read modulo U: its complexes and
maps against the plane-region oracle, every hat answer against the cone on
the full hat complexes and against the reduced models modulo U, the
clearing pass's homology bases against dense ranks, the hat cone as the
plus cone at height 0, one build of A_s, B, v and h per cone, bounded
memory at huge |s|, and the checks of the hat path and the clearing pass
under mutation (also under `python -O`)."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import floercone
from floercone.cli import main
from floercone.cone import (
    _a_modulo_u,
    _b_hat_dim,
    _hat_dim,
    _modulo_u_maps,
    _plus_reductions,
    cone_homology_hat,
    cone_homology_plus_truncated,
    ensure_flip,
    project_A,
)
from floercone.detect import VerdictKind, genus, sphere_necessary_conditions
from floercone.fixtures import ALL_FIXTURES, FIGURE8, TREFOIL
from floercone.linalg import F2Span, _combine
from floercone.model import ValidationError
from floercone.subquotient import _clearing, _descending, free_plus_complex
from floercone.twisted import twisted_homology_laurent

from corpus import (
    BIG_SUMS,
    TWISTED_SUMS,
    broken_trefoils,
    connected_sum,
    count_builds,
    lspace_staircase,
    mirror,
    run_on_broken_trefoils_under_python_O,
    staircase,
    tensor,
    torus_exponents,
    with_flip,
)
from oracles import (
    build_A_hat,
    build_B_hat,
    dense_rank_f2,
    filtered_hat_dim,
    hat_maps,
    maslov_offset,
    modulo_u,
    oracle_cone_homology_hat,
    oracle_genus,
    oracle_hat_from_reduced_models,
    oracle_hat_parts,
    oracle_hat_ranks,
    oracle_modulo_u_maps,
    oracle_necessary_conditions_witness,
    oracle_plus_reductions,
    plus_at_height_0,
    rank_f2_modulo,
)

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(floercone.__file__).parent / "data"
S_VALUES = range(-3, 4)


def cases():
    return (list(ALL_FIXTURES) + [flipped for _, flipped in with_flip()]
            + [staircase(20), tensor(tensor(TREFOIL, FIGURE8), TREFOIL)])


def complex_parts(sub, offset=0):
    """Basis, differential and gradings, the library's int gradings moved by offset."""
    return ([(e.generator, e.i) for e in sub.basis], sub.differential,
            tuple(offset + m for m in sub.maslov))


# ---------------------------------------------------------------------------
# production against the plane regions


def test_hat_parts_match_the_region_oracle():
    for c in cases():
        b, offset = build_B_hat(c), maslov_offset(c)
        for s in S_VALUES:
            want_a, want_b, want_v, want_h = oracle_hat_parts(c, s)
            v, h = hat_maps(c, s)
            assert complex_parts(build_A_hat(c, s), offset) == complex_parts(want_a), (c, s)
            assert complex_parts(b, offset) == complex_parts(want_b), c
            assert v.source == h.source == build_A_hat(c, s) and v.target == h.target == b
            for got, want in ((v, want_v), (h, want_h)):
                assert (got.matrix, got.maslov_shift) == (want.matrix, want.maslov_shift), (c, s)
            # A_s' is B for s' >= a_max, so the projection onto it is v
            assert project_A(c, s, max(s, c.a_max())).matrix == want_v.matrix, (c, s)


def test_ranks_genus_and_verdict_match_lifting_cycles_through_the_region_maps():
    """The ranks read off cone dimensions, genus and the prop0check verdict
    against the oracle that lifts cycles through the region-built maps."""
    sums = [connected_sum(name) for name in TWISTED_SUMS]
    for c in [f for _, f in with_flip()] + sums:
        for s in range(-c.a_bound() - 1, c.a_bound() + 2):
            res = cone_homology_hat(c, s)
            assert (res.rank_v, res.rank_h, res.rank_v_plus_h) == oracle_hat_ranks(c, s), (c, s)
        assert genus([c]) == oracle_genus([c]), c
        verdict, want = sphere_necessary_conditions([c]), oracle_necessary_conditions_witness([c])
        if want is None:
            assert verdict.kind is VerdictKind.FIRES, c
        else:
            assert (verdict.kind, verdict.witness) == (VerdictKind.DOES_NOT_FIRE, want), c


def assert_hat_equals_the_oracle(c, s_values):
    for s in s_values:
        assert cone_homology_hat(c, s) == oracle_cone_homology_hat(c, s), (c.spinc_label, s)


def every_s(c) -> range:
    return range(-c.a_bound() - 1, c.a_bound() + 2)


def assert_tables_and_rules_match_the_grading_filter(c):
    """A_s modulo U by rule (`cone._a_modulo_u`), B modulo U off the
    complex's table and v and h modulo U by rule (`cone._modulo_u_maps`),
    at every s in [-a_bound - 1, a_bound + 1], against the power-0 masks
    the grading filter reads off the full free models and maps
    (`oracle_modulo_u_maps`), and so prop0check's dim H(A_s) and dim H(B)
    modulo U (clause (c)) and the complexes of `project_A`; and B's echelon
    basis, with distinct top bits, against the span of B's columns modulo U."""
    c = ensure_flip(c)
    b = free_plus_complex(c)
    assert _b_hat_dim(c) == filtered_hat_dim(b.gradings, b.columns), c
    for s in every_s(c):
        a, want = free_plus_complex(c, s), oracle_modulo_u_maps(c, s)
        assert _modulo_u_maps(c, s, _a_modulo_u(c, s)) == want, (c, s)
        assert _hat_dim(_a_modulo_u(c, s).columns) == filtered_hat_dim(a.gradings, a.columns), (c, s)
        projection = project_A(c, s, s + 1)
        assert (projection.source, projection.target) == (want[0], oracle_modulo_u_maps(c, s + 1)[0]), (c, s)
    n, columns, span = len(c.generators), oracle_modulo_u_maps(c, 0)[1].columns, F2Span()
    for col in columns:
        span.add(col)
    basis = c._b_echelon
    assert len({x.bit_length() for x in basis}) == len(basis) == dense_rank_f2(
        [[col >> r & 1 for col in columns] for r in range(n)]), c
    assert all(x and span.contains(x) for x in basis), c


def test_tables_and_rules_match_the_grading_filter_on_the_fixtures():
    for c in ALL_FIXTURES:
        for k in (c, mirror(c)):
            assert_tables_and_rules_match_the_grading_filter(k)


@pytest.mark.parametrize("seed", range(1, 9))
def test_tables_and_rules_match_the_grading_filter_on_the_corpus_and_its_mirrors(seed):
    for _, c in with_flip(seed):
        for k in (c, mirror(c)):
            assert_tables_and_rules_match_the_grading_filter(k)


@pytest.mark.parametrize("name", TWISTED_SUMS + BIG_SUMS)
def test_tables_and_rules_match_the_grading_filter_on_the_sums_and_their_mirrors(name):
    c = connected_sum(name)
    for k in (c, mirror(c)):
        assert_tables_and_rules_match_the_grading_filter(k)


def test_hat_answers_equal_the_full_cone_on_the_fixtures_and_the_corpus():
    for c in list(ALL_FIXTURES) + [flipped for _, flipped in with_flip()]:
        assert_hat_equals_the_oracle(c, every_s(c))


@pytest.mark.parametrize("name", TWISTED_SUMS + BIG_SUMS)
def test_hat_answers_equal_the_full_cone_on_the_sums(name):
    c = connected_sum(name)
    assert_hat_equals_the_oracle(c, every_s(c))


@pytest.mark.slow
def test_hat_answers_equal_the_full_cone_on_a_1331_generator_sum():
    k = staircase(5)
    assert_hat_equals_the_oracle(tensor(tensor(k, k), k), (-1, 0, 1, 5))


def assert_hat_equals_the_reduced_models(c, s_values):
    for s in s_values:
        assert cone_homology_hat(c, s) == oracle_hat_from_reduced_models(c, s), (c.spinc_label, s)


@pytest.mark.parametrize("seed", range(1, 9))
def test_hat_equals_the_reduced_models_on_the_corpus_and_its_mirrors(seed):
    """The ranks of the cones modulo U against the reduced models modulo U,
    every field, graded_dims included."""
    for _, c in with_flip(seed):
        for k in (c, mirror(c)):
            assert_hat_equals_the_reduced_models(k, every_s(k))


@pytest.mark.parametrize("name", TWISTED_SUMS + BIG_SUMS)
def test_hat_equals_the_reduced_models_on_the_sums_and_their_mirrors(name):
    c = connected_sum(name)
    for k in (c, mirror(c)):
        assert_hat_equals_the_reduced_models(k, every_s(k))


def assert_clearing_gives_a_homology_basis(gradings, columns):
    """One clearing pass on a complex read modulo U (`_clearing`, in index
    order with columns in descending grading) against dense ranks: each
    pair's row vector is d of its column vector, the towers' vectors are
    cycles, n - 2 rank of them and independent modulo the boundaries, and
    the boundaries are rank many, in the image of d."""
    n = len(columns)
    basis, pairs, towers = _clearing(_descending(gradings), columns)
    cycles, boundaries = [basis[t] for t in towers], [basis[row] for _, row in pairs]
    rank = dense_rank_f2([[col >> r & 1 for col in columns] for r in range(n)])
    assert all(_combine(columns, basis[col]) == basis[row] for col, row in pairs)
    assert not any(_combine(columns, z) for z in cycles)
    assert (len(cycles), len(boundaries)) == (n - 2 * rank, rank)
    assert rank_f2_modulo(boundaries, columns) == 0
    assert rank_f2_modulo(cycles, boundaries) == len(cycles)


def assert_clearing_gives_homology_bases(c):
    """On B and on A_s at every s, read modulo U."""
    for free in [free_plus_complex(c)] + [free_plus_complex(c, s) for s in every_s(c)]:
        hat = modulo_u(free)
        assert_clearing_gives_a_homology_basis(hat.gradings, hat.columns)


def test_clearing_gives_homology_bases_on_the_fixtures_and_the_corpus():
    for c in list(ALL_FIXTURES) + [flipped for _, flipped in with_flip()]:
        assert_clearing_gives_homology_bases(c)


@pytest.mark.parametrize("name", TWISTED_SUMS + BIG_SUMS)
def test_clearing_gives_homology_bases_on_the_sums(name):
    assert_clearing_gives_homology_bases(connected_sum(name))


def sum_with_mirror(c):
    return tensor(c, mirror(c))


# (input, generators, {s: (total_dim, rank_v, rank_h, rank_v_plus_h)})
HAT_AT_SCALE = (
    ("T(2,5)^#3 # mirror", lambda: sum_with_mirror(tensor(tensor(staircase(2), staircase(2)), staircase(2))),
     15625, {0: (890, 1, 1, 0), 1: (862, 1, 0, 1)}),
    ("F8#T(4,5) # mirror", lambda: sum_with_mirror(tensor(FIGURE8, lspace_staircase(torus_exponents(4, 5)))),
     1225, {0: (66, 1, 1, 0), 1: (40, 1, 0, 1)}),
)


@pytest.mark.slow
@pytest.mark.parametrize("name, build, generators, want", HAT_AT_SCALE, ids=[h[0] for h in HAT_AT_SCALE])
def test_hat_equals_the_reduced_models_at_scale(name, build, generators, want):
    c = build()
    assert len(c.generators) == generators
    for s, numbers in want.items():
        got = cone_homology_hat(c, s)
        assert got == oracle_hat_from_reduced_models(c, s), (name, s)
        assert (got.total_dim, got.rank_v, got.rank_h, got.rank_v_plus_h) == numbers, (name, s)


def test_hat_cone_is_the_plus_cone_at_height_0():
    """Height 0, and auto mode past a_bound, answer with the hat cone, and
    the plus reductions modulo U read at height 0 give the same answer: the
    library's on the reduced models and the oracle's on the full ones."""
    for c in cases():
        for s in S_VALUES:
            want = replace(cone_homology_hat(c, s), flavor="plus", truncation=0)
            assert cone_homology_plus_truncated(c, s, 0) == want, (c, s)
            if abs(s) > c.a_bound():
                assert cone_homology_plus_truncated(c, s) == want, (c, s)
            for reductions in (_plus_reductions, oracle_plus_reductions):
                assert plus_at_height_0(c, s, reductions(c, s, 1)) == want, (c, s, reductions)


def test_each_cone_builds_A_B_v_and_h_once(monkeypatch):
    """Each hat-type cone builds A_s once and reads it, v and h modulo U once;
    B is read off the complex's tables, each built on first use and once
    per complex across every cone: the pencil at s = 0 never reads B's
    echelon basis."""
    c = replace(FIGURE8)  # a fresh copy: no table built yet
    built = count_builds(monkeypatch)
    first = {"_alexander_gradings": 1, "_b_modulo_u": 1}
    for build, s, tables in ((twisted_homology_laurent, 0, first), (cone_homology_hat, 1, {"_b_echelon": 1}),
                             (cone_homology_hat, 0, {}), (twisted_homology_laurent, -1, {})):
        built.clear()
        build(c, s)
        assert built == {s: 1, "a_modulo_u": 1, "maps": 1, **tables}, (build, s)


# ---------------------------------------------------------------------------
# s beyond a_bound + P


def test_maps_modulo_U_to_the_P_stop_changing_beyond_a_bound_plus_P():
    for c in ALL_FIXTURES + (staircase(3),):
        for sign in (1, -1):
            edge = sign * (c.a_bound() + 1)
            hat = [(m.source.differential, m.target.differential, m.matrix)
                   for m in hat_maps(c, edge)]
            for beyond in (1, 7, 40):
                s = edge + sign * beyond
                assert [(m.source.differential, m.target.differential, m.matrix)
                        for m in hat_maps(c, s)] == hat, (c, s)
            for precision in (1, 3, 6):
                edge = sign * (c.a_bound() + precision)
                dims = [[r.homology_dim(n) for n in range(precision)]
                        for r in _plus_reductions(c, edge, precision)]
                for beyond in (1, 7, 40):
                    reductions = _plus_reductions(c, edge + sign * beyond, precision)
                    assert [[r.homology_dim(n) for n in range(precision)]
                            for r in reductions] == dims, (c, edge + sign * beyond, precision)


HUGE_S = 10 ** 12


def peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("flags, precision", [
    ((), 1),
    (("--twisted",), 1),
    (("--flavor", "plus", "--truncation", "2"), 2 + 2),
    (("--flavor", "plus", "--truncation", "auto"), 1),  # v + h is I or the flip modulo U
])
def test_cone_at_huge_s_equals_the_value_past_a_bound_plus_P(capsys, flags, precision):
    trefoil = str(DATA / "trefoil.cfk")
    for s in (HUGE_S, -HUGE_S):
        peak = peak_bytes(lambda: main(["cone", trefoil, "--machine", "--s", str(s), *flags]))
        assert peak < 2 ** 20  # U^|s| alone would take |s| / 8 bytes
        huge = capsys.readouterr().out
        past = (1 if s > 0 else -1) * (TREFOIL.a_bound() + precision + 3)
        assert main(["cone", trefoil, "--machine", "--s", str(past), *flags]) == 0
        assert huge.replace(f'"s": {s},', f'"s": {past},') == capsys.readouterr().out


def test_public_builders_stay_bounded_at_huge_s():
    for s in (HUGE_S, -HUGE_S):
        for build in (lambda c, s: project_A(c, s, s), hat_maps, twisted_homology_laurent):
            assert peak_bytes(lambda: build(TREFOIL, s)) < 2 ** 20, (build, s)


# ---------------------------------------------------------------------------
# the hat path's checks


def test_corrupted_hat_map_terms_raise(tmp_path):
    """v and h are read off the input's terms, so a corrupted term is caught
    where the input is checked: ValidationError from the library, exit 2
    from the CLI."""
    path = tmp_path / "broken.cfk"
    for c, text in broken_trefoils():
        with pytest.raises(ValidationError):
            cone_homology_hat(c, 0)
        path.write_text(text)
        assert main(["cone", str(path), "--s", "0"]) == 2


def test_hat_path_checks_survive_python_O(tmp_path):
    code = (
        "import contextlib, io, sys\n"
        "import floercone.cone as cone\n"
        "from floercone.cli import main\n"
        "from floercone.model import ValidationError\n"
        "from corpus import broken_trefoils\n"
        "assert False, 'asserts are on'\n"
        "for c, _ in broken_trefoils():\n"
        "    try:\n"
        "        cone.cone_homology_hat(c, 0)\n"
        "    except ValidationError:\n"
        "        print('raised')\n"
        "for path in sys.argv[1:]:\n"
        "    with contextlib.redirect_stderr(io.StringIO()):\n"
        "        print(main(['cone', path, '--s', '0']))\n"
    )
    out = run_on_broken_trefoils_under_python_O(code, tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised", "raised", "2", "2"]


def run_under_python_O(code: str) -> subprocess.CompletedProcess:
    """Runs code under python -O, with the library and the test helpers importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(Path(__file__).parent),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


def test_pencil_cycle_check_survives_python_O():
    """The pencil at s = 0 projects the image of each cycle of A_0 onto the
    homology basis of B, and the projection reports any coordinate on a
    pair's column end, which a cycle has none of; so a map that sends a
    cycle off the cycles is caught there, with the library's asserts
    stripped: by the twisted group of the figure-eight at s = 0 and by
    prop0check's clause (b) on Y1SIGMA # T(2,3).  Every column of h gains
    the first basis element of B that is no cycle modulo U."""
    code = (
        "import floercone.cone as cone\n"
        "from corpus import connected_sum\n"
        "from floercone.detect import sphere_necessary_conditions\n"
        "from floercone.fixtures import FIGURE8\n"
        "from floercone.linalg import InvariantViolated\n"
        "from floercone.twisted import twisted_homology_laurent\n"
        "assert False, 'asserts are on'\n"
        "real = cone._modulo_u_maps\n"
        "def broken(c, s, a):\n"
        "    a, b, v, h = real(c, s, a)\n"
        "    r = next(r for r, col in enumerate(b.columns) if col)\n"
        "    return a, b, v, tuple(col | 1 << r for col in h)\n"
        "sum_ = connected_sum('Y1+T2_3')\n"
        "print(twisted_homology_laurent(FIGURE8, 0).laurent_free_rank)\n"
        "print(sphere_necessary_conditions([sum_]).witness['clause'])\n"
        "cone._modulo_u_maps = broken\n"
        "for run in (lambda: twisted_homology_laurent(FIGURE8, 0),\n"
        "            lambda: sphere_necessary_conditions([sum_])):\n"
        "    try:\n"
        "        run()\n"
        "    except InvariantViolated as e:\n"
        "        print('raised' if 'off the cycles' in str(e) else e)\n"
    )
    out = run_under_python_O(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["2", "b", "raised", "raised"]


def test_clearing_check_survives_python_O():
    """A clearing pass that skips a column which is no pivot row, here the
    first column it meets, is caught by its count of towers and pairs, with
    the library's asserts stripped: on the twisted group of Y1SIGMA at
    s = 0, on prop0check over Y1SIGMA # T(2,3), on the plus cone of Y1SIGMA
    at s = 0 and on its reduced homology.  The fault is made in a copy of
    `_clearing` compiled from its source."""
    code = (
        "import inspect, textwrap\n"
        "import floercone.subquotient as subquotient\n"
        "from corpus import connected_sum\n"
        "from floercone.cone import cone_homology_plus_truncated\n"
        "from floercone.detect import sphere_necessary_conditions\n"
        "from floercone.fixtures import Y1SIGMA\n"
        "from floercone.linalg import InvariantViolated\n"
        "from floercone.twisted import twisted_homology_laurent\n"
        "assert False, 'asserts are on'\n"
        "source = textwrap.dedent(inspect.getsource(subquotient._clearing))\n"
        "clearing = 'if j in basis:'\n"
        "print(source.count(clearing))\n"
        "namespace = dict(vars(subquotient))\n"
        "exec(source.replace(clearing, 'if j in basis or j == order[0]:'), namespace)\n"
        "subquotient._clearing = namespace['_clearing']\n"
        "for run in (lambda: twisted_homology_laurent(Y1SIGMA, 0),\n"
        "            lambda: sphere_necessary_conditions([connected_sum('Y1+T2_3')]),\n"
        "            lambda: cone_homology_plus_truncated(Y1SIGMA, 0),\n"
        "            lambda: subquotient.hf_red_graded(Y1SIGMA)):\n"
        "    try:\n"
        "        run()\n"
        "    except InvariantViolated as e:\n"
        "        print('raised' if 'no pivot row' in str(e) else e)\n"
    )
    out = run_under_python_O(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1", "raised", "raised", "raised", "raised"]


def test_hat_cone_rank_check_survives_python_O():
    """The hat cone reads each induced rank off a cone's rank by
    `_rank_nullity`, which checks it.  A cone rank one too high is still
    caught, with the library's asserts stripped, at s = 0 and s = 1."""
    code = (
        "import floercone.cone as cone\n"
        "from floercone.fixtures import Y1SIGMA\n"
        "from floercone.linalg import InvariantViolated\n"
        "assert False, 'asserts are on'\n"
        "real = cone.rank_f2\n"
        "print(cone.cone_homology_hat(Y1SIGMA, 1).rank_v_plus_h)\n"
        "cone.rank_f2 = lambda m: real(m) + (m.rows != m.cols)  # the cones, not A_s\n"
        "for s in (0, 1):\n"
        "    try:\n"
        "        cone.cone_homology_hat(Y1SIGMA, s)\n"
        "    except InvariantViolated as e:\n"
        "        print('raised' if 'no valid rank' in str(e) else e)\n"
    )
    out = run_under_python_O(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["3", "raised", "raised"]

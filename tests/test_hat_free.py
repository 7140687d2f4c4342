"""The hat flavor as the free F2[U] model read modulo U: its complexes and
maps against the plane-region oracle, the hat cone as the plus cone at
height 0, one build of A_s, B, v and h per cone, bounded memory at huge
|s|, and the checks of the hat path under mutation (also under `python -O`)."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import floercone
import floercone.cone as cone_module
from floercone.cli import main
from floercone.cone import (
    _hat_maps,
    _plus_reductions,
    build_v_hat,
    cone_homology_hat,
    cone_homology_plus_truncated,
)
from floercone.fixtures import ALL_FIXTURES, FIGURE8, TREFOIL
from floercone.linalg import InvariantViolated, NotAChainMap
from floercone.subquotient import build_A_hat, build_B_hat
from floercone.twisted import build_twisted_cone

from corpus import staircase, tensor, with_flip
from oracles import oracle_hat_parts

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(floercone.__file__).parent / "data"
S_VALUES = range(-3, 4)


def cases():
    return (list(ALL_FIXTURES) + [flipped for _, flipped in with_flip()]
            + [staircase(20), tensor(tensor(TREFOIL, FIGURE8), TREFOIL)])


def complex_parts(sub):
    return ([(e.generator, e.i) for e in sub.basis], sub.differential, sub.maslov)


# ---------------------------------------------------------------------------
# production against the plane regions


def test_hat_parts_match_the_region_oracle():
    for c in cases():
        b = build_B_hat(c)
        for s in S_VALUES:
            want_a, want_b, want_v, want_h = oracle_hat_parts(c, s)
            v, h = _hat_maps(c, s)
            assert complex_parts(build_A_hat(c, s)) == complex_parts(want_a), (c, s)
            assert complex_parts(b) == complex_parts(want_b), c
            assert v.source == h.source == build_A_hat(c, s) and v.target == h.target == b
            for got, want in ((v, want_v), (h, want_h), (build_v_hat(c, s), want_v)):
                assert (got.matrix, got.maslov_shift) == (want.matrix, want.maslov_shift), (c, s)


def test_hat_cone_is_the_plus_cone_at_height_0():
    fields = ("s", "total_dim", "rank_v", "rank_h", "rank_v_plus_h", "graded_dims")
    for c in cases():
        for s in S_VALUES:
            hat, plus = cone_homology_hat(c, s), cone_homology_plus_truncated(c, s, 0)
            assert [getattr(hat, f) for f in fields] == [getattr(plus, f) for f in fields]


def test_each_cone_builds_A_B_v_and_h_once(monkeypatch):
    calls = []
    for name in ("free_plus_complex", "free_chain_map"):
        counted = (lambda *args, _f=getattr(cone_module, name), _name=name:
                   calls.append(_name) or _f(*args))
        monkeypatch.setattr(cone_module, name, counted)
    for build in (cone_homology_hat, build_twisted_cone):
        calls.clear()
        build(FIGURE8, 1)
        assert sorted(calls) == ["free_chain_map"] * 2 + ["free_plus_complex"] * 2, build


# ---------------------------------------------------------------------------
# s beyond a_bound + P


def test_maps_modulo_U_to_the_P_stop_changing_beyond_a_bound_plus_P():
    for c in ALL_FIXTURES + (staircase(3),):
        for sign in (1, -1):
            edge = sign * (c.a_bound() + 1)
            hat = [(m.source.differential, m.target.differential, m.matrix)
                   for m in _hat_maps(c, edge)]
            for beyond in (1, 7, 40):
                s = edge + sign * beyond
                assert [(m.source.differential, m.target.differential, m.matrix)
                        for m in _hat_maps(c, s)] == hat, (c, s)
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
        for build in (build_v_hat, _hat_maps, build_twisted_cone):
            assert peak_bytes(lambda: build(TREFOIL, s)) < 2 ** 20, (build, s)


# ---------------------------------------------------------------------------
# the hat path's checks


def test_corrupted_hat_map_terms_raise(monkeypatch):
    original = cone_module.free_chain_map

    def shifted(a, b, terms, degree, precision):  # one U-power off by one: gradings break
        col, row, k = terms[0]
        return original(a, b, [(col, row, k + 1)] + list(terms[1:]), degree, precision)

    def dropped(a, b, terms, degree, precision):  # v or h loses a term: not a chain map
        return original(a, b, list(terms[1:]), degree, precision)

    monkeypatch.setattr(cone_module, "free_chain_map", shifted)
    with pytest.raises(InvariantViolated):
        cone_homology_hat(TREFOIL, 0)
    monkeypatch.setattr(cone_module, "free_chain_map", dropped)
    with pytest.raises(NotAChainMap):
        cone_homology_hat(TREFOIL, 0)


def test_hat_path_checks_survive_python_O():
    code = (
        "import floercone.cone as cone\n"
        "from floercone.fixtures import TREFOIL\n"
        "from floercone.linalg import InvariantViolated, NotAChainMap\n"
        "assert False, 'asserts are on'\n"
        "original = cone.free_chain_map\n"
        "cone.free_chain_map = lambda a, b, terms, *rest: original(a, b, terms[1:], *rest)\n"
        "try:\n"
        "    cone.cone_homology_hat(TREFOIL, 0)\n"
        "except (NotAChainMap, InvariantViolated):\n"
        "    print('raised')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"

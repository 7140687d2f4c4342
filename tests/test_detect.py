"""Verdict-producing detectors: spheres, unknotting, genus, Alexander."""

import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import floercone
from floercone.detect import (
    NotHomologySphere,
    Verdict,
    VerdictKind,
    alexander_polynomial,
    genus,
    hf_red_obstruction,
    sphere_necessary_conditions,
    sphere_obstruction,
    unknotting_verdict,
)
from floercone.fixtures import ALL_FIXTURES, FIGURE8, TREFOIL, TREFOIL_L, UNKNOT, Y1SIGMA
from floercone.linalg import LaurentPoly
from floercone.subquotient import hf_red_graded

from corpus import (
    BIG_SUMS,
    TABLES,
    TWISTED_SUMS,
    connected_sum,
    count_builds,
    mirror,
    staircase,
    tensor,
    with_flip,
)
from oracles import oracle_genus, oracle_necessary_conditions_witness

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(floercone.__file__).parent / "data"

NAMED = dict(zip(["UNKNOT", "TREFOIL", "TREFOIL_L", "Y1SIGMA", "FIGURE8"], ALL_FIXTURES))


def test_verdict_requires_witness_outside_inconclusive():
    with pytest.raises(ValueError):
        Verdict(VerdictKind.FIRES, "statement", None)
    Verdict(VerdictKind.INCONCLUSIVE, "statement", None)  # allowed


def test_detectors_reject_empty_input():
    with pytest.raises(ValueError):
        sphere_obstruction([])
    with pytest.raises(ValueError):
        genus([])


# ---------------------------------------------------------------------------
# sphere obstruction (twisted vanishing)


def test_sphere_obstruction_unknot_does_not_fire():
    v = sphere_obstruction([UNKNOT])
    assert v.kind is VerdictKind.DOES_NOT_FIRE
    assert v.witness == {"s_bound": 0, "spinc_covered": ["0"]}


def test_sphere_obstruction_trefoil_fires_at_zero():
    v = sphere_obstruction([TREFOIL])
    assert v.kind is VerdictKind.FIRES
    assert v.witness == {"spinc": "0", "s": 0, "novikov_dim": 2, "s_bound": 1}


def test_sphere_obstruction_mirror_fires():
    assert sphere_obstruction([TREFOIL_L]).kind is VerdictKind.FIRES
    assert sphere_obstruction([FIGURE8]).kind is VerdictKind.FIRES


def test_sphere_obstruction_y1sigma_does_not_fire():
    assert sphere_obstruction([Y1SIGMA]).kind is VerdictKind.DOES_NOT_FIRE


def test_sphere_obstruction_multiple_spinc():
    v = sphere_obstruction([UNKNOT, TREFOIL])
    assert v.kind is VerdictKind.FIRES
    assert v.witness["s"] == 0


# ---------------------------------------------------------------------------
# necessary-condition bundle


def test_necessary_conditions_unknot_fires():
    v = sphere_necessary_conditions([UNKNOT])
    assert v.kind is VerdictKind.FIRES
    assert v.witness == {"s_bound": 0, "spinc_covered": ["0"]}


def test_necessary_conditions_y1sigma_fires():
    assert sphere_necessary_conditions([Y1SIGMA]).kind is VerdictKind.FIRES


def test_necessary_conditions_trefoil_clause_b():
    v = sphere_necessary_conditions([TREFOIL])
    assert v.kind is VerdictKind.DOES_NOT_FIRE
    assert v.witness == {
        "clause": "b", "s": 0, "spinc": "0", "novikov_dim": 2}


def test_necessary_conditions_mirror_clause_c():
    v = sphere_necessary_conditions([TREFOIL_L])
    assert v.kind is VerdictKind.DOES_NOT_FIRE
    assert v.witness == {
        "clause": "c", "s": 0, "spinc": "0", "dim_A": 3, "dim_B": 1}


def test_necessary_conditions_figure8_clause_c():
    v = sphere_necessary_conditions([FIGURE8])
    assert v.witness["clause"] == "c" and v.witness["s"] == 0


def passes_every_clause_up_to_2():
    """A corpus complex that passes every clause for |s| <= 2."""
    return next(f for _, f in with_flip() if f.a_bound() == 2
                and sphere_necessary_conditions([f]).kind is VerdictKind.FIRES)


def test_necessary_conditions_build_B_once_and_A_s_once_per_s(monkeypatch):
    """B is never built: clause (c) and the cones read B's tables, each built
    once per complex across the whole scan.  A_s is built and read modulo U
    once per s, for all three clauses, and clauses (a) and (b) read v and h
    modulo U once per s, s = 0 included."""
    c = replace(passes_every_clause_up_to_2())  # a fresh copy: no table built yet
    built = count_builds(monkeypatch)
    assert sphere_necessary_conditions([c]).kind is VerdictKind.FIRES
    assert built == {"maps": 5, "a_modulo_u": 5, **{s: 1 for s in range(-2, 3)}, **dict.fromkeys(TABLES, 1)}


def test_necessary_conditions_build_no_map_where_clause_c_fails(monkeypatch):
    built = count_builds(monkeypatch)
    assert sphere_necessary_conditions([replace(TREFOIL_L)]).witness["clause"] == "c"
    assert built == {0: 1, "a_modulo_u": 1, **dict.fromkeys(TABLES, 1)}


def test_necessary_conditions_read_A_s_modulo_U_once_per_s(monkeypatch):
    """T(2,31) # mT(2,31) passes clauses (c) and (b) at s = 0 and fails (c)
    at s = 1: A_0 and A_1 are each read modulo U once, A_0 for both clauses."""
    c = tensor(staircase(15), mirror(staircase(15)))
    built = count_builds(monkeypatch)
    assert sphere_necessary_conditions([c]).witness == {
        "clause": "c", "s": 1, "spinc": "0", "dim_A": 31, "dim_B": 1}
    assert built == {0: 1, 1: 1, "a_modulo_u": 2, "maps": 1, **dict.fromkeys(TABLES, 1)}


def labelled(complexes) -> list:
    """The complexes with distinct Spin^c labels, "0", "1", ..."""
    return [replace(c, spinc_label=str(k)) for k, c in enumerate(complexes)]


def assert_necessary_conditions_match_the_oracle(complexes):
    verdict, want = sphere_necessary_conditions(complexes), oracle_necessary_conditions_witness(complexes)
    if want is None:
        assert verdict.kind is VerdictKind.FIRES, complexes
    else:
        assert (verdict.kind, verdict.witness) == (VerdictKind.DOES_NOT_FIRE, want), complexes
    return want


def test_necessary_conditions_on_several_complexes_match_the_oracle():
    """Clause (c) runs over every complex at s before (a) or (b) runs on any,
    and the scan goes s = 0, 1, -1, ... over all of them."""
    sums = {name: connected_sum(name) for name in TWISTED_SUMS}
    # TREFOIL fails (b) at s = 0, but TREFOIL_L fails (c) there, which runs first
    want = assert_necessary_conditions_match_the_oracle(labelled([TREFOIL, TREFOIL_L]))
    assert (want["clause"], want["s"], want["spinc"]) == ("c", 0, "1")
    # T2_5+mT2_5 passes every clause at s = 0 and fails (c) at s = 1
    want = assert_necessary_conditions_match_the_oracle(
        labelled([UNKNOT, sums["T2_5+mT2_5"], Y1SIGMA]))
    assert (want["clause"], want["s"], want["spinc"]) == ("c", 1, "1")
    pool = (list(ALL_FIXTURES) + list(sums.values())
            + [f for seed in range(1, 9) for _, f in with_flip(seed)[::12]])
    rng, seen = random.Random(20), set()
    for _ in range(60):
        want = assert_necessary_conditions_match_the_oracle(
            labelled(rng.sample(pool, rng.choice((2, 3)))))
        seen.add(want and (want["clause"], want["spinc"]))
    assert {None, ("b", "1"), ("c", "1"), ("c", "2")} <= seen


def test_necessary_conditions_refuse_broken_inputs_under_python_O(tmp_path):
    """With the library's asserts stripped, a fault that breaks d-squared (d a
    dropped from FIGURE8) and one that breaks maslov-drop alone (d y raised
    to U^2 in Y1SIGMA) are still refused by prop0check and genus, in the
    library and in the CLI (exit 2): A_s and B are built unchecked from what
    `validate` proves."""
    faults = (("figure8.cfk", "d a : U^0 b\n", ""), ("y1sigma.cfk", "d y : U^1 z", "d y : U^2 z"))
    paths = [tmp_path / name for name, *_ in faults]
    for path, (name, old, new) in zip(paths, faults):
        text = (DATA / name).read_text()
        assert old in text, name
        path.write_text(text.replace(old, new, 1))
    code = (
        "import contextlib, io, sys\n"
        "from dataclasses import replace\n"
        "from floercone.cli import main\n"
        "from floercone.detect import genus, sphere_necessary_conditions\n"
        "from floercone.fixtures import FIGURE8, Y1SIGMA\n"
        "from floercone.model import ValidationError\n"
        "assert False, 'asserts are on'\n"
        "broken = (\n"
        "    replace(FIGURE8, differential=[t for t in FIGURE8.differential if t.source != 'a']),\n"
        "    replace(Y1SIGMA, differential=[t._replace(u_power=2) for t in Y1SIGMA.differential]))\n"
        "for detector in (sphere_necessary_conditions, genus):\n"
        "    for c in broken:\n"
        "        try:\n"
        "            detector([c])\n"
        "        except ValidationError as e:\n"
        "            print(','.join(sorted({v.kind for v in e.report.violations})))\n"
        "for command in ('prop0check', 'genus'):\n"
        "    for path in sys.argv[1:]:\n"
        "        with contextlib.redirect_stderr(io.StringIO()):\n"
        "            print(main([command, path]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", code, *map(str, paths)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["d-squared,flip-chain-map", "maslov-drop"] * 2 + ["2"] * 4


def test_obstruction_containment_on_fixtures():
    # wherever the necessary conditions all hold, the twisted test is silent
    for c in ALL_FIXTURES:
        if sphere_necessary_conditions([c]).kind is VerdictKind.FIRES:
            assert sphere_obstruction([c]).kind is VerdictKind.DOES_NOT_FIRE


# ---------------------------------------------------------------------------
# dimension-comparison verdict


def test_unknotting_trichotomy():
    v = unknotting_verdict(1, 1)
    assert v.kind is VerdictKind.FIRES and v.witness["outcome"] == "unknotted"
    assert "unknotted" in v.statement

    v = unknotting_verdict(5, 3)
    assert v.kind is VerdictKind.INCONCLUSIVE
    assert v.witness["outcome"] == "inconclusive"

    v = unknotting_verdict(3, 5)
    assert v.kind is VerdictKind.FIRES and v.witness["outcome"] == "impossible"
    assert "no such surgery" in v.statement


def test_unknotting_rejects_nonpositive_dims():
    with pytest.raises(ValueError):
        unknotting_verdict(0, 1)
    with pytest.raises(ValueError):
        unknotting_verdict(1, 0)


# ---------------------------------------------------------------------------
# genus and Alexander polynomial


def test_genus_values():
    for name, want in [("UNKNOT", 0), ("TREFOIL", 1), ("TREFOIL_L", 1),
                       ("Y1SIGMA", 0), ("FIGURE8", 1)]:
        assert genus([NAMED[name]]) == want, name


def test_genus_over_several_spinc_takes_worst():
    assert genus([UNKNOT, TREFOIL]) == 1
    assert genus([Y1SIGMA, UNKNOT]) == 0


def test_genus_bounded_by_a_max():
    for c in ALL_FIXTURES:
        assert 0 <= genus([c]) <= c.a_max()


def test_genus_equals_lifting_cycles_on_the_corpus_and_the_sums():
    """Seeds 1-8 and the connected sums, one complex at a time and in lists."""
    pool = ([f for seed in range(1, 9) for _, f in with_flip(seed)]
            + [connected_sum(name) for name in TWISTED_SUMS + BIG_SUMS])
    for c in pool:
        assert genus([c]) == oracle_genus([c]), c
    rng = random.Random(21)
    for _ in range(40):
        complexes = labelled(rng.sample(pool, rng.choice((2, 3))))
        assert genus(complexes) == oracle_genus(complexes), complexes


def test_genus_builds_B_once_and_each_A_i_at_most_once(monkeypatch):
    """The scan runs down from a_max - 1 to the first i where v_i fails; it
    reads B's tables, built once per complex, and builds A_i and reads v_i
    modulo U once for each i it reaches."""
    acyclic = next(f for _, f in with_flip() if genus([f]) == 0 and f.a_max() == 2)
    cases = [(acyclic, 0), (staircase(3), 3), (tensor(staircase(1), acyclic), 1)]
    built = count_builds(monkeypatch)
    for c, g in cases:
        built.clear()
        c = replace(c)  # a fresh copy: no table built yet
        assert genus([c]) == g
        scanned = range(max(g - 1, 0), c.a_max())
        assert built == {"maps": len(scanned), "a_modulo_u": len(scanned), **{i: 1 for i in scanned},
                         **dict.fromkeys(TABLES, 1)}, g


@pytest.mark.slow
def test_genus_of_t2_7_cubed_equals_lifting_cycles():
    k = staircase(3)
    c = tensor(tensor(k, k), k)
    assert genus([c]) == oracle_genus([c]) == 9


@pytest.mark.slow
def test_genus_is_additive_on_big_sums():
    k = staircase(2)
    c = tensor(tensor(tensor(tensor(k, k), k), k), k)
    assert len(c.generators) == 3125 and genus([c]) == 10
    k = staircase(5)
    c = tensor(tensor(k, k), k)
    for complexes in ([c, mirror(c)], [mirror(c), c]):
        assert genus(complexes) == 15


ALEX = {
    "UNKNOT": ([0], True),
    "TREFOIL": ([-1, 0, 1], False),
    "TREFOIL_L": ([-1, 0, 1], False),
    "Y1SIGMA": ([0], True),
    "FIGURE8": ([-1, 0, 1], False),
}


def test_alexander_fixture_table():
    for name, (exps, trivial) in ALEX.items():
        res = alexander_polynomial(NAMED[name])
        assert res.polynomial == LaurentPoly.from_exponents(exps), name
        assert res.trivial_mod_2 == trivial, name


def test_alexander_symmetric_support():
    for c in ALL_FIXTURES:
        p = alexander_polynomial(c).polynomial
        assert p.support == frozenset(-e for e in p.support)


def test_alexander_mod2_shortcut():
    # coefficient at T^j has the parity of the number of generators at A = j
    for c in ALL_FIXTURES:
        p = alexander_polynomial(c).polynomial
        gradings = {g.alexander for g in c.generators}
        for j in gradings | {e for e in p.support}:
            count = sum(1 for g in c.generators if g.alexander == j)
            assert ((j in p.support) == bool(count % 2)), (c.spinc_label, j)


# ---------------------------------------------------------------------------
# reduced-homology obstruction


def test_red_obstruction_requires_certificate():
    with pytest.raises(NotHomologySphere):
        hf_red_obstruction({Fraction(-1): 1})


def test_red_obstruction_empty_does_not_fire():
    v = hf_red_obstruction({}, homology_sphere=True)
    assert v.kind is VerdictKind.DOES_NOT_FIRE


def test_red_obstruction_dimension_two_does_not_fire():
    v = hf_red_obstruction({Fraction(-1): 2}, homology_sphere=True)
    assert v.kind is VerdictKind.DOES_NOT_FIRE
    assert v.witness == {"graded": {Fraction(-1): 2}}


def test_red_obstruction_fires_on_single_copy():
    v = hf_red_obstruction({Fraction(-1): 1, Fraction(3): 2}, homology_sphere=True)
    assert v.kind is VerdictKind.FIRES
    assert v.witness["grading"] == Fraction(-1)


def test_red_obstruction_y1sigma_pipeline():
    red = hf_red_graded(Y1SIGMA)
    v = hf_red_obstruction(red, homology_sphere=True)
    assert v.kind is VerdictKind.FIRES
    assert v.witness == {"grading": Fraction(-1), "graded": {Fraction(-1): 1}}

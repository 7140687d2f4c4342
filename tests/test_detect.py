"""Verdict-producing detectors: spheres, unknotting, genus, Alexander."""

from collections import Counter
from fractions import Fraction

import pytest

import floercone.cone as cone_module
import floercone.subquotient as subquotient
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

from corpus import with_flip

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


def test_necessary_conditions_build_A_s_and_B_twice_per_s(monkeypatch):
    """Clauses (c) and (a) each build A_s and B once; clause (b) reuses the
    maps of clause (a), and builds its own only at s = 0, where (a) is skipped."""
    c = next(f for _, f in with_flip() if f.a_bound() == 2
             and sphere_necessary_conditions([f]).kind is VerdictKind.FIRES)
    built = Counter()
    for module in (subquotient, cone_module):
        monkeypatch.setattr(module, "free_plus_complex", lambda c, s=None, _f=module.free_plus_complex:
                            built.update([s]) or _f(c, s))
    assert sphere_necessary_conditions([c]).kind is VerdictKind.FIRES
    assert built == {None: 10, **{s: 2 for s in range(-2, 3)}}


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

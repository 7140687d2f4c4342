"""Model validation, flip search, and plane-element bookkeeping."""

from dataclasses import replace
from fractions import Fraction

import pytest

from floercone.fixtures import ALL_FIXTURES, FIGURE8, TREFOIL, UNKNOT, Y1SIGMA
from floercone.model import (
    DiffTerm,
    FlipTerm,
    Generator,
    KnotComplex,
    NoFlipFound,
    PlaneElement,
    ValidationError,
    derive_flip,
    enumerate_flips,
    lattice_window,
    plane_position,
    require_valid,
    validate,
)

from oracles import plane_maslov


def kinds(c) -> set:
    return {v.kind for v in validate(c).violations}


def test_fixtures_validate():
    for c in ALL_FIXTURES:
        assert validate(c).ok, validate(c)


def test_generator_coerces_maslov():
    g = Generator("a", 0, 1)
    assert g.maslov == Fraction(1)
    with pytest.raises(TypeError):
        Generator("a", Fraction(1, 2), Fraction(0))


def test_duplicate_name_detected_and_stops():
    c = KnotComplex("0", (Generator("a", 0, 0), Generator("a", 1, 1)))
    assert kinds(c) == {"duplicate-name"}


def test_unknown_generator():
    c = KnotComplex("0", (Generator("a", 0, 0),),
                    (DiffTerm("a", "ghost", 0),))
    assert "unknown-generator" in kinds(c)


def test_duplicate_term():
    c = KnotComplex("0",
                    (Generator("a", 0, 0), Generator("b", 0, 1)),
                    (DiffTerm("b", "a", 0), DiffTerm("b", "a", 0)))
    assert "duplicate-term" in kinds(c)


def test_negative_u_power():
    c = KnotComplex("0",
                    (Generator("a", 0, 1), Generator("b", 0, 0)),
                    (DiffTerm("b", "a", -1),))
    assert "negative-u-power" in kinds(c)


def test_filtration_violation():
    # n = 0 but A rises by 1; M arranged so only the filtration rule trips
    c = KnotComplex("0",
                    (Generator("a", 1, -1), Generator("b", 0, 0)),
                    (DiffTerm("b", "a", 0),))
    assert kinds(c) == {"filtration"}


def test_maslov_drop_violation():
    c = KnotComplex("0",
                    (Generator("a", 0, 0), Generator("b", 0, 0)),
                    (DiffTerm("b", "a", 0),))
    assert kinds(c) == {"maslov-drop"}


def test_d_squared_violation():
    gens = (Generator("a", 0, 2), Generator("b", 0, 1), Generator("c", 0, 0))
    c = KnotComplex("0", gens,
                    (DiffTerm("a", "b", 0), DiffTerm("b", "c", 0)))
    assert "d-squared" in kinds(c)


def test_flip_term_wrong_power():
    c = KnotComplex("0", (Generator("a", 0, 0),), (),
                    (FlipTerm("a", "a", 1),))
    assert "flip-term" in kinds(c)


def test_flip_not_invertible():
    gens = (Generator("a", 0, 0), Generator("b", 0, 0))
    flip = (FlipTerm("a", "a", 0), FlipTerm("b", "a", 0))
    assert "flip-not-invertible" in kinds(KnotComplex("0", gens, (), flip))


def test_flip_chain_map_violation():
    # swap kills the differential's asymmetry between x and z
    gens = (Generator("x", 0, 0), Generator("y", 0, -1), Generator("z", 0, 0))
    diff = (DiffTerm("y", "z", 1),)
    flip = (FlipTerm("x", "z", 0), FlipTerm("y", "y", 0), FlipTerm("z", "x", 0))
    assert "flip-chain-map" in kinds(KnotComplex("0", gens, diff, flip))


def test_require_valid_raises_with_report():
    c = KnotComplex("bad", (Generator("a", 0, 0), Generator("b", 0, 0)),
                    (DiffTerm("b", "a", 0),))
    with pytest.raises(ValidationError) as err:
        require_valid(c)
    assert err.value.label == "bad"
    assert not err.value.report.ok


# ---------------------------------------------------------------------------
# flip search


def test_derive_flip_matches_trefoil_fixture():
    bare = replace(TREFOIL, flip=None)
    assert derive_flip(bare).flip == TREFOIL.flip


def test_derive_flip_rejects_present_flip():
    with pytest.raises(ValueError):
        derive_flip(TREFOIL)


def test_derive_flip_no_candidate():
    c = KnotComplex("0", (Generator("a", 1, 0),))
    with pytest.raises(NoFlipFound):
        derive_flip(c)


def test_derive_flip_prefers_lexicographic():
    # two interchangeable A = 0 generators: identity comes first
    c = KnotComplex("0", (Generator("p", 0, 0), Generator("q", 0, 0)))
    flipped = derive_flip(c)
    assert flipped.flip == (FlipTerm("p", "p", 0), FlipTerm("q", "q", 0))


def test_enumerate_flips_unique_for_fixtures():
    for c in ALL_FIXTURES:
        bare = replace(c, flip=None)
        assert enumerate_flips(bare) == [c.flip]


def test_enumerate_flips_finds_both_bijections():
    c = KnotComplex("0", (Generator("p", 0, 0), Generator("q", 0, 0)))
    flips = enumerate_flips(c)
    assert len(flips) == 2
    assert (FlipTerm("p", "p", 0), FlipTerm("q", "q", 0)) in flips
    assert (FlipTerm("p", "q", 0), FlipTerm("q", "p", 0)) in flips


def test_enumerate_respects_chain_map():
    bare = replace(Y1SIGMA, flip=None)
    # x and z share gradings but swapping them breaks commutation with d
    assert enumerate_flips(bare) == [Y1SIGMA.flip]


# ---------------------------------------------------------------------------
# grading fuzz: every single-field mutation must be caught, except the
# known benign ones (Maslov of an isolated A = 0 generator with identity
# flip is unconstrained by the axioms)

BENIGN_MASLOV = {("UNKNOT", "a"), ("Y1SIGMA", "x"), ("FIGURE8", "e")}
FIXTURE_NAMES = dict(zip(["UNKNOT", "TREFOIL", "TREFOIL_L", "Y1SIGMA", "FIGURE8"],
                         ALL_FIXTURES))


def _mutants(c):
    for k, g in enumerate(c.generators):
        for da in (-1, 1):
            gens = list(c.generators)
            gens[k] = replace(g, alexander=g.alexander + da)
            yield ("A", g.name), replace(c, generators=tuple(gens))
        for dm in (-1, 1):
            gens = list(c.generators)
            gens[k] = replace(g, maslov=g.maslov + dm)
            yield ("M", g.name), replace(c, generators=tuple(gens))
    for k, t in enumerate(c.differential):
        for dn in (-1, 1):
            diff = list(c.differential)
            diff[k] = replace(t, u_power=t.u_power + dn)
            yield ("n", t.source), replace(c, differential=tuple(diff))


def test_fuzz_single_field_mutations_caught():
    for fixture_name, c in FIXTURE_NAMES.items():
        for (field, subject), mutant in _mutants(c):
            ok = validate(mutant).ok
            benign = field == "M" and (fixture_name, subject) in BENIGN_MASLOV
            assert ok == benign, (
                f"{fixture_name}: mutating {field} of {subject} "
                f"{'passed' if ok else 'failed'} validation unexpectedly")


# ---------------------------------------------------------------------------
# plane elements and windows


def test_plane_position_and_maslov():
    e = PlaneElement("a", -2)
    assert plane_position(TREFOIL, e) == (-2, -1)
    assert plane_maslov(TREFOIL, e) == Fraction(-4)


def test_lattice_window_zero_slice_matches_B_hat():
    from floercone.subquotient import build_B_hat
    elements, mat = lattice_window(TREFOIL, 0, 0)
    b = build_B_hat(TREFOIL)
    assert tuple((e.generator, e.i) for e in elements) == \
        tuple((e.generator, e.i) for e in b.basis)
    assert mat == b.differential


def test_lattice_window_differential_squares_to_zero():
    for c in ALL_FIXTURES:
        _, mat = lattice_window(c, -3, 2)
        assert mat.mul(mat).is_zero()


def test_lattice_window_bad_range():
    with pytest.raises(ValueError):
        lattice_window(TREFOIL, 1, 0)


def test_window_counts_elements():
    elements, _ = lattice_window(FIGURE8, -1, 1)
    assert len(elements) == 3 * len(FIGURE8.generators)


def test_a_bounds_helpers():
    assert TREFOIL.a_max() == 1
    assert TREFOIL.a_bound() == 1
    assert UNKNOT.a_max() == 0

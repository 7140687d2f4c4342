"""Model validation, flip search, and plane-element bookkeeping."""

import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from floercone.cli import main

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

from corpus import corpus, staircase, tensor, with_flip
from oracles import build_B_hat, oracle_validate, plane_maslov

SRC = Path(__file__).resolve().parents[1] / "src"
BENCH = SRC.parent / "bench"


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


def test_gradings_off_by_a_non_integer_are_rejected(tmp_path, capsys):
    c = KnotComplex("0", (Generator("a", 0, 0), Generator("b", 0, Fraction(1, 2))))
    assert kinds(c) == {"maslov-offset"}
    with pytest.raises(ValidationError):
        require_valid(c)
    bad = tmp_path / "bad.cfk"
    bad.write_text("complex K spinc=0\ngen a A=0 M=0\ngen b A=0 M=1/2\nend\n")
    assert main(["check", str(bad)]) == 2
    assert "maslov-offset" in capsys.readouterr().err


def test_half_shifted_corpus_complexes_validate():
    shifted = [c for c in corpus() if c.generators[0].maslov.denominator == 2]
    assert shifted and all(validate(c).ok for c in shifted)
    assert {c._int_maslov[0] for c in shifted} == {Fraction(1, 2)}


def test_maslov_offset_check_survives_python_O():
    code = (
        "from fractions import Fraction\n"
        "from floercone.model import Generator, KnotComplex, ValidationError, require_valid\n"
        "assert False, 'asserts are on'\n"
        "c = KnotComplex('0', (Generator('a', 0, 0), Generator('b', 0, Fraction(1, 2))))\n"
        "try:\n"
        "    require_valid(c)\n"
        "except ValidationError as e:\n"
        "    print([v.kind for v in e.report.violations])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['maslov-offset']"


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
            diff[k] = t._replace(u_power=t.u_power + dn)
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
# validate on the index form against the name-keyed oracle


def _bench_inputs() -> set:
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads

    return {inp.complex for wl in workloads.every_input() for inp in wl.inputs.values()}


def _single_field_mutant(c, rng):
    """c with one field changed: a generator's A or M, or a term's U-power,
    source or target, the last two possibly to an undeclared name."""
    fields = ["gen"] + ["d"] * bool(c.differential) + ["flip"] * bool(c.flip)
    field = rng.choice(fields)
    if field == "gen":
        gens = list(c.generators)
        k = rng.randrange(len(gens))
        attr = rng.choice(["alexander", "maslov"])
        gens[k] = replace(gens[k], **{attr: getattr(gens[k], attr) + rng.choice([-2, -1, 1, 2])})
        return replace(c, generators=tuple(gens))
    terms = list(getattr(c, "differential" if field == "d" else "flip"))
    k = rng.randrange(len(terms))
    attr = rng.choice(["u_power", "source", "target"])
    if attr == "u_power":
        value = terms[k].u_power + rng.choice([-1, 1])
    else:
        value = rng.choice([g.name for g in c.generators] + ["zz", "_q", "g"])
    terms[k] = terms[k]._replace(**{attr: value})
    return replace(c, **{"differential" if field == "d" else "flip": tuple(terms)})


def _repeated_term_mutant(c, rng):
    """c with one of its d or flip terms listed twice."""
    field = rng.choice(["differential"] * bool(c.differential) + ["flip"] * bool(c.flip))
    terms = getattr(c, field)
    return replace(c, **{field: terms + (rng.choice(terms),)})


def _mutant(c, rng, count: int):
    """c with count mutations, each one field changed or one term repeated."""
    for _ in range(count):
        if (c.differential or c.flip) and rng.random() < 0.25:
            c = _repeated_term_mutant(c, rng)
        else:
            c = _single_field_mutant(c, rng)
    return c


def _four_kinds_trefoil():
    """The trefoil with three mutations, whose report holds four per-term
    kinds: a d term to an undeclared name (unknown-generator), d b -> c
    repeated (duplicate-term), and M(a) shifted by one, which breaks
    d b -> U a (maslov-drop) and the flip terms at a and c (flip-term)."""
    gens = tuple(replace(g, maslov=g.maslov + 1) if g.name == "a" else g for g in TREFOIL.generators)
    diff = TREFOIL.differential + (DiffTerm("a", "zz", 0), DiffTerm("b", "c", 0))
    return replace(TREFOIL, generators=gens, differential=diff)


def test_validate_equals_the_name_keyed_oracle():
    """The same violations, in the same order and with the same strings; a
    flip term with an undeclared end, where the oracle raises, is listed.
    Mutants with two and three mutations hold several kinds in one report."""
    cases = set(ALL_FIXTURES) | _bench_inputs()
    for seed in (1, 2, 3):
        cases.update(corpus(seed))
    for bare, flipped in with_flip():
        cases.update((bare, flipped))
    rng = random.Random(20261018)
    ordered = sorted(cases, key=repr)
    mutants = [_single_field_mutant(c, rng) for c in ordered for _ in range(3) if c.generators]
    several = random.Random(20261019)
    mutants += [_mutant(c, several, count) for c in ordered for count in (2, 3) if c.generators]
    mutants.append(_four_kinds_trefoil())
    raised = invalid = 0
    mixed = set()
    for c in ordered + mutants:
        try:
            want = oracle_validate(c)
        except KeyError:
            raised += 1
            assert "unknown-generator" in kinds(c), c
            continue
        assert validate(c) == want, c
        invalid += not want.ok
        mixed.add(frozenset(v.kind for v in want.violations))
    assert raised and invalid
    assert any({"unknown-generator", "duplicate-term", "maslov-drop", "flip-term"} <= k for k in mixed)


def test_hash_and_equality_agree():
    """Terms hash and sort as tuples and the hash covers names and terms
    alone: reordered terms give an equal complex with an equal hash, and a
    complex that differs in one Maslov grading is unequal, hashes alike,
    and gets its own report from the validate cache."""
    for c in ALL_FIXTURES:
        flip = None if c.flip is None else c.flip[::-1]
        shuffled = KnotComplex(c.spinc_label, c.generators[::-1], c.differential[::-1], flip)
        assert shuffled == c and hash(shuffled) == hash(c)
        g = c.generators[0]
        shifted = replace(c, generators=(replace(g, maslov=g.maslov + 2),) + c.generators[1:])
        assert shifted != c and hash(shifted) == hash(c)
        assert validate(c).ok and validate(shifted) == oracle_validate(shifted)
    assert DiffTerm("a", "b", 0) == FlipTerm("a", "b", 0)  # equal fields, equal tuples


def test_validate_builds_no_mask_as_long_as_a_graded_u_power():
    """U^N with N = 10^12 would be a 125 GB bitmask; d o d is read off the
    terms, so validate builds none."""
    n = 10 ** 12
    gens = (Generator("a", 0, 0), Generator("b", 0, 2 * n - 1), Generator("c", 0, 4 * n - 2))
    c = KnotComplex("0", gens, (DiffTerm("a", "b", n), DiffTerm("b", "c", n)))
    assert [str(v) for v in validate(c).violations] == [
        f"[d-squared] a -> U^{2 * n} c: d o d has this odd term"]
    assert validate(c) == oracle_validate(c)


@pytest.mark.parametrize("power", [5000, 10 ** 12])
def test_validate_reads_d_squared_past_any_u_power(power):
    """d b -> U^power c breaks maslov-drop, and d o d is still read through
    it: a -> U^power c is listed, as by the oracle.  Nothing is sized by the
    power, so U^(10^12) costs what U^5000 does."""
    gens = (Generator("a", 0, 0), Generator("b", 0, -1), Generator("c", 0, -2))
    c = KnotComplex("0", gens, (DiffTerm("a", "b", 0), DiffTerm("b", "c", power)))
    assert f"[d-squared] a -> U^{power} c: d o d has this odd term" in map(str, validate(c).violations)
    assert validate(c) == oracle_validate(c)


def test_validate_reads_the_composites_off_paths_where_no_grading_fixes_a_power():
    """M(c) is off the others' offset (maslov-offset), so no grading fixes
    the U-power of a path: a -> b -> e and a -> c -> e reach e with U^0 and
    U^1, and phi d(a) = c + U b against d phi(a) = b + U c.  GF(2) products
    of the masks would cancel both; the odd paths list them, as the oracle does."""
    gens = (Generator("a", 0, 0), Generator("b", 0, -1), Generator("c", 0, Fraction(1, 2)),
            Generator("e", 0, -2))
    diff = (DiffTerm("a", "b", 0), DiffTerm("a", "c", 1), DiffTerm("b", "e", 0), DiffTerm("c", "e", 0))
    flip = (FlipTerm("a", "a", 0), FlipTerm("b", "c", 0), FlipTerm("c", "b", 0), FlipTerm("e", "e", 0))
    c = KnotComplex("0", gens, diff, flip)
    assert [v.kind for v in validate(c).violations] == [
        "maslov-offset", "d-squared", "d-squared", "flip-chain-map"]
    assert validate(c) == oracle_validate(c)


@pytest.mark.slow
def test_validate_equals_the_oracle_at_15625_generators():
    """T(2,5)^#6, and the same with its first d term dropped, which breaks
    d o d = 0 and phi d = d phi."""
    k = staircase(2)
    c = k
    for _ in range(5):
        c = tensor(c, k)
    assert len(c.generators) == 15625
    mutant = replace(c, differential=c.differential[1:])
    assert validate(c).ok and validate(c) == oracle_validate(c)
    assert {"d-squared", "flip-chain-map"} <= kinds(mutant)
    assert validate(mutant) == oracle_validate(mutant)


def test_the_index_form_numbers_undeclared_names_after_the_generators():
    c = KnotComplex("0", (Generator("b", 0, 0), Generator("d", 0, -1)),
                    (DiffTerm("d", "c", 0), DiffTerm("a", "b", 0)),
                    (FlipTerm("b", "e", 0), FlipTerm("d", "d", 0)))
    # generators b, d are 0, 1; the undeclared a, c, e follow in sorted order
    assert c._index_form == (((2, 0, 0), (1, 3, 0)), ((0, 4, 0), (1, 1, 0)))
    assert [str(v) for v in validate(c).violations if v.kind == "d-squared"] == []
    assert kinds(c) >= {"unknown-generator", "flip-not-invertible"}


# ---------------------------------------------------------------------------
# plane elements and windows


def test_plane_position_and_maslov():
    e = PlaneElement("a", -2)
    assert plane_position(TREFOIL, e) == (-2, -1)
    assert plane_maslov(TREFOIL, e) == Fraction(-4)


def test_lattice_window_zero_slice_matches_B_hat():
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

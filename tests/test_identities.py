"""Theorem-level identities on staircases with long steps, their mirrors and
connected sums, which no comparison of two constructions can share an error
with:

- for an L-space knot V_s equals the torsion coefficient
  t_s = sum_(j >= 1) j a_(s + j) of its Alexander polynomial (Ozsvath-Szabo,
  "On knot Floer homology and lens space surgeries"; Ni-Wu, "Cosmetic
  surgeries on knots in S^3"), and the plus cone at s != 0 counts the
  truncated complex, twice the HF^+ rank, so its total_dim is 2 t_|s|;
- V_s = (tower grading of B - tower grading of A_s) / 2 satisfies
  V_s >= V_(s+1) >= V_s - 1 and V_(-s) = V_s + s (Rasmussen, "Floer homology
  and knot complements");
- for a connected sum of L-space knots V_s is the infimal convolution
  V_s(#K_i) = min over s_1 + ... + s_k = s of sum V_(s_i)(K_i)
  (Borodzik-Livingston, "Heegaard Floer homology and rational cuspidal
  curves"), a closed form that costs O(k g^2) however many generators the
  sum has;
- the mod-2 Alexander polynomial is multiplicative under connected sum;
- the genus is additive, and max{|s| : hat total_dim(s) != 0} = g - 1
  (Ozsvath-Szabo, "Holomorphic disks and genus bounds");
- the hat, plus and Novikov dimensions at s equal those at -s;
- S^3_0(mK) = -S^3_0(K), and Floer homology dualizes under orientation
  reversal, so K and its mirror have the same hat and Novikov dimensions
  at every s, and the same plus dimensions at s != 0;
- universal coefficients for T -> 1: the hat cone is the twisted cone
  tensored with L / (1 + T), so its total_dim is the Laurent free rank plus
  two per torsion factor p with p(1) = 0, and the Novikov dimension (the
  free rank) is at most that;
- shifting every Maslov grading by a rational q moves every reported grading
  by q and changes no other answer: the relative grading is what the
  complex determines (Ozsvath-Szabo, "Absolutely graded Floer homologies and
  intersection forms for four-manifolds with boundary");
- for s != 0 the Euler characteristic of HF^+(Y_0(K), s), the sum over the
  pivots U^v of the plus cone of v + h of (-1)^row v, is -t_s(K), the
  Turaev torsion, with t_s = sum_(j >= 1) j a_(|s| + j) and
  a_k = sum_(A(x) = k) (-1)^M(x), for every knot in an integer homology
  sphere, L-space or not (Ozsvath-Szabo, "Holomorphic disks and
  three-manifold invariants: properties and applications"): on the
  complexes with integer gradings, Delta(1) = +-1 and one tower in B,
  with the sign fixed by eps = Delta(1) (-1)^(grading of B's tower).

The slow tier (`pytest -m slow`) runs the V_s rules and the plus cones at
s = 0 and s = 1 on T(2,11)#T(2,11)#T(2,11), 1,331 generators, the
closed form for V_s on T(2,5)^#5 and T(2,7)^#4, 3,125 and 2,401 generators,
and the Euler characteristic on T(2,5)^#3 # m(T(2,5)^#3), 15,625 generators.
"""

from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from floercone.cone import _plus_reductions, cone_homology_hat, cone_homology_plus_truncated, ensure_flip
from floercone.detect import (
    alexander_polynomial,
    genus,
    hf_red_obstruction,
    sphere_necessary_conditions,
    sphere_obstruction,
)
from floercone.fixtures import FIGURE8, Y1SIGMA
from floercone.linalg import LaurentPoly
from floercone.subquotient import (
    free_plus_complex,
    hf_red_graded,
    reduce_free,
)
from floercone.twisted import novikov_dim, twisted_homology_laurent

from corpus import (
    BIG_SUMS,
    TWISTED_SUMS,
    connected_sum,
    lspace_staircase,
    mirror,
    staircase,
    tensor,
    torus_exponents,
    with_flip,
)
from oracles import build_A_hat, build_B_hat, laurent_product

TORUS = {pq: torus_exponents(*pq) for pq in ((3, 4), (3, 5), (4, 5), (5, 6), (3, 7))}


def torus(p: int, q: int):
    return lspace_staircase(TORUS[p, q])


def sums():
    """(name, complex, genus): sums with the figure-eight, Y1SIGMA (genus 0)
    and mirrors, up to 35 generators."""
    return [("T34#T34", tensor(torus(3, 4), torus(3, 4)), 6),
            ("T34#T35", tensor(torus(3, 4), torus(3, 5)), 7),
            ("F8#T34", tensor(FIGURE8, torus(3, 4)), 4),
            ("mT34#Y1", tensor(mirror(torus(3, 4)), Y1SIGMA), 3),
            ("T34#mT35", tensor(torus(3, 4), mirror(torus(3, 5))), 7),
            ("F8#mT45", tensor(FIGURE8, mirror(torus(4, 5))), 7)]


def torsion_coefficient(exponents, s: int) -> int:
    """t_s for the polynomial sum_k (-1)^k T^(n_k)."""
    coefficient = {n: (-1) ** k for k, n in enumerate(exponents)}
    return sum(j * coefficient.get(s + j, 0) for j in range(1, exponents[0] - s + 1))


def tower(free) -> int:
    (grading,) = reduce_free(free.gradings, free.columns).towers
    return grading


def big_v(c, s_values) -> dict:
    """V_s from the towers of B and A_s."""
    b = tower(free_plus_complex(c))
    return {s: Fraction(b - tower(free_plus_complex(c, s)), 2) for s in s_values}


def v_of_lspace_sum(exponent_lists, s_values) -> dict:
    """V_s of the connected sum of the L-space knots with these descending
    Alexander exponents, by infimal convolution of V_t = t_t (t >= 0) and
    V_(-t) = V_t + t.  An optimal split has |s_i| <= g_i + 1 for each
    summand of genus g_i, so a window of one past the total genus is exact."""
    reach = sum(exponents[0] for exponents in exponent_lists) + 1
    window = range(-reach, reach + 1)

    def v(exponents, t):
        return torsion_coefficient(exponents, t) if t >= 0 else torsion_coefficient(exponents, -t) - t

    total = {0: 0}
    for exponents in exponent_lists:
        total = {s: min(w + v(exponents, s - a) for a, w in total.items() if abs(s - a) <= reach)
                 for s in window}
    return {s: total[s] for s in s_values}


def lspace_sum(pqs) -> tuple:
    """(exponent lists, connected sum) of the torus knots T(p, q)."""
    exponent_lists = [torus_exponents(*pq) for pq in pqs]
    first, *rest = map(lspace_staircase, exponent_lists)
    for other in rest:
        first = tensor(first, other)
    return exponent_lists, first


def assert_v_is_the_convolution(pqs, generators: int) -> None:
    exponent_lists, c = lspace_sum(pqs)
    assert len(c.generators) == generators
    s_values = range(-c.a_bound() - 1, c.a_bound() + 2)
    v = big_v(c, s_values)
    assert v == v_of_lspace_sum(exponent_lists, s_values), pqs
    assert_v_rules(v)


# sums of L-space knots, 125-343 generators
LSPACE_SUMS = {((2, 5), (2, 5), (2, 5)): 125, ((3, 4), (2, 5), (2, 7)): 175,
               ((3, 5), (4, 5), (2, 5)): 245, ((2, 7), (2, 7), (2, 7)): 343}


def sum_id(pqs) -> str:
    return "#".join(f"T{p}_{q}" for p, q in pqs)


def assert_v_rules(v: dict) -> None:
    for s in v:
        if s + 1 in v:
            assert v[s] >= v[s + 1] >= v[s] - 1, (s, v)
        if -s in v:
            assert v[-s] == v[s] + s, (s, v)


def test_torus_exponents_have_long_steps():
    assert TORUS[3, 4] == (3, 2, 0, -2, -3)
    assert TORUS[4, 5] == (6, 5, 2, 0, -2, -5, -6)
    assert torus_exponents(2, 7) == tuple(range(3, -4, -1))
    assert lspace_staircase(torus_exponents(2, 9)) == staircase(4)


def test_v_s_is_the_torsion_coefficient_and_the_plus_cone_is_twice_it():
    for (p, q), exponents in TORUS.items():
        c, g = torus(p, q), exponents[0]
        v = big_v(c, range(-g - 1, g + 2))
        assert_v_rules(v)
        for s in range(0, g + 2):
            t = torsion_coefficient(exponents, s)
            assert v[s] == t, (p, q, s)
            if s:
                for sign in (1, -1):
                    assert cone_homology_plus_truncated(c, sign * s).total_dim == 2 * t, (p, q, s)


@pytest.mark.parametrize("pqs", LSPACE_SUMS, ids=sum_id)
def test_v_s_of_lspace_sums_is_the_infimal_convolution(pqs):
    assert_v_is_the_convolution(pqs, LSPACE_SUMS[pqs])


@pytest.mark.parametrize("pqs", LSPACE_SUMS, ids=sum_id)
def test_the_alexander_polynomial_is_multiplicative(pqs):
    exponent_lists, c = lspace_sum(pqs)
    product = LaurentPoly.one()
    for exponents in exponent_lists:
        factor = alexander_polynomial(lspace_staircase(exponents)).polynomial
        assert factor.support == set(exponents)
        product = laurent_product(product, factor)
    assert alexander_polynomial(c).polynomial == product


def test_v_s_rules_on_sums():
    for name, c, g in sums():
        assert_v_rules(big_v(c, range(-g - 1, g + 2)))


def test_genus_and_the_support_of_the_hat_cone():
    knots = [(f"T{p}{q}", torus(p, q), e[0]) for (p, q), e in TORUS.items()]
    knots += [(f"mT{p}{q}", mirror(torus(p, q)), e[0]) for (p, q), e in list(TORUS.items())[:2]]
    for name, c, g in knots + sums():
        assert genus([c]) == g, name
        support = [s for s in range(-g - 1, g + 2) if cone_homology_hat(c, s).total_dim]
        assert max(map(abs, support)) == g - 1, name


def test_conjugation_symmetry_of_hat_plus_and_novikov_dims():
    for name, c, g in [("T45", torus(4, 5), 6), ("mT35", mirror(torus(3, 5)), 4)] + sums()[2:4]:
        for s in range(1, g + 2):
            for dim in (lambda t: cone_homology_hat(c, t).total_dim,
                        lambda t: cone_homology_plus_truncated(c, t).total_dim,
                        lambda t: novikov_dim(c, t)):
                assert dim(s) == dim(-s), (name, s)


def duality_dims(c, s: int, plus: bool) -> tuple:
    """The hat total and the Novikov dimension at s, and with plus the plus
    total at s != 0."""
    plus_total = cone_homology_plus_truncated(c, s).total_dim if plus and s else None
    return cone_homology_hat(c, s).total_dim, novikov_dim(c, s), plus_total


def assert_mirror_duality(c, plus: bool) -> None:
    """K and its mirror at every |s| <= a_bound + 1."""
    m = mirror(c)
    for s in range(-c.a_bound() - 1, c.a_bound() + 2):
        assert duality_dims(c, s, plus) == duality_dims(m, s, plus), (c, s)


@pytest.mark.parametrize("seed", range(1, 9))
def test_mirror_duality_on_the_corpus(seed):
    for _, c in with_flip(seed):
        assert_mirror_duality(c, plus=False)


@pytest.mark.parametrize("name", TWISTED_SUMS + BIG_SUMS)
def test_mirror_duality_on_the_sums(name):
    assert_mirror_duality(connected_sum(name), plus=True)


def test_universal_coefficients_tie_the_twisted_torsion_to_the_hat_cone():
    knots = [torus(p, q) for p, q in TORUS] + [mirror(torus(3, 4)), mirror(torus(3, 5))]
    cases = [flipped for _, flipped in with_flip()] + knots + [c for _, c, _ in sums()]
    divisible = 0
    for c in cases:
        for s in range(-c.a_bound() - 1, c.a_bound() + 2):
            twisted, hat = twisted_homology_laurent(c, s), cone_homology_hat(c, s)
            vanishing = sum(1 for p in twisted.torsion_factors if not p.at_one())
            assert hat.total_dim == twisted.laurent_free_rank + 2 * vanishing, (c, s)
            assert twisted.novikov_dim <= hat.total_dim, (c, s)
            divisible += bool(vanishing)
    assert divisible  # some factor is divisible by 1 + T, so the torsion term is exercised


def shifted(c, q):
    return replace(c, generators=tuple(replace(g, maslov=g.maslov + q) for g in c.generators))


def moved(dims, q):
    return None if dims is None else {d + q: count for d, count in dims.items()}


def answers(c, s_values) -> tuple:
    """The library's answers on c: those that report gradings, and the rest."""
    red = hf_red_graded(c)
    graded = {"red": red}
    other = {"genus": genus([c]), "red1": hf_red_obstruction(red, homology_sphere=True).kind,
             "detect-sphere": sphere_obstruction([c]),
             "prop0check": sphere_necessary_conditions([c])}
    for s in s_values:
        graded["hat", s] = cone_homology_hat(c, s)
        graded["plus", s] = cone_homology_plus_truncated(c, s)
        other["twisted", s] = twisted_homology_laurent(c, s)
    return graded, other


def test_a_rational_maslov_shift_moves_only_the_reported_gradings():
    """On the flip-bearing corpus, two sums and a long-step staircase; below
    the model every grading is an int, whatever the offset."""
    cases = [flipped for _, flipped in with_flip()] + [c for _, c, _ in sums()[2:4]] + [torus(3, 5)]
    s_values = range(-1, 2)
    for c in cases:
        graded, other = answers(c, s_values)
        for q in (Fraction(1, 2), Fraction(1, 3), Fraction(-2, 3)):
            cq = shifted(c, q)
            graded_q, other_q = answers(cq, s_values)
            assert other_q == other, (c, q)
            assert graded_q["red"] == moved(graded["red"], q), (c, q)
            for s in s_values:
                for flavor in ("hat", "plus"):
                    want = graded[flavor, s]
                    assert (want.graded_dims is None) == (s != 0)
                    assert graded_q[flavor, s] == replace(
                        want, graded_dims=moved(want.graded_dims, q)), (c, q, s)
            for s in (None,) + tuple(s_values):
                assert all(type(m) is int for m in free_plus_complex(cq, s).gradings)
                sub = build_B_hat(cq) if s is None else build_A_hat(cq, s)
                assert all(type(m) is int for m in sub.maslov)
            for s in s_values:
                for r in _plus_reductions(cq, s):
                    assert all(type(g) is int for row, col, _ in r.pairs for g in (row, col))
                    assert all(type(g) is int for g in r.towers)


def euler_characteristics(c, s_values) -> list:
    """(s, chi, -eps t_s) per s != 0 of s_values: chi, the sum over the
    pivots U^v of the plus cone of v + h of (-1)^row v, and the Turaev
    torsion with eps = Delta(1) (-1)^(grading of B's tower); [] unless c has
    integer gradings, Delta(1) = +-1 and one tower in B."""
    c = ensure_flip(c)
    if any(g.maslov.denominator != 1 for g in c.generators):
        return []
    a = Counter()
    for g in c.generators:
        a[g.alexander] += (-1) ** int(g.maslov % 2)
    out, delta_at_one = [], sum(a.values())
    if abs(delta_at_one) != 1:
        return []
    for s in s_values:
        _, rb, _, _, rvh = _plus_reductions(c, s)
        if len(rb.towers) != 1:
            return []
        epsilon = delta_at_one * (-1) ** (rb.towers[0] % 2)
        torsion = sum(j * a[abs(s) + j] for j in range(1, c.a_bound() + 1))
        out.append((s, sum((-1) ** (row % 2) * v for row, _, v in rvh.pairs), -epsilon * torsion))
    return out


# (inputs, how many (complex, s) pairs the identity covers on them and their mirrors)
EULER_INPUTS = {"staircases": (lambda: [staircase(k) for k in (1, 2, 3)], 36),
                "sums": (lambda: [connected_sum(name) for name in TWISTED_SUMS + BIG_SUMS], 240),
                "corpus": (lambda: [flipped for _, flipped in with_flip(1)], 128)}


@pytest.mark.parametrize("family", EULER_INPUTS)
def test_the_euler_characteristic_is_minus_the_turaev_torsion(family):
    inputs, covered = EULER_INPUTS[family]
    checked = 0
    for c in inputs():
        for k in (c, mirror(c)):
            s_values = [s for s in range(-k.a_bound() - 1, k.a_bound() + 2) if s]
            for s, chi, torsion in euler_characteristics(k, s_values):
                assert chi == torsion, (k, s)
                checked += 1
    assert checked == covered


@pytest.mark.slow
def test_the_euler_characteristic_on_a_15625_generator_sum():
    k = staircase(2)
    c = tensor(tensor(k, k), k)
    c = tensor(c, mirror(c))
    assert len(c.generators) == 15625
    assert euler_characteristics(c, (1, 2, 3, 6)) == [(1, -431, -431), (2, 380, 380), (3, -315, -315),
                                                      (6, 102, 102)]


@pytest.mark.slow
def test_v_s_rules_and_plus_cones_on_a_1331_generator_sum():
    k = staircase(5)
    c = tensor(tensor(k, k), k)
    assert len(c.generators) == 1331
    v = big_v(c, range(-c.a_bound() - 1, c.a_bound() + 2))
    assert_v_rules(v)
    assert v[c.a_bound()] == 0 and v[0] == 8
    zero, one = cone_homology_plus_truncated(c, 0), cone_homology_plus_truncated(c, 1)
    assert zero.graded_dims == {-16: 20, -1: 1}
    assert one.total_dim == 66


@pytest.mark.slow
@pytest.mark.parametrize("pqs, generators", [(((2, 5),) * 5, 3125), (((2, 7),) * 4, 2401)],
                         ids=["T2_5^5", "T2_7^4"])
def test_v_s_of_big_lspace_sums_is_the_infimal_convolution(pqs, generators):
    assert_v_is_the_convolution(pqs, generators)

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
- the genus is additive, and max{|s| : hat total_dim(s) != 0} = g - 1
  (Ozsvath-Szabo, "Holomorphic disks and genus bounds");
- the hat, plus and Novikov dimensions at s equal those at -s.

The slow tier (`pytest -m slow`) runs the V_s rules and the plus cones at
s = 0 and s = 1 on T(2,11)#T(2,11)#T(2,11), 1,331 generators.
"""

import pytest

from floercone.cone import cone_homology_hat, cone_homology_plus_truncated
from floercone.detect import genus
from floercone.fixtures import FIGURE8, Y1SIGMA
from floercone.subquotient import _graded_precision, free_plus_complex, reduce_free
from floercone.twisted import novikov_dim

from corpus import lspace_staircase, mirror, staircase, tensor, torus_exponents

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
    (grading,) = reduce_free(free.gradings, free.columns, _graded_precision(free.gradings)).towers
    return grading


def big_v(c, s_values) -> dict:
    """V_s from the towers of B and A_s."""
    b = tower(free_plus_complex(c))
    return {s: (b - tower(free_plus_complex(c, s))) / 2 for s in s_values}


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

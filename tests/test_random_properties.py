"""Property checks over the seeded random corpus.

Each invariant here is checked against either an independent oracle or an
internal consistency relation that the implementation does not enforce
directly at the point of computation.
"""

from floercone.cone import (
    cone_homology_hat,
    induces_iso,
    project_A,
)
from floercone.detect import (
    VerdictKind,
    alexander_polynomial,
    genus,
    sphere_necessary_conditions,
    sphere_obstruction,
)
from floercone.io_format import DocumentEntry, InputDocument, parse, serialize
from floercone.twisted import twisted_homology_laurent

from corpus import corpus, with_flip
from oracles import (
    build_A_hat,
    build_B_hat,
    build_v_hat,
    hat_homology_dim,
    hat_maps,
    oracle_cone_hat,
    oracle_novikov_dim,
    oracle_twisted_cone,
    oracle_twisted_homology,
    v_modulo_u,
)

FLIPPED = [f for _, f in with_flip()]


def test_corpus_is_large_enough():
    assert len(corpus()) >= 200
    assert len(FLIPPED) >= 100


def test_hat_total_matches_rank_nullity_of_parts():
    for c in FLIPPED:
        for s in (-1, 0, 1):
            res = cone_homology_hat(c, s)
            h_a = hat_homology_dim(build_A_hat(c, s))
            h_b = hat_homology_dim(build_B_hat(c))
            assert res.total_dim == h_a + h_b - 2 * res.rank_v_plus_h, (c, s)


def test_hat_total_and_graded_match_oracle():
    for c in FLIPPED:
        for s in (-1, 0, 1):
            res = cone_homology_hat(c, s)
            total, graded = oracle_cone_hat(c, s)
            assert res.total_dim == total, (c, s)
            if s == 0:
                assert res.graded_dims == graded, c


def test_novikov_equals_laurent_free_rank():
    for c in FLIPPED:
        for s in (-1, 0, 1):
            res = twisted_homology_laurent(c, s)
            assert res.laurent_free_rank == oracle_twisted_homology(c, s).novikov_dim, (c, s)


def test_novikov_matches_evaluation_oracle():
    for c in FLIPPED:
        res = twisted_homology_laurent(c, 0)
        assert res.novikov_dim == oracle_novikov_dim(c, 0), c


def test_twisted_map_at_one_is_untwisted_map():
    for c in FLIPPED:
        for s in (0, 1):
            cone = oracle_twisted_cone(c, s)
            v = build_v_hat(c, s)
            h = hat_maps(c, s)[1]
            assert cone.map_matrix.at_one() == v.matrix + h.matrix, (c, s)


def test_projection_factors_v_maps():
    for c in corpus():
        top = c.a_max()
        for s in range(0, top + 1):
            for sp in range(s, top + 1):
                proj = project_A(c, s, sp)
                assert build_v_hat(c, sp).matrix.mul(proj.matrix) == \
                    build_v_hat(c, s).matrix, (c, s, sp)


def test_hat_totals_symmetric_under_s_negation():
    for c in FLIPPED:
        for s in range(0, c.a_bound() + 1):
            assert cone_homology_hat(c, s).total_dim == \
                cone_homology_hat(c, -s).total_dim, (c, s)


def test_genus_bounds_and_iso_beyond():
    for c in FLIPPED:
        g = genus([c])
        assert 0 <= g <= c.a_max(), c
        assert induces_iso(v_modulo_u(c, g))
        assert induces_iso(v_modulo_u(c, g + 1))
        if g > 0:
            assert not induces_iso(v_modulo_u(c, g - 1)), c


def test_necessary_conditions_imply_trivial_alexander():
    fired = 0
    for c in FLIPPED:
        if sphere_necessary_conditions([c]).kind is VerdictKind.FIRES:
            fired += 1
            assert alexander_polynomial(c).trivial_mod_2, c
    assert fired > 0  # the corpus exercises the Fires branch


def test_necessary_conditions_contain_twisted_obstruction():
    # if the twisted obstruction rules a sphere out, the necessary
    # conditions for one cannot all hold
    for c in FLIPPED:
        if sphere_obstruction([c]).kind is VerdictKind.FIRES:
            assert sphere_necessary_conditions([c]).kind is \
                VerdictKind.DOES_NOT_FIRE, c


def test_alexander_parity_shortcut_and_symmetry():
    for c in corpus():
        poly = alexander_polynomial(c).polynomial
        for a in {g.alexander for g in c.generators}:
            count = sum(1 for g in c.generators if g.alexander == a)
            assert (a in poly.support) == bool(count % 2), (c, a)
        # mirrored-pair construction makes the support symmetric
        assert poly.support == {-a for a in poly.support}, c


def test_serialize_parse_round_trip():
    for k, c in enumerate(corpus()):
        doc = InputDocument((DocumentEntry(f"R{k}", c),))
        assert parse(serialize(doc)) == doc, c
    for k, c in enumerate(FLIPPED):
        doc = InputDocument((DocumentEntry(f"F{k}", c),))
        assert parse(serialize(doc)) == doc, c

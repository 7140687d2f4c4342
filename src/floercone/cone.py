"""Mapping cones computing the Floer homology of 0-surgery.

For each integer s the complex A_s (hat or truncated plus flavor) maps to
the corresponding B complex by two chain maps: v projects to the i = 0
part, h projects to the j = s part and carries it to B through U^s and
the flip.  The cone of v + h computes the surgery group in the Spin^c
structure labeled s.

Only relative gradings are exposed: the B summand of a cone sits one
degree below the A summand, and the A summand keeps the Maslov grading
of the model.  Graded output is reported for s = 0 only, where v and h
shift gradings equally; for s != 0 the two shifts differ and only the
total dimension is well defined without extra normalization.  The cones
run on the int gradings M - offset of `subquotient`, and a graded answer
gets the offset back when it is reported.

v and h are graded F2[U] maps between the free models of A_s and B (see
`subquotient`), column masks whose U-powers the gradings fix, so no
U^|s| is written out.  The hat flavor reads U^0 alone (`_modulo_u_maps`):
A_s off d's terms by one rule (`_a_modulo_u`), B off the complex's tables
and v and h by rule (`subquotient`).  A_s, B and every hat cone read
modulo U have homology of dimension n - 2 rank (`_hat_dim`, `_b_hat_dim`,
`_hat_cone_dim`), and each rank follows from
dim H(cone f) = dim H(A) + dim H(B) - 2 rank f_* (`_rank_nullity`), per
grading at s = 0.  The twisted group off s = 0 and prop0check's clause
(a) read the same cone of v + h; `genus` and `induces_iso` read v_* as an
isomorphism modulo U where the cone of v is acyclic modulo U.  The
twisted cone at s = 0 and prop0check's clause (b) read the pencil
v' + T h' on homology bases of A_0 and B modulo U (`_pencil_maps`); the
plus flavor reads the least models A' and B' of A_s and B, placed with
v and h in descending grading, with differentials 0 modulo U
(`_reduced_maps`).  Both read each model off one clearing pass and carry
v and h over as f' = p_B f i_A (`_carried`).  The plus flavor reduces
A', B' and the cones of the three maps on them once each, reads each
induced rank off its cone's dimension by rank-nullity, and every height
off the pivots.  Every cone is graded, with B shifted by the degree of
the map, and reduced exactly, but the cone of v + h at s != 0: v keeps
the gradings and h lowers them by 2s, so it alone writes its U-powers
out, for `smith_pivots_u` modulo one proven precision (`_plus_reductions`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import NamedTuple

from floercone.linalg import (
    F2Matrix,
    InvariantViolated,
    _combine,
    _mask_bits,
    _minor_degree_bound,
    rank_f2,
)
from floercone.model import KnotComplex, derive_flip, require_valid
from floercone.subquotient import (
    _RED_DIM_LIMIT,
    FreeReduction,
    FreeUComplex,
    _artifact_cutoff,
    _check_commutes,
    _in_grading_order,
    _placed,
    _reduce_ungraded,
    _reported,
    _smith_model,
    free_plus_complex,
    reduce_free,
)


class FlipMissing(Exception):
    """The operation needs a flip map and the complex has none."""


class UPowerTooLarge(Exception):
    """The plus cone at s != 0 needs a U-power too large to write out."""


def ensure_flip(c: KnotComplex) -> KnotComplex:
    require_valid(c)
    return c if c.flip is not None else derive_flip(c)


class ChainMapF2(NamedTuple):
    """A graded map of degree 0 between free complexes read modulo U."""

    source: FreeUComplex
    target: FreeUComplex
    matrix: F2Matrix


def induces_iso(cm: ChainMapF2) -> bool:
    """Whether f_* is an isomorphism: its cone is acyclic modulo U."""
    if len(cm.source.columns) != len(cm.target.columns):
        raise ValueError("source and target need one basis element per generator")
    return _hat_cone_dim(cm.source.columns, cm.matrix.column_masks(), cm.target.columns) == 0


def _h_map(c: KnotComplex) -> tuple:
    """h : A_s -> B sends y_g to U^max(0, s - A(g)) x_t per flip target t; it
    lowers gradings by 2s, and its masks, the flip's, are the same at every
    s.  A chain map (`subquotient`): the projection onto C{j >= s}, then U^s
    and the flip."""
    if c.flip is None:
        raise FlipMissing("complex has no flip map; derive or supply one")
    return c._masks[1]


def project_A(c: KnotComplex, s: int, s_prime: int) -> ChainMapF2:
    """The projection A_s -> A_{s'} through which v_s factors, for s <= s'.

    The free inclusion y_g -> U^(lo'(g) - lo(g)) y'_g read modulo U: the
    identity on the plane elements the two bases share (lo = lo'), zero on
    the rest; v_s = v_{s'} composed with this map.  On masks it is the
    identity, a chain map as v is (`subquotient`): lo <= lo'.
    """
    if s > s_prime:
        raise ValueError("requires s <= s'")
    a, a_prime = _a_modulo_u(c, s), _a_modulo_u(c, s_prime)
    matrix = tuple([1 << k if x == y else 0 for k, (x, y) in enumerate(zip(a.lo, a_prime.lo))])
    return ChainMapF2(a, a_prime, F2Matrix._from_masks(len(a.lo), len(a.lo), matrix))


@dataclass(frozen=True)
class ConeResult:
    s: int
    flavor: str
    total_dim: int
    rank_v: int
    rank_h: int
    rank_v_plus_h: int
    graded_dims: dict | None
    truncation: int | None = None


def _rank_nullity(ha: int, hb: int, cone_dim: int) -> int:
    """Rank of f_* : H(A) -> H(B), from dim H(cone f) = dim H(A) + dim H(B) - 2 rank."""
    twice = ha + hb - cone_dim
    if twice % 2 or not 0 <= twice <= 2 * min(ha, hb):
        raise InvariantViolated("cone dimension gives no valid rank for the induced map")
    return twice // 2


def _carried(models: list, maps) -> tuple:
    """A' and B', the least models of A and B, taken off models = [A, B] so
    that neither outlives its pass (`subquotient._smith_model`), whether
    p_B drops a coordinate on a pair's column end off some f i_A, and
    p_B f i_A for each f : A -> B of maps, as column masks."""
    a, inclusion, _ = _smith_model(models.pop(0))
    b, _, project = _smith_model(models.pop())
    images = [[project(_combine(f, x)) for x in inclusion] for f in maps]
    off = any(off for image in images for _, off in image)
    return (a, b, off, *(tuple([x for x, _ in image]) for image in images))


def _reduced_maps(c: KnotComplex, s: int) -> tuple:
    """A' and B', the least models of A_s and B built in descending grading
    (`subquotient._in_grading_order`), and v' and h' (`_carried`), v and h
    placed there from their triples, checked to be chain maps; by what
    `validate` proves, v and h on the full A_s and B are graded chain maps."""
    (a, place_a), (b, place_b) = _in_grading_order(c, s), _in_grading_order(c)
    ids = range(len(place_a))
    maps = (_placed(t, place_a, place_b) for t in (zip(ids, ids, ids), c._index_form[1]))
    models = [a, b]
    del a, b  # each full model is freed after its pass, and each map placed after both
    a, b, _, v, h = _carried(models, maps)
    a, b = (FreeUComplex(m.lo, m.gradings, m.columns) for m in (a, b))  # checked: the plus flavor reads d'
    for f in (v, h):
        _check_commutes(f, a, b)
    return a, b, v, h


def _pencil_maps(c: KnotComplex, a: FreeUComplex) -> tuple:
    """A' and B', homology bases of A_0 and B modulo U with differential 0,
    and the column masks of v' and h' : A' -> B' (`twisted`), on A_0 modulo U.

    Modulo U every row of a column sits one grading below it, so the pass
    runs on the models in index coordinates (`_carried`): every pair is a
    unit, A' and B' are the towers, cycles z_i of A_0, and
    v'_i = p_B(v z_i), h'_i = p_B(h z_i).  An image with a coordinate on a
    pair's column end is no cycle: InvariantViolated."""
    a, b, *maps = _modulo_u_maps(c, 0, a)
    a, b, off, *maps = _carried([a, b], maps)
    if off:
        raise InvariantViolated("a map of the pencil sends a cycle off the cycles")
    return (a, b, *maps)


def _a_modulo_u(c: KnotComplex, s: int) -> FreeUComplex:
    """A_s, built, and read modulo U by the rule of `subquotient`: d's terms
    x -> y of power n = lo(x) - lo(y); B's where lo is 0."""
    a = free_plus_complex(c, s)
    lo, columns = a.lo, [0] * len(a.lo)
    for x, y, n in c._index_form[0]:
        if n == lo[x] - lo[y]:
            columns[x] |= 1 << y
    return FreeUComplex._trusted(lo, a.gradings, tuple(columns))


def _hat_dim(columns) -> int:
    """dim H of a complex read modulo U, by its power-0 masks: n - 2 rank."""
    n = len(columns)
    return n - 2 * rank_f2(F2Matrix._from_masks(n, n, columns))


def _b_hat_dim(c: KnotComplex) -> int:
    """dim H(B) modulo U, n - 2 rank off B's echelon basis."""
    return len(c.generators) - 2 * len(c._b_echelon)


def _modulo_u_maps(c: KnotComplex, s: int, a: FreeUComplex) -> tuple:
    """A_s, B, v and h modulo U by the rules of `subquotient`: a, A_s read by
    `_a_modulo_u`, B's table (`KnotComplex._b_modulo_u`), the identity on the
    generators with A <= s, the flip's on A >= s."""
    alex, maslov = c._alexander_gradings, c._int_maslov[1]
    return (a, FreeUComplex._trusted((0,) * len(maslov), maslov, c._b_modulo_u),
            tuple([1 << k if x <= s else 0 for k, x in enumerate(alex)]),
            tuple([f if x >= s else 0 for f, x in zip(_h_map(c), alex)]))


def _hat_cone(a, f, b_columns) -> F2Matrix:
    """The cone of f : A -> B modulo U, for A's power-0 masks a, B first:
    b_columns (B's, or its echelon basis `KnotComplex._b_echelon`, of equal
    span), then f | d_A per column of A, d_A shifted past B's n = |A| rows."""
    n = len(a)
    columns = tuple(b_columns) + tuple([fa | da << n for fa, da in zip(f, a)])
    return F2Matrix._from_masks(2 * n, len(columns), columns)


def _hat_cone_dim(a, f, b_columns) -> int:
    """dim H of the cone of f modulo U (`_hat_cone`): n - 2 rank."""
    return 2 * len(a) - 2 * rank_f2(_hat_cone(a, f, b_columns))


def _hat_total(c: KnotComplex, s: int, a: FreeUComplex) -> int:
    """The hat cone's total_dim on A_s already read modulo U."""
    a, _, v, h = _modulo_u_maps(c, s, a)
    return _hat_cone_dim(a.columns, map(int.__xor__, v, h), c._b_echelon)


def cone_homology_hat(c: KnotComplex, s: int) -> ConeResult:
    """Homology of the cone of v_s + h_s on the hat subquotients, with no
    cancellation (module docstring).  At s = 0 the cone of v + h is graded,
    with B's columns, not its echelon basis: its homology at grading g has
    dimension n_g - r_g - r_(g+1), r_g the rank of its columns at grading g."""
    c = ensure_flip(c)
    a, b, v, h = _modulo_u_maps(c, s, _a_modulo_u(c, s))
    vh, ha, hb = tuple(map(int.__xor__, v, h)), _hat_dim(a.columns), _b_hat_dim(c)
    dims = [_hat_cone_dim(a.columns, f, c._b_echelon) for f in ((v, h, vh) if s else (v, h))]
    graded = None
    if s == 0:
        n, gradings, by_grading = 2 * len(a.columns), tuple(g - 1 for g in b.gradings) + a.gradings, {}
        for g, mask in zip(gradings, _hat_cone(a.columns, vh, b.columns).column_masks()):
            by_grading.setdefault(g, []).append(mask)
        r = {g: rank_f2(F2Matrix._from_masks(n, len(m), tuple(m))) for g, m in by_grading.items()}
        n_g = Counter(gradings)
        graded = _reported(c, {g: k for g in sorted(n_g) if (k := n_g[g] - r.get(g, 0) - r.get(g + 1, 0))})
        dims.append(n - 2 * sum(r.values()))
    return ConeResult(s, "hat", dims[2], *(_rank_nullity(ha, hb, d) for d in dims), graded)


def _free_cone(a: FreeUComplex, b: FreeUComplex, f, degree: int = 0) -> tuple:
    """Gradings and column masks of the cone of f : A -> B of this degree,
    graded: B sits degree + 1 below A."""
    na = len(a.gradings)
    return (a.gradings + tuple(g - degree - 1 for g in b.gradings),
            [da | fa << na for da, fa in zip(a.columns, f)] + [db << na for db in b.columns])


def _powers(col: dict, mask: int, gradings, top: int, precision) -> dict:
    """col plus U^k * r for each row r of mask, k the power that takes grading
    top to gradings[r] = top + 2k, where k is below precision (None: every k).
    A k past _RED_DIM_LIMIT would be a bitmask that long: UPowerTooLarge."""
    for r in _mask_bits(mask):
        k = (gradings[r] - top) // 2
        if precision is None or k < precision:
            if k > _RED_DIM_LIMIT:
                raise UPowerTooLarge(f"the cone of v + h needs U^{k} written out, past U^{_RED_DIM_LIMIT}")
            if x := col.pop(r, 0) ^ 1 << k:
                col[r] = x
    return col


def _ungraded_cone(a: FreeUComplex, b: FreeUComplex, v, h, s: int, precision) -> tuple:
    """Gradings and columns {row: U-power bitmask} of the cone of v + h at
    s != 0, powers below precision: the cone of v, with h 2s gradings lower."""
    gradings, columns = _free_cone(a, b, v)
    cone = [_powers({}, col, gradings, g - 1, precision) for g, col in zip(gradings, columns)]
    for col, g, fh in zip(cone, a.gradings, h):
        _powers(col, fh << len(a.gradings), gradings, g - 1 - 2 * s, precision)
    return gradings, cone


def _plus_reductions(c: KnotComplex, s: int, precision: int | None = None):
    """Reductions of A_s, B and the cones of v, h and v + h, read off reduced
    models (`_reduced_maps`).

    The transfer to A' and B' is exact: i_B f' p_A is homotopic to f, so the
    cone of f is homotopy equivalent to the cone of i_B f' p_A, which
    (p_A, p_B) carries to the cone of f' by a homotopy equivalence, p_B i_B
    being 1.  So each reduction on a reduced model has the pivots U^v with
    v >= 1 and the towers of the full one, and lacks only unit pivots,
    which take 2(n + 1) from size * (n + 1) in `FreeReduction.homology_dim`.

    The graded reductions are exact at every height.  The cone of v + h at
    s != 0 is not graded, and is reduced modulo U^precision, in auto mode
    (None) at its minor-degree bound (`linalg._minor_degree_bound`), above
    every pivot since its differential squares to 0.
    """
    a, b, v, h = _reduced_maps(c, s)
    if s == 0:
        rvh = reduce_free(*_free_cone(a, b, [x ^ y for x, y in zip(v, h)]))
    else:
        gvh, cvh = _ungraded_cone(a, b, v, h, s, precision)
        rvh = _reduce_ungraded(gvh, cvh, precision or _minor_degree_bound(cvh, len(cvh) // 2))
    return (reduce_free(a.gradings, a.columns), reduce_free(b.gradings, b.columns),
            reduce_free(*_free_cone(a, b, v)), reduce_free(*_free_cone(a, b, h, -2 * s)), rvh)


def _induced_rank(ra: FreeReduction, rb: FreeReduction, cone: FreeReduction, n: int) -> int:
    """Rank of f_* at height n, by `_rank_nullity`."""
    return _rank_nullity(ra.homology_dim(n), rb.homology_dim(n), cone.homology_dim(n))


def cone_homology_plus_truncated(c: KnotComplex, s: int, truncation="auto") -> ConeResult:
    """Cone of the truncated plus-flavor maps at height n: total_dim counts
    the homology of the complex truncated at U^(n + 1), and grows with n
    whenever the cone carries U-towers.

    An explicit integer truncation is the height n, which sees a pivot U^v
    through min(v, n + 1) alone; at s = 0 graded_dims is ker(U) below the
    line of `_artifact_cutoff`.  Height 0 is the cone modulo U, the hat
    cone (`cone_homology_hat`), and so is auto mode at |s| > a_bound, where
    v + h is the identity or the flip modulo U.  Elsewhere auto mode reads
    the answers off every pivot (`_plus_reductions`), in closed form:
    - s = 0: graded_dims is ker(U) at every large height, one per tower at
      its grading and one per pivot U^v, v >= 1, at its column's grading;
    - s != 0: the cone has no towers, which is checked (InvariantViolated
      otherwise), so total_dim is 2 sum(v), twice the HF^+ rank;
    - the reported height is the least one at which every block U^v of the
      cone of v + h is whole, max(1, largest v) - 1; total_dim at s = 0 and
      the three ranks are read there.
    """
    c = ensure_flip(c)
    n = None if truncation == "auto" else int(truncation)
    if n is not None and n < 0:
        raise ValueError("truncation must be >= 0")
    if n == 0 or n is None and abs(s) > c.a_bound():
        return replace(cone_homology_hat(c, s), flavor="plus", truncation=0)
    ra, rb, rv, rh, rvh = _plus_reductions(c, s, None if n is None else n + 1)
    if n is None:
        n = max([1] + [v for *_, v in rvh.pairs]) - 1
        if s != 0 and rvh.size != 2 * len(rvh.pairs):
            raise InvariantViolated(f"the plus cone at s = {s} has a U-tower")
        socle = Counter(rvh.towers + tuple(col for _, col, v in rvh.pairs if v))
        graded = _reported(c, dict(sorted(socle.items()))) if s == 0 else None
    else:
        graded = _reported(c, rvh.module(n).socle_dims(_artifact_cutoff(c, n))) if s == 0 else None
    return ConeResult(s, "plus", rvh.homology_dim(n), _induced_rank(ra, rb, rv, n),
                      _induced_rank(ra, rb, rh, n), _induced_rank(ra, rb, rvh, n), graded, n)
